"""Randomized and sweep-based verification of the delay-condition laws.

Every check pits the closed-form algebra against the brute-force oracle:
decision procedures must agree with the oracle's solution sets in both
directions.  Consistency criteria (CC, joint solvability, the hold and
licensing criteria) are checked against the oracle's exact emptiness
decider, and every input it names as admitting no output is confirmed
empty by the counting DP.  Checks are deterministic for a given seed and
return a CheckReport with one entry per failure; nothing is ever sampled
from the code under test.

A bounded delay fixes each output tick x(t) from the input window
u(t - d .. t - d + m) alone, so its solution set on a grid is a box
between the least and greatest output.  The oracle's per-tick tables
give both at once (`pointwise_bounds`), and the counting DP decides set
relations between such families exactly: Sol(A) is inside Sol(B) on an
input when conjoining B loses no solution.  A set law of bounded delays
thus holds or fails tick by tick, and it holds on every input exactly
when it holds on every window of reach + 1 input bits.  The suites'
parameters are at most 4, so one input that shows every window of 5
bits, EVERY_WINDOW, decides each of the set laws t14a, t14b, t14d, t14e
and t14f in one comparison, and t14c in one count: a parameter has one
solution on it exactly when both its memories are 0, since a memory
leaves some window's tick free.  One direction of t14b is not tick by
tick: two boxes that differ at one tick alone have their hull as union, so
"no inclusion leaves some envelope member in neither family on
EVERY_WINDOW" rests on a check of all 24,025 pairs of parameters up
to 4, which the tests repeat on every 11th pair.  The bracket law (t1) is checked exactly on
every draw, and the DFS lists only samples.  A chained set (t14g) is not
a box, but its draws are small enough to list it whole.

Suites are run through `run_check`, which times every suite into the
report's `seconds` and applies its defaults: a trial count or seed left
at None takes the suite's own signature default.
"""

import time
from itertools import islice, product
from random import Random

from .conditions import (
    AicParams,
    BdcParams,
    CondExpr,
    RicParams,
    aic_member,
    baidc_consistent,
    bdc_as_translation,
    bdc_compose,
    bdc_includes,
    bdc_intersection,
    bdc_is_deterministic,
    bdc_is_symmetrical,
    bdc_jointly_solvable,
    bdc_lower,
    bdc_max_solution,
    bdc_member,
    bdc_min_solution,
    bdc_union_envelope,
    bdc_upper,
    bridc_consistency_cases,
    bridc_consistent,
    bridc_det_output,
    cc_holds,
    ric_member,
    ric_to_aic,
)
from .oracle import (
    GridConfig,
    find_empty_witness,
    iter_solutions,
    pointwise_bounds,
    solution_count,
)
from .signals import Signal, shown, shown_int

MAX_REPORTED = 12
# t1 lists a draw's solutions with the DFS only up to 2**ENUMERATED_FREE
ENUMERATED_FREE = 10
# A de Bruijn sequence: ticks 0 .. 35 show each of the 32 windows of 5
# bits once, and the grid covers every tick whose window reads them.
EVERY_WINDOW = Signal(0, (5, 10, 11, 14, 16, 18, 19, 20, 21, 23, 26, 27, 28, 29, 31, 32))
WINDOW_GRID = GridConfig(-2, 40)


class SuiteError(ValueError):
    """A suite name, trial count or seed that `run_check` refuses."""


class CheckReport:
    def __init__(self, name: str, trials: int):
        self.name = name
        self.trials = trials
        self.failures: list[str] = []
        self.info: dict = {}
        self.seconds = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, msg: str) -> None:
        if len(self.failures) < MAX_REPORTED:
            self.failures.append(msg)
        elif len(self.failures) == MAX_REPORTED:
            self.failures.append("... more failures suppressed")

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        extra = ""
        if self.info:
            parts = [f"{k}={v}" for k, v in sorted(self.info.items())]
            extra = " [" + ", ".join(parts) + "]"
        return (
            f"{self.name}: {verdict} ({self.trials} trials, "
            f"{len(self.failures)} failures, {self.seconds:.1f}s){extra}"
        )


# -- samplers ----------------------------------------------------------------


def _rand_bdc(rng: Random, pmax: int, cc: bool = True) -> BdcParams:
    while True:
        dr = rng.randint(0, pmax)
        mr = rng.randint(0, dr)
        df = rng.randint(0, pmax)
        mf = rng.randint(0, df)
        p = BdcParams(mr, dr, mf, df)
        if cc_holds(p) == cc:
            return p


def _rand_signal(rng: Random, most: int, t0: int, t1: int) -> Signal:
    """A signal of at most `most` switches, drawn from ticks t0 .. t1."""
    k = min(rng.randint(0, most), t1 - t0 + 1)
    times = tuple(sorted(rng.sample(range(t0, t1 + 1), k)))
    return Signal(rng.randint(0, 1), times)


def _window_pairs(pmax: int):
    """Every (rise, fall) pair of windows (m, d) with 0 <= m <= d <= pmax,
    rise bound outermost, then rise memory, fall bound, fall memory."""
    windows = [(m, d) for d in range(pmax + 1) for m in range(d + 1)]
    return product(windows, repeat=2)


def _sweep_bdc(pmax: int, cc: bool | None = True):
    for (mr, dr), (mf, df) in _window_pairs(pmax):
        p = BdcParams(mr, dr, mf, df)
        if cc is None or cc_holds(p) == cc:
            yield p


def _sweep_ric(pmax: int):
    for (ur, er), (uf, ef) in _window_pairs(pmax):
        yield RicParams(ur, er, uf, ef)


def _check_decider(rep: CheckReport, expr: CondExpr, solvable: bool, prefix: str = "") -> None:
    """The exact decider agrees with the closed form `solvable`, and the
    counting DP finds no output for any witness it returns.  A failure
    names the expression's atoms after `prefix`."""
    w = find_empty_witness(expr)
    if w is None:
        if not solvable:
            rep.fail(
                f"{prefix}{_atoms(expr)}: closed form says unsolvable, "
                f"yet every input has an output"
            )
        return
    if solvable:
        rep.fail(f"{prefix}{_atoms(expr)}: closed form says solvable, yet u={w} admits no output")
    first, last = (w.switches[0], w.switches[-1]) if w.switches else (0, 0)
    grid = GridConfig(first - 1, last + expr.reach + 1)
    if solution_count(w, expr, grid) != 0:
        rep.fail(f"{prefix}{_atoms(expr)}: witness u={w} has outputs on [{grid.lo}, {grid.hi}]")


def _atoms(expr: CondExpr) -> str:
    return ", ".join(map(repr, expr.atoms))


# -- existence and canonical bounds ------------------------------------------


def check_existence_bounds(trials: int = 200, seed: int = 0) -> CheckReport:
    """Consistent parameters admit solutions, and on the grid these are
    exactly the outputs between the canonical min and max.  The oracle's
    per-tick tables give the least and greatest admissible outputs, which
    must be members, equal the closed forms, and bound 2**free solutions
    by the counting DP, free being the ticks where they differ.  Every
    tenth draw with at most ENUMERATED_FREE free ticks is also listed by
    the DFS, least first and greatest last.  For inconsistent parameters
    the decider finds an input with no solution."""
    rng = Random(seed)
    rep = CheckReport("t1", trials)
    grid = GridConfig(-2, 22)
    enumerated = max_free = 0
    for trial in range(trials):
        p = _rand_bdc(rng, 6, cc=True)
        u = _rand_signal(rng, 6, 0, 12)
        expr = CondExpr((p,))
        bounds = pointwise_bounds(u, expr, grid)
        if bounds is None:
            rep.fail(f"trial {trial}: empty solution set for consistent p={p}, u={u}")
            continue
        least, greatest = bounds
        if not (bdc_member(u, least, p) and bdc_member(u, greatest, p)):
            rep.fail(f"trial {trial}: bound {least} or {greatest} not a member, p={p}, u={u}")
        if least != bdc_min_solution(u, p) or greatest != bdc_max_solution(u, p):
            rep.fail(
                f"trial {trial}: oracle bounds {least}, {greatest} differ from the "
                f"canonical min and max, p={p}, u={u}"
            )
        free = sum((least ^ greatest).values_on(grid.lo, grid.hi))
        max_free = max(max_free, free)
        count = solution_count(u, expr, grid)
        if count != 2**free:
            rep.fail(f"trial {trial}: {count} solutions, not 2**{free}, p={p}, u={u}")
        if trial % 10 == 0 and free <= ENUMERATED_FREE:
            enumerated += 1
            sols = list(iter_solutions(u, expr, grid))
            if not (
                len(set(sols)) == len(sols) == 2**free
                and sols[0] == least
                and sols[-1] == greatest
            ):
                rep.fail(
                    f"trial {trial}: the DFS lists {len(sols)} outputs, not the "
                    f"2**{free} from {least} to {greatest}, p={p}, u={u}"
                )
    converse = max(50, trials // 4)
    for trial in range(converse):
        p = _rand_bdc(rng, 6, cc=False)
        _check_decider(rep, CondExpr((p,)), cc_holds(p))
    rep.trials = trials + converse
    rep.info["enumerated"] = enumerated
    rep.info["max_free"] = max_free
    return rep


# -- parameter algebra laws ---------------------------------------------------


def _draw_pair(rng: Random):
    """A consistent parameter pair, parameters up to 4."""
    return _rand_bdc(rng, 4), _rand_bdc(rng, 4)


def _count(*atoms) -> int:
    """Outputs of the conjunction of `atoms` on EVERY_WINDOW."""
    return solution_count(EVERY_WINDOW, CondExpr(atoms), WINDOW_GRID)


def _escaping(a, b) -> int:
    """Outputs of a on EVERY_WINDOW that are not outputs of b: 0 exactly
    when Sol(a) is inside Sol(b) on every input, parameters up to 4."""
    return _count(a) - _count(a, b)


def check_intersection(trials: int = 100, seed: int = 1) -> CheckReport:
    """Returned parameters realize the conjunction exactly.  When the
    merge is refused, the oracle confirms why: either some input has no
    common output at all, or the joint bounds match no single tuple."""
    rng = Random(seed)
    rep = CheckReport("t14a", trials)
    u = EVERY_WINDOW
    for trial in range(trials):
        p, q = _draw_pair(rng)
        r = bdc_intersection(p, q)
        if r is not None:
            joint, single = _count(p, q), _count(r)
            if not joint == single == _count(p, q, r):
                rep.fail(
                    f"trial {trial}: Sol({p}) & Sol({q}) != Sol({r}): "
                    f"{joint} vs {single} members"
                )
            elif not joint:
                rep.fail(f"trial {trial}: merged {r} admits nothing")
        elif not bdc_jointly_solvable(p, q):
            _check_decider(rep, CondExpr((p, q)), False, f"trial {trial}: ")
        else:
            # Solvable everywhere, yet refused: the candidate bounds must
            # genuinely disagree with the joint bounds on some window.
            if _count(p, q) == 0:
                rep.fail(f"trial {trial}: joint of {p}, {q} empty on some window")
            dr2 = min(p.dr, q.dr)
            df2 = min(p.df, q.df)
            mr2 = dr2 - max(p.dr - p.mr, q.dr - q.mr)
            mf2 = df2 - max(p.df - p.mf, q.df - q.mf)
            if mr2 < 0 or mf2 < 0:
                continue  # no in-range tuple can even state the boxes
            cand = BdcParams(mr2, dr2, mf2, df2)
            joint = bdc_lower(u, p) | bdc_lower(u, q), bdc_upper(u, p) & bdc_upper(u, q)
            if joint == (bdc_lower(u, cand), bdc_upper(u, cand)):
                rep.fail(
                    f"trial {trial}: {p}, {q} refused but candidate {cand} "
                    f"matches the joint bounds on every window"
                )
    return rep


def check_union_envelope(trials: int = 100, seed: int = 2) -> CheckReport:
    """The envelope is consistent, contains both families, and is exactly
    the union iff one family already includes the other."""
    rng = Random(seed)
    rep = CheckReport("t14b", trials)
    for trial in range(trials):
        p, q = _draw_pair(rng)
        env = bdc_union_envelope(p, q)
        if not cc_holds(env):
            rep.fail(f"trial {trial}: envelope of {p}, {q} violates CC: {env}")
            continue
        inside = []
        for a in (p, q):
            inside.append(_count(a, env))
            if n := _count(a) - inside[-1]:
                rep.fail(f"trial {trial}: {n} members of Sol({a}) escape envelope {env}")
        # |E| - |E&P| - |E&Q| + |E&P&Q| members of the envelope E are in
        # neither family: none exactly when one family includes the other
        neither = _count(env) - sum(inside) + _count(p, q, env)
        includes = bdc_includes(p, q) or bdc_includes(q, p)
        if bool(neither) == includes:
            rep.fail(
                f"trial {trial}: envelope {env} of {p}, {q} has {neither} members "
                f"in neither family, yet inclusion is {includes}"
            )
    return rep


def check_determinism() -> CheckReport:
    """Exactly the zero-memory parameters have one solution per input,
    and that solution is the pure shift.  Every consistent combination
    with parameters up to 4 is counted on EVERY_WINDOW, which decides the
    law."""
    rep = CheckReport("t14c", 0)
    for p in _sweep_bdc(4):
        rep.trials += 1
        expect = p.mr == 0 and p.mf == 0
        if bdc_is_deterministic(p) != expect:
            rep.fail(f"decider disagrees with memory test on {p}")
        shift = bdc_as_translation(p)
        if expect:
            if shift != p.dr or p.dr != p.df:
                rep.fail(f"deterministic {p} does not reduce to a shift")
        elif shift is not None:
            rep.fail(f"nondeterministic {p} claims shift {shift}")
        count = _count(p)
        if count == 0:
            rep.fail(f"consistent {p} has no solution")
        elif (count == 1) != expect:
            rep.fail(f"{'' if expect else 'non'}deterministic {p} has {count} solutions")
        elif expect:
            only = next(iter_solutions(EVERY_WINDOW, CondExpr((p,)), WINDOW_GRID))
            if only != EVERY_WINDOW.translate(p.dr):
                rep.fail(f"unique solution for {p} is not the shift")
    return rep


def check_inclusion(trials: int = 100, seed: int = 4) -> CheckReport:
    """The parameter chains decide set inclusion, witnessed both ways."""
    rng = Random(seed)
    rep = CheckReport("t14d", trials)
    for trial in range(trials):
        p, q = _draw_pair(rng)
        n = _escaping(p, q)
        if bdc_includes(p, q):
            if n:
                rep.fail(f"trial {trial}: {n} members of Sol({p}) not in Sol({q})")
        elif not n:
            rep.fail(
                f"trial {trial}: inclusion denied for {p} <= {q} "
                f"but no member escapes on any window"
            )
    return rep


def check_time_invariance(trials: int = 100, seed: int = 5) -> CheckReport:
    """Membership commutes with translating input and output together:
    the bounds of the box shift with the input."""
    rng = Random(seed)
    rep = CheckReport("t14e", trials)
    u = EVERY_WINDOW
    for trial in range(trials):
        p = _rand_bdc(rng, 4)
        k = rng.randint(-4, 4)
        uk = u.translate(k)
        least, greatest = pointwise_bounds(u, CondExpr((p,)), WINDOW_GRID)
        if (least.translate(k), greatest.translate(k)) != (bdc_lower(uk, p), bdc_upper(uk, p)):
            rep.fail(f"trial {trial}: bounds of p={p} do not commute with shift {k}")
        # the hold and edge conditions are not boxes: they take drawn signals
        a = AicParams(rng.randint(0, 3), rng.randint(0, 3))
        v, y = _rand_signal(rng, 4, 0, 10), _rand_signal(rng, 4, 0, 10)
        if aic_member(y, a) != aic_member(y.translate(k), a):
            rep.fail(f"trial {trial}: hold condition not shift-invariant on {y}")
        er, ef = rng.randint(0, 3), rng.randint(0, 3)
        r = RicParams(rng.randint(0, er), er, rng.randint(0, ef), ef)
        if ric_member(v, y, r) != ric_member(v.translate(k), y.translate(k), r):
            rep.fail(f"trial {trial}: edge condition not shift-invariant on {y}")
    return rep


def _dual_inside(p: BdcParams) -> bool:
    """Whether ~x is an output of p on ~u for every output x of p on u =
    EVERY_WINDOW.  The complements fill the box from ~greatest to
    ~least, so this is two comparisons with the bounds on ~u."""
    expr = CondExpr((p,))
    least, greatest = pointwise_bounds(EVERY_WINDOW, expr, WINDOW_GRID)
    lo, hi = pointwise_bounds(~EVERY_WINDOW, expr, WINDOW_GRID)
    return lo.leq(~greatest) and (~least).leq(hi)


def check_symmetry() -> CheckReport:
    """Complement duality holds exactly for rise/fall-symmetric parameters,
    checked on every consistent combination with parameters up to 4.
    Both inputs u and ~u show every window, so one comparison on
    EVERY_WINDOW decides the law."""
    rep = CheckReport("t14f", 0)
    for p in _sweep_bdc(4):
        rep.trials += 1
        sym = bdc_is_symmetrical(p)
        if sym != (p.dr == p.df and p.mr == p.mf):
            rep.fail(f"symmetry decider wrong on {p}")
        if _dual_inside(p) != sym:
            rep.fail(
                f"symmetric {p}: duality fails on some window" if sym
                else f"asymmetric {p}: no duality violation on any window"
            )
    return rep


def check_composition(trials: int = 100, seed: int = 7) -> CheckReport:
    """Chained solutions satisfy the summed parameters, the summed
    condition's extremal solutions factor back through the stages, and a
    memoryless stage makes the containment an equality.  The containment
    must also show up as strict somewhere: a candidate can meet the
    summed windows while no intermediate signal splits it into stages.
    With parameters up to 2 and inputs of at most 3 switches, p leaves at
    most 6 ticks free, so the chained set is listed whole."""
    rng = Random(seed)
    rep = CheckReport("t14g", trials)
    grid = GridConfig(-2, 16)
    equal_seen = 0
    strict_seen = 0
    for trial in range(trials):
        p = _rand_bdc(rng, 2)
        q = _rand_bdc(rng, 2)
        if trial % 5 == 4:
            # keep the equality regime in the sample
            d = rng.randrange(3)
            if rng.random() < 0.5:
                p = BdcParams(0, d, 0, d)
            else:
                q = BdcParams(0, d, 0, d)
        u = _rand_signal(rng, 3, 0, 8)
        comp = bdc_compose(p, q)
        if not cc_holds(comp):
            rep.fail(f"trial {trial}: consistent stages, inconsistent sum {comp}")
            continue
        chained = {
            y
            for x in iter_solutions(u, CondExpr((p,)), grid)
            for y in iter_solutions(x, CondExpr((q,)), grid)
        }
        direct = set(iter_solutions(u, CondExpr((comp,)), grid))
        if not chained <= direct:
            rep.fail(f"trial {trial}: chained {p};{q} escapes {comp} on u={u}")
            continue
        if (
            bdc_min_solution(u, comp) not in chained
            or bdc_max_solution(u, comp) not in chained
        ):
            rep.fail(
                f"trial {trial}: extremal solution of {comp} does not "
                f"factor through {p};{q} on u={u}"
            )
        if bdc_is_deterministic(p) or bdc_is_deterministic(q):
            if chained != direct:
                rep.fail(
                    f"trial {trial}: memoryless stage yet chained {p};{q} "
                    f"!= {comp} on u={u} ({len(chained)} vs {len(direct)})"
                )
        elif chained == direct:
            equal_seen += 1
        else:
            strict_seen += 1
    if strict_seen == 0:
        rep.fail("containment was never strict; sampling is too tame")
    rep.info["equal"] = equal_seen
    rep.info["strict"] = strict_seen
    return rep


# -- absolute inertia ---------------------------------------------------------


def check_hold_consistency() -> CheckReport:
    """Bounded delay plus output holds is solvable iff the holds fit the
    memories, decided exactly on every combination with parameters up
    to 4."""
    rep = CheckReport("baidc", 0)
    for p, er, ef in product(_sweep_bdc(4), range(5), range(5)):
        a = AicParams(er, ef)
        rep.trials += 1
        _check_decider(rep, CondExpr((p, a)), baidc_consistent(p, a))
    return rep


def check_hold_serial(trials: int = 50, seed: int = 9) -> CheckReport:
    """A chain of two held bounded delays satisfies the summed bounded
    delay with the second stage's holds."""
    rng = Random(seed)
    rep = CheckReport("baidc-serial", trials)
    grid = GridConfig(-3, 18)
    for trial in range(trials):
        while True:
            p = _rand_bdc(rng, 3)
            a = AicParams(rng.randint(0, 3), rng.randint(0, 3))
            if baidc_consistent(p, a):
                break
        while True:
            q = _rand_bdc(rng, 3)
            b = AicParams(rng.randint(0, 3), rng.randint(0, 3))
            if baidc_consistent(q, b):
                break
        u = _rand_signal(rng, 3, 0, 6)
        comp = bdc_compose(p, q)
        checked = 0
        for x in islice(iter_solutions(u, CondExpr((p, a)), grid), 30):
            for y in islice(iter_solutions(x, CondExpr((q, b)), grid), 30):
                checked += 1
                if not bdc_member(u, y, comp) or not aic_member(y, b):
                    rep.fail(
                        f"trial {trial}: chained output {y} escapes "
                        f"composite condition (p={p}, a={a}, q={q}, b={b}, u={u})"
                    )
        if checked == 0:
            rep.fail(f"trial {trial}: no chained outputs at all (u={u}, p={p}, q={q})")
    return rep


# -- relative inertia ---------------------------------------------------------


def check_relative_implies_absolute(
    trials: int = 100, seed: int = 10
) -> CheckReport:
    """Edge-licensing windows force the mapped output holds."""
    rng = Random(seed)
    rep = CheckReport("t42", trials)
    grid = GridConfig(-3, 9)
    for trial in range(trials):
        while True:
            er, ef = rng.randint(0, 3), rng.randint(0, 3)
            r = RicParams(rng.randint(0, er), er, rng.randint(0, ef), ef)
            a = ric_to_aic(r)
            if a is not None:
                break
        u = _rand_signal(rng, 3, 0, 6)
        for x in iter_solutions(u, CondExpr((r,)), grid):
            if not aic_member(x, a):
                rep.fail(f"trial {trial}: {x} meets edges of r={r} but not holds {a}")
                break
    return rep


def check_relative_consistency() -> CheckReport:
    """The four-regime test and the exact criterion for bounded delay plus
    edge licensing, against the decider on every combination with
    parameters up to 4; sweeps must exercise every regime."""
    rep = CheckReport("t45", 0)
    fired = {"b.i": 0, "b.ii": 0, "b.iii": 0, "b.iv": 0}
    for p, r in product(_sweep_bdc(4, cc=None), _sweep_ric(4)):
        rep.trials += 1
        cases = bridc_consistency_cases(p, r)
        for c in cases:
            fired[c] += 1
        solvable = bridc_consistent(p, r)
        if cases and not solvable:
            rep.fail(f"regime fired outside the criterion: p={p}, r={r}")
            continue
        _check_decider(rep, CondExpr((p, r)), solvable)
    for c, n in fired.items():
        if n == 0:
            rep.fail(f"regime {c} never fired in the sweep")
    rep.info["regimes"] = dict(sorted(fired.items()))
    return rep


def check_det_transfer(trials: int = 200, seed: int = 12) -> CheckReport:
    """With windows equal to memories the condition has exactly one
    solution: the recurrence output.  Zero memory reproduces the pure
    shift; short pulses are swallowed."""
    rng = Random(seed)
    rep = CheckReport("t47", trials)
    grid = GridConfig(-3, 21)
    for trial in range(trials):
        if trial % 5 == 4:
            d = rng.randint(0, 5)
            p = BdcParams(0, d, 0, d)
        else:
            p = _rand_bdc(rng, 5)
        u = _rand_signal(rng, 5, 0, 12)
        r = RicParams(p.mr, p.dr, p.mf, p.df)
        det = bridc_det_output(u, p)
        sols = list(islice(iter_solutions(u, CondExpr((p, r)), grid), 3))
        if sols != [det]:
            rep.fail(
                f"trial {trial}: oracle set {sols} != recurrence {det} "
                f"for p={p}, u={u}"
            )
        if p.mr == 0 and p.mf == 0 and det != u.translate(p.dr):
            rep.fail(f"trial {trial}: zero-memory output is not the shift (p={p})")
    pulses = max(100, trials // 2)
    for trial in range(pulses):
        p = _rand_bdc(rng, 5)
        w = rng.randint(1, 8)
        u = Signal(0, (0, w))
        det = bridc_det_output(u, p)
        rose = bool(det.switches)  # det starts at 0, so a switch is a rise
        if rose != (w > p.mr):
            rep.fail(
                f"pulse trial {trial}: width {w} with rise memory {p.mr} "
                f"{'rose' if rose else 'was swallowed'} (p={p})"
            )
        if det.final != 0:
            rep.fail(f"pulse trial {trial}: output stuck high for p={p}")
    rep.trials = trials + pulses
    return rep


# -- registry -----------------------------------------------------------------

THEOREM_CHECKS = {
    "t1": check_existence_bounds,
    "t14a": check_intersection,
    "t14b": check_union_envelope,
    "t14c": check_determinism,
    "t14d": check_inclusion,
    "t14e": check_time_invariance,
    "t14f": check_symmetry,
    "t14g": check_composition,
    "baidc": check_hold_consistency,
    "baidc-serial": check_hold_serial,
    "t42": check_relative_implies_absolute,
    "t45": check_relative_consistency,
    "t47": check_det_transfer,
}


def run_check(name: str, trials: int | None = None, seed: int | None = None) -> CheckReport:
    """Run one suite, timed; `trials` or `seed` left at None takes the
    suite's own default.  An unknown name, a trial count below 1, or
    either for a suite whose function takes neither raises SuiteError."""
    try:
        fn = THEOREM_CHECKS[name]
    except KeyError:
        raise SuiteError(
            f"unknown theorem {shown(name)}; choose from {', '.join(sorted(THEOREM_CHECKS))}"
        ) from None
    if trials is not None and trials < 1:
        raise SuiteError(f"trials must be at least 1, got {shown_int(trials)}")
    given = {k: v for k, v in (("trials", trials), ("seed", seed)) if v is not None}
    if given:
        from inspect import signature  # here: at module level it slows every CLI start
        if not given.keys() <= signature(fn).parameters.keys():
            raise SuiteError(f"{name} sweeps a fixed set: it takes no trial count or seed")
    t0 = time.monotonic()
    rep = fn(**given)
    rep.seconds = time.monotonic() - t0
    return rep
