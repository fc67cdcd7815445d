"""Randomized and sweep-based verification of the delay-condition laws.

Every check pits the closed-form algebra against the brute-force oracle:
decision procedures must agree with enumerated solution sets in both
directions.  Consistency criteria (CC, joint solvability, the hold and
licensing criteria) are checked against the oracle's exact emptiness
decider, and every input it names as admitting no output is confirmed
empty by the counting DP.  Checks are deterministic for a given seed and
return a CheckReport with one entry per failure; nothing is ever sampled
from the code under test.

Where full solution sets are materialized, samplers redraw instances
whose undetermined-tick budget would make enumeration explode; bounds
stay inside the documented desk-scale parameter ranges and redraw counts
are reported.
"""

import time
from dataclasses import dataclass, field
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
    free_tick_count,
    iter_solutions,
    solution_count,
)
from .signals import Signal

MAX_REPORTED = 12


@dataclass
class CheckReport:
    name: str
    trials: int
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    seconds: float = 0.0

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


def _rand_signal(rng: Random, max_switches: int, t0: int, t1: int) -> Signal:
    k = min(rng.randint(0, max_switches), t1 - t0 + 1)
    times = tuple(sorted(rng.sample(range(t0, t1 + 1), k)))
    return Signal(rng.randint(0, 1), times)


def _sweep_bdc(pmax: int, cc: bool | None = True):
    for dr in range(pmax + 1):
        for mr in range(dr + 1):
            for df in range(pmax + 1):
                for mf in range(df + 1):
                    p = BdcParams(mr, dr, mf, df)
                    if cc is None or cc_holds(p) == cc:
                        yield p


def _sweep_ric(pmax: int):
    for er in range(pmax + 1):
        for ur in range(er + 1):
            for ef in range(pmax + 1):
                for uf in range(ef + 1):
                    yield RicParams(ur, er, uf, ef)


def _u_pool(rng: Random, span: int, n_random: int, max_switches: int = 4):
    pool = [
        Signal(0, (0,)),
        Signal(1, (0,)),
        Signal(0, (0, span)),
        Signal(1, (0, span)),
    ]
    if span >= 4:
        pool.append(Signal(0, (0, span // 2, span // 2 + 1, span)))
    for _ in range(n_random):
        pool.append(_rand_signal(rng, max_switches, 0, span))
    return pool


def _take(iterator, k: int) -> list:
    out = []
    for x in iterator:
        out.append(x)
        if len(out) >= k:
            break
    return out


def _pulse_trains(last: int):
    """Probe inputs: one pulse, then two, starting at tick 0 and ending
    by `last`, shortest first, both polarities."""

    def emit(times: tuple[int, ...]):
        yield Signal(0, times)
        yield Signal(1, times)

    for w in range(1, min(10, last) + 1):
        yield from emit((0, w))
    top = min(6, last)
    for span in range(3, min(3 * top, last) + 1):
        for w1 in range(1, top + 1):
            for g in range(1, top + 1):
                if 1 <= span - w1 - g <= top:
                    yield from emit((0, w1, w1 + g, span))


def _check_decider(rep: CheckReport, expr: CondExpr, solvable: bool, what: str) -> None:
    """The exact decider agrees with the closed form `solvable`, and the
    counting DP finds no output for any witness it returns."""
    w = find_empty_witness(expr)
    if w is None:
        if not solvable:
            rep.fail(f"{what}: closed form says unsolvable, yet every input has an output")
        return
    if solvable:
        rep.fail(f"{what}: closed form says solvable, yet u={w} admits no output")
    first, last = (w.switches[0], w.switches[-1]) if w.switches else (0, 0)
    grid = GridConfig(first - 1, last + expr.reach + 1)
    if solution_count(w, expr, grid) != 0:
        rep.fail(f"{what}: witness u={w} has outputs on [{grid.lo}, {grid.hi}]")


# -- existence and canonical bounds ------------------------------------------


def check_existence_bounds(trials: int | None = None, seed: int = 0) -> CheckReport:
    """Consistent parameters admit solutions bracketed by the canonical
    min/max; for inconsistent parameters the decider finds an input with
    no solution."""
    trials = 200 if trials is None else trials
    rng = Random(seed)
    rep = CheckReport("t1", trials)
    t0 = time.monotonic()
    grid = GridConfig(-2, 22)
    redraws = 0
    for trial in range(trials):
        while True:
            p = _rand_bdc(rng, 6, cc=True)
            u = _rand_signal(rng, 6, 0, 12)
            if free_tick_count(u, CondExpr((p,)), grid) <= 14:
                break
            redraws += 1
        lo_sol = bdc_min_solution(u, p)
        hi_sol = bdc_max_solution(u, p)
        count = 0
        saw_min = saw_max = False
        bad = False
        for x in iter_solutions(u, CondExpr((p,)), grid):
            count += 1
            if not (lo_sol.leq(x) and x.leq(hi_sol)):
                rep.fail(f"trial {trial}: {x} outside bracket, p={p}, u={u}")
                bad = True
                break
            saw_min = saw_min or x == lo_sol
            saw_max = saw_max or x == hi_sol
        if bad:
            continue
        if count == 0:
            rep.fail(f"trial {trial}: empty solution set for consistent p={p}, u={u}")
        elif not (saw_min and saw_max):
            rep.fail(f"trial {trial}: canonical bound not enumerated, p={p}, u={u}")
    converse = max(50, trials // 4)
    for trial in range(converse):
        p = _rand_bdc(rng, 6, cc=False)
        _check_decider(rep, CondExpr((p,)), cc_holds(p), f"p={p}")
    rep.trials = trials + converse
    rep.info["redraws"] = redraws
    rep.seconds = time.monotonic() - t0
    return rep


# -- parameter algebra laws ---------------------------------------------------


def _draw_pair(rng: Random, grid: GridConfig, pmax: int, budget: int):
    """A consistent parameter pair and input whose sets stay enumerable."""
    redraws = 0
    while True:
        p = _rand_bdc(rng, pmax)
        q = _rand_bdc(rng, pmax)
        u = _rand_signal(rng, 4, 0, 10)
        if (
            free_tick_count(u, CondExpr((p,)), grid) <= budget
            and free_tick_count(u, CondExpr((q,)), grid) <= budget
        ):
            return p, q, u, redraws
        redraws += 1


def _joint_bounds(u: Signal, p: BdcParams, q: BdcParams):
    return bdc_lower(u, p) | bdc_lower(u, q), bdc_upper(u, p) & bdc_upper(u, q)


def check_intersection(trials: int | None = None, seed: int = 1) -> CheckReport:
    """Returned parameters realize the conjunction exactly.  When the
    merge is refused, the oracle confirms why: either some input has no
    common output at all, or the joint bounds match no single tuple."""
    trials = 100 if trials is None else trials
    rng = Random(seed)
    rep = CheckReport("t14a", trials)
    t0 = time.monotonic()
    grid = GridConfig(-2, 18)
    redraws = 0
    for trial in range(trials):
        p, q, u, rd = _draw_pair(rng, grid, 4, 12)
        redraws += rd
        both = CondExpr((p, q))
        r = bdc_intersection(p, q)
        if r is not None:
            joint = set(iter_solutions(u, both, grid))
            single = set(iter_solutions(u, CondExpr((r,)), grid))
            if joint != single:
                rep.fail(
                    f"trial {trial}: Sol({p}) & Sol({q}) != Sol({r}) on u={u}: "
                    f"{len(joint)} vs {len(single)} members"
                )
            elif not joint:
                rep.fail(f"trial {trial}: merged {r} admits nothing on u={u}")
        elif not bdc_jointly_solvable(p, q):
            _check_decider(rep, both, False, f"trial {trial}: {p} and {q}")
        else:
            # Solvable everywhere, yet refused: the candidate bounds must
            # genuinely disagree with the joint bounds on some input.
            if solution_count(u, both, grid) == 0:
                rep.fail(f"trial {trial}: joint of {p}, {q} empty on u={u}")
            dr2 = min(p.dr, q.dr)
            df2 = min(p.df, q.df)
            mr2 = dr2 - max(p.dr - p.mr, q.dr - q.mr)
            mf2 = df2 - max(p.df - p.mf, q.df - q.mf)
            if mr2 < 0 or mf2 < 0:
                continue  # no in-range tuple can even state the boxes
            cand = BdcParams(mr2, dr2, mf2, df2)
            found = False
            for u2 in _take(_pulse_trains(8), 80):
                low, high = _joint_bounds(u2, p, q)
                if low != bdc_lower(u2, cand) or high != bdc_upper(u2, cand):
                    found = True
                    break
            if not found:
                rep.fail(
                    f"trial {trial}: {p}, {q} refused but candidate {cand} "
                    f"matches the joint bounds on every probe"
                )
    rep.info["redraws"] = redraws
    rep.seconds = time.monotonic() - t0
    return rep


def check_union_envelope(trials: int | None = None, seed: int = 2) -> CheckReport:
    """The envelope is consistent, contains both families, and is exactly
    the union iff one family already includes the other."""
    trials = 100 if trials is None else trials
    rng = Random(seed)
    rep = CheckReport("t14b", trials)
    t0 = time.monotonic()
    grid = GridConfig(-2, 18)
    redraws = 0
    for trial in range(trials):
        while True:
            p, q, u, rd = _draw_pair(rng, grid, 4, 12)
            redraws += rd
            env = bdc_union_envelope(p, q)
            if free_tick_count(u, CondExpr((env,)), grid) <= 14:
                break
            redraws += 1
        if not cc_holds(env):
            rep.fail(f"trial {trial}: envelope of {p}, {q} violates CC: {env}")
            continue
        sols_p = set(iter_solutions(u, CondExpr((p,)), grid))
        sols_q = set(iter_solutions(u, CondExpr((q,)), grid))
        for x in sols_p | sols_q:
            if not bdc_member(u, x, env):
                rep.fail(f"trial {trial}: member {x} escapes envelope {env}")
                break
        sols_env = set(iter_solutions(u, CondExpr((env,)), grid))
        if bdc_includes(p, q) or bdc_includes(q, p):
            if sols_env != sols_p | sols_q:
                rep.fail(
                    f"trial {trial}: envelope {env} not tight on u={u} "
                    f"({len(sols_env)} vs {len(sols_p | sols_q)})"
                )
        else:
            # strictness must show up on some input
            found = False
            for u2 in _take(_pulse_trains(10), 90):
                if free_tick_count(u2, CondExpr((env,)), grid) > 14:
                    continue
                for y in iter_solutions(u2, CondExpr((env,)), grid):
                    if not bdc_member(u2, y, p) and not bdc_member(u2, y, q):
                        found = True
                        break
                if found:
                    break
            if not found:
                rep.fail(
                    f"trial {trial}: envelope {env} of {p}, {q} never strict"
                )
    rep.info["redraws"] = redraws
    rep.seconds = time.monotonic() - t0
    return rep


def check_determinism(trials: int | None = None, seed: int = 3) -> CheckReport:
    """Exactly the zero-memory parameters have one solution per input,
    and that solution is the pure shift.  Every consistent combination
    with parameters up to 4 is checked on a fixed pulse and two sampled
    inputs: `trials` is ignored."""
    rng = Random(seed)
    rep = CheckReport("t14c", 0)
    t0 = time.monotonic()
    grid = GridConfig(-2, 16)
    combos = 0
    for p in _sweep_bdc(4):
        combos += 1
        expect = p.mr == 0 and p.mf == 0
        if bdc_is_deterministic(p) != expect:
            rep.fail(f"decider disagrees with memory test on {p}")
        shift = bdc_as_translation(p)
        if expect:
            if shift != p.dr or p.dr != p.df:
                rep.fail(f"deterministic {p} does not reduce to a shift")
        elif shift is not None:
            rep.fail(f"nondeterministic {p} claims shift {shift}")
        pool = [Signal(0, (0, 4 + max(p.dr, p.df)))]
        pool += [_rand_signal(rng, 3, 0, 8) for _ in range(2)]
        nondet_seen = False
        for u in pool:
            count = solution_count(u, CondExpr((p,)), grid)
            if count == 0:
                rep.fail(f"consistent {p} has no solution for u={u}")
            if expect:
                if count != 1:
                    rep.fail(f"deterministic {p} has {count} solutions for u={u}")
                else:
                    only = next(iter_solutions(u, CondExpr((p,)), grid))
                    if only != u.translate(p.dr):
                        rep.fail(f"unique solution for {p} is not the shift on u={u}")
            else:
                nondet_seen = nondet_seen or count > 1
        if not expect and not nondet_seen:
            rep.fail(f"nondeterministic {p}: every sampled input gave one solution")
    rep.trials = combos
    rep.seconds = time.monotonic() - t0
    return rep


def check_inclusion(trials: int | None = None, seed: int = 4) -> CheckReport:
    """The parameter chains decide set inclusion, witnessed both ways."""
    trials = 100 if trials is None else trials
    rng = Random(seed)
    rep = CheckReport("t14d", trials)
    t0 = time.monotonic()
    grid = GridConfig(-2, 18)
    redraws = 0
    for trial in range(trials):
        p, q, u, rd = _draw_pair(rng, grid, 4, 12)
        redraws += rd
        if bdc_includes(p, q):
            ok = True
            for x in iter_solutions(u, CondExpr((p,)), grid):
                if not bdc_member(u, x, q):
                    rep.fail(f"trial {trial}: {x} in Sol({p}) but not Sol({q}), u={u}")
                    ok = False
                    break
            if not ok:
                continue
        else:
            found = False
            candidates = [u] + _take(_pulse_trains(10), 40)
            for u2 in candidates:
                if free_tick_count(u2, CondExpr((p,)), grid) > 12:
                    continue
                for x in iter_solutions(u2, CondExpr((p,)), grid):
                    if not bdc_member(u2, x, q):
                        found = True
                        break
                if found:
                    break
            if not found:
                rep.fail(
                    f"trial {trial}: inclusion denied for {p} <= {q} "
                    f"but no escaping member found"
                )
    rep.info["redraws"] = redraws
    rep.seconds = time.monotonic() - t0
    return rep


def check_time_invariance(trials: int | None = None, seed: int = 5) -> CheckReport:
    """Membership commutes with translating input and output together."""
    trials = 100 if trials is None else trials
    rng = Random(seed)
    rep = CheckReport("t14e", trials)
    t0 = time.monotonic()
    grid = GridConfig(-2, 18)
    for trial in range(trials):
        p, _q, u, _rd = _draw_pair(rng, grid, 4, 12)
        k = rng.randint(-4, 4)
        uk = u.translate(k)
        for x in _take(iter_solutions(u, CondExpr((p,)), grid), 6):
            if not bdc_member(uk, x.translate(k), p):
                rep.fail(f"trial {trial}: member lost under shift {k}: p={p}, u={u}")
        for _ in range(6):
            y = _rand_signal(rng, 6, -2, 16)
            if not bdc_member(u, y, p) and bdc_member(uk, y.translate(k), p):
                rep.fail(f"trial {trial}: non-member gained under shift {k}: p={p}")
        a = AicParams(rng.randint(0, 3), rng.randint(0, 3))
        y = _rand_signal(rng, 4, 0, 10)
        if aic_member(y, a) != aic_member(y.translate(k), a):
            rep.fail(f"trial {trial}: hold condition not shift-invariant on {y}")
        er, ef = rng.randint(0, 3), rng.randint(0, 3)
        r = RicParams(rng.randint(0, er), er, rng.randint(0, ef), ef)
        if ric_member(u, y, r) != ric_member(uk, y.translate(k), r):
            rep.fail(f"trial {trial}: edge condition not shift-invariant on {y}")
    rep.seconds = time.monotonic() - t0
    return rep


def check_symmetry(trials: int | None = None, seed: int = 6) -> CheckReport:
    """Complement duality holds exactly for rise/fall-symmetric parameters,
    checked on every consistent combination with parameters up to 4 and
    two sampled inputs each: `trials` is ignored."""
    rng = Random(seed)
    rep = CheckReport("t14f", 0)
    t0 = time.monotonic()
    grid = GridConfig(-2, 18)
    combos = 0
    for p in _sweep_bdc(4):
        combos += 1
        sym = bdc_is_symmetrical(p)
        if sym != (p.dr == p.df and p.mr == p.mf):
            rep.fail(f"symmetry decider wrong on {p}")
        pool = _u_pool(rng, 10, 2)
        if sym:
            for u in pool:
                if free_tick_count(u, CondExpr((p,)), grid) > 12:
                    continue
                for x in _take(iter_solutions(u, CondExpr((p,)), grid), 48):
                    if not bdc_member(~u, ~x, p):
                        rep.fail(f"symmetric {p}: duality fails for u={u}, x={x}")
                        break
        else:
            found = False
            for u in pool + _take(_pulse_trains(10), 40):
                if free_tick_count(u, CondExpr((p,)), grid) > 12:
                    continue
                for x in iter_solutions(u, CondExpr((p,)), grid):
                    if not bdc_member(~u, ~x, p):
                        found = True
                        break
                if found:
                    break
            if not found:
                rep.fail(f"asymmetric {p}: no duality violation found")
    rep.trials = combos
    rep.seconds = time.monotonic() - t0
    return rep


def check_composition(trials: int | None = None, seed: int = 7) -> CheckReport:
    """Chained solutions satisfy the summed parameters, the summed
    condition's extremal solutions factor back through the stages, and a
    memoryless stage makes the containment an equality.  The containment
    must also show up as strict somewhere: a candidate can meet the
    summed windows while no intermediate signal splits it into stages."""
    trials = 100 if trials is None else trials
    rng = Random(seed)
    rep = CheckReport("t14g", trials)
    t0 = time.monotonic()
    grid = GridConfig(-2, 16)
    redraws = 0
    equal_seen = 0
    strict_seen = 0
    for trial in range(trials):
        while True:
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
            if (
                free_tick_count(u, CondExpr((p,)), grid) <= 8
                and free_tick_count(u, CondExpr((comp,)), grid) <= 12
            ):
                break
            redraws += 1
        if not cc_holds(comp):
            rep.fail(f"trial {trial}: consistent stages, inconsistent sum {comp}")
            continue
        chained: set[Signal] = set()
        pairs = 0
        blown = False
        for x in iter_solutions(u, CondExpr((p,)), grid):
            for y in iter_solutions(x, CondExpr((q,)), grid):
                chained.add(y)
                pairs += 1
                if pairs > 200_000:
                    blown = True
                    break
            if blown:
                break
        if blown:
            redraws += 1
            continue
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
    rep.info["redraws"] = redraws
    rep.info["equal"] = equal_seen
    rep.info["strict"] = strict_seen
    rep.seconds = time.monotonic() - t0
    return rep


# -- absolute inertia ---------------------------------------------------------


def check_hold_consistency(trials: int | None = None, seed: int = 8) -> CheckReport:
    """Bounded delay plus output holds is solvable iff the holds fit the
    memories, decided exactly on every combination with parameters up
    to 4.  The sweep is exhaustive: `trials` and `seed` are ignored."""
    rep = CheckReport("baidc", 0)
    t0 = time.monotonic()
    combos = 0
    for p in _sweep_bdc(4):
        for er in range(5):
            for ef in range(5):
                a = AicParams(er, ef)
                combos += 1
                solvable = baidc_consistent(p, a)
                _check_decider(rep, CondExpr((p, a)), solvable, f"p={p}, a={a}")
    rep.trials = combos
    rep.seconds = time.monotonic() - t0
    return rep


def check_hold_serial(trials: int | None = None, seed: int = 9) -> CheckReport:
    """A chain of two held bounded delays satisfies the summed bounded
    delay with the second stage's holds."""
    trials = 50 if trials is None else trials
    rng = Random(seed)
    rep = CheckReport("baidc-serial", trials)
    t0 = time.monotonic()
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
        for x in _take(iter_solutions(u, CondExpr((p, a)), grid), 30):
            for y in _take(iter_solutions(x, CondExpr((q, b)), grid), 30):
                checked += 1
                if not bdc_member(u, y, comp) or not aic_member(y, b):
                    rep.fail(
                        f"trial {trial}: chained output {y} escapes "
                        f"composite condition (p={p}, a={a}, q={q}, b={b}, u={u})"
                    )
        if checked == 0:
            rep.fail(f"trial {trial}: no chained outputs at all (u={u}, p={p}, q={q})")
    rep.seconds = time.monotonic() - t0
    return rep


# -- relative inertia ---------------------------------------------------------


def check_relative_implies_absolute(
    trials: int | None = None, seed: int = 10
) -> CheckReport:
    """Edge-licensing windows force the mapped output holds."""
    trials = 100 if trials is None else trials
    rng = Random(seed)
    rep = CheckReport("t42", trials)
    t0 = time.monotonic()
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
    rep.seconds = time.monotonic() - t0
    return rep


def check_relative_consistency(
    trials: int | None = None, seed: int = 11
) -> CheckReport:
    """The four-regime test and the exact criterion for bounded delay plus
    edge licensing, against the decider on every combination with
    parameters up to 4; sweeps must exercise every regime.  The sweep is
    exhaustive: `trials` and `seed` are ignored."""
    rep = CheckReport("t45", 0)
    t0 = time.monotonic()
    fired = {"b.i": 0, "b.ii": 0, "b.iii": 0, "b.iv": 0}
    combos = 0
    for p in _sweep_bdc(4, cc=None):
        for r in _sweep_ric(4):
            combos += 1
            cases = bridc_consistency_cases(p, r)
            for c in cases:
                fired[c] += 1
            solvable = bridc_consistent(p, r)
            if cases and not solvable:
                rep.fail(f"regime fired outside the criterion: p={p}, r={r}")
                continue
            _check_decider(rep, CondExpr((p, r)), solvable, f"p={p}, r={r}")
    for c, n in fired.items():
        if n == 0:
            rep.fail(f"regime {c} never fired in the sweep")
    rep.trials = combos
    rep.info["regimes"] = dict(sorted(fired.items()))
    rep.seconds = time.monotonic() - t0
    return rep


def check_det_transfer(trials: int | None = None, seed: int = 12) -> CheckReport:
    """With windows equal to memories the condition has exactly one
    solution: the recurrence output.  Zero memory reproduces the pure
    shift; short pulses are swallowed."""
    trials = 200 if trials is None else trials
    rng = Random(seed)
    rep = CheckReport("t47", trials)
    t0 = time.monotonic()
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
        sols = _take(iter_solutions(u, CondExpr((p, r)), grid), 3)
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
    rep.seconds = time.monotonic() - t0
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
    try:
        fn = THEOREM_CHECKS[name]
    except KeyError:
        raise ValueError(
            f"unknown theorem {name!r}; choose from {', '.join(sorted(THEOREM_CHECKS))}"
        ) from None
    if seed is None:
        return fn(trials)
    return fn(trials, seed)
