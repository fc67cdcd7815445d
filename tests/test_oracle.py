"""Brute-force enumeration layer.

The DFS enumerator and the counting dynamic program walk one step table,
so checking them against each other shows little.  Both are instead
checked against brute force: every output bit vector on small grids is
judged by `cond_member`, the run-based membership code, and the DFS must
list exactly the members, in order, while the DP counts them.  Both read
the per-tick rule, which is checked window by window against each atom's
definition.  The exact emptiness decider is pinned on known empty and
known nonempty parameter combinations, and played against the counting
DP on random expressions: every witness it returns must have no
solution, and when it returns None every small input must have one.  Its
witnesses on the baidc sweep and on every 9th pair of the t45 sweep are
pinned by digest, and checked to be shortest against every input that
switches early enough.  The order that fixes each witness (emptying
tick, prehistory, bits from tick 0) is held to a brute-force enumeration
of inputs in that order, and a list decided in one call, sliced any way,
must give each expression the witness it gets alone.  Likewise a list
counted in one call must give each expression its own count.
"""

import functools
import hashlib
import operator
import random
import time
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings, strategies as st

from inertia.conditions import (
    AicParams,
    BdcParams,
    CondExpr,
    FdcParams,
    RicParams,
    bdc_includes,
    bdc_member,
    bdc_union_envelope,
    bridc_consistent,
    cond_member,
)
from inertia.oracle import (
    GridConfig,
    HorizonError,
    enumerate_solutions,
    find_empty_witness,
    find_empty_witnesses,
    free_tick_count,
    iter_solutions,
    pointwise_bounds,
    solution_count,
    solution_counts,
)
from inertia.signals import Signal, Value
from inertia import oracle, verify

U = Signal(0, (0, 5))
P = BdcParams(1, 3, 1, 3)
GRID = GridConfig(-4, 12)


def test_grid_validation():
    with pytest.raises(HorizonError):
        GridConfig(5, 5)
    with pytest.raises(HorizonError):
        GridConfig(0, 200)


HUGE = 10**5000  # more digits than str() writes


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: GridConfig(HUGE, 0), "need lo < hi", id="grid-order"),
    pytest.param(lambda: find_empty_witness(CondExpr((BdcParams(0, HUGE, 0, 0),))),
                 "condition reads the input further back than the 12-tick limit", id="reach"),
    pytest.param(lambda: solution_count(Signal(0, (HUGE,)), CondExpr((P,)), GRID),
                 "input switch 1 of 1 leaves the grid", id="huge-switch"),
    pytest.param(lambda: solution_count(Signal(0, (-5, 0, 13, 14)), CondExpr((P,)), GRID),
                 "input switch 1 of 4 at tick -5 leaves the grid", id="early-switch"),
])
def test_horizon_errors_write_no_long_integer(call, message):
    with pytest.raises(HorizonError) as err:
        call()
    assert str(err.value) == message


def test_enumeration_example():
    sols = enumerate_solutions(U, CondExpr((P,)), GRID)
    assert len(sols) == 4
    assert Signal(0, (3, 7)) in sols
    assert Signal(0, (2, 8)) in sols
    assert all(bdc_member(U, x, P) for x in sols)


def test_solution_count_matches_enumeration_example():
    assert solution_count(U, CondExpr((P,)), GRID) == 4
    assert free_tick_count(U, CondExpr((P,)), GRID) == 2


def test_switches_stay_inside_the_grid():
    for x in iter_solutions(U, CondExpr((P,)), GRID):
        assert all(GRID.lo < t <= GRID.hi for t in x.switches)


def test_deterministic_parameters_give_a_singleton():
    p = BdcParams(0, 2, 0, 2)
    sols = enumerate_solutions(U, CondExpr((p,)), GRID)
    assert sols == [U.translate(2)]


def test_deterministic_licensing_gives_a_singleton():
    p = BdcParams(1, 2, 1, 2)
    r = RicParams(1, 2, 1, 2)
    sols = enumerate_solutions(Signal(0, (0, 3)), CondExpr((p, r)), GridConfig(-3, 15))
    assert len(sols) == 1


def test_count_agrees_with_dfs_on_random_instances():
    rng = random.Random(20240217)
    seen = {"AicParams": 0, "RicParams": 0, "FdcParams": 0}  # nonempty sets per kind
    grid = GridConfig(-3, 13)
    for _ in range(100):
        dr = rng.randint(0, 4)
        df = rng.randint(0, 4)
        p = BdcParams(rng.randint(0, dr), dr, rng.randint(0, df), df)
        k = rng.randint(0, 4)
        u = Signal(rng.randint(0, 1), tuple(sorted(rng.sample(range(0, 9), k))))
        atoms = [p if rng.random() < 0.75 else FdcParams(rng.randint(0, 4))]
        if rng.random() < 0.4:
            atoms.append(AicParams(rng.randint(0, 2), rng.randint(0, 2)))
        if rng.random() < 0.4:
            er, ef = rng.randint(0, 4), rng.randint(0, 4)
            atoms.append(RicParams(rng.randint(0, er), er, rng.randint(0, ef), ef))
        expr = CondExpr(tuple(atoms))
        sols = enumerate_solutions(u, expr, grid)
        assert solution_count(u, expr, grid) == len(sols)
        assert len(set(sols)) == len(sols)
        for kind in {type(a) for a in atoms} - {BdcParams}:
            seen[kind.__name__] += bool(sols)
    assert min(seen.values()) >= 5, seen


def test_pointwise_bounds_are_the_extreme_solutions():
    assert pointwise_bounds(U, CondExpr((P,)), GRID) == (Signal(0, (3, 7)), Signal(0, (2, 8)))
    assert pointwise_bounds(U, CondExpr((FdcParams(2),)), GRID) == (U.translate(2),) * 2
    # holds of zero ticks constrain nothing
    assert pointwise_bounds(U, CondExpr((P, AicParams(0, 0))), GRID) == pointwise_bounds(
        U, CondExpr((P,)), GRID
    )


def test_pointwise_bounds_are_none_when_nothing_is_admissible():
    expr = CondExpr((BdcParams(0, 3, 0, 2),))
    assert pointwise_bounds(Signal(1, (0,)), expr, GridConfig(-2, 14)) is None


@pytest.mark.parametrize("atoms, grid, message", [
    ((P, RicParams(1, 2, 1, 2)), GRID, "licenses edges or holds the output"),
    ((P, AicParams(0, 1)), GRID, "licenses edges or holds the output"),
], ids=["licensing", "holds"])
def test_pointwise_bounds_refuse_what_is_not_a_product(atoms, grid, message):
    with pytest.raises(ValueError, match=message):
        pointwise_bounds(U, CondExpr(atoms), grid)


@st.composite
def window_atoms(draw):
    kind = draw(st.sampled_from(["fdc", "bdc", "aic", "ric"]))
    if kind == "fdc":
        return FdcParams(draw(st.integers(0, 4)))
    if kind == "aic":
        return AicParams(draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    dr, df = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    mr, mf = draw(st.integers(0, dr)), draw(st.integers(0, df))
    return (BdcParams if kind == "bdc" else RicParams)(mr, dr, mf, df)


def reference_nibble(atoms, window: int) -> int:
    """What x may do at a tick t whose input window holds u(t - k) in
    bit k, read off each atom's definition: bit b when x(t) may be b,
    bit 2 + b when x may switch to b at t."""

    def u_on(d, m):  # u over the ticks [t - d, t - d + m]
        return [window >> k & 1 for k in range(d - m, d + 1)]

    may = [True, True]
    edge = [True, True]
    for a in atoms:
        if isinstance(a, BdcParams):  # AND of u on the rise window <= x <= OR on the fall window
            may[0] = may[0] and not all(u_on(a.dr, a.mr))
            may[1] = may[1] and any(u_on(a.df, a.mf))
        elif isinstance(a, FdcParams):  # x(t) = u(t - d)
            may[1 - (window >> a.d & 1)] = False
        elif isinstance(a, RicParams):  # an edge needs u held at its new value
            edge[0] = edge[0] and not any(u_on(a.delta_f, a.mu_f))
            edge[1] = edge[1] and all(u_on(a.delta_r, a.mu_r))
    return may[0] | may[1] << 1 | (may[0] and edge[0]) << 2 | (may[1] and edge[1]) << 3


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(window_atoms(), min_size=1, max_size=3))
def test_tick_rule_matches_each_atoms_definition(atoms):
    # the atoms' tables are cached by (reach, atom); drawn atoms recur
    # under other reaches, so a table kept for the wrong reach shows here
    expr = CondExpr(tuple(atoms))
    reach, rule, rise_hold, fall_hold = oracle._tick_rule(expr)
    assert reach == expr.reach
    for w in range(1 << (reach + 1)):
        assert rule[w] == reference_nibble(atoms, w), (atoms, w)
    assert len(rule) == 1 << (reach + 1)
    holds = [a for a in atoms if isinstance(a, AicParams)]
    assert rise_hold == max((a.delta_r for a in holds), default=0)
    assert fall_hold == max((a.delta_f for a in holds), default=0)


def witness_grid(w: Signal, expr: CondExpr) -> GridConfig:
    """A grid on which the DP finds every output w admits: from just
    before its first switch to past its last switch plus the reach."""
    first, last = (w.switches[0], w.switches[-1]) if w.switches else (0, 0)
    return GridConfig(first - 1, last + expr.reach + 1)


def test_witness_found_for_inconsistent_windows():
    expr = CondExpr((BdcParams(0, 3, 0, 2),))
    w = find_empty_witness(expr)
    assert w == Signal(1, (0,))
    assert solution_count(w, expr, GridConfig(-2, 14)) == 0


@pytest.mark.parametrize("procedure", [
    solution_count, iter_solutions, enumerate_solutions, free_tick_count, pointwise_bounds,
    pytest.param(lambda u, expr, grid: solution_counts(u, [expr] * 3, grid), id="solution_counts"),
    pytest.param(lambda u, expr, grid: solution_counts(u, [], grid), id="solution_counts-none"),
])
def test_a_grid_that_empties_early_still_refuses_a_switch_past_it(procedure):
    # At tick 2 this input asks x(2) = 1 (u(-1) = 1, three ticks back) and
    # x(2) = 0 (u(0) = 0, two ticks back), so the count stops there.  A
    # switch past hi is still refused first, at the call, with the same
    # text, also by a list count, even of no expressions.  The two random
    # count tests hold the count to the listing on grids that empty
    # mid-walk and on runs longer than reach + 1.
    expr = CondExpr((BdcParams(0, 3, 0, 2),))
    assert solution_count(Signal(1, (0,)), expr, GridConfig(-2, 14)) == 0
    with pytest.raises(HorizonError) as err:
        procedure(Signal(1, (0, 20)), expr, GridConfig(-2, 14))
    assert str(err.value) == "input switch 2 of 2 at tick 20 leaves the grid"


def test_no_witness_for_consistent_windows():
    assert find_empty_witness(CondExpr((BdcParams(1, 2, 1, 2),))) is None


def test_witness_found_when_holds_exceed_memories():
    expr = CondExpr((BdcParams(1, 2, 1, 2), AicParams(2, 1)))
    w = find_empty_witness(expr)
    assert w == Signal(0, (0, 2, 4, 6))
    assert solution_count(w, expr, GridConfig(-2, 20)) == 0


def test_witness_at_the_hold_boundary_needs_a_pulse_train():
    # one forcing pulse is never enough here; emptiness only shows up on a
    # train of minimal pulses that walks the output across its slack
    expr = CondExpr((BdcParams(0, 1, 4, 4), AicParams(2, 3)))
    grid = GridConfig(-2, 30)
    w = find_empty_witness(expr)
    assert w == Signal(0, (0, 1, 6, 7, 12, 13))
    assert solution_count(w, expr, grid) == 0
    # by time invariance, inputs with at most two switches start at tick 0
    for init in (0, 1):
        for times in [(), (0,)] + [(0, d) for d in range(1, 21)]:
            assert solution_count(Signal(init, times), expr, grid) > 0, times


def _random_atom(rng: random.Random, most: int = 3):
    """An atom of any kind, its windows and holds up to `most`."""
    kind = rng.randrange(4)
    if kind == 0:
        return FdcParams(rng.randint(0, most))
    if kind == 1:
        dr, df = rng.randint(0, most), rng.randint(0, most)
        return BdcParams(rng.randint(0, dr), dr, rng.randint(0, df), df)
    if kind == 2:
        return AicParams(rng.randint(0, most), rng.randint(0, most))
    er, ef = rng.randint(0, most), rng.randint(0, most)
    return RicParams(rng.randint(0, er), er, rng.randint(0, ef), ef)


EXPRESSIONS = 40
SMALL_INPUTS = [
    Signal(init, times)
    for k in range(5)
    for times in combinations(range(9), k)
    for init in (0, 1)
]


def test_dfs_and_count_list_exactly_the_members_on_small_grids():
    # Every output bit vector on the grid is judged by cond_member, the
    # run-based membership code, which shares nothing with the oracle's
    # step table.  The DFS must list exactly the members, in lexicographic
    # order, and the DP must count them.
    rng = random.Random(20261020)
    vectors = 0
    seen = {"AicParams": 0, "RicParams": 0}  # cases with members
    for _ in range(60):
        lo, n = rng.randint(-3, 0), rng.randint(5, 9)
        grid = GridConfig(lo, lo + n - 1)
        expr = CondExpr(tuple(_random_atom(rng) for _ in range(rng.randint(1, 3))))
        times = sorted(rng.sample(range(lo, lo + n), rng.randint(0, 3)))
        u = Signal(rng.randint(0, 1), tuple(times))
        members = []
        for bits in product((0, 1), repeat=n):
            x = Signal(bits[0], tuple(lo + j for j in range(1, n) if bits[j] != bits[j - 1]))
            if cond_member(u, x, expr):
                members.append(x)
        vectors += 2**n
        assert list(iter_solutions(u, expr, grid)) == members, (expr, u, grid)
        assert solution_count(u, expr, grid) == len(members), (expr, u, grid)
        for kind in {type(a).__name__ for a in expr.atoms} & seen.keys():
            seen[kind] += bool(members)
    assert vectors > 10_000, vectors
    assert min(seen.values()) >= 3, seen


def _count_list(rng: random.Random) -> list[CondExpr]:
    """Expressions of 1-3 atoms of every kind (windows up to 6, holds up to
    5), some repeated, as the same object or an equal one, and some copied
    with one more hold atom: the same bytes under other holds."""
    exprs = []
    for _ in range(rng.randint(1, 5)):
        atoms = tuple(
            AicParams(min(a.delta_r, 5), min(a.delta_f, 5)) if isinstance(a, AicParams) else a
            for a in (_random_atom(rng, 6) for _ in range(rng.randint(1, 3)))
        )
        exprs.append(CondExpr(atoms))
        if rng.random() < 0.4:
            exprs.append(exprs[-1] if rng.random() < 0.5 else CondExpr(atoms))
        if rng.random() < 0.6:
            exprs.append(CondExpr(atoms + (AicParams(rng.randint(0, 5), rng.randint(0, 5)),)))
    rng.shuffle(exprs)
    return exprs


def test_a_list_counts_as_its_expressions_one_by_one():
    # A list mixes kinds, reaches and holds, so its expressions part at
    # different ticks, and some share bytes under other holds.  Its counts,
    # whole and in slices of 1, 2 and 7, are the counts one by one: on
    # random inputs, over grids that end at a switch or well past the last
    # one, and on the first expression's decider witness, where the counts
    # stop early.  The one-by-one counts are held to the DFS and to brute
    # force by the tests above.
    rng = random.Random(20261024)
    seen = {"zero": 0, "nonzero": 0, "witness": 0, "mixed": 0}
    for trial in range(160):
        exprs = _count_list(rng)
        w = find_empty_witness(exprs[0]) if trial % 4 == 0 else None
        if w is not None:
            u, grid = w, witness_grid(w, exprs[0])
            seen["witness"] += 1
        else:
            lo = rng.randint(-3, 0)
            hi = lo + rng.randint(1, 12)
            times = rng.sample(range(lo, hi + 1), min(rng.randint(0, 4), hi - lo + 1))
            if trial % 2 and hi not in times:
                times[-1:] = [hi]  # a switch on the grid's last tick
            u, grid = Signal(rng.randint(0, 1), tuple(sorted(times))), GridConfig(lo, hi)
        singles = [solution_count(u, expr, grid) for expr in exprs]
        assert solution_counts(u, exprs, grid) == singles, (exprs, u, grid)
        for size in (1, 2, 7):
            parts = [solution_counts(u, exprs[i:i + size], grid)
                     for i in range(0, len(exprs), size)]
            assert sum(parts, []) == singles, (size, exprs, u, grid)
        seen["zero"] += singles.count(0)
        seen["nonzero"] += len(singles) - singles.count(0)
        seen["mixed"] += len({e.reach for e in exprs}) > 1 and len(set(singles)) > 1
    assert solution_counts(U, [], GRID) == []
    assert min(seen.values()) >= 20, seen


def test_members_that_part_only_past_the_grid_keep_their_own_tails():
    # On a one-tick pulse at the grid's end both expressions read the same
    # bytes through hi, so they are stepped as one group; only after hi
    # does BdcParams(0, 2, 0, 0) see the pulse, two ticks late, and ask for
    # a rise that an output constant past the grid cannot make.
    u, grid = Signal(0, (0, 1)), GridConfig(-1, 1)
    exprs = [CondExpr((BdcParams(1, 1, 0, 0),)), CondExpr((BdcParams(0, 2, 0, 0),))]
    (_, *walk, tail), (_, *other, other_tail) = (oracle._listed(u, e, grid) for e in exprs)
    assert walk == other and tail != other_tail
    assert solution_counts(u, exprs, grid) == [solution_count(u, e, grid) for e in exprs] == [2, 0]


def _most_hold(expr: CondExpr) -> int:
    return max(
        (max(a.delta_r, a.delta_f) for a in expr.atoms if isinstance(a, AicParams)),
        default=0,
    )


def test_decider_agrees_with_the_counting_dp():
    rng = random.Random(20261018)
    seen = {"witness": 0, "none": 0}
    for _ in range(EXPRESSIONS):
        expr = CondExpr(tuple(_random_atom(rng) for _ in range(rng.randint(1, 3))))
        w = find_empty_witness(expr)
        if w is not None:
            seen["witness"] += 1
            assert solution_count(w, expr, witness_grid(w, expr)) == 0, (expr, w)
            continue
        seen["none"] += 1
        grid = GridConfig(-1, 8 + expr.reach + _most_hold(expr) + 1)
        for u in SMALL_INPUTS:
            assert solution_count(u, expr, grid) > 0, (expr, u)
    assert min(seen.values()) >= 15, seen


def witness_digest(exprs) -> tuple[int, str]:
    """How many of exprs have a witness, and the first 16 hex digits of a
    digest of every witness in order, all decided in one call.  The witness
    is fixed by its order (emptying tick, prehistory, bits from tick 0), not
    by how a search reaches it, so another digest shows that some witness
    changed, not the search order."""
    digest = hashlib.sha256()
    found = 0
    for w in find_empty_witnesses(list(exprs)):
        found += w is not None
        digest.update(b"none\n" if w is None else f"{w.initial} {list(w.switches)}\n".encode())
    return found, digest.hexdigest()[:16]


def test_decider_witnesses_on_the_hold_sweep_are_pinned():
    # the baidc suite's pairs, bounded delays outermost
    sweep = product(verify._sweep_bdc(4), range(5), range(5))
    exprs = (CondExpr((p, AicParams(a, b))) for p, a, b in sweep)
    assert witness_digest(exprs) == (2048, "7db56cd26c1b3174")


def test_decider_witnesses_on_the_licensing_sweep_are_pinned():
    # every 9th pair of the t45 suite's sweep, in its order: 5,625 searches
    sweep = product(verify._sweep_bdc(4, cc=None), verify._sweep_ric(4))
    exprs = (CondExpr(pair) for pair in islice(sweep, 0, None, 9))
    assert witness_digest(exprs) == (4526, "13a324fe89d65666")


def test_a_decider_check_builds_one_rule_and_compares_no_record(monkeypatch):
    # on every 9th pair of the t45 sweep, the decider and the count that
    # confirms its witness share the rule kept on the expression, and the
    # atom tables are found by plain keys: no record's `==` runs
    built, compared = [], []
    store = oracle._set_rule
    monkeypatch.setattr(oracle, "_set_rule", lambda expr, rule: (built.append(expr), store(expr, rule)))
    eq = Value.__eq__
    monkeypatch.setattr(Value, "__eq__", lambda a, b: (compared.append(a), eq(a, b))[1])
    rep = verify.CheckReport("t45", 0)
    sweep = product(verify._sweep_bdc(4, cc=None), verify._sweep_ric(4))
    exprs = [CondExpr(pair) for pair in islice(sweep, 0, None, 9)]
    verify._check_decider(rep, [(expr, bridc_consistent(*expr.atoms)) for expr in exprs])
    assert compared == []
    assert rep.ok and len(exprs) == 5625
    assert len(built) == len(exprs) and all(map(operator.is_, built, exprs))


def test_decider_witnesses_are_shortest():
    # An input that admits no output empties the output set by its last
    # switch plus the reach: from then on its window is constant, and an
    # output that survives one tick of it survives every later one.  The
    # witness empties the set no sooner than its own last switch, so when
    # it is shortest, every input whose last switch comes more than reach
    # ticks before the witness's admits an output.
    rng = random.Random(20261019)
    inputs = 0
    for _ in range(400):
        expr = CondExpr(tuple(_random_atom(rng) for _ in range(rng.randint(1, 3))))
        w = find_empty_witness(expr)
        if w is None or not w.switches or w.switches[-1] >= 8:
            continue
        grid = GridConfig(-1, 8 + expr.reach + _most_hold(expr) + 1)
        ticks = w.switches[-1] - expr.reach  # ticks 0 .. ticks - 1 may switch
        for init, *bits in product((0, 1), repeat=max(ticks, 0) + 1):
            u = Signal(init, tuple(t for t, b in enumerate(bits) if b))
            inputs += 1
            assert solution_count(u, expr, grid) > 0, (expr, w, u)
    assert inputs >= 400, inputs


def first_emptying_input(expr: CondExpr, last: int) -> tuple[Signal, int] | None:
    """The first input, in the order (emptying tick, prehistory value, bits
    at ticks 0, 1, ...), whose output set empties by tick `last`, with that
    tick (-1 for the prehistory), or None.  Every prefix of every length is
    enumerated in that order, each with the whole set of `_Steps` output
    states after its last tick, and is judged empty when none survives it;
    no two prefixes are merged, and no least hold count stands for others."""
    reach, rule, rise_hold, fall_hold = oracle._tick_rule(expr)
    steps = oracle._steps(rise_hold, fall_hold)
    full = (1 << reach + 1) - 1
    # (prehistory, bits from tick 0, window of the last tick, output states)
    level = []
    for c in (0, 1):  # a constant prehistory leaves each allowed output free
        states = oracle._STATES_AT[rule[full * c] & 3]
        if not states:
            return Signal(c, ()), -1
        level.append((c, (), full * c, states))
    for t in range(last + 1):
        grown = []
        for c, bits, window, states in level:
            for b in (0, 1):
                win = (window << 1 | b) & full
                after = {s for state in states for s in steps[state << 4 | rule[win]]}
                path = (c, *bits, b)
                if not after:
                    return Signal(c, tuple(i for i in range(t + 1) if path[i + 1] != path[i])), t
                grown.append((c, bits + (b,), win, tuple(after)))
        level = grown
    return None


def test_the_witness_is_the_first_emptying_input_in_its_order():
    # The contract that pins the witness: a brute-force enumeration in the
    # order (emptying tick, prehistory, bits at ticks 0, 1, ...) finds the
    # same input as the decider, alone and in one call on every draw, for
    # windows and holds up to 3 and witnesses that empty by tick 8.  On
    # these draws no input empties later, so the rest have no witness.
    rng = random.Random(20261022)
    exprs = [
        CondExpr(tuple(_random_atom(rng) for _ in range(rng.randint(1, 3)))) for _ in range(200)
    ]
    batched = find_empty_witnesses(exprs)
    matched = 0
    for expr, w in zip(exprs, batched):
        assert find_empty_witness(expr) == w, expr
        first = first_emptying_input(expr, 8)
        matched += first is not None
        assert w == (first and first[0]), (expr, w, first)
    assert matched >= 90, matched


@pytest.mark.parametrize("size", [1, 2, 5, 64, 400])
def test_a_batch_gives_each_expression_its_own_witness_under_any_slicing(size):
    # one list mixes kinds, reaches and holds, so its slices hold many groups
    rng = random.Random(20261023)
    exprs = [CondExpr(tuple(_random_atom(rng, 5) for _ in range(rng.randint(1, 3))))
             for _ in range(400)]
    singles = [find_empty_witness(expr) for expr in exprs]
    batched = []
    for i in range(0, len(exprs), size):
        batched += find_empty_witnesses(exprs[i:i + size])
    assert batched == singles
    assert 100 <= sum(w is None for w in singles) <= 300
    assert len({(e.reach, *oracle._tick_rule(e)[2:]) for e in exprs}) >= 40


def test_reach_zero_prehistories_that_share_a_window_keep_their_own_roots():
    # x(t) = u(t) with a fall held for k ticks: after the prehistory 0 the
    # output sits at 0, after 1 at 1, and the window is empty in both.  A
    # search that kept one root per window state would answer Signal(0, (1,)),
    # which has an output; the witness is the pulse down and straight up.
    exprs = [CondExpr((BdcParams(0, 0, 0, 0), AicParams(0, k))) for k in range(1, 5)]
    want = [Signal(1, (0, 1))] * 4
    assert [find_empty_witness(expr) for expr in exprs] == want
    assert find_empty_witnesses(exprs + [CondExpr((BdcParams(0, 0, 0, 0),))]) == want + [None]
    for w, expr in zip(want, exprs):
        assert solution_count(w, expr, witness_grid(w, expr)) == 0


def test_lanes_emptied_at_the_prehistory_sit_beside_lanes_that_go_on():
    # No atom empties a constant input, so two expressions are given tick
    # rules by hand: reach 0, where window 0 reads u = 0 and window 1 u = 1
    def ruled(rule: bytes) -> CondExpr:
        expr = CondExpr((FdcParams(0),))
        oracle._set_rule(expr, (0, rule, 0, 0))
        return expr

    exprs = [
        ruled(b"\x00\x0f"),  # nothing at u = 0
        CondExpr((BdcParams(0, 0, 0, 0),)),
        ruled(b"\x0f\x00"),  # nothing at u = 1, checked before any tick
        CondExpr((RicParams(0, 0, 0, 0),)),
        ruled(b"\x05\x0a"),  # x(t) = 1 - u(t), licensed by holds of 0
    ]
    want = [Signal(0, ()), None, Signal(1, ()), None, None]
    assert find_empty_witnesses(exprs) == want
    assert [find_empty_witness(expr) for expr in exprs] == want


HELD_TOO_LONG = CondExpr((BdcParams(12, 12, 12, 12), RicParams(0, 12, 0, 12), AicParams(12, 12)))
CAP_TEXT = (
    "emptiness search passed 100000 states; the condition's reach or holds are too large"
)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: find_empty_witness(HELD_TOO_LONG), id="alone"),
    pytest.param(lambda: find_empty_witnesses([CondExpr((BdcParams(1, 2, 1, 2),)),
                                               HELD_TOO_LONG, CondExpr((FdcParams(3),))]),
                 id="in-a-batch"),
])
def test_a_search_past_the_state_cap_is_refused_alone_and_in_a_batch(call):
    with pytest.raises(HorizonError) as err:
        call()
    assert str(err.value) == CAP_TEXT


# -- law suites -----------------------------------------------------------------------


@pytest.mark.parametrize("fn, shift", [
    ("bdc_min_solution", 1), ("bdc_min_solution", -1),
    ("bdc_max_solution", 1), ("bdc_max_solution", -1),
])
def test_t1_catches_a_canonical_bound_one_tick_off(fn, shift, monkeypatch):
    real = getattr(verify, fn)
    monkeypatch.setattr(verify, fn, lambda u, p: real(u, p).translate(shift))
    rep = verify.run_check("t1")
    assert not rep.ok
    assert "differ from the canonical min and max" in rep.failures[0]


def _includes_without_df_link(real):
    # bdc_includes with its `p.df <= q.df` link dropped
    return lambda p, q: (
        q.dr - q.mr <= p.dr - p.mr <= p.df
        and q.df - q.mf <= p.df - p.mf <= p.dr <= q.dr
    )


def _rise_memory_one_less(real):
    def mutant(p, q):
        r = real(p, q)
        return r and BdcParams(max(r.mr - 1, 0), r.dr, r.mf, r.df)

    return mutant


def _rise_memory_one_more(real):
    def mutant(p, q):
        r = real(p, q)
        return BdcParams(min(r.mr + 1, r.dr), r.dr, r.mf, r.df)

    return mutant


def _fall_bound_one_more(real):
    def mutant(p, q):
        r = real(p, q)
        return BdcParams(r.mr, r.dr, r.mf, r.df + 1)

    return mutant


@pytest.mark.parametrize("suite, fn, mutate, message", [
    ("t14d", "bdc_includes", _includes_without_df_link, "not in Sol("),
    ("t14b", "bdc_union_envelope", _rise_memory_one_less, "escape envelope"),
    ("t14a", "bdc_intersection", _rise_memory_one_less, ") != Sol("),
    ("t14g", "bdc_compose", _fall_bound_one_more, "escapes"),
    ("t14g", "bdc_compose", _rise_memory_one_more, "does not factor through"),
])
def test_set_laws_catch_a_closed_form_one_step_off(suite, fn, mutate, message, monkeypatch):
    monkeypatch.setattr(verify, fn, mutate(getattr(verify, fn)))
    rep = verify.run_check(suite)
    assert not rep.ok
    assert message in rep.failures[0]


@pytest.mark.parametrize("suite", ["t14a", "t14b", "t14d", "t14e", "t14f", "t14g"])
def test_box_set_laws_count_without_budgets(suite, monkeypatch):
    def refused(*_args):
        raise AssertionError(f"{suite} listed a box")

    assert not hasattr(verify, "free_tick_count")  # no suite budgets
    if suite != "t14g":  # a chained set is not a box, so it is listed whole
        monkeypatch.setattr(verify, "iter_solutions", refused)
    rep = verify.run_check(suite)
    assert rep.ok and "redraws" not in rep.info


def test_every_window_shows_each_window_of_five_bits_on_its_grid():
    u, grid = verify.EVERY_WINDOW, verify.WINDOW_GRID
    bits = u.values_on(0, 35)
    assert len({tuple(bits[t:t + 5]) for t in range(32)}) == 32
    # constant 0 off ticks 0..35, and every output tick whose window of
    # up to 4 ticks back reads a switch lies on the grid
    assert u.initial == u.final == 0 and u.switches[0] > 0 and u.switches[-1] < 36
    assert grid.lo < 0 and 35 + 4 <= grid.hi


def test_one_input_decides_inclusion_on_every_eleventh_pair():
    # Inclusion is tick by tick, so EVERY_WINDOW decides it.  That the
    # envelope has a member in neither family whenever neither family
    # includes the other is not: two boxes differing at one tick alone
    # have their hull as union.  It was checked on all 24,025 pairs, not
    # derived, and is repeated here on the same pairs.
    pairs = islice(product(verify._sweep_bdc(4), repeat=2), 0, None, 11)
    for p, q in pairs:
        includes = bdc_includes(p, q)
        assert bool(verify._escaping(p, q)) != includes, (p, q)
        env = bdc_union_envelope(p, q)
        neither = (
            verify._count(env) - verify._count(p, env) - verify._count(q, env)
            + verify._count(p, q, env)
        )
        assert bool(neither) != (includes or bdc_includes(q, p)), (p, q)


UNSOLVABLE = CondExpr((BdcParams(0, 3, 0, 2),))  # CC fails on a single fall


def test_decider_check_names_a_witness_that_has_outputs(monkeypatch):
    monkeypatch.setattr(verify, "find_empty_witnesses", lambda exprs: [Signal(0, ())] * len(exprs))
    rep = verify.CheckReport("t", 1)
    verify._check_decider(rep, [(UNSOLVABLE, False)], "trial 4: ")
    assert rep.failures == [
        "trial 4: BdcParams(mr=0, dr=3, mf=0, df=2): witness u=Signal(0, []) "
        "has outputs on [-1, 4]"
    ]


def test_decider_check_names_failures_in_the_order_of_its_cases(monkeypatch):
    # one witness for all, counted per reach on its own grid: the
    # expression of reach 3 has no output there, the two of reach 2 have
    w = Signal(0, (0,))
    monkeypatch.setattr(verify, "find_empty_witnesses", lambda exprs: [w] * len(exprs))
    solvable, empty = CondExpr((BdcParams(1, 2, 1, 2),)), CondExpr((BdcParams(0, 2, 0, 3),))
    rep = verify.CheckReport("t", 3)
    verify._check_decider(rep, [(solvable, True), (empty, False), (solvable, True)])
    named = f"{solvable.atoms[0]!r}: "
    assert rep.failures == [
        named + "closed form says solvable, yet u=Signal(0, [0]) admits no output",
        named + "witness u=Signal(0, [0]) has outputs on [-1, 3]",
        named + "closed form says solvable, yet u=Signal(0, [0]) admits no output",
        named + "witness u=Signal(0, [0]) has outputs on [-1, 3]",
    ]
    assert rep.info["witnesses"] == 1


def test_decider_check_names_a_missed_witness(monkeypatch):
    monkeypatch.setattr(verify, "find_empty_witnesses", lambda exprs: [None] * len(exprs))
    rep = verify.CheckReport("t", 1)
    verify._check_decider(rep, [(UNSOLVABLE, False)])
    assert rep.failures == [
        "BdcParams(mr=0, dr=3, mf=0, df=2): closed form says unsolvable, "
        "yet every input has an output"
    ]
    assert not verify.run_check("t1").ok  # its converse draws are all unsolvable


# -- law suites that sweep a fixed set --------------------------------------------


def test_run_check_applies_the_suite_defaults_and_times_the_suite():
    default, explicit = verify.run_check("t14e"), verify.run_check("t14e", seed=5)
    assert (default.trials, default.failures, default.info) == (
        explicit.trials, explicit.failures, explicit.info
    )
    assert default.trials == 100
    assert default.seconds > 0


@pytest.mark.parametrize("trials", [-3, 0, 2, True, 10**12])
def test_run_check_refuses_any_trial_count(trials):
    # each suite states its size: a count, even one that would run for
    # ever, is refused before anything runs
    for name in verify.THEOREM_CHECKS:
        t0 = time.monotonic()
        with pytest.raises(
            verify.SuiteError, match=f"^{name} runs at a fixed size: it takes no trial count$"
        ):
            verify.run_check(name, trials)
        assert time.monotonic() - t0 < 0.1


@pytest.mark.parametrize("seed, shown", [
    (-1, "-1"), (True, "True"), (1.5, "1.5"), ("1", "'1'"),
    (-int("9" * 4000), f"-{'9' * 39}... (4000 digits)"),
], ids=["negative", "bool", "float", "str", "4000-digit"])
def test_run_check_refuses_a_seed_that_is_not_an_integer_of_at_least_0(seed, shown):
    # Random seeds with abs(n) and takes True as 1, so each would rerun
    # another seed's draws
    with pytest.raises(verify.SuiteError) as err:
        verify.run_check("t14e", seed=seed)
    assert str(err.value) == f"seed must be an integer >= 0, got {shown}"
    # a trial count is refused first, then a seed for a sweep
    with pytest.raises(verify.SuiteError, match="takes no trial count$"):
        verify.run_check("t45", 2, seed)
    with pytest.raises(verify.SuiteError, match="^t45 sweeps a fixed set"):
        verify.run_check("t45", seed=seed)


@pytest.mark.parametrize("name", ["t14c", "t14f"])
def test_a_bounded_delay_sweep_counts_every_consistent_parameter(name):
    assert verify.run_check(name).trials == 155  # every consistent combination up to 4


SWEEPS = ["t14c", "t14f", "baidc", "t45"]


def _wrapped(fn):
    return functools.wraps(fn)(lambda *a, **k: fn(*a, **k))


@pytest.mark.parametrize("override, name", [
    *((("trials", 5), name) for name in verify.THEOREM_CHECKS),
    *((("seed", 1), name) for name in SWEEPS),
], ids=lambda v: v if isinstance(v, str) else v[0])
@pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "wrapped"])
def test_parameter_sweeps_refuse_a_trial_count_or_seed(override, name, wrapped, monkeypatch):
    # a wrapper that sets __wrapped__, as a tracer does, keeps the signature
    if wrapped:
        for suite, fn in list(verify.THEOREM_CHECKS.items()):
            monkeypatch.setitem(verify.THEOREM_CHECKS, suite, _wrapped(fn))
    key, value = override
    message = (
        f"^{name} runs at a fixed size: it takes no trial count$" if key == "trials"
        else f"^{name} sweeps a fixed set: it takes no trial count or seed$"
    )
    with pytest.raises(verify.SuiteError, match=message):
        verify.run_check(name, **{key: value})
    # a drawn suite takes a seed, wrapped or not
    assert verify.run_check("t14e", seed=value).ok


def test_an_unknown_suite_name_is_cut_short():
    with pytest.raises(verify.SuiteError) as err:
        verify.run_check("x" * 10**6)
    assert str(err.value) == (
        f"unknown theorem {'x' * 40!r}... (1000000 chars); choose from "
        + ", ".join(sorted(verify.THEOREM_CHECKS))
    )
