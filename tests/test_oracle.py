"""Brute-force enumeration layer.

The DFS enumerator and the counting dynamic program are independent
implementations of the same set; they are played against each other on
random instances.  The exact emptiness decider is pinned on known empty
and known nonempty parameter combinations, and played against the
counting DP on random expressions: every witness it returns must have no
solution, and when it returns None every small input must have one.
"""

import random
from itertools import combinations

import pytest

from inertia.conditions import (
    AicParams,
    BdcParams,
    CondExpr,
    FdcParams,
    RicParams,
    bdc_member,
)
from inertia.oracle import (
    GridConfig,
    HorizonError,
    enumerate_solutions,
    find_empty_witness,
    free_tick_count,
    iter_solutions,
    solution_count,
)
from inertia.signals import Signal
from inertia import verify

U = Signal(0, (0, 5))
P = BdcParams(1, 3, 1, 3)
GRID = GridConfig(-4, 12)


def test_grid_validation():
    with pytest.raises(HorizonError):
        GridConfig(5, 5)
    with pytest.raises(HorizonError):
        GridConfig(0, 200)
    with pytest.raises(HorizonError):
        GridConfig(0, 10, -1)


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


def test_max_switches_cap():
    assert solution_count(U, CondExpr((P,)), GridConfig(-4, 12, 0)) == 0
    assert solution_count(U, CondExpr((P,)), GridConfig(-4, 12, 2)) == 4


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
    for _ in range(60):
        dr = rng.randint(0, 4)
        df = rng.randint(0, 4)
        p = BdcParams(rng.randint(0, dr), dr, rng.randint(0, df), df)
        k = rng.randint(0, 4)
        u = Signal(rng.randint(0, 1), tuple(sorted(rng.sample(range(0, 9), k))))
        atoms = [p]
        if rng.random() < 0.4:
            atoms.append(AicParams(rng.randint(0, 2), rng.randint(0, 2)))
        cap = rng.choice([None, None, 2, 4])
        grid = GridConfig(-3, 13, cap)
        expr = CondExpr(tuple(atoms))
        sols = enumerate_solutions(u, expr, grid)
        assert solution_count(u, expr, grid) == len(sols)
        assert len(set(sols)) == len(sols)


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


def _random_atom(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return FdcParams(rng.randint(0, 3))
    if kind == 1:
        dr, df = rng.randint(0, 3), rng.randint(0, 3)
        return BdcParams(rng.randint(0, dr), dr, rng.randint(0, df), df)
    if kind == 2:
        return AicParams(rng.randint(0, 3), rng.randint(0, 3))
    er, ef = rng.randint(0, 3), rng.randint(0, 3)
    return RicParams(rng.randint(0, er), er, rng.randint(0, ef), ef)


EXPRESSIONS = 40
SMALL_INPUTS = [
    Signal(init, times)
    for k in range(5)
    for times in combinations(range(9), k)
    for init in (0, 1)
]


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
        hold = max(
            (max(a.delta_r, a.delta_f) for a in expr.atoms if isinstance(a, AicParams)),
            default=0,
        )
        grid = GridConfig(-1, 8 + expr.reach + hold + 1)
        for u in SMALL_INPUTS:
            assert solution_count(u, expr, grid) > 0, (expr, u)
    assert min(seen.values()) >= 15, seen


# -- law suites that sweep a fixed set --------------------------------------------


@pytest.mark.parametrize("name, trials", [("t14c", 5), ("t14f", 500)])
def test_parameter_sweeps_ignore_the_trial_count(name, trials, monkeypatch):
    def run(count):
        inputs = []
        for fn in ("solution_count", "free_tick_count"):
            real = getattr(verify, fn)
            monkeypatch.setattr(
                verify, fn, lambda u, *a, real=real: inputs.append(u) or real(u, *a)
            )
        rep = verify.run_check(name, count)
        monkeypatch.undo()
        return rep, inputs

    (default, seen), (overridden, seen_overridden) = run(None), run(trials)
    assert default.trials == 155  # every consistent combination up to 4
    assert (overridden.trials, overridden.failures) == (default.trials, default.failures)
    assert seen_overridden == seen
