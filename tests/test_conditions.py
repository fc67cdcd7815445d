"""Delay-condition atoms and their parameter algebra.

Mostly frozen input/output pairs; the randomized law suites live in
inertia.verify and the acceptance tests. The regression cases at the
bottom pin down behavior that a naive parameter arithmetic gets wrong.
"""

import random
from itertools import product

import kernel_reference
import pytest
from hypothesis import assume, given, settings, strategies as st

from inertia.conditions import (
    AicParams,
    BdcParams,
    CondExpr,
    ConsistencyError,
    FdcParams,
    RicParams,
    aic_member,
    atom_from_dict,
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
    cc_failures,
    cc_holds,
    cond_member,
    fdc_member,
    ric_member,
    ric_to_aic,
)
from inertia.oracle import GridConfig, iter_solutions
from inertia.signals import Signal

U = Signal(0, (0, 5))


# -- parameter validation and serialization -----------------------------------


def test_parameter_ranges_are_enforced():
    with pytest.raises(ValueError):
        BdcParams(2, 1, 0, 0)
    with pytest.raises(ValueError):
        BdcParams(0, 0, 1, 0)
    with pytest.raises(ValueError):
        RicParams(3, 2, 0, 0)
    with pytest.raises(ValueError):
        AicParams(-1, 0)
    with pytest.raises(ValueError):
        FdcParams(-1)


HUGE = 10**5000  # more digits than str() writes


@pytest.mark.parametrize("make, message", [
    (lambda: FdcParams(-HUGE), "fixed delay must be >= 0, got d=-... (5001 digits)"),
    (lambda: BdcParams(0, 2, HUGE, 2),
     "need 0 <= mf <= df, got mf=... (5001 digits) df=2"),
    (lambda: AicParams(1, -HUGE),
     "hold times must be >= 0, got delta_r=1 delta_f=-... (5001 digits)"),
    (lambda: RicParams(0, -(10**45), 0, 0),
     f"need 0 <= mu_r <= delta_r, got mu_r=0 delta_r=-{'1' + '0' * 38}... (46 digits)"),
], ids=["fdc", "bdc", "aic", "ric"])
def test_a_range_error_names_the_field_and_cuts_the_value_short(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "atom",
    [
        FdcParams(3),
        BdcParams(1, 2, 1, 2),
        AicParams(2, 0),
        RicParams(1, 3, 0, 2),
    ],
)
def test_atom_dict_round_trip(atom):
    assert atom_from_dict({**atom.as_dict(), "kind": atom.kind}) == atom


@pytest.mark.parametrize("value", [1.9, 1.0, True, "1", pytest.param("x" * 3000, id="long")])
def test_atom_from_dict_refuses_values_that_are_not_integers(value):
    with pytest.raises(ValueError, match="mr must be an integer") as err:
        atom_from_dict({"kind": "bdc", "mr": value, "dr": 2, "mf": 1, "df": 2})
    assert len(str(err.value)) < 100  # a long value is cut short


def test_bdc_json_keys():
    assert BdcParams(1, 2, 3, 4).as_dict() == {"mr": 1, "dr": 2, "mf": 3, "df": 4}
    assert RicParams(1, 2, 3, 4).as_dict() == {
        "mur": 1,
        "deltar": 2,
        "muf": 3,
        "deltaf": 4,
    }
    assert AicParams(1, 2).as_dict() == {"deltar": 1, "deltaf": 2}


def test_atom_kind_names():
    assert FdcParams(0).kind == "fdc"
    assert BdcParams(0, 0, 0, 0).kind == "bdc"
    assert AicParams(0, 0).kind == "aic"
    assert RicParams(0, 0, 0, 0).kind == "ric"


# -- consistency condition -----------------------------------------------------


def test_cc_examples():
    assert cc_holds(BdcParams(0, 2, 0, 2))
    assert cc_holds(BdcParams(1, 2, 1, 2))
    assert not cc_holds(BdcParams(0, 3, 0, 2))


def test_cc_failure_message():
    assert cc_failures(BdcParams(0, 3, 0, 2)) == ["df >= dr - mr fails (2 >= 3 - 0)"]
    assert cc_failures(BdcParams(1, 2, 1, 2)) == []


# -- membership ----------------------------------------------------------------


def test_fdc_member():
    assert fdc_member(U, U.translate(3), 3)
    assert not fdc_member(U, U, 3)


def test_bdc_member_examples():
    assert bdc_member(U, U.translate(3), BdcParams(1, 3, 1, 3))
    assert not bdc_member(U, U, BdcParams(0, 2, 0, 2))
    assert bdc_member(Signal.const(0), Signal.const(0), BdcParams(1, 4, 0, 2))


def test_bdc_bounds_are_the_windows():
    p = BdcParams(1, 3, 1, 3)
    assert bdc_lower(U, p) == Signal(0, (3, 7))
    assert bdc_upper(U, p) == Signal(0, (2, 8))


def test_aic_member_examples():
    assert aic_member(Signal(0, (0, 2)), AicParams(1, 1))
    assert not aic_member(Signal(0, (0, 2)), AicParams(2, 0))
    assert aic_member(Signal(1, (4,)), AicParams(0, 0))


def test_ric_member_examples():
    r = RicParams(1, 2, 1, 2)
    u = Signal(0, (0, 3))
    assert ric_member(u, Signal(0, (2, 5)), r)
    assert not ric_member(u, Signal(0, (1, 5)), r)
    assert ric_member(u, Signal.const(1), r)


def test_cond_member_is_a_conjunction():
    x = U.translate(2)
    expr = CondExpr((BdcParams(1, 3, 1, 3), AicParams(1, 1)))
    assert cond_member(U, x, expr)
    tight = CondExpr((BdcParams(1, 3, 1, 3), AicParams(5, 5)))
    assert not cond_member(U, x, tight)


# -- canonical solutions ---------------------------------------------------------


def test_min_max_solution_example():
    p = BdcParams(1, 3, 1, 3)
    assert bdc_min_solution(U, p) == Signal(0, (3, 7))
    assert bdc_max_solution(U, p) == Signal(0, (2, 8))


def test_zero_memory_solutions_collapse_to_a_shift():
    p = BdcParams(0, 2, 0, 2)
    assert bdc_min_solution(U, p) == U.translate(2)
    assert bdc_max_solution(U, p) == U.translate(2)


def test_constant_input_is_its_own_solution():
    p = BdcParams(2, 4, 1, 3)
    assert bdc_min_solution(Signal.const(1), p) == Signal.const(1)
    assert bdc_max_solution(Signal.const(1), p) == Signal.const(1)


def test_solutions_require_consistency():
    with pytest.raises(ConsistencyError):
        bdc_min_solution(U, BdcParams(0, 3, 0, 2))


# -- parameter algebra -----------------------------------------------------------


def test_intersection_examples():
    assert bdc_intersection(BdcParams(1, 2, 1, 2), BdcParams(2, 3, 2, 3)) == BdcParams(
        1, 2, 1, 2
    )
    assert bdc_intersection(BdcParams(0, 1, 0, 1), BdcParams(0, 3, 0, 3)) is None
    p = BdcParams(2, 4, 1, 3)
    assert bdc_intersection(p, p) == p


def test_intersection_requires_consistency():
    with pytest.raises(ConsistencyError):
        bdc_intersection(BdcParams(0, 3, 0, 2), BdcParams(0, 1, 0, 1))


def test_union_envelope_examples():
    assert bdc_union_envelope(BdcParams(1, 2, 1, 2), BdcParams(2, 3, 2, 3)) == BdcParams(
        2, 3, 2, 3
    )
    assert bdc_union_envelope(BdcParams(0, 1, 0, 1), BdcParams(0, 3, 0, 3)) == BdcParams(
        2, 3, 2, 3
    )
    p = BdcParams(1, 4, 0, 3)
    assert bdc_union_envelope(p, p) == p


def test_determinism_examples():
    assert bdc_is_deterministic(BdcParams(0, 2, 0, 2))
    assert bdc_as_translation(BdcParams(0, 2, 0, 2)) == 2
    assert not bdc_is_deterministic(BdcParams(1, 2, 1, 2))
    assert bdc_as_translation(BdcParams(1, 2, 1, 2)) is None
    assert bdc_as_translation(BdcParams(0, 0, 0, 0)) == 0


def test_includes_example():
    assert bdc_includes(BdcParams(1, 2, 1, 2), BdcParams(2, 3, 2, 3))
    assert not bdc_includes(BdcParams(2, 3, 2, 3), BdcParams(1, 2, 1, 2))


def test_symmetry():
    assert bdc_is_symmetrical(BdcParams(1, 2, 1, 2))
    assert not bdc_is_symmetrical(BdcParams(1, 2, 0, 2))


def test_compose_examples():
    assert bdc_compose(BdcParams(1, 2, 1, 2), BdcParams(2, 3, 2, 3)) == BdcParams(
        3, 5, 3, 5
    )
    ident = BdcParams(0, 0, 0, 0)
    p = BdcParams(1, 3, 0, 2)
    assert bdc_compose(ident, p) == p
    assert bdc_compose(p, ident) == p


# -- hold and licensing parameters ------------------------------------------------


def test_baidc_examples():
    assert baidc_consistent(BdcParams(1, 2, 1, 2), AicParams(1, 1))
    assert not baidc_consistent(BdcParams(1, 2, 1, 2), AicParams(2, 1))
    assert baidc_consistent(BdcParams(0, 3, 0, 3), AicParams(0, 0))


def test_ric_to_aic_examples():
    assert ric_to_aic(RicParams(1, 2, 1, 2)) == AicParams(1, 1)
    assert ric_to_aic(RicParams(0, 5, 1, 2)) is None
    assert ric_to_aic(RicParams(2, 4, 2, 4)) == AicParams(2, 2)


def test_bridc_regime_examples():
    assert "b.i" in bridc_consistency_cases(BdcParams(2, 4, 2, 4), RicParams(1, 3, 1, 3))
    assert bridc_consistency_cases(BdcParams(0, 2, 0, 2), RicParams(1, 5, 1, 5)) == ()
    assert "b.i" in bridc_consistency_cases(BdcParams(2, 5, 2, 5), RicParams(2, 5, 2, 5))


def test_bridc_consistency_examples():
    assert bridc_consistent(BdcParams(2, 4, 2, 4), RicParams(1, 3, 1, 3))
    assert not bridc_consistent(BdcParams(0, 2, 0, 2), RicParams(1, 5, 1, 5))
    assert bridc_consistent(BdcParams(3, 5, 3, 5), RicParams(3, 5, 3, 5))


def test_bridc_det_output_examples():
    p = BdcParams(1, 2, 1, 2)
    assert bridc_det_output(Signal(0, (0, 3)), p) == Signal(0, (2, 5))
    assert bridc_det_output(Signal(0, (0, 1)), p) == Signal.const(0)
    assert bridc_det_output(U, BdcParams(0, 3, 0, 3)) == U.translate(3)


@st.composite
def consistent_bdc(draw):
    dr, df = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    p = BdcParams(draw(st.integers(0, dr)), dr, draw(st.integers(0, df)), df)
    assume(cc_holds(p))
    return p


@st.composite
def pulse_inputs(draw):
    """Inputs with short pulses and gaps, constant ones included."""
    times = draw(st.lists(st.integers(-16, 16), unique=True, max_size=8))
    return Signal(draw(st.integers(0, 1)), tuple(sorted(times)))


def dense_det(u, p, lo, hi):
    """The recurrence of bridc_det_output's docstring, tick by tick."""
    val, out = u.initial, []
    for t in range(lo, hi + 1):
        if val == 0 and all(u.value_at(t - p.dr + j) for j in range(p.mr + 1)):
            val = 1
        elif val == 1 and not any(u.value_at(t - p.df + j) for j in range(p.mf + 1)):
            val = 0
        out.append(val)
    return out


@given(pulse_inputs(), consistent_bdc())
def test_bridc_det_output_matches_the_dense_recurrence(u, p):
    # before tick -16 nothing has switched, and after 16 + 4 nothing can
    out = bridc_det_output(u, p)
    assert Signal(out.initial, out.switches) == out  # canonical without the check
    assert out.values_on(-20, 30) == dense_det(u, p, -20, 30)


def test_bridc_det_output_matches_the_window_kernel_on_long_inputs():
    # every CC parameter set with windows of at most 5 ticks, on runs of
    # 1 to 7 ticks, so that runs both outlast and fall short of each memory
    rng = random.Random(0)
    sets = [BdcParams(mr, dr, mf, df) for dr, df in product(range(6), repeat=2)
            for mr in range(dr + 1) for mf in range(df + 1)]
    for j, p in enumerate(filter(cc_holds, sets)):
        times = [(-5000, -(10**40), 10**40)[j % 3]]
        for _ in range(rng.randint(0, 2000)):
            times.append(times[-1] + rng.randint(1, 7))
        u = Signal(rng.randint(0, 1), tuple(times[1:]))
        assert bridc_det_output(u, p) == kernel_reference.bridc_det_output(u, p), p


def dense_edges(x, lo, hi):
    """(t, new value) for every tick of lo..hi at which x switches."""
    return [
        (t, x.value_at(t)) for t in range(lo, hi + 1) if x.value_at(t) != x.value_at(t - 1)
    ]


def dense_aic(x, a):
    """Each edge's new value held on the hold window [t, t + delta]."""
    for t, level in dense_edges(x, -20, 20):
        hold = a.delta_r if level else a.delta_f
        if any(x.value_at(t + j) != level for j in range(hold + 1)):
            return False
    return True


def dense_ric(u, x, r):
    """Each edge's new value held by u on [t - delta, t - delta + mu]."""
    for t, level in dense_edges(x, -20, 20):
        d, m = (r.delta_r, r.mu_r) if level else (r.delta_f, r.mu_f)
        if any(u.value_at(t - d + j) != level for j in range(m + 1)):
            return False
    return True


holds = st.integers(0, 4)


@st.composite
def ric_params(draw):
    """Licensing windows, mu == delta (the whole past window) half the time."""
    dr, df = draw(holds), draw(holds)
    mu = [draw(st.one_of(st.just(d), st.integers(0, d))) for d in (dr, df)]
    return RicParams(mu[0], dr, mu[1], df)


@settings(derandomize=True, max_examples=150)
@given(pulse_inputs(), holds, holds)
def test_aic_member_matches_the_dense_hold_windows(x, dr, df):
    a = AicParams(dr, df)
    assert aic_member(x, a) == dense_aic(x, a)
    for gap in zip(x.switches, x.switches[1:]):  # each hold on its own
        two = Signal(x.value_at(gap[0] - 1), gap)
        assert aic_member(two, a) == dense_aic(two, a)


@settings(derandomize=True, max_examples=150)
@given(pulse_inputs(), pulse_inputs(), ric_params(), st.none() | holds)
def test_ric_member_matches_the_dense_licensing_windows(u, x, r, lag):
    if lag is not None:  # an output lagging u often has its edges licensed
        x = u.translate(lag)
    assert ric_member(u, x, r) == dense_ric(u, x, r)
    for t in x.switches:  # each edge on its own, so no verdict hides another
        one = Signal(x.value_at(t - 1), (t,))
        assert ric_member(u, one, r) == dense_ric(u, one, r)


# -- regressions: where the naive formulas break -----------------------------------
#
# Each case was found by the brute-force oracle and is kept frozen here so
# the algebra cannot quietly drift back to the formula-only behavior.


def test_jointly_solvable_pair_without_a_merged_tuple():
    # every input admits a common output, yet no single parameter tuple
    # captures the conjunction, so the merge must be refused
    p, q = BdcParams(1, 1, 2, 2), BdcParams(1, 2, 1, 2)
    assert bdc_jointly_solvable(p, q)
    assert bdc_intersection(p, q) is None


def test_jointly_solvable_pair_with_negative_formula_memory():
    p, q = BdcParams(2, 2, 0, 1), BdcParams(1, 2, 2, 4)
    assert bdc_jointly_solvable(p, q)
    assert bdc_intersection(p, q) is None


def test_envelope_is_strict_for_incomparable_pairs():
    p, q = BdcParams(0, 0, 1, 1), BdcParams(1, 1, 0, 0)
    env = bdc_union_envelope(p, q)
    assert env == BdcParams(1, 1, 1, 1)
    u = Signal(0, (0, 6))
    escape = Signal(0, (1, 7))
    assert bdc_member(u, escape, env)
    assert not bdc_member(u, escape, p)
    assert not bdc_member(u, escape, q)


def test_composition_containment_is_strict():
    # x satisfies the summed parameters for u, but no intermediate signal
    # realizes it as a two-stage output
    p, q = BdcParams(0, 0, 1, 1), BdcParams(1, 1, 0, 0)
    u, x = Signal(1, (5, 6)), Signal(1, (6, 7))
    assert bdc_member(u, x, bdc_compose(p, q))
    grid = GridConfig(-2, 12)
    factors = [
        y for y in iter_solutions(u, CondExpr((p,)), grid) if bdc_member(y, x, q)
    ]
    assert factors == []


def test_bridc_solvable_outside_the_named_regimes():
    p, r = BdcParams(0, 2, 4, 4), RicParams(0, 0, 0, 1)
    assert bridc_consistency_cases(p, r) == ()
    assert bridc_consistent(p, r)
