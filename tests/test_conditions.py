"""Delay-condition atoms and their parameter algebra.

Mostly frozen input/output pairs; the randomized law suites live in
inertia.verify and the acceptance tests. The regression cases at the
bottom pin down behavior that a naive parameter arithmetic gets wrong.
"""

import pytest
from hypothesis import assume, given, strategies as st

from inertia.conditions import (
    AicParams,
    BdcParams,
    CondExpr,
    ConsistencyError,
    FdcParams,
    RicParams,
    aic_member,
    atom_from_dict,
    atom_kind,
    atom_to_dict,
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
    assert atom_from_dict(atom_to_dict(atom)) == atom


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
    assert atom_kind(FdcParams(0)) == "fdc"
    assert atom_kind(BdcParams(0, 0, 0, 0)) == "bdc"
    assert atom_kind(AicParams(0, 0)) == "aic"
    assert atom_kind(RicParams(0, 0, 0, 0)) == "ric"


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
    assert bridc_det_output(u, p).values_on(-20, 30) == dense_det(u, p, -20, 30)


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
