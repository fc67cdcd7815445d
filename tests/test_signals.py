"""Signal layer: construction, Boolean algebra, sliding windows.

The window operators are cross-checked against a direct dense evaluation
at every tick, so the run-arithmetic implementation never gets to define
its own truth.
"""

import operator
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from inertia.signals import (
    Signal,
    SignalError,
    forward_window_and,
    pointwise,
    switch_walk,
    window_and,
    window_or,
)


@st.composite
def signals(draw, lo=-16, hi=16, max_switches=6):
    initial = draw(st.integers(0, 1))
    times = draw(
        st.lists(st.integers(lo, hi), unique=True, max_size=max_switches)
    )
    return Signal(initial, tuple(sorted(times)))


@st.composite
def operands(draw, min_k=1, max_k=3):
    """Signals whose switches come from one shared pool of ticks, so
    operands often switch at the same tick; any of them may be constant."""
    pool = draw(st.lists(st.integers(-16, 16), unique=True, min_size=1, max_size=6))
    out = []
    for _ in range(draw(st.integers(min_k, max_k))):
        times = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
        out.append(Signal(draw(st.integers(0, 1)), tuple(sorted(times))))
    return out


offsets = st.integers(-4, 6)
widths = st.integers(0, 4)


def dense(s, d, m, combine):
    """Literal window evaluation at every tick of a covering range."""
    return [
        combine(s.value_at(t - d + j) for j in range(m + 1))
        for t in range(-30, 31)
    ]


# -- construction and canonical form -----------------------------------------


def test_switches_must_strictly_increase():
    with pytest.raises(SignalError):
        Signal(0, (3, 1))
    with pytest.raises(SignalError):
        Signal(0, (1, 1))


def test_initial_must_be_a_bit():
    with pytest.raises(SignalError):
        Signal(2, ())


def test_switch_times_must_be_integers():
    with pytest.raises(SignalError):
        Signal(0, (1, True))
    with pytest.raises(SignalError):
        Signal(0, (0.5,))


def test_equality_and_hash_are_semantic():
    a = Signal(0, (0, 5))
    b = Signal(0, [0, 5])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Signal(1, (0, 5))


def test_list_switches_are_coerced_to_tuple():
    assert Signal(0, [0, 5]).switches == (0, 5)


# -- evaluation ---------------------------------------------------------------


def test_value_at():
    s = Signal(0, (0, 5))
    assert [s.value_at(t) for t in (-1, 0, 4, 5, 6)] == [0, 1, 1, 0, 0]


def test_values_on_matches_value_at():
    s = Signal(1, (-2, 0, 3))
    assert s.values_on(-4, 5) == [s.value_at(t) for t in range(-4, 6)]
    with pytest.raises(SignalError):
        s.values_on(3, 2)


def test_final_and_constants():
    assert Signal(0, (0, 5)).final == 0
    assert Signal(0, (0,)).final == 1
    assert Signal.const(1) == Signal(1, ())


# -- Boolean algebra ----------------------------------------------------------


def test_and_example():
    assert Signal(0, (0, 5)) & Signal(0, (3, 8)) == Signal(0, (3, 5))


def test_translate_example():
    assert Signal(0, (0, 5)).translate(2) == Signal(0, (2, 7))
    assert Signal(0, (0, 5)).translate(0) == Signal(0, (0, 5))


def test_complement_is_an_involution():
    s = Signal(0, (1, 4, 9))
    assert ~~s == s
    assert (~s).value_at(2) == 1 - s.value_at(2)


def test_xor_with_self_is_zero():
    s = Signal(1, (0, 2, 7))
    assert s ^ s == Signal.const(0)


def test_or_absorbs():
    s = Signal(0, (0, 5))
    assert (s | Signal.const(0)) == s
    assert (s | Signal.const(1)) == Signal.const(1)


def test_leq():
    low = Signal(0, (3, 5))
    high = Signal(0, (2, 8))
    assert low.leq(high)
    assert not high.leq(low)
    assert low.leq(low)


def test_pointwise_rejects_bad_combiners():
    with pytest.raises(SignalError):
        pointwise(lambda: 0)
    with pytest.raises(SignalError):
        pointwise(lambda a: 2, Signal.const(0))


@given(signals(), signals())
def test_pointwise_and_agrees_with_dense_evaluation(a, b):
    c = a & b
    for t in range(-20, 21):
        assert c.value_at(t) == (a.value_at(t) & b.value_at(t))


@given(operands())
def test_switch_walk_steps_at_every_switch_tick_with_every_value(ops):
    steps = list(switch_walk(*ops))
    assert [t for t, _bits in steps] == sorted({t for s in ops for t in s.switches})
    for t, bits in steps:
        assert bits == tuple(s.value_at(t) for s in ops)


COMBINERS = {
    "and": lambda *bits: reduce(operator.and_, bits),
    "or": lambda *bits: reduce(operator.or_, bits),
    "xor": lambda *bits: reduce(operator.xor, bits),
    "majority": lambda *bits: int(2 * sum(bits) > len(bits)),
}


@pytest.mark.parametrize("name", sorted(COMBINERS))
@given(operands())
def test_pointwise_matches_dense_evaluation(name, ops):
    fn = COMBINERS[name]
    out = pointwise(fn, *ops)
    for t in range(-20, 21):
        assert out.value_at(t) == fn(*(s.value_at(t) for s in ops))


@given(operands(2, 2))
def test_leq_matches_dense_comparison(ops):
    a, b = ops
    # the random pair mostly fails; the bracketed pairs always hold
    for low, high in ((a, b), (b, a), (a, a | b), (a & b, b), (a, a)):
        dense = all(low.value_at(t) <= high.value_at(t) for t in range(-20, 21))
        assert low.leq(high) == dense


# -- sliding windows ----------------------------------------------------------


def test_window_and_example():
    assert window_and(Signal(0, (0, 5)), 3, 1) == Signal(0, (3, 7))


def test_window_or_example():
    assert window_or(Signal(0, (0, 5)), 3, 1) == Signal(0, (2, 8))


def test_forward_window_and_example():
    assert forward_window_and(Signal(0, (0, 5)), 2) == Signal(0, (0, 3))


def test_window_rejects_negative_width():
    with pytest.raises(SignalError):
        window_and(Signal.const(0), 1, -1)
    with pytest.raises(SignalError):
        window_or(Signal.const(0), 1, -1)
    with pytest.raises(SignalError):
        forward_window_and(Signal.const(0), -1)


def test_short_run_is_swallowed():
    # a 1-run of m ticks cannot fill a window of m + 1 ticks
    for m in (1, 2, 3):
        assert window_and(Signal(0, (0, m)), 4, m) == Signal.const(0)
        assert window_and(Signal(0, (0, m + 1)), 4, m) == Signal(0, (4, 5))


@given(signals(), offsets, widths)
def test_window_and_matches_dense_evaluation(s, d, m):
    assert window_and(s, d, m).values_on(-30, 30) == dense(s, d, m, all)


@given(signals(), offsets, widths)
def test_window_or_matches_dense_evaluation(s, d, m):
    assert window_or(s, d, m).values_on(-30, 30) == dense(s, d, m, any)


@given(signals(), widths)
def test_forward_window_matches_dense_evaluation(s, hold):
    expect = [
        all(s.value_at(t + j) for j in range(hold + 1)) for t in range(-30, 31)
    ]
    assert forward_window_and(s, hold).values_on(-30, 30) == expect


@given(signals(), offsets, widths)
def test_window_de_morgan(s, d, m):
    assert window_or(s, d, m) == ~window_and(~s, d, m)


@given(signals(), offsets)
def test_zero_width_window_is_a_shift(s, d):
    assert window_and(s, d, 0) == s.translate(d)
    assert window_or(s, d, 0) == s.translate(d)


@given(signals(), offsets, widths)
def test_window_and_is_antitone_in_width(s, d, m):
    assert window_and(s, d, m + 1).leq(window_and(s, d, m))
    assert window_or(s, d, m).leq(window_or(s, d, m + 1))


@given(signals(), offsets, widths)
def test_window_and_never_exceeds_window_or(s, d, m):
    assert window_and(s, d, m).leq(window_or(s, d, m))


@given(signals(), st.integers(0, 3), st.integers(0, 2), st.integers(0, 3), st.integers(0, 2))
def test_window_and_composes_by_summing(s, d1, m1, d2, m2):
    once = window_and(window_and(s, d1, m1), d2, m2)
    assert once == window_and(s, d1 + d2, m1 + m2)
