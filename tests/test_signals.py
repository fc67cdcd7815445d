"""Signal layer: construction, Boolean algebra, sliding windows.

The window operators are cross-checked against a direct dense evaluation
at every tick, so the run-arithmetic implementation never gets to define
its own truth.  Kernels that build their results without the canonical-
form check (translate, complement, pointwise, the windows) have every
result re-validated here too.  On long inputs, `pointwise` is played
against the earlier merged walk kept in `kernel_reference`.
"""

import operator
import random
from functools import reduce

import kernel_reference
import pytest
from hypothesis import example, given, strategies as st

from inertia.signals import (
    Signal,
    SignalError,
    forward_window_and,
    pointwise,
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


def revalidated(s):
    """s rebuilt through the validating constructor, which refuses a
    switch tuple that is not strictly increasing."""
    assert type(s.switches) is tuple
    return Signal(s.initial, s.switches)


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


@pytest.mark.parametrize("initial", [True, False, 1.0], ids=["True", "False", "float"])
def test_initial_must_be_an_int_bit_so_the_text_round_trip_holds(initial):
    # `Signal(True, (1,))` would write `s True 1`, which no parser reads
    with pytest.raises(SignalError, match=f"initial value must be 0 or 1, got {initial!r}$"):
        Signal(initial, (1,))


def test_switch_times_must_be_integers():
    with pytest.raises(SignalError):
        Signal(0, (1, True))
    with pytest.raises(SignalError):
        Signal(0, (0.5,))


@pytest.mark.parametrize("make, message", [
    (lambda: Signal(0, (10**5000, 1)),
     "switch times must strictly increase (... (5001 digits) then 1)"),
    (lambda: Signal(0, ("x" * 10**6,)),
     f"switch times must be integers, got {'x' * 40!r}... (1000000 chars)"),
    (lambda: window_and(Signal(0, ()), "y" * 10**6, 0),
     f"window offset must be an integer, got {'y' * 40!r}... (1000000 chars)"),
], ids=["a-decrease-from-5001-digits", "a-switch-of-10**6-chars", "an-offset-of-10**6-chars"])
def test_an_error_cuts_a_long_value_short(make, message):
    # str() cannot write an int of more than 4300 digits, and a message
    # that echoes a value whole can run to megabytes
    with pytest.raises(SignalError) as err:
        make()
    assert str(err.value) == message


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


@pytest.mark.parametrize("call, message", [
    (lambda s: s.value_at(1.5), "tick must be an integer, got 1.5"),
    (lambda s: s.value_at(True), "tick must be an integer, got True"),
    (lambda s: s.value_at("3"), "tick must be an integer, got '3'"),
    (lambda s: s.values_on(0.5, 3), "lo must be an integer, got 0.5"),
    (lambda s: s.values_on(0, True), "hi must be an integer, got True"),
], ids=["value_at-float", "value_at-bool", "value_at-str", "values_on-float", "values_on-bool"])
def test_evaluation_refuses_a_tick_that_is_no_integer(call, message):
    # as `translate` and the window kernels do: a float used to read the
    # value at the tick below it, and a bool to pass as 0 or 1
    with pytest.raises(SignalError) as err:
        call(Signal(0, (1, 4)))
    assert str(err.value) == message


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


@given(signals(), offsets)
def test_translate_and_complement_match_dense_evaluation(s, d):
    shifted, flipped = revalidated(s.translate(d)), revalidated(~s)
    for t in range(-30, 31):
        assert shifted.value_at(t) == s.value_at(t - d)
        assert flipped.value_at(t) == 1 - s.value_at(t)


def test_shifts_and_windows_must_be_integers():
    s = Signal(0, (0, 5))
    for bad in (0.5, True, "1"):
        with pytest.raises(SignalError):
            s.translate(bad)
        with pytest.raises(SignalError):
            window_and(s, bad, 1)
        with pytest.raises(SignalError):
            window_or(s, 1, bad)


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
    with pytest.raises(SignalError, match="got 2"):  # checked past the first tick
        pointwise(lambda a: 2 * a, Signal(0, (1, 3)))


@given(signals(), signals())
def test_pointwise_and_agrees_with_dense_evaluation(a, b):
    c = revalidated(a & b)
    for t in range(-20, 21):
        assert c.value_at(t) == (a.value_at(t) & b.value_at(t))


COMBINERS = {
    "and": lambda *bits: reduce(operator.and_, bits),
    "or": lambda *bits: reduce(operator.or_, bits),
    "xor": lambda *bits: reduce(operator.xor, bits),
    "majority": lambda *bits: int(2 * sum(bits) > len(bits)),
    "first-and-not-last": lambda *bits: bits[0] & (1 - bits[-1]),  # tells operands apart
}


@pytest.mark.parametrize("name", sorted(COMBINERS))
@given(operands())
def test_pointwise_matches_dense_evaluation(name, ops):
    fn = COMBINERS[name]
    out = revalidated(pointwise(fn, *ops))
    for t in range(-20, 21):
        assert out.value_at(t) == fn(*(s.value_at(t) for s in ops))


@given(operands())
def test_pointwise_evaluates_the_combiner_once_per_operand_values_met(ops):
    seen = []
    out = pointwise(lambda *bits: seen.append(bits) or bits[0], *ops)
    assert out == ops[0]
    assert sorted(seen) == sorted({tuple(s.value_at(t) for s in ops) for t in range(-20, 21)})


def short_runs(rng, start, n):
    """A signal of n switches 1 to 3 ticks apart from tick start: signals
    drawn from one start share about half their ticks."""
    times, t = [], start
    for _ in range(n):
        t += rng.randint(1, 3)
        times.append(t)
    return Signal(rng.randint(0, 1), tuple(times))


@pytest.mark.parametrize("k", range(1, 9))
def test_pointwise_matches_the_merged_code_walk_on_long_inputs(k):
    # each combiner and two table lookups meet each start in turn
    rng = random.Random(k)
    tables = [[rng.randint(0, 1) for _ in range(1 << k)] for _ in range(2)]
    lookups = [lambda *bits, t=t: t[int("".join(map(str, bits)), 2)] for t in tables]
    for j, fn in enumerate([*COMBINERS.values(), *lookups]):
        start = (-5000, -(10**40), 10**40)[(j + k) % 3]
        ops = [short_runs(rng, start, 1000) for _ in range(k)]
        if k > 2:  # an operand may not switch
            ops[rng.randrange(k)] = Signal.const(rng.randint(0, 1))
        seen, want_seen = [], []  # the combiner's calls, in order
        got = pointwise(lambda *bits: seen.append(bits) or fn(*bits), *ops)
        want = kernel_reference.pointwise(lambda *bits: want_seen.append(bits) or fn(*bits), *ops)
        assert revalidated(got) == want and seen == want_seen, (k, j)


# one example per way the run kernel of `leq` can decide
@example([Signal(1, ()), Signal(1, (4,))])  # a 1-run without ends meets a switch
@example([Signal(1, (3,)), Signal(1, (3, 5))])  # other switches where the first run ends
@example([Signal(0, (2, 5)), Signal(0, (2, 5))])  # equal switch lists
@example([Signal(0, (2, 5)), Signal(1, (2, 5))])  # equal switch lists, other flipped
@example([Signal(0, (2,)), Signal(0, (2, 6))])  # the last run never ends
@example([Signal(0, (2, 6)), Signal(1, (2, 7))])  # other switches where a run starts
@given(operands(2, 2))
def test_leq_matches_dense_comparison(ops):
    a, b = ops
    # the random pair mostly fails; the bracketed pairs always hold; a
    # and ~a, and a and a with its first switch dropped, share switches
    shared = Signal(1 - a.initial, a.switches[1:])
    pairs = ((a, b), (b, a), (a, a | b), (a & b, b), (a, a), (a, ~a), (~a, a), (a, shared),
             (shared, a))
    for low, high in pairs:
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
    assert revalidated(window_and(s, d, m)).values_on(-30, 30) == dense(s, d, m, all)


@given(signals(), offsets, widths)
def test_window_or_matches_dense_evaluation(s, d, m):
    assert revalidated(window_or(s, d, m)).values_on(-30, 30) == dense(s, d, m, any)


@given(signals(), widths)
def test_forward_window_matches_dense_evaluation(s, hold):
    expect = [
        all(s.value_at(t + j) for j in range(hold + 1)) for t in range(-30, 31)
    ]
    assert revalidated(forward_window_and(s, hold)).values_on(-30, 30) == expect


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
