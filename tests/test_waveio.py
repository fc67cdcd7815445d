"""Waveform text format, run configuration, and VCD emission."""

import re
import sys
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from vcd_reference import reference_vcd

from inertia import waveio
from inertia.signals import Signal
from inertia.waveio import (
    RunConfig,
    WaveParseError,
    emit_vcd,
    emit_waveforms,
    parse_config,
    parse_int,
    parse_waveforms,
    shown,
    shown_int,
    writable,
)


# -- waveform text ------------------------------------------------------------


def test_parse_basic_line():
    waves = parse_waveforms("u 0 0 5\n")
    assert waves == {"u": Signal(0, (0, 5))}


def test_parse_skips_comments_and_blanks():
    text = "# header\n\nu 0 0 5  # trailing note\nv 1\n"
    waves = parse_waveforms(text)
    assert waves == {"u": Signal(0, (0, 5)), "v": Signal(1, ())}


def test_parse_rejects_malformed_lines():
    with pytest.raises(WaveParseError):
        parse_waveforms("u\n")
    with pytest.raises(WaveParseError):
        parse_waveforms("u 2 0\n")
    with pytest.raises(WaveParseError):
        parse_waveforms("u 0 5 5\n")
    with pytest.raises(WaveParseError):
        parse_waveforms("u 0 1\nu 0 2\n")
    with pytest.raises(WaveParseError):
        parse_waveforms("u 0 zero\n")


def test_round_trip_through_text():
    waves = {"a": Signal(0, (0, 5)), "b": Signal(1, (-3, 2, 9))}
    assert parse_waveforms(emit_waveforms(waves)) == waves
    assert emit_waveforms({}) == ""


def test_resolution_scales_times():
    waves = parse_waveforms("u 0 1 2.5\n", resolution=2)
    assert waves == {"u": Signal(0, (2, 5))}


@pytest.mark.parametrize("resolution, message", [
    (1.5, "resolution must be an integer, got 1.5"),
    (True, "resolution must be an integer, got True"),
    ("2", "resolution must be an integer, got '2'"),
    (0, "resolution must be >= 1, got 0"),
    (-1, "resolution must be >= 1, got -1"),
], ids=["float", "bool", "str", "zero", "negative"])
def test_a_resolution_must_be_an_integer_of_at_least_1(resolution, message):
    # one check in both places: a float scaled times into float ticks, and
    # 0 or -1 was blamed on the times not increasing
    for make in (lambda: RunConfig("1ns", resolution),
                 lambda: parse_waveforms("u 0 1 2\n", resolution)):
        with pytest.raises(WaveParseError, match=f"^{re.escape(message)}$"):
            make()
    with pytest.raises(WaveParseError, match="^time_unit must be 1, 10 or 100 .*, got 5$"):
        RunConfig(5)


def test_resolution_rejects_off_grid_times():
    with pytest.raises(WaveParseError):
        parse_waveforms("u 0 0.3\n", resolution=2)


def test_exponents_and_fractions_land_on_ticks():
    waves = parse_waveforms("u 0 2.5e1 +0030 70/2 4E+001\n", resolution=2)
    assert waves == {"u": Signal(0, (50, 60, 70, 80))}


@pytest.mark.parametrize("token, resolution, error", [
    (token, 1, f"time {token!r} has an exponent of more than 4 digits")
    for token in ["1e2000000", "1E-99999", "2.5e+1_0000"]
] + [
    # a tick of as many digits, refused with no exponent to cap its cost
    ("3" * 2_000_000, 3, f"time {shown('3' * 2_000_000)}: a tick of 2000000 digits, "
     "more than the 4300 that can be written"),
] + [
    # a bad last character, refused without rescanning the digits before it
    (token, 3, f"bad time {shown(token)}")
    for token in ["3" * 2_000_000 + "x", "1." + "3" * 2_000_000 + "x"]
], ids=["1e2000000", "1E-99999", "2.5e+1_0000", "2000000-digits",
        "2000000-digits-then-x", "2000000-decimals-then-x"])
def test_a_long_exponent_is_refused_at_once(token, resolution, error):
    t0 = time.perf_counter()
    with pytest.raises(WaveParseError) as err:
        parse_waveforms(f"v 1\nu 0 1 {token}\n", resolution)
    assert time.perf_counter() - t0 < 0.1
    assert str(err.value) == f"line 2: {error}"


NINES_X = "9" * 2_000_000 + "x"  # int() refuses it; so does `_TIME`, once its whole run is read


@pytest.mark.parametrize("read, error", [
    (lambda: parse_int(NINES_X, "bad --seed"), f"bad --seed {shown(NINES_X)}: expected an integer"),
    (lambda: parse_config(f"resolution = {NINES_X}\n"),
     f"config line 1: resolution {shown(NINES_X)}: expected an integer"),
], ids=["option", "config"])
def test_a_long_integer_with_a_bad_tail_is_refused_at_once(read, error):
    t0 = time.perf_counter()
    with pytest.raises(WaveParseError) as err:
        read()
    assert time.perf_counter() - t0 < 0.1
    assert str(err.value) == error


LONG_ONE = "1" + "0" * 4400 + "e-4400"  # a decimal of 4,401 digits that is 1

# each token at resolution 2: its tick, or the message that refuses it.
# The grammar is stated by _TIME, not by the interpreter, so every Python
# reads this table alike
OFF_TICK = "does not land on a tick at resolution 2"
GRAMMAR = {
    "1_000": 2000, "7_5.E1": 1500, "1.5_5": f"time '1.5_5' {OFF_TICK}",
    "\u0661\u0662": 24, "\uff11\uff12": 24, ".5": 1, "5.": 10, "1.e5": 200000,
    "+0030": 60, "70/2": 70, "-3/4": f"time '-3/4' {OFF_TICK}",
    "3/0": "bad time '3/0'", "_0": "bad time '_0'", "1__0": "bad time '1__0'",
    "1_": "bad time '1_'", "1e_5": "bad time '1e_5'", "inf": "bad time 'inf'",
    "nan": "bad time 'nan'", "e\uff1570059": "bad time 'e\uff1570059'",
    "1e00005": 200000,  # an exponent of 5, however many zeros lead it
    LONG_ONE: 2,
}


@pytest.mark.parametrize("token", GRAMMAR, ids=[
    "4401-digit-one" if tok == LONG_ONE else tok for tok in GRAMMAR
])
def test_the_time_grammar_reads_alike_on_every_python(token):
    # the long decimal reads whether or not int()'s digit limit is in force
    for lifted in (False, True) if token == LONG_ONE else (False,):
        with int_digit_limit(lifted):
            try:
                got = parse_waveforms(f"u 0 {token}\n", 2)["u"].switches[0]
            except WaveParseError as exc:
                got = str(exc).removeprefix("line 1: ")
        assert got == GRAMMAR[token]


def test_a_tick_too_long_to_write_back_is_refused():
    # the order check's message and emit_waveforms could not print it
    with pytest.raises(WaveParseError) as err:
        parse_waveforms("u 0 1e4300 0\n")
    assert str(err.value) == (
        "line 1: time '1e4300': a tick of 4301 digits, more than the 4300 that can be written"
    )
    big = "9" * 4300
    assert emit_waveforms(parse_waveforms(f"u 0 -{big} {big}\n")) == f"u 0 -{big} {big}\n"


@pytest.mark.parametrize("tick, digits", [
    (10**4300, 4301), (-(10**4300), 4301), (7 * 10**9000, 9001),
], ids=["past-limit", "negative", "twice-the-limit"])
def test_emit_refuses_a_tick_it_cannot_write(tick, digits):
    # a tick computed from long inputs, e.g. a delay added to an input tick
    sig = Signal(0, tuple(sorted((tick, 0))))
    with pytest.raises(WaveParseError) as err:
        emit_waveforms({"u": Signal(0, (1,)), "x": sig})
    assert str(err.value) == (
        f"net 'x': a tick of {digits} digits, more than the 4300 that can be written"
    )


BIG = "1" + "0" * 4300  # one digit past the tick limit


@pytest.mark.parametrize("times, token, digits, resolution", [
    (BIG, BIG, 4301, 1), ("-9" + BIG + " 0", "-9" + BIG, 4302, 1),
    ("5 " + BIG + " 3", BIG, 4301, 1),  # out of order too: the long tick is named first
    ("9" * 5000, "9" * 5000, 5000, 1),
    ("0" * 99 + BIG, "0" * 99 + BIG, 4301, 1),  # leading zeros are not counted
    # the tick is the time times the resolution, and its digits are counted
    (BIG, BIG, 4302, 10), ("-" + BIG, "-" + BIG, 4304, 1000),
    ("3" * 4301, "3" * 4301, 4301, 3), ("4" * 4301, "4" * 4301, 4302, 3),  # a carry or none
], ids=["one", "negative", "unordered", "5000-digits", "zero-padded",
        "times-ten", "negative-times-1000", "no-carry", "carry"])
def test_the_tick_limit_holds_without_ints_digit_limit(times, token, digits, resolution):
    # under the interpreter's default digit limit (Python 3.10.7 and later)
    # int() refuses such a token; with the limit lifted, the integer line
    # path or the token reader must still refuse the tick.  Both give one
    # message, which does not echo the token in full
    for lifted in (False, True):
        with int_digit_limit(lifted):
            with pytest.raises(WaveParseError) as err:
                parse_waveforms(f"u 0 {times}\n", resolution)
        assert str(err.value) == (
            f"line 1: time {shown(token)}: a tick of {digits} digits, "
            "more than the 4300 that can be written"
        )
        assert len(str(err.value)) < 150


@pytest.mark.parametrize("token, resolution", [
    ("0" * 4301 + "1", 1),
    ("1." + "0" * 5000, 1),
    ("-" + "0" * 4400 + "0.1" + "0" * 4400, 10),  # tick -1
    ("+0_0" + "0" * 4400 + "1.0" + "0" * 4400 + "e0000", 1),
    ("0" * 4400 + "3/" + "0" * 4400 + "3", 1),
], ids=["integer", "decimal", "negative", "exponent", "ratio"])
def test_zeros_that_leave_a_time_as_it_is_count_against_no_limit(token, resolution):
    # leading zeros, and zeros that end the decimals, leave the value as
    # it is, so a token of any length that pads a tick of one digit reads
    tick = -1 if token.startswith("-") else 1
    assert parse_waveforms(f"u 0 {token}\n", resolution)["u"].switches == (tick,)


def reference_tick(token, resolution, ln):
    """Every token through Fraction, as the parser read times before it
    had an integer fast path.  Each `_` between two digits is dropped
    first: that is where the grammar allows `_`, and Fraction reads it
    only from Python 3.11 on, so without this the reference would refuse
    on 3.10 the digit groups that the parser reads on every Python."""
    try:
        value = Fraction(re.sub(r"(?<=\d)_(?=\d)", "", token))
    except (ValueError, ZeroDivisionError):
        raise WaveParseError(f"line {ln}: bad time {shown(token)}") from None
    scaled = value * resolution
    if scaled.denominator != 1:
        raise WaveParseError(
            f"line {ln}: time {shown(token)} does not land on a tick at resolution {resolution}"
        )
    return int(scaled)


# Arabic-Indic and fullwidth digits: int() and Fraction both read them
NON_ASCII_DIGITS = ("\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
                    "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")


@st.composite
def time_tokens(draw):
    """Time tokens of every shape the Fraction grammar knows, and some it
    does not; exponents keep to 4 digits, past which the parser refuses
    a token that the reference would still read."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    digits = draw(st.text("0123456789", min_size=1, max_size=8))
    shape = draw(st.sampled_from(
        ["int", "zeros", "underscore", "unicode", "huge", "decimal", "ratio",
         "exponent", "junk"]
    ))
    if shape == "int":
        return sign + digits
    if shape == "zeros":
        return sign + "0" * draw(st.integers(1, 4)) + digits
    if shape == "underscore":
        cut = draw(st.integers(0, len(digits)))
        return sign + digits[:cut] + "_" * draw(st.integers(1, 2)) + digits[cut:]
    if shape == "unicode":
        table = str.maketrans("0123456789", draw(st.sampled_from(NON_ASCII_DIGITS)))
        keep = draw(st.integers(0, len(digits)))  # an ASCII head, a non-ASCII tail
        return sign + digits[:keep] + digits[keep:].translate(table)
    if shape == "huge":  # int() and Fraction refuse more than 4300 digits
        return sign + "1" + "0" * draw(st.integers(4295, 4305))
    if shape == "decimal":
        frac = draw(st.text("0123456789", max_size=4))
        return sign + draw(st.sampled_from(["", digits])) + "." + frac
    if shape == "ratio":
        return sign + digits + "/" + draw(st.text("0123456789", min_size=1, max_size=3))
    if shape == "exponent":
        mantissa = draw(st.sampled_from([digits, digits + ".5", "." + digits]))
        exp = draw(st.text("0123456789", min_size=1, max_size=4))
        if draw(st.booleans()):  # Fraction reads `_` between exponent digits
            exp = exp[:1] + "_" + exp[1:] if len(exp) > 1 else exp
        return sign + mantissa + draw(st.sampled_from("eE")) + draw(
            st.sampled_from(["", "+", "-"])
        ) + exp
    return draw(st.text("0123456789.eE/_+-x", min_size=1, max_size=6))


def reference_line(tokens, resolution):
    """reference_tick on each token, refusing ticks that cannot be written
    back as text, then the order check."""
    times = []
    for tok in tokens:
        what = f"line 1: time {shown(tok)}: a tick"
        if tok.lstrip("+-").isdecimal() and len(tok.lstrip("+-")) > 4300:  # int() may refuse it
            with int_digit_limit(lifted=True):  # the digits of the scaled tick
                digits = len(str(abs(int(tok) * resolution)))
            raise WaveParseError(
                f"{what} of {digits} digits, more than the 4300 that can be written"
            )
        times.append(reference_tick(tok, resolution, 1))
        writable(times[-1], what)  # str() refuses more than 4300 digits
    for a, b in zip(times, times[1:]):
        if b <= a:
            raise WaveParseError(
                f"line 1: switch times must strictly increase ({shown_int(a)} then {shown_int(b)})"
            )
    return tuple(times)


@contextmanager
def int_digit_limit(lifted):
    """int() and Fraction with the interpreter's limit on integer text
    (Python 3.10.7 and later) in force, or lifted."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if lifted and limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def traced_peak(fn, *args):
    """The most memory fn(*args) holds at once, by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("resolution", [1, 10, 1000])
@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    tokens=st.lists(time_tokens(), min_size=1, max_size=4),
    sep=st.sampled_from([" ", "\t", "\x1f", " \t\x1f"]),
)
@example(tokens=["1e4300"], sep=" ")  # one digit past the tick limit
@example(tokens=["9" * 4301], sep=" ")  # 4,301 digits, which int() reads when lifted
@example(tokens=["-3", "9" * 4301, "0"], sep="\x1f")
@example(tokens=["-" + "9" * 4300, "0"], sep=" ")  # the most negative integer token
@example(tokens=["4", "04"], sep="\t")  # equal ticks
@example(tokens=["1e9999"], sep=" ")  # the longest exponent read
@example(tokens=[str(t) for t in range(-3, 40, 6)], sep=" ")  # a long integer line
@example(tokens=["-3", "2", "+4.5e0", "9/1", "10"], sep="\t")  # integers around a decimal
def test_the_integer_fast_path_reads_what_fraction_reads(resolution, tokens, sep):
    text = "u 0 " + sep.join(tokens) + "\n"
    # a long token must also read the same with int()'s digit limit
    # lifted, on the fast path and through the token reader; that limit
    # refuses no token of at most 4300 characters
    long_token = any(len(tok) > 4300 for tok in tokens)
    for lifted in (False, True) if long_token else (False,):
        with int_digit_limit(lifted):
            try:
                expect = reference_line(tokens, resolution)
            except WaveParseError as exc:
                with pytest.raises(WaveParseError) as err:
                    parse_waveforms(text, resolution)
                assert str(err.value) == str(exc)
            else:
                assert parse_waveforms(text, resolution)["u"].switches == expect


def test_a_long_line_is_parsed_in_memory_that_follows_its_tokens():
    # one 20,000-switch line: split() and int() peak at 2.2 MB, where a
    # line-wide regular expression matched first would take 5.4 MB
    text = "u 0 " + " ".join(str(t) for t in range(-30_000, 30_000, 3)) + "\n"
    assert len(parse_waveforms(text)["u"].switches) == 20_000
    assert traced_peak(parse_waveforms, text) < 2.7e6


def test_an_integer_line_takes_the_fast_path_at_every_resolution(monkeypatch):
    # reading each of 20,000 integers as a token took 17 times as long
    calls = []
    parse_tick = waveio._parse_tick
    monkeypatch.setattr(waveio, "_parse_tick", lambda *a: calls.append(a) or parse_tick(*a))
    text = "u 0 " + " ".join(str(t) for t in range(-30_000, 30_000, 3)) + "\n"
    assert parse_waveforms(text, 10)["u"].switches == tuple(range(-300_000, 300_000, 30))
    assert calls == []


# -- run configuration ----------------------------------------------------------


def test_parse_config():
    cfg = parse_config('time_unit = "10ps"\nresolution = 4\n# note\n')
    assert cfg == RunConfig(time_unit="10ps", resolution=4)
    assert parse_config("") == RunConfig()


@pytest.mark.parametrize("unit", ["1s", "10 ms", "100us", "1 fs"])
def test_config_accepts_every_vcd_time_unit(unit):
    assert parse_config(f"time_unit = {unit}\n").time_unit == unit


@pytest.mark.parametrize(
    "line", ["time_unit = 2ns", "time_unit = 1000ps", "time_unit = ns", "time_unit = 1NS",
             "time_unit = 1ns $end $var wire 1 ! x $end", "time_unit ="]
)
def test_config_rejects_time_units_a_vcd_cannot_state(line):
    with pytest.raises(WaveParseError, match="time_unit"):
        parse_config(line + "\n")
    with pytest.raises(WaveParseError, match="time_unit"):
        RunConfig(time_unit="1ns\n$end")


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(WaveParseError):
        parse_config("speed = 9\n")
    with pytest.raises(WaveParseError):
        parse_config("resolution = fast\n")
    with pytest.raises(WaveParseError):
        parse_config("no equals sign\n")
    with pytest.raises(WaveParseError):
        RunConfig(resolution=0)


# -- VCD --------------------------------------------------------------------------


GOLDEN = (
    "$timescale 1ns $end\n"
    "$scope module top $end\n"
    "$var wire 1 ! clk $end\n"
    '$var wire 1 " q $end\n'
    "$upscope $end\n"
    "$enddefinitions $end\n"
    "$dumpvars\n"
    "0!\n"
    '1"\n'
    "$end\n"
    "#0\n"
    "1!\n"
    "#2\n"
    "0!\n"
    "#3\n"
    '0"\n'
    "#4\n"
    "1!\n"
)


def test_vcd_golden_dump():
    waves = {"clk": Signal(0, (0, 2, 4)), "q": Signal(1, (3,))}
    assert emit_vcd(waves) == GOLDEN


def test_vcd_is_deterministic():
    waves = {"b": Signal(0, (1, 4)), "a": Signal(1, (1,))}
    first = emit_vcd(waves, RunConfig(time_unit="10ps"))
    second = emit_vcd(dict(reversed(list(waves.items()))), RunConfig(time_unit="10ps"))
    assert first == second
    assert "$date" not in first


def test_vcd_shifts_negative_times_with_a_comment():
    text = emit_vcd({"u": Signal(0, (-2, 1))})
    assert "$comment tick offset 2 $end" in text
    assert "\n#0\n" in text
    assert "\n#3\n" in text


def test_vcd_refuses_times_it_cannot_write():
    big = 10**4300  # one digit more than can be written
    with pytest.raises(WaveParseError, match="net 'u': a VCD timestamp of 4301 digits"):
        emit_vcd({"u": Signal(0, (big,))})
    with pytest.raises(WaveParseError, match="a VCD tick offset of 4301 digits"):
        emit_vcd({"u": Signal(0, (-1,)), "w": Signal(0, (-big, 0))})


@st.composite
def signal_maps(draw):
    """Signals that share ticks, far apart or negative ones included, and
    some with long runs of switches."""
    scale = draw(st.sampled_from([1, 2, 10**40]))
    offset = draw(st.sampled_from([0, -5, -(10**41)]))  # a negative tick needs an offset
    names = draw(st.lists(st.text("abz_09", min_size=1, max_size=3), max_size=7, unique=True))
    waves = {}
    for name in names:
        if draw(st.booleans()):  # a few switches, often at another net's ticks
            ticks = sorted(draw(st.lists(st.integers(-3, 9), max_size=6, unique=True)))
        else:  # a run of switches, which crosses windows
            start, step = draw(st.integers(-3, 9)), draw(st.integers(1, 3))
            ticks = range(start, start + step * draw(st.integers(0, 300)), step)
        waves[name] = Signal(draw(st.integers(0, 1)), tuple(offset + scale * t for t in ticks))
    return waves


def first_difference(got, expect):
    """None when the dumps are equal, else the first line where they
    differ and the lines from there; pytest's own diff of two long dumps
    takes minutes."""
    if got == expect:
        return None
    got, expect = got.splitlines(), expect.splitlines()
    same = min(len(got), len(expect))
    k = next((k for k, (a, b) in enumerate(zip(got, expect)) if a != b), same)
    return k, got[k:k + 3], expect[k:k + 3]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(waves=signal_maps())
@example(waves={})
@example(waves={"u": Signal(1, ()), "v": Signal(0, ())})
@example(waves={f"n{i}": Signal(i % 2, (0, 1, 7)) for i in range(300)})  # one tick, many nets
def test_vcd_writes_what_the_whole_dump_writer_wrote(waves):
    expect = reference_vcd(waves)
    assert first_difference(emit_vcd(waves), expect) is None
    with mock.patch.object(waveio, "_VCD_WINDOW", 1):  # one switch of each net a window
        assert first_difference(emit_vcd(waves), expect) is None


def test_vcd_of_many_far_apart_switches_costs_no_tick_loop():
    # 2,000 nets, one switch each, 10**30 ticks apart and out of name order
    waves = {f"n{i:04}": Signal(0, ((i * 7919 % 2000) * 10**30,)) for i in range(2000)}
    t0 = time.perf_counter()
    text = emit_vcd(waves)
    assert time.perf_counter() - t0 < 0.5
    assert first_difference(text, reference_vcd(waves)) is None


def test_vcd_memory_follows_a_window_not_the_dump():
    # 256 nets switching together at 800 ticks, 128 of each net a window:
    # the whole-dump writer, which holds every change line at once, peaks
    # at 5.1 MB here (Python 3.11); the windowed one holds a window and the
    # text, 1.7 MB
    waves = {f"n{i}": Signal(i % 2, tuple(range(800))) for i in range(256)}
    assert first_difference(emit_vcd(waves), reference_vcd(waves)) is None
    assert traced_peak(emit_vcd, waves) <= 5.1e6 / 2
