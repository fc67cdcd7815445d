"""Waveform text format, run configuration, and VCD emission."""

import pytest

from inertia.signals import Signal
from inertia.waveio import (
    RunConfig,
    WaveParseError,
    emit_vcd,
    emit_waveforms,
    parse_config,
    parse_waveforms,
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


def test_resolution_rejects_off_grid_times():
    with pytest.raises(WaveParseError):
        parse_waveforms("u 0 0.3\n", resolution=2)


# -- run configuration ----------------------------------------------------------


def test_parse_config():
    cfg = parse_config('time_unit = "10ps"\nresolution = 4\nseed = 7\n# note\n')
    assert cfg == RunConfig(time_unit="10ps", resolution=4, seed=7)
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
