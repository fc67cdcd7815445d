"""Text formats: waveform lines, key=value run configs, VCD emission.

Waveform text is one signal per line: `name initial t1 t2 ... tn` with
strictly increasing switch times.  Times may be decimals only when the
run config sets a resolution that maps them to whole ticks; anything that
does not land on a tick is rejected rather than rounded.  `#` starts a
comment.

VCD output is emission-only and deterministic: no timestamps of the run,
identifiers assigned in sorted name order, same-tick changes sorted by
name.  Negative ticks are handled by shifting all timestamps by a
documented offset (VCD time must not be negative).
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from .signals import Signal, Tick


class WaveParseError(ValueError):
    """Malformed waveform text or run configuration."""


# the units a VCD $timescale may state
_TIME_UNIT = re.compile(r"(1|10|100) ?(s|ms|us|ns|ps|fs)")


@dataclass(frozen=True)
class RunConfig:
    """Run-wide I/O settings."""

    time_unit: str = "1ns"
    resolution: int = 1
    seed: int = 0

    def __post_init__(self):
        if not _TIME_UNIT.fullmatch(self.time_unit):
            raise WaveParseError(
                f"time_unit must be 1, 10 or 100 followed by s, ms, us, ns, ps "
                f"or fs, got {self.time_unit!r}"
            )
        if self.resolution < 1:
            raise WaveParseError(f"resolution must be >= 1, got {self.resolution}")


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines into a RunConfig."""
    fields: dict[str, object] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise WaveParseError(f"config line {ln}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip().strip('"')
        if key == "time_unit":
            fields[key] = value
        elif key in ("resolution", "seed"):
            try:
                fields[key] = int(value)
            except ValueError:
                raise WaveParseError(f"config line {ln}: {key} must be an integer") from None
        else:
            raise WaveParseError(f"config line {ln}: unknown key {key!r}")
    return RunConfig(**fields)


def _parse_tick(token: str, resolution: int, ln: int) -> Tick:
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise WaveParseError(f"line {ln}: bad time {token!r}") from None
    scaled = value * resolution
    if scaled.denominator != 1:
        raise WaveParseError(
            f"line {ln}: time {token} does not land on a tick at resolution {resolution}"
        )
    return int(scaled)


def parse_waveforms(text: str, resolution: int = 1) -> dict[str, Signal]:
    """Parse waveform lines into an ordered name -> Signal map."""
    out: dict[str, Signal] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise WaveParseError(f"line {ln}: expected `name initial [times...]`")
        name = parts[0]
        if name in out:
            raise WaveParseError(f"line {ln}: duplicate signal {name!r}")
        if parts[1] not in ("0", "1"):
            raise WaveParseError(f"line {ln}: initial value must be 0 or 1")
        times = [_parse_tick(tok, resolution, ln) for tok in parts[2:]]
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise WaveParseError(
                    f"line {ln}: switch times must strictly increase ({a} then {b})"
                )
        out[name] = Signal(int(parts[1]), tuple(times))
    return out


def emit_waveforms(signals: dict[str, Signal]) -> str:
    """Canonical waveform text; round-trips through parse_waveforms."""
    lines = []
    for name, sig in signals.items():
        parts = [name, str(sig.initial)] + [str(t) for t in sig.switches]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


# -- VCD ---------------------------------------------------------------------

_VCD_ID_BASE = 94  # printable ASCII 33..126


def _vcd_id(i: int) -> str:
    chars = []
    while True:
        chars.append(chr(33 + i % _VCD_ID_BASE))
        i //= _VCD_ID_BASE
        if i == 0:
            return "".join(reversed(chars))
        i -= 1


def emit_vcd(signals: dict[str, Signal], cfg: RunConfig = RunConfig()) -> str:
    """Deterministic VCD dump of the given signals.

    Byte-identical for identical inputs: no dates or tool banners,
    identifiers in sorted name order, changes under one timestamp sorted
    by name.  When any switch is negative, all timestamps are shifted up
    by a common offset announced in a $comment.
    """
    names = sorted(signals)
    start = min(
        [0] + [s.switches[0] for s in signals.values() if s.switches]
    ) if signals else 0
    offset = -start if start < 0 else 0

    lines = [f"$timescale {cfg.time_unit} $end"]
    if offset:
        lines.append(f"$comment tick offset {offset} $end")
    lines.append("$scope module top $end")
    ids = {}
    for i, name in enumerate(names):
        ids[name] = _vcd_id(i)
        lines.append(f"$var wire 1 {ids[name]} {name} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")
    lines.append("$dumpvars")
    for name in names:
        lines.append(f"{signals[name].value_at(start - 1)}{ids[name]}")
    lines.append("$end")

    changes: dict[Tick, list[str]] = {}
    for name in names:  # sorted, so same-tick changes come out name-sorted
        sig = signals[name]
        for t in sig.switches:
            changes.setdefault(t, []).append(f"{sig.value_at(t)}{ids[name]}")
    for t in sorted(changes):
        lines.append(f"#{t + offset}")
        lines.extend(changes[t])
    return "\n".join(lines) + "\n"
