"""Text formats: waveform lines, key=value run configs, VCD emission.

Waveform text is one signal per line: `name initial t1 t2 ... tn` with
strictly increasing switch times.  Times may be decimals only when the
run config sets a resolution that maps them to whole ticks; anything that
does not land on a tick is rejected rather than rounded.  `#` starts a
comment.  A line whose times are all plain ASCII integers is read with
int() and scaled by the resolution; every other time must match `_TIME`
(`_` digit groups, any script's digits, `a/b`, decimals, exponents whose
value has at most 4 digits) and is read exactly by Decimal, so every
Python reads it alike, whatever its limit on integer text.  A tick may
have at most 4300 digits, the most Python writes back as text.  On
output, `writable` is the one place that bound is checked: every tick
written here and every integer of the CLI's verdicts passes it.
`writable_name` refuses a net name that is empty or holds whitespace or
`#`.

VCD output is emission-only and deterministic: no timestamps of the run,
identifiers assigned in sorted name order, same-tick changes sorted by
name.  Negative ticks are handled by shifting all timestamps by a
documented offset (VCD time must not be negative).  The changes are
grouped window by window, so the writer's memory follows a window of
switches and its text, not the whole dump.
"""

import operator
import re
from bisect import bisect_left
from collections import defaultdict
from heapq import heapify, heappop, heappush

from .signals import (
    MAX_TICK_DIGITS, _TICK_LIMIT, Signal, Tick, Value, _digit_count, shown, shown_int
)


class WaveParseError(ValueError):
    """Malformed waveform text or run configuration, or a waveform that
    cannot be written as text."""


# the units a VCD $timescale may state
_TIME_UNIT = re.compile(r"(1|10|100) ?(s|ms|us|ns|ps|fs)")


class RunConfig(Value):
    """Run-wide I/O settings: the VCD time unit and ticks per time unit."""

    __slots__ = _fields = ("time_unit", "resolution")

    def __init__(self, time_unit: str = "1ns", resolution: int = 1):
        if type(time_unit) is not str or not _TIME_UNIT.fullmatch(time_unit):
            raise WaveParseError(
                f"time_unit must be 1, 10 or 100 followed by s, ms, us, ns, ps "
                f"or fs, got {shown(time_unit)}"
            )
        self._set(time_unit, _resolution(resolution))


def _resolution(value) -> int:
    """value, when it is a resolution: an int >= 1, not a bool."""
    if type(value) is not int:
        raise WaveParseError(f"resolution must be an integer, got {shown(value)}")
    if value < 1:
        raise WaveParseError(f"resolution must be >= 1, got {shown_int(value)}")
    return value


def parse_int(text: str, what: str) -> int:
    """int(text); otherwise a WaveParseError that begins with `what`, shows
    text cut short and, for text that `_TIME` reads as its `whole` run
    alone, an integer too long for int(), names the digit count."""
    try:
        return int(text)
    except ValueError:
        pass
    m = _TIME.fullmatch(text.strip())
    if m and m.end() == m.end("whole"):
        raise WaveParseError(
            f"{what} {shown(text)}: an integer of {len(m['whole']) - m['whole'].count('_')} "
            f"digits, more than the {MAX_TICK_DIGITS} that can be read"
        )
    raise WaveParseError(f"{what} {shown(text)}: expected an integer")


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
        elif key == "resolution":
            fields[key] = parse_int(value, f"config line {ln}: {key}")
        else:
            raise WaveParseError(f"config line {ln}: unknown key {shown(key)}")
    return RunConfig(**fields)


MAX_EXPONENT_DIGITS = 4
# a time off the integer fast path: an optional sign, then a ratio of two
# digit runs, or an integer or decimal with an optional exponent; `_` may
# group a run's digits, and \d takes any script's.  Both forms share their
# first run, so a long integer is scanned once, and each run is atomic, so
# a refused token is not rescanned digit by digit
_run = r"(?=(?P<{0}>\d+(?:_\d+)*))(?P={0})".format  # atomic: 3.10 has no (?>...)
_TIME = re.compile(
    rf"[+-]?(?=\.?\d)(?:{_run('whole')})?"
    rf"(?:/{_run('den')}|(?:\.(?:{_run('frac')})?)?(?:[eE](?P<exp>[+-]?{_run('power')}))?)"
)


def writable(n: int, what: str) -> int:
    """n, when str() can write it; otherwise a WaveParseError that begins
    with `what` and names n's digit count.  The one check of the bound
    on output."""
    if -_TICK_LIMIT < n < _TICK_LIMIT:
        return n
    raise _too_long(what, _digit_count(n))


def _too_long(what: str, digits: int) -> WaveParseError:
    return WaveParseError(
        f"{what} of {digits} digits, more than the {MAX_TICK_DIGITS} that can be written"
    )


# a name that waveform lines, which split on whitespace and end at `#`,
# and VCD $var lines can carry
_NAME = re.compile(r"[^\s#]+")


def writable_name(name: str) -> str:
    """name, when a waveform or VCD line can carry it; otherwise a
    WaveParseError.  The one check of names on output."""
    if not _NAME.fullmatch(name):
        raise WaveParseError(
            f"net name {shown(name)}: a name must be non-empty, "
            "without whitespace or '#'"
        )
    return name


def _parse_tick(token: str, resolution: int, ln: int) -> Tick:
    """The tick of one time token at `resolution`, read exactly by Decimal
    after _TIME has checked its grammar.  An exponent whose value has more
    than MAX_EXPONENT_DIGITS digits is refused first, so no number built
    here has many more digits than the token has characters."""
    # imported here: only this slow path needs them
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
    m = _TIME.fullmatch(token)
    num, _, den = token.replace("_", "").partition("/")
    if not m or den and not Decimal(den):
        raise WaveParseError(f"line {ln}: bad time {shown(token)}")
    if m["exp"] and Decimal(m["exp"].replace("_", "")).adjusted() >= MAX_EXPONENT_DIGITS:
        raise WaveParseError(
            f"line {ln}: time {shown(token)} has an exponent of more than "
            f"{MAX_EXPONENT_DIGITS} digits"
        )
    exact = Context(MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
    tick, rest = exact.divmod(exact.multiply(Decimal(num), resolution), Decimal(den or 1))
    if rest:
        raise WaveParseError(
            f"line {ln}: time {shown(token)} does not land on a tick "
            f"at resolution {resolution}"
        )
    if tick.adjusted() >= MAX_TICK_DIGITS:
        raise _too_long(f"line {ln}: time {shown(token)}: a tick", tick.adjusted() + 1)
    return int(tick)


def _increasing(times: tuple[Tick, ...]) -> bool:
    return all(map(operator.lt, times, times[1:]))


def _parse_times(text: str, resolution: int, ln: int) -> tuple[Tick, ...]:
    """The strictly increasing switch times of one line.  A line of plain
    ASCII integers is read in one go, each time times the resolution; any
    other line, and one that fails a check, is read token by token so that
    the error names the first bad token."""
    # int() takes an ASCII token without `_` only as a plain integer;
    # `\x1f`, the one ASCII space that split() cuts at but splitlines()
    # leaves in a line, is rare enough to leave to the token path
    if text.isascii() and "_" not in text and "\x1f" not in text:
        try:
            times = tuple(map(int, text.split()))
        except ValueError:  # not an integer, or past int()'s digit limit
            pass
        else:  # the ends bound an increasing line, even with that limit lifted
            if resolution != 1:  # multiplying by 1 would cost a third more
                times = tuple(map(resolution.__mul__, times))
            if _increasing(times) and (
                not times or -_TICK_LIMIT < times[0] and times[-1] < _TICK_LIMIT
            ):
                return times
    times = tuple([_parse_tick(tok, resolution, ln) for tok in text.split()])
    if not _increasing(times):
        a, b = next((a, b) for a, b in zip(times, times[1:]) if b <= a)
        raise WaveParseError(
            f"line {ln}: switch times must strictly increase ({shown_int(a)} then {shown_int(b)})"
        )
    return times


def parse_waveforms(text: str, resolution: int = 1) -> dict[str, Signal]:
    """Parse waveform lines into an ordered name -> Signal map."""
    _resolution(resolution)
    out: dict[str, Signal] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        if len(parts) < 2:
            raise WaveParseError(f"line {ln}: expected `name initial [times...]`")
        name = parts[0]
        if name in out:
            raise WaveParseError(f"line {ln}: duplicate signal {shown(name)}")
        if parts[1] not in ("0", "1"):
            raise WaveParseError(f"line {ln}: initial value must be 0 or 1")
        times = _parse_times(parts[2] if len(parts) > 2 else "", resolution, ln)
        out[name] = Signal._trusted(int(parts[1]), times)
    return out


def emit_waveforms(signals: dict[str, Signal]) -> str:
    """Canonical waveform text; round-trips through parse_waveforms.  A
    tick of more than MAX_TICK_DIGITS digits, or a name that the text
    cannot carry, is refused."""
    lines = []
    for name, sig in signals.items():
        writable_name(name)
        ticks = sig.switches  # increasing, so the ends bound every tick
        if ticks:
            writable(ticks[0], f"net {shown(name)}: a tick")
            writable(ticks[-1], f"net {shown(name)}: a tick")
        parts = [name, str(sig.initial)] + [str(t) for t in ticks]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


# -- VCD ---------------------------------------------------------------------

_VCD_ID_BASE = 94  # printable ASCII 33..126
_VCD_WINDOW = 2**15  # the switches of one emit_vcd window: memory follows it


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
    by a common offset announced in a $comment.  An offset or shifted
    timestamp of more than MAX_TICK_DIGITS digits, or a name that the
    text cannot carry, is refused.
    """
    names = sorted(signals)
    start = min(
        [0] + [s.switches[0] for s in signals.values() if s.switches]
    )
    offset = writable(-start, "a VCD tick offset")
    for name in names:  # a net's last switch is its latest
        writable_name(name)
        ticks = signals[name].switches
        if ticks:
            writable(ticks[-1] + offset, f"net {shown(name)}: a VCD timestamp")

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
    for name in names:  # start - 1 precedes every switch
        lines.append(f"{signals[name].initial}{ids[name]}")
    lines.append("$end")

    # the change section, window by window: a window starts at the first
    # unwritten switch and ends before the first one past any net's share,
    # so it holds at most _VCD_WINDOW switches, or one of each net
    sigs = [signals[name] for name in names]
    pos = [0] * len(names)  # each net's first unwritten switch
    pending = [(s.switches[0], i) for i, s in enumerate(sigs) if s.switches]
    heapify(pending)  # the nets with unwritten switches, by the first one
    while pending:
        hi, window, share = float("inf"), [], max(1, _VCD_WINDOW // len(pending))
        while pending and pending[0][0] < hi:  # hi stays above every net popped
            i = heappop(pending)[1]
            if pos[i] + share < len(sigs[i].switches):
                hi = min(hi, sigs[i].switches[pos[i] + share])
            window.append(i)
        changes = defaultdict(list)
        for i in sorted(window):  # name order, so each tick's changes are too
            ticks, p = sigs[i].switches, pos[i]
            pos[i] = q = bisect_left(ticks, hi, p)
            for k in (p, p + 1):  # switches k, k + 2, ... leave the net at one value
                change = f"{sigs[i].initial ^ (k + 1) % 2}{ids[names[i]]}"
                for t in ticks[k:q:2]:
                    changes[t].append(change)
            if q < len(ticks):
                heappush(pending, (ticks[q], i))
        out = []
        for t in sorted(changes):
            out.append(f"#{t + offset}")
            out.extend(changes[t])
        lines.append("\n".join(out))  # one string per window
    lines.append("")  # the final newline, without copying the dump to add it
    return "\n".join(lines)
