"""Piecewise-constant Boolean signals on an integer tick axis.

Values are right-continuous: a signal holds its value on [t, t+1) between
integer ticks, switches at finitely many ticks and is therefore constant
on both tails.  Finite switch lists keep every sliding-window operator
total and exact: with integer window offsets, both operands of any
pointwise inequality are again tick-aligned step signals, so checking at
ticks decides the inequality everywhere.

Kernels that read several signals at once (`pointwise` and the Boolean
operators, `Signal.leq`, and elsewhere the deterministic inertial
transfer and envelope corners) share one merged walk, `switch_walk`,
whose cost follows the number of switches, not the tick distance.

All operations are pure; Signal instances are immutable and hashable.
"""

import bisect
from dataclasses import dataclass

Tick = int


class SignalError(ValueError):
    """Malformed signal construction or operator argument."""


@dataclass(frozen=True)
class Signal:
    """Right-continuous 0/1 step function.

    `initial` is the value on (-inf, switches[0]); each switch flips the
    value.  Canonical form (strictly increasing switch times, no empty
    flips) is enforced on construction, so `==` and hashing are semantic.
    """

    initial: int
    switches: tuple[Tick, ...] = ()

    def __post_init__(self):
        if self.initial not in (0, 1):
            raise SignalError(f"initial value must be 0 or 1, got {self.initial!r}")
        if not isinstance(self.switches, tuple):
            object.__setattr__(self, "switches", tuple(self.switches))
        prev = None
        for t in self.switches:
            if isinstance(t, bool) or not isinstance(t, int):
                raise SignalError(f"switch times must be integers, got {t!r}")
            if prev is not None and t <= prev:
                raise SignalError(f"switch times must strictly increase ({prev} then {t})")
            prev = t

    def __repr__(self):
        return f"Signal({self.initial}, {list(self.switches)})"

    # -- pointwise evaluation -------------------------------------------

    def value_at(self, t: Tick) -> int:
        flips = bisect.bisect_right(self.switches, t)
        return self.initial ^ (flips & 1)

    def values_on(self, lo: Tick, hi: Tick) -> list[int]:
        """Dense values at every tick lo..hi inclusive."""
        if lo > hi:
            raise SignalError(f"empty tick range {lo}..{hi}")
        out = []
        val = self.value_at(lo)
        nxt = bisect.bisect_right(self.switches, lo)
        for t in range(lo, hi + 1):
            while nxt < len(self.switches) and self.switches[nxt] <= t:
                val ^= 1
                nxt += 1
            out.append(val)
        return out

    @property
    def final(self) -> int:
        """Value on the right tail, after the last switch."""
        return self.initial ^ (len(self.switches) & 1)

    @classmethod
    def const(cls, bit: int) -> "Signal":
        return cls(bit, ())

    # -- Boolean algebra and ordering ------------------------------------

    def complement(self) -> "Signal":
        return Signal(1 - self.initial, self.switches)

    __invert__ = complement

    def translate(self, d: Tick) -> "Signal":
        """Time shift: result(t) == self(t - d)."""
        if d == 0:
            return self
        return Signal(self.initial, tuple(t + d for t in self.switches))

    def __and__(self, other: "Signal") -> "Signal":
        return pointwise(lambda a, b: a & b, self, other)

    def __or__(self, other: "Signal") -> "Signal":
        return pointwise(lambda a, b: a | b, self, other)

    def __xor__(self, other: "Signal") -> "Signal":
        return pointwise(lambda a, b: a ^ b, self, other)

    def leq(self, other: "Signal") -> bool:
        """Pointwise self(t) <= other(t) at every tick."""
        if self.initial > other.initial:
            return False
        for _t, (a, b) in switch_walk(self, other):
            if a > b:
                return False
        return True


def switch_walk(*signals: Signal):
    """Walk several signals' switch lists together, in tick order.

    Yields (t, bits) once for every tick t at which some operand
    switches; bits[i] is the value of signals[i] from t up to the next
    yielded tick.  Before the first yield every operand holds its
    `initial`.  Operands switching at the same tick yield one step.
    """
    k = len(signals)
    # t * k + i orders by tick, then operand; the switch lists are
    # already sorted runs, so the sort only merges them
    codes = [t * k + i for i, s in enumerate(signals) for t in s.switches]
    if not codes:
        return
    codes.sort()
    bits = [s.initial for s in signals]
    base = codes[0] - codes[0] % k  # t * k for the tick being collected
    for code in codes:
        i = code - base
        if i >= k:  # the first switch of a later tick
            yield base // k, tuple(bits)
            i = code % k
            base = code - i
        bits[i] ^= 1
    yield base // k, tuple(bits)


def pointwise(fn, *signals: Signal) -> Signal:
    """Combine signals with a bit function applied at every tick.

    Exact: the result can only change where some operand switches, so it
    is evaluated once per step of `switch_walk`.
    """
    if not signals:
        raise SignalError("pointwise needs at least one signal")
    initial = fn(*(s.initial for s in signals))
    if initial not in (0, 1):
        raise SignalError(f"combiner must return 0 or 1, got {initial!r}")
    switches = []
    val = initial
    for t, bits in switch_walk(*signals):
        new = fn(*bits)
        if new != val:
            switches.append(t)
            val = new
    return Signal(initial, tuple(switches))


# -- sliding windows ------------------------------------------------------
#
# A window AND is 1 at t exactly when the whole window lies inside a
# maximal run of 1s, so each run [a, b) of suitable length maps to a run
# [a + d, b + d - m) of the result and runs shorter than m + 1 ticks
# vanish.  Runs never merge: consecutive runs of the result keep a gap of
# at least one tick because the source runs were separated.


def _level_runs(s: Signal, level: int) -> list[tuple[Tick | None, Tick | None]]:
    """Maximal half-open intervals [a, b) where s == level; None is +-inf."""
    runs = []
    val, start = s.initial, None
    for t in s.switches:
        if val == level:
            runs.append((start, t))
        else:
            start = t
        val ^= 1
    if val == level:
        runs.append((start, None))
    return runs


def _shrink_runs(runs, d: Tick, m: Tick):
    out = []
    for a, b in runs:
        na = None if a is None else a + d
        nb = None if b is None else b + d - m
        if na is not None and nb is not None and nb <= na:
            continue
        out.append((na, nb))
    return out


def _runs_to_signal(runs, level: int) -> Signal:
    """Signal equal to `level` exactly on the given disjoint runs."""
    initial = 1 - level
    switches = []
    for a, b in runs:
        if a is None:
            initial = level
        else:
            switches.append(a)
        if b is not None:
            switches.append(b)
    return Signal(initial, tuple(switches))


def window_and(s: Signal, d: Tick, m: Tick) -> Signal:
    """t -> AND of s over the ticks [t - d, t - d + m].

    With m == 0 this degenerates to a pure shift by d.
    """
    if m < 0:
        raise SignalError(f"window width must be >= 0, got {m}")
    return _runs_to_signal(_shrink_runs(_level_runs(s, 1), d, m), 1)


def window_or(s: Signal, d: Tick, m: Tick) -> Signal:
    """t -> OR of s over the ticks [t - d, t - d + m].

    Dual of window_and: the result is 0 exactly where the whole window
    sits inside a 0-run of s.
    """
    if m < 0:
        raise SignalError(f"window width must be >= 0, got {m}")
    return _runs_to_signal(_shrink_runs(_level_runs(s, 0), d, m), 0)


def forward_window_and(s: Signal, hold: Tick) -> Signal:
    """t -> AND of s over the look-ahead ticks [t, t + hold]."""
    if hold < 0:
        raise SignalError(f"hold must be >= 0, got {hold}")
    return _runs_to_signal(_shrink_runs(_level_runs(s, 1), 0, hold), 1)
