"""Piecewise-constant Boolean signals on an integer tick axis.

Values are right-continuous: a signal holds its value on [t, t+1) between
integer ticks, switches at finitely many ticks and is therefore constant
on both tails.  Finite switch lists keep every sliding-window operator
total and exact: with integer window offsets, both operands of any
pointwise inequality are again tick-aligned step signals, so checking at
ticks decides the inequality everywhere.

`pointwise` (and through it the Boolean operators) combines several
signals in one walk over the ticks at which they switch; `Signal.leq` checks
each run of 1s with one bisection.  Their cost follows the number of
switches, not the tick distance.

All operations are pure; Signal instances are immutable and hashable.
`shown` and `shown_int` cut a value short for an error message, here
and in every layer above, so that no message echoes a long value whole.
"""

import bisect

Tick = int


class SignalError(ValueError):
    """Malformed signal construction or operator argument."""


# Python writes ints of at most 4300 digits as text by default, so every
# accepted tick can be written back out
MAX_TICK_DIGITS = 4300
_TICK_LIMIT = 10**MAX_TICK_DIGITS
_SHOWN_LIMIT = 10**40


def shown(value, limit: int = 40) -> str:
    """value for an error message, cut to a short prefix: a string by the
    repr of its first `limit` characters, any other value, such as a JSON
    object, by the first `limit` characters of its repr."""
    if not isinstance(value, str):
        text = repr(value)
        return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} chars)"
    return repr(value) if len(value) <= limit else f"{value[:limit]!r}... ({len(value)} chars)"


def _digit_count(n: int) -> int:
    """The digits of n, counted without writing out a long n."""
    n, digits = abs(n), 0
    while n >= _TICK_LIMIT:
        n //= _TICK_LIMIT
        digits += MAX_TICK_DIGITS
    return digits + len(str(n))


def shown_int(n: int) -> str:
    """n for an error message: in full up to 40 digits, otherwise cut to
    its first digits (when str() can write it) and its digit count."""
    if -_SHOWN_LIMIT < n < _SHOWN_LIMIT:
        return str(n)
    head = str(n)[:40] if -_TICK_LIMIT < n < _TICK_LIMIT else "-" * (n < 0)
    return f"{head}... ({_digit_count(n)} digits)"


class Value:
    """Base of the immutable records: `__init__` validates its arguments,
    then `_set` stores each field named in `_fields` and `__slots__` and
    `_key`, the tuple of their values, which `==` within one class, the
    hash and the `Name(field=value, ...)` repr read."""

    __slots__ = ("_key",)

    def _set(self, *values):
        """Store values under the names in `_fields`, in order, and as `_key`."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", values)

    def __setattr__(self, name, *_value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({args})"

    def __setstate__(self, state):  # copy and pickle restore the slots here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    @classmethod
    def _setters(cls, *names):  # the named slots' own setters, at half `_set`'s cost
        return tuple(getattr(cls, name).__set__ for name in names)


class Signal(Value):
    """Right-continuous 0/1 step function.

    `initial` is the value on (-inf, switches[0]); each switch flips the
    value.  Canonical form (strictly increasing switch times, no empty
    flips) is enforced on construction, so `==` and hashing are semantic;
    only kernels whose switches are canonical by construction skip the
    check, through `_trusted`.
    """

    __slots__ = _fields = ("initial", "switches")

    def __init__(self, initial: int, switches: tuple[Tick, ...] = ()):
        if type(initial) is not int or initial not in (0, 1):  # a bool writes as True
            raise SignalError(f"initial value must be 0 or 1, got {shown(initial)}")
        switches = tuple(switches)  # tuple() returns a tuple as it is
        prev = None
        for t in switches:
            if isinstance(t, bool) or not isinstance(t, int):
                raise SignalError(f"switch times must be integers, got {shown(t)}")
            if prev is not None and t <= prev:
                raise SignalError(
                    f"switch times must strictly increase ({shown_int(prev)} then {shown_int(t)})"
                )
            prev = t
        self._set(initial, switches)

    @classmethod
    def _trusted(cls, initial: int, switches: tuple[Tick, ...]) -> "Signal":
        """A Signal built without the canonical-form check, for kernels
        whose switch tuple is strictly increasing by construction; it
        stores the slots directly, which is twice as fast as `_set`."""
        s = object.__new__(cls)
        _set_initial(s, initial)
        _set_switches(s, switches)
        _set_key(s, (initial, switches))
        return s

    def __repr__(self):
        return f"Signal({self.initial}, {list(self.switches)})"

    # -- pointwise evaluation -------------------------------------------

    def value_at(self, t: Tick) -> int:
        flips = bisect.bisect_right(self.switches, t)
        return self.initial ^ (flips & 1)

    def values_on(self, lo: Tick, hi: Tick) -> list[int]:
        """Dense values at every tick lo..hi inclusive."""
        if lo > hi:
            raise SignalError(f"empty tick range {shown_int(lo)}..{shown_int(hi)}")
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
        return Signal._trusted(1 - self.initial, self.switches)

    __invert__ = complement

    def translate(self, d: Tick) -> "Signal":
        """Time shift: result(t) == self(t - d)."""
        _require_int(d, "shift")
        if d == 0:
            return self
        return Signal._trusted(self.initial, tuple([t + d for t in self.switches]))

    def __and__(self, other: "Signal") -> "Signal":
        return pointwise(lambda a, b: a & b, self, other)

    def __or__(self, other: "Signal") -> "Signal":
        return pointwise(lambda a, b: a | b, self, other)

    def __xor__(self, other: "Signal") -> "Signal":
        return pointwise(lambda a, b: a ^ b, self, other)

    def leq(self, other: "Signal") -> bool:
        """Pointwise self(t) <= other(t) at every tick: other is 1 where
        each run of 1s of self starts and does not switch before it ends."""
        a, b = self.switches, other.switches
        lead = self.initial  # 1 when (-inf, a[0]) is a run of 1s
        if lead and (not other.initial or b and (not a or b[0] < a[0])):
            return False
        k = 0
        for start, end in zip(a[lead::2], a[lead + 1 :: 2] + (None,)):
            k = bisect.bisect_right(b, start, k)
            if other.initial == k & 1 or k < len(b) and (end is None or b[k] < end):
                return False
        return True


_set_initial, _set_switches, _set_key = Signal._setters("initial", "switches", "_key")


def _evaluated(fn, ix: int, k: int) -> int:
    """fn of the k bits of table index ix, operand 0 the high bit."""
    new = fn(*[ix >> (k - 1 - i) & 1 for i in range(k)])
    if new not in (0, 1):
        raise SignalError(f"combiner must return 0 or 1, got {shown(new)}")
    return new


def pointwise(fn, *signals: Signal) -> Signal:
    """Combine signals with a bit function applied at every tick.

    Exact: the result can only change where some operand switches.  The
    operands' values are one table index (operand 0 is the high bit); a
    dict maps each tick where some operand switches to the XOR of their
    index bits, and one walk over its sorted ticks evaluates `fn` once
    for each index met at a tick's end.
    """
    if not signals:
        raise SignalError("pointwise needs at least one signal")
    k = len(signals)
    ix = 0
    for s in signals:
        ix = ix << 1 | s.initial
    val = initial = _evaluated(fn, ix, k)
    if k == 1:  # the result is constant or switches with the operand
        sw = signals[0].switches
        return Signal._trusted(initial, sw if sw and _evaluated(fn, 1 - ix, 1) != val else ())
    memo = {ix: val}
    masks = {}  # tick -> the index bits that flip there
    for i, s in enumerate(signals):
        bit = 1 << (k - 1 - i)
        if not masks:
            masks = dict.fromkeys(s.switches, bit)
            continue
        get = masks.get
        for t in s.switches:
            masks[t] = get(t, 0) ^ bit
    switches = []
    for t in sorted(masks):
        ix ^= masks[t]
        new = memo.get(ix)
        if new is None:
            new = memo[ix] = _evaluated(fn, ix, k)
        if new != val:
            switches.append(t)
            val = new
    return Signal._trusted(initial, tuple(switches))


# -- sliding windows ------------------------------------------------------
#
# A window AND is 1 at t exactly when the whole window lies inside a
# maximal run of 1s, so each run [a, b) of suitable length maps to a run
# [a + d, b + d - m) of the result and runs shorter than m + 1 ticks
# vanish.  Runs never merge: consecutive runs of the result keep a gap of
# at least one tick because the source runs were separated.


def _require_int(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SignalError(f"{what} must be an integer, got {shown(value)}")


def _window(s: Signal, level: int, d: Tick, m: Tick) -> Signal:
    """`level` exactly where s held `level` over [t - d, t - d + m]: one
    pass over the switches, mapping each run of `level` as above."""
    _require_int(d, "window offset")
    _require_int(m, "window width")
    if m < 0:
        raise SignalError(f"window width must be >= 0, got {shown_int(m)}")
    sw = s.switches
    lead = int(s.initial == level)  # 1 when (-inf, sw[0]) is a run; it never vanishes
    out = [sw[0] + d - m] if lead and sw else []
    for a, b in zip(sw[lead::2], sw[lead + 1 :: 2]):  # the bounded runs
        if b - a > m:
            out += (a + d, b + d - m)
    if sw and s.final == level:  # [sw[-1], +inf) is a run; it never vanishes
        out.append(sw[-1] + d)
    return Signal._trusted(s.initial, tuple(out))  # the unbounded runs kept s's ends


def window_and(s: Signal, d: Tick, m: Tick) -> Signal:
    """t -> AND of s over the ticks [t - d, t - d + m].

    With m == 0 this degenerates to a pure shift by d.
    """
    return _window(s, 1, d, m)


def window_or(s: Signal, d: Tick, m: Tick) -> Signal:
    """t -> OR of s over the ticks [t - d, t - d + m].

    Dual of window_and: the result is 0 exactly where the whole window
    sits inside a 0-run of s.
    """
    return _window(s, 0, d, m)


def forward_window_and(s: Signal, hold: Tick) -> Signal:
    """t -> AND of s over the look-ahead ticks [t, t + hold]."""
    return _window(s, 1, 0, hold)
