"""Brute-force ground truth for delay-condition solution sets.

Candidate outputs are enumerated over a bounded tick horizon by a
depth-first scan of bit vectors; a candidate is constant outside the
horizon, extending its two end bits.  Membership is decided from the
defining per-tick inequalities, evaluated densely with prefix sums over
the input's sampled values.  This module deliberately shares none of the
run-based window code it is used to cross-check: only Signal plumbing
(construction and pointwise sampling) is common.

Exactness argument: every condition atom is a per-tick constraint whose
windows reach at most `reach` ticks away.  Beyond the horizon plus a pad
of reach + 1 ticks both the input and any candidate are constant, so the
constraints repeat verbatim and checking the padded range decides them
for all time.  Edge-triggered constraints are vacuous outside the
horizon because candidates cannot switch there.
"""

from dataclasses import dataclass
from typing import Iterator

from .conditions import (
    AicParams,
    BdcParams,
    CondExpr,
    FdcParams,
    RicParams,
)
from .signals import Signal, Tick

MAX_SPAN = 80


class HorizonError(ValueError):
    """Horizon too large (or malformed) for exhaustive enumeration."""


@dataclass(frozen=True)
class GridConfig:
    """Enumeration window: candidate switches confined to (lo, hi].

    max_switches, when set, drops candidates with more switches; leave it
    None for completeness proofs and use it to keep searches tractable.
    """

    lo: Tick
    hi: Tick
    max_switches: int | None = None

    def __post_init__(self):
        if self.lo >= self.hi:
            raise HorizonError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.hi - self.lo > MAX_SPAN:
            raise HorizonError(
                f"horizon spans {self.hi - self.lo} ticks, limit is {MAX_SPAN}"
            )
        if self.max_switches is not None and self.max_switches < 0:
            raise HorizonError("max_switches must be >= 0 or None")


class _DenseInput:
    """u sampled on a range wide enough for every window query."""

    def __init__(self, u: Signal, lo: Tick, hi: Tick):
        self.base = lo
        vals = u.values_on(lo, hi)
        pre = [0]
        for v in vals:
            pre.append(pre[-1] + v)
        self.pre = pre
        self.size = len(vals)

    def all_one(self, a: Tick, b: Tick) -> bool:
        i, j = a - self.base, b - self.base + 1
        return self.pre[j] - self.pre[i] == j - i

    def all_zero(self, a: Tick, b: Tick) -> bool:
        i, j = a - self.base, b - self.base + 1
        return self.pre[j] - self.pre[i] == 0

    def at(self, t: Tick) -> int:
        i = t - self.base
        return self.pre[i + 1] - self.pre[i]


class _Prepared:
    """Per-(input, expression, grid) constraint tables for the DFS."""

    def __init__(self, u: Signal, expr: CondExpr, grid: GridConfig):
        if u.switches and not (grid.lo <= u.switches[0] <= u.switches[-1] <= grid.hi):
            raise HorizonError(
                f"input switches {list(u.switches)} leave the grid "
                f"[{grid.lo}, {grid.hi}]"
            )
        lo, hi = grid.lo, grid.hi
        self.lo, self.hi = lo, hi
        self.n = hi - lo + 1
        self.max_switches = grid.max_switches

        bdcs = [a for a in expr.atoms if isinstance(a, BdcParams)]
        fdcs = [a for a in expr.atoms if isinstance(a, FdcParams)]
        rics = [a for a in expr.atoms if isinstance(a, RicParams)]
        aics = [a for a in expr.atoms if isinstance(a, AicParams)]

        reach = 0
        for p in bdcs:
            reach = max(reach, p.dr, p.df)
        for f in fdcs:
            reach = max(reach, f.d)
        for r in rics:
            reach = max(reach, r.delta_r, r.delta_f)
        pad = reach + 1
        dense = _DenseInput(u, lo - pad - reach, hi + pad)

        def bounds_at(t: Tick) -> tuple[int, int]:
            low, high = 0, 1
            for p in bdcs:
                if dense.all_one(t - p.dr, t - p.dr + p.mr):
                    low = 1
                if dense.all_zero(t - p.df, t - p.df + p.mf):
                    high = 0
            for f in fdcs:
                bit = dense.at(t - f.d)
                low = max(low, bit)
                high = min(high, bit)
            return low, high

        self.low = [0] * self.n
        self.high = [0] * self.n
        for i in range(self.n):
            self.low[i], self.high[i] = bounds_at(lo + i)

        head0 = head1 = tail0 = tail1 = True
        for t in range(lo - pad, lo):
            low, high = bounds_at(t)
            head0 = head0 and low == 0
            head1 = head1 and high == 1
        for t in range(hi + 1, hi + pad + 1):
            low, high = bounds_at(t)
            tail0 = tail0 and low == 0
            tail1 = tail1 and high == 1
        self.head_ok = (head0, head1)
        self.tail_ok = (tail0, tail1)

        self.rise_ok = [True] * self.n
        self.fall_ok = [True] * self.n
        for i in range(1, self.n):
            t = lo + i
            for r in rics:
                if not dense.all_one(t - r.delta_r, t - r.delta_r + r.mu_r):
                    self.rise_ok[i] = False
                if not dense.all_zero(t - r.delta_f, t - r.delta_f + r.mu_f):
                    self.fall_ok[i] = False

        self.rise_hold = max((a.delta_r for a in aics), default=0)
        self.fall_hold = max((a.delta_f for a in aics), default=0)


def iter_solutions(u: Signal, expr: CondExpr, grid: GridConfig) -> Iterator[Signal]:
    """Yield every admissible output on the grid in lexicographic order
    of its bit vector (tick lo first, 0 before 1)."""
    ctx = _Prepared(u, expr, grid)
    n = ctx.n
    low, high = ctx.low, ctx.high
    rise_ok, fall_ok = ctx.rise_ok, ctx.fall_ok
    cap = ctx.max_switches
    bits = [0] * n

    def rec(i: int, prev: int, f1: int, f0: int, nsw: int) -> Iterator[Signal]:
        if i == n:
            if ctx.tail_ok[prev]:
                switches = tuple(
                    ctx.lo + j for j in range(1, n) if bits[j] != bits[j - 1]
                )
                yield Signal(bits[0], switches)
            return
        for b in (0, 1):
            if b < low[i] or b > high[i]:
                continue
            if i <= f1 and b == 0:
                continue
            if i <= f0 and b == 1:
                continue
            nf1, nf0, ns = f1, f0, nsw
            if i == 0:
                if not ctx.head_ok[b]:
                    continue
            elif b != prev:
                ns = nsw + 1
                if cap is not None and ns > cap:
                    continue
                if b == 1:
                    if not rise_ok[i]:
                        continue
                    nf1 = i + ctx.rise_hold
                else:
                    if not fall_ok[i]:
                        continue
                    nf0 = i + ctx.fall_hold
            bits[i] = b
            yield from rec(i + 1, b, nf1, nf0, ns)

    return rec(0, 0, -1, -1, 0)


def enumerate_solutions(u: Signal, expr: CondExpr, grid: GridConfig) -> list[Signal]:
    """All admissible outputs on the grid, in deterministic order."""
    return list(iter_solutions(u, expr, grid))


def solution_count(u: Signal, expr: CondExpr, grid: GridConfig) -> int:
    """Exact |solutions| on the grid, in time linear in the horizon.

    Dynamic program over (current bit, remaining forced-1 ticks,
    remaining forced-0 ticks, capped switch count); equivalent to the
    DFS but immune to exponential blowup, which makes emptiness checks
    cheap inside sweeps and witness searches.
    """
    ctx = _Prepared(u, expr, grid)
    n = ctx.n
    cap = ctx.max_switches
    # state: (bit, rem1, rem0, switches or -1 when uncapped) -> count
    states: dict[tuple[int, int, int, int], int] = {}
    for b in (0, 1):
        if ctx.head_ok[b] and ctx.low[0] <= b <= ctx.high[0]:
            states[(b, 0, 0, 0 if cap is not None else -1)] = 1
    for i in range(1, n):
        nxt: dict[tuple[int, int, int, int], int] = {}
        lo_i, hi_i = ctx.low[i], ctx.high[i]
        for (prev, r1, r0, sw), cnt in states.items():
            for b in (0, 1):
                if b < lo_i or b > hi_i:
                    continue
                if r1 > 0 and b == 0:
                    continue
                if r0 > 0 and b == 1:
                    continue
                n1, n0, nsw = max(r1 - 1, 0), max(r0 - 1, 0), sw
                if b != prev:
                    if cap is not None:
                        nsw = sw + 1
                        if nsw > cap:
                            continue
                    if b == 1:
                        if not ctx.rise_ok[i]:
                            continue
                        n1 = ctx.rise_hold
                    else:
                        if not ctx.fall_ok[i]:
                            continue
                        n0 = ctx.fall_hold
                key = (b, n1, n0, nsw)
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
        if not states:
            return 0
    return sum(
        cnt for (b, _r1, _r0, _sw), cnt in states.items() if ctx.tail_ok[b]
    )


def free_tick_count(u: Signal, expr: CondExpr, grid: GridConfig) -> int:
    """Ticks the pointwise bounds leave undetermined; 2**result bounds the
    solution count for purely pointwise (BDC/FDC) expressions."""
    ctx = _Prepared(u, expr, grid)
    return sum(1 for i in range(ctx.n) if ctx.low[i] < ctx.high[i])


# -- inconsistency witnesses ------------------------------------------------


def _pulse_trains(anchor: Tick, last: Tick, max_switches: int) -> Iterator[Signal]:
    """Deterministic pool of candidate inputs: pulse trains anchored at
    `anchor`, switches within [anchor, last], smallest first, both
    polarities."""
    if last < anchor:
        return
    room = last - anchor

    def emit(times: tuple[Tick, ...]) -> Iterator[Signal]:
        yield Signal(0, times)
        yield Signal(1, times)

    for w in range(1, min(10, room) + 1):
        yield from emit((anchor, anchor + w))
    if max_switches >= 4:
        top = min(6, room)
        for span in range(3, 3 * top + 1):
            for w1 in range(1, top + 1):
                for g in range(1, top + 1):
                    w2 = span - w1 - g
                    if not 1 <= w2 <= top:
                        continue
                    t = anchor
                    times = (t, t + w1, t + w1 + g, t + w1 + g + w2)
                    if times[-1] <= last:
                        yield from emit(times)
    if max_switches >= 6:
        top = min(4, room)
        for total in range(5, 5 * top + 1):
            for w1 in range(1, top + 1):
                for g1 in range(1, top + 1):
                    for w2 in range(1, top + 1):
                        for g2 in range(1, top + 1):
                            w3 = total - w1 - g1 - w2 - g2
                            if not 1 <= w3 <= top:
                                continue
                            t = anchor
                            times = (
                                t,
                                t + w1,
                                t + w1 + g1,
                                t + w1 + g1 + w2,
                                t + w1 + g1 + w2 + g2,
                                t + w1 + g1 + w2 + g2 + w3,
                            )
                            if times[-1] <= last:
                                yield from emit(times)


def _squeeze_trains(expr: CondExpr, anchor: Tick, last: Tick) -> Iterator[Signal]:
    """Parameter-directed candidates: trains of minimal forcing pulses.

    A window pair forces one output switch per input pulse of width
    mr + 1 separated by gaps of width mf + 1, so repeating that shape and
    then parking the input drains whatever slack an output-hold
    constraint might otherwise hide in.  Emitted per window atom, both
    polarities, shortest trains first.
    """
    seen = set()
    room = last - anchor
    for a in expr.atoms:
        if not isinstance(a, BdcParams):
            continue
        for first, second, init in (
            (a.mr + 1, a.mf + 1, 0),
            (a.mf + 1, a.mr + 1, 1),
        ):
            period = first + second
            for k in range(1, room // period + 1):
                times = []
                t = anchor
                for _ in range(k):
                    times.append(t)
                    times.append(t + first)
                    t += period
                times.append(t)
                sig = Signal(init, tuple(times))
                if sig not in seen:
                    seen.add(sig)
                    yield sig


def find_empty_witness(
    expr: CondExpr, grid: GridConfig, max_input_switches: int = 6
) -> Signal | None:
    """Search for an input whose solution set on the grid is empty.

    Inputs are drawn from the parameter-directed squeeze trains and then
    a deterministic pool of pulse trains with at most
    `max_input_switches` switches; the first witness is returned, or
    None when every candidate admits a solution.
    """
    reach = 0
    for a in expr.atoms:
        if isinstance(a, BdcParams):
            reach = max(reach, a.dr, a.df)
        elif isinstance(a, FdcParams):
            reach = max(reach, a.d)
        elif isinstance(a, RicParams):
            reach = max(reach, a.delta_r, a.delta_f)
    anchor = max(0, grid.lo)
    last = grid.hi - reach - 1
    for u in _squeeze_trains(expr, anchor, last):
        if solution_count(u, expr, grid) == 0:
            return u
    for u in _pulse_trains(anchor, last, max_input_switches):
        if solution_count(u, expr, grid) == 0:
            return u
    return None
