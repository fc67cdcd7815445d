"""Brute-force ground truth for delay-condition solution sets.

Every condition atom is a per-tick constraint on the output x that reads
the input only through the window u(t - reach .. t), plus hold counters
carried from earlier ticks.  `_tick_rule` states that constraint once per
expression, as bitsets over the window's values, and two exact
procedures read it:

* Grid enumeration.  Candidate outputs are bit vectors on a bounded tick
  horizon, constant outside it (extending their two end bits).  The DFS
  enumerator and the counting DP slide the window over the input's
  sampled values.  Beyond the horizon plus reach + 1 ticks both the
  input and any candidate are constant, so the constraints repeat
  verbatim and checking that range decides them for all time;
  edge-triggered constraints are vacuous outside the horizon because
  candidates cannot switch there.
* The emptiness decider `find_empty_witness`, a breadth-first search
  over all inputs that either returns a shortest input admitting no
  output or proves that every input admits one.

This module deliberately shares none of the run-based window code it is
used to cross-check: only Signal plumbing (construction and pointwise
sampling) is common.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .conditions import (
    BdcParams,
    CondExpr,
    FdcParams,
    RicParams,
)
from .signals import Signal, Tick

MAX_SPAN = 80
MAX_REACH = 12  # the tick tables have 2**(MAX_REACH + 1) entries
MAX_SEARCH_STATES = 100_000
MAX_ENUMERATED = 100_000


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


@lru_cache(maxsize=None)
def _windows_with_bit(reach: int) -> tuple[int, ...]:
    """Entry k: the bitset of windows whose bit k is 1."""
    return tuple(
        sum(1 << w for w in range(1 << (reach + 1)) if w >> k & 1)
        for k in range(reach + 1)
    )


@lru_cache(maxsize=256)
def _tick_rule(expr: CondExpr) -> tuple[int, int, int, int, int, int, int]:
    """Every atom's constraint on the output x at one tick t, stated once:
    (reach, may0, may1, rise, fall, rise_hold, fall_hold).

    Bit w of the bitsets may0, may1, rise and fall says, for the input
    window w that holds u(t - k) in bit k for k = 0..reach, whether x(t)
    may be 0, x(t) may be 1, x may rise at t and x may fall at t.  After
    a rise x stays 1 for rise_hold more ticks, after a fall 0 for
    fall_hold.
    """
    reach = expr.reach
    if reach > MAX_REACH:
        raise HorizonError(
            f"condition reads the input {reach} ticks back, limit is {MAX_REACH}"
        )
    ones = _windows_with_bit(reach)
    every = (1 << (1 << (reach + 1))) - 1

    def held(d: int, m: int, v: int) -> int:
        """The windows in which u(t - d .. t - d + m) is all v."""
        out = every
        for k in range(d - m, d + 1):
            out &= ones[k] if v else every ^ ones[k]
        return out

    may0 = may1 = rise = fall = every
    rise_hold = fall_hold = 0
    for a in expr.atoms:
        if isinstance(a, BdcParams):
            may0 &= ~held(a.dr, a.mr, 1)
            may1 &= ~held(a.df, a.mf, 0)
        elif isinstance(a, FdcParams):
            may0 &= ~held(a.d, 0, 1)
            may1 &= ~held(a.d, 0, 0)
        elif isinstance(a, RicParams):
            rise &= held(a.delta_r, a.mu_r, 1)
            fall &= held(a.delta_f, a.mu_f, 0)
        else:
            rise_hold = max(rise_hold, a.delta_r)
            fall_hold = max(fall_hold, a.delta_f)
    return reach, may0, may1, rise, fall, rise_hold, fall_hold


class _Prepared:
    """Per-(input, expression, grid) constraint tables for the DFS and DP."""

    def __init__(self, u: Signal, expr: CondExpr, grid: GridConfig):
        if u.switches and not (grid.lo <= u.switches[0] <= u.switches[-1] <= grid.hi):
            raise HorizonError(
                f"input switches {list(u.switches)} leave the grid "
                f"[{grid.lo}, {grid.hi}]"
            )
        r, may0, may1, rise, fall, self.rise_hold, self.fall_hold = _tick_rule(expr)
        lo, hi = grid.lo, grid.hi
        self.lo, self.hi = lo, hi
        self.n = n = hi - lo + 1
        self.max_switches = grid.max_switches

        # Windows at ticks lo - 1 .. hi + r + 1.  u is constant before lo,
        # so the first window is the one of every earlier tick, and the
        # last is the one of every later tick.
        full = (1 << (r + 1)) - 1
        wins = []
        w = 0
        for v in u.values_on(lo - 1 - r, hi + r + 1):
            w = (w << 1 | v) & full
            wins.append(w)
        head, body, tail = wins[r], wins[r + 1 : r + 1 + n], wins[r + 1 + n :]
        self.low = [1 - (may0 >> w & 1) for w in body]
        self.high = [may1 >> w & 1 for w in body]
        self.rise_ok = [rise >> w & 1 for w in body]
        self.fall_ok = [fall >> w & 1 for w in body]
        self.head_ok = (may0 >> head & 1, may1 >> head & 1)
        self.tail_ok = tuple(all(m >> w & 1 for w in tail) for m in (may0, may1))


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
    """All admissible outputs on the grid, in deterministic order.  The
    set is counted first and refused above MAX_ENUMERATED members."""
    count = solution_count(u, expr, grid)
    if count > MAX_ENUMERATED:
        raise HorizonError(
            f"the grid has {count} solutions, limit is {MAX_ENUMERATED} to list"
        )
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


# -- emptiness decider -------------------------------------------------------


def find_empty_witness(expr: CondExpr) -> Signal | None:
    """A shortest input that admits no output, or None when every input
    admits one.

    Breadth-first search over all inputs, one tick at a time from tick 0,
    after either constant prehistory.  A search state pairs the last
    `reach` input bits with the outputs still possible after them: for
    each output value, the fewest ticks it is still forced to hold, or
    -1 when no admissible output sits at that value.  An output with
    fewer forced ticks can do whatever one with more can, so the least
    count stands for all.  The states are finite, so the search either
    reaches an empty output set, whose input is returned, or closes,
    which proves that none is reachable.  A set that never empties
    leaves an output for every input: once the input settles, some
    surviving output can hold its value for good.
    """
    reach, may0, may1, rise, fall, rise_hold, fall_hold = _tick_rule(expr)
    keep = (1 << reach) - 1
    seen = set()
    frontier = []  # (state, prehistory value then the input bit of each tick)
    for c in (0, 1):
        w = (keep << 1 | 1) * c
        root = (w & keep, 0 if may0 >> w & 1 else -1, 0 if may1 >> w & 1 else -1)
        if root[1:] == (-1, -1):
            return Signal(c, ())
        if root not in seen:
            seen.add(root)
            frontier.append((root, (c,)))
    while frontier:
        if len(seen) > MAX_SEARCH_STATES:
            raise HorizonError(
                f"emptiness search passed {MAX_SEARCH_STATES} states; "
                f"the condition's reach or holds are too large"
            )
        nxt = []
        for (win, k0, k1), path in frontier:
            for bit in (0, 1):
                w = win << 1 | bit
                ok0, ok1 = may0 >> w & 1, may1 >> w & 1
                # stay at a value, one forced tick less; or switch from a
                # value that is free to leave, and start its hold
                n0 = k0 - (k0 > 0) if ok0 and k0 >= 0 else -1
                n1 = k1 - (k1 > 0) if ok1 and k1 >= 0 else -1
                if ok0 and k1 == 0 and fall >> w & 1:
                    n0 = fall_hold if n0 < 0 else min(n0, fall_hold)
                if ok1 and k0 == 0 and rise >> w & 1:
                    n1 = rise_hold if n1 < 0 else min(n1, rise_hold)
                if n0 < 0 and n1 < 0:
                    path += (bit,)  # path[t] is the input at tick t - 1
                    switches = [t - 1 for t in range(1, len(path)) if path[t] != path[t - 1]]
                    return Signal(path[0], tuple(switches))
                child = (w & keep, n0, n1)
                if child not in seen:
                    seen.add(child)
                    nxt.append((child, path + (bit,)))
        frontier = nxt
    return None
