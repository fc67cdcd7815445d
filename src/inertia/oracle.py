"""Brute-force ground truth for delay-condition solution sets.

Every condition atom is a per-tick constraint on the output x that reads
the input only through the window u(t - reach .. t), plus hold counters
carried from earlier ticks.  Two tables state these rules once.
`_tick_rule`, per expression and kept on it once built, says what each
window lets x(t) be and switch to: one byte per window, ANDed from each
atom's `_atom_table`, a cache of at most 4096 keyed on kind and fields.
`_Steps`, per pair of holds, moves one output's state (its bit and
forced ticks left) one tick under a byte.
Exact procedures read them:

* Grid enumeration.  Candidate outputs are bit vectors on a bounded tick
  horizon, constant outside it (extending their two end bits).  `_walk`
  packs the input's values on the horizon, widened by reach + 1 ticks
  each side, into one int and reads each tick's window off it with a
  shift and a mask, once per input of the last 256.  The counting DP
  counts a list of expressions on one input: it reads each tick's byte
  as it steps the output states, once for the expressions that share
  holds and have read the same bytes so far, and gives 0 at the first
  tick where none survives, with no list of moves built.  The DFS
  enumerator and the bounds read the same walk listed by `_listed`.
  Beyond the horizon plus reach + 1 ticks both the input and any
  candidate are constant, so the constraints repeat verbatim and
  checking that range decides them for all time; edge-triggered
  constraints are vacuous outside the horizon because candidates cannot
  switch there.  When the expression licenses every edge and holds
  nothing, the ticks are independent and `pointwise_bounds` reads the
  least and greatest solutions straight off the tick rule.
* The emptiness decider `find_empty_witnesses`, one breadth-first
  search for all expressions of a list that share reach and holds, each
  one bit ("lane") of the ints that carry lane sets.  Per expression it
  returns the first input, by emptying tick, then prehistory, then bits
  from tick 0, that admits no output, or proves that every input admits
  one.  It moves each output value's least hold count by one lookup in
  `_HoldSteps`, a table derived from the step table, and refuses a group
  past MAX_SEARCH_STATES states; sweeps pass it slices of their lists.

This module deliberately shares none of the run-based window code it is
used to cross-check: only Signal plumbing (construction and pointwise
sampling) is common.
"""

from bisect import bisect_right
from functools import lru_cache
from typing import Iterator

from .conditions import CondExpr, _set_rule
from .signals import Signal, Tick, Value, _set_key, shown

MAX_SPAN = 80
MAX_REACH = 12  # the tick tables have 2**(MAX_REACH + 1) entries
MAX_SEARCH_STATES = 100_000
MAX_ENUMERATED = 100_000


class HorizonError(ValueError):
    """Horizon too large (or malformed) for exhaustive enumeration."""


class GridConfig(Value):
    """Enumeration window: candidate switches confined to (lo, hi]."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: Tick, hi: Tick):
        if type(lo) is not int or type(hi) is not int:
            name, value = ("hi", hi) if type(lo) is int else ("lo", lo)
            raise HorizonError(f"{name} must be an integer, got {shown(value)}")
        if lo >= hi:
            raise HorizonError("need lo < hi")
        if hi - lo > MAX_SPAN:  # not named: the span may be too long to write
            raise HorizonError(f"horizon spans more than the {MAX_SPAN}-tick limit")
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_key(self, (lo, hi))


_set_lo, _set_hi = GridConfig._setters(*GridConfig._fields)


def _held(w: int, d: int, m: int, v: int) -> bool:
    """Whether window w has u(t - d .. t - d + m) all v."""
    span = ((1 << (m + 1)) - 1) << (d - m)
    return w & span == span * v


@lru_cache(maxsize=4096)
def _atom_table(reach: int, kind: str, fields: tuple[int, ...]) -> int:
    """One window atom's bytes over the windows of `reach`, as an int of byte w at bits
    8w .. 8w + 7; its key holds no record, and a sweep meets each key many times."""
    if kind == "fdc":  # x(t) = u(t - d) is the BDC (0, d, 0, d)
        kind, fields = "bdc", (0, fields[0], 0, fields[0])
    mr, dr, mf, df = fields  # for RIC, mu_r, delta_r, mu_f, delta_f
    table = 0
    for w in range(1 << (reach + 1)):
        rise, fall = _held(w, dr, mr, 1), _held(w, df, mf, 0)
        # BDC bounds x(t) and licenses every edge; RIC licenses edges, x(t) free
        code = 12 | (not rise) | (not fall) << 1 if kind == "bdc" else 3 | fall << 2 | rise << 3
        table |= code << 8 * w
    return table


# by reach, the table with every byte 15
_EVERY = [int.from_bytes(b"\x0f" * (2 << r), "little") for r in range(MAX_REACH + 1)]


def _tick_rule(expr: CondExpr) -> tuple[int, bytes, int, int]:
    """Every atom's constraint on the output x at one tick t, stated once
    and kept on the expression: (reach, rule, rise_hold, fall_hold).

    Byte w of rule applies when the window holds u(t - k) in bit k of w,
    for k = 0..reach.  Its bit b says whether x(t) may be b, and its bit
    2 + b whether x may switch to b at t.  rise_hold and fall_hold are
    the longest hold after a rise and after a fall, which `_Steps` enforces.
    """
    if (rule := expr._rule) is not None:
        return rule
    reach = expr.reach
    if reach > MAX_REACH:
        raise HorizonError(
            f"condition reads the input further back than the {MAX_REACH}-tick limit"
        )
    table = _EVERY[reach]
    rise_hold = fall_hold = 0
    for a in expr.atoms:
        if a.kind == "aic":
            rise_hold = max(rise_hold, a.delta_r)
            fall_hold = max(fall_hold, a.delta_f)
        else:
            table &= _atom_table(reach, a.kind, a._key)
    # x may switch to a value only where it may take it: bit 2 + b keeps
    # only what bit b, shifted up by 2, allows; // 5 makes every byte 3
    table &= table << 2 | _EVERY[reach] // 5
    _set_rule(expr, (reach, table.to_bytes(2 << reach, "little"), rise_hold, fall_hold))
    return expr._rule


class _Steps(dict):
    """The output-hold rule, stated once: key state << 4 | byte maps to
    the states one output may take at the next tick under that
    `_tick_rule` byte, bit 0 first.  A state packs forced << 1 | bit:
    the output's bit and the ticks it is still forced to hold it.
    Staying spends one forced tick.  A switch needs no forced tick left
    and a licensed edge, then starts the new value's hold.  A key is
    worked out on its first lookup."""

    def __init__(self, rise_hold: int, fall_hold: int):
        self.hold = (fall_hold, rise_hold)  # by the bit switched to

    def __missing__(self, key: int) -> tuple[int, ...]:
        m, state = key & 15, key >> 4
        b = state & 1
        forced = state >> 1
        nxt = [None, None]  # by the next bit
        if m >> b & 1:  # stay, one forced tick less
            nxt[b] = state - 2 if forced else state
        if not forced and m >> 3 - b & 1:  # switch to 1 - b and start its hold
            nxt[1 - b] = self.hold[1 - b] << 1 | 1 - b
        self[key] = tuple(s for s in nxt if s is not None)
        return self[key]


_steps = lru_cache(maxsize=64)(_Steps)
# the states, free of holds, of the values set in a 2-bit mask
_STATES_AT = ((), (0,), (1,), (0, 1))


def _walk(
    u: Signal, exprs: list[CondExpr], grid: GridConfig
) -> tuple[list[tuple[int, bytes, int, int]], tuple[int, ...]]:
    """The window walk that the grid procedures read: (rules, windows).
    rules are the expressions' `_tick_rule`s, and windows[j] is the window
    of tick lo - 1 + j for the largest reach R among them, through tick hi
    + R + 1: bit k holds u(t - k), so its low r + 1 bits are the window of
    reach r.  u is constant outside the grid, so the first window is that
    of every earlier tick, where x holds its first value, and the last that
    of every later one.  An input switch off the grid is refused here,
    before anything is read."""
    lo, hi = grid.lo, grid.hi
    switches = u.switches
    if switches and not (lo <= switches[0] and switches[-1] <= hi):
        i = 0 if switches[0] < lo else bisect_right(switches, hi)
        # the tick is named only when short enough to write
        at = f" at tick {switches[i]}" if abs(switches[i]) < 10**40 else ""
        raise HorizonError(f"input switch {i + 1} of {len(switches)}{at} leaves the grid")
    rules = [_tick_rule(expr) for expr in exprs]
    r = max(rules)[0] if rules else 0  # the largest reach
    return rules, _windows(u.initial, switches, lo, hi, r)


@lru_cache(maxsize=256)
def _windows(initial: int, switches: tuple[int, ...], lo: int, hi: int, r: int) -> tuple[int, ...]:
    """`_walk`'s windows of reach r, read off the input's values on ticks
    lo - r - 1 .. top = hi + r + 1 in one int, tick top - s at bit s."""
    top = hi + r + 1
    bits = ((1 << top - lo + r + 2) - 1) * initial
    for t in switches:  # u flips on ticks t .. top
        bits ^= (1 << top - t + 1) - 1
    full = (1 << r + 1) - 1
    return tuple([bits >> s & full for s in range(top - lo + 1, -1, -1)])


def _listed(u: Signal, expr: CondExpr, grid: GridConfig) -> tuple[_Steps, int, list[int], int]:
    """The walk as a list for the DFS and the bounds: (steps, head,
    moves, tail).  moves[i] is the `_tick_rule` byte of tick lo + i.
    head and tail set bit b when x may hold b at every tick before lo,
    and at every tick after hi."""
    [(_, rule, rise_hold, fall_hold)], windows = _walk(u, [expr], grid)
    n = grid.hi - grid.lo + 2  # windows[1:n] are the grid's ticks
    tail = 3
    for w in windows[n:]:
        tail &= rule[w]
    moves = [rule[w] for w in windows[1:n]]
    return _steps(rise_hold, fall_hold), rule[windows[0]] & 3, moves, tail


def _bits_signal(lo: Tick, bits: list[int]) -> Signal:
    """The output whose value at tick lo + i is bits[i], constant outside."""
    return Signal._trusted(
        bits[0], tuple([lo + j for j in range(1, len(bits)) if bits[j] != bits[j - 1]])
    )


def iter_solutions(u: Signal, expr: CondExpr, grid: GridConfig) -> Iterator[Signal]:
    """Yield every admissible output on the grid in lexicographic order
    of its bit vector (tick lo first, 0 before 1)."""
    steps, head, moves, tail = _listed(u, expr, grid)
    n = len(moves)
    bits = [0] * n

    def rec(i: int, states: tuple[int, ...]) -> Iterator[Signal]:
        for state in states:  # bit 0 first
            bits[i] = state & 1
            if i + 1 < n:
                yield from rec(i + 1, steps[state << 4 | moves[i + 1]])
            elif tail >> (state & 1) & 1:
                yield _bits_signal(grid.lo, bits)

    return rec(0, _STATES_AT[head & moves[0]])


def enumerate_solutions(u: Signal, expr: CondExpr, grid: GridConfig) -> list[Signal]:
    """All admissible outputs on the grid, in deterministic order.  The
    set is counted first and refused above MAX_ENUMERATED members."""
    count = solution_count(u, expr, grid)
    if count > MAX_ENUMERATED:
        raise HorizonError(
            f"the grid has {count} solutions, limit is {MAX_ENUMERATED} to list"
        )
    return list(iter_solutions(u, expr, grid))


def solution_counts(u: Signal, exprs: list[CondExpr], grid: GridConfig) -> list[int]:
    """Exact |solutions| on the grid of each expression, in time linear in
    the horizon: a dynamic program that walks the DFS's steps, counting
    the outputs in each state.  The expressions that share holds and have
    read the same `_tick_rule` bytes so far step as one group, which splits
    where its members read different bytes and gives them all 0 at the
    first tick where no output survives; each member reads its own bytes
    past the grid."""
    rules, windows = _walk(u, exprs, grid)
    n = grid.hi - grid.lo + 2  # windows[1:n] are the grid's ticks
    reach = len(windows) - n - 1  # the largest
    wide: list[bytes] = []
    groups: dict[tuple[int, int, int], list[int]] = {}
    todo = []  # (index of the next window, state -> outputs in it, members, steps)
    for i, (r, rule, rise_hold, fall_hold) in enumerate(rules):
        # the rule read through the widest window repeats every 2 << r bytes
        wide.append(rule := rule * (1 << reach - r))
        # x cannot switch at lo: it holds a value allowed there and before
        key = rise_hold, fall_hold, rule[windows[0]] & rule[windows[1]] & 3
        if (members := groups.get(key)) is None:
            groups[key] = members = []
            states = dict.fromkeys(_STATES_AT[key[2]], 1)
            todo.append((2, states, members, _steps(rise_hold, fall_hold)))
        members.append(i)
    counts = [0] * len(rules)
    while todo:
        j, states, members, steps = todo.pop()
        rule, many = wide[members[0]], len(members) > 1
        for j in range(j, n):
            m = rule[w := windows[j]]
            if many and (read := [wide[i][w] for i in members]).count(m) < len(read):
                split: dict[int, list[int]] = {}
                for i, b in zip(members, read):
                    split.setdefault(b, []).append(i)
                todo += [(j, states, part, steps) for part in split.values()]
                break
            nxt: dict[int, int] = {}
            for state, cnt in states.items():
                for k in steps[state << 4 | m]:
                    nxt[k] = nxt.get(k, 0) + cnt
            if not (states := nxt):
                break
        else:
            ends = [0, 0]  # outputs that end at 0, at 1
            for state, cnt in states.items():
                ends[state & 1] += cnt
            for i in members:
                tail = 3
                for w in windows[n:]:
                    tail &= wide[i][w]
                counts[i] = ends[0] * (tail & 1) + ends[1] * (tail >> 1)
    return counts


def solution_count(u: Signal, expr: CondExpr, grid: GridConfig) -> int:
    """`solution_counts` of this expression alone."""
    return solution_counts(u, [expr], grid)[0]


def free_tick_count(u: Signal, expr: CondExpr, grid: GridConfig) -> int:
    """Ticks the pointwise bounds leave undetermined; 2**result bounds the
    solution count for purely pointwise (BDC/FDC) expressions."""
    return sum(1 for m in _listed(u, expr, grid)[2] if m & 3 == 3)


def pointwise_bounds(
    u: Signal, expr: CondExpr, grid: GridConfig
) -> tuple[Signal, Signal] | None:
    """The least and greatest admissible outputs on the grid, or None
    when none is admissible, for an expression that licenses every edge
    and sets no holds (BDC and FDC atoms).

    Such an expression only bounds x(t) tick by tick, so its solutions
    on the grid are exactly the outputs that take an allowed value at
    every tick, the ends also allowed before and after the grid: every
    output between the two returned ones, 2**k of them when they differ
    at k ticks.
    """
    _, rule, rise_hold, fall_hold = _tick_rule(expr)
    if any(m >> 2 != m & 3 for m in rule) or rise_hold or fall_hold:
        raise ValueError(f"{expr} licenses edges or holds the output")
    _, head, moves, tail = _listed(u, expr, grid)
    allowed = [m & 3 for m in moves]
    allowed[0] &= head
    allowed[-1] &= tail
    if not all(allowed):
        return None
    return (
        _bits_signal(grid.lo, [a & 1 ^ 1 for a in allowed]),
        _bits_signal(grid.lo, [a >> 1 for a in allowed]),
    )


# -- emptiness decider -------------------------------------------------------


class _HoldSteps(dict):
    """The decider's move on the hold counts under (rise_hold, fall_hold):
    key (k0 + 1 << width | k1 + 1) << 4 | byte maps to the next counts
    packed the same way, or to -1 when no output survives.  kb is the
    least forced count of an output at b, taken from the `_Steps`
    table, and kb + 1 is 0 when no output sits at b.  A key is
    worked out on its first lookup: a search meets few of the 16 << 2 *
    width keys, and for long holds there are too many to list."""

    def __init__(self, rise_hold: int, fall_hold: int):
        self.steps = _steps(rise_hold, fall_hold)
        self.width = (max(rise_hold, fall_hold) + 1).bit_length()

    def __missing__(self, key: int) -> int:
        width, m = self.width, key & 15
        least = [0, 0]  # by value, its least count + 1; 0 for none
        for b, shift in ((0, 4 + width), (1, 4)):
            k = key >> shift & (1 << width) - 1
            if k:
                for state in self.steps[(k - 1 << 1 | b) << 4 | m]:
                    v, c = state & 1, (state >> 1) + 1
                    least[v] = min(least[v] or c, c)
        self[key] = least[0] << width | least[1] or -1
        return self[key]


_hold_steps = lru_cache(maxsize=32)(_HoldSteps)


# by byte m, a table that writes "1" for m, "0" for any other byte: a lane
# column so translated and reversed reads as the int of lanes that hold m
_LANE_BIT = [bytes(49 if b == m else 48 for b in range(256)) for m in range(16)]


def find_empty_witnesses(exprs: list[CondExpr]) -> list[Signal | None]:
    """For each expression, its first input that admits no output, or None
    when every input admits one: first by the tick at which the output set
    empties, then by prehistory value, then by the bits at ticks 0, 1, ...

    One breadth-first search, tick by tick after either constant
    prehistory, decides the expressions sharing (reach, rise_hold,
    fall_hold), each one bit ("lane") of the ints that carry lane sets.  A
    state pairs the last `reach` input bits with, per output value, the
    fewest ticks an output at it is still forced to hold (it can do all
    that one with more can), or -1 for none.  Entries (state, lanes, parent
    entry, input bit) are expanded in list order, bit 0 first, and a lane
    enters a state once, so each lane meets its entries in its own
    breadth-first order, and its first emptying entry traces back to its
    witness.  A lane that closes has no emptying input: once an input
    settles, some surviving output holds its value for good.  A group whose
    distinct states pass MAX_SEARCH_STATES (for one expression, its own)
    is refused.  Memory grows with the list: a sweep passes slices of it.
    """
    rules = [_tick_rule(expr) for expr in exprs]
    found: list[Signal | None] = [None] * len(rules)
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, (reach, _, rise_hold, fall_hold) in enumerate(rules):
        groups.setdefault((reach, rise_hold, fall_hold), []).append(i)
    for key, members in groups.items():
        joined = b"".join([rules[i][1] for i in members])
        for lane, w in _lane_search(*key, joined, len(members)):
            found[members[lane]] = w
    return found


def find_empty_witness(expr: CondExpr) -> Signal | None:
    """`find_empty_witnesses` of this expression alone."""
    return find_empty_witnesses([expr])[0]


def _lane_search(reach: int, rise_hold: int, fall_hold: int, joined: bytes, n: int) -> list:
    """(lane, witness) for each of the n lanes, their `_tick_rule` bytes
    `joined`, that an input empties.  A step takes the lanes holding each
    byte of the window's column and moves their counts by one `_HoldSteps`
    lookup."""
    steps = _hold_steps(rise_hold, fall_hold)
    size = 2 << reach
    keep = (1 << reach) - 1
    # a state packs (window bits, k0 + 1, k1 + 1) into one int, with
    # `width` bits for each count
    width = steps.width
    shift = 2 * width
    counts = (1 << shift) - 1
    columns: list = [None] * size  # by window, [(byte, lanes)], cut when first read
    # state -> [(next state, lanes, input bit)], bit 0 first after the lanes
    # emptied (next state -1) by either bit
    moves: dict[int, list[tuple[int, int, int]]] = {}
    live = (1 << n) - 1
    # (state, lanes, parent entry, input bit); entry c is the prehistory c,
    # after which both outputs are free, and reads c alone
    entries = [(keep * c << shift | 1 << width | 1, live, -1, c) for c in (0, 1)]
    seen: dict[int, int] = {}  # state -> the lanes that entered it
    emptied: list[tuple[int, Signal]] = []

    def move(state: int) -> list[tuple[int, int, int]]:
        held = (state & counts) << 4
        empty, kids = [], []
        for b in (0, 1):
            w = state >> shift << 1 | b
            if (col := columns[w]) is None:
                cut = joined[w::size]
                col = [(m, int(cut.translate(_LANE_BIT[m])[::-1], 2)) for m in set(cut)]
                columns[w] = col
            out: dict[int, int] = {}  # next counts -> lanes
            for m, at in col:
                nxt = steps[held | m]
                out[nxt] = out.get(nxt, 0) | at
            empty.append((-1, out.pop(-1, 0), b))
            kids += [((w & keep) << shift | k, at, b) for k, at in out.items()]
        moves[state] = empty + kids
        return moves[state]

    def emptying(e: int, b: int, lanes: int) -> None:
        path = [b]  # the input bits back from the one read after entry e
        while e > 1:
            _, _, e, bit = entries[e]
            path.append(bit)
        path.reverse()  # the prehistory, then the value at tick t in path[t + 1]
        w = Signal._trusted(path[0], tuple([t for t, b in enumerate(path[1:]) if b != path[t]]))
        while lanes:
            low = lanes & -lanes
            emptied.append((low.bit_length() - 1, w))
            lanes ^= low

    start = 0
    while start < len(entries) and live:
        if len(seen) > MAX_SEARCH_STATES:
            raise HorizonError(
                f"emptiness search passed {MAX_SEARCH_STATES} states; "
                f"the condition's reach or holds are too large"
            )
        end = len(entries)
        for e in range(start, end):
            state, lanes, _, _ = entries[e]
            for child, at, b in moves.get(state) or move(state):
                if (at := at & lanes & live) and (e > 1 or b == e):
                    if child < 0:
                        emptying(e, b, at)
                        live &= ~at
                    elif at := at & ~seen.get(child, 0):
                        seen[child] = seen.get(child, 0) | at
                        entries.append((child, at, e, b))
        start = end
    return emptied
