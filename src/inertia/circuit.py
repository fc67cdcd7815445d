"""Gate-level simulation with explicit delay elements.

A gate is a zero-delay truth table feeding one delay element; its name
doubles as its output net.  Every delay is the deterministic inertial
transfer driven by a BdcParams window pair (mu = m, delta = d): memories
filter pulses shorter than the memory, and a fixed delay is the window
with zero memory, a pure shift.  Feedback is legal only through delays
that look back at least one tick, which makes the tick-by-tick fixed
point unique.  One linear walk over the strongly connected components
of the read graph orders the gates and finds the loops, for netlist
checks (counting the reads of zero-latency gates only), envelopes and
the simulator.  The simulator works on switch lists: a gate on no loop
gets its whole trace at once and only loops run event by event, copying
the periods they repeat while their outside inputs hold still, so cost
follows the number of switches, not the tick distance, and results are
exact and bit-reproducible regardless of gate listing order.

Envelope propagation pushes lower/upper signal pairs through the same
netlist conservatively (per gate, the table's extremes over the boxes of
input bits that the envelopes allow, with no cross-net correlation), for
acyclic netlists only.  `conditions.json_fields` reads a netlist's JSON:
no stray key, and every net name a JSON string.
"""

from bisect import bisect_left, bisect_right
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import islice

from .conditions import (
    ATOM_FIELDS,
    BdcParams,
    FdcParams,
    bdc_max_solution,
    bdc_min_solution,
    bridc_det_output,
    json_fields,
    require_cc,
)
from .signals import Signal, Tick, Value, pointwise, shown

MAX_GATE_ARITY = 8
MAX_LOOP_SWITCHES = 10**7  # a loop that would write more is refused, not run out of memory


class NetlistError(ValueError):
    """Structurally invalid netlist, stimuli or simulation request."""


# -- delay model ----------------------------------------------------------------


class BridcDelay(Value):
    """Deterministic bounded/inertial delay driven by BdcParams (mu = m,
    delta = d); memories > 0 swallow pulses shorter than the memory."""

    __slots__ = _fields = ("params",)

    def __init__(self, params: BdcParams):
        require_cc(params)
        self._set(params)

    @property
    def min_latency(self) -> int:
        p = self.params
        return min(p.dr - p.mr, p.df - p.mf)


class FixedDelay(BridcDelay):
    """Pure shift by d ticks: the window pair BdcParams(0, d, 0, d)."""

    __slots__ = ()

    def __init__(self, d: int):
        try:  # the FDC atom's range: a fixed delay is >= 0
            super().__init__(BdcParams(0, FdcParams(d).d, 0, d))
        except ValueError as exc:
            raise NetlistError(str(exc)) from None

    @property
    def d(self) -> int:
        return self.params.dr

    def __repr__(self):
        return f"FixedDelay({self.d})"


def delay_to_dict(model: BridcDelay) -> dict:
    if isinstance(model, FixedDelay):
        return {"kind": "fixed", "d": model.d}
    return {"kind": "bridc", **model.params.as_dict()}


_DELAY_FIELDS = {"fixed": ATOM_FIELDS["fdc"], "bridc": ATOM_FIELDS["bdc"]}


def delay_from_dict(obj: dict) -> BridcDelay:
    try:
        kind, *values = json_fields(obj, _DELAY_FIELDS, "a delay", "delay")
    except ValueError as exc:
        raise NetlistError(str(exc)) from None
    return FixedDelay(*values) if kind == "fixed" else BridcDelay(BdcParams(*values))


# -- netlist ----------------------------------------------------------------


class Gate(Value):
    """Truth table plus output delay; the gate name is its output net.

    Table indexing is most-significant-bit-first over `inputs`: the row
    for input bits (b0, b1, ...) is table[b0 << (k-1) | ... | b_{k-1}].
    """

    __slots__ = _fields = ("name", "inputs", "table", "delay")

    def __init__(self, name: str, inputs: tuple, table: tuple, delay: BridcDelay):
        inputs, table = tuple(inputs), tuple(table)  # tuple() returns a tuple as it is
        k = len(inputs)
        if k > MAX_GATE_ARITY:
            raise NetlistError(f"gate {shown(name)} has {k} inputs, max is {MAX_GATE_ARITY}")
        if len(table) != 1 << k:
            raise NetlistError(
                f"gate {shown(name)} needs a table of {1 << k} entries, got {len(table)}"
            )
        if any(v not in (0, 1) for v in table):
            raise NetlistError(f"gate {shown(name)} table entries must be 0/1")
        self._set(name, inputs, table, delay)

    def eval_bits(self, bits) -> int:
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return self.table[idx]


class Netlist(Value):
    __slots__ = _fields = ("inputs", "gates", "outputs")

    def __init__(self, inputs: tuple, gates: tuple, outputs: tuple):
        inputs, gates, outputs = tuple(inputs), tuple(gates), tuple(outputs)
        driven = list(inputs) + [g.name for g in gates]
        seen = set()
        for net in driven:
            if net in seen:
                raise NetlistError(f"net {shown(net)} driven more than once")
            seen.add(net)
        for g in gates:
            for net in g.inputs:
                if net not in seen:
                    raise NetlistError(f"gate {shown(g.name)} reads undriven net {shown(net)}")
        for net in outputs:
            if net not in seen:
                raise NetlistError(f"output net {shown(net)} is undriven")
        _gate_order(gates, zero_latency_only=True)
        self._set(inputs, gates, outputs)


def _reads(g: Gate, zero_latency_only: bool) -> tuple:
    """The nets g reads; under zero_latency_only none when its output lags them."""
    return () if zero_latency_only and g.delay.min_latency > 0 else g.inputs


def _components(gates, zero_latency_only: bool = False) -> list[tuple[list[Gate], bool]]:
    """The strongly connected components of the read graph, each with
    whether it is a loop (of several gates, or of one reading itself) and
    listed after every component it reads: Tarjan's walk from the gates in
    name order, so that the listing changes nothing, on an explicit stack
    so that a long chain needs no recursion."""
    by_name = {g.name: g for g in gates}
    reads = {g.name: _reads(g, zero_latency_only) for g in gates}
    num, low = {}, {}  # when the walk met each gate (len(gates) once listed); least reached
    stack, comps = [], []
    for root in sorted(by_name):
        if root in num:
            continue
        num[root] = low[root] = len(num)
        stack.append(root)
        walk = [(root, iter(reads[root]))]
        while walk:
            v, it = walk[-1]
            for w in it:
                if w in num:
                    if num[w] < low[v]:
                        low[v] = num[w]
                elif w in by_name:  # a gate not met yet: walk on from it
                    num[w] = low[w] = len(num)
                    stack.append(w)
                    walk.append((w, iter(reads[w])))
                    break
            else:
                walk.pop()
                if walk and low[v] < low[walk[-1][0]]:
                    low[walk[-1][0]] = low[v]
                if low[v] == num[v]:  # v is the first of its component met
                    comp = []
                    while not comp or w != v:
                        w = stack.pop()
                        num[w] = len(by_name)
                        comp.append(by_name[w])
                    comps.append((comp, len(comp) > 1 or v in reads[v]))
    return comps


def _gate_order(gates, zero_latency_only: bool) -> list[Gate]:
    """The gates, each after the gates it reads (see `_components`).
    Gates on a loop or reading one each read another, so walking from the
    smallest along its first such input closes a loop, raised in reads
    order from its smallest name as `x -> y -> x`: at most 8 names, of at
    most 130 characters in all, before `... (n gates)`."""
    comps = _components(gates, zero_latency_only)
    if not any(loop for _, loop in comps):
        return [comp[0] for comp, _ in comps]
    pending: set[str] = set()  # the gates on a loop or reading one
    for comp, loop in comps:
        if loop or not pending.isdisjoint(_reads(comp[0], zero_latency_only)):
            pending.update(g.name for g in comp)
    by_name = {g.name: g for g in gates}
    walk: dict[str, None] = {}  # the gates walked, in order
    name = min(pending)
    while name not in walk:
        walk[name] = None
        name = next(net for net in by_name[name].inputs if net in pending)
    loop = list(walk)
    loop = loop[loop.index(name):]
    first = loop.index(min(loop))
    loop = loop[first:] + loop[:first]
    ring = [n if len(n) <= 40 else shown(n, 20) for n in loop[:8]]
    if len(loop) <= 8 and len(" -> ".join(ring + ring[:1])) <= 130:
        ring += ring[:1]
    else:  # at most 130 characters of names, so that the message stays one short line
        while len(" -> ".join(ring)) > 130:
            ring.pop()
        ring.append(f"... ({len(loop)} gates)")
    kind = "zero-delay cycle" if zero_latency_only else "cycle"
    raise NetlistError(f"{kind} through gates {' -> '.join(ring)}")


def netlist_to_dict(n: Netlist) -> dict:
    return {
        "inputs": list(n.inputs),
        "gates": [
            {
                "name": g.name,
                "inputs": list(g.inputs),
                "table": list(g.table),
                "delay": delay_to_dict(g.delay),
            }
            for g in n.gates
        ],
        "outputs": list(n.outputs),
    }


_GATE_FIELDS = {"name": str, "inputs": [str], "table": [int], "delay": object}
_NETLIST_FIELDS = {"inputs": [str], "gates": list, "outputs": [str]}


def _gate_from_dict(g: dict) -> Gate:
    try:
        name, inputs, table, delay = json_fields(g, _GATE_FIELDS, "a gate")
        delay = delay_from_dict(delay)
    except ValueError as exc:  # named by the gate, once its name reads
        where = ("netlist" if not isinstance(g, dict) else
                 f"gate {shown(g['name'])}" if type(g.get("name")) is str else "a netlist gate")
        raise NetlistError(f"{where}: {exc}") from None
    return Gate(name, tuple(inputs), tuple(table), delay)


def netlist_from_dict(obj: dict) -> Netlist:
    """The netlist of a JSON object; each bad shape raises a NetlistError naming it."""
    try:
        inputs, gates, outputs = json_fields(obj, _NETLIST_FIELDS, "a netlist")
    except ValueError as exc:
        raise NetlistError(f"netlist: {exc}") from None
    return Netlist(tuple(inputs), tuple(map(_gate_from_dict, gates)), tuple(outputs))


# -- simulation ---------------------------------------------------------------


def _check_inputs(n: Netlist, given: dict, what: str) -> None:
    """Refuse `given` unless it has exactly one entry per netlist input."""
    known = set(n.inputs)  # not the tuple: a scan per entry is quadratic
    for fault, nets in ((f"missing {what} for inputs", [i for i in n.inputs if i not in given]),
                        (f"{what} for unknown inputs", [i for i in given if i not in known])):
        if nets:
            more = f", ... ({len(nets)} inputs)" if len(nets) > 3 else ""
            raise NetlistError(f"{fault}: {', '.join(map(shown, nets[:3]))}{more}")


def _cut(s: Signal, hi: Tick) -> Signal:
    """s without its switches after hi."""
    k = bisect_right(s.switches, hi)
    return s if k == len(s.switches) else Signal._trusted(s.initial, s.switches[:k])


def _transfer(g: Gate, traces: dict[str, Signal], hi: Tick) -> Signal:
    """The trace of a gate on no loop, in one piece: the table image u of
    its inputs' traces through its delay, cut at hi.  A parity table (XOR
    or XNOR of k >= 2 inputs) switches where an odd number of inputs do,
    so u switches on the symmetric difference of their switch sets."""
    table, ins = g.table, [traces[net] for net in g.inputs]
    if len(set(table)) == 1:  # a constant image, gates of no inputs included
        return Signal._trusted(table[0], ())
    if len(ins) > 1 and all(v == ix.bit_count() & 1 ^ table[0] for ix, v in enumerate(table)):
        odd = set()
        for s in ins:
            odd.symmetric_difference_update(s.switches)
        u = Signal._trusted(g.eval_bits([s.initial for s in ins]), tuple(sorted(odd)))
    else:
        u = pointwise(lambda *bits: g.eval_bits(bits), *ins)
    p = g.delay.params  # a shift when both memories are 0, or for an image that never switches
    x = u.translate(p.dr) if p.mr == p.mf == 0 or not u.switches else bridc_det_output(u, p)
    return _cut(x, hi)


def _event_loop(gates: list[Gate], traces: dict, hi: Tick) -> None:
    """Run one feedback loop event by event up to hi, with the traces of
    the nets it reads from outside as stimuli; add its gates' traces.

    Delays preserve constants, so the prehistory solves v[g] = table(v),
    each outside net at its trace's initial value.  Sweeps from all zeros
    update the gates in place, in name order, until one changes nothing;
    a loop that does not settle in 2n + 4 sweeps of its n gates is
    refused.  Of several constant states, the first reached is taken.

    Nets get ids, external nets first (in name order), then gates in
    zero-latency topological rank.  Each gate keeps the switches of its
    zero-delay table output y and its table index, into which a net's
    flip XORs one mask (all of the net's input positions).  A rise of y
    at s can raise the output only at s + dr, a fall only at s + df; these
    candidates and each external net's next switch sit on a heap keyed by
    tick * nets + id, so a gate sees a zero-latency driver's switch at the
    same tick first.  At a candidate tick t the output rises (falls) when
    y held 1 (0) over [t - d, t - d + m].  Two flips of y in one tick
    cancel, as a dense sweep never sees them.

    Periodic stretches are copied, not run.  The anchor is the first gate
    to switch, and again after each external switch; a gate that switches
    in a period switches in every period, so it follows the trace, not
    the listing.  When the anchor is about to switch at t, and no other
    gate has yet at t, the loop's state is its gates' outputs and y's
    switches in [t - dmax, t) relative to t (dmax: the largest rise or
    fall bound).  Every pending candidate comes from those switches and a
    check is a pure function of them and the outputs (a stale candidate
    changes nothing), so while the external nets hold still, equal states
    at two ticks repeat the trace between them.  Brent's cycle finding
    keeps one saved state.  On a match, the whole periods before the next
    external switch and hi are written at once, and y's recent switches
    and the heap move on by them (a period flips each y an even number of
    times, so y's parity holds).  A copy past MAX_LOOP_SWITCHES is refused.
    """
    stims = sorted({net for g in gates for net in g.inputs} - {g.name for g in gates})
    gates = _gate_order(gates, zero_latency_only=True)
    names = stims + [g.name for g in gates]
    ident = {net: i for i, net in enumerate(names)}
    nets, n_in = len(names), len(stims)
    first = shown(min(names[n_in:]))  # names the loop, whatever the listing
    val0 = [traces[net].initial for net in stims] + [0] * len(gates)
    idx = [0] * nets  # each gate's table index under the current values
    table: list[tuple[int, ...]] = [()] * nets
    dr, df, mr, mf = [0] * nets, [0] * nets, [0] * nets, [0] * nets
    readers: list[list[tuple[int, int]]] = [[] for _ in names]
    for i, g in enumerate(gates, n_in):
        k = len(g.inputs)
        masks: dict[int, int] = {}
        for pos, net in enumerate(g.inputs):
            j = ident[net]
            masks[j] = masks.get(j, 0) | 1 << (k - 1 - pos)
        for j, mask in masks.items():
            readers[j].append((i, mask))
            if val0[j]:
                idx[i] |= mask
        table[i] = g.table
        p = g.delay.params
        dr[i], df[i], mr[i], mf[i] = p.dr, p.df, p.mr, p.mf

    order = sorted(range(n_in, nets), key=names.__getitem__)
    for _ in range(2 * len(gates) + 4):  # settle the prehistory
        settled = True
        for i in order:
            if table[i][idx[i]] != val0[i]:
                val0[i] ^= 1
                settled = False
                for h, mask in readers[i]:
                    idx[h] ^= mask
        if settled:
            break
    else:
        raise NetlistError(
            f"the loop through gate {first} does not settle to a constant prehistory")

    val = list(val0)  # every net's value at the tick being processed
    y = list(val0)  # the prehistory is a fixed point
    y_sw: list[list[Tick]] = [[] for _ in names]
    x_sw: list[list[Tick]] = [[] for _ in names]
    feeds = [iter(traces[net].switches[1:]) for net in stims]  # each cut at hi
    heap = [sw[0] * nets + i for i, sw in enumerate(traces[net].switches for net in stims) if sw]
    heapify(heap)
    dmax = max(dr + df)
    saved, since, seen, power, anchor, tick, moved = None, 0, 0, 1, None, None, True

    while heap:
        t, i = divmod(heappop(heap), nets)
        if i < n_in:
            c = next(feeds[i], None)
            if c is not None:
                heappush(heap, c * nets + i)
            moved = True  # so the next gate to switch starts the search over
        else:
            d, m = (df[i], mf[i]) if val[i] else (dr[i], mr[i])
            ys = y_sw[i]
            s = t - d
            k = bisect_right(ys, s)
            # y must hold the other level than the output over [s, s + m]
            if val0[i] ^ (k & 1) == val[i] or (k < len(ys) and ys[k] <= s + m):
                continue
            if moved:  # start over from here, comparing states at i's switches
                saved, since, seen, power, moved, anchor = None, t, 0, 1, False, i
            elif i == anchor and t != tick:  # no loop gate has switched at t yet
                state = (val[n_in:], [[s - t for s in ys[bisect_left(ys, t - dmax):]]
                                      for ys in y_sw[n_in:]])
                per, j = t - since, 0
                if state == saved:  # the whole periods before the next outside switch and hi
                    j = (min([e // nets - 1 for e in heap if e % nets < n_in] + [hi]) - t) // per
                if j:
                    shift = j * per
                    grow = [len(xs) - bisect_left(xs, since) for xs in x_sw]
                    if sum(map(len, x_sw)) + j * sum(grow) > MAX_LOOP_SWITCHES:
                        raise NetlistError(
                            f"the loop through gate {first} switches more than"
                            f" {MAX_LOOP_SWITCHES} times before the horizon ends")
                    for xs, g in zip(x_sw, grow):  # each copy reads the one before it
                        xs += map(per.__add__, islice(xs, len(xs) - g, len(xs) + (j - 1) * g))
                    for ys in y_sw:
                        k = bisect_left(ys, t - dmax)
                        ys[k:] = [s + shift for s in ys[k:]]
                    heap[:] = [e if e % nets < n_in else e + shift * nets for e in heap
                               if e % nets < n_in or e // nets + shift <= hi]
                    heapify(heap)
                    t += shift
                else:
                    seen += 1
                    if seen == power:
                        saved, since, seen, power = state, t, 0, 2 * power
            tick = t
        val[i] ^= 1
        x_sw[i].append(t)
        for h, mask in readers[i]:
            ix = idx[h] ^ mask
            idx[h] = ix
            bit = table[h][ix]
            if bit == y[h]:
                continue
            y[h] = bit
            ys = y_sw[h]
            if ys and ys[-1] == t:
                ys.pop()
                continue
            ys.append(t)
            c = t + (dr[h] if bit else df[h])
            if c <= hi:
                heappush(heap, c * nets + h)

    for i, g in enumerate(gates, n_in):
        traces[g.name] = Signal._trusted(val0[i], tuple(x_sw[i]))


def simulate(
    n: Netlist, inputs: dict[str, Signal], horizon: tuple[Tick, Tick]
) -> dict[str, Signal]:
    """Exact simulation; returns every net restricted to [lo, hi].

    The strongly connected components of the read graph are taken each
    after those it reads: a gate on no loop gets its whole trace at once
    (`_transfer`), and a loop, of several gates or of one reading itself,
    settles its constant prehistory from the initial values of the traces
    it reads and runs event by event (`_event_loop`), copying the periods
    it repeats while its outside inputs hold still.  A trace starts from
    its constant before the first stimulus, so the result does not depend
    on where the horizon or the first stimulus lies.
    """
    lo, hi = horizon
    if type(lo) is not int or type(hi) is not int:
        name, value = ("hi", hi) if type(lo) is int else ("lo", lo)
        raise NetlistError(f"{name} must be an integer, got {shown(value)}")
    if lo > hi:
        raise NetlistError("empty horizon: need lo <= hi")
    _check_inputs(n, inputs, "stimuli")

    traces = {net: _cut(sig, hi) for net, sig in inputs.items()}
    for comp, loop in _components(n.gates):
        if loop:
            _event_loop(comp, traces, hi)
        else:
            traces[comp[0].name] = _transfer(comp[0], traces, hi)

    out: dict[str, Signal] = {}
    for net in [*inputs, *(g.name for g in n.gates)]:
        sig = traces[net]
        k = bisect_right(sig.switches, lo)
        out[net] = Signal._trusted(sig.initial ^ (k & 1), sig.switches[k:])
    return out


# -- envelope propagation ------------------------------------------------------


class Envelope(Value):
    """Pointwise bracket low <= high on a net's admissible waveforms."""

    __slots__ = _fields = ("low", "high")

    def __init__(self, low: Signal, high: Signal):
        if not low.leq(high):
            raise NetlistError("envelope needs low <= high pointwise")
        self._set(low, high)

    @classmethod
    def exact(cls, s: Signal) -> "Envelope":
        return cls(s, s)


@lru_cache(maxsize=1024)
def _extremes(table: tuple) -> list[tuple[int, int]]:
    """(min, max) of a truth table over each box of input bits, indexed by
    the box's key: the sum of (low_i + high_i) * 3**(k-1-i), so trit 1
    marks an unknown input.  A box with an unknown input is the union of
    the two boxes that fix it; the list has 3**k entries."""
    if len(table) == 1:
        return [(table[0], table[0])]
    half = len(table) // 2  # input 0 is the high bit of the table index
    zero, one = _extremes(table[:half]), _extremes(table[half:])
    return zero + [(a & c, b | d) for (a, b), (c, d) in zip(zero, one)] + one


def _table_envelope(g: Gate, envs: list[Envelope]) -> tuple[Signal, Signal]:
    """The least and greatest table output over the boxes the envelopes
    allow: one walk over the ticks where bounds switch, each switch
    moving the box's key by its input's weight, and one lookup per tick."""
    ext = _extremes(g.table)
    k = len(envs)
    key, moves = 0, {}  # tick -> the key's move there
    for j, s in enumerate(b for e in envs for b in (e.low, e.high)):
        w = 3 ** (k - 1 - j // 2)
        key += s.initial * w
        w = -w if s.initial else w  # the first switch leaves the initial value
        for t in s.switches:
            moves[t] = moves.get(t, 0) + w
            w = -w
    lv, hv = lo0, hi0 = ext[key]
    lo_sw, hi_sw = [], []
    for t in sorted(moves):
        key += moves[t]
        lo, hi = ext[key]
        if lo != lv:
            lo_sw.append(t)
            lv = lo
        if hi != hv:
            hi_sw.append(t)
            hv = hi
    return Signal._trusted(lo0, tuple(lo_sw)), Signal._trusted(hi0, tuple(hi_sw))


def envelope_propagate(
    n: Netlist, input_envelopes: dict[str, Envelope]
) -> dict[str, Envelope]:
    """Conservative per-net envelopes through an acyclic netlist.

    Every delay is interpreted through its bounded-delay parameters, so
    the result brackets every admissible behavior (per gate; cross-net
    correlation is deliberately ignored).
    """
    try:
        gates = _gate_order(n.gates, zero_latency_only=False)
    except NetlistError as exc:
        raise NetlistError(
            f"envelope propagation requires an acyclic netlist: {exc}"
        ) from None
    _check_inputs(n, input_envelopes, "envelopes")

    envs: dict[str, Envelope] = dict(input_envelopes)
    for g in gates:
        low, high = _table_envelope(g, [envs[i] for i in g.inputs])
        p = g.delay.params
        envs[g.name] = Envelope(bdc_min_solution(low, p), bdc_max_solution(high, p))
    return envs
