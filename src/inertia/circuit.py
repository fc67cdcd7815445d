"""Gate-level simulation with explicit delay elements.

A gate is a zero-delay truth table feeding one delay element; its name
doubles as its output net.  Every delay is the deterministic inertial
transfer driven by a BdcParams window pair (mu = m, delta = d): memories
filter pulses shorter than the memory, and a fixed delay is the window
with zero memory, a pure shift.  Feedback is legal only through delays
that look back at least one tick, which makes the tick-by-tick fixed
point unique.  The simulator works on switch lists: a gate's output can
only move where its table output switched a window bound earlier, so
cost follows the number of switches, not the tick distance, and results
are exact and bit-reproducible regardless of gate listing order.

Envelope propagation pushes lower/upper signal pairs through the same
netlist conservatively (per-gate corner enumeration, no cross-net
correlation), for acyclic netlists only.
"""

import bisect
import heapq
from dataclasses import dataclass
from itertools import product

from .conditions import BdcParams, bdc_max_solution, bdc_min_solution, require_cc
from .signals import Signal, Tick, switch_walk

MAX_GATE_ARITY = 8


class NetlistError(ValueError):
    """Structurally invalid netlist, stimuli or simulation request."""


# -- delay model ----------------------------------------------------------------


@dataclass(frozen=True)
class BridcDelay:
    """Deterministic bounded/inertial delay driven by BdcParams (mu = m,
    delta = d); memories > 0 swallow pulses shorter than the memory."""

    params: BdcParams

    def __post_init__(self):
        require_cc(self.params)

    @property
    def min_latency(self) -> int:
        p = self.params
        return min(p.dr - p.mr, p.df - p.mf)


class FixedDelay(BridcDelay):
    """Pure shift by d ticks: the window pair BdcParams(0, d, 0, d)."""

    def __init__(self, d: int):
        if d < 0:
            raise NetlistError(f"fixed delay must be >= 0, got {d}")
        super().__init__(BdcParams(0, d, 0, d))

    @property
    def d(self) -> int:
        return self.params.dr

    def __repr__(self):
        return f"FixedDelay({self.d})"


def delay_to_dict(model: BridcDelay) -> dict:
    if isinstance(model, FixedDelay):
        return {"kind": "fixed", "d": model.d}
    return {"kind": "bridc", **model.params.as_dict()}


def delay_from_dict(obj: dict) -> BridcDelay:
    if not isinstance(obj, dict):
        raise NetlistError(f"a delay must be an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "fixed":
        return FixedDelay(int(obj["d"]))
    if kind == "bridc":
        return BridcDelay(BdcParams.from_dict(obj))
    raise NetlistError(f"unknown delay kind in {obj!r}")


# -- netlist ----------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """Truth table plus output delay; the gate name is its output net.

    Table indexing is most-significant-bit-first over `inputs`: the row
    for input bits (b0, b1, ...) is table[b0 << (k-1) | ... | b_{k-1}].
    """

    name: str
    inputs: tuple[str, ...]
    table: tuple[int, ...]
    delay: BridcDelay

    def __post_init__(self):
        if not isinstance(self.inputs, tuple):
            object.__setattr__(self, "inputs", tuple(self.inputs))
        if not isinstance(self.table, tuple):
            object.__setattr__(self, "table", tuple(self.table))
        k = len(self.inputs)
        if k > MAX_GATE_ARITY:
            raise NetlistError(f"gate {self.name!r} has {k} inputs, max is {MAX_GATE_ARITY}")
        if len(self.table) != 1 << k:
            raise NetlistError(
                f"gate {self.name!r} needs a table of {1 << k} entries, "
                f"got {len(self.table)}"
            )
        if any(v not in (0, 1) for v in self.table):
            raise NetlistError(f"gate {self.name!r} table entries must be 0/1")

    def eval_bits(self, bits) -> int:
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return self.table[idx]


@dataclass(frozen=True)
class Netlist:
    inputs: tuple[str, ...]
    gates: tuple[Gate, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.inputs, tuple):
            object.__setattr__(self, "inputs", tuple(self.inputs))
        if not isinstance(self.gates, tuple):
            object.__setattr__(self, "gates", tuple(self.gates))
        if not isinstance(self.outputs, tuple):
            object.__setattr__(self, "outputs", tuple(self.outputs))
        driven = list(self.inputs) + [g.name for g in self.gates]
        seen = set()
        for net in driven:
            if net in seen:
                raise NetlistError(f"net {net!r} driven more than once")
            seen.add(net)
        for g in self.gates:
            for net in g.inputs:
                if net not in seen:
                    raise NetlistError(f"gate {g.name!r} reads undriven net {net!r}")
        for net in self.outputs:
            if net not in seen:
                raise NetlistError(f"output net {net!r} is undriven")
        cycle = _find_cycle(self.gates, zero_latency_only=True)
        if cycle:
            raise NetlistError(
                "zero-delay cycle through gates " + " -> ".join(cycle)
            )

    @property
    def has_feedback(self) -> bool:
        return _find_cycle(self.gates, zero_latency_only=False) is not None


def _find_cycle(gates, zero_latency_only: bool) -> list[str] | None:
    by_name = {g.name: g for g in gates}
    deps: dict[str, list[str]] = {}
    for g in gates:
        if zero_latency_only and g.delay.min_latency > 0:
            deps[g.name] = []
        else:
            deps[g.name] = [n for n in g.inputs if n in by_name]
    state: dict[str, int] = {}
    stack: list[str] = []

    def visit(n: str) -> list[str] | None:
        state[n] = 1
        stack.append(n)
        for m in deps[n]:
            if state.get(m, 0) == 1:
                return stack[stack.index(m):] + [m]
            if state.get(m, 0) == 0:
                found = visit(m)
                if found:
                    return found
        stack.pop()
        state[n] = 2
        return None

    for g in sorted(deps):
        if state.get(g, 0) == 0:
            found = visit(g)
            if found:
                return found
    return None


def _topo_gates(gates, zero_latency_only: bool) -> list[Gate]:
    """Deterministic topological order (name-sorted Kahn)."""
    by_name = {g.name: g for g in gates}
    deps = {}
    for g in gates:
        if zero_latency_only and g.delay.min_latency > 0:
            deps[g.name] = set()
        else:
            deps[g.name] = {n for n in g.inputs if n in by_name}
    order = []
    remaining = dict(deps)
    while remaining:
        ready = sorted(n for n, d in remaining.items() if not d)
        if not ready:
            raise NetlistError("cycle survived validation")  # defensive
        for n in ready:
            order.append(by_name[n])
            del remaining[n]
        for d in remaining.values():
            d.difference_update(ready)
    return order


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


def _gate_from_dict(g: dict) -> Gate:
    name = str(g["name"])
    try:
        table = tuple(int(v) for v in g["table"])
        delay = delay_from_dict(g["delay"])
    except ValueError as exc:  # bad numbers, delay bounds or kind
        raise NetlistError(f"gate {name!r}: {exc}") from None
    return Gate(name, tuple(str(i) for i in g["inputs"]), table, delay)


def netlist_from_dict(obj: dict) -> Netlist:
    try:
        gates = tuple(_gate_from_dict(g) for g in obj["gates"])
        return Netlist(
            inputs=tuple(str(i) for i in obj["inputs"]),
            gates=gates,
            outputs=tuple(str(o) for o in obj["outputs"]),
        )
    except (KeyError, TypeError) as exc:
        raise NetlistError(f"malformed netlist object: {exc}") from exc


# -- simulation ---------------------------------------------------------------


def _prehistory(n: Netlist, inputs: dict[str, Signal]) -> dict[str, int]:
    """Constant fixed point of the zero-delay network at t -> -inf.

    Delays preserve constants, so the prehistory solves v[g] = table(v).
    Computed by parallel sweeps from an all-zero gate state; refusing to
    settle means the feedback has no (reachable) constant prehistory.
    """
    vals = {net: sig.initial for net, sig in inputs.items()}
    for g in n.gates:
        vals[g.name] = 0
    for _ in range(2 * len(n.gates) + 4):
        new = {g.name: g.eval_bits([vals[i] for i in g.inputs]) for g in n.gates}
        if all(vals[k] == v for k, v in new.items()):
            return vals
        vals.update(new)
    raise NetlistError("feedback does not settle to a constant prehistory")


def simulate(
    n: Netlist, inputs: dict[str, Signal], horizon: tuple[Tick, Tick]
) -> dict[str, Signal]:
    """Exact simulation; returns every net restricted to [lo, hi].

    Each gate keeps the switch list of its zero-delay table output y.  A
    rise of y at s can raise the output only at s + dr, a fall only at
    s + df; these candidate ticks run in (tick, zero-latency topological
    rank) order, so a gate reading a zero-latency driver sees that
    driver's switch at the same tick first.  At a candidate tick t the
    output rises (falls) when y held 1 (0) over [t - d, t - d + m].  Two
    flips of y in one tick cancel, as a dense sweep never sees them.
    Starting from the exact constant prehistory, the result does not
    depend on where the horizon or the first stimulus lies.
    """
    lo, hi = horizon
    if lo > hi:
        raise NetlistError(f"empty horizon [{lo}, {hi}]")
    missing = [net for net in n.inputs if net not in inputs]
    if missing:
        raise NetlistError(f"missing stimuli for inputs: {missing}")
    extra = [net for net in inputs if net not in n.inputs]
    if extra:
        raise NetlistError(f"stimuli for unknown inputs: {extra}")

    pre = _prehistory(n, inputs)
    order = _topo_gates(n.gates, zero_latency_only=True)
    readers: dict[str, list[int]] = {net: [] for net in pre}
    for r, g in enumerate(order):
        for net in set(g.inputs):
            readers[net].append(r)
    val = dict(pre)  # every net's value at the tick being processed
    y = [pre[g.name] for g in order]  # the prehistory is a fixed point
    y_sw: list[list[Tick]] = [[] for _ in order]
    x_sw: dict[str, list[Tick]] = {net: [] for net in pre}
    heap = [(t, -1, net) for net, s in inputs.items() for t in s.switches if t <= hi]
    heapq.heapify(heap)

    while heap:
        t, r, net = heapq.heappop(heap)
        if r >= 0:
            p = order[r].delay.params
            level = 1 - val[net]
            d, m = (p.dr, p.mr) if level else (p.df, p.mf)
            ys = y_sw[r]
            k = bisect.bisect_right(ys, t - d)
            if pre[net] ^ (k & 1) != level or (k < len(ys) and ys[k] <= t - d + m):
                continue
        val[net] ^= 1
        x_sw[net].append(t)
        for h in readers[net]:
            g = order[h]
            bit = g.eval_bits([val[i] for i in g.inputs])
            if bit == y[h]:
                continue
            y[h] = bit
            ys = y_sw[h]
            if ys and ys[-1] == t:
                ys.pop()
                continue
            ys.append(t)
            p = g.delay.params
            c = t + (p.dr if bit else p.df)
            if c <= hi:
                heapq.heappush(heap, (c, h, g.name))

    out: dict[str, Signal] = {}
    for net, sw in x_sw.items():
        k = bisect.bisect_right(sw, lo)
        out[net] = Signal(pre[net] ^ (k & 1), tuple(sw[k:]))
    return out


# -- envelope propagation ------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """Pointwise bracket low <= high on a net's admissible waveforms."""

    low: Signal
    high: Signal

    def __post_init__(self):
        if not self.low.leq(self.high):
            raise NetlistError("envelope needs low <= high pointwise")

    @classmethod
    def exact(cls, s: Signal) -> "Envelope":
        return cls(s, s)


def _table_envelope(g: Gate, envs: list[Envelope]) -> Envelope:
    """Corner enumeration: extremes of the table over all input bit
    combinations consistent with the input envelopes, per segment."""
    k = len(envs)
    sigs = [e.low for e in envs] + [e.high for e in envs]

    def extremes(bits) -> tuple[int, int]:
        ranges = [range(a, b + 1) for a, b in zip(bits[:k], bits[k:])]
        vals = {g.eval_bits(combo) for combo in product(*ranges)}
        return min(vals), max(vals)

    lo0, hi0 = extremes([s.initial for s in sigs])
    lo_sw, hi_sw = [], []
    lo_val, hi_val = lo0, hi0
    for t, bits in switch_walk(*sigs):
        lv, hv = extremes(bits)
        if lv != lo_val:
            lo_sw.append(t)
            lo_val = lv
        if hv != hi_val:
            hi_sw.append(t)
            hi_val = hv
    return Envelope(Signal(lo0, tuple(lo_sw)), Signal(hi0, tuple(hi_sw)))


def envelope_propagate(
    n: Netlist, input_envelopes: dict[str, Envelope]
) -> dict[str, Envelope]:
    """Conservative per-net envelopes through an acyclic netlist.

    Every delay is interpreted through its bounded-delay parameters, so
    the result brackets every admissible behavior (per gate; cross-net
    correlation is deliberately ignored).
    """
    if n.has_feedback:
        raise NetlistError("envelope propagation requires an acyclic netlist")
    missing = [net for net in n.inputs if net not in input_envelopes]
    if missing:
        raise NetlistError(f"missing envelopes for inputs: {missing}")
    extra = [net for net in input_envelopes if net not in n.inputs]
    if extra:
        raise NetlistError(f"envelopes for unknown inputs: {extra}")

    envs: dict[str, Envelope] = dict(input_envelopes)
    for g in _topo_gates(n.gates, zero_latency_only=False):
        stage = _table_envelope(g, [envs[i] for i in g.inputs])
        p = g.delay.params
        envs[g.name] = Envelope(
            bdc_min_solution(stage.low, p), bdc_max_solution(stage.high, p)
        )
    return envs
