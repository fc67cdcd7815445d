"""Dense tick-by-tick netlist simulation, kept as the test reference.

This is the simulator the library shipped before the switch-list engine:
it sweeps every tick from well before the first stimulus to the end of
the horizon, evaluating each gate's recurrence directly (a fixed delay
as a pure shift, any other delay through its rise/fall windows).  Its
cost grows with the tick distance, so it is only run on small inputs.
It settles no prehistory: it finds every constant state of the gates by
brute force and runs once from each, so a check against it holds for any
settle rule that picks a constant state, and sees one that picks none.
"""

from itertools import product

from inertia.circuit import FixedDelay, Gate, NetlistError
from inertia.signals import Signal


def constant_states(n, inputs):
    """Every constant state at t -> -inf, as a net -> value map: each of
    the 2 ** len(n.gates) gate assignments that every table maps to
    itself, with the inputs at their initial values."""
    names = [g.name for g in n.gates]
    states = []
    for bits in product((0, 1), repeat=len(names)):
        vals = {net: sig.initial for net, sig in inputs.items()}
        vals.update(zip(names, bits))
        if all(g.eval_bits([vals[i] for i in g.inputs]) == vals[g.name] for g in n.gates):
            states.append(vals)
    return states


def _zero_latency_order(n):
    """The gates, each zero-latency gate after every gate it reads:
    repeatedly take the first unplaced gate that lags its inputs or whose
    inputs are all placed.  Quadratic, and kept apart from the library's
    order so that the differential test checks that order too."""
    placed, order, rest = set(n.inputs), [], list(n.gates)
    while rest:
        g = next(
            g for g in rest
            if g.delay.min_latency > 0 or all(i in placed for i in g.inputs)
        )
        rest.remove(g)
        order.append(g)
        placed.add(g.name)
    return order


def dense_runs(n, inputs, horizon):
    """Every net of `n` restricted to `horizon`, computed tick by tick:
    one run per constant state of `n`, and none when it has none."""
    lo, hi = horizon
    if lo > hi:
        raise NetlistError(f"empty horizon [{lo}, {hi}]")
    missing = [net for net in n.inputs if net not in inputs]
    if missing:
        raise NetlistError(f"missing stimuli for inputs: {missing}")
    extra = [net for net in inputs if net not in n.inputs]
    if extra:
        raise NetlistError(f"stimuli for unknown inputs: {extra}")

    lookback = [max(g.delay.params.dr, g.delay.params.df) for g in n.gates]
    warmup = sum(b + 1 for b in lookback) + 4
    first_stim = min(
        (s.switches[0] for s in inputs.values() if s.switches), default=lo
    )
    start = min(lo, first_stim) - warmup
    return [_dense_run(n, inputs, lo, hi, start, pre) for pre in constant_states(n, inputs)]


def dense_simulate(n, inputs, horizon):
    """The one run of `n`, which must have exactly one constant state."""
    runs = dense_runs(n, inputs, horizon)
    if len(runs) != 1:
        raise NetlistError(f"{len(runs)} constant states, not one")
    return runs[0]


def _dense_run(n, inputs, lo, hi, start, pre):
    """Every net from `start`, where each holds its value in `pre`, to
    `hi`, tick by tick, and then restricted to [lo, hi]."""
    size = hi - start + 1
    xs = {net: sig.values_on(start, hi) for net, sig in inputs.items()}
    for g in n.gates:
        xs[g.name] = [0] * size
    ys = {g.name: [None] * size for g in n.gates}

    order = _zero_latency_order(n)

    def yval(g: Gate, j: int) -> int:
        if j < 0:  # a constant state is its own table image
            return pre[g.name]
        cached = ys[g.name][j]
        if cached is None:
            cached = g.eval_bits([xs[i][j] for i in g.inputs])
            ys[g.name][j] = cached
        return cached

    for i in range(size):
        for g in order:
            d = g.delay
            if isinstance(d, FixedDelay):
                xs[g.name][i] = yval(g, i - d.d)
            else:
                p = d.params
                prev = xs[g.name][i - 1] if i > 0 else pre[g.name]
                if prev == 0:
                    rise = all(
                        yval(g, j) for j in range(i - p.dr, i - p.dr + p.mr + 1)
                    )
                    xs[g.name][i] = 1 if rise else 0
                else:
                    fall = not any(
                        yval(g, j) for j in range(i - p.df, i - p.df + p.mf + 1)
                    )
                    xs[g.name][i] = 0 if fall else 1
        for g in n.gates:
            yval(g, i)

    out = {}
    base = lo - start
    for net, arr in xs.items():
        switches = [start + j for j in range(base + 1, size) if arr[j] != arr[j - 1]]
        out[net] = Signal(arr[base], tuple(switches))
    return out
