"""Earlier gate-transfer kernels, kept as the test reference.

`pointwise` merges the operands' switch lists by sorting `t * k + i`
codes and regrouping them by tick; `bridc_det_output` builds the rise
and fall window signals, asserts their order and bisects from one to
the other.  The library's one-pass kernels must give the same signals
and, for `pointwise`, evaluate the combiner on the same table indices.
"""

from bisect import bisect_right

from inertia.conditions import BdcParams, require_cc
from inertia.signals import Signal, SignalError, _evaluated, window_and, window_or


def pointwise(fn, *signals: Signal) -> Signal:
    """Combine signals with a bit function applied at every tick, by one
    merged walk over their sorted `t * k + i` codes."""
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
    # t * k + i orders by tick, then operand; the switch lists are
    # already sorted runs, so the sort only merges them
    codes = [t * k + i for i, s in enumerate(signals) for t in s.switches]
    codes.sort()
    codes.append((codes[-1] if codes else 0) + k)  # a later tick closes the last one
    bit = [1 << (k - 1 - i) for i in range(k)]
    base = codes[0] - codes[0] % k  # t * k for the tick being collected
    switches = []
    for code in codes:
        i = code - base
        if i >= k:  # the first switch of a later tick: the last one is done
            new = memo.get(ix)
            if new is None:
                new = memo[ix] = _evaluated(fn, ix, k)
            if new != val:
                switches.append(base // k)
                val = new
            i = code % k
            base = code - i
        ix ^= bit[i]
    return Signal._trusted(initial, tuple(switches))


def bridc_det_output(u: Signal, p: BdcParams) -> Signal:
    """The deterministic inertial output for input u: each output switch
    is the awaited window's first switch after the last one."""
    require_cc(p)
    rise = window_and(u, p.dr, p.mr)  # 1 where the output must be 1
    fall = window_or(u, p.df, p.mf)  # 0 where the output must be 0
    assert rise.leq(fall), "rise and fall windows overlap under CC"
    awaited = (rise.switches, fall.switches)  # by the output's value
    val, k, out = u.initial, 0, []
    while k < len(awaited[val]):
        out.append(awaited[val][k])
        val ^= 1
        k = bisect_right(awaited[val], out[-1])
    return Signal._trusted(u.initial, tuple(out))
