"""The VCD writer as it was before it wrote the change section window by
window, kept as the test reference.

It gathers every switch of every net into one dict of per-tick lists
and sorts the ticks once, so its memory follows the whole dump.  The
library's `emit_vcd` must write the same bytes.
"""

from inertia.signals import Signal, Tick
from inertia.waveio import RunConfig, _vcd_id, writable, writable_name


def reference_vcd(signals: dict[str, Signal], cfg: RunConfig = RunConfig()) -> str:
    names = sorted(signals)
    start = min(
        [0] + [s.switches[0] for s in signals.values() if s.switches]
    )
    offset = writable(-start, "a VCD tick offset")
    for name in names:  # a net's last switch is its latest
        writable_name(name)
        ticks = signals[name].switches
        if ticks:
            writable(ticks[-1] + offset, f"net {name!r}: a VCD timestamp")

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

    changes: dict[Tick, list[str]] = {}
    for name in names:  # sorted, so same-tick changes come out name-sorted
        sig = signals[name]
        rise, fall = f"1{ids[name]}", f"0{ids[name]}"
        # the change after an odd and after an even number of switches
        odd, even = (fall, rise) if sig.initial else (rise, fall)
        for t in sig.switches[0::2]:
            changes.setdefault(t, []).append(odd)
        for t in sig.switches[1::2]:
            changes.setdefault(t, []).append(even)
    for t in sorted(changes):
        lines.append(f"#{t + offset}")
        lines.extend(changes[t])
    return "\n".join(lines) + "\n"
