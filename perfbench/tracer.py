"""Span tracing from outside the program.

The tracer replaces public functions of the `inertia` modules at their
module bindings (and two `Signal` methods on the class) with wrappers
that record a span per call: name, start, end, parent span and pass id.
A function imported into another module is wrapped there too, so
`inertia.verify.solution_count` and `inertia.oracle.solution_count` both
report, and a global looked up at call time (as `find_empty_witness`
does) sees the wrapper.  Spans live in compact arrays and are written
out when the run ends; per-pass aggregates (self time per span name,
call counts, work counters) are kept alongside.

A span's self time is its duration minus the time of the spans it
directly contains; a layer's self time is the sum over its spans.
"""

import json
import time
from array import array
from collections import Counter

LAYERS = ("cli", "waveio", "signals", "conditions", "oracle", "verify", "circuit")

# span name -> (module, attribute names) that it covers
SPANS = {
    "cli.main": ("cli", ("main",)),
    "waveio.parse": ("waveio", ("parse_waveforms",)),
    "waveio.emit_waveforms": ("waveio", ("emit_waveforms",)),
    "waveio.emit_vcd": ("waveio", ("emit_vcd",)),
    "signals.pointwise": ("signals", ("pointwise",)),
    "signals.window": ("signals", ("window_and", "window_or", "forward_window_and")),
    "conditions.member": (
        "conditions",
        ("fdc_member", "bdc_member", "aic_member", "ric_member", "cond_member",
         "bdc_lower", "bdc_upper"),
    ),
    "conditions.solve": (
        "conditions",
        ("bdc_min_solution", "bdc_max_solution", "bridc_det_output"),
    ),
    "conditions.algebra": (
        "conditions",
        ("cc_holds", "cc_failures", "require_cc", "bdc_jointly_solvable",
         "bdc_intersection", "bdc_union_envelope", "bdc_is_deterministic",
         "bdc_as_translation", "bdc_includes", "bdc_is_symmetrical", "bdc_compose",
         "baidc_consistent", "ric_to_aic", "bridc_consistency_cases",
         "bridc_consistent"),
    ),
    "oracle.solution_count": ("oracle", ("solution_count",)),
    "oracle.free_tick_count": ("oracle", ("free_tick_count",)),
    "oracle.iter_solutions": ("oracle", ("iter_solutions",)),
    "oracle.find_empty_witness": ("oracle", ("find_empty_witness",)),
    "circuit.simulate": ("circuit", ("simulate",)),
    "circuit.envelope_propagate": ("circuit", ("envelope_propagate",)),
    "verify.run_check": ("verify", ("run_check",)),
}
METHODS = {"signals.leq": "leq", "signals.values_on": "values_on"}

# every Nth solution_count call is kept for the setup-share replay
REPLAY_EVERY = 25


class Tracer:
    def __init__(self, mods: dict):
        self.mods = mods
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.sp_pass = array("i")
        self.stack: list[list] = []  # [span index, start, child time]
        self.pass_id = -1
        self.replay: list[tuple] = []  # sampled solution_count arguments
        self.sampling = True  # only the first traced pass is sampled
        self._restore: list[tuple] = []
        self._reset_pass()

    # -- recording ---------------------------------------------------------

    def _reset_pass(self):
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def begin_pass(self, pass_id: int):
        self.pass_id = pass_id
        self._reset_pass()

    def end_pass(self) -> dict:
        self.sampling = False
        return {
            "self": dict(self.self_s),
            "incl": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def _nid(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int):
        idx = len(self.sp_name)
        self.sp_name.append(nid)
        self.sp_parent.append(self.stack[-1][0] if self.stack else -1)
        self.sp_pass.append(self.pass_id)
        self.sp_end.append(0.0)
        start = time.perf_counter()
        self.sp_start.append(start)
        self.stack.append([idx, start, 0.0])

    def _close(self):
        end = time.perf_counter()
        idx, start, child = self.stack.pop()
        self.sp_end[idx] = end
        dur = end - start
        name = self.names[self.sp_name[idx]]
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur

    def current(self) -> str | None:
        return self.names[self.sp_name[self.stack[-1][0]]] if self.stack else None

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, pre=None, post=None):
        nid = self._nid(name)

        def traced(*args, **kwargs):
            if pre is not None:
                pre(args)
            self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if post is not None:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        nid = self._nid(name)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._open(nid)
                try:
                    item = next(it, _DONE)
                finally:
                    self._close()
                if item is _DONE:
                    return
                self.counts["solutions_yielded"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def _count(self, **kw):
        self.counts.update(kw)

    def _hooks(self, name: str):
        """(pre, post) callbacks that count work at a span's boundary."""
        count = self._count
        if name == "waveio.parse":
            return None, lambda a, r: count(
                parse_switches=sum(len(s.switches) for s in r.values())
            )
        if name in ("waveio.emit_waveforms", "waveio.emit_vcd"):
            return None, lambda a, r: count(bytes_out=len(r))
        if name == "signals.pointwise":
            return lambda a: count(
                merged_switches=len(set().union(*(s.switches for s in a[1:])))
            ), None
        if name == "signals.leq":
            return lambda a: count(
                merged_switches=len(set(a[0].switches) | set(a[1].switches))
            ), None
        if name == "oracle.solution_count":

            def pre(a):
                if self.current() == "oracle.find_empty_witness":
                    count(witness_candidates=1)
                n = self.calls["oracle.solution_count"]
                if self.sampling and n % REPLAY_EVERY == 0:
                    self.replay.append(a)

            return pre, None
        if name == "oracle.find_empty_witness":
            return None, lambda a, r: count(witness_hits=int(r is not None))
        if name == "circuit.simulate":

            def post(a, r):
                netlist, (lo, hi) = a[0], a[2]
                count(
                    gate_ticks=len(netlist.gates) * (hi - lo + 1),
                    net_switches=sum(len(r[g.name].switches) for g in netlist.gates),
                )

            return None, post
        return None, None

    def install(self):
        """Wrap every traced binding; `uninstall` puts the originals back."""
        wrappers = {}
        for name, (mod, attrs) in SPANS.items():
            for attr in attrs:
                fn = getattr(self.mods[mod], attr)
                if name == "oracle.iter_solutions":
                    wrappers[fn] = self._wrap_generator(name, fn)
                else:
                    wrappers[fn] = self._wrap(name, fn, *self._hooks(name))
        for mod in self.mods.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        sig = self.mods["signals"].Signal
        for name, attr in METHODS.items():
            fn = getattr(sig, attr)
            self._restore.append((sig, attr, fn))
            setattr(sig, attr, self._wrap(name, fn, *self._hooks(name)))
        checks = self.mods["verify"].THEOREM_CHECKS
        self._suites = dict(checks)
        for suite, fn in self._suites.items():
            checks[suite] = self._wrap(f"verify.{suite}", fn)

    def uninstall(self):
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()
        self.mods["verify"].THEOREM_CHECKS.update(self._suites)

    # -- output --------------------------------------------------------------

    def write(self, stem: str):
        """Spans as raw arrays (`<stem>.bin`) described by `<stem>.json`."""
        fields = ("sp_name", "sp_start", "sp_end", "sp_parent", "sp_pass")
        with open(stem + ".bin", "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
        layout = [
            {"field": f[3:], "typecode": getattr(self, f).typecode} for f in fields
        ]
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": len(self.sp_name), "names": self.names, "arrays": layout}, fh
            )


_DONE = object()


def layer_self(agg: dict) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for name, s in agg["self"].items():
        out[name.split(".", 1)[0]] += s
    return out
