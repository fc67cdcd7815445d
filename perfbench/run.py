"""Benchmark of the `inertia` package: four workloads, one command.

    python3 perfbench/run.py --workload {trace,sim_sparse,sim_dense,verify}
                             --seed N --seconds S --trace {0,1} [--size tiny]

Run it from anywhere inside a source checkout; it imports the package
from the checkout's `src/` and exits 2 when that is missing.  Inputs are
generated from the seed.  One closed-loop client, held to one CPU,
repeats the workload's pass for about S seconds (at least two passes),
starting child processes one at a time.  Outputs are checked; every
operation that raises, exits unexpectedly or fails its output check
counts as failed.

With --trace 0 the end-to-end metrics are reported: pass time (the sum
over the pass's operations of each one's typical time), work per second,
set-up time (several fresh imports plus input builds), peak resident
memory of the program (the largest child process of one pass) and the
cold start of a small CLI command.  A repeated
time is summed up as the mean of its faster half.  Times are given at
the reference speed: each is divided by the time of a fixed pure-Python
loop run while it was measured (and, for a short one, just before and
after), and multiplied by REF_S, so that a neighbour's load on the
shared machine cancels out.
With --trace 1 the same pass alternates between plain and
traced in-process runs, and the per-layer metrics come from the traced
passes (see tracer.py); the spans are written to `.perfbench_work/`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS, Ops, run_child  # noqa: E402

ROOT = HERE.parent
SAMPLES = 12  # set-up repetitions and cold-start probes per run
MIN_SAMPLES = 5
MIN_PASSES = 2
# The reference loop: a fixed pure-Python loop, timed in chunks of
# REF_CHUNK iterations during and around every measurement (see Clock).
# Times are reported at the reference speed, where a chunk takes REF_S
# seconds (about its uncontended time on the 2-vCPU Xeon VM the benchmark
# was tuned on).
REF_CHUNK = 2_500
REF_S = 0.0002
REF_EVERY = 0.02  # seconds between chunks while an interval is timed
REF_MIN_INSIDE = 5  # fewer chunks inside an interval: use those around it too
REF_AROUND = 16  # chunks run just before and just after an interval
CLI_REPEAT = 3  # cold starts per set-up sample
CLI_PROBE = ["-m", "inertia", "consistent", "--cond", "cc",
             "--params", '{"mr":1,"dr":3,"mf":1,"df":3}']

# name -> (unit, what it should move); printed beside each traced value
PER_LAYER = {
    "cli.interpreter_s": ("s", "cli_start_s, all workloads"),
    "cli.import_s": ("s", "cli_start_s, all workloads"),
    "cli.command_s": ("s", "cli_start_s, all workloads"),
    "waveio.parse_s": ("s", "wall_s on trace"),
    "waveio.parse_switches": ("count", "exact; wall_s on trace"),
    "waveio.emit_waveforms_s": ("s", "wall_s on trace"),
    "waveio.emit_vcd_s": ("s", "wall_s on sim_dense"),
    "waveio.bytes_out": ("bytes", "wall_s on trace and sim_dense"),
    "signals.pointwise_s": ("s", "wall_s on trace"),
    "signals.leq_s": ("s", "wall_s on trace"),
    "signals.window_s": ("s", "wall_s on trace"),
    "signals.values_on_s": ("s", "wall_s on sim_sparse"),
    "signals.merged_switches": ("count", "wall_s on trace, ~0 on verify"),
    "conditions.member_s": ("s", "wall_s on trace"),
    "conditions.solve_s": ("s", "wall_s on trace"),
    "conditions.algebra_calls": ("count", "wall_s on verify"),
    "conditions.algebra_s": ("s", "wall_s on verify"),
    "oracle.solution_count_calls": ("count", "exact; wall_s on verify"),
    "oracle.solution_count_s": ("s", "wall_s on verify"),
    "oracle.setup_share": ("ratio", "wall_s on verify"),
    "oracle.iter_solutions_s": ("s", "wall_s on verify"),
    "oracle.solutions_yielded": ("count", "wall_s on verify"),
    "oracle.witness_calls": ("count", "wall_s on verify"),
    "oracle.witness_candidates": ("count", "wall_s on verify"),
    "oracle.witness_hit_ratio": ("ratio", "wall_s on verify"),
    "verify.t1_s": ("s", "wall_s on verify"),
    "verify.t14b_s": ("s", "wall_s on verify"),
    "verify.baidc_s": ("s", "wall_s on verify"),
    "verify.t45_s": ("s", "wall_s on verify"),
    "circuit.simulate_s": ("s", "wall_s on sim_sparse, less on sim_dense"),
    "circuit.gate_ticks": ("count", "units_per_s on sim_*"),
    "circuit.net_switches": ("count", "exact; wall_s on sim_dense"),
    "circuit.activity": ("ratio", "wall_s on sim_sparse"),
    "circuit.envelope_s": ("s", "wall_s on sim_sparse"),
    **{f"{layer}.self_share": ("ratio", "wall_s where it is large")
       for layer in tracer.LAYERS},
    **{f"{layer}.self_s": ("s", "wall_s where it is large") for layer in tracer.LAYERS},
    "tracing.overhead_s": ("s", "traced minus untraced in-process pass"),
}
EXACT = (
    "waveio.parse_switches", "waveio.bytes_out", "signals.merged_switches",
    "conditions.algebra_calls", "oracle.solution_count_calls",
    "oracle.solutions_yielded", "oracle.witness_calls", "oracle.witness_candidates",
    "circuit.gate_ticks", "circuit.net_switches",
)


class BenchError(Exception):
    """The checkout cannot be benchmarked (for example, no package source)."""


def load_inertia() -> dict:
    """Import the package afresh from the checkout; returns its modules."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "inertia" or m.startswith("inertia.")]:
        del sys.modules[name]
    pkg = importlib.import_module("inertia")
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported inertia from {pkg.__file__}, not the checkout")
    return {m: importlib.import_module(f"inertia.{m}") for m in tracer.LAYERS}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def fast_half(values: list[float]) -> float:
    """The mean of the faster half of `values` (the one value of a single)."""
    return statistics.fmean(sorted(values)[: max(1, len(values) // 2)])


def ref_chunk() -> float:
    """Seconds taken by one chunk of the reference loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_CHUNK):
        x = (x + i * i) % 1_000_003
    return time.perf_counter() - t0


class Clock:
    """Times intervals at the reference speed.

    The machine's cores are shared with other machines' work: for seconds
    at a time, everything here runs up to half as slow again, or slower.
    A time divided by the reference loop's time taken while it ran barely
    moves with that; a raw time does.  While an interval is timed, a
    SIGALRM every REF_EVERY seconds runs one chunk of the reference loop,
    and its time is left out of the interval.  This process and its
    children share one CPU (see main), so a chunk run while a child works
    holds the child up by just its own time.  An interval too short for
    REF_MIN_INSIDE chunks is scaled by chunks run just before and just
    after it as well.
    """

    def __init__(self):
        self.inside: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, *_):
        self.inside.append(ref_chunk())

    def around(self) -> list[float]:
        return [ref_chunk() for _ in range(REF_AROUND)]

    def start(self):
        self.before = self.around()
        self.inside = []
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)
        self.t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """The interval since `start`: raw seconds, and seconds at the
        reference speed."""
        elapsed = time.perf_counter() - self.t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        raw = elapsed - sum(self.inside)
        chunks = self.inside
        if len(chunks) < REF_MIN_INSIDE:
            chunks = self.before + chunks + self.around()
        return raw, raw * REF_S / statistics.median(chunks)


CLOCK = None  # the Clock, made in main()


def timed(fn):
    """`fn()` and the seconds it took at the reference speed."""
    CLOCK.start()
    out = fn()
    return out, CLOCK.stop()[1]


def cold_start(args: list[str], ops: Ops, what: str, repeat: int = 1) -> float:
    """Time of one cold child process, at the reference speed: the mean of
    `repeat` of them run back to back and timed as one interval, which is
    long enough to be scaled by the reference chunks run inside it."""

    def run():
        for _ in range(repeat):
            proc = run_child(args, ROOT)
            ops.expect(proc.returncode == 0, f"{what} exited {proc.returncode}")

    return timed(run)[1] / repeat


def new_setup(wl_cls, args, work: Path, ops: Ops):
    """A fresh import of the package plus an input build; returns the
    workload, the package modules and the time taken (at the reference
    speed)."""

    def build():
        mods = load_inertia()
        wl = wl_cls(ROOT, work, args.seed, args.size, ops)
        wl.setup(mods)
        return wl, mods

    (wl, mods), elapsed = timed(build)
    return wl, mods, elapsed


class Sampler:
    """Called between a pass's operations.  It times each operation of a
    pass (from one call to the next, between `begin` and `end`) at the
    reference speed, and takes a sample (set-up repetition or cold-start
    probes) about every `seconds / SAMPLES` seconds, so samples spread
    evenly over the run.  Sampling is left out of the operation times."""

    def __init__(self, seconds: float, take):
        self.interval, self.take = seconds / SAMPLES, take
        self.due, self.count = time.perf_counter(), 0
        self.ops: list[list[float]] = []  # the k-th operation of each pass
        self.timing, self.k, self.raw = False, 0, 0.0

    def begin(self):
        self.k, self.raw = 0, 0.0
        CLOCK.start()
        self.timing = True

    def end(self):
        if self.timing:
            self(restart=False)
            self.timing = False

    def __call__(self, force: bool = False, restart: bool = True):
        if self.timing:
            raw, scaled = CLOCK.stop()
            if self.k == len(self.ops):
                self.ops.append([])
            self.ops[self.k].append(scaled)
            self.k += 1
            self.raw += raw
        now = time.perf_counter()
        if force or now >= self.due:
            self.take()
            self.count += 1
            self.due = now + self.interval
        if self.timing and restart:
            CLOCK.start()

    def pass_time(self) -> float:
        """The sum over a pass's operations of each one's typical time:
        the mean of the faster half of its times.  A neighbour's load only
        ever slows an operation, and the reference speed makes up for most
        but not all of that, so the faster times are the truer ones."""
        return sum(fast_half(times) for times in self.ops)


def run_loop(seconds: float, one_pass, take, after_first=None):
    """Repeat `one_pass(sampler)` for about `seconds` (at least MIN_PASSES
    times); returns the raw pass times without the sampling in them, and
    the sampler with the operation times.  With `after_first`, sampling
    waits for the first pass to end, and `after_first()` is called then."""
    sampler = Sampler(seconds, take)
    if after_first is not None:
        sampler.due = float("inf")
    times, deadline = [], time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() + times[-1] / 2 < deadline:
        gc.collect()
        sampler.begin()
        one_pass(sampler)
        sampler.end()
        times.append(sampler.raw)
        if len(times) == 1 and after_first is not None:
            after_first()
            sampler.due = time.perf_counter()
    while sampler.count < MIN_SAMPLES:
        sampler(force=True)
    return times, sampler


def end_to_end(wl_cls, args, work: Path, ops: Ops) -> dict:
    wl, mods, first = new_setup(wl_cls, args, work, ops)
    setup_times, cli, refs = [first], [], []

    def sample():
        setup_times.append(new_setup(wl_cls, args, work, ops)[2])
        cli.append(cold_start(CLI_PROBE, ops, "cold inertia consistent", CLI_REPEAT))
        refs.append(statistics.median(CLOCK.around()))

    # The program's memory, not the harness's: the largest child process
    # before any cold-start probe.  The command workloads run the program
    # in children, so sampling waits for their first pass to end; verify
    # runs in-process, so one child runs its suites first (which also warms
    # the caches; its time counts against the run's).
    rss_kb = []

    def peak_children():
        rss_kb.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    t0 = time.perf_counter()
    if not wl.children:
        wl.child_pass()
        peak_children()
    passes, sampler = run_loop(
        args.seconds - (time.perf_counter() - t0),
        lambda sampler: wl.run_pass(None, sampler),
        sample,
        peak_children if wl.children else None,
    )
    wl.check(mods)
    wall = sampler.pass_time()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reps = f"faster half of {len(passes)} per operation"
    # name -> (value, unit, how it was taken)
    rows = {
        "wall_s": (wall, "s", f"{reps}, summed"),
        "units_per_s": (wl.units() / wall, "1/s", "units / wall_s"),
        "setup_s": (fast_half(setup_times), "s", f"faster half of {len(setup_times)}"),
        "peak_rss_mb": (rss_kb[0] / 1024, "MB", f"largest child of one pass (this "
                        f"process, not counted: {self_kb / 1024:.1f})"),
        "cli_start_s": (fast_half(cli), "s", f"faster half of {len(cli)}"),
    }
    print(f"unit of work: {wl.unit}, {wl.units()} per pass of "
          f"{len(sampler.ops)} operations")
    print(f"times at the reference speed (reference chunk {REF_S * 1e6:g} us; "
          f"measured here: median {statistics.median(refs) * 1e6:.1f} us)")
    for name, (value, unit, how) in rows.items():
        print(f"{name:<14} {value:14.6f} {unit:<4} {how}")
    lo, mid, hi = quartiles(passes)
    print(f"raw pass time  {mid:14.6f} s    median of {len(passes)} "
          f"(quartiles {lo:.6g} .. {hi:.6g})")
    if hasattr(wl, "net_switches"):
        print(f"circuit.activity {wl.net_switches / wl.units():.6f} "
              f"({wl.net_switches} net switches / {wl.units()} gate-ticks)")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in rows.items()}


def per_layer(wl_cls, args, work: Path, ops: Ops) -> dict:
    wl, mods, _ = new_setup(wl_cls, args, work, ops)
    probes = {"interpreter": ["-c", "pass"], "import": ["-c", "import inertia"], "cli": CLI_PROBE}
    cold = {what: [] for what in probes}

    def sample():
        for what, argv in probes.items():
            cold[what].append(cold_start(argv, ops, what))

    tr = tracer.Tracer(mods)
    plain, traced, aggs = [], [], []

    def pair(sampler):
        """One plain and one traced in-process pass; samples are taken in
        the plain one only."""
        wl.run_pass(mods, sampler)
        sampler.end()
        plain.append(sampler.raw)
        gc.collect()
        tr.install()
        tr.begin_pass(len(traced))
        t0 = time.perf_counter()
        try:
            wl.run_pass(mods)
        finally:
            traced.append(time.perf_counter() - t0)
            tr.uninstall()
        aggs.append(tr.end_pass())

    run_loop(args.seconds, pair, sample)
    wl.check(mods)
    work = ROOT / ".perfbench_work"
    tr.write(str(work / f"spans-{args.workload}"))

    per_pass = [derive(a) for a in aggs]
    for name in EXACT:
        seen = {p[name] for p in per_pass}
        ops.expect(len(seen) == 1, f"{name} differs between traced passes: {sorted(seen)}")
    metrics = {
        name: per_pass[0][name] if name in EXACT
        else statistics.median(p[name] for p in per_pass)
        for name in per_pass[0]
    }
    metrics["oracle.setup_share"] = setup_share(mods, tr.replay)
    ip, im, cs = (statistics.median(cold[k]) for k in ("interpreter", "import", "cli"))
    metrics["cli.interpreter_s"] = ip
    metrics["cli.import_s"] = max(im - ip, 0.0)
    metrics["cli.command_s"] = max(cs - im, 0.0)
    metrics["tracing.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(f"passes: {len(plain)} plain and {len(traced)} traced, in-process; "
          f"spans written to {work.name}/spans-{args.workload}.*")
    out = {}
    for name, (unit, moves) in PER_LAYER.items():
        value = metrics[name]
        print(f"{name:<28} {value:14.6f} {unit:<6} -> {moves}")
        out[name] = {"value": value, "unit": unit}
    return out


def derive(agg: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    s, incl, calls, c = agg["self"], agg["incl"], agg["calls"], agg["counts"]
    layers = tracer.layer_self(agg)
    total = sum(layers.values()) or 1.0
    m = {
        "waveio.parse_s": s.get("waveio.parse", 0.0),
        "waveio.parse_switches": c.get("parse_switches", 0),
        "waveio.emit_waveforms_s": s.get("waveio.emit_waveforms", 0.0),
        "waveio.emit_vcd_s": s.get("waveio.emit_vcd", 0.0),
        "waveio.bytes_out": c.get("bytes_out", 0),
        "signals.pointwise_s": s.get("signals.pointwise", 0.0),
        "signals.leq_s": s.get("signals.leq", 0.0),
        "signals.window_s": s.get("signals.window", 0.0),
        "signals.values_on_s": s.get("signals.values_on", 0.0),
        "signals.merged_switches": c.get("merged_switches", 0),
        "conditions.member_s": s.get("conditions.member", 0.0),
        "conditions.solve_s": s.get("conditions.solve", 0.0),
        "conditions.algebra_calls": calls.get("conditions.algebra", 0),
        "conditions.algebra_s": s.get("conditions.algebra", 0.0),
        "oracle.solution_count_calls": calls.get("oracle.solution_count", 0),
        "oracle.solution_count_s": s.get("oracle.solution_count", 0.0),
        "oracle.iter_solutions_s": s.get("oracle.iter_solutions", 0.0),
        "oracle.solutions_yielded": c.get("solutions_yielded", 0),
        "oracle.witness_calls": calls.get("oracle.find_empty_witness", 0),
        "oracle.witness_candidates": c.get("witness_candidates", 0),
        "oracle.witness_hit_ratio": (
            c.get("witness_hits", 0) / c["witness_candidates"]
            if c.get("witness_candidates") else 0.0
        ),
        "verify.t1_s": incl.get("verify.t1", 0.0),
        "verify.t14b_s": incl.get("verify.t14b", 0.0),
        "verify.baidc_s": incl.get("verify.baidc", 0.0),
        "verify.t45_s": incl.get("verify.t45", 0.0),
        "circuit.simulate_s": s.get("circuit.simulate", 0.0),
        "circuit.gate_ticks": c.get("gate_ticks", 0),
        "circuit.net_switches": c.get("net_switches", 0),
        "circuit.activity": (
            c["net_switches"] / c["gate_ticks"] if c.get("gate_ticks") else 0.0
        ),
        "circuit.envelope_s": s.get("circuit.envelope_propagate", 0.0),
    }
    for layer, value in layers.items():
        m[f"{layer}.self_share"] = value / total
        m[f"{layer}.self_s"] = value
    return m


def setup_share(mods: dict, sample: list[tuple]) -> float:
    """Table set-up time over total solution_count time, by replaying
    the recorded sample of calls with the untraced functions."""
    oracle = mods["oracle"]
    setup_t = count_t = 0.0
    for args in sample:
        t0 = time.perf_counter()
        oracle.free_tick_count(*args)
        t1 = time.perf_counter()
        oracle.solution_count(*args)
        setup_t += t1 - t0
        count_t += time.perf_counter() - t1
    return setup_t / count_t if count_t else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "inertia" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'inertia'}", file=sys.stderr)
        return 2
    global CLOCK
    CLOCK = Clock()
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and its children, so the reference loop
        # runs where the measured work runs, and instead of it
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Ops()
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"{args.seconds:g} s, trace {args.trace}")
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(WORKLOADS[args.workload], args, work, ops)
    except (BenchError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)  # an error may leave it set
        shutil.rmtree(work, ignore_errors=True)
    for reason in ops.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(f"failed_share {ops.failed / ops.attempted:.6f} "
          f"({ops.failed} of {ops.attempted} operations)")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
