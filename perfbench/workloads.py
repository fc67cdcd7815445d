"""The four benchmark workloads.

Each workload builds its inputs in `setup` through the package's public
constructors and writes the files the command line reads, runs one
`pass` of its operations (child processes one at a time, or in-process
calls), and checks the outputs of its passes in `check`.  The same pass
runs in-process for the traced run.  A pass calls its `interlude`
between operations; run.py takes samples there, outside the pass's
timing.  Failures are recorded on the shared `Ops` tally rather than
raised, so one bad output never hides the others.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import gen

CHILD_TIMEOUT_S = 60

# Trial counts that run_check reports at the default suite sizes.
EXPECTED_TRIALS = {
    "t1": 250, "t14a": 100, "t14b": 100, "t14c": 155, "t14d": 100, "t14e": 100,
    "t14f": 155, "t14g": 100, "baidc": 3875, "baidc-serial": 50, "t42": 100,
    "t45": 50625, "t47": 300,
}

# Runs the named suites and exits 1 if one fails or reports other trial
# counts than EXPECTED_TRIALS.
VERIFY_CHILD = """
import sys
from inertia.verify import run_check
expected = %r
bad = [n for n in sys.argv[1:] if not ((r := run_check(n)).ok and r.trials == expected[n])]
sys.exit(f"failed: {bad}" if bad else 0)
""" % (EXPECTED_TRIALS,)

# the fastest suites, for a quick run of the harness at --size tiny
TINY_SUITES = ("t14a", "t14d", "t14e", "t47")

# sha256 of the VCD each sim workload writes at seed 0, full size.
PINNED_VCD = {
    "sim_sparse": "7d726c3276a73dd8da107fe0dc402cf1e2f3f27c13549247a83ae3b5e38c7c09",
    "sim_dense": "d97235cd7cc6dad0ea6d003886e54b0803f76ce450fa0be0b17e55223956a146",
}


class Ops:
    """Tally of attempted and failed operations, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(args: list[str], root: Path) -> subprocess.CompletedProcess:
    """`python <args>` on the checkout's package; a hang is killed and
    reported as the return code "timeout"."""
    cmd = [sys.executable, *args]
    try:
        return subprocess.run(
            cmd,
            env=child_env(root),
            cwd=root,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(cmd, "timeout", b"", b"timed out")


def cli_inprocess(mods: dict, argv: list[str]):
    """The exit code of `inertia.cli.main(argv)`, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return mods["cli"].main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code
        except Exception as exc:  # an escaped error is a failed operation
            return repr(exc)


def _nothing():
    pass


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def restrict(sig_cls, sig, lo: int, hi: int):
    """`sig` on [lo, hi], held constant outside it (the simulator's view)."""
    return sig_cls(sig.value_at(lo), tuple(t for t in sig.switches if lo < t <= hi))


class Workload:
    """Shared plumbing: command passes and their output digests."""

    name = ""
    unit = ""
    children = True  # a pass outside the traced run runs the program in children

    def __init__(self, root: Path, work: Path, seed: int, size: str, ops: Ops):
        self.root, self.work, self.seed, self.size, self.ops = root, work, seed, size, ops
        self.digests: dict[str, str] = {}

    def _record_outputs(self, paths):
        """Outputs must repeat byte for byte on every pass."""
        for p in paths:
            try:
                d = digest(p)
            except OSError as exc:  # the command wrote nothing
                self.ops.expect(False, f"{p.name}: {exc}")
                continue
            first = self.digests.setdefault(p.name, d)
            self.ops.expect(d == first, f"{p.name} differs between passes")

    def _run_commands(self, commands, inprocess_mods=None, interlude=_nothing):
        """Run each (argv, expected exit code), calling `interlude` after each."""
        for argv, expected in commands:
            if inprocess_mods is None:
                proc = run_child(["-m", "inertia", *argv], self.root)
                code, err = proc.returncode, proc.stderr.decode(errors="replace")
            else:
                code, err = cli_inprocess(inprocess_mods, argv), ""
            self.ops.expect(
                code == expected,
                f"inertia {' '.join(argv[:3])} exited {code}, expected {expected}: "
                f"{err.strip()[-200:]}",
            )
            interlude()



# -- trace -----------------------------------------------------------------------


class Trace(Workload):
    """Waveform kernels through `inertia solve` and `inertia check`."""

    name = "trace"
    unit = "input switches"

    def setup(self, mods: dict):
        Signal = mods["signals"].Signal
        self.waves = gen.trace_waves(self.seed, self.size)
        self.inputs = []
        for w in self.waves:
            sig = Signal(w["initial"], tuple(w["switches"]))
            path = self.work / f"{w['name']}.wave"
            path.write_text(gen.wave_line(w["name"], sig.initial, sig.switches) + "\n")
            self.inputs.append(path)

    def _commands(self, k: int):
        w, u = self.waves[k], str(self.inputs[k])
        p = w["params"]
        # holds implied by the edge-licensing condition (ric_to_aic)
        aic = {"deltar": p["df"] - p["dr"] + p["mr"], "deltaf": p["dr"] - p["df"] + p["mf"]}
        env, det = str(self._env(k)), str(self._det(k))
        P = json.dumps(p)
        return [
            (["solve", "--cond", "bdc-envelope", "--params", P, "--input", u, "-o", env], 0),
            (["solve", "--cond", "bridc-det", "--params", P, "--input", u, "-o", det], 0),
            (["check", "--cond", "bdc", "--params", P, "--input", u, "--output", env,
              "--output-name", "x_lo"], 0),
            (["check", "--cond", "ric", "--params", json.dumps(_ric(p)), "--input", u,
              "--output", det], 0),
            (["check", "--cond", "aic", "--params", json.dumps(aic), "--output", det], 0),
        ]

    def _env(self, k):
        return self.work / f"{self.waves[k]['name']}.env.wave"

    def _det(self, k):
        return self.work / f"{self.waves[k]['name']}.det.wave"

    def units(self) -> int:
        return sum(len(w["switches"]) for w in self.waves)

    def run_pass(self, mods=None, interlude=_nothing):
        for k in range(len(self.waves)):
            self._run_commands(self._commands(k), mods, interlude)
            self._record_outputs([self._env(k), self._det(k)])

    def check(self, mods: dict):
        """Round trips, plus `check` on x_hi, on the deterministic output
        and on one-switch perturbations."""
        for k in range(len(self.waves)):
            try:
                self._check_wave(mods, k)
            except (KeyError, OSError, ValueError) as exc:  # missing or unreadable output
                self.ops.expect(False, f"{self.waves[k]['name']} outputs: {exc!r}")

    def _check_wave(self, mods: dict, k: int):
        waveio, Signal = mods["waveio"], mods["signals"].Signal
        w = self.waves[k]
        texts = {p: p.read_text() for p in (self.inputs[k], self._env(k), self._det(k))}
        for path, text in texts.items():
            parsed = waveio.parse_waveforms(text)
            again = waveio.emit_waveforms(parsed)
            self.ops.expect(
                again == text and waveio.parse_waveforms(again) == parsed,
                f"{path.name}: parse/emit round trip is not the identity",
            )
        env = waveio.parse_waveforms(texts[self._env(k)])
        det = waveio.parse_waveforms(texts[self._det(k)])["x"]
        p, u = json.dumps(w["params"]), str(self.inputs[k])
        ric = json.dumps(_ric(w["params"]))
        cases = [
            ("x_hi", env["x_hi"], "bdc", p, 0),
            ("x", det, "bdc", p, 0),
            ("x_lo+", _move_edge(Signal, env["x_lo"], rising=True, by=1), "bdc", p, 1),
            ("x_hi+", _move_edge(Signal, env["x_hi"], rising=False, by=1), "bdc", p, 1),
            ("x-", _move_edge(Signal, det, rising=True, by=-1), "ric", ric, 1),
        ]
        for label, sig, cond, params, expected in cases:
            path = self.work / f"{w['name']}.{label}.wave"
            path.write_text(waveio.emit_waveforms({"x": sig}))
            code = cli_inprocess(
                mods,
                ["check", "--cond", cond, "--params", params, "--input", u,
                 "--output", str(path)],
            )
            self.ops.expect(
                code == expected,
                f"check {cond} on {w['name']} {label} exited {code}, expected {expected}",
            )


def _ric(p: dict) -> dict:
    """Edge-licensing windows equal to the delay windows (mu = m, delta = d),
    which the deterministic inertial output meets."""
    return {"mur": p["mr"], "deltar": p["dr"], "muf": p["mf"], "deltaf": p["df"]}


def _move_edge(Signal, sig, rising: bool, by: int):
    """`sig` with its middle edge of the given polarity moved by `by` ticks.

    A rising edge of a least solution delayed by one tick breaks the lower
    bound; a falling edge of a greatest solution delayed by one tick breaks
    the upper bound; a rising edge of the deterministic output moved one
    tick earlier lacks its licensing window.  Only edges with a free
    neighbouring tick qualify, so the result stays a valid signal.
    """
    sw = list(sig.switches)
    for i in range(len(sw) // 2, len(sw)):
        if (sig.initial ^ (i & 1) == 0) != rising:
            continue
        t = sw[i] + by
        if (i == 0 or sw[i - 1] < t) and (i + 1 == len(sw) or t < sw[i + 1]):
            sw[i] = t
            return Signal(sig.initial, tuple(sw))
    raise ValueError("no movable edge")


# -- sim_sparse / sim_dense ----------------------------------------------------------


class Sim(Workload):
    """`inertia simulate` to VCD, checked gate by gate through conditions."""

    unit = "gate-ticks"

    def setup(self, mods: dict):
        circuit, Signal = mods["circuit"], mods["signals"].Signal
        data = self.generate()
        self.netlist = circuit.netlist_from_dict(data["netlist"])
        self.stimuli = {n: Signal(i, tuple(sw)) for n, (i, sw) in data["stimuli"].items()}
        self.lo, self.hi = data["horizon"]
        self.nl_path = self.work / "netlist.json"
        self.nl_path.write_text(json.dumps(data["netlist"]))
        self.st_path = self.work / "stimuli.wave"
        self.st_path.write_text(
            "".join(
                gen.wave_line(n, s.initial, s.switches) + "\n" for n, s in self.stimuli.items()
            )
        )
        self.vcd = self.work / "run.vcd"
        self.acyclic = data.get("acyclic")
        if self.acyclic is not None:
            self.acyclic = circuit.netlist_from_dict(self.acyclic)
            self.envelopes = {
                n: circuit.Envelope.exact(self.stimuli[n]) for n in self.acyclic.inputs
            }
        self.mods = mods

    def units(self) -> int:
        return len(self.netlist.gates) * (self.hi - self.lo + 1)

    def run_pass(self, mods=None, interlude=_nothing):
        argv = [
            "simulate", "--netlist", str(self.nl_path), "--stimuli", str(self.st_path),
            "--horizon", f"{self.lo}:{self.hi}", "-o", str(self.vcd),
        ]
        self._run_commands([(argv, 0)], mods, interlude)
        if self.acyclic is not None:
            try:
                self.env_result = (mods or self.mods)["circuit"].envelope_propagate(
                    self.acyclic, self.envelopes
                )
            except Exception as exc:  # an escaped error is a failed operation
                self.env_result = None
                self.ops.expect(False, f"envelope_propagate raised {exc!r}")
        self._record_outputs([self.vcd])

    def check(self, mods: dict):
        """Each gate's trace is its table image through translate (fixed
        delays) or bridc_det_output (inertial delays) of its input traces;
        the VCD digest is pinned at seed 0; envelopes bracket the traces."""
        if not self.vcd.exists():
            return
        Signal = mods["signals"].Signal
        pointwise = mods["signals"].pointwise
        cond = mods["conditions"]
        if self.seed == 0 and self.size == "full":
            want = PINNED_VCD[self.name]
            self.ops.expect(
                self.digests["run.vcd"] == want,
                f"VCD digest {self.digests['run.vcd']} differs from the pinned {want}",
            )
        try:
            traces = read_vcd(self.vcd.read_text(), Signal)
        except (KeyError, ValueError) as exc:
            self.ops.expect(False, f"unreadable VCD: {exc!r}")
            return
        nets = set(self.netlist.inputs) | {g.name for g in self.netlist.gates}
        if not self.ops.expect(set(traces) == nets, "VCD does not list every net"):
            return
        for g in self.netlist.gates:
            table = g.table
            y = pointwise(
                lambda *bits: gen.table_value(table, bits), *(traces[i] for i in g.inputs)
            )
            d = g.delay
            if isinstance(d, mods["circuit"].FixedDelay):
                z = y.translate(d.d)
            else:
                z = cond.bridc_det_output(y, d.params)
            self.ops.expect(
                restrict(Signal, z, self.lo, self.hi) == traces[g.name],
                f"net {g.name} is not the delayed table image of its inputs",
            )
        self.net_switches = sum(len(traces[g.name].switches) for g in self.netlist.gates)
        if self.acyclic is not None and self.env_result is not None:
            for g in self.acyclic.gates:
                e, x = self.env_result[g.name], traces[g.name]
                low = restrict(Signal, e.low, self.lo, self.hi)
                high = restrict(Signal, e.high, self.lo, self.hi)
                self.ops.expect(
                    low.leq(x) and x.leq(high), f"envelope of {g.name} misses its trace"
                )


class SimSparse(Sim):
    name = "sim_sparse"

    def generate(self):
        return gen.sparse_circuit(self.seed, self.size)


class SimDense(Sim):
    name = "sim_dense"

    def generate(self):
        return gen.dense_circuit(self.seed, self.size)


def read_vcd(text: str, Signal) -> dict:
    """Signals from a VCD with one-bit wires, undoing the tick offset."""
    names, values, switches = {}, {}, {}
    offset, now, in_dump = 0, None, False
    for line in text.splitlines():
        if line.startswith("$comment tick offset"):
            offset = int(line.split()[3])
        elif line.startswith("$var"):
            _, _, _, ident, name, _ = line.split()
            names[ident] = name
            switches[name] = []
        elif line == "$dumpvars":
            in_dump = True
        elif line == "$end":
            in_dump = False
        elif line.startswith("#"):
            now = int(line[1:]) - offset
        elif line[:1] in ("0", "1"):
            name = names[line[1:]]
            if in_dump:
                values[name] = int(line[0])
            else:
                switches[name].append(now)
    return {n: Signal(values[n], tuple(switches[n])) for n in names.values()}


# -- verify --------------------------------------------------------------------------


class Verify(Workload):
    """All law suites in-process through `run_check`, at their default seeds."""

    name = "verify"
    unit = "suite trials"
    children = False

    def setup(self, mods: dict):
        self.mods = mods
        names = mods["verify"].THEOREM_CHECKS
        if self.size == "tiny":
            names = [n for n in names if n in TINY_SUITES]
        self.suites = gen.suite_order(self.seed, names)

    def units(self) -> int:
        return sum(EXPECTED_TRIALS[n] for n in self.suites)

    def run_pass(self, mods=None, interlude=_nothing):
        mods = mods or self.mods
        for name in self.suites:
            interlude()
            try:
                rep = mods["verify"].run_check(name)
            except Exception as exc:  # a suite that raises counts as failed
                self.ops.expect(False, f"{name} raised {exc!r}")
                continue
            self.ops.expect(rep.ok, f"{name}: {rep.failures[:2]}")
            self.ops.expect(
                rep.trials == EXPECTED_TRIALS.get(name),
                f"{name} ran {rep.trials} trials, expected {EXPECTED_TRIALS.get(name)}",
            )

    def child_pass(self):
        """The suites once in a child process, for its peak memory."""
        proc = run_child(["-c", VERIFY_CHILD, *self.suites], self.root)
        self.ops.expect(
            proc.returncode == 0,
            f"the suites in a child exited {proc.returncode}: "
            f"{proc.stderr.decode(errors='replace').strip()[-200:]}",
        )

    def check(self, mods: dict):
        self.ops.expect(
            set(mods["verify"].THEOREM_CHECKS) == set(EXPECTED_TRIALS),
            "the suite registry changed",
        )


WORKLOADS = {w.name: w for w in (Trace, SimSparse, SimDense, Verify)}
