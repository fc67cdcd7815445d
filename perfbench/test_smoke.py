"""Smoke test of the benchmark harness at tiny sizes.

    python -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its
unit, and that a deliberately corrupted program output is counted as a
failed operation by each workload's output checks.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, Ops, _move_edge  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_workload_names_match_the_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def _one_pass(tmp_path, workload: str, corrupt=None) -> Ops:
    ops = Ops()
    mods = run.load_inertia()
    wl = WORKLOADS[workload](ROOT, tmp_path, 0, "tiny", ops)
    wl.setup(mods)
    if corrupt is not None:
        corrupt(mods)
    wl.run_pass(mods)
    wl.check(mods)
    return ops


def _corrupt_trace(mods, monkeypatch):
    cli, Signal = mods["cli"], mods["signals"].Signal
    real = cli.bridc_det_output
    monkeypatch.setattr(
        cli,
        "bridc_det_output",
        lambda u, p: _move_edge(Signal, real(u, p), rising=True, by=-1),
    )


def _corrupt_sim(mods, monkeypatch):
    cli, Signal = mods["cli"], mods["signals"].Signal
    real = cli.simulate

    def simulate(n, inputs, horizon):
        traces = real(n, inputs, horizon)
        net = n.gates[-1].name
        traces[net] = Signal(1 - traces[net].initial, traces[net].switches)
        return traces

    monkeypatch.setattr(cli, "simulate", simulate)


def _corrupt_verify(mods, monkeypatch):
    verify = mods["verify"]
    real = verify.run_check

    def run_check(name, trials=None, seed=None):
        rep = real(name, trials, seed)
        rep.fail("injected")
        return rep

    monkeypatch.setattr(verify, "run_check", run_check)


CORRUPTIONS = {
    "trace": _corrupt_trace,
    "sim_sparse": _corrupt_sim,
    "sim_dense": _corrupt_sim,
    "verify": _corrupt_verify,
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_output_raises_the_failed_share(tmp_path, monkeypatch, workload):
    (tmp_path / "clean").mkdir()
    (tmp_path / "bad").mkdir()
    clean = _one_pass(tmp_path / "clean", workload)
    assert clean.failed == 0, clean.reasons
    bad = _one_pass(
        tmp_path / "bad", workload, lambda mods: CORRUPTIONS[workload](mods, monkeypatch)
    )
    assert bad.failed > 0


def test_missing_package_source_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "trace", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
