"""Acceptance gate: one test per shipped claim, one line of output each.

Criteria 1 through 8 drive the randomized law suites in inertia.verify at
their default scale (the defaults are the contract: no option changes a
suite's trial count or sweep size, and each is pinned exactly below).
Criterion 9 pins the simulator's worked examples and VCD byte-stability.
Run with `-v` for the per-criterion pass/fail lines, add `-s` to see the
suite summaries.
"""

from inertia.circuit import BridcDelay, FixedDelay, Gate, Netlist, simulate
from inertia.conditions import BdcParams
from inertia.signals import Signal
from inertia.verify import run_check
from inertia.waveio import RunConfig, emit_vcd


def _gate(num, reports, budget=None):
    ok = all(r.ok for r in reports)
    secs = sum(r.seconds for r in reports)
    label = "PASS" if ok and (budget is None or secs < budget) else "FAIL"
    names = ", ".join(r.summary() for r in reports)
    print(f"criterion {num}: {label} [{names}]")
    for r in reports:
        for failure in r.failures:
            print(f"  {r.name}: {failure}")
    assert ok, f"criterion {num} has failing suites"
    if budget is not None:
        assert secs < budget, f"criterion {num} took {secs:.1f}s, budget {budget}s"
    return reports


def test_criterion_1_solution_existence_and_bounds():
    (rep,) = _gate(1, [run_check("t1")], budget=120)
    assert rep.trials == 250


def test_criterion_2_window_algebra_set_laws():
    reports = _gate(
        2,
        [run_check("t14a"), run_check("t14b"), run_check("t14g"), run_check("t14d")],
        budget=300,
    )
    assert [r.trials for r in reports] == [100, 100, 100, 100]


def test_criterion_3_determinism_sweep():
    (rep,) = _gate(3, [run_check("t14c")])
    assert rep.trials == 155  # full consistent sweep with parameters <= 4


def test_criterion_4_translation_and_duality():
    shift, dual = _gate(4, [run_check("t14e"), run_check("t14f")])
    assert shift.trials == 100
    assert dual.trials == 155


def test_criterion_5_hold_consistency_and_serial_composition():
    sweep, serial = _gate(5, [run_check("baidc"), run_check("baidc-serial")])
    assert sweep.trials == 3_875  # parameters <= 4 crossed with holds <= 4
    assert serial.trials == 50


def test_criterion_6_licensing_implies_hold():
    (rep,) = _gate(6, [run_check("t42")])
    assert rep.trials == 100


def test_criterion_7_licensed_window_consistency():
    (rep,) = _gate(7, [run_check("t45")])
    assert rep.trials == 50_625  # 225 bounded delays <= 4 crossed with 225 licences <= 4
    regimes = rep.info["regimes"]
    print(f"criterion 7 regimes: {regimes}")
    assert set(regimes) == {"b.i", "b.ii", "b.iii", "b.iv"}
    assert all(count >= 1 for count in regimes.values())


def test_criterion_8_deterministic_transfer():
    (rep,) = _gate(8, [run_check("t47")])
    assert rep.trials == 300


def _and_example_traces():
    netlist = Netlist(
        ("a", "b"),
        (Gate("y", ("a", "b"), (0, 0, 0, 1), FixedDelay(2)),),
        ("y",),
    )
    stims = {"a": Signal(0, (0,)), "b": Signal(0, (1,))}
    return simulate(netlist, stims, (-2, 10))


def test_criterion_9_simulator_examples_and_stable_vcd():
    inverter = Netlist(("a",), (Gate("y", ("a",), (1, 0), FixedDelay(1)),), ("y",))
    not_out = simulate(inverter, {"a": Signal(0, (0, 2))}, (-2, 8))
    ok_not = not_out["y"] == Signal(1, (1, 3))

    ok_and = _and_example_traces()["y"] == Signal(0, (3,))

    filt = Netlist(
        ("a",),
        (Gate("y", ("a",), (1, 0), BridcDelay(BdcParams(1, 2, 1, 2))),),
        ("y",),
    )
    filt_out = simulate(filt, {"a": Signal(0, (0, 1))}, (-2, 10))
    ok_filter = filt_out["y"] == Signal.const(1)

    cfg = RunConfig(time_unit="1ns")
    first = emit_vcd(_and_example_traces(), cfg).encode()
    second = emit_vcd(_and_example_traces(), cfg).encode()
    ok_vcd = first == second

    ok = ok_not and ok_and and ok_filter and ok_vcd
    print(
        f"criterion 9: {'PASS' if ok else 'FAIL'} "
        f"[inverter={ok_not}, and-gate={ok_and}, pulse-filter={ok_filter}, "
        f"vcd-stable={ok_vcd}]"
    )
    assert ok
