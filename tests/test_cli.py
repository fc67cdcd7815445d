"""Command-line surface: exit codes, verdict JSON, file handling.

The cases of tests/cli_cases.py run here through `main`, one test per
case name.  The tests below need more than an argv in and an exit code,
a message and stdout out: several runs, a patched library, a file
written by `-o`, or the module entry point.  Exit codes: 0 means the
property holds or output was produced, 1 means it fails, 2 means
malformed input.
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import cli_cases
import pytest
from cli_cases import AIC, AND_NET, AND_STIM, BDC, BDC_23

from inertia import oracle
from inertia.cli import main
from inertia.conditions import BdcParams, CondExpr
from inertia.oracle import GridConfig, solution_count
from inertia.waveio import parse_waveforms

NETLIST = json.dumps(AND_NET)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def verdict(capsys, *argv):
    code, out, _err = run(capsys, *argv)
    return code, json.loads(out)


def wave_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- the table of cases ------------------------------------------------------------


def _run_case(case, tmp_path, monkeypatch, capsys):
    cli_cases.write_files(case, tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main(list(case.argv))
    out, err = capsys.readouterr()
    assert cli_cases.problems(case, code, out, err) == []


def _test_of(cases):
    """The test of the cases that share a name: plain for one case without
    a tag, else parametrized by the tags."""
    if "[" not in cases[0].id:
        (case,) = cases

        def test(tmp_path, monkeypatch, capsys):
            _run_case(case, tmp_path, monkeypatch, capsys)

        return test

    def test(case, tmp_path, monkeypatch, capsys):
        _run_case(case, tmp_path, monkeypatch, capsys)

    tags = [c.id.partition("[")[2].removesuffix("]") for c in cases]
    return pytest.mark.parametrize("case", cases, ids=tags)(test)


def _tier1_cases_by_name():
    """The cases without a twin, grouped by the name before any tag."""
    by_name = {}
    for case in cli_cases.CASES:
        if case.twin is None:
            by_name.setdefault(case.id.partition("[")[0], []).append(case)
    return by_name


def test_the_case_table_is_well_formed():
    ids = [case.id for case in cli_cases.CASES]
    assert len(ids) == len(set(ids))
    for case in cli_cases.CASES:
        # every exit 2 pins its message, so no case passes on the code alone
        assert (case.error is not None) == (case.code == 2), case.id
        assert case.code in (0, 1, 2), case.id
        if case.twin is not None:
            path, _, name = case.twin.partition("::")
            source = (Path(__file__).parent.parent / path).read_text(encoding="utf-8")
            assert f"\ndef {name}(" in source, case.twin
    for name, cases in _tier1_cases_by_name().items():
        assert len(cases) == 1 or all("[" in case.id for case in cases), name


def test_the_case_runner_makes_the_python_path_absolute(tmp_path, monkeypatch):
    # `main` runs each case in a temporary directory, where `src` means nothing
    monkeypatch.chdir(tmp_path)
    path = os.pathsep.join(["src", str(tmp_path / "lib")])
    env = cli_cases.case_env({"PYTHONPATH": path, "HOME": "h"})
    assert env == {
        "PYTHONPATH": os.pathsep.join([str(tmp_path / "src"), str(tmp_path / "lib")]),
        "HOME": "h",
    }
    assert cli_cases.case_env({}) == {}


# -- consistent ---------------------------------------------------------------------


def test_consistent_baidc(capsys):
    code, v = verdict(
        capsys, "consistent", "--cond", "baidc", "--params", BDC, "--hold", AIC
    )
    assert code == 0 and v["holds"] is True
    code, v = verdict(
        capsys,
        "consistent", "--cond", "baidc", "--params", BDC,
        "--hold", '{"deltar": 2, "deltaf": 1}',
    )
    assert code == 1 and v["holds"] is False


# -- algebra --------------------------------------------------------------------


def test_algebra_union_envelope_reports_tightness(capsys):
    code, v = verdict(capsys, "algebra", "--op", "union-envelope", "--p", BDC, "--q", BDC_23)
    assert code == 0
    assert v["result"] == {"mr": 2, "dr": 3, "mf": 2, "df": 3}
    assert v["tight"] is True
    _code, v = verdict(
        capsys,
        "algebra", "--op", "union-envelope",
        "--p", '{"mr": 0, "dr": 1, "mf": 0, "df": 1}',
        "--q", '{"mr": 0, "dr": 3, "mf": 0, "df": 3}',
    )
    assert v["result"] == {"mr": 2, "dr": 3, "mf": 2, "df": 3}
    assert v["tight"] is False


def test_algebra_includes_exit_codes(capsys):
    assert run(capsys, "algebra", "--op", "includes", "--p", BDC, "--q", BDC_23)[0] == 0
    assert run(capsys, "algebra", "--op", "includes", "--p", BDC_23, "--q", BDC)[0] == 1


def test_algebra_deterministic_reports_the_shift(capsys):
    code, v = verdict(
        capsys,
        "algebra", "--op", "deterministic",
        "--p", '{"mr": 0, "dr": 2, "mf": 0, "df": 2}',
    )
    assert code == 0
    assert v["shift"] == 2
    assert run(capsys, "algebra", "--op", "deterministic", "--p", BDC)[0] == 1


# -- check and solve ---------------------------------------------------------------


def test_check_bdc(capsys, tmp_path):
    u = wave_file(tmp_path, "u.wave", "u 0 0 5\n")
    x_ok = wave_file(tmp_path, "x.wave", "x 0 3 8\n")
    x_bad = wave_file(tmp_path, "y.wave", "y 0 0 5\n")
    p = '{"mr": 1, "dr": 3, "mf": 1, "df": 3}'
    code, v = verdict(
        capsys, "check", "--cond", "bdc", "--params", p, "--input", u, "--output", x_ok
    )
    assert code == 0 and v["holds"] is True
    code, v = verdict(
        capsys, "check", "--cond", "bdc", "--params", p, "--input", u, "--output", x_bad
    )
    assert code == 1
    assert "lower window bound violated" in v["detail"]


@pytest.mark.parametrize(
    "cond, params, u_text, x_text, detail",
    [
        ("fdc", '{"d": 2}', "u 0 0 5", "x 0 2 8", ["output is not the input delayed by 2"]),
        (
            "bdc", '{"mr": 1, "dr": 3, "mf": 1, "df": 3}', "u 0 0 5", "x 1 0",
            ["lower window bound violated", "upper window bound violated"],
        ),
        ("aic", '{"deltar": 3, "deltaf": 0}', None, "x 0 0 2", ["hold after rise violated"]),
        ("aic", '{"deltar": 0, "deltaf": 3}', None, "x 0 0 2 3", ["hold after fall violated"]),
        (
            "aic", '{"deltar": 3, "deltaf": 3}', None, "x 0 0 2 3",
            ["hold after rise violated", "hold after fall violated"],
        ),
        (
            "ric", '{"mur": 0, "deltar": 1, "muf": 0, "deltaf": 1}', "u 0 5", "x 0 0",
            ["an edge lacks its licensing input window"],
        ),
    ],
)
def test_check_names_every_violated_bound(
    capsys, tmp_path, cond, params, u_text, x_text, detail
):
    argv = ["check", "--cond", cond, "--params", params]
    if u_text is not None:
        argv += ["--input", wave_file(tmp_path, "u.wave", u_text + "\n")]
    argv += ["--output", wave_file(tmp_path, "x.wave", x_text + "\n")]
    code, out, _err = run(capsys, *argv)
    assert code == 1
    expected = {
        "command": "check",
        "cond": cond,
        "detail": detail,
        "holds": False,
        "params": json.loads(params),
    }
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_check_refuses_a_long_exponent_at_once(capsys, tmp_path):
    x = wave_file(tmp_path, "w.wave", "u 0 1e2000000\n")
    t0 = time.perf_counter()
    code, out, err = run(capsys, "check", "--cond", "aic", "--params", AIC, "--output", x)
    assert time.perf_counter() - t0 < 0.1
    assert (code, out) == (2, "")
    assert err == "error: line 1: time '1e2000000' has an exponent of more than 4 digits\n"


def test_solve_envelope_names_both_bounds(capsys, tmp_path):
    u = wave_file(tmp_path, "u.wave", "u 0 0 5\n")
    out_path = tmp_path / "env.wave"
    code, _out, _err = run(
        capsys,
        "solve", "--cond", "bdc-envelope",
        "--params", '{"mr": 1, "dr": 3, "mf": 1, "df": 3}',
        "--input", u, "-o", str(out_path),
    )
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == "x_lo 0 3 7\nx_hi 0 2 8\n"


# -- simulate -------------------------------------------------------------------


def test_simulate_emits_stable_vcd(capsys, tmp_path):
    netlist = wave_file(tmp_path, "net.json", NETLIST)
    stim = wave_file(tmp_path, "stim.wave", AND_STIM)
    first = tmp_path / "one.vcd"
    second = tmp_path / "two.vcd"
    for target in (first, second):
        code, _out, _err = run(
            capsys,
            "simulate", "--netlist", netlist, "--stimuli", stim,
            "--horizon", "0:10", "-o", str(target),
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    assert "\n#3\n1#" in first.read_text(encoding="utf-8")


def test_simulate_rejects_a_time_unit_the_vcd_cannot_state(capsys, tmp_path):
    netlist = wave_file(tmp_path, "net.json", NETLIST)
    stim = wave_file(tmp_path, "stim.wave", AND_STIM)
    cfg = wave_file(tmp_path, "run.cfg", "time_unit = 1ns $end $var wire 1 ! x $end\n")
    target = tmp_path / "out.vcd"
    code, _out, err = run(
        capsys,
        "simulate", "--netlist", netlist, "--stimuli", stim,
        "--horizon", "0:10", "--config", cfg, "-o", str(target),
    )
    assert code == 2
    assert "time_unit" in err
    assert not target.exists()


def test_an_internal_value_error_is_not_reported_as_bad_input(tmp_path, monkeypatch):
    def broken(*_args):
        raise ValueError("internal fault")

    monkeypatch.setattr("inertia.cli.simulate", broken)
    netlist = wave_file(tmp_path, "net.json", NETLIST)
    stim = wave_file(tmp_path, "stim.wave", AND_STIM)
    with pytest.raises(ValueError, match="internal fault"):
        main(["simulate", "--netlist", netlist, "--stimuli", stim, "--horizon", "0:10"])


# -- oracle ---------------------------------------------------------------------


def test_oracle_enumerate(capsys, tmp_path):
    u = wave_file(tmp_path, "u.wave", "u 0 0 5\n")
    code, out, err = run(
        capsys,
        "oracle", "enumerate",
        "--atoms", '{"kind": "bdc", "mr": 1, "dr": 3, "mf": 1, "df": 3}',
        "--input", u, "--grid=-4:12",
    )
    assert code == 0
    assert "4 solutions" in err
    assert len(out.strip().splitlines()) == 4


def test_oracle_enumerate_refuses_a_grid_with_too_many_solutions(
    capsys, tmp_path, monkeypatch
):
    # every one of the 81 ticks is free: listing 2**81 outputs never ends
    def listing(*_args):
        raise AssertionError("enumerate started listing before counting")

    monkeypatch.setattr(oracle, "iter_solutions", listing)
    u = wave_file(tmp_path, "u.wave", "u 0\n")
    code, _out, err = run(
        capsys,
        "oracle", "enumerate", "--atoms", '{"kind":"aic","deltar":0,"deltaf":0}',
        "--input", u, "--grid", "0:80",
    )
    assert code == 2
    assert f"{2**81} solutions" in err


def test_oracle_witness_found(capsys):
    atoms = '{"kind": "bdc", "mr": 0, "dr": 3, "mf": 0, "df": 2}'
    code, out, _err = run(capsys, "oracle", "witness", "--atoms", atoms)
    assert code == 0
    assert out == "u 1 0\n"
    u = parse_waveforms(out)["u"]
    expr = CondExpr((BdcParams(0, 3, 0, 2),))
    assert solution_count(u, expr, GridConfig(-2, 14)) == 0


def test_oracle_witness_refuses_a_search_past_the_state_limit(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_SEARCH_STATES", 1000)
    atoms = (
        '[{"kind": "bdc", "mr": 8, "dr": 8, "mf": 8, "df": 8},'
        ' {"kind": "aic", "deltar": 100, "deltaf": 100}]'
    )
    code, _out, err = run(capsys, "oracle", "witness", "--atoms", atoms)
    assert code == 2
    assert "passed 1000 states" in err


def test_oracle_verify_seed_env(capsys, monkeypatch):
    # the seed is set by --seed alone: the variable once read is ignored
    argv = ["oracle", "verify", "--theorem", "t14e"]
    code, out, _err = run(capsys, *argv)
    monkeypatch.setenv("INERTIA_SEED", "not-a-number")
    code_env, out_env, _err = run(capsys, *argv)
    untimed = [re.sub(r"[\d.]+s\)", "s)", text) for text in (out, out_env)]
    assert code == code_env == 0
    assert untimed[0] == untimed[1] and "PASS" in out


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: inertia")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "inertia", "algebra", "--op", "compose",
         "--p", BDC, "--q", BDC],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == {"mr": 2, "dr": 4, "mf": 2, "df": 4}


for _name, _cases in _tier1_cases_by_name().items():
    assert f"test_{_name}" not in globals(), f"case name {_name} is also a plain test"
    globals()[f"test_{_name}"] = _test_of(_cases)
