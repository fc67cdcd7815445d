"""Command-line surface: exit codes, verdict JSON, file handling.

Each test drives `main` with an argv list; 0 means the property holds
or output was produced, 1 means it fails, 2 means malformed input.
"""

import json
import subprocess
import sys

import pytest

from inertia import oracle
from inertia.cli import SEED_ENV, main
from inertia.conditions import BdcParams, CondExpr
from inertia.oracle import GridConfig, solution_count
from inertia.waveio import parse_waveforms


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def verdict(capsys, *argv):
    code, out, _err = run(capsys, *argv)
    return code, json.loads(out)


BDC = '{"mr": 1, "dr": 2, "mf": 1, "df": 2}'
BAD_CC = '{"mr": 0, "dr": 3, "mf": 0, "df": 2}'


# -- consistent -----------------------------------------------------------------


def test_consistent_cc_pass(capsys):
    code, v = verdict(capsys, "consistent", "--cond", "cc", "--params", BDC)
    assert code == 0
    assert v["holds"] is True
    assert v["detail"] == "CC holds"


def test_consistent_cc_fail_lists_violations(capsys):
    code, v = verdict(capsys, "consistent", "--cond", "cc", "--params", BAD_CC)
    assert code == 1
    assert v["holds"] is False
    assert v["violations"] == ["df >= dr - mr fails (2 >= 3 - 0)"]


def test_consistent_baidc(capsys):
    code, v = verdict(
        capsys,
        "consistent", "--cond", "baidc", "--params", BDC,
        "--hold", '{"deltar": 1, "deltaf": 1}',
    )
    assert code == 0 and v["holds"] is True
    code, v = verdict(
        capsys,
        "consistent", "--cond", "baidc", "--params", BDC,
        "--hold", '{"deltar": 2, "deltaf": 1}',
    )
    assert code == 1 and v["holds"] is False


def test_consistent_baidc_requires_hold(capsys):
    code, _out, err = run(capsys, "consistent", "--cond", "baidc", "--params", BDC)
    assert code == 2
    assert "--hold is required" in err


def test_consistent_bridc_regime(capsys):
    code, v = verdict(
        capsys,
        "consistent", "--cond", "bridc",
        "--params", '{"mr": 2, "dr": 4, "mf": 2, "df": 4}',
        "--edge", '{"mur": 1, "deltar": 3, "muf": 1, "deltaf": 3}',
    )
    assert code == 0
    assert v["holds"] is True
    assert "b.i" in v["cases"]
    assert v["detail"] == "regime b.i applies"


def test_consistent_bridc_solvable_outside_regimes(capsys):
    code, v = verdict(
        capsys,
        "consistent", "--cond", "bridc",
        "--params", '{"mr": 0, "dr": 2, "mf": 4, "df": 4}',
        "--edge", '{"mur": 0, "deltar": 0, "muf": 0, "deltaf": 1}',
    )
    assert code == 0
    assert v["holds"] is True
    assert v["cases"] == []
    assert v["detail"] == "solvable, outside the named regimes"


def test_consistent_bridc_unsolvable(capsys):
    code, v = verdict(
        capsys,
        "consistent", "--cond", "bridc",
        "--params", '{"mr": 0, "dr": 2, "mf": 0, "df": 2}',
        "--edge", '{"mur": 1, "deltar": 5, "muf": 1, "deltaf": 5}',
    )
    assert code == 1
    assert v["holds"] is False
    assert v["detail"] == "some input admits no output"


# -- algebra --------------------------------------------------------------------


def test_algebra_intersect_defined(capsys):
    code, v = verdict(
        capsys,
        "algebra", "--op", "intersect",
        "--p", BDC, "--q", '{"mr": 2, "dr": 3, "mf": 2, "df": 3}',
    )
    assert code == 0
    assert v["defined"] is True
    assert v["result"] == {"mr": 1, "dr": 2, "mf": 1, "df": 2}


def test_algebra_intersect_refused_for_disjoint_shifts(capsys):
    code, v = verdict(
        capsys,
        "algebra", "--op", "intersect",
        "--p", '{"mr": 0, "dr": 1, "mf": 0, "df": 1}',
        "--q", '{"mr": 0, "dr": 3, "mf": 0, "df": 3}',
    )
    assert code == 1
    assert v["defined"] is False
    assert v["detail"] == "some input admits no output meeting both conditions"


def test_algebra_intersect_refused_for_unmergeable_pair(capsys):
    code, v = verdict(
        capsys,
        "algebra", "--op", "intersect",
        "--p", '{"mr": 1, "dr": 1, "mf": 2, "df": 2}',
        "--q", BDC,
    )
    assert code == 1
    assert v["detail"] == "the conjunction is not a single window condition"


def test_algebra_union_envelope_reports_tightness(capsys):
    code, v = verdict(
        capsys,
        "algebra", "--op", "union-envelope",
        "--p", BDC, "--q", '{"mr": 2, "dr": 3, "mf": 2, "df": 3}',
    )
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


def test_algebra_compose(capsys):
    code, v = verdict(
        capsys,
        "algebra", "--op", "compose",
        "--p", BDC, "--q", '{"mr": 2, "dr": 3, "mf": 2, "df": 3}',
    )
    assert code == 0
    assert v["result"] == {"mr": 3, "dr": 5, "mf": 3, "df": 5}


def test_algebra_includes_exit_codes(capsys):
    q = '{"mr": 2, "dr": 3, "mf": 2, "df": 3}'
    assert run(capsys, "algebra", "--op", "includes", "--p", BDC, "--q", q)[0] == 0
    assert run(capsys, "algebra", "--op", "includes", "--p", q, "--q", BDC)[0] == 1


def test_algebra_deterministic_reports_the_shift(capsys):
    code, v = verdict(
        capsys,
        "algebra", "--op", "deterministic",
        "--p", '{"mr": 0, "dr": 2, "mf": 0, "df": 2}',
    )
    assert code == 0
    assert v["shift"] == 2
    assert run(capsys, "algebra", "--op", "deterministic", "--p", BDC)[0] == 1


def test_algebra_missing_q_is_a_usage_error(capsys):
    code, _out, err = run(capsys, "algebra", "--op", "intersect", "--p", BDC)
    assert code == 2
    assert "--q is required" in err


# -- check and solve ---------------------------------------------------------------


def wave_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


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


def test_check_bdc_requires_input(capsys, tmp_path):
    x = wave_file(tmp_path, "x.wave", "x 0 3 8\n")
    code, _out, err = run(
        capsys, "check", "--cond", "bdc", "--params", BDC, "--output", x
    )
    assert code == 2
    assert "--input is required" in err


def test_check_aic_needs_no_input(capsys, tmp_path):
    x = wave_file(tmp_path, "x.wave", "x 0 0 2\n")
    code, v = verdict(
        capsys,
        "check", "--cond", "aic",
        "--params", '{"deltar": 1, "deltaf": 1}', "--output", x,
    )
    assert code == 0 and v["holds"] is True


def test_solve_deterministic_output(capsys, tmp_path):
    u = wave_file(tmp_path, "u.wave", "u 0 0 3\n")
    code, out, _err = run(
        capsys, "solve", "--cond", "bridc-det", "--params", BDC, "--input", u
    )
    assert code == 0
    assert out == "x 0 2 5\n"


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


def test_solve_rejects_inconsistent_parameters(capsys, tmp_path):
    u = wave_file(tmp_path, "u.wave", "u 0 0 3\n")
    code, _out, err = run(
        capsys, "solve", "--cond", "bdc-min", "--params", BAD_CC, "--input", u
    )
    assert code == 2
    assert "error:" in err


# -- simulate -------------------------------------------------------------------


NETLIST = json.dumps(
    {
        "inputs": ["a", "b"],
        "gates": [
            {
                "name": "y",
                "inputs": ["a", "b"],
                "table": [0, 0, 0, 1],
                "delay": {"kind": "fixed", "d": 2},
            }
        ],
        "outputs": ["y"],
    }
)


def test_simulate_emits_stable_vcd(capsys, tmp_path):
    netlist = wave_file(tmp_path, "net.json", NETLIST)
    stim = wave_file(tmp_path, "stim.wave", "a 0 0\nb 0 1\n")
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
    stim = wave_file(tmp_path, "stim.wave", "a 0 0\nb 0 1\n")
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


def test_simulate_rejects_bad_horizon(capsys, tmp_path):
    netlist = wave_file(tmp_path, "net.json", NETLIST)
    stim = wave_file(tmp_path, "stim.wave", "a 0 0\nb 0 1\n")
    code, _out, err = run(
        capsys,
        "simulate", "--netlist", netlist, "--stimuli", stim, "--horizon", "10",
    )
    assert code == 2
    assert "expected LO:HI" in err


def _netlist_with_delay(delay):
    obj = json.loads(NETLIST)
    obj["gates"][0]["delay"] = delay
    return json.dumps(obj)


@pytest.mark.parametrize(
    "delay",
    [
        {"kind": "bridc", "mr": "x", "dr": 2, "mf": 0, "df": 2},
        {"kind": "bridc", "mr": 3, "dr": 2, "mf": 0, "df": 2},
        3,
    ],
)
def test_simulate_names_the_gate_with_a_bad_delay(capsys, tmp_path, delay):
    netlist = wave_file(tmp_path, "net.json", _netlist_with_delay(delay))
    stim = wave_file(tmp_path, "stim.wave", "a 0 0\nb 0 1\n")
    code, _out, err = run(
        capsys,
        "simulate", "--netlist", netlist, "--stimuli", stim, "--horizon", "0:10",
    )
    assert code == 2
    assert "gate 'y'" in err


def test_simulate_rejects_a_file_that_is_not_utf8(capsys, tmp_path):
    netlist = wave_file(tmp_path, "net.json", NETLIST)
    stim = tmp_path / "stim.wave"
    stim.write_bytes(b"a 0 \xff\n")
    code, _out, err = run(
        capsys,
        "simulate", "--netlist", netlist, "--stimuli", str(stim), "--horizon", "0:10",
    )
    assert code == 2
    assert "utf-8" in err


def test_an_internal_value_error_is_not_reported_as_bad_input(tmp_path, monkeypatch):
    def broken(*_args):
        raise ValueError("internal fault")

    monkeypatch.setattr("inertia.cli.simulate", broken)
    netlist = wave_file(tmp_path, "net.json", NETLIST)
    stim = wave_file(tmp_path, "stim.wave", "a 0 0\nb 0 1\n")
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


def test_oracle_witness_found(capsys):
    atoms = '{"kind": "bdc", "mr": 0, "dr": 3, "mf": 0, "df": 2}'
    code, out, _err = run(capsys, "oracle", "witness", "--atoms", atoms)
    assert code == 0
    assert out == "u 1 0\n"
    u = parse_waveforms(out)["u"]
    expr = CondExpr((BdcParams(0, 3, 0, 2),))
    assert solution_count(u, expr, GridConfig(-2, 14)) == 0


def test_oracle_witness_not_found(capsys):
    code, out, _err = run(
        capsys,
        "oracle", "witness",
        "--atoms", '{"kind": "bdc", "mr": 1, "dr": 2, "mf": 1, "df": 2}',
    )
    assert code == 1
    assert "no witness found" in out


def test_oracle_witness_refuses_a_reach_past_the_table_limit(capsys):
    atoms = '{"kind": "bdc", "mr": 0, "dr": 13, "mf": 0, "df": 2}'
    code, _out, err = run(capsys, "oracle", "witness", "--atoms", atoms)
    assert code == 2
    assert "13 ticks back, limit is 12" in err


def test_oracle_witness_refuses_a_search_past_the_state_limit(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_SEARCH_STATES", 1000)
    atoms = (
        '[{"kind": "bdc", "mr": 8, "dr": 8, "mf": 8, "df": 8},'
        ' {"kind": "aic", "deltar": 100, "deltaf": 100}]'
    )
    code, _out, err = run(capsys, "oracle", "witness", "--atoms", atoms)
    assert code == 2
    assert "passed 1000 states" in err


def test_oracle_verify_reports_a_summary(capsys):
    code, out, _err = run(
        capsys, "oracle", "verify", "--theorem", "t14e", "--trials", "5"
    )
    assert code == 0
    assert out.startswith("t14e: PASS (5 trials")


def test_oracle_verify_seed_env(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "99")
    code, out, _err = run(
        capsys, "oracle", "verify", "--theorem", "t14e", "--trials", "5"
    )
    assert code == 0 and "PASS" in out
    monkeypatch.setenv(SEED_ENV, "not-a-number")
    code, _out, err = run(
        capsys, "oracle", "verify", "--theorem", "t14e", "--trials", "5"
    )
    assert code == 2
    assert SEED_ENV in err


# -- malformed input -------------------------------------------------------------


def test_bad_parameter_json(capsys):
    code, _out, err = run(capsys, "consistent", "--cond", "cc", "--params", "{oops")
    assert code == 2
    assert "bad bdc parameter JSON" in err


def test_missing_waveform_name(capsys, tmp_path):
    u = wave_file(tmp_path, "u.wave", "a 0 0\nb 0 1\n")
    code, _out, err = run(
        capsys,
        "solve", "--cond", "bdc-min", "--params", BDC, "--input", u,
    )
    assert code == 2
    assert "2 waveforms" in err


def test_missing_file(capsys, tmp_path):
    code, _out, err = run(
        capsys,
        "solve", "--cond", "bdc-min", "--params", BDC,
        "--input", str(tmp_path / "nope.wave"),
    )
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "inertia", "algebra", "--op", "compose",
         "--p", BDC, "--q", BDC],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == {"mr": 2, "dr": 4, "mf": 2, "df": 4}
