"""The command line's contract, as one table of cases.

Each case gives an argv for the `inertia` command, the input files it
writes, the exit code it must give and, on exit 2, the one error line
it must print.  Two runners read the table and hold every case to the
same rules, `problems`: tests/test_cli.py runs each case through
`cli.main` in-process, and

    python tests/cli_cases.py inertia

runs each through a command, here the installed console script (any
command prefix works, e.g. `python tests/cli_cases.py python -m inertia`).
The second runs the cases marked `twin` too, which tier-1 skips because
the named test already does their work in-process.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Case:
    """One run of the command.

    id: `name` or `name[tag]`.  tests/test_cli.py runs the cases that
      share a name as one test, `test_<name>`, parametrized by tag.
    argv: the arguments; a file named in them is relative to the run's
      working directory, which holds `files` and nothing else.
    code: the exit code.
    error: the stderr line after `error: `, pinned for every exit 2.
    stdout: the whole of stdout.
    verdict: keys and values that stdout's JSON verdict must hold.
    files: name -> text, or bytes, written before the run.
    twin: the tier-1 test that does this case's work in-process.

    A `…` in a pinned text stands for any text.
    """

    id: str
    argv: list
    code: int
    error: str | None = None
    stdout: str | None = None
    verdict: dict | None = None
    files: dict = field(default_factory=dict)
    twin: str | None = None


def _matches(text: str, pinned: str) -> bool:
    pattern = ".*".join(map(re.escape, pinned.split("…")))
    return re.fullmatch(pattern, text, re.DOTALL) is not None


def problems(case: Case, code: int, out: str, err: str) -> list[str]:
    """What a run's exit code, stdout and stderr break of the contract:
    no traceback, the case's code, and on exit 2 an empty stdout and one
    `error: ` line of under 200 characters that matches the pinned one."""
    found = []
    if "Traceback" in err:
        found.append(f"traceback: {err[-300:]!r}")
    if code != case.code:
        found.append(f"exit {code}, expected {case.code}: {err[:300]!r}")
    elif code == 2:
        line = err.removesuffix("\n")
        if not line.startswith("error: ") or "\n" in line or len(err) >= 200:
            found.append(f"stderr is not one short error line: {err[:300]!r}")
        elif not _matches(line.removeprefix("error: "), case.error):
            found.append(f"error {line!r}, expected {case.error!r}")
        if out:
            found.append(f"stdout on exit 2: {out[:300]!r}")
    if case.stdout is not None and not _matches(out, case.stdout):
        found.append(f"stdout {out[:300]!r}, expected {case.stdout!r}")
    if case.verdict is not None:
        try:
            verdict = json.loads(out)
        except ValueError:
            return [*found, f"stdout is not a JSON verdict: {out[:300]!r}"]
        for key, value in case.verdict.items():
            if verdict.get(key) != value:
                found.append(f"verdict {key} is {verdict.get(key)!r}, expected {value!r}")
    return found


def write_files(case: Case, where: Path) -> None:
    for name, content in case.files.items():
        if isinstance(content, bytes):
            (where / name).write_bytes(content)
        else:
            (where / name).write_text(content, encoding="utf-8")


# -- inputs ---------------------------------------------------------------------

BDC = '{"mr":1,"dr":2,"mf":1,"df":2}'
BDC_23 = '{"mr":2,"dr":3,"mf":2,"df":3}'
BAD_CC = '{"mr":0,"dr":3,"mf":0,"df":2}'
AIC = '{"deltar":1,"deltaf":1}'
AIC_ATOM = '{"kind":"aic","deltar":1,"deltaf":1}'
ZERO_BDC = '{"mr":0,"dr":0,"mf":0,"df":0}'
NINES = "9" * 4300  # the longest integer that is read
NINES_BDC = f'{{"mr":0,"dr":{NINES},"mf":0,"df":{NINES}}}'
LONG = NINES + "9"  # one digit more than int() converts from text
CUT = f"-{NINES[:39]}... (4300 digits)"  # -NINES as an error message shows it
# nested past the depth at which json gives up on every Python version
# (the recursion limit of 1000 frames, or from 3.12 on a C-level limit of
# some thousands), yet one argument within the 128 KiB that Linux allows
DEEP = "[" * 50_000 + "]" * 50_000
XS = "x" * 3000  # a JSON string or an option value far past the 40 characters shown
YS = "y" * 3000
LONG_PATH = "w" * 195 + ".wave"  # a file name of 200 characters


def netlist(inputs: list, outputs: list, *gates: tuple) -> dict:
    """A netlist object; each gate is (name, inputs, table, delay)."""
    keys = ("name", "inputs", "table", "delay")
    return {"inputs": inputs, "outputs": outputs, "gates": [dict(zip(keys, g)) for g in gates]}


FIXED_0 = {"kind": "fixed", "d": 0}
FIXED_2 = {"kind": "fixed", "d": 2}


def and_gate(name: str = "y", delay=None) -> dict:
    """A netlist of one AND gate of inputs a and b, whose output is `name`."""
    return netlist(["a", "b"], [name], (name, ["a", "b"], [0, 0, 0, 1], delay or FIXED_2))


AND_NET = and_gate()
AND_STIM = "a 0 0\nb 0 1\n"
BUF_NET = netlist(["a"], ["y"], ("y", ["a"], [0, 1], FIXED_0))
RECONV_NET = netlist(
    ["a"], ["y"],
    ("n", ["a"], [1, 0], {"kind": "fixed", "d": 1}),
    ("y", ["a", "n"], [0, 0, 0, 1], {"kind": "bridc", "mr": 1, "dr": 2, "mf": 0, "df": 1}),
)
RECONV_STIM = "a 0 2 6 7 12\n"
LOOP_NET = netlist(
    ["a"], ["x"], ("x", ["y"], [0, 1], FIXED_0), ("y", ["x"], [0, 1], FIXED_0)
)
# a ring of three inversions, gated by en: it oscillates once en rises
RING_NET = netlist(
    ["en"], ["r2"],
    ("r0", ["en", "r2"], [1, 1, 1, 0], {"kind": "fixed", "d": 1}),
    ("r1", ["r0"], [1, 0], {"kind": "bridc", "mr": 1, "dr": 2, "mf": 1, "df": 2}),
    ("r2", ["r1"], [1, 0], FIXED_2),
)
# XOR and XNOR tables, which the simulator builds from the inputs' switch
# sets; z reads x twice, which cancels, so it follows c
PARITY_NET = netlist(
    ["a", "b", "c"], ["x"],
    ("x", ["a", "b"], [0, 1, 1, 0], {"kind": "fixed", "d": 1}),
    ("xn", ["a", "b", "c"], [1, 0, 0, 1, 0, 1, 1, 0],
     {"kind": "bridc", "mr": 1, "dr": 2, "mf": 1, "df": 2}),
    ("z", ["x", "c", "x"], [0, 1, 1, 0, 1, 0, 0, 1], FIXED_0),
)
PARITY_STIM = "a 0 1 3 4 8\nb 0 3 5 6\nc 1 2 7\n"
PARITY_VCD = """\
$timescale 1ns $end
$scope module top $end
$var wire 1 ! a $end
$var wire 1 " b $end
$var wire 1 # c $end
$var wire 1 $ x $end
$var wire 1 % xn $end
$var wire 1 & z $end
$upscope $end
$enddefinitions $end
$dumpvars
0!
0"
1#
0$
0%
1&
$end
#1
1!
#2
0#
1$
0&
#3
0!
1"
#4
1!
#5
0"
0$
#6
1"
1$
#7
1#
0$
1&
#8
0!
#9
1$
#10
1%
"""
_CHAIN = ["g%05d" % k for k in range(1100, 0, -1)]  # named against the flow
CHAIN_NET = netlist(
    ["a"], [_CHAIN[-1]], *((g, [s], [1, 0], FIXED_0) for g, s in zip(_CHAIN, ["a"] + _CHAIN))
)
INT_WAVE = "x 0 0 2 5\n"


def ring_of_8(length: int) -> dict:
    """A zero-delay loop of 8 buffers, each named by one letter `length`
    times and reading the one named before it."""
    names = [chr(97 + k) * length for k in range(8)]
    return netlist(["a"], [names[0]],
                   *((n, [names[k - 1]], [0, 1], FIXED_0) for k, n in enumerate(names)))


def simulate(case_id, net, code, error=None, *more_argv, stim=AND_STIM, horizon="0:10",
             **more):
    """A `simulate` case: the netlist (an object or JSON text) and the
    stimuli go to net.json and stim.wave."""
    text = net if isinstance(net, str) else json.dumps(net)
    return Case(
        case_id,
        ["simulate", "--netlist", "net.json", "--stimuli", "stim.wave", f"--horizon={horizon}",
         *more_argv],
        code, error, files={"net.json": text, "stim.wave": stim}, **more,
    )


def check_aic(case_id, wave, code, error=None, *more_argv, **more):
    """A `check --cond aic` case on the output waveform text `wave`."""
    return Case(
        case_id,
        ["check", "--cond", "aic", "--params", AIC, "--output", "x.wave", *more_argv],
        code, error, files={"x.wave": wave}, **more,
    )


def solve(case_id, params, wave, code, error=None, *more_argv, cond="bdc-min", **more):
    """A `solve` case on the input waveform text `wave`."""
    return Case(
        case_id,
        ["solve", "--cond", cond, "--params", params, "--input", "u.wave", *more_argv],
        code, error, files={"u.wave": wave}, **more,
    )


def check_config(case_id, config, code, error=None):
    """A `check --cond aic` case on an integer waveform under the run
    config text `config`."""
    return Case(
        case_id,
        ["check", "--cond", "aic", "--params", AIC, "--output", "x.wave",
         "--config", "run.cfg"],
        code, error, files={"x.wave": INT_WAVE, "run.cfg": config},
    )


def enumerate_aic(case_id, grid, code, error=None, *more_argv, wave="u 0\n", **more):
    """An `oracle enumerate` case of the AIC atom over a flat input."""
    return Case(
        case_id,
        ["oracle", "enumerate", "--atoms", AIC_ATOM, "--input", "u.wave", f"--grid={grid}",
         *more_argv],
        code, error, files={"u.wave": wave}, **more,
    )


VERIFY = ["oracle", "verify", "--theorem", "t14e"]
GROWN = "an_integer_grown_past_the_bound_exits_2_with_one_error_line"

# -- the cases -------------------------------------------------------------------

CASES = [
    # consistent
    Case("consistent_cc_pass", ["consistent", "--cond", "cc", "--params", BDC], 0,
         verdict={"holds": True, "detail": "CC holds"}),
    Case("consistent_cc_fail_lists_violations",
         ["consistent", "--cond", "cc", "--params", '{"mr":0,"dr":1,"mf":0,"df":3}'], 1,
         verdict={"detail": "CC violated", "violations": ["dr >= df - mf fails (1 >= 3 - 0)"]}),
    Case("consistent_refuses_a_parameter_that_is_not_an_integer",
         ["consistent", "--cond", "cc", "--params", '{"mr":1.9,"dr":2,"mf":1,"df":2}'], 2,
         "bad bdc parameters: mr must be an integer, got 1.9"),
    Case("consistent_baidc_requires_hold",
         ["consistent", "--cond", "baidc", "--params", BDC], 2,
         "--hold is required for baidc"),
    Case("consistent_bridc_regime",
         ["consistent", "--cond", "bridc", "--params", '{"mr":2,"dr":4,"mf":2,"df":4}',
          "--edge", '{"mur":1,"deltar":3,"muf":1,"deltaf":3}'], 0,
         verdict={"cases": ["b.i", "b.iii"], "detail": "regime b.i applies"}),
    Case("consistent_bridc_solvable_outside_regimes",
         ["consistent", "--cond", "bridc", "--params", '{"mr":0,"dr":2,"mf":4,"df":4}',
          "--edge", '{"mur":0,"deltar":0,"muf":0,"deltaf":1}'], 0,
         verdict={"cases": [], "detail": "solvable, outside the named regimes"}),
    Case("consistent_bridc_unsolvable",
         ["consistent", "--cond", "bridc", "--params", '{"mr":0,"dr":2,"mf":0,"df":2}',
          "--edge", '{"mur":1,"deltar":5,"muf":1,"deltaf":5}'], 1,
         verdict={"detail": "some input admits no output"}),
    # algebra
    Case("algebra_intersect_defined",
         ["algebra", "--op", "intersect", "--p", BDC, "--q", BDC_23], 0,
         verdict={"defined": True, "result": {"mr": 1, "dr": 2, "mf": 1, "df": 2}}),
    Case("algebra_intersect_refused_for_disjoint_shifts",
         ["algebra", "--op", "intersect", "--p", '{"mr":0,"dr":1,"mf":0,"df":1}',
          "--q", '{"mr":0,"dr":3,"mf":0,"df":3}'], 1,
         verdict={"detail": "some input admits no output meeting both conditions"}),
    Case("algebra_intersect_refused_for_unmergeable_pair",
         ["algebra", "--op", "intersect", "--p", '{"mr":1,"dr":1,"mf":2,"df":2}', "--q", BDC], 1,
         verdict={"detail": "the conjunction is not a single window condition"}),
    Case("algebra_compose",
         ["algebra", "--op", "compose", "--p", BDC, "--q", BDC_23], 0,
         verdict={"result": {"mr": 3, "dr": 5, "mf": 3, "df": 5}}),
    Case("algebra_missing_q_is_a_usage_error",
         ["algebra", "--op", "intersect", "--p", BDC], 2,
         "--q is required for intersect"),
    # check and solve
    Case("check_bdc_requires_input",
         ["check", "--cond", "bdc", "--params", BDC, "--output", "x.wave"], 2,
         "--input is required for bdc", files={"x.wave": "x 0 3 8\n"}),
    check_aic("check_aic_needs_no_input", INT_WAVE, 0, verdict={"holds": True}),
    solve("solve_deterministic_output", BDC, "u 0 0 3\n", 0, cond="bridc-det",
          stdout="x 0 2 5\n"),
    # the 1-tick pulses at 0, 5, 6 and 15 are swallowed
    solve("solve_deterministic_output_swallows_short_pulses", BDC,
          "u 0 0 1 3 5 6 7 9 15 16 22\n", 0, cond="bridc-det", stdout="x 0 5 9 11 24\n"),
    solve("solve_rejects_inconsistent_parameters", BAD_CC, "u 0 0 3\n", 2,
          "CC violated: df >= dr - mr fails (2 >= 3 - 0)"),
    check_aic("a_bad_time_exits_2_naming_the_cause[fraction]", "u 0 1.5\n", 2,
              "line 1: time '1.5' does not land on a tick at resolution 1"),
    check_aic("a_bad_time_exits_2_naming_the_cause[exponent]", "u 0 1e99999\n", 2,
              "line 1: time '1e99999' has an exponent of more than 4 digits"),
    # a decimal of any length is read exactly, whatever int()'s digit limit
    check_aic("a_bad_time_exits_2_naming_the_cause[long-decimal]",
              f"u 0 1.5{'0' * 5000}1\n", 2,
              f"line 1: time '1.5{'0' * 37}'... (5004 chars) does not land on a tick "
              "at resolution 1"),
    check_aic("a_bad_time_exits_2_naming_the_cause[small-decimal]",
              f"u 0 0.{'0' * 5000}1\n", 2,
              f"line 1: time '0.{'0' * 38}'... (5003 chars) does not land on a tick "
              "at resolution 1"),
    # `_` groups digits on every Python, 3.10 included
    Case("digit_groups_read_at_any_resolution",
         ["solve", "--cond", "bdc-min", "--params", ZERO_BDC, "--input", "u.wave",
          "--config", "run.cfg"], 0, stdout="x 0 2000\n",
         files={"u.wave": "u 0 1_000\n", "run.cfg": "resolution = 2\n"}),
    solve("zeros_that_pad_a_time_are_not_counted_as_digits[lead]", ZERO_BDC,
          f"u 0 {'0' * 4301}1\n", 0, stdout="x 0 1\n"),
    solve("zeros_that_pad_a_time_are_not_counted_as_digits[end]", ZERO_BDC,
          f"u 0 1.{'0' * 5000}\n", 0, stdout="x 0 1\n"),
    check_aic("zeros_that_pad_a_time_are_not_counted_as_digits[check-lead]",
              f"u 0 {'0' * 4301}1\n", 0),
    check_aic("zeros_that_pad_a_time_are_not_counted_as_digits[check-end]",
              f"u 0 1.{'0' * 5000}\n", 0),
    # simulate
    simulate("simulate_runs_a_netlist[reconvergent]", RECONV_NET, 0,
             stim=RECONV_STIM, horizon="0:20"),
    simulate("simulate_runs_a_netlist[parity]", PARITY_NET, 0, stim=PARITY_STIM,
             horizon="0:12", stdout=PARITY_VCD),
    simulate("simulate_runs_a_netlist[chain-1100]", CHAIN_NET, 0, None, "-o", "chain.vcd",
             stim=RECONV_STIM, horizon="0:20",
             twin="tests/test_circuit.py::"
                  "test_a_long_zero_delay_chain_named_against_the_flow_builds_and_simulates"),
    simulate("simulate_refuses_a_zero_delay_loop", LOOP_NET, 2,
             "zero-delay cycle through gates x -> y -> x", stim=RECONV_STIM, horizon="0:20"),
    simulate("simulate_rejects_bad_horizon", AND_NET, 2,
             "bad horizon '10': expected LO:HI", horizon="10"),
    simulate("simulate_refuses_a_loop_past_the_switch_limit", RING_NET, 2,
             "the loop through gate 'r0' switches more than 10000000 times before the horizon ends",
             stim="en 0 5\n", horizon="0:1000000000"),
    # en held at 1 leaves three inversions, which have no constant state
    simulate("simulate_refuses_a_ring_oscillator", RING_NET, 2,
             "the loop through gate 'r0' does not settle to a constant prehistory",
             stim="en 1\n", horizon="0:10"),
    # tagged as pytest numbered these delays, so that the test ids hold
    simulate("simulate_names_the_gate_with_a_bad_delay[delay0]",
             and_gate(delay={"kind": "bridc", "mr": "x", "dr": 2, "mf": 0, "df": 2}), 2,
             "gate 'y': mr must be an integer, got 'x'"),
    simulate("simulate_names_the_gate_with_a_bad_delay[delay1]",
             and_gate(delay={"kind": "bridc", "mr": 3, "dr": 2, "mf": 0, "df": 2}), 2,
             "gate 'y': need 0 <= mr <= dr, got mr=3 dr=2"),
    simulate("simulate_names_the_gate_with_a_bad_delay[delay2]",
             and_gate(delay={"kind": "fixed", "d": 1.5}), 2,
             "gate 'y': d must be an integer, got 1.5"),
    simulate("simulate_names_the_gate_with_a_bad_delay[3]",
             and_gate(delay=3), 2,
             "gate 'y': a delay must be an object, got 3"),
    simulate("simulate_rejects_a_file_that_is_not_utf8", AND_NET, 2,
             "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte",
             stim=b"a 0 \xff\n"),
    # integers grown past the bound: a 4300-digit input tick plus a
    # 4300-digit delay, and delays composed by adding their bounds
    solve(f"{GROWN}[solve]", NINES_BDC, f"u 0 {NINES}\n", 2,
          "net 'x': a tick of 4301 digits, more than the 4300 that can be written"),
    Case(f"{GROWN}[compose]",
         ["algebra", "--op", "compose", "--p", NINES_BDC, "--q", NINES_BDC], 2,
         "result dr: an integer of 4301 digits, more than the 4300 that can be written"),
    # the VCD shifts the ticks up by the 4299-digit offset, and the last
    # one then has 4301 digits
    simulate(f"{GROWN}[vcd-timestamp]", BUF_NET, 2,
             "net 'a': a VCD timestamp of 4301 digits, more than the 4300 that can be written",
             stim=f"a 0 -{NINES[1:]} {NINES}\n", horizon=f"-{NINES}:{NINES}"),
    # a span of 4301 digits, and one of 4300 that is not echoed either
    enumerate_aic(f"{GROWN}[grid-span]", f"-{NINES}:{NINES}", 2,
                  "horizon spans more than the 80-tick limit"),
    enumerate_aic(f"{GROWN}[grid-bound]", f"0:{NINES}", 2,
                  "horizon spans more than the 80-tick limit"),
    # bounds in the wrong order, and a reach past the table limit: neither
    # integer is echoed
    enumerate_aic(f"{GROWN}[grid-order]", f"{NINES}:0", 2,
                  "need lo < hi"),
    Case(f"{GROWN}[witness-reach]",
         ["oracle", "witness", "--atoms", f'{{"kind":"bdc","mr":0,"dr":{NINES},"mf":0,"df":0}}'],
         2, "condition reads the input further back than the 12-tick limit"),
    simulate(f"{GROWN}[horizon-order]", RECONV_NET, 2,
             "empty horizon: need lo <= hi", stim=RECONV_STIM, horizon=f"{NINES}:0"),
    # a time read past int()'s digit limit, cut short in the message
    check_aic(f"{GROWN}[long-time]", f"u 0 {'9' * 5000}\n", 2,
              f"line 1: time {'9' * 40!r}... (5000 chars): a tick of 5000 digits, "
              "more than the 4300 that can be written"),
    # values out of range: the field is named and the value cut short
    check_config(f"{GROWN}[resolution]", f"resolution = -{NINES}\n", 2,
                 f"resolution must be >= 1, got {CUT}"),
    Case(f"{GROWN}[bdc-mr]",
         ["consistent", "--cond", "cc", "--params", f'{{"mr":-{NINES},"dr":2,"mf":0,"df":2}}'],
         2, f"bad bdc parameters: need 0 <= mr <= dr, got mr={CUT} dr=2"),
    Case(f"{GROWN}[aic-deltar]",
         ["consistent", "--cond", "baidc", "--params", BDC,
          "--hold", f'{{"deltar":-{NINES},"deltaf":1}}'], 2,
         f"bad aic parameters: hold times must be >= 0, got delta_r={CUT} delta_f=1"),
    Case(f"{GROWN}[ric-mur]",
         ["consistent", "--cond", "bridc", "--params", BDC,
          "--edge", f'{{"mur":-{NINES},"deltar":1,"muf":0,"deltaf":1}}'], 2,
         f"bad ric parameters: need 0 <= mu_r <= delta_r, got mu_r={CUT} delta_r=1"),
    simulate(f"{GROWN}[fixed-d]",
             netlist(["a"], ["y"], ("y", ["a"], [0, 1], {"kind": "fixed", "d": -int(NINES)})),
             2, f"gate 'y': fixed delay must be >= 0, got d={CUT}",
             stim="a 0 1\n", horizon="0:4"),
    # a CC failure names the failed inequality, its values cut short
    solve(f"{GROWN}[cc]", f'{{"mr":0,"dr":{NINES},"mf":0,"df":0}}', INT_WAVE, 2,
          f"CC violated: df >= dr - mr fails (0 >= {NINES[:40]}... (4300 digits) - 0)"),
    Case("an_integer_option_that_is_not_an_integer_exits_2[--seed]",
         [*VERIFY, "--seed", "x1"], 2,
         "bad --seed 'x1': expected an integer"),
    # oracle
    enumerate_aic("oracle_enumerate_names_one_input_switch_outside_the_grid", "0:10", 2,
                  "input switch 12 of 951 at tick 11 leaves the grid",
                  wave="u 0 " + " ".join(map(str, range(951))) + "\n"),
    # the decider on one expression, through the console script: the
    # prehistory 1, a fall held one tick, then a rise it cannot follow
    Case("oracle_witness_names_the_first_emptying_input",
         ["oracle", "witness", "--atoms",
          '[{"kind":"bdc","mr":0,"dr":0,"mf":0,"df":0},{"kind":"aic","deltar":0,"deltaf":1}]'],
         0, stdout="u 1 0 1\n"),
    Case("oracle_witness_not_found",
         ["oracle", "witness", "--atoms", '{"kind":"bdc","mr":1,"dr":2,"mf":1,"df":2}'], 1,
         stdout="no witness found: every input admits an output\n"),
    Case("oracle_witness_refuses_a_reach_past_the_table_limit",
         ["oracle", "witness", "--atoms", '{"kind":"bdc","mr":0,"dr":13,"mf":0,"df":2}'], 2,
         "condition reads the input further back than the 12-tick limit"),
    Case("oracle_verify_reports_a_summary",
         VERIFY, 0,
         stdout="t14e: PASS (100 trials, 0 failures, …"),
    # neither a suite's size nor a listing's switch count is an option
    Case("a_removed_option_exits_2[--trials]",
         [*VERIFY, "--trials", "999999999999"], 2,
         "unrecognized arguments: --trials 999999999999"),
    enumerate_aic("a_removed_option_exits_2[--max-switches]", "0:4", 2,
                  "unrecognized arguments: --max-switches 2", "--max-switches", "2"),
    # a sweep of a fixed set reads no seed
    Case("oracle_verify_refuses_a_seed_for_a_sweep",
         ["oracle", "verify", "--theorem", "t45", "--seed", "1"], 2,
         "t45 sweeps a fixed set: it takes no trial count or seed"),
    # Random seeds with abs(n), so a negative seed would rerun another's draws
    *(Case(f"oracle_verify_refuses_a_negative_seed[{tag}]", [*VERIFY, "--seed", seed], 2,
           f"seed must be an integer >= 0, got {shown}")
      for tag, seed, shown in [
          ("-1", "-1", "-1"),
          ("-4000-digits", "-" + NINES[:4000], f"-{NINES[:39]}... (4000 digits)"),
      ]),
    # a suite's seed is set by --seed alone
    Case("oracle_verify_takes_no_config",
         [*VERIFY, "--config", "run.cfg"], 2,
         "unrecognized arguments: --config run.cfg", files={"run.cfg": "seed = 7\n"}),
    check_config("a_run_config_refuses_the_key_seed", "# run\nseed = 7\n", 2,
                 "config line 2: unknown key 'seed'"),
    *(Case(f"oracle_verify_passes[{suite}]", ["oracle", "verify", "--theorem", suite], 0,
           stdout=f"{suite}: PASS (…{tail}", twin=f"tests/test_acceptance.py::{twin}")
      for suite, tail, twin in [
          ("t1", "", "test_criterion_1_solution_existence_and_bounds"),
          ("t14b", "", "test_criterion_2_window_algebra_set_laws"),
          ("baidc", "[witnesses=2048]\n",
           "test_criterion_5_hold_consistency_and_serial_composition"),
          ("baidc-serial", "", "test_criterion_5_hold_consistency_and_serial_composition"),
          ("t45", ", witnesses=42078]\n", "test_criterion_7_licensed_window_consistency"),
      ]),
    # malformed input
    solve("a_net_name_the_text_cannot_carry_exits_2[space]", BDC, INT_WAVE, 2,
          "net name 'x y': a name must be non-empty, without whitespace or '#'",
          "--name", "x y"),
    solve("a_net_name_the_text_cannot_carry_exits_2[empty]", BDC, INT_WAVE, 2,
          "net name '': a name must be non-empty, without whitespace or '#'",
          "--name", ""),
    solve("a_net_name_the_text_cannot_carry_exits_2[hash]", BDC, INT_WAVE, 2,
          "net name 'x#1': a name must be non-empty, without whitespace or '#'",
          "--name", "x#1", cond="bridc-det"),
    # a gate name that a VCD $var line cannot carry
    simulate("a_net_name_the_text_cannot_carry_exits_2[vcd-gate]", and_gate("y z"), 2,
             "net name 'y z': a name must be non-empty, without whitespace or '#'"),
    simulate("a_netlist_field_that_is_not_a_list_exits_2_naming_it[inputs]",
             {**AND_NET, "inputs": "ab"}, 2,
             "netlist: 'inputs' must be a JSON list"),
    simulate("a_netlist_field_that_is_not_a_list_exits_2_naming_it[outputs]",
             {**AND_NET, "outputs": "y"}, 2,
             "netlist: 'outputs' must be a JSON list"),
    simulate("a_netlist_field_that_is_not_a_list_exits_2_naming_it[gates]",
             {**AND_NET, "gates": {"y": AND_NET["gates"][0]}}, 2,
             "netlist: 'gates' must be a JSON list"),
    simulate("a_netlist_field_that_is_not_a_list_exits_2_naming_it[gate-inputs]",
             {**AND_NET, "gates": [{**AND_NET["gates"][0], "inputs": "ab"}]}, 2,
             "gate 'y': 'inputs' must be a JSON list"),
    simulate("a_netlist_field_that_is_not_a_list_exits_2_naming_it[gate-table]",
             {**AND_NET, "gates": [{**AND_NET["gates"][0], "table": 7}]}, 2,
             "gate 'y': 'table' must be a JSON list"),
    # a JSON value of the wrong shape is named, not left to Python's message
    Case("a_json_value_of_the_wrong_shape_exits_2_naming_it[atom-not-an-object]",
         ["oracle", "witness", "--atoms", "[3]"], 2,
         "bad condition atom: an atom must be an object, got 3"),
    Case("a_json_value_of_the_wrong_shape_exits_2_naming_it[atom-missing-key]",
         ["oracle", "witness", "--atoms", '{"kind":"bdc","mr":1,"dr":2,"mf":1}'], 2,
         "bad condition atom: missing key 'df'"),
    simulate("a_json_value_of_the_wrong_shape_exits_2_naming_it[gate-not-an-object]",
             {**AND_NET, "gates": [3]}, 2,
             "netlist: a gate must be an object, got 3"),
    simulate("a_json_value_of_the_wrong_shape_exits_2_naming_it[gate-missing-key]",
             netlist(["a", "b"], ["y"], ("y", ["a", "b"], [0, 0, 0, 1])), 2,
             "gate 'y': missing key 'delay'"),
    Case("bad_parameter_json",
         ["consistent", "--cond", "cc", "--params", "{oops"], 2,
         "bad bdc parameter JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
    solve("missing_waveform_name", BDC, AND_STIM, 2,
          "input file u.wave contains 2 waveforms; name one with --input-name"),
    Case("missing_file",
         ["solve", "--cond", "bdc-min", "--params", BDC, "--input", "nope.wave"], 2,
         "[Errno 2] No such file or directory: 'nope.wave'"),
    check_aic("a_missing_waveform_name_is_cut_short", INT_WAVE, 2,
              f"output file x.wave has no waveform named {NINES[:40]!r}... (4300 chars)",
              "--output-name", NINES),
    # JSON nested past the recursion limit, and keys that no field takes
    Case("json_nested_too_deep_exits_2[params]",
         ["consistent", "--cond", "cc", "--params", DEEP], 2,
         "bad bdc parameter JSON: nested too deep"),
    Case("json_nested_too_deep_exits_2[atoms]",
         ["oracle", "witness", "--atoms", DEEP], 2,
         "bad condition JSON: nested too deep"),
    simulate("json_nested_too_deep_exits_2[netlist]", DEEP, 2,
             "bad netlist JSON: nested too deep"),
    Case("an_unknown_json_key_exits_2[params]",
         ["consistent", "--cond", "cc", "--params", '{"mr":1,"dr":2,"mf":1,"df":2,"zz":1}'], 2,
         "bad bdc parameters: unknown key 'zz'; expected mr, dr, mf, df"),
    Case("an_unknown_json_key_exits_2[atom]",
         ["oracle", "witness", "--atoms", '{"kind":"aic","deltar":1,"deltaf":1,"dr":1}'], 2,
         "bad condition atom: unknown key 'dr'; expected deltar, deltaf"),
    simulate("an_unknown_json_key_exits_2[delay]",
             and_gate(delay={"kind": "fixed", "d": 2, "dd": 1}), 2,
             "gate 'y': unknown key 'dd'; expected d"),
    simulate("an_unknown_json_key_exits_2[netlist]", {**AND_NET, "note": "x"}, 2,
             "netlist: unknown key 'note'; expected inputs, gates, outputs"),
    simulate("an_unknown_json_key_exits_2[gate]",
             {**AND_NET, "gates": [{**AND_NET["gates"][0], "comment": "x"}]}, 2,
             "gate 'y': unknown key 'comment'; expected name, inputs, table, delay"),
    # only atoms and delays have a kind
    simulate("an_unknown_json_key_exits_2[gate-kind]",
             {**AND_NET, "gates": [{**AND_NET["gates"][0], "kind": "and"}]}, 2,
             "gate 'y': unknown key 'kind'; expected name, inputs, table, delay"),
    # a net name is a JSON string: another value is refused, not read as its str()
    simulate("a_net_name_that_is_not_a_string_exits_2[netlist-inputs]",
             {**AND_NET, "inputs": ["a", None],
              "gates": [{**AND_NET["gates"][0], "inputs": ["a", "None"]}]}, 2,
             "netlist: an item of 'inputs' must be a JSON string, got None",
             stim="a 0 0\nNone 0 1\n"),
    simulate("a_net_name_that_is_not_a_string_exits_2[netlist-outputs]",
             {**AND_NET, "outputs": [7]}, 2,
             "netlist: an item of 'outputs' must be a JSON string, got 7"),
    simulate("a_net_name_that_is_not_a_string_exits_2[gate-name]",
             {**AND_NET, "outputs": [], "gates": [{**AND_NET["gates"][0], "name": 7}]}, 2,
             "a netlist gate: name must be a JSON string, got 7"),
    simulate("a_net_name_that_is_not_a_string_exits_2[gate-inputs]",
             {**AND_NET, "gates": [{**AND_NET["gates"][0], "inputs": ["a", {"x": 1}]}]}, 2,
             "gate 'y': an item of 'inputs' must be a JSON string, got {'x': 1}"),
    # a long JSON value or option value is cut short
    Case("a_long_value_is_cut_short[atom-kind]",
         ["oracle", "witness", "--atoms", json.dumps({"kind": XS})], 2,
         f"bad condition atom: unknown condition kind in {{'kind': '{XS[:30]}... (3012 chars)"),
    simulate("a_long_value_is_cut_short[delay-kind]", and_gate(delay={"kind": XS}), 2,
             f"gate 'y': unknown delay kind in {{'kind': '{XS[:30]}... (3012 chars)"),
    simulate("a_long_value_is_cut_short[delay-value]", and_gate(delay=[XS]), 2,
             f"gate 'y': a delay must be an object, got ['{XS[:38]}... (3004 chars)"),
    simulate("a_long_value_is_cut_short[gate-name]", and_gate(XS, delay={"kind": "bogus"}), 2,
             f"gate '{XS[:40]}'... (3000 chars): unknown delay kind in {{'kind': 'bogus'}}"),
    simulate("a_long_value_is_cut_short[loop-names]",
             netlist(["a"], [XS], (XS, [YS], [0, 1], FIXED_0), (YS, [XS], [0, 1], FIXED_0)), 2,
             f"zero-delay cycle through gates '{XS[:20]}'... (3000 chars) -> "
             f"'{YS[:20]}'... (3000 chars) -> '{XS[:20]}'... (3000 chars)"),
    # a loop's names are cut short to 130 characters, here 3 of 8 names
    simulate("a_long_value_is_cut_short[loop-of-8-names-of-40-chars]", ring_of_8(40), 2,
             f"zero-delay cycle through gates {'a' * 40} -> {'h' * 40} -> {'g' * 40}"
             " -> ... (8 gates)"),
    simulate("a_long_value_is_cut_short[loop-of-8-names-of-41-chars]", ring_of_8(41), 2,
             "zero-delay cycle through gates "
             + " -> ".join(f"'{c * 20}'... (41 chars)" for c in "ahg") + " -> ... (8 gates)"),
    simulate("a_long_value_is_cut_short[missing-input]",
             netlist([XS], ["y"], ("y", [XS], [0, 1], FIXED_0)), 2,
             f"missing stimuli for inputs: '{XS[:40]}'... (3000 chars)"),
    # waveform names, config keys and values, ticks and file paths
    check_aic("a_long_value_is_cut_short[duplicate-signal]", f"{XS[:300]} 0\n{XS[:300]} 1\n", 2,
              f"line 2: duplicate signal {XS[:40]!r}... (300 chars)"),
    check_config("a_long_value_is_cut_short[config-key]", f"{XS[:300]} = 1\n", 2,
                 f"config line 1: unknown key {XS[:40]!r}... (300 chars)"),
    check_config("a_long_value_is_cut_short[config-time-unit]", f"time_unit = {XS[:300]}\n", 2,
                 "time_unit must be 1, 10 or 100 followed by s, ms, us, ns, ps or fs, "
                 f"got {XS[:40]!r}... (300 chars)"),
    check_aic("a_long_value_is_cut_short[decreasing-ticks]", f"x 0 {NINES[:300]} {NINES[:299]}\n",
              2, f"line 1: switch times must strictly increase ({NINES[:40]}... (300 digits) "
              f"then {NINES[:40]}... (299 digits))"),
    Case("a_long_value_is_cut_short[path-of-no-waveforms]",
         ["check", "--cond", "aic", "--params", AIC, "--output", LONG_PATH], 2,
         f"output file {LONG_PATH[:40]!r}... (200 chars) contains no waveforms",
         files={LONG_PATH: "# none\n"}),
    Case("a_long_value_is_cut_short[path-without-the-name]",
         ["check", "--cond", "aic", "--params", AIC, "--output", LONG_PATH, "--output-name", "y"],
         2, f"output file {LONG_PATH[:40]!r}... (200 chars) has no waveform named 'y'",
         files={LONG_PATH: INT_WAVE}),
    Case("a_long_value_is_cut_short[path-of-two-waveforms]",
         ["check", "--cond", "aic", "--params", AIC, "--output", LONG_PATH], 2,
         f"output file {LONG_PATH[:40]!r}... (200 chars) contains 2 waveforms; "
         "name one with --output-name", files={LONG_PATH: INT_WAVE + "y 0\n"}),
    Case("a_long_value_is_cut_short[missing-input-file]",
         ["solve", "--cond", "bdc-min", "--params", BDC, "--input", XS[:250]], 2,
         f"[Errno 2] No such file or directory: {XS[:40]!r}... (250 chars)"),
    solve("a_long_value_is_cut_short[missing-output-directory]", BDC, INT_WAVE, 2,
          f"[Errno 2] No such file or directory: {'nowhere/' + XS[:32]!r}... (250 chars)",
          "-o", "nowhere/" + XS[:242]),
    solve("a_long_value_is_cut_short[net-name-of-a-tick]", NINES_BDC, f"u 0 {NINES}\n", 2,
          f"net {XS[:40]!r}... (3000 chars): a tick of 4301 digits, more than the 4300 "
          "that can be written", "--name", XS),
    simulate("a_long_value_is_cut_short[net-name-of-a-vcd-timestamp]",
             netlist([XS], ["y"], ("y", [XS], [0, 1], FIXED_0)), 2,
             f"net {XS[:40]!r}... (3000 chars): a VCD timestamp of 4301 digits, more than "
             "the 4300 that can be written",
             stim=f"{XS} 0 -{NINES[1:]} {NINES}\n", horizon=f"-{NINES}:{NINES}"),
    # argparse's own errors: one line, the value cut short
    Case("a_long_value_is_cut_short[option-choice]",
         ["check", "--cond", XS, "--params", AIC, "--output", "x.wave"], 2,
         f"argument --cond: invalid choice: '{XS[:66]}... (… chars)"),
    Case("an_argument_error_is_one_line[invalid-choice]",
         ["check", "--cond", "zzz", "--params", AIC, "--output", "x.wave"], 2,
         "argument --cond: invalid choice: 'zzz' (choose from …)"),
    Case("an_argument_error_is_one_line[missing-option]", ["check", "--cond", "aic"], 2,
         "the following arguments are required: --params, --output"),
    Case("an_argument_error_is_one_line[missing-command]", [], 2,
         "the following arguments are required: command"),
]

# Integers past int()'s limit of 4300 digits on reading text, a limit
# Python has had since 3.10.7 and 3.11; without it these cases read the
# integer and end elsewhere.
if hasattr(sys, "get_int_max_str_digits"):
    LONG_BDC = f'{{"mr":0,"dr":{LONG},"mf":0,"df":2}}'
    OPTION = "an_option_or_config_integer_too_long_to_read_exits_2_naming_the_cause"
    # LONG as `parse_int` shows it, and int()'s own message, whose limit
    # reads `(4300)` before Python 3.11 and `(4300 digits)` from then on
    READ = f"'{NINES[:40]}'... (4301 chars): an integer of 4301 digits, " \
        "more than the 4300 that can be read"
    INT_LIMIT = "Exceeds the limit (4300…) for integer string conversion: value has 4301 " \
        "digits; use sys.set_int_max_str_digits() to increase the limit"
    CASES += [
        Case("an_integer_too_long_to_read_exits_2_naming_the_input[bdc parameter]",
             ["consistent", "--cond", "cc", "--params", LONG_BDC], 2,
             f"bad bdc parameter JSON: {INT_LIMIT}"),
        simulate("an_integer_too_long_to_read_exits_2_naming_the_input[netlist]",
                 json.dumps(AND_NET).replace('"d": 2', f'"d": {LONG}'), 2,
                 f"bad netlist JSON: {INT_LIMIT}"),
        Case("an_integer_too_long_to_read_exits_2_naming_the_input[condition]",
             ["oracle", "witness", "--atoms", '{"kind":"bdc",' + LONG_BDC[1:]], 2,
             f"bad condition JSON: {INT_LIMIT}"),
        enumerate_aic("a_span_bound_too_long_to_read_exits_2_naming_the_cause[grid bound]",
                      f"0:{LONG}", 2,
                      f"bad grid bound {READ}"),
        simulate("a_span_bound_too_long_to_read_exits_2_naming_the_cause[horizon bound]",
                 AND_NET, 2,
                 f"bad horizon bound '-{NINES[:39]}'... (4302 chars): an integer of 4301 "
                 "digits, more than the 4300 that can be read", horizon=f"-{LONG}:10"),
        Case(f"{OPTION}[bad --seed]",
             [*VERIFY, "--seed", LONG], 2,
             f"bad --seed {READ}"),
        check_config(f"{OPTION}[config line 1: resolution]", f"resolution = {LONG}\n", 2,
                     f"config line 1: resolution {READ}"),
    ]


def case_env(environ) -> dict[str, str]:
    """The environment `main` runs a case in: `environ`, each PYTHONPATH
    entry made absolute, since the case runs in a temporary directory."""
    env = dict(environ)
    if "PYTHONPATH" in env:
        entries = env["PYTHONPATH"].split(os.pathsep)
        env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, entries))
    return env


def main(command: list[str]) -> int:
    """Run every case through `command`; print each broken rule and
    return 1 if any case broke one."""
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            write_files(case, Path(tmp))
            run = subprocess.run(
                [*command, *case.argv], cwd=tmp, env=case_env(os.environ),
                capture_output=True, encoding="utf-8", errors="replace",
            )
        found = problems(case, run.returncode, run.stdout, run.stderr)
        for problem in found:
            print(f"FAIL {case.id}: {problem}")
        failed += bool(found)
    print(f"{len(CASES)} cases, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/cli_cases.py COMMAND [ARG...]")
    sys.exit(main(sys.argv[1:]))
