"""Command-line surface.

Subcommands map one-to-one onto the library layers: `check` and `solve`
work with a single condition and waveform files, `consistent` and
`algebra` are pure parameter arithmetic, `simulate` runs a netlist to
VCD, and `oracle` exposes the brute-force enumerator, the exact
emptiness decider and the randomized law suites.  A suite's seed is
set by `--seed` alone; the run config holds only I/O settings.

Exit codes: 0 when the queried property holds (or output was produced),
1 when it fails, 2 on malformed input.
"""

import argparse
import json
import sys

from .circuit import NetlistError, netlist_from_dict, simulate
from .conditions import (
    ATOM_KINDS,
    CondExpr,
    ConsistencyError,
    atom_from_dict,
    baidc_consistent,
    bdc_as_translation,
    bdc_compose,
    bdc_includes,
    bdc_intersection,
    bdc_is_deterministic,
    bdc_is_symmetrical,
    bdc_jointly_solvable,
    bdc_max_solution,
    bdc_min_solution,
    bdc_union_envelope,
    bridc_consistency_cases,
    bridc_consistent,
    bridc_det_output,
    cc_failures,
    violations,
)
from .oracle import GridConfig, HorizonError, enumerate_solutions, find_empty_witness
from .signals import SignalError, shown
from .verify import THEOREM_CHECKS, SuiteError, run_check
from .waveio import (
    RunConfig,
    WaveParseError,
    emit_vcd,
    emit_waveforms,
    parse_config,
    parse_int,
    parse_waveforms,
    writable,
)


class CliError(Exception):
    """Bad arguments or malformed input files (exit code 2)."""


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _parse_json(text: str, what: str):
    """The JSON value in text.  Malformed text raises a JSONDecodeError, an
    integer of more than 4300 digits a plain ValueError and deep nesting a
    RecursionError; all exit 2."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CliError(f"bad {what} JSON: {exc}") from None
    except RecursionError:
        raise CliError(f"bad {what} JSON: nested too deep") from None


def _parse_params(kind: str, text: str):
    obj = _parse_json(text, f"{kind} parameter")
    try:  # the kind is the option's, and a value that is not an object stays one
        return atom_from_dict({**obj, "kind": kind} if isinstance(obj, dict) else obj)
    except ValueError as exc:
        raise CliError(f"bad {kind} parameters: {exc}") from None


def _load_wave(path: str, cfg: RunConfig, role: str, name: str | None = None):
    with open(path, encoding="utf-8") as fh:
        waves = parse_waveforms(fh.read(), cfg.resolution)
    where = f"{role} file {path if len(path) <= 40 else shown(path)}"  # a short path bare
    if not waves:
        raise CliError(f"{where} contains no waveforms")
    if name is not None:
        if name not in waves:
            raise CliError(f"{where} has no waveform named {shown(name)}")
        return waves[name]
    if len(waves) > 1:
        raise CliError(f"{where} contains {len(waves)} waveforms; name one with --{role}-name")
    return next(iter(waves.values()))


def _parse_span(text: str, what: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise CliError(f"bad {what} {shown(text)}: expected LO:HI")
    return parse_int(lo, f"bad {what} bound"), parse_int(hi, f"bad {what} bound")


def _emit(verdict: dict) -> int:
    """Print the verdict; the exit code is 1 when the queried property
    fails or the result is undefined, else 0."""
    for key, value in verdict.items():
        if isinstance(value, dict):  # a condition's parameters
            for field, n in value.items():
                writable(n, f"{key} {field}: an integer")
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return 0 if verdict.get("holds", verdict.get("defined", True)) else 1


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- check --------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    params = _parse_params(args.cond, args.params)
    x = _load_wave(args.output, cfg, "output", args.output_name)
    u = None  # an atom without windows (AIC) does not read the input
    if ATOM_KINDS[args.cond].windows:
        if args.input is None:
            raise CliError(f"--input is required for {args.cond}")
        u = _load_wave(args.input, cfg, "input", args.input_name)

    details = violations(u, x, params)
    verdict = {
        "command": "check",
        "cond": args.cond,
        "params": params.as_dict(),
        "holds": not details,
    }
    if details:
        verdict["detail"] = details
    return _emit(verdict)


# -- solve --------------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    params = _parse_params("bdc", args.params)
    u = _load_wave(args.input, cfg, "input", args.input_name)
    if args.cond == "bdc-min":
        out = {args.name: bdc_min_solution(u, params)}
    elif args.cond == "bdc-max":
        out = {args.name: bdc_max_solution(u, params)}
    elif args.cond == "bdc-envelope":
        out = {
            f"{args.name}_lo": bdc_min_solution(u, params),
            f"{args.name}_hi": bdc_max_solution(u, params),
        }
    else:
        out = {args.name: bridc_det_output(u, params)}
    _write_out(emit_waveforms(out), args.out)
    return 0


# -- consistent ---------------------------------------------------------------


def _cmd_consistent(args: argparse.Namespace) -> int:
    p = _parse_params("bdc", args.params)
    verdict: dict = {"command": "consistent", "cond": args.cond, "params": p.as_dict()}
    failures = cc_failures(p)
    if args.cond == "cc":
        holds = not failures
        verdict["detail"] = "CC holds"
    elif args.cond == "baidc":
        if args.hold is None:
            raise CliError("--hold is required for baidc")
        a = _parse_params("aic", args.hold)
        verdict["hold"] = a.as_dict()
        holds = not failures and baidc_consistent(p, a)
        verdict["detail"] = (
            "holds fit within the memories"
            if holds
            else "combined holds exceed the combined memories"
        )
    else:
        if args.edge is None:
            raise CliError("--edge is required for bridc")
        r = _parse_params("ric", args.edge)
        verdict["edge"] = r.as_dict()
        cases = list(bridc_consistency_cases(p, r))
        holds = bridc_consistent(p, r)
        verdict["cases"] = cases
        if cases:
            verdict["detail"] = f"regime {cases[0]} applies"
        elif holds:
            verdict["detail"] = "solvable, outside the named regimes"
        else:
            verdict["detail"] = "some input admits no output"
    if failures:  # CC fails: no condition on these windows holds
        verdict["detail"] = "CC violated"
        verdict["violations"] = failures
    verdict["holds"] = holds
    return _emit(verdict)


# -- algebra ------------------------------------------------------------------


def _cmd_algebra(args: argparse.Namespace) -> int:
    p = _parse_params("bdc", args.p)
    verdict: dict = {"command": "algebra", "op": args.op, "p": p.as_dict()}
    needs_q = args.op in {"intersect", "union-envelope", "compose", "includes"}
    if needs_q:
        if args.q is None:
            raise CliError(f"--q is required for {args.op}")
        q = _parse_params("bdc", args.q)
        verdict["q"] = q.as_dict()
    if args.op == "intersect":
        r = bdc_intersection(p, q)
        verdict["defined"] = r is not None
        if r is None:
            verdict["detail"] = (
                "the conjunction is not a single window condition"
                if bdc_jointly_solvable(p, q)
                else "some input admits no output meeting both conditions"
            )
        else:
            verdict["result"] = r.as_dict()
    elif args.op == "union-envelope":
        env = bdc_union_envelope(p, q)
        verdict["result"] = env.as_dict()
        verdict["tight"] = bdc_includes(p, q) or bdc_includes(q, p)
    elif args.op == "compose":
        verdict["result"] = bdc_compose(p, q).as_dict()
    elif args.op == "includes":
        verdict["holds"] = bdc_includes(p, q)
    elif args.op == "deterministic":
        verdict["holds"] = bdc_is_deterministic(p)
        if verdict["holds"]:
            verdict["shift"] = bdc_as_translation(p)
    else:
        verdict["holds"] = bdc_is_symmetrical(p)
    return _emit(verdict)


# -- simulate -----------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    with open(args.netlist, encoding="utf-8") as fh:
        netlist = netlist_from_dict(_parse_json(fh.read(), "netlist"))
    with open(args.stimuli, encoding="utf-8") as fh:
        stimuli = parse_waveforms(fh.read(), cfg.resolution)
    lo, hi = _parse_span(args.horizon, "horizon")
    traces = simulate(netlist, stimuli, (lo, hi))
    _write_out(emit_vcd(traces, cfg), args.out)
    return 0


# -- oracle -------------------------------------------------------------------


def _parse_atoms(text: str) -> CondExpr:
    obj = _parse_json(text, "condition")
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list) or not obj:
        raise CliError("condition JSON must be an atom object or a non-empty list")
    try:
        return CondExpr(tuple(atom_from_dict(a) for a in obj))
    except ValueError as exc:
        raise CliError(f"bad condition atom: {exc}") from None


def _cmd_oracle_enumerate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    expr = _parse_atoms(args.atoms)
    u = _load_wave(args.input, cfg, "input", args.input_name)
    lo, hi = _parse_span(args.grid, "grid")
    sols = enumerate_solutions(u, expr, GridConfig(lo, hi))
    width = len(str(max(len(sols) - 1, 0)))
    named = {f"x{idx:0{width}d}": s for idx, s in enumerate(sols)}
    _write_out(emit_waveforms(named), args.out)
    print(f"{len(sols)} solutions", file=sys.stderr)
    return 0


def _cmd_oracle_witness(args: argparse.Namespace) -> int:
    expr = _parse_atoms(args.atoms)
    w = find_empty_witness(expr)
    if w is None:
        print("no witness found: every input admits an output")
        return 1
    _write_out(emit_waveforms({"u": w}), args.out)
    return 0


def _cmd_oracle_verify(args: argparse.Namespace) -> int:
    seed = None if args.seed is None else parse_int(args.seed, "bad --seed")
    report = run_check(args.theorem, seed=seed)
    print(report.summary())
    for failure in report.failures:
        print(f"  counterexample: {failure}")
    return 0 if report.ok else 1


# -- parser wiring ------------------------------------------------------------


def _add_config(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value run configuration file")


class _Parser(argparse.ArgumentParser):
    """Errors exit 2 as one `error: ` line, not a usage block that echoes
    the bad value in full."""

    def error(self, message):
        cut = f"{message[:100]}... ({len(message)} chars)"
        raise CliError(message if len(message) <= 120 else cut)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="inertia",
        description="Delay-condition algebra for asynchronous switching signals.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="test a waveform pair against a condition")
    check.add_argument("--cond", required=True, choices=tuple(ATOM_KINDS))
    check.add_argument("--params", required=True, help="parameter JSON object")
    check.add_argument("--input", help="input waveform file (not used for aic)")
    check.add_argument("--output", required=True, help="output waveform file")
    check.add_argument("--input-name", help="waveform name in the input file")
    check.add_argument("--output-name", help="waveform name in the output file")
    _add_config(check)
    check.set_defaults(func=_cmd_check)

    solve = subs.add_parser("solve", help="emit canonical outputs of a condition")
    solve.add_argument(
        "--cond",
        required=True,
        choices=("bdc-min", "bdc-max", "bdc-envelope", "bridc-det"),
    )
    solve.add_argument("--params", required=True, help="window parameter JSON")
    solve.add_argument("--input", required=True, help="input waveform file")
    solve.add_argument("--input-name", help="waveform name in the input file")
    solve.add_argument("--name", default="x", help="name for the emitted waveform")
    solve.add_argument("-o", "--out", help="write waveforms here instead of stdout")
    _add_config(solve)
    solve.set_defaults(func=_cmd_solve)

    consistent = subs.add_parser("consistent", help="decide parameter consistency")
    consistent.add_argument("--cond", required=True, choices=("cc", "baidc", "bridc"))
    consistent.add_argument("--params", required=True, help="window parameter JSON")
    consistent.add_argument("--hold", help="hold parameter JSON (baidc)")
    consistent.add_argument("--edge", help="edge-licensing parameter JSON (bridc)")
    consistent.set_defaults(func=_cmd_consistent)

    algebra = subs.add_parser("algebra", help="window parameter arithmetic")
    algebra.add_argument(
        "--op",
        required=True,
        choices=(
            "intersect",
            "union-envelope",
            "compose",
            "includes",
            "deterministic",
            "symmetric",
        ),
    )
    algebra.add_argument("--p", required=True, help="first parameter JSON")
    algebra.add_argument("--q", help="second parameter JSON")
    algebra.set_defaults(func=_cmd_algebra)

    simulate_p = subs.add_parser("simulate", help="run a netlist and emit VCD")
    simulate_p.add_argument("--netlist", required=True, help="netlist JSON file")
    simulate_p.add_argument("--stimuli", required=True, help="input waveform file")
    simulate_p.add_argument("--horizon", required=True, help="LO:HI tick range")
    simulate_p.add_argument("-o", "--out", help="write VCD here instead of stdout")
    _add_config(simulate_p)
    simulate_p.set_defaults(func=_cmd_simulate)

    oracle = subs.add_parser("oracle", help="brute-force enumeration and law suites")
    osubs = oracle.add_subparsers(dest="oracle_command", required=True)

    enum = osubs.add_parser("enumerate", help="list every solution on a grid")
    enum.add_argument("--atoms", required=True, help="condition JSON (atom or list)")
    enum.add_argument("--input", required=True, help="input waveform file")
    enum.add_argument("--input-name", help="waveform name in the input file")
    enum.add_argument("--grid", required=True, help="LO:HI tick range")
    enum.add_argument("-o", "--out", help="write waveforms here instead of stdout")
    _add_config(enum)
    enum.set_defaults(func=_cmd_oracle_enumerate)

    witness = osubs.add_parser(
        "witness", help="decide whether some input admits no output, and name one"
    )
    witness.add_argument("--atoms", required=True, help="condition JSON (atom or list)")
    witness.add_argument("-o", "--out", help="write waveform here instead of stdout")
    witness.set_defaults(func=_cmd_oracle_witness)

    verify = osubs.add_parser("verify", help="run a randomized law suite")
    verify.add_argument(
        "--theorem", required=True, choices=sorted(THEOREM_CHECKS)
    )
    # an integer option stays a string here, as argparse's message would
    # echo a value of any length; the command reads it with parse_int
    verify.add_argument("--seed", help="override the RNG seed")
    verify.set_defaults(func=_cmd_oracle_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (
        CliError,
        WaveParseError,
        SignalError,
        NetlistError,
        HorizonError,
        ConsistencyError,
        SuiteError,
        UnicodeDecodeError,
        OSError,
    ) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:  # the path cut short
            exc = f"[Errno {exc.errno}] {exc.strerror}: {shown(exc.filename)}"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
