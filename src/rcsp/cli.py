"""Command-line front end.

One executable, `rcsp`, with a subcommand per capability: threshold tables,
fixed-point solves, free-energy evaluations, the interpolation functional,
first-moment scans, instance generation and exact solving, partition
functions, satisfiability sweeps, concentration experiments, and the
certificate suite.

Output is CSV by default (one header line, one row per record) or JSON with
--format json.  Every float is printed with 17 significant digits so values
round-trip exactly; exact rationals are printed as p/q.  A fixed invocation,
seed included, always produces byte-identical output.  Exit codes: 0 on
success, 1 when flags or inputs fail validation, 2 when a computation gives
up (no bracket, support blowup, retry exhaustion, a solver failing its own
check).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction

import mpmath

from .bp import BracketError, ModelParams, solve_fixed_point
from .certificates import DEFAULT_DIGITS, MAX_DIGITS, CertificateReport, evaluate, verify_all
from .ensemble import (
    ConcentrationStat,
    GibbsSummary,
    SweepPoint,
    check_size,
    concentration_experiment,
    count_solutions,
    partition_function,
    read_instance,
    sample_instance,
    sat_sweep,
    write_instance,
)
from .firstmoment import FirstMomentReport, p_gamma, ratio_scan
from .interp import ThetaSpec, beta_scaling_scan, eta_cluster, functional_exact
from .thresholds import d_star, phi, table_rows

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


def _list_of(kind, what: str):
    """argparse type for a comma-separated list of kind."""

    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",") if tok]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")

    return parse


_int_list = _list_of(int, "integers")
_float_list = _list_of(float, "numbers")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, mpmath.mpf):
        return mpmath.nstr(value, 30)
    return str(value)


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            return json.dumps(_cell(value))
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    return json.dumps(_cell(value))


def _render(headers: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "json":
        lines = []
        for row in rows:
            fields = ", ".join(
                f"{json.dumps(h)}: {_json_value(v)}" for h, v in zip(headers, row)
            )
            lines.append("  {" + fields + "}")
        return "[\n" + ",\n".join(lines) + "\n]\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _records(records, columns) -> tuple[list[str], list[list]]:
    """Headers and rows for records: columns is a dataclass (every field, in
    declaration order) or a sequence of attribute names."""
    if dataclasses.is_dataclass(columns):
        columns = [f.name for f in dataclasses.fields(columns)]
    return list(columns), [[getattr(r, c) for c in columns] for r in records]


def _arg(flag: str, **spec):
    return flag, spec


# Argument specs shared between subcommands.
_K = _arg("--k", type=int, required=True, help="clause size")
_D = _arg("--d", type=float, required=True, help="variable degree")
_D_INT = _arg("--d", type=int, required=True, help="variable degree")
_N = _arg("--n", type=int, required=True, help="number of variables")
_N_LIST = _arg("--n", type=_int_list, required=True, help="comma-separated sizes")
_BETA = _arg("--beta", type=float, required=True, help="inverse temperature")
_SEED = _arg("--seed", type=int, required=True, help="master seed")
_MODEL = _arg(
    "--model", choices=("nae", "coloring"), default="nae", help="constraint model (default nae)"
)
_PATH = _arg("path", help="instance file")
_DEGREE_TOL = _arg("--tol", type=float, default=1e-9, help="degree bisection tolerance")
_FIXED_POINT_TOL = _arg("--tol", type=float, default=1e-12, help="fixed-point tolerance")
_OUTPUT = (
    _arg("--out", help="write output to this file instead of stdout"),
    _arg("--format", choices=("csv", "json"), default="csv", help="output format (default csv)"),
)

# (name, help, argument specs, handler) per subcommand, in `rcsp --help` order.
_COMMANDS: list[tuple] = []


def _command(name: str, help: str, *args):
    """Declare the decorated handler as subcommand `name` with these arguments.
    It returns (headers, rows) for the renderer, with the exit status as an
    optional third item (certify), or None when it writes its own file (gen)."""

    def declare(run):
        _COMMANDS.append((name, help, args, run))
        return run

    return declare


# The ThresholdReport fields `table` prints; `dstar` adds its diagnostics.
_THRESHOLD_COLUMNS = ("k", "d_star", "ceil_d_star", "d_first_moment", "ceil_d1")


@_command(
    "table",
    "threshold table over a range of clause sizes",
    _arg("--kmin", type=int, default=3, help="smallest clause size (default 3)"),
    _arg("--kmax", type=int, default=15, help="largest clause size (default 15)"),
    _DEGREE_TOL,
    *_OUTPUT,
)
def _table(args):
    return _records(table_rows(args.kmin, args.kmax, args.tol), _THRESHOLD_COLUMNS)


@_command(
    "fixpoint",
    "solve the message fixed point at one (k, d)",
    _K,
    _D,
    _arg("--tol", type=float, default=1e-12, help="bisection tolerance"),
    *_OUTPUT,
)
def _fixpoint(args):
    fp = solve_fixed_point(ModelParams(args.k, args.d), args.tol)
    headers = [
        "k",
        "d",
        "x",
        "residual",
        "bracket_lo",
        "bracket_hi",
        "max_derivative",
        "iteration_gap",
    ]
    row = [args.k, args.d, fp.x, fp.residual, *fp.bracket, fp.max_derivative, fp.iteration_gap]
    return headers, [row]


@_command(
    "phi",
    "free-energy value at the fixed point or a given x",
    _K,
    _D,
    _arg("--x", type=float, help="evaluate at this x instead of the fixed point"),
    _FIXED_POINT_TOL,
    *_OUTPUT,
)
def _phi(args):
    params = ModelParams(args.k, args.d)
    x = args.x if args.x is not None else solve_fixed_point(params, args.tol).x
    return ["k", "d", "x", "phi"], [[args.k, args.d, x, phi(params, x)]]


@_command("dstar", "largest zero of the fixed-point free energy", _K, _DEGREE_TOL, *_OUTPUT)
def _dstar(args):
    r = d_star(args.k, args.tol)
    headers, rows = _records([r], _THRESHOLD_COLUMNS)
    headers += ["bracket_lo", "bracket_hi", "sign_changes"]
    return headers, [rows[0] + [*r.bracket, len(r.sign_changes)]]


@_command(
    "interp",
    "interpolation functional / temperature scan",
    _K,
    _D,
    _arg("--betas", type=_float_list, required=True, help="comma-separated inverse temperatures"),
    _arg("--lam", type=float, help="evaluate once at this tilt (single beta)"),
    _MODEL,
    _FIXED_POINT_TOL,
    *_OUTPUT,
)
def _interp(args):
    params = ModelParams(args.k, args.d)
    headers = ["beta", "lambda", "P", "P_over_sqrt_beta"]
    if args.lam is None:
        scan = beta_scaling_scan(params, args.betas, args.tol)
        return headers, [[r.beta, r.lam, r.p_value, r.p_over_sqrt_beta] for r in scan.rows]
    if len(args.betas) != 1:
        raise ValueError("--lam needs exactly one --betas value")
    beta = args.betas[0]
    eta = eta_cluster(params, beta, args.tol)
    value = functional_exact(params, eta, ThetaSpec(args.model, beta), args.lam)
    scaled = value / math.sqrt(beta) if beta > 0 else math.inf
    return headers, [[beta, args.lam, value, scaled]]


@_command("firstmo", "exact first-moment terms and ratios", _K, _D_INT, _N_LIST, *_OUTPUT)
def _firstmo(args):
    if args.format == "json":
        return _records(ratio_scan(args.k, args.d, args.n), FirstMomentReport)
    rows = []
    for n in args.n:
        m = check_size(n, args.k, args.d)
        for t in range(n + 1):
            gamma = Fraction(t, n)
            pg = p_gamma(n, m, args.k, gamma)
            rows.append([n, gamma, math.comb(n, t), pg, math.comb(n, t) * pg])
    return ["n", "gamma", "binom", "p_gamma", "contribution"], rows


@_command(
    "gen",
    "sample one instance and write it to a file",
    _N,
    _K,
    _D_INT,
    _arg("--seed", type=int, required=True, help="sampling seed"),
    _MODEL,
    _arg("--simple", action="store_true", help="resample until no clause repeats a variable"),
    _arg("--max-retries", type=int, default=1000, help="resampling budget for --simple"),
    _arg("--out", required=True, help="instance file to write"),
)
def _gen(args):
    inst = sample_instance(
        args.n,
        args.k,
        args.d,
        args.seed,
        model=args.model,
        require_simple=args.simple,
        max_retries=args.max_retries,
    )
    write_instance(inst, args.out)


@_command("solve", "exact solution count of an instance file", _PATH, *_OUTPUT)
def _solve(args):
    inst = read_instance(args.path)
    headers = ["n", "m", "k", "d", "model", "solutions"]
    return headers, [[inst.n, inst.m, inst.k, inst.d, inst.model, count_solutions(inst)]]


@_command("z", "exact partition function of an instance file", _PATH, _BETA, *_OUTPUT)
def _z(args):
    return _records([partition_function(read_instance(args.path), args.beta)], GibbsSummary)


@_command(
    "sweep",
    "satisfiable fraction across degrees",
    _K,
    _N,
    _arg("--d", type=_int_list, required=True, help="comma-separated degrees"),
    _arg("--trials", type=int, required=True, help="instances per degree"),
    _SEED,
    _MODEL,
    *_OUTPUT,
)
def _sweep(args):
    points = sat_sweep(args.k, args.n, args.d, args.trials, args.seed, model=args.model)
    return _records(points, SweepPoint)


@_command(
    "concentrate",
    "spread of the free energy across sizes",
    _K,
    _D_INT,
    _N_LIST,
    _BETA,
    _arg("--samples", type=int, required=True, help="instances per size"),
    _SEED,
    _MODEL,
    *_OUTPUT,
)
def _concentrate(args):
    stats = concentration_experiment(
        args.n, args.k, args.d, args.beta, args.samples, args.seed, model=args.model
    )
    return _records(stats, ConcentrationStat)


@_command(
    "certify",
    "run the high-precision inequality suite",
    _arg("--id", help="run a single certificate by id"),
    _arg(
        "--digits",
        type=int,
        default=DEFAULT_DIGITS,
        help=f"working precision in significant digits, 50 to {MAX_DIGITS} "
        f"(default {DEFAULT_DIGITS})",
    ),
    *_OUTPUT,
)
def _certify(args):
    reports = [evaluate(args.id, args.digits)] if args.id else verify_all(args.digits)
    status = 0 if all(r.passed for r in reports) else 2
    if args.format == "json":
        return (*_records(reports, CertificateReport), status)
    rows = []
    with mpmath.workdps(args.digits + 10):
        for r in reports:
            shown = mpmath.nstr(mpmath.mpf(r.computed), 20)
            verdict = "pass" if r.passed else "inconclusive" if r.inconclusive else "fail"
            rows.append([r.id, shown, r.claimed_bound, r.relation, r.margin, verdict])
    return ["id", "computed", "bound", "relation", "margin", "status"], rows, status


def _build_parser() -> _Parser:
    parser = _Parser(prog="rcsp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    for name, help, args, run in _COMMANDS:
        p = sub.add_parser(name, help=help)
        for flag, spec in args:
            p.add_argument(flag, **spec)
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError:
        return 1
    try:
        result = args.run(args)
        if result is None:
            return 0
        headers, rows, *status = result
        _write(_render(headers, rows, args.format), args.out)
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        # The error map: a computation that gave up (no bracket, support blowup,
        # retries exhausted, a solver failing its own check, an unopenable file)
        # exits 2; any other ValueError or KeyError, BracketError aside, exits 1.
        gave_up = isinstance(exc, (BracketError, RuntimeError, OSError))
        word = "computation failed" if gave_up else "invalid input"
        sys.stderr.write(f"rcsp: {word}: {exc}\n")
        return 2 if gave_up else 1
    return status[0] if status else 0


if __name__ == "__main__":
    sys.exit(main())
