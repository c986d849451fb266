"""Command-line front end.

Commands:
    genocchi N [--method M]         print G_2 .. G_{2N} (M=all cross-checks
                                    the four algorithms against each other)
    generate FAMILY ... --out F     write a ball as a JSON facet file
    fvector FILE                    print f(B), f(bd B), f(int B)
    verify FILE | --corpus          evaluate all identities, exactly

Exit codes are a contract: 0 = all identities hold, 1 = a nonzero residual
or cross-check mismatch (a failed internal self-check included), 2 = input
or usage error.  Output carries no timestamps, so identical inputs give
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .complexes import Complex, FVector
from .corpus import BALL_NAMES, DEFAULT_GRID, corpus_balls, grid_from_json
from .fileio import load_complex, save_complex
from .generators import (
    SPHERE_FAMILIES,
    barycentric_subdivision,
    boundary_sphere,
    cone_over_boundary,
    simplex_ball,
    sphere_minus_facet,
    stacked_ball,
)
from .genocchi import (
    GenocchiTable,
    SelfCheckError,
    genocchi_by_bernoulli,
    genocchi_by_recursion_even,
    genocchi_by_recursion_odd,
    genocchi_by_series,
)
from .verify import (
    VerificationReport,
    format_residual,
    required_table_size,
    verify_ball,
)

_METHODS = {
    "series": genocchi_by_series,
    "recursion-even": genocchi_by_recursion_even,
    "recursion-odd": genocchi_by_recursion_odd,
    "bernoulli": genocchi_by_bernoulli,
}


def _cmd_genocchi(args: argparse.Namespace) -> int:
    N = args.N
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if args.method == "all":
        tables = {name: fn(N) for name, fn in _METHODS.items()}
        names = list(_METHODS)
        print("index  " + "  ".join(f"{name:>16}" for name in names))
        for n in range(1, N + 1):
            row = "  ".join(f"{tables[name].values[2 * n]:>16}" for name in names)
            print(f"{2 * n:>5}  {row}")
        reference = tables[names[0]].values
        if all(tables[name].values == reference for name in names):
            print("cross-check: OK")
            return 0
        print("cross-check: MISMATCH")
        return 1
    table = _METHODS[args.method](N)
    for n in range(1, N + 1):
        print(f"{2 * n} {table.values[2 * n]}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    family = args.family
    if family == "simplex":
        _need(args, "n")
        ball = simplex_ball(args.n)
    elif family == "stacked":
        _need(args, "n", "m")
        ball = stacked_ball(args.n, args.m, args.seed)
    elif family == "cone":
        _need(args, "base", "n")
        ball = cone_over_boundary(boundary_sphere(args.base, args.n))
    elif family == "sphere-minus-facet":
        _need(args, "base", "n")
        ball = sphere_minus_facet(boundary_sphere(args.base, args.n))
    else:  # barycentric
        if args.infile is None:
            raise ValueError("family barycentric requires --in FILE")
        source, source_name = load_complex(args.infile)
        ball = barycentric_subdivision(source)
        name = BALL_NAMES[family].format(name=source_name) if source_name else "sd"
    if family != "barycentric":
        name = BALL_NAMES[family].format_map(vars(args))
    save_complex(ball, args.out, name)
    return 0


def _need(args: argparse.Namespace, *fields: str) -> None:
    missing = [f for f in fields if getattr(args, f) is None]
    if missing:
        flags = ", ".join(f"--{f}" for f in missing)
        raise ValueError(f"family {args.family} requires {flags}")


def _cmd_fvector(args: argparse.Namespace) -> int:
    ball, _ = load_complex(args.input)
    census = ball.census()
    print(_row("f(B)", census.f))
    if not census.report.ok:
        print(
            "error: boundary/interior rows need the ball screen to pass: "
            + "; ".join(census.report.failures()),
            file=sys.stderr,
        )
        return 2
    # a point (n = 1) has an empty boundary row: "f(∂B) =" with no counts
    print(_row("f(∂B)", census.f_boundary))
    print(_row("f(int B)", census.f_interior))
    return 0


def _row(label: str, f: FVector) -> str:
    return " ".join([f"{label} =", *map(str, f)])


def _table_for(balls: list[tuple[str, Complex]]) -> GenocchiTable:
    N = max(required_table_size(ball.n) for _, ball in balls)
    return genocchi_by_recursion_even(N)


def _print_report(report: VerificationReport) -> None:
    label = report.name or "<unnamed>"
    print(f"ball {label} (n={report.n}, {len(report.checks)} checks)")
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        suffix = " (trivial)" if check.trivial else ""
        print(
            f"  {check.identity:<18} k={check.k:<3} "
            f"residual={format_residual(check.residual)} {status}{suffix}"
        )


def _report_obj(report: VerificationReport) -> dict:
    return {
        "name": report.name,
        "n": report.n,
        "pass": report.passed,
        "entries": report.to_json_entries(),
    }


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.corpus == (args.input is not None):
        raise ValueError("give exactly one of FILE or --corpus")
    if args.corpus:
        grid = DEFAULT_GRID
        if args.grid is not None:
            with open(args.grid, encoding="utf-8") as fh:
                try:
                    obj = json.load(fh)
                except RecursionError as exc:
                    raise ValueError(f"{args.grid}: JSON nested too deeply") from exc
            grid = grid_from_json(obj)
        balls = corpus_balls(grid, max_n=args.max_n)
        if not balls:
            raise ValueError("corpus is empty (check --max-n / --grid)")
    else:
        if args.grid is not None or args.max_n is not None:
            raise ValueError("--grid and --max-n apply only with --corpus")
        ball, name = load_complex(args.input)
        balls = [(name or str(args.input), ball)]
    table = _table_for(balls)
    # Pop each ball as it is verified, so that its facets and census are
    # freed before the next one is expanded.
    balls.reverse()
    reports = []
    while balls:
        name, ball = balls.pop()
        reports.append(verify_ball(ball, table, name=name))
    all_pass = all(r.passed for r in reports)
    if args.json:
        if args.corpus:
            payload = {"pass": all_pass, "balls": [_report_obj(r) for r in reports]}
        else:
            payload = _report_obj(reports[0])
        print(json.dumps(payload, indent=2))
    elif args.corpus:
        for report in reports:
            verdict = "PASS" if report.passed else "FAIL"
            print(f"{verdict} {report.name} (n={report.n}, {len(report.checks)} checks)")
        total = sum(len(r.checks) for r in reports)
        print(
            f"verified {len(reports)} balls, {total} identity checks: "
            + ("all residuals zero" if all_pass else "NONZERO RESIDUAL FOUND")
        )
    else:
        _print_report(reports[0])
        print("all identities hold" if all_pass else "NONZERO RESIDUAL FOUND")
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genoball",
        description="Exact Genocchi numbers and f-vector identities of simplicial balls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genocchi", help="print a table of Genocchi numbers")
    p.add_argument("N", type=int, help="number of values: G_2 .. G_{2N}")
    p.add_argument(
        "--method",
        choices=[*_METHODS, "all"],
        default="all",
        help="algorithm to use; 'all' cross-checks every algorithm (default)",
    )
    p.set_defaults(func=_cmd_genocchi)

    p = sub.add_parser("generate", help="write a generated ball to a facet file")
    p.add_argument(
        "family",
        choices=["simplex", "stacked", "cone", "sphere-minus-facet", "barycentric"],
    )
    p.add_argument("--n", type=int, help="ambient parameter (vertices per facet)")
    p.add_argument("--m", type=int, help="facet count (stacked)")
    p.add_argument("--seed", type=int, default=1, help="stacking seed (default 1)")
    p.add_argument(
        "--base",
        choices=SPHERE_FAMILIES,
        help="sphere family (cone, sphere-minus-facet)",
    )
    p.add_argument("--in", dest="infile", help="input facet file (barycentric)")
    p.add_argument("--out", required=True, help="output facet file")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fvector", help="print total/boundary/interior f-vectors")
    p.add_argument("input", help="facet file")
    p.set_defaults(func=_cmd_fvector)

    p = sub.add_parser("verify", help="verify the f-vector identities exactly")
    p.add_argument("input", nargs="?", help="facet file")
    p.add_argument("--corpus", action="store_true", help="run the built-in corpus")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--max-n", type=int, help="corpus: keep balls with ambient n <= N")
    p.add_argument("--grid", help="corpus: JSON grid file overriding the default")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"error: self-check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
