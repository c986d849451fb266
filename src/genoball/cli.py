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
import functools
import json
import sys
from collections.abc import Iterable, Iterator

from .complexes import FVector
from .corpus import BARYCENTRIC_NAME, DEFAULT_GRID, FAMILIES, corpus_balls, grid_from_json
from .fileio import load_complex, load_json, save_complex
from .generators import SPHERE_FAMILIES, barycentric_subdivision, boundary_sphere
from .genocchi import (
    SelfCheckError,
    genocchi_by_bernoulli,
    genocchi_by_recursion_even,
    genocchi_by_recursion_odd,
    genocchi_by_series,
)
from .verify import (
    BallCheckError,
    VerificationReport,
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
    # every route raises ValueError for N < 1, which main turns into exit 2
    N = args.N
    if args.method == "all":
        tables = [fn(N).values for fn in _METHODS.values()]
        agree = all(values == tables[0] for values in tables)
        _write_lines(_cross_check_lines(N, tables, agree))
        return 0 if agree else 1
    values = _METHODS[args.method](N).values
    _write_lines(f"{2 * n} {values[2 * n]}" for n in range(1, N + 1))
    return 0


def _cross_check_lines(N: int, tables: list[dict[int, int]], agree: bool) -> Iterator[str]:
    """The `genocchi --method all` table: each row's value is converted once
    when the routes agree on it, and each cell on its own when they do not."""
    yield "index  " + "  ".join(f"{name:>16}" for name in _METHODS)
    for n in range(1, N + 1):
        row = [values[2 * n] for values in tables]
        if row.count(row[0]) == len(row):
            cells = "  ".join([f"{row[0]:>16}"] * len(row))
        else:
            cells = "  ".join(f"{value:>16}" for value in row)
        yield f"{2 * n:>5}  {cells}"
    yield "cross-check: OK" if agree else "cross-check: MISMATCH"


def _write_lines(lines: Iterable[str]) -> None:
    """Write the lines to stdout in one call.

    The lines are formed, and their ints converted, while CPython's limit on
    int-to-str digits (4300 by default) is lifted, so a value of any length
    prints; the limit is restored before the write.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:  # 0: no limit, or none to lift
        sys.set_int_max_str_digits(0)
    try:
        text = "\n".join(lines)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(text + "\n")


_OPTIONS = {
    "n": dict(type=int, required=True, help="ambient parameter (vertices per facet)"),
    "m": dict(type=int, required=True, help="facet count"),
    "seed": dict(type=int, default=1, help="stacking seed (default 1)"),
    "base": dict(choices=SPHERE_FAMILIES, required=True, help="sphere family"),
    "in": dict(dest="infile", required=True, help="input facet file"),
}


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "barycentric":
        source, source_name = load_complex(args.infile)
        ball = barycentric_subdivision(source)
        name = BARYCENTRIC_NAME.format(name=source_name) if source_name else "sd"
    else:
        fields, build, name, _ = FAMILIES[args.family]
        options = {option: getattr(args, option) for option in fields}
        ball = build(boundary_sphere, **options)
        name = name.format_map(options)
    save_complex(ball, args.out, name)
    return 0


def _cmd_fvector(args: argparse.Namespace) -> int:
    ball, _ = load_complex(args.input)
    census = ball.census()
    print(_row("f(B)", census.f))
    if not census.report.ok:
        raise BallCheckError(
            "boundary/interior rows need the ball screen to pass: "
            + "; ".join(census.report.failures())
        )
    # a point (n = 1) has an empty boundary row: "f(∂B) =" with no counts
    print(_row("f(∂B)", census.f_boundary))
    print(_row("f(int B)", census.f_interior))
    return 0


def _row(label: str, f: FVector) -> str:
    return " ".join([f"{label} =", *map(str, f)])


def _print_report(report: VerificationReport) -> None:
    print(f"ball {report.name} (n={report.n}, {len(report.checks)} checks)")
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        suffix = " (trivial)" if check.trivial else ""
        print(
            f"  {check.identity:<18} k={check.k:<3} "
            f"residual={check.residual} {status}{suffix}"
        )


_JSON_BOOL = {True: "true", False: "false"}


def _json_corpus(reports: list[VerificationReport]) -> str:
    """The `verify --corpus --json` text, written directly.

    Byte-identical to json.dumps(payload, indent=2), where the payload is
    {"pass", "balls": [ball, ...]} and each ball is the object that
    `_json_ball` writes for a file, indented one level (json.dumps escapes
    every newline, so each line is indented).  Names and identities go
    through json.dumps; residual digits need none.
    """
    balls = (_json_ball(report).replace("\n", "\n    ") for report in reports)
    return (
        f'{{\n  "pass": {_JSON_BOOL[all(r.passed for r in reports)]},\n'
        '  "balls": [\n    ' + ",\n    ".join(balls) + "\n  ]\n}"
    )


def _json_ball(report: VerificationReport) -> str:
    """One ball object at the top level; its entries carry big integers
    as decimal strings.  Each check's residual is compared with 0 once, and
    each distinct identity name goes through json.dumps once."""
    passed = [check.residual == 0 for check in report.checks]
    head = {
        identity: f'    {{\n      "identity": {json.dumps(identity)},\n      "n": {report.n},\n'
        for identity in {check.identity for check in report.checks}
    }
    entries = ",\n".join(
        f"{head[check.identity]}"
        f'      "k": {check.k},\n'
        f'      "residual_numerator": "{check.residual.numerator}",\n'
        f'      "residual_denominator": "{check.residual.denominator}",\n'
        f'      "pass": {_JSON_BOOL[ok]}\n'
        "    }"
        for check, ok in zip(report.checks, passed)
    )
    return (
        "{\n"
        f'  "name": {json.dumps(report.name)},\n'
        f'  "n": {report.n},\n'
        f'  "pass": {_JSON_BOOL[all(passed)]},\n'
        f'  "entries": [\n{entries}\n  ]\n'
        "}"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    # argparse takes exactly one of FILE or --corpus; the corpus options are
    # checked here, and refused with the same usage message
    if not args.corpus and (args.grid is not None or args.max_n is not None):
        args.usage_error("--grid and --max-n apply only with --corpus")
    if args.corpus:
        grid = DEFAULT_GRID
        if args.grid is not None:
            grid = grid_from_json(load_json(args.grid))
        balls = corpus_balls(grid, max_n=args.max_n)
        if not balls:
            raise ValueError("corpus is empty (check --max-n / --grid)")
    else:
        ball, name = load_complex(args.input)
        balls = [(name or str(args.input), ball)]
    table = genocchi_by_recursion_even(max(required_table_size(b.n) for _, b in balls))
    # Pop each ball as it is verified, so that its facets and census are
    # freed before the next one is expanded.
    balls.reverse()
    reports = []
    while balls:
        name, ball = balls.pop()
        reports.append(verify_ball(ball, table, name=name))
    all_pass = all(r.passed for r in reports)
    if args.json:
        print(_json_corpus(reports) if args.corpus else _json_ball(reports[0]))
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
    families = p.add_subparsers(dest="family", required=True)
    rows = [(family, fields) for family, (fields, *_) in FAMILIES.items()]
    for family, options in [*rows, ("barycentric", ["in"])]:
        q = families.add_parser(family)
        for option in options:
            q.add_argument(f"--{option}", **_OPTIONS[option])
        q.add_argument("--out", required=True, help="output facet file")
        q.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fvector", help="print total/boundary/interior f-vectors")
    p.add_argument("input", help="facet file")
    p.set_defaults(func=_cmd_fvector)

    p = sub.add_parser(
        "verify",
        help="verify the f-vector identities exactly",
        # argparse brackets input and --corpus apart, as if neither were needed
        usage="%(prog)s [-h] [--json] (input | --corpus [--max-n MAX_N] [--grid GRID])",
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("input", nargs="?", help="facet file")
    source.add_argument("--corpus", action="store_true", help="run the built-in corpus")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--max-n", type=int, help="corpus: keep balls with ambient n <= N")
    p.add_argument("--grid", help="corpus: JSON grid file overriding the default")
    p.set_defaults(func=_cmd_verify, usage_error=p.error)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on the first call, then reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        # an integer too large to index or allocate is an input error too
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"error: self-check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
