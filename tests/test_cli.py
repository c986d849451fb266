"""Command-line interface: output, round trips, and the exit-code contract.

Exit codes: 0 = all identities hold, 1 = nonzero residual or cross-check
mismatch (a failed self-check included), 2 = input/usage error.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genoball
from genoball import cli, corpus, genocchi, verify
from genoball.corpus import FAMILIES, corpus_balls
from genoball.fileio import load_complex, save_complex
from genoball.generators import boundary_sphere, simplex_ball, stacked_ball
from genoball.verify import IdentityCheck, VerificationReport, verify_ball


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cold_weight_memos():
    """Empty identity-weight memos while the test runs, and again after it.

    The weights are memoised per (k, n), so an earlier test may have built
    them all; cleared first, they are built anew from a patched
    ``verify.binomial``, and cleared after, no patched value outlives it.
    """
    memos = (verify._genocchi_weights, verify._dehn_sommerville_weights)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


class TestGenocchiCommand:
    def test_all_methods_verdict(self, capsys):
        code, out, _ = run(["genocchi", "3"], capsys)
        assert code == 0
        assert "cross-check: OK" in out
        lines = [l.split() for l in out.splitlines() if l.strip()[:1].isdigit()]
        assert [l[0] for l in lines] == ["2", "4", "6"]
        assert [l[1] for l in lines] == ["-1", "1", "-3"]

    def test_single_method(self, capsys):
        code, out, _ = run(["genocchi", "1", "--method", "series"], capsys)
        assert code == 0
        assert out.strip() == "2 -1"

    def test_zero_is_usage_error(self, capsys):
        # each route raises the error itself; the CLI has no check of its own
        for argv in (["genocchi", "0"], ["genocchi", "0", "--method", "all"],
                     ["genocchi", "0", "--method", "bernoulli"]):
            code, out, err = run(argv, capsys)
            assert code == 2, argv
            assert out == "" and err == "error: N must be >= 1, got 0\n", argv

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        def broken(N):
            table = cli._METHODS["series"](N)
            values = dict(table.values)
            values[2] += 1
            return type(table)(values, "bernoulli")

        monkeypatch.setitem(cli._METHODS, "bernoulli", broken)
        code, out, _ = run(["genocchi", "2"], capsys)
        assert code == 1
        assert "MISMATCH" in out
        # the row the routes disagree on converts each cell on its own
        assert f"    2  {-1:>16}  {-1:>16}  {-1:>16}  {0:>16}\n" in out
        assert f"    4  {1:>16}  {1:>16}  {1:>16}  {1:>16}\n" in out

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize(
        "argv", [["genocchi", "200"], ["genocchi", "200", "--method", "bernoulli"]]
    )
    def test_values_past_the_int_str_digit_limit_print(self, capsys, argv):
        # G_400 has 671 digits; the write lifts the limit and restores it
        expected = run(argv, capsys)
        assert expected[0] == 0 and max(map(len, expected[1].split())) == 671
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert run(argv, capsys) == expected
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)

    def test_self_check_failure_exits_one(self, capsys, monkeypatch):
        # `--method all` runs the odd recursion's step in the walk it shares
        # with the even recursion, not through cli._METHODS
        def failing(*args):
            raise genocchi.SelfCheckError("G_2 must be an integer, got 1/2")

        monkeypatch.setattr(genocchi, "_odd_step", failing)
        code, out, err = run(["genocchi", "3"], capsys)
        assert code == 1
        assert err == "error: self-check failed: G_2 must be an integer, got 1/2\n"
        assert "cross-check" not in out

    def test_self_check_failure_of_one_method_exits_one(self, capsys, monkeypatch):
        def failing(N):
            raise genocchi.SelfCheckError("G_2 must be an integer, got 1/2")

        monkeypatch.setitem(cli._METHODS, "recursion-odd", failing)
        code, out, err = run(["genocchi", "3", "--method", "recursion-odd"], capsys)
        assert code == 1
        assert err == "error: self-check failed: G_2 must be an integer, got 1/2\n"
        assert out == ""

    def test_wrong_binomial_exits_one_without_traceback(self, capsys, monkeypatch):
        def shifted_rows(top):  # half row m holds C(m + 1, j) in place of C(m, j)
            return ([math.comb(m + 1, j) for j in range(m // 2 + 1)] for m in range(top + 1))

        monkeypatch.setattr(genocchi, "_binomial_rows", shifted_rows)
        code, _, err = run(["genocchi", "6"], capsys)
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: self-check failed: ")

    def test_wrong_tangent_number_exits_one_without_traceback(self, capsys, monkeypatch):
        tangent_numbers = genocchi._tangent_numbers

        def mutant(N):  # T_2 = 3 in place of 2, so G_4 = 2 T_2 / 4 = 3/2
            T = tangent_numbers(N)
            T[2] += 1
            return T

        monkeypatch.setattr(genocchi, "_tangent_numbers", mutant)
        code, out, err = run(["genocchi", "6"], capsys)
        assert code == 1
        assert "Traceback" not in err
        assert err == "error: self-check failed: G_4 must be an integer, got 3/2\n"
        assert "cross-check" not in out


# The options each generate family reads, with a valid value for each.
GENERATE_OPTIONS = {
    "simplex": {"n": "3"},
    "stacked": {"n": "3", "m": "2", "seed": "1"},
    "cone": {"base": "simplex", "n": "3"},
    "sphere-minus-facet": {"base": "simplex", "n": "3"},
    "barycentric": {"in": "{src}"},
}


def generate_argv(family, src, drop=None):
    """`generate FAMILY` with each of its options but `drop`, reading `src`."""
    options = GENERATE_OPTIONS[family].items()
    return ["generate", family,
            *(a for o, v in options if o != drop for a in (f"--{o}", v.format(src=src)))]


class TestGenerateCommand:
    def test_simplex(self, tmp_path, capsys):
        out_file = tmp_path / "simplex.json"
        code, _, _ = run(["generate", "simplex", "--n", "3", "--out", str(out_file)], capsys)
        assert code == 0
        obj = json.loads(out_file.read_text())
        assert obj["n"] == 3
        assert obj["facets"] == [[1, 2, 3]]

    def test_stacked(self, tmp_path, capsys):
        out_file = tmp_path / "b.json"
        code, _, _ = run(
            ["generate", "stacked", "--n", "3", "--m", "2", "--seed", "1",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        assert len(json.loads(out_file.read_text())["facets"]) == 2

    def test_cone_over_octahedron(self, tmp_path, capsys):
        out_file = tmp_path / "cone.json"
        code, _, _ = run(
            ["generate", "cone", "--base", "cross_polytope", "--n", "3",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        obj = json.loads(out_file.read_text())
        assert len(obj["facets"]) == 8
        assert len({v for f in obj["facets"] for v in f}) == 7

    def test_barycentric_from_file(self, tmp_path, capsys):
        src = tmp_path / "tri.json"
        save_complex(simplex_ball(3), src, name="tri")
        out_file = tmp_path / "sd.json"
        code, _, _ = run(
            ["generate", "barycentric", "--in", str(src), "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        obj = json.loads(out_file.read_text())
        assert len(obj["facets"]) == 6
        assert obj["name"] == "sd-tri"

    @pytest.mark.parametrize(
        "args",
        [
            ["simplex", "--n", "4"],
            ["stacked", "--n", "5", "--m", "20", "--seed", "3"],
            ["cone", "--base", "cross_polytope", "--n", "4"],
            ["sphere-minus-facet", "--base", "simplex", "--n", "5"],
            ["barycentric"],
        ],
    )
    def test_names_match_corpus(self, tmp_path, capsys, args):
        if args == ["barycentric"]:
            src = tmp_path / "src.json"
            run(["generate", "simplex", "--n", "3", "--out", str(src)], capsys)
            args = [*args, "--in", str(src)]
        out_file = tmp_path / "ball.json"
        code, _, _ = run(["generate", *args, "--out", str(out_file)], capsys)
        assert code == 0
        ball, name = load_complex(out_file)
        assert dict(corpus_balls())[name] == ball

    @pytest.mark.parametrize(
        "family, option",
        [(family, option) for family, options in GENERATE_OPTIONS.items()
         for option in options if option != "seed"],
    )
    def test_missing_param_is_usage_error(self, tmp_path, capsys, family, option):
        argv = generate_argv(family, tmp_path / "src.json", drop=option)
        out_file = tmp_path / "x.json"
        code, out, err = run([*argv, "--out", str(out_file)], capsys)
        assert code == 2
        assert out == ""
        assert f"error: the following arguments are required: --{option}\n" in err
        assert "Traceback" not in err
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "family, extra",
        [("simplex", ["--m", "5"]), ("stacked", ["--base", "simplex"]),
         ("cone", ["--seed", "2"]), ("barycentric", ["--n", "3"])],
        ids=lambda v: v if isinstance(v, str) else v[0].lstrip("-"),
    )
    def test_unread_option_is_usage_error(self, tmp_path, capsys, family, extra):
        # each family accepts only the options it reads
        src = tmp_path / "src.json"
        save_complex(simplex_ball(3), src, name="tri")
        out_file = tmp_path / "x.json"
        code, out, err = run([*generate_argv(family, src), *extra, "--out", str(out_file)],
                             capsys)
        assert code == 2
        assert out == ""
        assert f"error: unrecognized arguments: {' '.join(extra)}\n" in err
        assert not out_file.exists()

    def test_families_are_the_ball_families(self, capsys):
        # a sub-parser for each FAMILIES row, in table order, then barycentric
        code, out, _ = run(["generate", "--help"], capsys)
        assert code == 0
        listed = re.search(r"\{([a-z,-]+)\}", out).group(1).split(",")
        assert listed == [*FAMILIES, "barycentric"]

    @pytest.mark.parametrize("family", GENERATE_OPTIONS)
    def test_help_lists_the_family_options(self, capsys, family):
        code, out, _ = run(["generate", family, "--help"], capsys)
        assert code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z]+", out))
        assert listed == {f"--{o}" for o in GENERATE_OPTIONS[family]} | {"--help", "--out"}

    @pytest.mark.parametrize(
        "family, generator, expected",
        [
            ("simplex", "simplex_ball", (3,)),
            ("stacked", "stacked_ball", (3, 2, 1)),
            ("cone", "cone_over_boundary", (boundary_sphere("simplex", 3),)),
            ("sphere-minus-facet", "sphere_minus_facet", (boundary_sphere("simplex", 3),)),
        ],
        ids=["simplex", "stacked", "cone", "sphere-minus-facet"],
    )
    def test_builders_call_the_generators_of_the_corpus_module(
        self, tmp_path, capsys, monkeypatch, family, generator, expected
    ):
        # the benchmark's tracer times a generator by replacing it in each module
        calls = []
        original = getattr(corpus, generator)
        monkeypatch.setattr(corpus, generator, lambda *a: calls.append(a) or original(*a))
        code, _, _ = run([*generate_argv(family, None), "--out", str(tmp_path / "x.json")],
                         capsys)
        assert code == 0 and calls == [expected]

    def test_output_round_trips_through_verify(self, tmp_path, capsys):
        out_file = tmp_path / "ball.json"
        run(["generate", "sphere-minus-facet", "--base", "cross_polytope",
             "--n", "4", "--out", str(out_file)], capsys)
        code, _, _ = run(["verify", str(out_file)], capsys)
        assert code == 0


class TestFvectorCommand:
    def test_triangle_rows(self, tmp_path, capsys):
        path = tmp_path / "tri.json"
        save_complex(simplex_ball(3), path)
        code, out, _ = run(["fvector", str(path)], capsys)
        assert code == 0
        assert "f(B) = 3 3 1" in out
        assert "f(∂B) = 3 3" in out
        assert "f(int B) = 0 0 1" in out

    def test_two_triangles_interior(self, tmp_path, capsys):
        path = tmp_path / "two.json"
        path.write_text('{"n": 3, "facets": [[1,2,3],[2,3,4]]}')
        code, out, _ = run(["fvector", str(path)], capsys)
        assert code == 0
        assert "f(int B) = 0 1 2" in out

    def test_single_point(self, tmp_path, capsys):
        path = tmp_path / "pt.json"
        path.write_text('{"n": 1, "facets": [[1]]}')
        code, out, _ = run(["fvector", str(path)], capsys)
        assert code == 0
        assert out == "f(B) = 1\nf(∂B) =\nf(int B) = 1\n"

    @pytest.mark.parametrize(
        "facets, row, failures",
        [
            (
                "[[1,2,3],[4,5,6]]",
                "6 6 2",
                "facet-adjacency graph is disconnected; Euler characteristic 2 != 1",
            ),
            (
                "[[1,2,3],[1,2,4],[1,2,5]]",
                "5 7 3",
                "a ridge lies in more than two facets; "
                "boundary Euler characteristic -1 != 0",
            ),
            (
                "[[1,3,5],[1,3,6],[1,4,5],[1,4,6],[2,3,5],[2,3,6],[2,4,5],[2,4,6]]",
                "6 12 8",
                "no boundary ridge (sphere candidate, not a ball); "
                "Euler characteristic 2 != 1",
            ),
        ],
        ids=["disconnected", "ridge-overflow", "octahedron"],
    )
    def test_disjoint_triangles_fail_screen(self, tmp_path, capsys, facets, row, failures):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"n": 3, "facets": {facets}}}')
        code, out, err = run(["fvector", str(path)], capsys)
        assert code == 2
        assert out == f"f(B) = {row}\n"  # the raw row does not need the screen
        assert err == (
            f"error: boundary/interior rows need the ball screen to pass: {failures}\n"
        )


class TestVerifyCommand:
    def test_file_pass(self, tmp_path, capsys):
        path = tmp_path / "tri.json"
        save_complex(simplex_ball(3), path)
        code, out, _ = run(["verify", str(path)], capsys)
        assert code == 0
        assert "all identities hold" in out

    def test_ridge_overflow_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "facets": [[1,2,3],[1,2,4],[1,2,5]]}')
        code, _, err = run(["verify", str(path)], capsys)
        assert code == 2
        assert "ridge" in err

    def test_sphere_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "sphere.json"
        path.write_text('{"n": 3, "facets": [[1,2,3],[1,2,4],[1,3,4],[2,3,4]]}')
        code, _, err = run(["verify", str(path)], capsys)
        assert code == 2
        assert "sphere" in err

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "tri.json"
        save_complex(simplex_ball(3), path, name="tri")
        code, out, _ = run(["verify", str(path), "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["name"] == "tri"
        assert payload["pass"] is True
        entry = payload["entries"][0]
        assert entry["residual_numerator"] == "0"
        assert entry["residual_denominator"] == "1"

    def test_json_entries(self):
        report = verify_ball(simplex_ball(4), genocchi.genocchi_by_recursion_even(2),
                             name="simplex-n4")
        entries = json.loads(cli._json_ball(report, [c.passed for c in report.checks]))["entries"]
        assert all(
            set(e) == {"identity", "n", "k", "residual_numerator",
                       "residual_denominator", "pass"}
            for e in entries
        )
        assert all(e["n"] == 4 for e in entries)
        assert all(e["residual_numerator"] == "0" for e in entries)
        assert all(e["residual_denominator"] == "1" for e in entries)
        assert all(e["pass"] is True for e in entries)
        assert {e["identity"] for e in entries} == {
            "genocchi",
            "dehn-sommerville",
            "no-interior-faces",
        }

    def test_corpus_small(self, capsys):
        code, out, _ = run(["verify", "--corpus", "--max-n", "3"], capsys)
        assert code == 0
        assert "all residuals zero" in out
        assert "PASS simplex-n2" in out

    def test_corpus_json(self, capsys):
        code, out, _ = run(["verify", "--corpus", "--max-n", "2", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert all(ball["pass"] for ball in payload["balls"])

    def test_corpus_with_grid_file(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "simplex_n": [3, 4],
            "stacked_n": [3],
            "stacked_m": [2],
            "stacked_seeds": [1],
            "sphere_n": [3],
            "barycentric_max_n": 2,
        }))
        code, out, _ = run(["verify", "--corpus", "--grid", str(grid)], capsys)
        assert code == 0
        # simplex 3,4 + one stacked + 2 cones + 2 minus-facet + sd of the
        # one ambient-n<=2 ball
        assert "verified 8 balls" in out

    def test_max_n_bounds_the_subdivisions(self, tmp_path, capsys, monkeypatch):
        # a subdivision keeps its ball's n, so --max-n 3 subdivides no ball
        # above n = 3 however high barycentric_max_n is (sd of the n = 10
        # simplex alone would be 10! chains)
        def run_grid(barycentric_max_n):
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps({"barycentric_max_n": barycentric_max_n}))
            return run(["verify", "--corpus", "--grid", str(grid), "--max-n", "3"], capsys)

        expected = run_grid(3)
        original = corpus.barycentric_subdivision

        def bounded(ball):
            assert ball.n <= 3, f"subdivided a ball with n = {ball.n}"
            return original(ball)

        monkeypatch.setattr(corpus, "barycentric_subdivision", bounded)
        code, out, err = run_grid(100)
        assert code == 0 and err == ""
        assert (code, out, err) == expected

    def test_max_n_builds_no_family_ball_above_it(self, tmp_path, capsys, monkeypatch):
        # each family ball's n is read off its options, so --max-n 3 builds
        # no ball above n = 3: not the n = 16 spheres, whose cross-polytope
        # alone has 2^16 facets, nor the larger simplices and stacked balls
        def run_grid(sphere_n):
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps({"sphere_n": sphere_n}))
            return run(["verify", "--corpus", "--grid", str(grid), "--max-n", "3"], capsys)

        expected = run_grid([3])
        for builder in ("boundary_sphere", "simplex_ball", "stacked_ball"):
            original = getattr(corpus, builder)

            def bounded(*args, original=original, builder=builder):
                n = args[1] if builder == "boundary_sphere" else args[0]
                assert n <= 3, f"{builder} built a ball with n = {n}"
                return original(*args)

            monkeypatch.setattr(corpus, builder, bounded)
        code, out, err = run_grid([3, 16])
        assert code == 0 and err == ""
        assert (code, out, err) == expected

    def test_grid_with_empty_fields(self, tmp_path, capsys):
        # a family with an empty field has no balls; the others keep theirs
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "simplex_n": [], "stacked_m": [], "sphere_n": [3], "barycentric_max_n": 0,
        }))
        code, out, _ = run(["verify", "--corpus", "--grid", str(grid)], capsys)
        assert code == 0
        *balls, total = out.splitlines()
        assert [line.split()[1] for line in balls] == [
            "cone-simplex-n3", "cone-cross_polytope-n3",
            "minus-facet-simplex-n3", "minus-facet-cross_polytope-n3",
        ]
        assert total == "verified 4 balls, 14 identity checks: all residuals zero"

    def test_grid_with_every_family_empty_is_input_error(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text('{"simplex_n": [], "stacked_n": [], "sphere_bases": []}')
        code, out, err = run(["verify", "--corpus", "--grid", str(grid)], capsys)
        assert code == 2 and out == ""
        assert err == "error: corpus is empty (check --max-n / --grid)\n"

    def test_repeated_grid_value_is_input_error(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text('{"simplex_n": [3, 3], "stacked_n": [], "sphere_bases": []}')
        code, out, err = run(["verify", "--corpus", "--grid", str(grid)], capsys)
        assert code == 2 and out == ""
        assert err == "error: corpus grid field 'simplex_n' repeats a value: [3, 3]\n"

    def test_unknown_grid_field_rejected(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text('{"bogus": 1}')
        code, _, err = run(["verify", "--corpus", "--grid", str(grid)], capsys)
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize(
        "obj",
        [
            {"simplex_n": 5},
            {"simplex_n": [1.5]},
            {"stacked_m": [True]},
            {"stacked_seeds": "123"},
            {"sphere_bases": "simplex"},
            {"sphere_bases": ["torus"]},
            {"sphere_bases": [["simplex"]]},
            {"barycentric_max_n": "x"},
            {"barycentric_max_n": [2]},
        ],
        ids=[
            "int-not-list",
            "float-in-list",
            "bool-in-list",
            "string-not-list",
            "base-not-list",
            "unknown-base",
            "nested-base",
            "string-not-int",
            "list-not-int",
        ],
    )
    def test_mistyped_grid_field_rejected(self, tmp_path, capsys, obj):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(obj))
        code, _, err = run(["verify", "--corpus", "--grid", str(grid)], capsys)
        assert code == 2
        assert next(iter(obj)) in err

    def test_deeply_nested_grid_file_is_input_error(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text("[" * 200_000)
        code, _, err = run(["verify", "--corpus", "--grid", str(grid)], capsys)
        assert code == 2
        assert "nested too deeply" in err

    USAGE = "usage: genoball verify [-h] [--json] (input | --corpus [--max-n MAX_N] [--grid GRID])"

    def test_usage_needs_input_or_corpus(self, capsys):
        # exactly one of FILE and --corpus, and the corpus options go with --corpus
        code, out, _ = run(["verify", "--help"], capsys)
        assert code == 0
        assert out.startswith(self.USAGE + "\n")

    @classmethod
    def assert_usage_error(cls, code, out, err, message):
        # argparse's shape, as for generate: the usage line, then the error
        assert code == 2
        assert out == ""
        assert err.startswith(cls.USAGE + "\n")
        assert f"\ngenoball verify: error: {message}\n" in err
        assert "Traceback" not in err

    def test_needs_exactly_one_input(self, tmp_path, capsys):
        self.assert_usage_error(*run(["verify"], capsys),
                                "one of the arguments input --corpus is required")
        path = tmp_path / "tri.json"
        save_complex(simplex_ball(3), path)
        self.assert_usage_error(*run(["verify", str(path), "--corpus"], capsys),
                                "argument --corpus: not allowed with argument input")

    @pytest.mark.parametrize("option", [["--grid", "/nonexistent/grid.json"], ["--max-n", "3"]])
    def test_corpus_options_need_corpus(self, tmp_path, capsys, option):
        path = tmp_path / "tri.json"
        save_complex(simplex_ball(3), path)
        self.assert_usage_error(*run(["verify", str(path), *option], capsys),
                                "--grid and --max-n apply only with --corpus")

    def test_missing_file_is_input_error(self, capsys):
        code, _, _ = run(["verify", "/nonexistent/ball.json"], capsys)
        assert code == 2

    def test_nonzero_residual_exits_one(self, tmp_path, capsys, monkeypatch):
        # no genuine ball can produce this, so force a failing report
        failing = VerificationReport(
            n=3,
            checks=(IdentityCheck("genocchi", 1, Fraction(1, 2)),),
            name="forced",
        )
        monkeypatch.setattr(cli, "verify_ball", lambda *a, **k: failing)
        path = tmp_path / "tri.json"
        save_complex(simplex_ball(3), path)
        code, out, _ = run(["verify", str(path)], capsys)
        assert code == 1
        assert "residual=1/2 FAIL" in out

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_one_failing_corpus_ball_fails_the_corpus(self, capsys, monkeypatch, json_flag):
        # each verdict is decided once; the ball line, the corpus line and
        # the exit code must all read the failing one
        calls = []

        def second_fails(ball, table, name=None):
            calls.append(name)
            report = verify_ball(ball, table, name=name)
            if len(calls) != 2:
                return report
            bad = report.checks[0]._replace(residual=Fraction(1, 2))
            return report._replace(checks=(bad, *report.checks[1:]))

        monkeypatch.setattr(cli, "verify_ball", second_fails)
        code, out, _ = run(["verify", "--corpus", "--max-n", "3", *json_flag], capsys)
        assert code == 1
        if json_flag:
            payload = json.loads(out)
            assert payload["pass"] is False
            assert [ball["pass"] for ball in payload["balls"]][:3] == [True, False, True]
            assert [e["pass"] for e in payload["balls"][1]["entries"]][:2] == [False, True]
        else:
            lines = out.splitlines()
            assert [line.split()[0] for line in lines[:3]] == ["PASS", "FAIL", "PASS"]
            assert lines[-1].endswith("NONZERO RESIDUAL FOUND")

    def test_corrupted_table_fails_boundary_only_identity(self, tmp_path, capsys, monkeypatch):
        def corrupted(N):
            table = genocchi.genocchi_by_recursion_even(N)
            values = {**table.values, 4: table.values[4] + 1}
            return genocchi.GenocchiTable(values, "corrupted")

        monkeypatch.setattr(cli, "genocchi_by_recursion_even", corrupted)
        path = tmp_path / "stacked.json"
        save_complex(stacked_ball(4, 5, 1), path)
        code, out, _ = run(["verify", str(path)], capsys)
        assert code == 1
        assert any(
            line.split()[0] == "no-interior-faces" and line.endswith(" FAIL")
            for line in out.splitlines()[1:-1]
        )
        assert out.splitlines()[-1] == "NONZERO RESIDUAL FOUND"

    @pytest.mark.usefixtures("cold_weight_memos")
    def test_self_check_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        # a binomial that is not symmetric trips verify._checked_binomials
        monkeypatch.setattr(verify, "binomial", lambda n, k: math.comb(n, k) + k)
        path = tmp_path / "ball.json"
        save_complex(simplex_ball(4), path)
        code, out, err = run(["verify", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: self-check failed: binomial symmetry broken at")

    @pytest.mark.usefixtures("cold_weight_memos")
    def test_late_self_check_failure_prints_no_json(self, capsys, monkeypatch):
        # binomial symmetry breaks only at n >= 9, which the corpus first
        # reaches after several balls have been verified
        monkeypatch.setattr(
            verify, "binomial", lambda n, k: math.comb(n, k) + (k if n >= 9 else 0)
        )
        verified = []

        def counted(*args, **kwargs):
            report = verify.verify_ball(*args, **kwargs)
            verified.append(report)
            return report

        monkeypatch.setattr(cli, "verify_ball", counted)
        code, out, err = run(["verify", "--corpus", "--json"], capsys)
        assert code == 1
        assert len(verified) >= 5
        assert out == ""
        assert err.startswith("error: self-check failed: binomial symmetry broken at")


def _ref_json_report(reports, corpus):
    """Reference: the report as a payload of dicts, serialized by json.dumps."""

    def ball(report):
        return {
            "name": report.name,
            "n": report.n,
            "pass": report.passed,
            "entries": [
                {
                    "identity": c.identity,
                    "n": report.n,
                    "k": c.k,
                    "residual_numerator": str(c.residual.numerator),
                    "residual_denominator": str(c.residual.denominator),
                    "pass": c.passed,
                }
                for c in report.checks
            ],
        }

    if corpus:
        payload = {"pass": all(r.passed for r in reports), "balls": [ball(r) for r in reports]}
    else:
        payload = ball(reports[0])
    return json.dumps(payload, indent=2)


_tricky_text = st.lists(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\x7f", "\u00e4", "\u2603", "\U0001f600"])
    | st.characters(),
    max_size=12,
).map("".join)

_residuals = st.just(Fraction(0)) | st.builds(
    Fraction,
    st.integers() | st.integers(-(10**80), 10**80),
    st.integers(1, 10**40),
)

_checks = st.builds(
    IdentityCheck,
    identity=st.sampled_from(["genocchi", "dehn-sommerville", "no-interior-faces"]) | _tricky_text,
    k=st.integers(0, 40),
    residual=_residuals,
    trivial=st.booleans(),
)

_reports = st.builds(
    VerificationReport,
    n=st.integers(1, 40),
    # verify_ball always reports the trivial k = n check, so no report is empty
    checks=st.lists(_checks, min_size=1, max_size=6).map(tuple),
    name=st.none() | _tricky_text,
)


@settings(max_examples=200, deadline=None)
@given(reports=st.lists(_reports, min_size=1, max_size=3), corpus=st.booleans())
def test_json_report_is_json_dumps_indent_2(reports, corpus):
    # _json_corpus writes the corpus report, _json_ball the report of a file
    # the writers read each check's verdict as given, not from its residual
    verdicts = [[check.passed for check in report.checks] for report in reports]
    if corpus:
        text = cli._json_corpus(reports, verdicts)
    else:
        reports = reports[:1]
        text = cli._json_ball(reports[0], verdicts[0])
    assert text == _ref_json_report(reports, corpus)


@pytest.mark.parametrize("command", ["verify", "fvector"])
def test_deeply_nested_facet_file_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run([command, str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "nested too deeply" in err


@pytest.mark.parametrize(
    "argv",
    [["verify", "{path}"], ["fvector", "{path}"], ["verify", "--corpus", "--grid", "{path}"]],
    ids=["verify", "fvector", "grid"],
)
@pytest.mark.parametrize("content", [b"{", b"\xff\xfe"], ids=["invalid-json", "not-utf8"])
def test_unreadable_json_names_the_file(tmp_path, capsys, argv, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run([arg.format(path=path) for arg in argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: not valid ")


def test_usage_error_exit_code(capsys):
    code, _, _ = run(["no-such-command"], capsys)
    assert code == 2


HUGE = str(10**20)
# each route allocates its table's list first: 10^20 entries do not fit an
# index, and 2^61 fail CPython's size check before any allocation.  A
# cross-polytope sphere allocates its 2^n facets first too: n = 61 and 64
# fail the same way, while an n from 30 to 60 might really be allocated
ROUTES = ["series", "recursion-even", "recursion-odd", "bernoulli"]


@pytest.mark.parametrize(
    "argv",
    [
        ["genocchi", HUGE],
        ["genocchi", str(2**61)],
        *(["genocchi", HUGE, "--method", m] for m in ROUTES),
        *(["genocchi", str(2**61), "--method", m] for m in ROUTES[1:]),
        ["generate", "simplex", "--n", HUGE, "--out", "{out}"],
        ["generate", "stacked", "--n", HUGE, "--m", "2", "--out", "{out}"],
        ["generate", "cone", "--base", "cross_polytope", "--n", HUGE, "--out", "{out}"],
        ["generate", "sphere-minus-facet", "--base", "simplex", "--n", HUGE, "--out", "{out}"],
        *(
            ["generate", family, "--base", "cross_polytope", "--n", n, "--out", "{out}"]
            for family in ["cone", "sphere-minus-facet"]
            for n in ["61", "64"]
        ),
        ["verify", "--corpus", "--grid", "{grid}"],
        ["verify", "--corpus", "--grid", "{sphere_grid}"],
    ],
    ids=[
        "genocchi",
        "genocchi-memory",
        *(f"genocchi-{m}" for m in ROUTES),
        *(f"genocchi-{m}-memory" for m in ROUTES[1:]),
        "simplex",
        "stacked",
        "cone",
        "sphere-minus-facet",
        *(
            f"{family}-cross_polytope-{n}"
            for family in ["cone", "sphere-minus-facet"]
            for n in ["61", "64"]
        ),
        "grid",
        "grid-sphere",
    ],
)
def test_oversized_integer_is_input_error(tmp_path, capsys, argv):
    # too large to index or to allocate: one error line and exit 2, no traceback
    out_path, grid = tmp_path / "u.json", tmp_path / "grid.json"
    sphere_grid = tmp_path / "sphere_grid.json"
    grid.write_text(f'{{"simplex_n": [{HUGE}]}}')
    sphere_grid.write_text('{"sphere_n": [64]}')
    code, out, err = run(
        [arg.format(out=out_path, grid=grid, sphere_grid=sphere_grid) for arg in argv], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out_path.exists()


def test_message_less_memory_error_reads_out_of_memory(capsys, monkeypatch):
    def exhausted(N):
        raise MemoryError

    monkeypatch.setitem(cli._METHODS, "series", exhausted)
    assert run(["genocchi", "3", "--method", "series"], capsys) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("command", ["fvector", "verify"])
def test_one_facet_file_with_40_vertices_finishes(tmp_path, capsys, command):
    # 2^40 subsets: counted by a shelling, not by expansion
    path = tmp_path / "s40.json"
    save_complex(simplex_ball(40), path)
    code, out, err = run([command, str(path)], capsys)
    assert (code, err) == (0, "")
    if command == "fvector":
        assert out.splitlines()[-1] == "f(int B) = " + "0 " * 39 + "1"
    else:
        assert out.endswith("all identities hold\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["genocchi", "3"],
        ["verify", "--corpus", "--max-n", "3", "--json"],
        ["generate", "--help"],
        ["no-such-command"],
    ],
)
def test_repeated_calls_print_the_same_bytes(capsys, argv):
    assert run(argv, capsys) == run(argv, capsys)


def test_help_matches_a_fresh_parser(capsys):
    code, out, _ = run(["generate", "--help"], capsys)
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["generate", "--help"])
    assert code == 0
    assert out == capsys.readouterr().out


PARSER_ONCE_CHILD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from genoball import cli
assert cli._parser.cache_info().currsize == 0, "import built the parser"
built = []
original = cli.build_parser
cli.build_parser = lambda: built.append(1) or original()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["genocchi", "2"]), cli.main(["genocchi", "2"])]
assert codes == [0, 0] and built == [1], (codes, built)
"""


def test_parser_is_built_on_the_first_call_only():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", PARSER_ONCE_CHILD, str(src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


# Values of the wrong JSON type for any field of a facet file.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(-2, 16),
    st.text(max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(0, 3), max_size=1),
)
_FACET_FLAWS = ["unsorted", "short", "long", "repeat", "bad-id", "junk-id", "junk"]
_FILE_FLAWS = ["wrong-n", "junk-n", "junk-facets", "empty", "missing", "unknown", "junk-name"]


@st.composite
def _facet_file_objects(draw):
    """A facet file, or something close to one: n <= 6, at most 12 facets,
    vertex ids in -1..15, with a few wrong types, unsorted or wrongly sized
    facets, and unknown keys mixed in."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.one_of(_JUNK, st.lists(st.integers(-1, 15), max_size=3)))
    n = draw(st.integers(1, 6))
    facets = []
    for _ in range(draw(st.integers(1, 12))):
        facet = sorted(draw(st.sets(st.integers(1, 15), min_size=n, max_size=n)))
        flaw = draw(st.sampled_from([None] * 30 + _FACET_FLAWS))
        if flaw == "unsorted" and n > 1:
            facet.reverse()
        elif flaw == "short":
            facet.pop()
        elif flaw == "long":
            facet.append(facet[-1] + 1)
        elif flaw == "repeat" and n > 1:
            facet[1] = facet[0]
        elif flaw == "bad-id":
            facet[0] = draw(st.integers(-1, 0))
        elif flaw == "junk-id":
            facet[-1] = draw(_JUNK)
        elif flaw == "junk":
            facet = draw(_JUNK)
        facets.append(facet)
    obj = {"n": n, "facets": facets}
    if draw(st.booleans()):
        obj["name"] = draw(st.text(max_size=4))
    for flaw in draw(st.sets(st.sampled_from(_FILE_FLAWS), max_size=2)):
        if flaw == "wrong-n":
            obj["n"] = draw(st.integers(-1, 6))
        elif flaw == "junk-n":
            obj["n"] = draw(_JUNK)
        elif flaw == "junk-facets":
            obj["facets"] = draw(_JUNK)
        elif flaw == "empty":
            obj["facets"] = []
        elif flaw == "missing":
            del obj[draw(st.sampled_from(["n", "facets"]))]
        elif flaw == "unknown":
            obj[draw(st.sampled_from(["N", "extra", "facet"]))] = draw(_JUNK)
        else:
            obj["name"] = draw(_JUNK)
    return obj


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(obj=_facet_file_objects())
def test_bad_facet_files_keep_the_exit_code_contract(tmp_path_factory, obj):
    file = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    file.write_text(json.dumps(obj), encoding="utf-8")
    path = str(file)
    for argv in (["verify", path], ["verify", path, "--json"], ["fvector", path]):
        code, out, err = _main_captured(argv)
        assert code in (0, 1, 2), (argv, obj)
        if code == 2:
            assert err.startswith("error: "), (argv, obj)
        if code != 1:
            continue
        # exit 1 only with evidence: a nonzero residual or a failed self-check
        if err.startswith("error: self-check failed: "):
            continue
        if argv[0] == "fvector":
            pytest.fail(f"fvector exit 1 without a self-check message: {obj!r}")
        elif "--json" in argv:
            entries = json.loads(out)["entries"]
            assert any(e["residual_numerator"] != "0" for e in entries), obj
        else:
            assert "NONZERO RESIDUAL FOUND" in out, obj


STDLIB_ONLY_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
assert not any("site-packages" in p for p in sys.path), sys.path
from genoball import cli
codes = [cli.main(["genocchi", "3"]), cli.main(["verify", "--corpus", "--max-n", "3"])]
sys.exit(0 if codes == [0, 0] else 1)
"""


def test_runs_on_the_standard_library_alone():
    # -I -S: no site-packages, no user site, no PYTHONPATH; only src/ is added
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", STDLIB_ONLY_CHILD, str(src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "cross-check: OK" in result.stdout
    assert "all residuals zero" in result.stdout


STARTUP_IMPORTS_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import genoball.cli
free = ("dataclasses", "inspect", "typing", "pathlib")
print(" ".join(m for m in free if m in sys.modules))
"""


def test_start_up_imports_no_dataclasses_inspect_or_typing():
    # every CLI call is a fresh interpreter; these four modules cost it ~15 ms
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", STARTUP_IMPORTS_CHILD, str(src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


MAIN_CHILD = """
import sys
sys.path.insert(0, sys.argv.pop(1))
from genoball.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_child(argv, **streams):
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", MAIN_CHILD, str(src), *argv],
        timeout=120,
        **streams,
    )


def dead_pipe():
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize(
    "argv", [["genocchi", "5"], ["verify", "--corpus", "--max-n", "3", "--json"]]
)
def test_dead_stdout_pipe_is_an_output_error(argv):
    # written or flushed inside main, so the error line is main's, not the
    # interpreter's "Exception ignored" at exit
    write = dead_pipe()
    try:
        result = run_child(argv, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (2, "error: [Errno 32] Broken pipe\n")


def test_dead_stdout_and_stderr_pipe_is_an_output_error():
    # the error line cannot be written either, which leaves the exit code at 2
    write = dead_pipe()
    try:
        result = run_child(["genocchi", "5"], stdout=write, stderr=write)
    finally:
        os.close(write)
    assert result.returncode == 2


def test_closed_stdout_prints_nothing_and_exits_zero():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        ["sh", "-c", '"$0" -I -S -B -c "$1" "$2" genocchi 5 >&-', sys.executable, MAIN_CHILD, src],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


PACKAGE_MODULES = ("complexes", "corpus", "fileio", "generators", "genocchi", "verify")


def test_package_re_exports_every_module_all_once():
    lists = [importlib.import_module(f"genoball.{m}").__all__ for m in PACKAGE_MODULES]
    names = [name for names in lists for name in names]
    # disjoint lists, so no star import shadows a name of an earlier one
    assert len(names) == len(set(names))
    public = {
        name
        for name, value in vars(genoball).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)


def test_benchmark_tracer_restores_every_name_it_wraps():
    # perfbench/tracing.py looks each name up with no default, so deleting
    # or renaming one of them breaks the benchmark's traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    Complex = genoball.complexes.Complex

    def traced_names():
        functions = [
            getattr(sys.modules[f"genoball.{module}"], attr)
            for module, attr, *_ in tracing.FUNCTIONS
        ]
        methods = [vars(Complex)[method] for method, *_ in tracing.METHODS]
        return functions + methods + [vars(Complex)["faces"], cli._METHODS["series"]]

    originals = traced_names()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(map(operator.is_not, traced_names(), originals))
    finally:
        tracer.uninstall()
    assert all(map(operator.is_, traced_names(), originals))
