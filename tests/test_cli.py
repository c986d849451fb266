"""Command-line interface: output, round trips, and the exit-code contract.

Exit codes: 0 = all identities hold, 1 = nonzero residual or cross-check
mismatch (a failed self-check included), 2 = input/usage error.
"""

import json
import math
from fractions import Fraction

import pytest

from genoball import cli, genocchi, verify
from genoball.corpus import corpus_balls
from genoball.fileio import load_complex, save_complex
from genoball.generators import simplex_ball
from genoball.verify import IdentityCheck, VerificationReport


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, err = run(["genocchi", "0"], capsys)
        assert code == 2
        assert "N must be >= 1" in err

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        def broken(N):
            table = cli._METHODS["series"](N)
            values = dict(table.values)
            values[2] += 1
            return type(table)(table.max_index, values, "bernoulli")

        monkeypatch.setitem(cli._METHODS, "bernoulli", broken)
        code, out, _ = run(["genocchi", "2"], capsys)
        assert code == 1
        assert "MISMATCH" in out

    def test_self_check_failure_exits_one(self, capsys, monkeypatch):
        def failing(N):
            raise genocchi.SelfCheckError("G_2 must be an integer, got 1/2")

        monkeypatch.setitem(cli._METHODS, "recursion-odd", failing)
        code, out, err = run(["genocchi", "3"], capsys)
        assert code == 1
        assert err == "error: self-check failed: G_2 must be an integer, got 1/2\n"
        assert "cross-check" not in out

    def test_wrong_binomial_exits_one_without_traceback(self, capsys, monkeypatch):
        monkeypatch.setattr(genocchi, "binomial", lambda n, k: math.comb(n + 1, k))
        code, _, err = run(["genocchi", "6"], capsys)
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: self-check failed: ")


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

    def test_missing_param_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            ["generate", "stacked", "--n", "3", "--out", str(tmp_path / "x.json")],
            capsys,
        )
        assert code == 2
        assert "--m" in err

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

    def test_disjoint_triangles_fail_screen(self, tmp_path, capsys):
        path = tmp_path / "dis.json"
        path.write_text('{"n": 3, "facets": [[1,2,3],[4,5,6]]}')
        code, out, err = run(["fvector", str(path)], capsys)
        assert code == 2
        assert "f(B) = 6 6 2" in out  # the raw row does not need the screen
        assert "disconnected" in err


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

    def test_needs_exactly_one_input(self, tmp_path, capsys):
        code, _, _ = run(["verify"], capsys)
        assert code == 2
        path = tmp_path / "tri.json"
        save_complex(simplex_ball(3), path)
        code, _, _ = run(["verify", str(path), "--corpus"], capsys)
        assert code == 2

    @pytest.mark.parametrize("option", [["--grid", "/nonexistent/grid.json"], ["--max-n", "3"]])
    def test_corpus_options_need_corpus(self, tmp_path, capsys, option):
        path = tmp_path / "tri.json"
        save_complex(simplex_ball(3), path)
        code, out, err = run(["verify", str(path), *option], capsys)
        assert code == 2
        assert out == ""
        assert "only with --corpus" in err

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

    def test_self_check_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        # a binomial that is not symmetric trips verify._checked_binomials
        monkeypatch.setattr(verify, "binomial", lambda n, k: math.comb(n, k) + k)
        path = tmp_path / "ball.json"
        save_complex(simplex_ball(4), path)
        code, out, err = run(["verify", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: self-check failed: binomial symmetry broken at")


@pytest.mark.parametrize("command", ["verify", "fvector"])
def test_deeply_nested_facet_file_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run([command, str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "nested too deeply" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(["no-such-command"], capsys)
    assert code == 2
