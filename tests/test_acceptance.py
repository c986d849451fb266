"""Acceptance suite: every criterion exact (zero tolerance), one line each.

All comparisons are literal equality of exact integers/rationals; there is
no tolerance to tune.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.  Set GENOBALL_SLOW=1 to include the 10!
Dumont enumeration.
"""

import os
import random
import time
from collections import Counter

import pytest

from genoball import cli
from genoball.corpus import DEFAULT_GRID, corpus_balls
from genoball.genocchi import (
    binomial,
    dumont_count,
    genocchi_by_bernoulli,
    genocchi_by_recursion_even,
    genocchi_by_recursion_odd,
    genocchi_by_series,
    ratio_identity_residual,
)
from genoball.verify import required_table_size, verify_ball

from helpers import relabel

# Frozen from the series oracle before the build; also the values any two
# agreeing algorithms must reproduce.
GENOCCHI_THROUGH_12 = (-1, 1, -3, 17, -155, 2073)
DUMONT_COUNTS = {1: 1, 2: 3, 3: 17, 4: 155}


def _verdict(num, ok, message):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {num} failed: {message}"


@pytest.fixture(scope="module")
def corpus_run():
    """One full corpus verification shared by criteria 4-8."""
    t0 = time.perf_counter()
    balls = corpus_balls(DEFAULT_GRID)
    table = genocchi_by_recursion_even(
        max(required_table_size(ball.n) for _, ball in balls)
    )
    reports = {name: verify_ball(ball, table, name=name) for name, ball in balls}
    elapsed = time.perf_counter() - t0
    return {"balls": balls, "table": table, "reports": reports, "elapsed": elapsed}


def test_criterion_1_cross_algorithm_agreement():
    t0 = time.perf_counter()
    tables = [
        genocchi_by_series(30),
        genocchi_by_recursion_even(30),
        genocchi_by_recursion_odd(30),
        genocchi_by_bernoulli(30),
    ]
    elapsed = time.perf_counter() - t0
    identical = all(t.values == tables[0].values for t in tables)
    first_six = tuple(tables[0].values[2 * n] for n in range(1, 7))
    ok = identical and first_six == GENOCCHI_THROUGH_12 and elapsed < 5.0
    _verdict(
        1,
        ok,
        f"four methods identical through index 60, G_2..G_12 = {first_six}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_dumont_oracle():
    table = genocchi_by_series(5)
    results = {n: dumont_count(n) for n in (1, 2, 3, 4)}
    ok = all(
        results[n] == DUMONT_COUNTS[n] == abs(table.genocchi(2 * n + 2))
        for n in (1, 2, 3, 4)
    )
    _verdict(2, ok, f"dumont_count(1..4) = {tuple(results.values())} = |G_4..G_10|")


@pytest.mark.skipif(
    not os.environ.get("GENOBALL_SLOW"),
    reason="10! enumeration is optional; set GENOBALL_SLOW=1 to run",
)
def test_criterion_2_optional_dumont_n5():
    t0 = time.perf_counter()
    value = dumont_count(5)
    elapsed = time.perf_counter() - t0
    table = genocchi_by_series(6)
    ok = value == abs(table.genocchi(12)) == 2073 and elapsed < 60.0
    _verdict(2, ok, f"dumont_count(5) = {value} = |G_12| in {elapsed:.1f}s (optional)")


def test_criterion_1_cross_check_n300(capsys):
    t0 = time.perf_counter()
    code = cli.main(["genocchi", "300"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    ok = code == 0 and out.endswith("cross-check: OK\n")
    message = f"genocchi 300: four methods identical through index 600 in {elapsed:.1f}s"
    with capsys.disabled():  # show the verdict line under -s, like the others
        _verdict(1, ok, message)


def test_criterion_3_genocchi_identities():
    t0 = time.perf_counter()
    table = genocchi_by_recursion_even(50)
    ratio = [ratio_identity_residual(n, table) for n in range(2, 51)]
    elapsed = time.perf_counter() - t0
    ok = all(r == 0 for r in ratio) and elapsed < 5.0
    # the reciprocal-weight identity is the odd recursion's own relation,
    # so criterion 1's cross-check of that route already covers it
    _verdict(
        3,
        ok,
        f"ratio identity residual exactly 0 for 2 <= n <= 50, {elapsed:.2f}s",
    )


def test_criterion_4_genocchi_identity_on_corpus(corpus_run):
    reports = corpus_run["reports"]
    balls = corpus_run["balls"]
    families = Counter(name.split("-")[0] for name, _ in balls)
    residuals = [
        c.residual
        for rep in reports.values()
        for c in rep.checks
        if c.identity == "genocchi"
    ]
    coverage = (
        len(balls) >= 40
        and len(families) == 5
        and max(b.n for nm, b in balls if nm.startswith("simplex-")) == 10
        and max(b.n for nm, b in balls if nm.startswith("stacked-")) == 7
    )
    ok = (
        coverage
        and all(r == 0 for r in residuals)
        and corpus_run["elapsed"] < 120.0
    )
    _verdict(
        4,
        ok,
        f"{len(residuals)} residuals all 0 on {len(balls)} balls "
        f"({dict(families)}), {corpus_run['elapsed']:.2f}s",
    )


def test_criterion_5_dehn_sommerville_on_corpus(corpus_run):
    residuals = [
        c.residual
        for rep in corpus_run["reports"].values()
        for c in rep.checks
        if c.identity == "dehn-sommerville"
    ]
    ok = len(residuals) > 0 and all(r == 0 for r in residuals)
    _verdict(5, ok, f"{len(residuals)} residuals all 0, same corpus run")


def test_criterion_6_no_interior_faces_on_corpus(corpus_run):
    checked = 0
    ok = True
    for name, ball in corpus_run["balls"]:
        n = ball.n
        if name.startswith("stacked-") and n >= 3:
            expected_e = n - 3
        elif name.startswith("simplex-"):
            expected_e = n - 2
        else:
            continue
        expected_ks = [
            k for k in range(0, expected_e + 1) if (n - k) % 2 == 0
        ]
        entries = [
            c
            for c in corpus_run["reports"][name].checks
            if c.identity == "no-interior-faces"
        ]
        if [c.k for c in entries] != expected_ks:
            ok = False
        if any(c.residual != 0 for c in entries):
            ok = False
        checked += len(entries)
    ok = ok and checked > 0
    _verdict(
        6,
        ok,
        f"{checked} boundary-only residuals all 0 for every k <= e "
        f"(stacked e=n-3, simplex e=n-2)",
    )


def test_criterion_7_kernel_invariants(corpus_run):
    table = corpus_run["table"]
    ok = True
    permuted_copies = 0
    for name, ball in corpus_run["balls"]:
        report = ball.ball_check()
        if report.euler_char_ball != 1:
            ok = False
        if report.euler_char_boundary != 1 + (-1) ** ball.n:
            ok = False
        if ball.interior_f_vector()[ball.n - 1] != ball.f_vector()[ball.n - 1]:
            ok = False
        baseline = [
            (c.identity, c.k, c.residual)
            for c in corpus_run["reports"][name].checks
        ]
        vertices = list(ball.vertices)
        for copy in range(3):
            rng = random.Random(f"{name}:{copy}")
            shuffled = vertices[:]
            rng.shuffle(shuffled)
            relabeled = relabel(ball, dict(zip(vertices, shuffled)))
            permuted = verify_ball(relabeled, table)
            if [(c.identity, c.k, c.residual) for c in permuted.checks] != baseline:
                ok = False
            permuted_copies += 1
    _verdict(
        7,
        ok,
        f"Euler/top-entry invariants on {len(corpus_run['balls'])} balls, "
        f"relabeling invariance on {permuted_copies} permuted copies",
    )


def test_criterion_8_binomial_symmetry_self_test(corpus_run):
    pairs = set()
    for _, ball in corpus_run["balls"]:
        n = ball.n
        ks = [k for k in range(0, n - 1) if (n - k) % 2 == 0] + [n]
        for k in ks:
            for i in range(1, (n - k) // 2 + 1):
                pairs.add((k, i))
    ok = bool(pairs) and all(
        binomial(k + 2 * i - 1, k + 1) == binomial(k + 2 * i - 1, 2 * i - 2)
        and binomial(k + 2 * i, k + 1) == binomial(k + 2 * i, 2 * i - 1)
        for k, i in pairs
    )
    _verdict(8, ok, f"binomial symmetry holds for all {len(pairs)} (k, i) pairs scanned")
