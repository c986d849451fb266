"""The one-pass census against the multi-pass reference it replaced.

The reference counts ridge incidence with a Counter, searches the
facet-adjacency graph built from pairs of facets sharing a ridge, and
takes f(boundary) from a boundary complex built afresh with from_facets
and expanded in full.  Every census field, and the errors of boundary(),
must match it.  The census itself never calls ``faces`` or ``f_vector``:
it reads the top counts off the ridge map and counts the faces below the
ridges, of the complex and of its boundary, from one expansion of each
facet.
"""

import contextlib
import itertools
import os
from collections import Counter, deque
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genoball.complexes import (
    BallCheckReport,
    Complex,
    ComplexError,
    FVector,
    NoBoundaryError,
    RidgeOverflowError,
    from_facets,
)
from genoball.generators import (
    SPHERE_FAMILIES,
    barycentric_subdivision,
    boundary_sphere,
    cone_over_boundary,
    simplex_ball,
    sphere_minus_facet,
    stacked_ball,
)


def reference_dual_connected(facets, n, incidence):
    by_ridge = {r: [] for r in incidence}
    for facet in facets:
        for r in combinations(facet, n - 1):
            by_ridge[r].append(facet)
    adjacency = {f: set() for f in facets}
    for group in by_ridge.values():
        for a, b in combinations(group, 2):
            adjacency[a].add(b)
            adjacency[b].add(a)
    start = next(iter(facets))
    seen = {start}
    queue = deque([start])
    while queue:
        for nb in adjacency[queue.popleft()]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(facets)


def reference_census(C):
    """(f, f_bd, f_int, report, boundary ridges, first overflow or None)."""
    n = C.n
    incidence = Counter()
    for facet in C.facets:
        incidence.update(combinations(facet, n - 1))
    overflow = next(((r, c) for r, c in incidence.items() if c > 2), None)
    ridges = frozenset(r for r, c in incidence.items() if c == 1)
    f = tuple(from_facets(C.facets).f_vector())
    if ridges and n >= 2:
        f_bd = tuple(from_facets(ridges).f_vector())
    else:
        f_bd = (0,) * (n - 1)
    f_bd_padded = f_bd + (0,) * (n - len(f_bd))
    f_int = tuple(a - b for a, b in zip(f, f_bd_padded))
    report = BallCheckReport(
        n=n,
        ridge_incidence_ok=overflow is None,
        has_boundary=bool(ridges),
        dual_graph_connected=reference_dual_connected(C.facets, n, incidence),
        euler_char_ball=FVector(n, f).euler_characteristic(),
        euler_char_boundary=FVector(n - 1, f_bd).euler_characteristic(),
    )
    return f, f_bd, f_int, report, ridges, overflow


def assert_census_matches_reference(C):
    census = C.census()
    f, f_bd, f_int, report, ridges, overflow = reference_census(C)
    assert tuple(census.f) == f
    assert (census.f_boundary.n, tuple(census.f_boundary)) == (C.n - 1, f_bd)
    assert (census.f_interior.n, tuple(census.f_interior)) == (C.n, f_int)
    assert census.report == report
    assert C.ball_check() == report
    assert census.ridge_overflow == overflow
    assert census.boundary_ridges == ridges
    # boundary() and interior_f_vector() raise exactly as before
    if C.n < 2:
        expected = (ComplexError, "boundary needs facets with at least 2 vertices")
    elif overflow is not None:
        expected = (RidgeOverflowError, f"ridge {overflow[0]} lies in {overflow[1]} facets")
    elif not ridges:
        expected = (NoBoundaryError, "every ridge is interior")
    else:
        expected = None
    if expected is None:
        # built on demand from the boundary ridges, not kept
        assert C.boundary().facets == ridges
        assert C.boundary().n == C.n - 1
        assert tuple(C.interior_f_vector()) == f_int
    else:
        for view in (C.boundary, C.interior_f_vector):
            with pytest.raises(expected[0]) as info:
                view()
            assert type(info.value) is expected[0]
            assert str(info.value) == expected[1]
    assert C.census() is census


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 7), m=st.integers(1, 15), seed=st.integers(0, 2**32))
def test_stacked_balls(n, m, seed):
    assert_census_matches_reference(stacked_ball(n, m, seed))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 4), m=st.integers(1, 5), seed=st.integers(0, 2**32))
def test_subdivided_stacked_balls(n, m, seed):
    assert_census_matches_reference(barycentric_subdivision(stacked_ball(n, m, seed)))


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(SPHERE_FAMILIES), n=st.integers(2, 6))
def test_spheres_and_balls_built_from_them(family, n):
    sphere = boundary_sphere(family, n)
    assert_census_matches_reference(sphere)
    assert_census_matches_reference(cone_over_boundary(sphere))
    assert_census_matches_reference(sphere_minus_facet(sphere))
    if n <= 4:
        assert_census_matches_reference(barycentric_subdivision(sphere))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(1, 9), min_size=n, max_size=n, unique=True),
            min_size=1,
            max_size=12,
        )
    )
)
def test_arbitrary_facet_sets(facets):
    # mostly not balls: overflowing, disconnected and closed complexes, and
    # facets with several boundary ridges
    assert_census_matches_reference(from_facets(facets))


# The census splits each facet F by P(F), the positions in F of the
# vertices o with F - {o} a boundary ridge.  Each case below holds facets
# of the kind its id names; n = 5 has subset sizes s = 1, 2, 3.
@pytest.mark.parametrize(
    "facets",
    [
        # [1, 2, 3] has no boundary ridge; the other three have two, so s < |P|
        [[1, 2, 3], [1, 2, 4], [2, 3, 5], [1, 3, 6]],
        # each facet has one boundary ridge, and P = (3,) for all four
        [[1, 2, 3, 5], [1, 2, 4, 5], [1, 3, 4, 5], [2, 3, 4, 5]],
        # P([1, 2, 3, 4, 5]) = (1, 3): s = 1 < |P|, s = 2 = |P|, s = 3 > |P|;
        # its three neighbours have |P| = 4, so s < |P| for them
        [[1, 2, 3, 4, 5], [2, 3, 4, 5, 6], [1, 2, 4, 5, 7], [1, 2, 3, 4, 8]],
        # P([1, 2, 3, 4, 5]) = (0, 2, 4): s = 1, 2 < |P|, s = 3 = |P|
        [[1, 2, 3, 4, 5], [1, 3, 4, 5, 6], [1, 2, 3, 5, 7]],
        # a cone with apex 2: P = (1,) for three facets and (0,) for one
        [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 5], [2, 3, 4, 5]],
        # the ridge (1, 2, 3) lies in three facets
        [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 3, 6], [1, 2, 4, 7]],
        [[1, 2, 3, 4], [5, 6, 7, 8], [5, 6, 7, 9]],
        [[1, 2], [2, 3], [3, 4]],
        [[1, 2], [1, 3], [1, 4]],
    ],
    ids=["no-ridge-and-s<P", "one-ridge", "s<P-s=P-s>P", "s<P-s=P", "one-ridge-apex-inside",
         "ridge-in-three-facets", "disconnected-n4", "path-n2", "star-n2"],
)
def test_each_kind_of_facet(facets):
    assert_census_matches_reference(from_facets(facets))


@pytest.mark.parametrize(
    "facets",
    [
        [[1, 2, 3], [1, 2, 4], [1, 2, 5]],
        [[1, 2, 3], [4, 5, 6]],
        [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]],
        [[1]],
        [[1], [2]],
        [[1, 2, 3], [1, 2, 4], [1, 2, 5], [6, 7, 8]],
        # vertex 1 lies on the boundary only through (1, 2), the lone
        # boundary ridge of [1, 2, 3]
        [[1, 2, 3], [1, 3, 4], [1, 3, 5], [1, 4, 5], [2, 3, 6]],
    ],
    ids=["ridge-overflow", "disconnected", "closed-sphere", "point", "two-points",
         "overflow-and-disconnected", "vertex-on-a-lone-ridge"],
)
def test_screen_failures_and_points(facets):
    assert_census_matches_reference(from_facets(facets))


def test_point_census_folds_the_empty_boundary():
    census = simplex_ball(1).census()
    assert census.report.ok
    # the empty face is the point's one ridge, and it lies in one facet
    assert census.boundary_ridges == frozenset({()})
    assert census.f_boundary == FVector(0, ())
    assert census.f_interior == census.f == FVector(1, (1,))


@pytest.mark.parametrize("n", range(1, 15))
def test_simplex_rows_match_the_closed_form(n):
    census = simplex_ball(n).census()
    total = tuple(comb(n, j + 1) for j in range(n))
    assert tuple(census.f) == total
    assert tuple(census.f_boundary) == total[: n - 1]
    assert tuple(census.f_interior) == (0,) * (n - 1) + (1,)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stacked_rows_match_the_closed_form(seed):
    # each of the m - 1 stacking steps adds C(n-1, j) j-faces, and only the
    # m - 1 new ridges and the m facets are interior
    n, m = 10, 200
    census = stacked_ball(n, m, seed).census()
    total = tuple(comb(n, j + 1) + (m - 1) * comb(n - 1, j) for j in range(n))
    interior = (0,) * (n - 2) + (m - 1, m)
    assert tuple(census.f) == total
    assert tuple(census.f_interior) == interior
    assert tuple(census.f_boundary) == tuple(t - i for t, i in zip(total, interior))[: n - 1]


SMALL_BALLS = pytest.mark.parametrize(
    "ball",
    [
        simplex_ball(1),
        simplex_ball(2),
        simplex_ball(7),
        stacked_ball(6, 12, 1),
        barycentric_subdivision(stacked_ball(4, 3, 2)),
        from_facets([[1, 2, 3], [4, 5, 6]]),
    ],
    ids=["point", "segment", "simplex-7", "stacked-6-12", "sd-stacked-4-3", "disconnected"],
)


@SMALL_BALLS
def test_census_expands_only_the_faces_below_the_ridges(monkeypatch, ball):
    # the census expands the facets itself, never through faces or f_vector
    faces, f_vector = Complex.faces, Complex.f_vector
    calls = []

    def spy_faces(C, dim):
        calls.append(("faces", C, dim))
        return faces(C, dim)

    def spy_f_vector(C):
        calls.append(("f_vector", C))
        return f_vector(C)

    monkeypatch.setattr(Complex, "faces", spy_faces)
    monkeypatch.setattr(Complex, "f_vector", spy_f_vector)
    C = Complex(ball.facets)  # a fresh object, with no cached census
    C.census()
    assert calls == []
    monkeypatch.undo()
    assert_census_matches_reference(C)


@SMALL_BALLS
def test_census_generates_each_facets_ridges_once(monkeypatch, ball):
    # the ridge map and the adjacency search share one pass over the ridges;
    # every other combinations call of the census takes fewer than n - 1
    n = ball.n
    ridge_calls = Counter()

    def spy_combinations(iterable, r):
        if r == n - 1:
            ridge_calls[iterable] += 1
        return combinations(iterable, r)

    C = Complex(ball.facets)
    monkeypatch.setattr(itertools, "combinations", spy_combinations)
    C.census()
    monkeypatch.undo()
    assert ridge_calls == Counter(ball.facets)
    assert_census_matches_reference(C)


@SMALL_BALLS
def test_census_builds_no_complex(monkeypatch, ball):
    # the boundary complex is built by boundary() on demand, not by the census
    init = Complex.__init__
    built = []

    def spy_init(self, facets):
        built.append(facets)
        init(self, facets)

    C = Complex(ball.facets)
    monkeypatch.setattr(Complex, "__init__", spy_init)
    C.census()
    monkeypatch.undo()
    assert built == []
    assert_census_matches_reference(C)


@pytest.mark.parametrize(
    "facets, has_boundary",
    [
        (stacked_ball(6, 12, 1).facets, True),
        (barycentric_subdivision(stacked_ball(4, 3, 2)).facets, True),
        ([[1]], False),
        ([[1, 2, 3], [1, 2, 4], [1, 2, 5]], False),
        ([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]], False),
    ],
    ids=["stacked-6-12", "sd-stacked-4-3", "point", "ridge-overflow", "closed-sphere"],
)
def test_interior_f_vector_builds_no_complex(monkeypatch, facets, has_boundary):
    # interior_f_vector reads the census and raises the errors of boundary()
    # without building the boundary complex, which boundary() still builds
    init = Complex.__init__
    built = []

    def spy_init(self, facets):
        built.append(facets)
        init(self, facets)

    C = from_facets(facets)
    monkeypatch.setattr(Complex, "__init__", spy_init)
    with contextlib.suppress(ComplexError):
        C.interior_f_vector()
    assert built == []
    with contextlib.suppress(ComplexError):
        C.boundary()
    monkeypatch.undo()
    assert built == ([C.census().boundary_ridges] if has_boundary else [])
    assert_census_matches_reference(C)


BIG_BALLS = {
    "simplex-16": lambda: simplex_ball(16),
    "stacked-10-800-1": lambda: stacked_ball(10, 800, 1),
    "sd-stacked-5-12-1": lambda: barycentric_subdivision(stacked_ball(5, 12, 1)),
}


@pytest.mark.skipif(
    not os.environ.get("GENOBALL_SLOW"),
    reason="full expansion of big balls; set GENOBALL_SLOW=1 to run",
)
@pytest.mark.parametrize("name", BIG_BALLS)
def test_big_balls_match_full_expansion(name):
    # the reference expands the ball and its boundary in full with f_vector
    assert_census_matches_reference(BIG_BALLS[name]())
