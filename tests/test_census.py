"""The one-pass census against the multi-pass reference it replaced.

The reference counts ridge incidence with a Counter, searches the
facet-adjacency graph built from pairs of facets sharing a ridge, and
takes f(boundary) from a boundary complex built afresh with from_facets
and expanded in full.  Every census field, and the errors of boundary(),
must match it.  The census itself never calls ``faces`` or ``f_vector``
and builds no complex.  It counts the faces of the complex, and then of
its boundary, by one rule: below six vertices per facet it expands each
dimension below the facets, reading the complex's ridges off its ridge
pass, and from six up it shells over a ridge pass (the boundary's own),
falling back to the expansion when a greedy shelling gets stuck.  The
adjacency search runs only when no shelling reached every facet and some
facet, in the lexicographic order the census reads, meets no earlier
facet across a ridge.  The fixtures at n = 6 and 7 take each route.
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

from genoball import complexes
from genoball.complexes import (
    BallCheckReport,
    Complex,
    ComplexError,
    FVector,
    NoBoundaryError,
    RidgeOverflowError,
    from_facets,
)
from genoball.corpus import corpus_balls
from genoball.generators import (
    SPHERE_FAMILIES,
    barycentric_subdivision,
    boundary_sphere,
    cone_over_boundary,
    simplex_ball,
    sphere_minus_facet,
    stacked_ball,
)

from helpers import relabel


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
        euler_char_ball=FVector(f).euler_characteristic(),
        euler_char_boundary=FVector(f_bd).euler_characteristic(),
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
        assert C.boundary().facets == tuple(sorted(ridges))
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


@st.composite
def _facet_sets_at_the_shelling_size(draw):
    """Random facet sets with n = 6 or 7: arbitrary ones, which mostly
    overflow, and subsets of a stacked ball's facets, which are shelled,
    or get stuck when the subset is disconnected."""
    n = draw(st.integers(6, 7))
    if draw(st.booleans()):
        vertex = st.integers(1, n + 3)
        facet = st.lists(vertex, min_size=n, max_size=n, unique=True)
        return draw(st.lists(facet, min_size=1, max_size=8))
    facets = sorted(stacked_ball(n, draw(st.integers(1, 12)), draw(st.integers(0, 2**32))).facets)
    return draw(st.lists(st.sampled_from(facets), min_size=1, max_size=len(facets), unique=True))


@settings(max_examples=80, deadline=None)
@given(_facet_sets_at_the_shelling_size())
def test_arbitrary_facet_sets_at_the_shelling_size(facets):
    assert_census_matches_reference(from_facets(facets))


@st.composite
def _facet_lists_sharing_ridges(draw):
    """Facet lists in any order, with repeats, whose ridges are held by many
    facets: sublists of a stacked ball with n = 4 or 5 and of the subdivision
    of a stacked ball with n = 3 or 4, and arbitrary facets with n = 4 or 5
    on n + 2 vertices, which crowd ridges into three or more facets."""
    kind = draw(st.sampled_from(["stacked", "subdivided", "arbitrary"]))
    seed = draw(st.integers(0, 2**32))
    if kind == "stacked":
        pool = stacked_ball(draw(st.integers(4, 5)), draw(st.integers(1, 12)), seed).facets
    elif kind == "subdivided":
        base = stacked_ball(draw(st.integers(3, 4)), draw(st.integers(1, 4)), seed)
        pool = barycentric_subdivision(base).facets
    else:
        n = draw(st.integers(4, 5))
        pool = list(combinations(range(1, n + 3), n))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))


def reference_earlier_held(facets, n):
    """Bit p of entry i is set iff facets[i] minus its p-th vertex is a ridge
    of an earlier entry."""
    seen, held = set(), []
    for facet in facets:
        ridges = [facet[:p] + facet[p + 1:] for p in range(n)]
        held.append(sum(1 << p for p, ridge in enumerate(ridges) if ridge in seen))
        seen.update(ridges)
    return held


@settings(max_examples=150, deadline=None)
@given(_facet_lists_sharing_ridges())
def test_expansion_under_heavy_ridge_sharing(facets):
    # a facet expands only the subsets that hold its earlier-held positions;
    # the count stays exact in any order, with repeated facets and crowded
    # ridges, and without a pass, where every subset is expanded
    assert_census_matches_reference(from_facets(facets))
    n = len(facets[0])
    ridge_pass = complexes._ridge_pass(facets, n)
    assert ridge_pass[2] == reference_earlier_held(facets, n)
    # the top entry is the length of the list, repeats included
    expected = (*from_facets(facets).f_vector()[:-1], len(facets))
    assert complexes._face_counts(facets, n, ridge_pass) == (expected, False)
    assert complexes._face_counts(facets, n) == (expected, False)


def crowded_ridge_filled_last(order):
    # (1, 2, 9) is seen before (1, 2, 5) and gets its third holder after
    # (1, 2, 5) gets its own, so the first ridge to reach three holders is
    # not the first overflowing ridge in the order the ridges were seen
    holders = Counter()
    filled = []
    for facet in order:
        for ridge in combinations(facet, 3):
            holders[ridge] += 1
            if holders[ridge] == 3:
                filled.append(ridge)
    overflowing = [ridge for ridge, count in holders.items() if count > 2]
    return overflowing == [(1, 2, 9), (1, 2, 5)] and filled == [(1, 2, 5), (1, 2, 9)]


# in lexicographic order, the census's, (1, 2, 3, 9) shows (1, 2, 9) first,
# then the three holders of (1, 2, 5) come before the other three of (1, 2, 9)
CROWDED_RIDGES = [[1, 2, 3, 9], [1, 2, 5, 6], [1, 2, 5, 7], [1, 2, 5, 8],
                  [1, 2, 9, 10], [1, 2, 9, 11], [1, 2, 9, 12]]


def boundary_slot_met_before_the_last_facet(order):
    # the search starts at a facet that holds a boundary ridge, whose slot
    # reads -1 // n == -1, and the last facet is not its neighbour but is
    # the only way to the far end of the strip: a sentinel that read the
    # last facet's entry would cut the far end off
    ridges = Counter(r for facet in order for r in combinations(facet, 2))
    rest = order[:-1]
    first, last = order[0], order[-1]
    return (
        any(ridges[r] == 1 for r in combinations(first, 2))
        and len(set(first) & set(last)) < 2
        and not reference_dual_connected(rest, 3, ridges - Counter(combinations(last, 2)))
    )


# (1, 2, 3) and (7, 8, 9) each lie in three facets; listed as is, (1, 2, 3)
# is seen first, and reversed, (7, 8, 9) would be
TWO_CROWDED_RIDGES = [[1, 2, 3, x] for x in (4, 5, 6)] + [[7, 8, 9, y] for y in (10, 11, 12)]


# a strip of five triangles (v1, v2, v3), (v2, v3, v4), ..., (v5, v6, v7)
# with v = 1, 2, 3, 5, 6, 7, 4, listed in lexicographic order: the strip's
# fourth triangle, (5, 6, 7), comes last, and its fifth, (4, 6, 7), which
# lies beyond the fourth, meets no earlier facet, so the search runs
BOUNDARY_SLOT_FIRST = [[1, 2, 3], [2, 3, 5], [3, 5, 6], [4, 6, 7], [5, 6, 7]]


@pytest.mark.parametrize(
    "facets, holds",
    [(CROWDED_RIDGES, crowded_ridge_filled_last),
     (BOUNDARY_SLOT_FIRST, boundary_slot_met_before_the_last_facet)],
    ids=["crowded-ridge-seen-first-fills-last", "boundary-slot-before-the-last-facet"],
)
def test_fixtures_are_in_the_wanted_order(facets, holds):
    # the census reads the facets in lexicographic order, however they were listed
    assert from_facets(facets[::-1]).facets == tuple(map(tuple, facets))
    assert holds(list(from_facets(facets).facets))


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
        # (1, 2, 9) lies in four facets and (1, 2, 5) in three; the census
        # names (1, 2, 9), with its full count, though (1, 2, 5) fills first
        CROWDED_RIDGES,
        BOUNDARY_SLOT_FIRST,
    ],
    ids=["no-ridge-and-s<P", "one-ridge", "s<P-s=P-s>P", "s<P-s=P", "one-ridge-apex-inside",
         "ridge-in-three-facets", "disconnected-n4", "path-n2", "star-n2",
         "crowded-ridge-seen-first-fills-last", "boundary-slot-before-the-last-facet"],
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
        # the empty face is the one ridge, and it lies in three facets
        [[1], [2], [3]],
        [[1, 2, 3], [1, 2, 4], [1, 2, 5], [6, 7, 8]],
        # vertex 1 lies on the boundary only through (1, 2), the lone
        # boundary ridge of [1, 2, 3]
        [[1, 2, 3], [1, 3, 4], [1, 3, 5], [1, 4, 5], [2, 3, 6]],
        # closed, so the boundary row is n - 1 zeros: one for the cycle, and
        # six for a sphere with n = 7, whose empty boundary is not shelled
        [[1, 2], [2, 3], [1, 3]],
        boundary_sphere("cross_polytope", 7).facets,
    ],
    ids=["ridge-overflow", "disconnected", "closed-sphere", "point", "two-points",
         "three-points", "overflow-and-disconnected", "vertex-on-a-lone-ridge",
         "closed-cycle-n2", "cross-polytope-n7"],
)
def test_screen_failures_and_points(facets):
    assert_census_matches_reference(from_facets(facets))


def test_point_census_folds_the_empty_boundary():
    census = simplex_ball(1).census()
    assert census.report.ok
    assert census.f_boundary == FVector(())
    assert census.f_interior == census.f == FVector((1,))


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


def test_h_to_f_rows_equal_fresh_binomials():
    # the rows f_{j-1} = sum_r h_r C(n-r, j-r) reads are built once per n
    for n in range(41):
        fresh = tuple(tuple(comb(n - r, j - r) for r in range(j + 1)) for j in range(1, n + 1))
        assert complexes._h_to_f_rows(n) == fresh, n


# n = 6 and 7, the smallest sizes the census shells; the first three are
# counted by expansion after all
TWO_DISJOINT_5_SIMPLICES = from_facets([range(1, 7), range(7, 13)])  # stuck: disconnected
RIDGE_IN_THREE_N6 = from_facets([[1, 2, 3, 4, 5, x] for x in (6, 7, 8)])  # not shelled
# {i, ..., i+5} mod 13: no ball, so every greedy shelling gets stuck
SOLID_TORUS_N6 = from_facets([[(i + t) % 13 for t in range(6)] for i in range(13)])
CROSS_POLYTOPE_N6 = boundary_sphere("cross_polytope", 6)  # closed, shelled
STACKED_7_30 = stacked_ball(7, 30, 1)  # its boundary, with n - 1 = 6, is shelled too


def two_disjoint_copies(C):
    """C and a copy of C on new vertices."""
    shift = max(C.vertices)
    return Complex([*C.facets, *relabel(C, {v: v + shift for v in C.vertices}).facets])


# the ball and its boundary are disconnected, so both shellings get stuck and
# the expansion counts both, reading each one's own ridge pass
TWO_DISJOINT_STACKED_10_40 = two_disjoint_copies(stacked_ball(10, 40, 1))

SMALL_BALLS = pytest.mark.parametrize(
    "ball",
    [
        simplex_ball(1),
        simplex_ball(2),
        simplex_ball(7),
        stacked_ball(6, 12, 1),
        barycentric_subdivision(stacked_ball(4, 3, 2)),
        from_facets([[1, 2, 3], [4, 5, 6]]),
        # a ridge in three facets, which the error of boundary() names
        from_facets([[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 3, 6], [1, 2, 4, 7]]),
        from_facets([[1], [2], [3]]),
        TWO_DISJOINT_5_SIMPLICES,
        RIDGE_IN_THREE_N6,
        SOLID_TORUS_N6,
        CROSS_POLYTOPE_N6,
        STACKED_7_30,
    ],
    ids=["point", "segment", "simplex-7", "stacked-6-12", "sd-stacked-4-3", "disconnected",
         "ridge-in-three-facets", "three-points", "two-disjoint-5-simplices",
         "ridge-in-three-facets-n6", "solid-torus-n6", "cross-polytope-n6", "stacked-7-30"],
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
    "ball, shellings",
    [
        (stacked_ball(9, 60, 1), [(9, True), (8, True)]),
        (simplex_ball(13), [(13, True), (12, True)]),
        (STACKED_7_30, [(7, True), (6, True)]),
        (CROSS_POLYTOPE_N6, [(6, True)]),  # no boundary to count
        (TWO_DISJOINT_5_SIMPLICES, [(6, False)]),
        (TWO_DISJOINT_STACKED_10_40, [(10, False), (9, False)]),
        (SOLID_TORUS_N6, [(6, False)]),
        (RIDGE_IN_THREE_N6, []),
        (stacked_ball(6, 12, 1), [(6, True)]),
        (stacked_ball(5, 12, 1), []),
        (barycentric_subdivision(stacked_ball(4, 3, 2)), []),
        (cone_over_boundary(boundary_sphere("cross_polytope", 4)), []),
    ],
    ids=["stacked-9-60", "simplex-13", "stacked-7-30", "cross-polytope-n6",
         "two-disjoint-5-simplices", "two-disjoint-stacked-10-40", "solid-torus-n6",
         "ridge-in-three-facets-n6", "stacked-6-12", "stacked-5-12", "sd-stacked-4-3",
         "cone-cross-polytope-4"],
)
def test_census_shells_from_six_vertices_per_facet(monkeypatch, ball, shellings):
    # (n, whether the greedy shelling reached every facet) for each call, the
    # ball's first and its boundary's second; below n = 6 nothing is shelled
    shelling = complexes._shelling
    calls = []

    def spy_shelling(facets, n, partner):
        h = shelling(facets, n, partner)
        calls.append((n, h is not None))
        return h

    C = Complex(ball.facets)
    monkeypatch.setattr(complexes, "_shelling", spy_shelling)
    C.census()
    monkeypatch.undo()
    assert calls == shellings
    assert_census_matches_reference(C)


@SMALL_BALLS
def test_census_passes_over_the_boundary_only_to_shell_it(monkeypatch, ball):
    # the ball's ridge pass serves its own counts; its boundary, with n - 1
    # vertices per facet, gets a pass of its own only where it is shelled,
    # from n - 1 = 6 up, and below that its ridges are expanded
    ridge_pass = complexes._ridge_pass
    calls = []

    def spy_ridge_pass(facets, n):
        calls.append(n)
        return ridge_pass(facets, n)

    C = Complex(ball.facets)
    monkeypatch.setattr(complexes, "_ridge_pass", spy_ridge_pass)
    C.census()
    monkeypatch.undo()
    assert calls == ([ball.n, ball.n - 1] if ball.n >= 7 else [ball.n])
    assert_census_matches_reference(C)


class CountingSet(set):
    """A set that counts the tuples it is handed, for the census's face sets."""

    handed = 0

    def __init__(self, items=()):
        super().__init__()
        self.update(items)

    def update(self, *iterables):
        for items in map(list, iterables):
            CountingSet.handed += sum(isinstance(item, tuple) for item in items)
            super().update(items)


@pytest.mark.parametrize(
    "balls, lower, lower_boundary",
    [
        # f_1 + f_2 = 1 610 + 4 020: each face is listed once, by the first
        # facet that holds it; the boundary (912 facets, n - 1 = 4) gets no
        # pass, and lists all 6 + 4 subsets of each facet
        ([barycentric_subdivision(stacked_ball(5, 12, 1))], 5630, 9120),
        ([ball for _, ball in corpus_balls() if ball.n < 6], 5906, None),
    ],
    ids=["sd-stacked-5-12-1", "corpus-below-6"],
)
def test_census_lists_only_faces_that_can_be_new(monkeypatch, balls, lower, lower_boundary):
    # the faces below the ridges that the census lists, counted as they are
    # handed to its sets; listing every subset of every facet would hand
    # 28 800 and 19 730
    monkeypatch.setattr(CountingSet, "handed", 0)
    monkeypatch.setattr(complexes, "set", CountingSet, raising=False)
    for C in balls:
        complexes._face_counts(C.facets, C.n, complexes._ridge_pass(C.facets, C.n))
    assert CountingSet.handed == lower
    if lower_boundary is not None:
        CountingSet.handed = 0
        (C,) = balls
        first, partner, _ = complexes._ridge_pass(C.facets, C.n)
        complexes._face_counts([r for r, k in first.items() if partner[k] < 0], C.n - 1)
        assert CountingSet.handed == lower_boundary


@pytest.mark.parametrize(
    "ball", [TWO_DISJOINT_5_SIMPLICES, SOLID_TORUS_N6, RIDGE_IN_THREE_N6],
    ids=["two-disjoint-5-simplices", "solid-torus-n6", "ridge-in-three-facets-n6"],
)
def test_expansion_from_six_up_tables_nothing(ball):
    # the subset getters are tabled below six vertices per facet only, where
    # at most 2^5 masks occur; the expansion after a stuck shelling builds
    # its own, so no table grows with n
    before = complexes._small_subset_getters.cache_info().currsize
    assert complexes._face_counts(ball.facets, ball.n) == (ball.f_vector(), False)
    assert complexes._small_subset_getters.cache_info().currsize == before


@pytest.mark.parametrize(
    "ball, searched",
    [
        (stacked_ball(9, 60, 1), False),
        (simplex_ball(13), False),
        (STACKED_7_30, False),
        (CROSS_POLYTOPE_N6, False),
        (SOLID_TORUS_N6, False),  # stuck, but each facet meets the one before it
        (TWO_DISJOINT_5_SIMPLICES, True),  # stuck
        (RIDGE_IN_THREE_N6, False),  # not shelled, but linked
        (stacked_ball(5, 12, 1), False),
        (barycentric_subdivision(stacked_ball(4, 3, 2)), False),
        (barycentric_subdivision(stacked_ball(5, 12, 1)), False),
        (from_facets([[1, 2, 3], [4, 5, 6]]), True),
        (from_facets([[1, 2, 3, 4], [5, 6, 7, 8]]), True),
        # (1, 4, 5) meets only later facets
        (sphere_minus_facet(boundary_sphere("cross_polytope", 3)), True),
        (from_facets(BOUNDARY_SLOT_FIRST), True),
        (simplex_ball(1), False),
    ],
    ids=["stacked-9-60", "simplex-13", "stacked-7-30", "cross-polytope-n6", "solid-torus-n6",
         "two-disjoint-5-simplices", "ridge-in-three-facets-n6", "stacked-5-12",
         "sd-stacked-4-3", "sd-stacked-5-12", "disconnected", "two-disjoint-tetrahedra",
         "octahedron-minus-facet", "boundary-slot-before-the-last-facet", "point"],
)
def test_adjacency_search_runs_only_when_no_shelling_reached_every_facet(
    monkeypatch, ball, searched
):
    # a shelling crosses only shared ridges, so one that reaches every facet
    # shows the facet-adjacency graph connected, and so does a ridge pass in
    # which every facet after the first meets an earlier one; below n = 6
    # no shelling is run
    connected = complexes._connected
    calls = []

    def spy_connected(partner, n, m):
        calls.append(n)
        return connected(partner, n, m)

    C = Complex(ball.facets)
    monkeypatch.setattr(complexes, "_connected", spy_connected)
    C.census()
    monkeypatch.undo()
    assert calls == ([ball.n] if searched else [])
    assert_census_matches_reference(C)


@pytest.mark.parametrize(
    "ball, connected",
    [(from_facets([[1, 2, 3, 4], [5, 6, 7, 8]]), False),
     (sphere_minus_facet(boundary_sphere("cross_polytope", 3)), True)],
    ids=["two-disjoint-tetrahedra", "octahedron-minus-facet"],
)
def test_the_search_decides_where_the_ridge_pass_shows_no_link(ball, connected):
    assert ball.census().report.dual_graph_connected is connected


def assert_boundary_reads_no_ridge_pass(monkeypatch, C):
    # the partner array serves the census alone: once the census is taken,
    # boundary(), interior_f_vector() and their errors run no ridge pass
    C.census()

    def no_ridge_pass(facets, n):
        raise AssertionError("a ridge pass after the census")

    monkeypatch.setattr(complexes, "_ridge_pass", no_ridge_pass)
    assert_census_matches_reference(C)


@SMALL_BALLS
def test_boundary_reads_no_ridge_pass(monkeypatch, ball):
    assert_boundary_reads_no_ridge_pass(monkeypatch, Complex(ball.facets))


@pytest.mark.parametrize(
    "facets",
    [CROWDED_RIDGES, TWO_CROWDED_RIDGES, [[1, 2, 3], [1, 2, 4], [1, 2, 5]],
     boundary_sphere("simplex", 4).facets, [[1]]],
    ids=["crowded-ridge-seen-first-fills-last", "two-crowded-ridges", "ridge-overflow",
         "simplex-sphere-n4", "point"],
)
def test_boundary_errors_read_no_ridge_pass(monkeypatch, facets):
    assert_boundary_reads_no_ridge_pass(monkeypatch, from_facets(facets))


# the corpus and the inputs of the benchmark's ball-files workload
CORPUS_AND_BALL_FILES = {
    **dict(corpus_balls()),
    "stacked-9-60-1": stacked_ball(9, 60, 1),
    "sd-stacked-5-12-1": barycentric_subdivision(stacked_ball(5, 12, 1)),
    "simplex-13": simplex_ball(13),
}


@pytest.mark.parametrize("name", CORPUS_AND_BALL_FILES)
def test_boundary_complex_counts_as_the_census_boundary_row(name):
    # boundary() counts ridge holders with a Counter, the census with its
    # partner array; the boundary complex's own census must agree
    ball = CORPUS_AND_BALL_FILES[name]
    assert ball.boundary().census().f == ball.census().f_boundary


def what_the_facet_order_decides(C):
    """The facets, the census, whether a shelling reached every facet, and
    the error boundary() raises, as text."""
    try:
        C.boundary()
        error = None
    except ComplexError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return C.facets, C.census(), complexes._face_counts(C.facets, C.n)[1], error


@pytest.mark.parametrize(
    "facets",
    [
        TWO_CROWDED_RIDGES,
        CROWDED_RIDGES,
        STACKED_7_30.facets,  # shelled
        SOLID_TORUS_N6.facets,  # stuck
    ],
    ids=["two-crowded-ridges", "crowded-ridge-seen-first-fills-last", "stacked-7-30",
         "solid-torus-n6"],
)
def test_one_facet_set_built_two_ways_reads_the_same(facets):
    built = [from_facets(facets), from_facets(list(facets)[::-1])]
    assert what_the_facet_order_decides(built[0]) == what_the_facet_order_decides(built[1])


@pytest.mark.parametrize("family, n", [("simplex", 7), ("cross_polytope", 6)])
def test_sphere_minus_facet_reads_as_the_set_difference(family, n):
    # sphere_minus_facet drops the first facet; the set difference with the
    # least facet is the same facet set, built in another order
    S = boundary_sphere(family, n)
    difference = Complex(frozenset(S.facets) - {min(S.facets)})
    assert what_the_facet_order_decides(sphere_minus_facet(S)) == what_the_facet_order_decides(
        difference
    )


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
    assert list(map(sorted, built)) == ([sorted(reference_census(C)[4])] if has_boundary else [])
    assert_census_matches_reference(C)


BIG_BALLS = {
    "simplex-16": lambda: simplex_ball(16),
    "stacked-10-800-1": lambda: stacked_ball(10, 800, 1),
    "sd-stacked-5-12-1": lambda: barycentric_subdivision(stacked_ball(5, 12, 1)),
    "two-disjoint-stacked-10-40-1": lambda: TWO_DISJOINT_STACKED_10_40,
}


@pytest.mark.skipif(
    not os.environ.get("GENOBALL_SLOW"),
    reason="full expansion of big balls; set GENOBALL_SLOW=1 to run",
)
@pytest.mark.parametrize("name", BIG_BALLS)
def test_big_balls_match_full_expansion(name):
    # the reference expands the ball and its boundary in full with f_vector
    assert_census_matches_reference(BIG_BALLS[name]())
