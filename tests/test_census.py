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
adjacency search runs only when no shelling reached every facet.  The
fixtures at n = 6 and 7 take each route.
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


def in_census_order(candidates, holds):
    """The first candidate facet list whose facets, in the order the census
    reads them (the frozenset's), satisfy ``holds``."""
    for facets in candidates:
        if holds(list(from_facets(facets).facets)):
            return facets
    raise AssertionError("no candidate is in the wanted order")


def crowded_ridge_filled_last(order):
    # (1, 2, 3) is the first ridge seen and gets its third holder after
    # (4, 5, 6) gets its own, so the first ridge to reach three holders
    # is not the first overflowing ridge in the order the ridges were seen
    holders = Counter()
    filled = []
    for facet in order:
        for ridge in combinations(facet, 3):
            holders[ridge] += 1
            if holders[ridge] == 3:
                filled.append(ridge)
    return next(iter(holders)) == (1, 2, 3) and filled == [(4, 5, 6), (1, 2, 3)]


CROWDED_RIDGES = in_census_order(
    (
        [[1, 2, 3, x] for x in xs] + [[4, 5, 6, y] for y in ys]
        for xs in combinations(range(7, 16), 4)
        for ys in combinations(sorted(set(range(7, 16)) - set(xs)), 3)
    ),
    crowded_ridge_filled_last,
)


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


# a strip of five triangles (v1, v2, v3), (v2, v3, v4), ..., relabelled
# until the census reads the facets in the wanted order
BOUNDARY_SLOT_FIRST = in_census_order(
    ([[labels[i], labels[i + 1], labels[i + 2]] for i in range(5)]
     for labels in itertools.permutations(range(1, 8))),
    boundary_slot_met_before_the_last_facet,
)


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
        # (1, 2, 3) lies in four facets and (4, 5, 6) in three; the census
        # names (1, 2, 3), with its full count, though (4, 5, 6) fills first
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

SMALL_BALLS = pytest.mark.parametrize(
    "ball",
    [
        simplex_ball(1),
        simplex_ball(2),
        simplex_ball(7),
        stacked_ball(6, 12, 1),
        barycentric_subdivision(stacked_ball(4, 3, 2)),
        from_facets([[1, 2, 3], [4, 5, 6]]),
        # a ridge in three facets, so the rings are walked to name it
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
        (SOLID_TORUS_N6, [(6, False)]),
        (RIDGE_IN_THREE_N6, []),
        (stacked_ball(6, 12, 1), [(6, True)]),
        (stacked_ball(5, 12, 1), []),
        (barycentric_subdivision(stacked_ball(4, 3, 2)), []),
        (cone_over_boundary(boundary_sphere("cross_polytope", 4)), []),
    ],
    ids=["stacked-9-60", "simplex-13", "stacked-7-30", "cross-polytope-n6",
         "two-disjoint-5-simplices", "solid-torus-n6", "ridge-in-three-facets-n6",
         "stacked-6-12", "stacked-5-12", "sd-stacked-4-3", "cone-cross-polytope-4"],
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


@pytest.mark.parametrize(
    "ball, searched",
    [
        (stacked_ball(9, 60, 1), False),
        (simplex_ball(13), False),
        (STACKED_7_30, False),
        (CROSS_POLYTOPE_N6, False),
        (SOLID_TORUS_N6, True),  # stuck
        (TWO_DISJOINT_5_SIMPLICES, True),  # stuck
        (RIDGE_IN_THREE_N6, True),  # not shelled
        (stacked_ball(5, 12, 1), True),
        (barycentric_subdivision(stacked_ball(4, 3, 2)), True),
        (from_facets([[1, 2, 3], [4, 5, 6]]), True),
        (simplex_ball(1), True),
    ],
    ids=["stacked-9-60", "simplex-13", "stacked-7-30", "cross-polytope-n6", "solid-torus-n6",
         "two-disjoint-5-simplices", "ridge-in-three-facets-n6", "stacked-5-12",
         "sd-stacked-4-3", "disconnected", "point"],
)
def test_adjacency_search_runs_only_when_no_shelling_reached_every_facet(
    monkeypatch, ball, searched
):
    # a shelling crosses only shared ridges, so one that reaches every facet
    # shows the facet-adjacency graph connected; below n = 6 none is run
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
    assert built == ([reference_census(C)[4]] if has_boundary else [])
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
