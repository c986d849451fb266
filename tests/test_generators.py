"""Ball generators: the five corpus families and their determinism."""

import bisect
import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genoball import corpus, generators
from genoball.complexes import NoBoundaryError, from_facets
from genoball.corpus import corpus_balls
from genoball.generators import (
    SPHERE_FAMILIES,
    SphereScreenError,
    _Lcg,
    barycentric_subdivision,
    boundary_sphere,
    cone_over_boundary,
    simplex_ball,
    sphere_minus_facet,
    stacked_ball,
)


def assert_normal_form(ball):
    """Facets as Complex takes them: increasing tuples of int ids >= 1."""
    for facet in ball.facets:
        assert type(facet) is tuple, facet
        assert all(type(v) is int and v >= 1 for v in facet), facet
        assert all(a < b for a, b in zip(facet, facet[1:])), facet
    assert from_facets(ball.facets) == ball


class TestSimplexBall:
    def test_n3(self):
        assert simplex_ball(3).facets == ((1, 2, 3),)

    def test_n4_f_vector(self):
        assert tuple(simplex_ball(4).f_vector()) == (4, 6, 4, 1)

    def test_n5_interior(self):
        assert tuple(simplex_ball(5).interior_f_vector()) == (0, 0, 0, 0, 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            simplex_ball(0)


class TestStackedBall:
    def test_two_triangles(self):
        ball = stacked_ball(3, 2, seed=1)
        assert tuple(ball.f_vector()) == (4, 5, 2)

    def test_interior_pattern(self):
        assert tuple(stacked_ball(4, 3, seed=7).interior_f_vector()) == (0, 0, 2, 3)

    def test_path_of_edges(self):
        ball = stacked_ball(2, 3, seed=5)
        assert tuple(ball.f_vector()) == (4, 3)
        assert tuple(ball.boundary().f_vector()) == (2,)

    def test_reproducible(self):
        # frozen facet sets pin down the LCG-driven construction
        assert sorted(stacked_ball(3, 5, 42).facets) == [
            (1, 2, 3),
            (1, 2, 4),
            (1, 4, 5),
            (1, 5, 7),
            (2, 3, 6),
        ]
        assert stacked_ball(5, 8, 3).facets == stacked_ball(5, 8, 3).facets

    @pytest.mark.parametrize("n,m,seed", [(3, 6, 1), (4, 5, 2), (5, 4, 9), (6, 7, 3)])
    def test_interior_is_ridges_plus_facets(self, n, m, seed):
        interior = tuple(stacked_ball(n, m, seed).interior_f_vector())
        assert interior == (0,) * (n - 2) + (m - 1, m)

    def test_ball_screen(self):
        report = stacked_ball(4, 10, seed=7).ball_check()
        assert report.ok

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            stacked_ball(1, 2, 0)
        with pytest.raises(ValueError):
            stacked_ball(3, 0, 0)


def rescan_stacked_facets(n, m, seed):
    """Reference stacking: recount and re-sort every boundary ridge at each step."""
    rng = _Lcg(seed)
    facets = [tuple(range(1, n + 1))]
    for step in range(m - 1):
        counts = {}
        for facet in facets:
            for r in itertools.combinations(facet, n - 1):
                counts[r] = counts.get(r, 0) + 1
        ridges = sorted(r for r, c in counts.items() if c == 1)
        ridge = ridges[rng.below(len(ridges))]
        facets.append(tuple(sorted(ridge + (n + step + 1,))))
    return tuple(sorted(facets))


def tuple_stacked_facets(n, m, seed):
    """Reference stacking: one sorted list of boundary ridges kept as tuples."""
    rng = _Lcg(seed)
    facets = [tuple(range(1, n + 1))]
    if m > 1:
        ridges = list(itertools.combinations(facets[0], n - 1))
        for fresh in range(n + 1, n + m):
            ridge = ridges.pop(rng.below(len(ridges)))
            facets.append(ridge + (fresh,))
            for sub in itertools.combinations(ridge, n - 2):
                bisect.insort(ridges, sub + (fresh,))
    return tuple(sorted(facets))


class TestIncrementalStacking:
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(2, 8),
        m=st.integers(1, 60),
        seed=st.one_of(st.integers(0, 2**64), st.integers(-(2**64), -1)),
    )
    def test_matches_rescan(self, n, m, seed):
        ball = stacked_ball(n, m, seed)
        assert ball.facets == rescan_stacked_facets(n, m, seed)
        assert_normal_form(ball)

    @pytest.mark.parametrize(
        "n,m,seed",
        [(2, m, seed) for m in (2, 3, 300) for seed in (1, -1, 2**64)]
        + [(n, 300, seed) for n in (9, 10, 12) for seed in (-(2**64) - 3, 2**64 + 1)],
    )
    def test_key_cuts_match_rescan(self, n, m, seed):
        # a facet key is n ids: at n = 2 a ridge is one id and its cut's head
        # is empty; seeds outside [0, 2^64) reach the LCG reduced mod 2^64
        ball = stacked_ball(n, m, seed)
        assert ball.facets == rescan_stacked_facets(n, m, seed)
        assert_normal_form(ball)

    def test_single_facet_enumerates_no_ridges(self):
        # an eager ridge list would hold 3000 tuples of 2999 vertices (~72 MB)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ball = stacked_ball(3000, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ball.facets == (tuple(range(1, 3001)),)
        assert peak - base < 1 << 20

    @pytest.mark.parametrize(
        "n,m,seed",
        [(n, m, seed) for n, m in [(3, 400), (9, 300), (12, 250)] for seed in (1, 2, 3)]
        + [(2, 70_000, 1)],
    )
    def test_byte_keys_match_tuple_keys(self, n, m, seed):
        # ids beyond one byte (up to 411) and, at n = 2, beyond two (up to 70 001)
        ball = stacked_ball(n, m, seed)
        assert ball.facets == tuple_stacked_facets(n, m, seed)
        assert max(ball.vertices) == n + m - 1


class TestBoundarySphere:
    def test_simplex_boundary(self):
        sphere = boundary_sphere("simplex", 4)
        assert tuple(sphere.f_vector()) == (4, 6, 4)

    def test_octahedron(self):
        sphere = boundary_sphere("cross_polytope", 3)
        assert len(sphere.facets) == 8
        assert tuple(sphere.f_vector()) == (6, 12, 8)

    def test_square(self):
        assert tuple(boundary_sphere("cross_polytope", 2).f_vector()) == (4, 4)

    def test_no_boundary(self):
        with pytest.raises(NoBoundaryError):
            boundary_sphere("simplex", 5).boundary()

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            boundary_sphere("torus", 3)


class TestConeOverBoundary:
    def test_over_tetra_boundary(self):
        cone = cone_over_boundary(boundary_sphere("simplex", 4))
        assert tuple(cone.f_vector()) == (5, 10, 10, 4)

    def test_over_triangle_cycle(self):
        cone = cone_over_boundary(boundary_sphere("simplex", 3))
        assert tuple(cone.f_vector()) == (4, 6, 3)
        assert tuple(cone.interior_f_vector()) == (1, 3, 3)

    def test_over_octahedron(self):
        cone = cone_over_boundary(boundary_sphere("cross_polytope", 3))
        assert tuple(cone.f_vector()) == (7, 18, 20, 8)

    def test_boundary_recovers_base(self):
        # up to relabeling: same f-vector and facet count
        base = boundary_sphere("cross_polytope", 4)
        recovered = cone_over_boundary(base).boundary()
        assert tuple(recovered.f_vector()) == tuple(base.f_vector())
        assert len(recovered.facets) == len(base.facets)

    def test_apex_is_interior(self):
        base = boundary_sphere("simplex", 5)
        cone = cone_over_boundary(base)
        assert cone.interior_f_vector()[0] == 1

    def test_screen_rejects_ball(self):
        with pytest.raises(SphereScreenError):
            cone_over_boundary(simplex_ball(3))


class TestSphereMinusFacet:
    def test_octahedron(self):
        ball = sphere_minus_facet(boundary_sphere("cross_polytope", 3))
        assert tuple(ball.f_vector()) == (6, 12, 7)
        assert tuple(ball.boundary().f_vector()) == (3, 3)
        assert tuple(ball.interior_f_vector()) == (3, 9, 7)

    def test_tetra_boundary(self):
        ball = sphere_minus_facet(boundary_sphere("simplex", 4))
        assert tuple(ball.interior_f_vector()) == (1, 3, 3)

    def test_square_minus_edge(self):
        ball = sphere_minus_facet(boundary_sphere("cross_polytope", 2))
        assert tuple(ball.f_vector()) == (4, 3)
        assert tuple(ball.interior_f_vector()) == (2, 3)

    def test_lower_faces_survive(self):
        sphere = boundary_sphere("cross_polytope", 4)
        ball = sphere_minus_facet(sphere)
        for dim in range(sphere.n - 1):
            assert ball.f_vector()[dim] == sphere.f_vector()[dim]

    def test_screen_rejects_ball(self):
        with pytest.raises(SphereScreenError):
            sphere_minus_facet(stacked_ball(3, 4, 1))


OCTAHEDRON = [[a, b, c] for a in (1, 2) for b in (3, 4) for c in (5, 6)]
TORUS_7 = [
    facet
    for i in range(7)
    for facet in ([i, (i + 1) % 7, (i + 3) % 7], [i, (i + 2) % 7, (i + 3) % 7])
]


@pytest.mark.parametrize("build", [cone_over_boundary, sphere_minus_facet])
@pytest.mark.parametrize(
    "facets, message",
    [
        ([[1, 2, 3]], "has boundary ridges; Euler characteristic 1 != 2"),
        (
            [[1, 2], [1, 3], [1, 4]],
            "a ridge lies in more than two facets; has boundary ridges;"
            " Euler characteristic 1 != 0",
        ),
        (
            [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]],
            "facet-adjacency graph is disconnected",
        ),
        ([[1], [2], [3]], "a ridge lies in more than two facets; Euler characteristic 3 != 2"),
        (
            OCTAHEDRON + [[1, 3, 7]],
            "a ridge lies in more than two facets; has boundary ridges",
        ),
        (TORUS_7, "Euler characteristic 0 != 2"),
        ([[1], [2]], None),
        ([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]], None),
    ],
    ids=["triangle", "star-of-three-edges", "two-triangles", "three-points",
         "octahedron-and-fin", "torus-7", "two-points", "tetrahedron-boundary"],
)
def test_sphere_screen_messages(build, facets, message):
    # every failed condition of the sphere screen, in order, in one message
    S = from_facets(facets)
    if message is None:
        build(S)
        return
    with pytest.raises(SphereScreenError) as info:
        build(S)
    assert str(info.value) == message


class TestBarycentricSubdivision:
    def test_single_edge(self):
        sd = barycentric_subdivision(simplex_ball(2))
        assert sorted(sd.facets) == [(1, 3), (2, 3)]

    def test_single_triangle(self):
        sd = barycentric_subdivision(simplex_ball(3))
        assert tuple(sd.f_vector()) == (7, 12, 6)

    @pytest.mark.parametrize(
        "ball",
        [simplex_ball(3), stacked_ball(3, 4, 2), simplex_ball(4)],
        ids=["triangle", "stacked", "tetra"],
    )
    def test_facet_count_multiplies_by_factorial(self, ball):
        sd = barycentric_subdivision(ball)
        assert len(sd.facets) == len(ball.facets) * math.factorial(ball.n)

    def test_preserves_ball_screen(self):
        sd = barycentric_subdivision(stacked_ball(4, 3, 1))
        assert sd.ball_check().ok

    def test_deterministic(self):
        a = barycentric_subdivision(stacked_ball(3, 3, 8))
        b = barycentric_subdivision(stacked_ball(3, 3, 8))
        assert a == b

    @pytest.mark.parametrize(
        "ball",
        [from_facets([[7]]), from_facets([[2, 5]]), simplex_ball(3), simplex_ball(4),
         simplex_ball(5), stacked_ball(5, 12, 1)],
        ids=["point", "edge", "triangle", "tetra", "simplex-5", "stacked-5-12"],
    )
    def test_matches_the_chains_of_sorted_faces(self, ball):
        # ids 1, 2, ... go to the faces in (dimension, lex) order, and each
        # ordering of a facet's vertices is the chain of its sorted prefixes
        n = ball.n
        faces = {f for facet in ball.facets for s in range(1, n + 1)
                 for f in itertools.combinations(facet, s)}
        vid = {f: i for i, f in enumerate(sorted(faces, key=lambda f: (len(f), f)), 1)}
        chains = {
            tuple(vid[tuple(sorted(order[:s]))] for s in range(1, n + 1))
            for facet in ball.facets
            for order in itertools.permutations(facet)
        }
        sd = barycentric_subdivision(ball)
        assert sd.facets == tuple(sorted(chains))
        assert sd.n == n


def test_chain_rows_built_cold_and_read_warm_give_one_subdivision():
    # the 29 corpus subdivisions and sd(stacked_ball(5, 12, s)) for s = 1..5,
    # each subdivided with an empty _chain_rows memo and then with a full one
    sources = [ball for name, ball in corpus_balls() if ball.n <= 4 and not name.startswith("sd-")]
    sources += [stacked_ball(5, 12, seed) for seed in range(1, 6)]
    assert len(sources) == 34
    for ball in sources:
        generators._chain_rows.cache_clear()
        cold = barycentric_subdivision(ball)
        assert generators._chain_rows.cache_info().misses == 1
        warm = barycentric_subdivision(ball)
        assert generators._chain_rows.cache_info().hits == 1
        assert cold == warm


@pytest.mark.parametrize(
    "ball,n",
    [
        (simplex_ball(2), 2),
        (simplex_ball(6), 6),
        (stacked_ball(3, 5, 1), 3),
        (stacked_ball(5, 12, 2), 5),
        (cone_over_boundary(boundary_sphere("simplex", 5)), 5),
        (cone_over_boundary(boundary_sphere("cross_polytope", 4)), 5),
        (sphere_minus_facet(boundary_sphere("cross_polytope", 5)), 5),
        (barycentric_subdivision(stacked_ball(4, 2, 1)), 4),
    ],
)
def test_every_generated_ball_passes_screen(ball, n):
    report = ball.ball_check()
    assert ball.n == n
    assert report.ok
    assert report.euler_char_ball == 1
    assert report.euler_char_boundary == 1 + (-1) ** n


def _normal_form_cases():
    yield from corpus_balls()
    for family in SPHERE_FAMILIES:
        for n in range(2, 7):
            sphere = boundary_sphere(family, n)
            yield f"{family}-{n}", sphere
            yield f"cone-{family}-{n}", cone_over_boundary(sphere)
            yield f"minus-facet-{family}-{n}", sphere_minus_facet(sphere)
    for n, m, seed in [(2, 3, 1), (3, 1, 1), (3, 4, 2), (4, 3, 5), (5, 2, 7)]:
        yield f"sd-stacked-{n}-{m}-{seed}", barycentric_subdivision(stacked_ball(n, m, seed))


def test_generators_emit_normal_form():
    # the generators hand their facets to Complex as they are, unnormalized
    for name, ball in _normal_form_cases():
        try:
            assert_normal_form(ball)
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from exc


def test_corpus_makes_each_sphere_once(monkeypatch):
    # a cone and a sphere minus a facet on the same (base, n) share one
    # sphere, built and screened once per corpus_balls call
    calls = []

    def counting(base, n):
        calls.append((base, n))
        return boundary_sphere(base, n)

    monkeypatch.setattr(corpus, "boundary_sphere", counting)
    corpus_balls()
    assert len(calls) == 8 and len(set(calls)) == 8
    corpus_balls()  # no sphere outlives the call that made it
    assert len(calls) == 16 and calls[8:] == calls[:8]
