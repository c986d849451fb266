"""Simplicial kernel: construction, f-vectors, boundaries, ball screen.

Face counts are cross-checked against an independent oracle that tests
every subset of the vertex set for membership, instead of expanding
facets.
"""

import gc
import tracemalloc
from itertools import combinations

import pytest

from genoball.complexes import (
    Complex,
    ComplexError,
    DuplicateVertexError,
    EmptyInputError,
    FVector,
    NoBoundaryError,
    NonPureError,
    RidgeOverflowError,
    from_facets,
)

from helpers import relabel

TRIANGLE = [[1, 2, 3]]
TWO_TRIANGLES = [[1, 2, 3], [2, 3, 4]]
# four tetrahedra sharing apex 0 over the boundary of a tetrahedron
CONE_OVER_TETRA_BOUNDARY = [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4]]
TETRA_BOUNDARY = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
MB = 1 << 20


def oracle_f_vector(facet_lists):
    """Independent face count: membership-tested subsets of the vertex set."""
    facets = [set(f) for f in facet_lists]
    vertices = sorted(set().union(*facets))
    n = len(facet_lists[0])
    counts = []
    for size in range(1, n + 1):
        hits = sum(
            1
            for subset in combinations(vertices, size)
            if any(set(subset) <= f for f in facets)
        )
        counts.append(hits)
    return tuple(counts)


class TestFromFacets:
    def test_single_simplex(self):
        c = from_facets(TRIANGLE)
        assert c.n == 3
        assert c.facets == ((1, 2, 3),)

    def test_two_facets(self):
        c = from_facets(TWO_TRIANGLES)
        assert len(c.facets) == 2

    def test_normalizes_and_dedupes(self):
        c = from_facets([[3, 1, 2], [1, 2, 3]])
        assert c.facets == ((1, 2, 3),)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(NonPureError):
            from_facets([[1, 2], [1, 2, 3]])

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            from_facets([])

    def test_empty_facet_rejected(self):
        with pytest.raises(EmptyInputError):
            from_facets([[1, 2], []])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(DuplicateVertexError):
            from_facets([[1, 2, 2]])

    def test_bad_vertex_ids_rejected(self):
        with pytest.raises(ComplexError):
            from_facets([[1, -2]])
        with pytest.raises(ComplexError):
            from_facets([["a", "b"]])

    @pytest.mark.parametrize("facet", [[1, "a"], [None, 1], [1.0, 2]])
    def test_unsortable_vertex_ids_rejected(self, facet):
        # checked before sorting, so mixed types raise no bare TypeError
        with pytest.raises(ComplexError, match="vertex ids must be nonnegative integers"):
            from_facets([facet])


class TestFVectorType:
    def test_out_of_range_reads_zero(self):
        fv = FVector((3, 3, 1))
        assert fv[-1] == 0
        assert fv[3] == 0
        assert fv[2] == 1

    def test_iteration(self):
        assert tuple(FVector((4, 3))) == (4, 3)

    def test_euler_characteristic(self):
        assert FVector((3, 3, 1)).euler_characteristic() == 1
        assert FVector((6, 12, 8)).euler_characteristic() == 2


class TestFVector:
    @pytest.mark.parametrize(
        "facets,expected",
        [
            (TRIANGLE, (3, 3, 1)),
            (TWO_TRIANGLES, (4, 5, 2)),
            (CONE_OVER_TETRA_BOUNDARY, (5, 10, 10, 4)),
        ],
    )
    def test_known_values(self, facets, expected):
        assert tuple(from_facets(facets).f_vector()) == expected

    @pytest.mark.parametrize(
        "facets",
        [TRIANGLE, TWO_TRIANGLES, CONE_OVER_TETRA_BOUNDARY, TETRA_BOUNDARY],
    )
    def test_against_membership_oracle(self, facets):
        assert tuple(from_facets(facets).f_vector()) == oracle_f_vector(facets)

    def test_closure_under_subfaces(self):
        c = from_facets(CONE_OVER_TETRA_BOUNDARY)
        for dim in range(1, c.n):
            for face in c.faces(dim):
                for sub in combinations(face, dim):
                    assert sub in c.faces(dim - 1)

    def test_census_keeps_no_face_sets(self):
        # one 14-vertex facet has 16383 faces and its boundary 16382: a
        # census that kept either's face sets would hold about 2 MB
        c = from_facets([range(1, 15)])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            census = c.census()
            peak = tracemalloc.get_traced_memory()[1]
            # a full collection empties the tuple free lists, which would
            # otherwise keep up to 2000 freed faces of each size
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert census.f[6] == 3432
        assert held - base < 0.1 * MB
        assert peak - base < 2.5 * MB


class TestBoundary:
    def test_triangle(self):
        bd = from_facets(TRIANGLE).boundary()
        assert bd.facets == tuple(sorted({(1, 2), (1, 3), (2, 3)}))

    def test_shared_edge_is_interior(self):
        bd = from_facets(TWO_TRIANGLES).boundary()
        assert bd.facets == tuple(sorted({(1, 2), (1, 3), (2, 4), (3, 4)}))

    def test_sphere_has_no_boundary(self):
        with pytest.raises(NoBoundaryError):
            from_facets(TETRA_BOUNDARY).boundary()

    def test_ridge_overflow(self):
        with pytest.raises(RidgeOverflowError):
            from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5]]).boundary()

    def test_zero_dimensional_rejected(self):
        with pytest.raises(ComplexError):
            from_facets([[1], [2]]).boundary()

    def test_boundary_facets_are_faces_in_exactly_one_facet(self):
        c = from_facets(CONE_OVER_TETRA_BOUNDARY)
        for ridge in c.boundary().facets:
            containers = [f for f in c.facets if set(ridge) <= set(f)]
            assert len(containers) == 1


class TestInteriorFVector:
    @pytest.mark.parametrize(
        "facets,expected",
        [
            (TRIANGLE, (0, 0, 1)),
            (TWO_TRIANGLES, (0, 1, 2)),
            (CONE_OVER_TETRA_BOUNDARY, (1, 4, 6, 4)),
        ],
    )
    def test_known_values(self, facets, expected):
        assert tuple(from_facets(facets).interior_f_vector()) == expected

    def test_top_entry_equals_facet_count(self):
        c = from_facets(CONE_OVER_TETRA_BOUNDARY)
        assert c.interior_f_vector()[c.n - 1] == c.f_vector()[c.n - 1]

    def test_propagates_boundary_errors(self):
        with pytest.raises(NoBoundaryError):
            from_facets(TETRA_BOUNDARY).interior_f_vector()


class TestBallCheck:
    def test_triangle(self):
        report = from_facets(TRIANGLE).ball_check()
        assert report.ok
        assert report.euler_char_ball == 1
        assert report.euler_char_boundary == 0

    def test_cone(self):
        report = from_facets(CONE_OVER_TETRA_BOUNDARY).ball_check()
        assert report.ok
        assert report.euler_char_ball == 1
        assert report.euler_char_boundary == 2

    def test_sphere_flagged(self):
        report = from_facets(TETRA_BOUNDARY).ball_check()
        assert not report.has_boundary
        assert not report.ok
        assert "sphere" in "; ".join(report.failures())

    def test_disjoint_union_flagged(self):
        report = from_facets([[1, 2, 3], [4, 5, 6]]).ball_check()
        assert not report.dual_graph_connected
        assert not report.ok

    def test_overflow_flagged(self):
        report = from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5]]).ball_check()
        assert not report.ridge_incidence_ok

    def test_never_raises_on_weird_input(self):
        # isolated vertices: 0-dimensional, still screened without raising
        report = from_facets([[1], [2]]).ball_check()
        assert not report.has_boundary  # two points form the 0-sphere
        single = from_facets([[1]]).ball_check()
        assert single.has_boundary and single.ok  # one point is the 0-ball


class TestRelabeling:
    def test_f_vector_invariant(self):
        c = from_facets(CONE_OVER_TETRA_BOUNDARY)
        mapping = {0: 9, 1: 4, 2: 70, 3: 2, 4: 11}
        assert tuple(relabel(c, mapping).f_vector()) == tuple(c.f_vector())

    def test_interior_invariant(self):
        c = from_facets(TWO_TRIANGLES)
        mapping = {1: 30, 2: 10, 3: 20, 4: 40}
        relabeled = relabel(c, mapping)
        assert tuple(relabeled.interior_f_vector()) == tuple(c.interior_f_vector())


def test_complex_equality_and_repr():
    a = from_facets(TWO_TRIANGLES)
    b = from_facets([[4, 3, 2], [3, 2, 1]])
    assert a == b
    assert hash(a) == hash(b)
    assert "facets=2" in repr(a)


def test_constructor_rejects_mixed_sizes():
    with pytest.raises(NonPureError):
        Complex(frozenset({(1, 2), (1, 2, 3)}))
