"""Identity verifier: hand-evaluated residuals and whole-ball reports."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genoball import verify
from genoball.complexes import FVector, from_facets
from genoball.generators import (
    barycentric_subdivision,
    boundary_sphere,
    cone_over_boundary,
    simplex_ball,
    sphere_minus_facet,
    stacked_ball,
)
from genoball.genocchi import (
    GenocchiTable,
    InsufficientTableError,
    genocchi_by_recursion_even,
)
from genoball.verify import (
    BallCheckError,
    ParityError,
    PreconditionError,
    dehn_sommerville_residual,
    genocchi_identity_residual,
    max_interior_free_dimension,
    no_interior_faces_residual,
    required_table_size,
    verify_ball,
)

from helpers import relabel


@pytest.fixture(scope="module")
def table():
    return genocchi_by_recursion_even(10)


def _vectors(ball):
    return ball.interior_f_vector(), ball.boundary().f_vector()


def _ref_no_interior_faces_residual(k, interior, boundary, table):
    """Reference: the boundary-only residual as two separate weighted sums."""
    n = len(interior)
    lhs = Fraction(0)
    rhs = Fraction(0)
    for i in range(1, (n - k) // 2 + 1):
        weight = Fraction(table.genocchi(2 * i), 2 * i)
        lhs += weight * math.comb(k + 2 * i - 1, k + 1) * boundary[k + 2 * i - 2]
        rhs += weight * math.comb(k + 2 * i, k + 1) * interior[k + 2 * i - 1]
    return lhs - rhs


REFERENCE_TABLE = genocchi_by_recursion_even(7)


@st.composite
def _interior_free_cases(draw):
    """(k, interior, boundary): arbitrary counts with f_k(int) = 0, n - k even."""
    n = draw(st.integers(1, 14))
    k = draw(st.sampled_from(range(n % 2, n + 1, 2)))
    counts = st.integers(0, 10**6)
    interior = draw(st.lists(counts, min_size=n, max_size=n))
    if k < n:
        interior[k] = 0
    boundary = draw(st.lists(counts, min_size=n - 1, max_size=n - 1))
    return k, FVector(interior), FVector(boundary)


class TestGenocchiIdentity:
    def test_triangle(self, table):
        # 0 - (-1/2)(C(2,2)*3 - C(3,2)*1) = 0, a single term
        interior, boundary = _vectors(from_facets([[1, 2, 3]]))
        assert genocchi_identity_residual(1, interior, boundary, table) == 0

    def test_two_triangles(self, table):
        # 1 - (-1/2)(4 - 3*2) = 0
        interior, boundary = _vectors(from_facets([[1, 2, 3], [2, 3, 4]]))
        assert genocchi_identity_residual(1, interior, boundary, table) == 0

    def test_cone_two_terms(self, table):
        # interior (1,4,6,4), boundary (4,6,4):
        # 1 - [(-1/2)(1*4 - 2*4) + (1/4)(3*4 - 4*4)] = 1 - (2 - 1) = 0
        cone = cone_over_boundary(boundary_sphere("simplex", 4))
        interior, boundary = _vectors(cone)
        assert genocchi_identity_residual(0, interior, boundary, table) == 0
        assert genocchi_identity_residual(2, interior, boundary, table) == 0

    def test_top_dimension_is_trivially_zero(self, table):
        interior, boundary = _vectors(from_facets([[1, 2, 3]]))
        assert genocchi_identity_residual(3, interior, boundary, table) == 0

    def test_parity_enforced(self, table):
        interior, boundary = _vectors(from_facets([[1, 2, 3]]))
        with pytest.raises(ParityError):
            genocchi_identity_residual(0, interior, boundary, table)

    def test_k_range_enforced(self, table):
        interior, boundary = _vectors(from_facets([[1, 2, 3]]))
        with pytest.raises(ValueError):
            genocchi_identity_residual(5, interior, boundary, table)

    def test_insufficient_table_detected(self):
        small = genocchi_by_recursion_even(1)
        interior, boundary = _vectors(simplex_ball(8))
        with pytest.raises(InsufficientTableError):
            genocchi_identity_residual(0, interior, boundary, small)


class TestDehnSommerville:
    def test_triangle(self):
        # 0 + 3/2 + ((-1)^5/2)*C(3,2)*1 = 0
        interior, boundary = _vectors(from_facets([[1, 2, 3]]))
        assert dehn_sommerville_residual(1, interior, boundary) == 0

    def test_simplex4_top_gap(self):
        # 0 + 4/2 + ((-1)^7/2)*C(4,3)*1 = 0
        interior, boundary = _vectors(simplex_ball(4))
        assert dehn_sommerville_residual(2, interior, boundary) == 0

    def test_cone(self):
        # 6 + 4/2 + (-1/2)*C(4,3)*4 = 0
        cone = cone_over_boundary(boundary_sphere("simplex", 4))
        interior, boundary = _vectors(cone)
        assert dehn_sommerville_residual(2, interior, boundary) == 0

    def test_parity_enforced(self):
        interior, boundary = _vectors(simplex_ball(4))
        with pytest.raises(ParityError):
            dehn_sommerville_residual(1, interior, boundary)

    def test_k_range_enforced(self):
        interior, boundary = _vectors(simplex_ball(4))
        with pytest.raises(ValueError):
            dehn_sommerville_residual(4, interior, boundary)


class TestNoInteriorFaces:
    def test_stacked_4_3(self, table):
        interior, boundary = _vectors(stacked_ball(4, 3, seed=1))
        assert no_interior_faces_residual(0, interior, boundary, table) == 0

    def test_stacked_5_4(self, table):
        interior, boundary = _vectors(stacked_ball(5, 4, seed=1))
        assert no_interior_faces_residual(1, interior, boundary, table) == 0

    def test_simplex4(self, table):
        interior, boundary = _vectors(simplex_ball(4))
        assert no_interior_faces_residual(0, interior, boundary, table) == 0

    def test_precondition_enforced(self, table):
        cone = cone_over_boundary(boundary_sphere("simplex", 4))
        interior, boundary = _vectors(cone)  # interior vertex: f_0(int) = 1
        with pytest.raises(PreconditionError):
            no_interior_faces_residual(0, interior, boundary, table)

    @pytest.mark.parametrize("k", [-2, 6])
    def test_k_range_enforced(self, table, k):
        # n - k is even and f_k(int B) reads 0 outside 0..n-1, so only the
        # range check of the Genocchi residual can refuse these
        interior, boundary = _vectors(simplex_ball(4))
        with pytest.raises(ValueError, match=r"k must be within 0\.\.4"):
            no_interior_faces_residual(k, interior, boundary, table)

    # interior (0, 1, 0, 0), zero boundary: the Genocchi residual is
    # 0 - (-1/2)(0 - C(2,1)*1) = -1, so this residual is 1
    NONZERO_CASE = (0, FVector((0, 1, 0, 0)), FVector((0, 0, 0)))

    def test_nonzero_case_is_nonzero(self, table):
        assert _ref_no_interior_faces_residual(*self.NONZERO_CASE, table) == 1

    @settings(max_examples=300, deadline=None)
    @given(case=_interior_free_cases())
    @example(case=NONZERO_CASE)
    def test_matches_two_sum_reference(self, case):
        # most random vectors are no ball's, so most residuals are nonzero
        assert no_interior_faces_residual(*case, REFERENCE_TABLE) == (
            _ref_no_interior_faces_residual(*case, REFERENCE_TABLE)
        )


def test_n_is_read_off_the_interior_row(table):
    # the ambient n of a 4-ball is the length of its rows; a size passed
    # beside them, the old form, is refused instead of read
    interior, boundary = _vectors(simplex_ball(4))
    assert len(interior) == 4
    with pytest.raises(TypeError):
        genocchi_identity_residual(0, interior, boundary, 6, table)
    with pytest.raises(TypeError):
        dehn_sommerville_residual(0, interior, boundary, 6)
    with pytest.raises(TypeError):
        no_interior_faces_residual(0, interior, boundary, 6, table)


class TestInteriorFreeDimension:
    def test_simplex(self):
        ball = simplex_ball(5)
        assert max_interior_free_dimension(ball.interior_f_vector()) == 3

    def test_stacked(self):
        ball = stacked_ball(5, 6, seed=2)
        assert max_interior_free_dimension(ball.interior_f_vector()) == 2

    def test_cone_has_none(self):
        cone = cone_over_boundary(boundary_sphere("simplex", 4))
        assert max_interior_free_dimension(cone.interior_f_vector()) == -1


class TestVerifyBall:
    def test_simplex6(self, table):
        report = verify_ball(simplex_ball(6), table, name="simplex-n6")
        assert report.passed
        nontrivial = [
            c for c in report.checks if c.identity == "genocchi" and not c.trivial
        ]
        assert [c.k for c in nontrivial] == [0, 2, 4]

    def test_trivial_top_entry_present(self, table):
        report = verify_ball(simplex_ball(6), table)
        trivial = [c for c in report.checks if c.trivial]
        assert len(trivial) == 1
        assert trivial[0].k == 6
        assert trivial[0].residual == 0

    def test_stacked_large(self, table):
        assert verify_ball(stacked_ball(4, 10, seed=7), table).passed

    def test_sphere_minus_facet(self, table):
        ball = sphere_minus_facet(boundary_sphere("cross_polytope", 3))
        report = verify_ball(ball, table)
        assert report.passed
        assert {c.k for c in report.checks if not c.trivial} == {1}

    def test_refuses_disjoint_union(self, table):
        with pytest.raises(BallCheckError):
            verify_ball(from_facets([[1, 2, 3], [4, 5, 6]]), table)

    def test_refuses_sphere(self, table):
        with pytest.raises(BallCheckError):
            verify_ball(boundary_sphere("simplex", 4), table)

    def test_single_point_is_trivially_verified(self, table):
        report = verify_ball(from_facets([[1]]), table)
        assert report.passed
        assert [(c.k, c.trivial) for c in report.checks] == [(1, True)]

    def test_relabeling_invariance(self, table):
        ball = stacked_ball(4, 6, seed=3)
        rng = random.Random(99)
        vertices = list(ball.vertices)
        shuffled = vertices[:]
        rng.shuffle(shuffled)
        copy = relabel(ball, dict(zip(vertices, shuffled)))
        original = verify_ball(ball, table)
        permuted = verify_ball(copy, table)
        assert [(c.identity, c.k, c.residual) for c in original.checks] == [
            (c.identity, c.k, c.residual) for c in permuted.checks
        ]

    @pytest.mark.parametrize(
        "ball",
        [
            simplex_ball(3),
            stacked_ball(4, 4, 5),
            cone_over_boundary(boundary_sphere("simplex", 4)),
        ],
        ids=["triangle", "stacked", "cone"],
    )
    def test_subdivision_also_passes(self, ball, table):
        assert verify_ball(barycentric_subdivision(ball), table).passed


def _corrupted_table(N):
    """G_2 .. G_2N with G_4 off by one: no genuine ball gives zero residuals."""
    table = genocchi_by_recursion_even(N)
    values = dict(table.values)
    values[4] += 1
    return GenocchiTable(values=values, method="corrupted")


def _expected_checks(ball, table):
    """Every check of a report from the three public residual functions, in order."""
    interior, boundary = _vectors(ball)
    n = ball.n
    ks = [k for k in range(n - 1) if (n - k) % 2 == 0]
    out = []
    for k in ks:
        out.append(("genocchi", k, genocchi_identity_residual(k, interior, boundary, table)))
        out.append(("dehn-sommerville", k, dehn_sommerville_residual(k, interior, boundary)))
    out.append(("genocchi", n, genocchi_identity_residual(n, interior, boundary, table)))
    e = max_interior_free_dimension(interior)
    for k in ks:
        if k <= e:
            out.append(
                ("no-interior-faces", k,
                 no_interior_faces_residual(k, interior, boundary, table))
            )
    return out


def _ref_genocchi_identity_residual(k, interior, boundary, table):
    """Reference: the Genocchi residual as one Fraction operation per term."""
    n = len(interior)
    acc = Fraction(0)
    for i in range(1, (n - k) // 2 + 1):
        weight = Fraction(table.genocchi(2 * i), 2 * i)
        acc += weight * (
            math.comb(k + 2 * i - 1, k + 1) * boundary[k + 2 * i - 2]
            - math.comb(k + 2 * i, k + 1) * interior[k + 2 * i - 1]
        )
    return interior[k] - acc


def _ref_dehn_sommerville_residual(k, interior, boundary):
    """Reference: the Dehn-Sommerville residual as one Fraction operation per term."""
    n = len(interior)
    acc = interior[k] + Fraction(boundary[k], 2)
    for i in range(1, n - k):
        sign = -1 if (n + k + i) % 2 else 1
        acc += Fraction(sign * math.comb(k + 1 + i, k + 1) * interior[k + i], 2)
    return acc


@st.composite
def _identity_cases(draw):
    """(k, interior, boundary): arbitrary integer counts, n - k even, 0 <= k <= n."""
    n = draw(st.integers(1, 16))
    k = draw(st.sampled_from(range(n % 2, n + 1, 2)))
    interior = draw(st.lists(st.integers(), min_size=n, max_size=n))
    boundary = draw(st.lists(st.integers(), min_size=n - 1, max_size=n - 1))
    return k, FVector(interior), FVector(boundary)


# G_4/4 weighs f_2(bd B) by C(3, 1): the Genocchi residual is -3/4 with the
# real table and -3/2 with G_4 + 1; the Dehn-Sommerville residual is 0
THREE_QUARTERS_CASE = (0, FVector((0, 0, 0, 0)), FVector((0, 0, 1)))
# f_0(bd B)/2 is the only nonzero term of the Dehn-Sommerville residual
ONE_HALF_CASE = (0, FVector((0, 0, 0, 0)), FVector((1, 0, 0)))
IDENTITY_TABLES = {"real": genocchi_by_recursion_even(8), "G4+1": _corrupted_table(8)}


class TestIntegerResiduals:
    """Both residuals, summed as integers over one denominator, equal the
    per-term Fraction sums and are exact, reduced Fractions."""

    @pytest.mark.parametrize(
        "table, case, genocchi, dehn_sommerville",
        [
            ("real", THREE_QUARTERS_CASE, Fraction(-3, 4), 0),
            ("G4+1", THREE_QUARTERS_CASE, Fraction(-3, 2), 0),
            ("real", ONE_HALF_CASE, Fraction(1, 2), Fraction(1, 2)),
            ("G4+1", ONE_HALF_CASE, Fraction(1, 2), Fraction(1, 2)),
        ],
    )
    def test_pinned_values(self, table, case, genocchi, dehn_sommerville):
        table = IDENTITY_TABLES[table]
        assert _ref_genocchi_identity_residual(*case, table) == genocchi
        assert genocchi_identity_residual(*case, table) == genocchi
        assert _ref_dehn_sommerville_residual(*case) == dehn_sommerville
        assert dehn_sommerville_residual(*case) == dehn_sommerville

    @pytest.mark.parametrize("table", IDENTITY_TABLES)
    @settings(max_examples=300, deadline=None)
    @given(case=_identity_cases())
    @example(case=THREE_QUARTERS_CASE)
    @example(case=ONE_HALF_CASE)
    def test_match_fraction_sums(self, table, case):
        table = IDENTITY_TABLES[table]
        k, interior, _ = case
        residual = genocchi_identity_residual(*case, table)
        assert type(residual) is Fraction
        assert residual == _ref_genocchi_identity_residual(*case, table)
        if k <= len(interior) - 2:
            residual = dehn_sommerville_residual(*case)
            assert type(residual) is Fraction
            assert residual == _ref_dehn_sommerville_residual(*case)


class TestWeightMemos:
    """The identity weights are built once per (k, n) and read for every
    ball; each memo entry equals the weights computed afresh."""

    EVEN_GAPS = [(n, k) for n in range(1, 41) for k in range(n % 2, n + 1, 2)]

    def test_genocchi_weights_equal_fresh_values(self):
        for n, k in self.EVEN_GAPS:
            top = (n - k) // 2
            L = math.lcm(*range(2, 2 * top + 1, 2))
            fresh = tuple(
                (L // (2 * i), math.comb(k + 2 * i - 1, k + 1), math.comb(k + 2 * i, k + 1))
                for i in range(1, top + 1)
            )
            assert verify._genocchi_weights(k, top) == (L, fresh), (n, k)

    def test_dehn_sommerville_weights_equal_fresh_values(self):
        for n, k in self.EVEN_GAPS:
            if k <= n - 2:
                fresh = tuple(
                    (-1) ** (n + k + i) * math.comb(k + 1 + i, k + 1) for i in range(1, n - k)
                )
                assert verify._dehn_sommerville_weights(k, n) == fresh, (n, k)

    def test_cold_and_warm_memos_give_one_report(self, table):
        ball = barycentric_subdivision(stacked_ball(4, 3, 1))
        verify._genocchi_weights.cache_clear()
        verify._dehn_sommerville_weights.cache_clear()
        cold = verify_ball(ball, table)
        assert verify_ball(ball, table) == cold
        assert verify._genocchi_weights.cache_info().hits > 0

    @pytest.mark.parametrize(
        "ball", [simplex_ball(6), barycentric_subdivision(stacked_ball(4, 3, 1))],
        ids=["simplex-n6", "sd-stacked-n4"],
    )
    def test_zero_residual_is_a_fraction(self, ball, table):
        interior, boundary = _vectors(ball)
        n = ball.n
        residuals = [genocchi_identity_residual(k, interior, boundary, table)
                     for k in range(n % 2, n + 1, 2)]
        residuals += [dehn_sommerville_residual(k, interior, boundary)
                      for k in range(n % 2, n - 1, 2)]
        for residual in residuals + [-r for r in residuals]:
            assert type(residual) is Fraction
            assert residual == 0
            assert (residual.numerator, residual.denominator) == (0, 1)


class TestVerifyBallResiduals:
    """verify_ball reports the public residuals, also when they are nonzero."""

    @pytest.mark.parametrize(
        "ball",
        [stacked_ball(4, 5, 1), stacked_ball(6, 5, 1)],
        ids=["stacked-n4", "stacked-n6"],
    )
    def test_corrupted_table_stacked(self, ball):
        table = _corrupted_table(3)
        checks = [(c.identity, c.k, c.residual) for c in verify_ball(ball, table).checks]
        assert checks == _expected_checks(ball, table)
        assert any(
            identity == "no-interior-faces" and residual != 0
            for identity, _, residual in checks
        )

    def test_corrupted_table_subdivided(self):
        ball = barycentric_subdivision(stacked_ball(4, 3, 1))
        table = _corrupted_table(2)
        report = verify_ball(ball, table)
        assert [(c.identity, c.k, c.residual) for c in report.checks] == _expected_checks(
            ball, table
        )
        assert not report.passed

    @pytest.mark.parametrize(
        "ball",
        [
            simplex_ball(6),
            stacked_ball(5, 6, 1),
            barycentric_subdivision(stacked_ball(4, 3, 1)),
            from_facets([[1]]),
        ],
        ids=["simplex-n6", "stacked-n5", "sd-stacked-n4", "point"],
    )
    def test_one_genocchi_sum_per_k(self, ball, table, monkeypatch):
        calls = []
        original = verify.genocchi_identity_residual

        def counted(k, *args):
            calls.append(k)
            return original(k, *args)

        def forbidden(*args):
            raise AssertionError("verify_ball must not re-evaluate the Genocchi sum")

        monkeypatch.setattr(verify, "genocchi_identity_residual", counted)
        monkeypatch.setattr(verify, "no_interior_faces_residual", forbidden)
        verify_ball(ball, table)
        n = ball.n
        assert calls == [k for k in range(n - 1) if (n - k) % 2 == 0] + [n]


class TestRequiredTableSize:
    def test_values(self):
        assert required_table_size(2) == 1
        assert required_table_size(3) == 1
        assert required_table_size(10) == 5
