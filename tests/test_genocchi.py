"""Number-theory core: four Genocchi algorithms, tangent numbers, Dumont, identities.

Expected values were frozen from the series expansion of 2t/(e^t + 1)
(the definitional oracle) before anything else was built, and cross-checked
against an independent computer algebra system.
"""

import math
import tracemalloc
import types
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genoball import genocchi
from genoball.genocchi import (
    DUMONT_LIMIT,
    G1,
    GenocchiTable,
    InsufficientTableError,
    SelfCheckError,
    _SERIES_BLOCK,
    _binomial_rows,
    _both_recursions,
    _exact_div,
    _falling_products,
    _tangent_numbers,
    binomial,
    dumont_count,
    genocchi_by_bernoulli,
    genocchi_by_recursion_even,
    genocchi_by_recursion_odd,
    genocchi_by_series,
    ratio_identity_residual,
)

# Frozen from the series oracle: G_2, G_4, ..., G_12.
GENOCCHI_THROUGH_12 = {2: -1, 4: 1, 6: -3, 8: 17, 10: -155, 12: 2073}

ALL_METHODS = [
    genocchi_by_series,
    genocchi_by_recursion_even,
    genocchi_by_recursion_odd,
    genocchi_by_bernoulli,
]


def _rows_from(entry):
    """A stand-in for `genocchi._binomial_rows` whose half row m is entry(m, j),
    j = 0..m//2, so a reader that indexes past the half fails."""
    return lambda top: ([entry(m, j) for j in range(m // 2 + 1)] for m in range(top + 1))


def _tangent_mutant(at=None, coefficient=0, delta=0):
    """A stand-in for `genocchi._tangent_numbers` with one coefficient off.

    Runs the same sweep T_j = (j-k) T_{j-1} + (j-k+2) T_j, except that at
    (k, j) = at the first (coefficient 0) or second (coefficient 1)
    multiplier is off by delta.
    """

    def tangent_numbers(N):
        T = [0, *(math.factorial(k - 1) for k in range(1, N + 1))]
        for k in range(2, N + 1):
            for j in range(k, N + 1):
                weights = [j - k, j - k + 2]
                if (k, j) == at:
                    weights[coefficient] += delta
                T[j] = weights[0] * T[j - 1] + weights[1] * T[j]
        return T

    return tangent_numbers


class TestBinomial:
    def test_small_pascal_value(self):
        assert binomial(4, 2) == 6

    def test_boundary(self):
        assert binomial(5, 0) == 1
        assert binomial(5, 5) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestBinomialRows:
    @pytest.mark.parametrize("top", [0, 1, 2, 3, 17, 400])
    def test_yields_top_plus_one_rows(self, top):
        assert sum(1 for _ in _binomial_rows(top)) == top + 1

    def test_rows_match_comb_through_400(self):
        # row m does not depend on top, so top = 400 covers every top <= 400;
        # each row is the half C(m, 0..m//2), with no mirror
        for m, row in enumerate(_binomial_rows(400)):
            assert row == [math.comb(m, j) for j in range(m // 2 + 1)], f"row {m}"

    def test_no_route_calls_binomial_or_comb(self, monkeypatch):
        expected = {route: route(30).values for route in ALL_METHODS}

        def forbidden(*args):
            raise AssertionError("a table route computed a binomial from scratch")

        called = set()

        def allowed(fn):
            def spy(*args):
                called.add(fn.__name__)
                return fn(*args)

            return spy

        monkeypatch.setattr(genocchi, "binomial", forbidden)
        # exactly the math functions the routes call, plus a forbidden comb;
        # any other math attribute a route reached for would raise here
        fake_math = types.SimpleNamespace(
            factorial=allowed(math.factorial), lcm=allowed(math.lcm), comb=forbidden
        )
        monkeypatch.setattr(genocchi, "math", fake_math)
        for route, values in expected.items():
            assert route(30).values == values, route.__name__
        recursions = [genocchi_by_recursion_even, genocchi_by_recursion_odd]
        assert [t.values for t in _both_recursions(30)] == [expected[r] for r in recursions]
        assert called == {"factorial", "lcm"}


class TestSeries:
    def test_first_two_values(self):
        # hand expansion of t / (1 + t/2 + t^2/4 + t^3/12 + t^4/48):
        # [t^2] = -1/2 and [t^4] = 1/24, so G_2 = -1 and G_4 = 1
        assert genocchi_by_series(2).values == {2: -1, 4: 1}

    def test_through_12(self):
        assert genocchi_by_series(6).values == GENOCCHI_THROUGH_12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            genocchi_by_series(0)

    def test_method_tag(self):
        assert genocchi_by_series(1).method == "series"

    def test_n1_builds(self):
        # succeeding at N=1 means the odd self-checks ([t^1] = 1, [t^3] = 0)
        # passed
        assert genocchi_by_series(1).values == {2: -1}

    @pytest.mark.parametrize("top", [0, 1, 7, 8, 40])
    @pytest.mark.parametrize("width", [1, 2, 8])
    def test_falling_products(self, top, width):
        new_top = top + width
        expected = [
            math.factorial(new_top) // math.factorial(k) for k in range(top, new_top + 1)
        ]
        assert _falling_products(top, new_top) == expected

    # N = B/2 and N = B give 2N+1 = top + 1 at a block boundary, so t^{2N+1}
    # opens a block of its own; the other sizes end inside a block
    @pytest.mark.parametrize(
        "N", [1, 3, _SERIES_BLOCK // 2, _SERIES_BLOCK // 2 + 1, _SERIES_BLOCK, 2 * _SERIES_BLOCK + 3]
    )
    def test_divides_once_per_coefficient_and_value(self, monkeypatch, N):
        labels = []

        def spy(num, den, what):
            labels.append(what)
            return _exact_div(num, den, what)

        blocks = []

        def falling_spy(top, new_top):
            blocks.append((top, new_top))
            return _falling_products(top, new_top)

        monkeypatch.setattr(genocchi, "_exact_div", spy)
        monkeypatch.setattr(genocchi, "_falling_products", falling_spy)
        assert genocchi_by_series(N).values == _ref_series(N)
        degree = 2 * N + 1
        assert labels == [f"s [t^{i}]" for i in range(degree + 1)] + [
            f"G_{2 * n}" for n in range(1, N + 1)
        ]
        # the scale climbs 0! -> B! -> (2B)! ... and ends at exactly (2N+1)!
        tops = [0, *range(_SERIES_BLOCK, degree, _SERIES_BLOCK), degree]
        assert blocks == list(zip(tops, tops[1:]))

    # Every boundary below adds a full block.  A wrong ratio at a final
    # boundary that adds t^{2N+1} alone leaves every step exact: Q and s are
    # rescaled by the same factor, and the one step in that block multiplies
    # d_{2N+1} by a Horner sum that is zero.  Only the read-out's check of
    # the scale catches it (test_wrong_final_scale_is_caught).
    @pytest.mark.parametrize("boundary", [0, _SERIES_BLOCK, 2 * _SERIES_BLOCK])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_block_ratio_off_by_one_is_caught(self, monkeypatch, boundary, delta):
        N = 2 * _SERIES_BLOCK
        expected = genocchi_by_series(N).values

        def mutant(top, new_top):
            out = _falling_products(top, new_top)
            if top == boundary:
                out[0] += delta
            return out

        monkeypatch.setattr(genocchi, "_falling_products", mutant)
        try:
            got = genocchi_by_series(N).values
        except SelfCheckError:
            return
        assert got != expected

    def test_wrong_final_scale_is_caught(self, monkeypatch):
        # N = B/2: the last block adds t^{2N+1} = t^{B+1} alone; its ratio
        # B+2 in place of B+1 ends the scale at (B+2)/(B+1) (2N+1)!
        N = _SERIES_BLOCK // 2

        def mutant(top, new_top):
            out = _falling_products(top, new_top)
            if new_top == 2 * N + 1:
                out[0] += 1
            return out

        monkeypatch.setattr(genocchi, "_falling_products", mutant)
        ratio = f"{_SERIES_BLOCK + 2}/{_SERIES_BLOCK + 1}"
        with pytest.raises(
            SelfCheckError, match=rf"^the series scale must be \(2N\+1\)!, got {ratio} "
        ):
            genocchi_by_series(N)


class TestRecursionEven:
    def test_empty_sum(self):
        assert genocchi_by_recursion_even(1).values == {2: -1}

    def test_through_8(self):
        # G_8 = -4 - (1/2)(28*(-1) + 70*1 + 28*(-3)) = 17 by hand
        assert genocchi_by_recursion_even(4).values == {2: -1, 4: 1, 6: -3, 8: 17}

    def test_g12_matches_series(self):
        assert genocchi_by_recursion_even(6).values[12] == 2073

    def test_halving_is_checked(self, monkeypatch):
        # C(4, 2) + 1 = 7 makes G_4 = -2 - (1/2)(7 * (-1)) = 3/2
        monkeypatch.setattr(
            genocchi, "_binomial_rows", _rows_from(lambda n, k: math.comb(n, k) + 1)
        )
        with pytest.raises(SelfCheckError, match=r"^G_4 must be an integer, got 3/2$"):
            genocchi_by_recursion_even(2)


class TestRecursionOdd:
    def test_empty_sum(self):
        assert genocchi_by_recursion_odd(1).values == {2: -1}

    def test_g6_by_hand(self):
        # G_6 = -1 - (6*(-1)/2 + 20*1/4) = -1 + 3 - 5 = -3
        assert genocchi_by_recursion_odd(3).values[6] == -3

    def test_agrees_with_series_through_20(self):
        assert genocchi_by_recursion_odd(10).values == genocchi_by_series(10).values

    def test_weight_division_is_checked(self, monkeypatch):
        # one more than the lcm: L = lcm(2, 4) + 1 = 5, so G_2 = -5/5
        # divides exactly but the weight L / 2 = 5/2 does not
        fake_math = types.SimpleNamespace(
            factorial=math.factorial, lcm=lambda *a: math.lcm(*a) + 1
        )
        monkeypatch.setattr(genocchi, "math", fake_math)
        with pytest.raises(
            SelfCheckError, match=r"^lcm\(2\.\.4\) / 2 must be an integer, got 5/2$"
        ):
            genocchi_by_recursion_odd(2)


class TestBothRecursions:
    """`_both_recursions`: the even and the odd recursion in one walk of the
    triangle, as `genocchi --method all` runs them."""

    @pytest.mark.parametrize("N", [*range(1, 61), 300])
    def test_tables_equal_the_single_routes(self, N):
        even, odd = _both_recursions(N)
        assert even == genocchi_by_recursion_even(N)
        assert odd == genocchi_by_recursion_odd(N)

    def test_walks_the_triangle_once(self, monkeypatch):
        tops = []

        def rows(top):
            tops.append(top)
            return _binomial_rows(top)

        monkeypatch.setattr(genocchi, "_binomial_rows", rows)
        _both_recursions(7)
        assert tops == [14]

    def test_wrong_rows_are_caught(self, monkeypatch):
        # C(4, 2) + 1 = 7 makes the even route's G_4 = 3/2, as in
        # TestRecursionEven; the even step runs first at each row
        monkeypatch.setattr(
            genocchi, "_binomial_rows", _rows_from(lambda n, k: math.comb(n, k) + 1)
        )
        with pytest.raises(SelfCheckError, match=r"^G_4 must be an integer, got 3/2$"):
            _both_recursions(2)

    def test_peak_memory_is_within_the_single_routes_added(self):
        # the routes take each half row in lockstep: a walk that kept the
        # rows, or let one route run ahead of the other, would hold many
        def peak(route):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                route(300)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        even, odd = peak(genocchi_by_recursion_even), peak(genocchi_by_recursion_odd)
        assert peak(_both_recursions) <= even + odd


class TestTangentNumbers:
    def test_oeis_a000182(self):
        assert _tangent_numbers(12)[1:] == [
            1, 2, 16, 272, 7936, 353792, 22368256, 1903757312, 209865342976,
            29088885112832, 4951498053124096, 1015423886506852352,
        ]

    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_small_sizes(self, N):
        assert _tangent_numbers(N) == [0, 1, 2][: N + 1]

    def test_mutant_stand_in_is_faithful(self):
        for N in range(31):
            assert _tangent_mutant()(N) == _tangent_numbers(N), N

    @pytest.mark.parametrize("at", [(2, 2), (2, 12), (5, 7), (12, 12)])
    @pytest.mark.parametrize("coefficient", [0, 1])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_coefficient_off_by_one_is_caught(self, monkeypatch, at, coefficient, delta):
        expected = genocchi_by_bernoulli(12).values
        monkeypatch.setattr(
            genocchi, "_tangent_numbers", _tangent_mutant(at, coefficient, delta)
        )
        try:
            got = genocchi_by_bernoulli(12).values
        except SelfCheckError:
            return
        assert got != expected


class TestGenocchiByBernoulli:
    def test_g2(self):
        # 2*(1-4)*(1/6) = -1
        assert genocchi_by_bernoulli(1).values == {2: -1}

    def test_g4(self):
        # 2*(1-16)*(-1/30) = 1
        assert genocchi_by_bernoulli(2).values[4] == 1

    def test_agrees_with_series_through_40(self):
        assert genocchi_by_bernoulli(20).values == genocchi_by_series(20).values


class TestCrossAlgorithmAgreement:
    def test_all_methods_identical_through_30(self):
        tables = [fn(15) for fn in ALL_METHODS]
        assert all(t.values == tables[0].values for t in tables)

    def test_sign_alternation(self):
        table = genocchi_by_recursion_even(25)
        for n in range(1, 26):
            sign = 1 if table.values[2 * n] > 0 else -1
            assert sign == (-1) ** n


class TestTableAccessor:
    @pytest.fixture()
    def table(self):
        return genocchi_by_recursion_even(5)

    def test_odd_indices(self, table):
        assert table.genocchi(1) == G1 == 1
        assert table.genocchi(3) == 0
        assert table.genocchi(7) == 0

    def test_zero(self, table):
        assert table.genocchi(0) == 0

    def test_even_lookup(self, table):
        assert table.genocchi(8) == 17

    def test_beyond_range(self, table):
        with pytest.raises(InsufficientTableError):
            table.genocchi(12)

    def test_negative(self, table):
        with pytest.raises(ValueError):
            table.genocchi(-2)

    def test_bound_is_read_off_the_values(self):
        # an index missing from ``values`` is an insufficient table, not a KeyError
        table = GenocchiTable({2: -1}, "x")
        with pytest.raises(InsufficientTableError, match=r"^table \(x\) covers indices through 2, need 4$"):
            table.genocchi(4)
        with pytest.raises(TypeError):
            GenocchiTable(max_index=10, values={2: -1}, method="x")


class TestDumont:
    def test_single_permutation(self):
        # only (2, 1) qualifies among the 2! permutations of {1, 2}
        assert dumont_count(1) == 1

    def test_counts_match_genocchi(self):
        table = genocchi_by_series(5)
        for n in (1, 2, 3, 4):
            assert dumont_count(n) == abs(table.genocchi(2 * n + 2))

    def test_frozen_values(self):
        assert dumont_count(2) == 3
        assert dumont_count(4) == 155

    def test_bound_rejected(self):
        with pytest.raises(ValueError):
            dumont_count(DUMONT_LIMIT + 1)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            dumont_count(0)


class TestRatioIdentity:
    def test_n2_by_hand(self):
        # (3/2)*1 + (1/2)*3*1*(-1) = 0
        table = genocchi_by_series(2)
        assert ratio_identity_residual(2, table) == 0

    def test_n3_by_hand(self):
        table = genocchi_by_series(3)
        assert ratio_identity_residual(3, table) == 0

    def test_n50_exact_zero(self):
        table = genocchi_by_recursion_even(50)
        assert ratio_identity_residual(50, table) == 0

    def test_rejects_small_n(self):
        table = genocchi_by_series(2)
        with pytest.raises(ValueError):
            ratio_identity_residual(1, table)

    def test_insufficient_table(self):
        table = genocchi_by_series(2)
        with pytest.raises(InsufficientTableError):
            ratio_identity_residual(5, table)

    @given(st.lists(st.integers(-(10**6), 10**6), min_size=2, max_size=30))
    def test_is_the_even_coefficient_identity_scaled(self, entries):
        # on any table, not only on Genocchi numbers: (2n-1) times
        # a_m + (1/2) sum_{j<m} C(2m, 2j) a_j at m = n-1, a_j = G_{2j+2}/(j+1)
        n = len(entries)
        G = {2 * k: g for k, g in enumerate(entries, start=1)}
        table = GenocchiTable(values=G, method="random")
        even = Fraction(G[2 * n], n) + Fraction(1, 2) * sum(
            Fraction(math.comb(2 * n - 2, 2 * k - 2) * G[2 * k], k) for k in range(1, n)
        )
        assert ratio_identity_residual(n, table) == (2 * n - 1) * even


def test_integrality_everywhere():
    # every stored Genocchi value is a Python int, no hidden denominators
    for fn in ALL_METHODS:
        table = fn(12)
        assert all(type(v) is int for v in table.values.values())


def test_tables_are_plain_data():
    table = GenocchiTable(values={2: -1, 4: 1}, method="series")
    assert table.genocchi(4) == 1


# Reference kernels: the Fraction arithmetic the series and odd-recursion
# routes used before they moved to integers over a common denominator, and
# the Bernoulli convolution that preceded the tangent numbers.  Each
# coefficient they produce does not depend on the truncation, so one run at
# the largest size serves every smaller size.


def _ref_series_quotient(num, den):
    q = []
    lead = den[0]
    for i in range(len(num)):
        acc = num[i]
        for j in range(i):
            acc -= q[j] * den[i - j]
        q.append(acc / lead)
    return q


def _ref_series(N):
    degree = 2 * N + 1
    den = [Fraction(2)] + [Fraction(1, math.factorial(j)) for j in range(1, degree + 1)]
    num = [Fraction(0)] * (degree + 1)
    num[1] = Fraction(2)
    q = _ref_series_quotient(num, den)
    assert q[1] == 1
    assert all(q[2 * n + 1] == 0 for n in range(1, N + 1))
    return {2 * n: q[2 * n] * math.factorial(2 * n) for n in range(1, N + 1)}


def _ref_bernoulli(M):
    values = {0: Fraction(1)}
    for m in range(1, M + 1):
        acc = sum(math.comb(m + 1, j) * values[j] for j in range(m))
        values[m] = Fraction(-acc, m + 1)
    return values


def _ref_recursion_odd(N):
    values = {}
    for n in range(1, N + 1):
        acc = Fraction(-1)
        for k in range(1, n):
            acc -= Fraction(math.comb(2 * n, 2 * k - 1) * values[2 * k], 2 * k)
        values[2 * n] = acc
    return values


def _ref_genocchi_by_bernoulli(N):
    b = _ref_bernoulli(2 * N)
    return {2 * n: 2 * (1 - 4**n) * b[2 * n] for n in range(1, N + 1)}


def _assert_entrywise(got, expected, label):
    assert sorted(got) == sorted(expected), label
    for index, value in expected.items():
        assert got[index] == value, f"{label}: index {index}"


class TestAgainstFractionKernels:
    @pytest.mark.parametrize(
        "route, reference",
        [
            (genocchi_by_series, _ref_series),
            (genocchi_by_recursion_odd, _ref_recursion_odd),
            (genocchi_by_bernoulli, _ref_genocchi_by_bernoulli),
        ],
    )
    def test_route_matches_its_old_kernel_through_n80(self, route, reference):
        expected = reference(80)
        assert all(v.denominator == 1 for v in expected.values())
        for N in range(1, 81):
            table = route(N)
            assert all(type(v) is int for v in table.values.values())
            prefix = {i: v for i, v in expected.items() if i <= 2 * N}
            _assert_entrywise(table.values, prefix, f"{route.__name__}({N})")


class TestExactDivision:
    def test_exact_quotient(self):
        assert _exact_div(12, 4, "x") == 3
        assert _exact_div(-12, 4, "x") == -3
        assert _exact_div(0, 7, "x") == 0

    @pytest.mark.parametrize("num, den", [(7, 2), (-7, 2), (1, 3)])
    def test_remainder_raises(self, num, den):
        with pytest.raises(SelfCheckError, match=r"x must be an integer, got -?\d+/\d+"):
            _exact_div(num, den, "x")

    @pytest.mark.parametrize(
        "shift", [lambda n, k: (n + 1, k), lambda n, k: (n, k + 1)], ids=["n+1", "k+1"]
    )
    def test_wrong_binomial_is_caught(self, monkeypatch, shift):
        expected = genocchi_by_bernoulli(6).values
        monkeypatch.setattr(
            genocchi, "_binomial_rows", _rows_from(lambda n, k: math.comb(*shift(n, k)))
        )
        with pytest.raises(SelfCheckError, match="must be an integer"):
            genocchi_by_recursion_odd(6)
        # the Bernoulli route reads the tangent numbers and no binomials, so
        # the wrong weights leave its values unchanged
        assert genocchi_by_bernoulli(6).values == expected

    def test_wrong_series_coefficient_trips_odd_check(self, monkeypatch):
        # d_2 = s/2! replaced by 3 s/2! where the first block computes it.
        # Every division stays exact through t^7 at N = 3 (one block,
        # s = 7!), so only the odd-coefficient check can catch it.  Step i
        # reads d_i once, times a Horner sum that is zero at i = 1 and at
        # every odd i >= 3, so a wrong d_1, d_3 or d_5 changes no value.
        def corrupted(top, new_top):
            out = _falling_products(top, new_top)
            if top < 2 <= new_top:
                out[2 - top] *= 3
            return out

        monkeypatch.setattr(genocchi, "_falling_products", corrupted)
        with pytest.raises(
            SelfCheckError, match=r"\[t\^3\] of 2t/\(e\^t\+1\) must vanish, got 1/2$"
        ):
            genocchi_by_series(3)
