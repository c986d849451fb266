"""Number-theory core: four Genocchi algorithms, Bernoulli, Dumont, identities.

Expected values were frozen from the series expansion of 2t/(e^t + 1)
(the definitional oracle) before anything else was built, and cross-checked
against an independent computer algebra system.
"""

import math
import types
from fractions import Fraction

import pytest

from genoball import genocchi
from genoball.genocchi import (
    DEFAULT_DUMONT_LIMIT,
    G1,
    GenocchiTable,
    InsufficientTableError,
    SelfCheckError,
    _exact_div,
    bernoulli,
    binomial,
    dumont_count,
    genocchi_by_bernoulli,
    genocchi_by_recursion_even,
    genocchi_by_recursion_odd,
    genocchi_by_series,
    ratio_identity_residual,
    reciprocal_identity_residual,
)

# Frozen from the series oracle: G_2, G_4, ..., G_12.
GENOCCHI_THROUGH_12 = {2: -1, 4: 1, 6: -3, 8: 17, 10: -155, 12: 2073}

ALL_METHODS = [
    genocchi_by_series,
    genocchi_by_recursion_even,
    genocchi_by_recursion_odd,
    genocchi_by_bernoulli,
]


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


class TestRecursionEven:
    def test_empty_sum(self):
        assert genocchi_by_recursion_even(1).values == {2: -1}

    def test_through_8(self):
        # G_8 = -4 - (1/2)(28*(-1) + 70*1 + 28*(-3)) = 17 by hand
        assert genocchi_by_recursion_even(4).values == {2: -1, 4: 1, 6: -3, 8: 17}

    def test_g12_matches_series(self):
        assert genocchi_by_recursion_even(6).values[12] == 2073


class TestRecursionOdd:
    def test_empty_sum(self):
        assert genocchi_by_recursion_odd(1).values == {2: -1}

    def test_g6_by_hand(self):
        # G_6 = -1 - (6*(-1)/2 + 20*1/4) = -1 + 3 - 5 = -3
        assert genocchi_by_recursion_odd(3).values[6] == -3

    def test_agrees_with_series_through_20(self):
        assert genocchi_by_recursion_odd(10).values == genocchi_by_series(10).values


class TestBernoulli:
    def test_convention(self):
        table = bernoulli(1)
        assert table.values[0] == 1
        assert table.values[1] == Fraction(-1, 2)

    def test_b2(self):
        assert bernoulli(2).values[2] == Fraction(1, 6)

    def test_odd_vanish(self):
        table = bernoulli(21)
        assert all(table.values[m] == 0 for m in range(3, 22, 2))

    def test_out_of_range_lookup(self):
        with pytest.raises(InsufficientTableError):
            bernoulli(4).bernoulli(5)


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
            dumont_count(DEFAULT_DUMONT_LIMIT + 1)

    def test_bound_overridable(self):
        # a *lower* limit also applies; raising it is the caller's choice
        with pytest.raises(ValueError):
            dumont_count(3, limit=2)
        assert dumont_count(3, limit=3) == 17

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


class TestReciprocalIdentity:
    def test_n2_by_hand(self):
        # 1 + C(2,1)*(-1)/2 = 0
        table = genocchi_by_series(2)
        assert reciprocal_identity_residual(2, table) == 0

    def test_n3_by_hand(self):
        # 1 + C(4,1)*(-1)/2 + C(4,3)*1/4 = 1 - 2 + 1 = 0
        table = genocchi_by_series(3)
        assert reciprocal_identity_residual(3, table) == 0

    def test_n40_exact_zero(self):
        table = genocchi_by_recursion_even(39)
        assert reciprocal_identity_residual(40, table) == 0

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            reciprocal_identity_residual(1, genocchi_by_series(2))


def test_integrality_everywhere():
    # every stored Genocchi value is a Python int, no hidden denominators
    for fn in ALL_METHODS:
        table = fn(12)
        assert all(type(v) is int for v in table.values.values())


def test_tables_are_plain_data():
    table = GenocchiTable(max_index=4, values={2: -1, 4: 1}, method="series")
    assert table.genocchi(4) == 1


# Reference kernels: the Fraction arithmetic the series, Bernoulli and
# odd-recursion routes used before they moved to integers over a common
# denominator.  Each coefficient they produce does not depend on the
# truncation, so one run at the largest size serves every smaller size.


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
            assert table.max_index == 2 * N
            assert all(type(v) is int for v in table.values.values())
            prefix = {i: v for i, v in expected.items() if i <= 2 * N}
            _assert_entrywise(table.values, prefix, f"{route.__name__}({N})")

    def test_bernoulli_matches_fraction_convolution_through_m160(self):
        expected = _ref_bernoulli(160)
        assert expected[1] == Fraction(-1, 2)
        assert all(expected[m] == 0 for m in range(3, 161, 2))
        for M in range(0, 161):
            table = bernoulli(M)
            assert table.max_index == M
            assert all(type(v) is Fraction for v in table.values.values())
            prefix = {m: v for m, v in expected.items() if m <= M}
            _assert_entrywise(table.values, prefix, f"bernoulli({M})")


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
        expected_bernoulli = bernoulli(12).values
        monkeypatch.setattr(genocchi, "binomial", lambda n, k: math.comb(*shift(n, k)))
        with pytest.raises(SelfCheckError, match="must be an integer"):
            genocchi_by_recursion_odd(6)
        # every division of the Bernoulli convolution stays exact here, so
        # the wrong weights show as a different table
        assert bernoulli(12).values != expected_bernoulli

    def test_wrong_series_coefficient_trips_odd_check(self, monkeypatch):
        # d_3 = D/3! replaced by D: every division stays exact through
        # t^7 at N = 3, so only the odd-coefficient check can catch it
        fake_math = types.SimpleNamespace(
            factorial=lambda j: 1 if j == 3 else math.factorial(j), comb=math.comb
        )
        monkeypatch.setattr(genocchi, "math", fake_math)
        with pytest.raises(SelfCheckError, match=r"\[t\^5\] of 2t/\(e\^t\+1\) must vanish"):
            genocchi_by_series(3)
