"""Property tests over randomized parameters."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from genoball.complexes import from_facets
from genoball.generators import simplex_ball, stacked_ball
from genoball.genocchi import (
    binomial,
    genocchi_by_bernoulli,
    genocchi_by_recursion_even,
    genocchi_by_recursion_odd,
)

from helpers import relabel


@given(n=st.integers(0, 200), k=st.integers(-5, 205))
def test_binomial_matches_comb_and_symmetry(n, k):
    expected = math.comb(n, k) if 0 <= k <= n else 0
    assert binomial(n, k) == expected
    if 0 <= k <= n:
        assert binomial(n, k) == binomial(n, n - k)


@given(n=st.integers(1, 100), k=st.integers(0, 100))
def test_binomial_pascal_rule(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


@given(N=st.integers(1, 12))
def test_recursions_agree(N):
    even = genocchi_by_recursion_even(N)
    odd = genocchi_by_recursion_odd(N)
    bern = genocchi_by_bernoulli(N)
    assert even.values == odd.values == bern.values


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), m=st.integers(1, 10), seed=st.integers(0, 2**32))
def test_stacked_ball_invariants(n, m, seed):
    ball = stacked_ball(n, m, seed)
    report = ball.ball_check()
    assert report.ok
    assert report.euler_char_ball == 1
    assert report.euler_char_boundary == 1 + (-1) ** n
    interior = ball.interior_f_vector()
    assert tuple(interior) == (0,) * (n - 2) + (m - 1, m)
    assert all(c >= 0 for c in interior)
    assert interior[n - 1] == ball.f_vector()[n - 1]


@settings(max_examples=30, deadline=None)
@given(perm=st.permutations(list(range(1, 7))))
def test_relabeling_preserves_f_vectors(perm):
    ball = stacked_ball(3, 4, seed=11)  # lives on vertices 1..6
    mapping = dict(zip(range(1, 7), perm))
    relabeled = relabel(ball, mapping)
    assert tuple(relabeled.f_vector()) == tuple(ball.f_vector())
    assert tuple(relabeled.interior_f_vector()) == tuple(ball.interior_f_vector())


@given(n=st.integers(1, 8))
def test_simplex_f_vector_is_binomial_row(n):
    fv = simplex_ball(n).f_vector()
    assert tuple(fv) == tuple(binomial(n, d + 1) for d in range(n))


@given(facet=st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True))
def test_single_facet_counts_subsets(facet):
    fv = from_facets([facet]).f_vector()
    k = len(facet)
    assert tuple(fv) == tuple(binomial(k, d + 1) for d in range(k))
