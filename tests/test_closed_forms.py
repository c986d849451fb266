"""Closed-form f-vectors of every default-corpus ball, and of two balls with
n >= 30 that the census can count only by a shelling, against the census.

The expected rows of f(B) and f(bd B) come from the corpus grid and the
ball names alone, by formulas over ``math.comb``; nothing here counts
faces.  The identities cannot stand in for these rows: no identity reads
f_j(bd B) when n - j is odd, so a census error such as +1000 on f_0 and
-1000 on f_2, in both rows, keeps both Euler characteristics and every
residual.  Such an error changes these rows.
"""

from math import comb

import pytest

from genoball.corpus import BARYCENTRIC_NAME, DEFAULT_GRID, FAMILIES, corpus_balls
from genoball.generators import simplex_ball, stacked_ball


def simplex_boundary(k):
    """f of the boundary of the simplex on k vertices: all proper subsets."""
    return [comb(k, j + 1) for j in range(k - 1)]


def sphere(base, n):
    """f of boundary_sphere(base, n)."""
    if base == "simplex":
        return simplex_boundary(n)
    # cross-polytope: a j-face picks j + 1 of the n axes and a sign on each
    return [2 ** (j + 1) * comb(n, j + 1) for j in range(n)]


def cone(S):
    """f_j(apex * S) = f_j(S) + f_{j-1}(S), with f_{-1}(S) = 1."""
    return [a + b for a, b in zip(S + [0], [1] + S)]


def surjections(a, b):
    """b! * S(a, b): the surjections from an a-set onto a b-set."""
    return sum((-1) ** t * comb(b, t) * (b - t) ** a for t in range(b + 1))


def subdivided(f):
    """f_j(sd C) = sum_i f_i(C) * (j+1)! * S(i+1, j+1): a j-face of sd C is a
    chain of j + 1 faces, and an i-face tops (j+1)! S(i+1, j+1) chains."""
    return [
        sum(fi * surjections(i + 1, j + 1) for i, fi in enumerate(f))
        for j in range(len(f))
    ]


def expected_rows(grid=DEFAULT_GRID):
    """name -> (f(B), f(bd B)) for every ball of the grid, in corpus order."""
    rows = {}
    for n in grid.simplex_n:
        rows[FAMILIES["simplex"][2].format(n=n)] = (
            [comb(n, j + 1) for j in range(n)],
            simplex_boundary(n),
        )
    for n in grid.stacked_n:
        for m in grid.stacked_m:
            for seed in grid.stacked_seeds:
                # each of the m - 1 stackings adds one vertex and C(n-1, j)
                # j-faces; its interior is (0, ..., 0, m - 1, m)
                f = [comb(n, j + 1) + (m - 1) * comb(n - 1, j) for j in range(n)]
                interior = [0] * (n - 2) + [m - 1, m]
                name = FAMILIES["stacked"][2].format(n=n, m=m, seed=seed)
                rows[name] = (f, [f[j] - interior[j] for j in range(n - 1)])
    spheres = [(base, n, sphere(base, n)) for base in grid.sphere_bases for n in grid.sphere_n]
    for base, n, S in spheres:
        rows[FAMILIES["cone"][2].format(base=base, n=n)] = (cone(S), S)
    for base, n, S in spheres:
        # one top face fewer; the boundary is that of the removed facet
        name = FAMILIES["sphere-minus-facet"][2].format(base=base, n=n)
        rows[name] = (S[:-1] + [S[-1] - 1], simplex_boundary(len(S)))
    for name, (f, bd) in list(rows.items()):
        if len(f) <= grid.barycentric_max_n:
            # bd(sd B) = sd(bd B)
            rows[BARYCENTRIC_NAME.format(name=name)] = (subdivided(f), subdivided(bd))
    return rows


EXPECTED = expected_rows()


@pytest.fixture(scope="module")
def balls():
    return dict(corpus_balls())


def test_every_corpus_ball_has_a_closed_form(balls):
    assert list(EXPECTED) == list(balls)


@pytest.mark.parametrize("name", EXPECTED)
def test_census_matches_the_closed_form(balls, name):
    census = balls[name].census()
    f, bd = EXPECTED[name]
    assert list(census.f) == f
    assert list(census.f_boundary) == bd


@pytest.mark.parametrize(
    "ball",
    [simplex_ball(40), stacked_ball(30, 100, 1)],
    ids=["simplex-40", "stacked-30-100-1"],
)
def test_large_n_census_matches_the_closed_form(ball):
    # 2^30 and more subsets per facet: too many to expand, so the census shells
    n, m = ball.n, len(ball.facets)
    f = [comb(n, j + 1) + (m - 1) * comb(n - 1, j) for j in range(n)]
    interior = [0] * (n - 2) + [m - 1, m]
    census = ball.census()
    assert list(census.f) == f
    assert list(census.f_boundary) == [f[j] - interior[j] for j in range(n - 1)]
