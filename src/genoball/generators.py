"""Deterministic constructions of simplicial balls and spheres.

Every generator is reproducible byte for byte: fresh vertices always take
the smallest unused positive integer, and the only pseudo-randomness (the
ridge choice in ``stacked_ball``) comes from a fixed 64-bit linear
congruential generator, so the corpus is identical across platforms.

The families cover all interior regimes: ``simplex_ball`` and
``stacked_ball`` have no low-dimensional interior faces, cones have one
interior vertex, and ``sphere_minus_facet`` / ``barycentric_subdivision``
produce interior faces in every dimension.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import struct
from collections.abc import Iterator, Sequence

from .complexes import Complex, ComplexError, _screen_failures

__all__ = [
    "SPHERE_FAMILIES",
    "SphereScreenError",
    "simplex_ball",
    "stacked_ball",
    "boundary_sphere",
    "cone_over_boundary",
    "sphere_minus_facet",
    "barycentric_subdivision",
]


SPHERE_FAMILIES = ("simplex", "cross_polytope")


class SphereScreenError(ComplexError):
    """The input failed the necessary conditions for being a sphere."""


class _Lcg:
    """64-bit linear congruential generator (Knuth's MMIX constants).

    state <- (MULT * state + INC) mod 2^64; indices come from the top 32
    bits.  Chosen over the stdlib RNG so the construction is pinned down
    exactly, independent of language or library version.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def below(self, bound: int) -> int:
        self.state = (self.state * self.MULT + self.INC) & self.MASK
        return (self.state >> 32) % bound


def simplex_ball(n: int) -> Complex:
    """The full (n-1)-simplex on vertices 1..n, the smallest (n-1)-ball.

    Its one facet (1, ..., n) is sorted as built.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Complex(frozenset({tuple(range(1, n + 1))}))


def stacked_ball(n: int, m: int, seed: int) -> Complex:
    """A shellable (n-1)-ball with m facets, grown by stacking.

    Starts from the (n-1)-simplex; each of the m-1 growth steps picks a
    boundary ridge (pseudo-randomly, driven by ``seed``), adds a fresh
    vertex and glues the facet ridge + vertex onto it.  The interior faces
    are exactly the m-1 glued ridges and the m facets, so the interior
    f-vector is (0, ..., 0, m-1, m).

    The boundary ridges are kept in one sorted list across the steps: the
    glued ridge leaves it and the n-1 ridges through the fresh vertex join
    it.  Each ridge is its ids packed big-endian, 8 bytes per id (every id
    is below 2^64), so two ridges compare with one ``memcmp`` in the order
    of their tuples.  The glued ridge's key plus the fresh id is the new
    facet's key, which one ``unpack`` turns into the facet, and each new
    ridge is that key with one of its first n-1 ids cut out.  The list
    holds up to m*(n-2) ridges and every insert and pop shifts its tail,
    so the build is quadratic in m: with n = 9, m = 3 000 takes about
    0.05 s, m = 30 000 3.4-4.3 s and m = 100 000 about 45 s.  The list
    exists only when m > 1, so ``stacked_ball(n, 1, seed)`` is O(n).
    Each new facet is a sorted ridge plus a fresh vertex above all
    before it, so the facets are sorted and distinct.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    rng = _Lcg(seed)
    # built before any Struct: an n too large to allocate fails here with
    # an error main reports, where a Struct of n fields raises struct.error
    facets = [tuple(range(1, n + 1))]
    if m > 1:
        unpack = struct.Struct(f">{n}Q").unpack
        # cut each place but the last out of a facet key, last first, so the
        # first facet's ridges come out sorted
        cuts = [(slice(a), slice(a + 8, None)) for a in range(8 * (n - 2), -1, -8)]
        top = struct.pack(f">{n}Q", *facets[0])
        ridges = [top[:-8], *[top[head] + top[tail] for head, tail in cuts]]
        pop, insort, append, below = ridges.pop, bisect.insort, facets.append, rng.below
        for fresh in range(n + 1, n + m):
            key = pop(below(len(ridges))) + fresh.to_bytes(8, "big")
            append(unpack(key))
            for head, tail in cuts:
                insort(ridges, key[head] + key[tail])
    return Complex(frozenset(facets))


def boundary_sphere(family: str, n: int) -> Complex:
    """A standard sphere: the boundary of a simplex or of a cross-polytope.

    ``simplex``: the (n-2)-sphere bounding the (n-1)-simplex on vertices
    1..n.  ``cross_polytope``: the (n-1)-sphere on n antipodal vertex
    pairs (2i-1, 2i), whose 2^n facets are all the sign choices.  Both
    are sorted as built: ``combinations`` keeps the order of 1..n, and the
    i-th vertex of a cross-polytope facet exceeds those of earlier pairs.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if family == "simplex":
        return Complex(frozenset(itertools.combinations(range(1, n + 1), n - 1)))
    if family == "cross_polytope":
        facets = [()] * (1 << n)  # allocated first: a huge n fails here, not in the loop
        for index, signs in enumerate(itertools.product((0, 1), repeat=n)):
            facets[index] = tuple(2 * i + 1 + s for i, s in enumerate(signs))
        return Complex(frozenset(facets))
    raise ValueError(f"unknown sphere family {family!r}")


def _screen_sphere(S: Complex) -> None:
    """Necessary conditions for S to be a sphere; raises on failure."""
    problems = _screen_failures(S.census().report, closed=True)
    if problems:
        raise SphereScreenError("; ".join(problems))


def cone_over_boundary(S: Complex) -> Complex:
    """The cone apex * S over a sphere S, with a fresh apex vertex.

    The result is a ball whose boundary is S and whose single interior
    vertex is the apex.  S must pass the sphere screen.  The apex exceeds
    every vertex of S, so appending it to a sorted facet keeps it sorted.
    """
    _screen_sphere(S)
    apex = max(S.vertices) + 1
    return Complex(frozenset(facet + (apex,) for facet in S.facets))


def sphere_minus_facet(S: Complex) -> Complex:
    """S with its lexicographically smallest facet removed.

    Removing one top face of a sphere leaves a ball with an unchanged face
    set below the top dimension: every ridge of the removed facet lies in
    exactly one other facet, so no lower face disappears.
    """
    _screen_sphere(S)
    doomed = min(S.facets)
    return Complex(S.facets - {doomed})


def _run(facet: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The nonempty faces of a facet, by size, each size in combinations order."""
    n = len(facet)
    return itertools.chain.from_iterable(map(itertools.combinations, [facet] * n, range(1, n + 1)))


@functools.cache
def _chain_rows(n: int) -> tuple[operator.itemgetter, ...]:
    """One ``itemgetter`` per ordering of n positions: its prefixes' places in a run.

    A face of the facet is keyed by the bitmask of its positions, and a
    chain's prefixes by the masks that accumulate along the ordering.
    Built once per n and read by every subdivision of n-vertex facets.
    """
    place = {sum(1 << p for p in positions): k for k, positions in enumerate(_run(range(n)))}
    # a one-item itemgetter returns the bare item, so a point's chain is a slice
    return tuple(
        operator.itemgetter(*map(place.__getitem__, itertools.accumulate(1 << i for i in order)))
        if n > 1 else operator.itemgetter(slice(1))
        for order in itertools.permutations(range(n))
    )


def barycentric_subdivision(C: Complex) -> Complex:
    """The flag complex of C: one vertex per face, one facet per maximal chain.

    New vertex ids are assigned 1, 2, ... in (dimension, lexicographic)
    order over the faces of C, so the output is reproducible.  Each facet
    of C yields n! chains, hence f_{n-1}(sd C) = n! * f_{n-1}(C).

    A chain is an ordering of the facet's positions, and its faces are the
    prefixes.  A facet's face ids form one run, by size and then in
    combinations order; each ordering is an ``itemgetter`` of its prefixes'
    places in a run, tabled once per n by ``_chain_rows``, so no chain is
    sorted.  Ids grow with dimension and a chain's faces grow in dimension,
    so every chain is increasing; its last face is its facet of C and its
    prefixes fix the order, so no two chains are equal.
    """
    n = C.n
    by_dim = itertools.chain.from_iterable(sorted(C.faces(dim)) for dim in range(n))
    vid = dict(zip(by_dim, itertools.count(1)))
    runs = [tuple(map(vid.__getitem__, _run(facet))) for facet in C.facets]
    chains = itertools.chain.from_iterable(map(row, runs) for row in _chain_rows(n))
    return Complex(frozenset(chains))
