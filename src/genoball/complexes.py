"""Pure simplicial complexes, f-vectors, boundaries, interior face counts.

A complex is stored by its facet set alone.  Its census reads the top
counts off the ridge -> facets map (facets, ridges, boundary ridges) and
recovers every lower face by explicit subset expansion with
deduplication.  Each facet is expanded once per subset size, and each
subset is sorted into the boundary's faces or the rest by which boundary
ridges of its facet it lies in, so one expansion counts the complex and
its boundary.  That is deliberate: the corpus lives at desk scale (at
most ~10^6 faces) and exact, obviously correct counting beats clever
closure algebra here.

Faces are strictly increasing tuples of nonnegative integer vertex ids.
The ambient parameter n is the number of vertices per facet, so a complex
of n-vertex facets has dimension n - 1.  Interior face counts are defined
componentwise as f(B) - f(boundary B); the interior itself is never
materialized as a complex.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Face",
    "ComplexError",
    "EmptyInputError",
    "NonPureError",
    "DuplicateVertexError",
    "RidgeOverflowError",
    "NoBoundaryError",
    "FVector",
    "BallCheckReport",
    "Census",
    "Complex",
    "from_facets",
]

Face = tuple[int, ...]


class ComplexError(ValueError):
    """Base class for invalid complexes or invalid complex operations."""


class EmptyInputError(ComplexError):
    """No facets were given."""


class NonPureError(ComplexError):
    """Facets of mixed dimension."""


class DuplicateVertexError(ComplexError):
    """A facet lists the same vertex twice."""


class RidgeOverflowError(ComplexError):
    """Some ridge lies in three or more facets: not a pseudomanifold."""


class NoBoundaryError(ComplexError):
    """Every ridge lies in exactly two facets: a sphere candidate, not a ball."""


@dataclass(frozen=True)
class FVector:
    """Face counts by dimension, counts[d] = number of d-faces for 0 <= d < n.

    Lookups outside 0..n-1 return 0, so identity sums need no range guards.
    The empty face is never counted.
    """

    n: int
    counts: tuple[int, ...]

    def __getitem__(self, dim: int) -> int:
        if 0 <= dim < len(self.counts):
            return self.counts[dim]
        return 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def euler_characteristic(self) -> int:
        return sum(c if d % 2 == 0 else -c for d, c in enumerate(self.counts))


@dataclass(frozen=True)
class BallCheckReport:
    """Necessary-condition screen for "is this facet set a ball?".

    Ridge incidence at most 2, a nonempty boundary, a connected
    facet-adjacency graph, and the two Euler characteristics.  A genuine
    (n-1)-ball has euler_char_ball = 1 and euler_char_boundary =
    1 + (-1)^n.  Purity is not a field: building a :class:`Complex` from
    facets of mixed sizes already raises NonPureError.  ``ok`` means
    :meth:`failures` is empty, so the conditions are stated once.  Passing
    the screen does NOT prove ball-ness; failing it disproves it.
    """

    n: int
    ridge_incidence_ok: bool
    has_boundary: bool
    dual_graph_connected: bool
    euler_char_ball: int
    euler_char_boundary: int

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        """Human-readable list of the conditions that failed."""
        out = []
        if not self.ridge_incidence_ok:
            out.append("a ridge lies in more than two facets")
        if not self.has_boundary:
            out.append("no boundary ridge (sphere candidate, not a ball)")
        if not self.dual_graph_connected:
            out.append("facet-adjacency graph is disconnected")
        if self.euler_char_ball != 1:
            out.append(f"Euler characteristic {self.euler_char_ball} != 1")
        expected = 1 + (-1) ** self.n
        if self.euler_char_boundary != expected:
            out.append(
                f"boundary Euler characteristic {self.euler_char_boundary} "
                f"!= {expected}"
            )
        return out


@dataclass(frozen=True)
class Census:
    """One pass over a complex: its f-vectors and its ball screen.

    ``f_interior`` is f - f_boundary componentwise.  ``boundary`` is the
    complex generated by the ridges in exactly one facet, or None when
    there is no such ridge or n < 2; then ``f_boundary`` is all zeros (and
    empty for n = 1, where the boundary of a point has no faces).  The top
    entries of ``f`` and ``f_boundary`` are counted off the ridge map, the
    lower ones of both from one expansion of the facets; ``boundary`` is
    never expanded.
    ``ridge_overflow`` is the first ridge found in three or more facets,
    with its facet count, or None.  The f-vectors describe a ball only
    when ``report.ok``.
    """

    f: FVector
    f_boundary: FVector
    f_interior: FVector
    report: BallCheckReport
    boundary: Complex | None
    ridge_overflow: tuple[Face, int] | None


class Complex:
    """A pure simplicial complex given by its facets.

    Instances are immutable.  Use :func:`from_facets` to build one from
    raw vertex lists; the constructor trusts its argument.  Faces are
    expanded one dimension at a time when asked for and never kept.  Only
    the census is cached, with a single compute-then-assign, so concurrent
    readers are safe.
    """

    __slots__ = ("facets", "n", "_census")

    def __init__(self, facets: frozenset[Face]):
        if not facets:
            raise EmptyInputError("a complex needs at least one facet")
        sizes = {len(f) for f in facets}
        if len(sizes) != 1:
            raise NonPureError(f"facet sizes differ: {sorted(sizes)}")
        self.facets = facets
        self.n = sizes.pop()
        self._census: Census | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return f"Complex(n={self.n}, facets={len(self.facets)})"

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for f in self.facets for v in f}))

    def faces(self, dim: int) -> frozenset[Face]:
        """All faces of the given dimension (empty set outside 0..n-1), expanded anew."""
        if not 0 <= dim < self.n:
            return frozenset()
        combos = (itertools.combinations(facet, dim + 1) for facet in self.facets)
        return frozenset(itertools.chain.from_iterable(combos))

    def f_vector(self) -> FVector:
        """Counts of distinct i-faces for i = 0 .. n-1, one dimension at a time."""
        return FVector(self.n, tuple(len(self.faces(d)) for d in range(self.n)))

    def census(self) -> "Census":
        """Everything ``verify`` and ``fvector`` need, computed once and cached.

        One pass over the facets builds the ridge -> facets map; the ridge
        check, the boundary ridges, the facet-adjacency search and the top
        two counts of f and the top count of f(boundary) all read it.
        Only dimensions 0..n-3 are expanded, each facet once per dimension,
        and that one expansion counts both this complex and its boundary;
        :meth:`faces` and :meth:`f_vector` are not called.  Never raises.
        """
        census = self._census
        if census is None:
            census = self._take_census()
            self._census = census
        return census

    def _take_census(self) -> "Census":
        n = self.n
        by_ridge: dict[Face, list[Face]] = {}
        for facet in self.facets:
            for ridge in itertools.combinations(facet, n - 1):
                by_ridge.setdefault(ridge, []).append(facet)
        overflow = next(((r, len(h)) for r, h in by_ridge.items() if len(h) > 2), None)
        boundary_ridges = frozenset(r for r, h in by_ridge.items() if len(h) == 1)

        start = next(iter(self.facets))
        seen = {start}
        queue = deque([start])
        while queue:
            for ridge in itertools.combinations(queue.popleft(), n - 1):
                for nb in by_ridge[ridge]:
                    if nb not in seen:
                        seen.add(nb)
                        queue.append(nb)

        # f_{n-1} and f_{n-2} are read off the ridge map, whose only key for
        # n = 1 is the empty face, which is not counted
        lower, lower_bd = _lower_face_counts(self.facets, by_ridge, boundary_ridges, n)
        ridges = (len(by_ridge),) if n >= 2 else ()
        f = FVector(n, lower + ridges + (len(self.facets),))
        # for n = 1 the only ridge is the empty face: the boundary of a
        # point is the empty complex, which has no faces to count
        if boundary_ridges and n >= 2:
            boundary = Complex(boundary_ridges)
            f_bd = FVector(n - 1, lower_bd + (len(boundary_ridges),))
        else:
            f_bd = FVector(n - 1, (0,) * (n - 1))
            boundary = None
        report = BallCheckReport(
            n=n,
            ridge_incidence_ok=overflow is None,
            has_boundary=bool(boundary_ridges),
            dual_graph_connected=len(seen) == len(self.facets),
            euler_char_ball=f.euler_characteristic(),
            euler_char_boundary=f_bd.euler_characteristic(),
        )
        return Census(
            f=f,
            f_boundary=f_bd,
            f_interior=FVector(n, tuple(f[d] - f_bd[d] for d in range(n))),
            report=report,
            boundary=boundary,
            ridge_overflow=overflow,
        )

    def boundary(self) -> "Complex":
        """The subcomplex generated by ridges lying in exactly one facet.

        For a ball this is its boundary sphere.  Raises RidgeOverflowError
        if some ridge lies in three or more facets, NoBoundaryError if
        every ridge lies in exactly two.  The object is cached by
        :meth:`census`, so repeated calls return the same complex.
        """
        if self.n < 2:
            raise ComplexError("boundary needs facets with at least 2 vertices")
        census = self.census()
        if census.ridge_overflow is not None:
            ridge, count = census.ridge_overflow
            raise RidgeOverflowError(f"ridge {ridge} lies in {count} facets")
        if census.boundary is None:
            raise NoBoundaryError("every ridge is interior")
        return census.boundary

    def interior_f_vector(self) -> FVector:
        """f(B) - f(boundary B) componentwise.

        The boundary has no (n-1)-faces, so the top entry is the facet
        count.  The interior is a vector of counts only, not a complex.
        Raises the errors of :meth:`boundary`.
        """
        self.boundary()
        return self.census().f_interior

    def ball_check(self) -> BallCheckReport:
        """The necessary-condition screen, read from the census.  Never raises."""
        return self.census().report

    def relabeled(self, mapping: dict[int, int]) -> "Complex":
        """The same complex with vertex ids replaced through ``mapping``."""
        return from_facets([[mapping[v] for v in f] for f in self.facets])


def _lower_face_counts(
    facets: frozenset[Face],
    by_ridge: dict[Face, list[Face]],
    boundary_ridges: frozenset[Face],
    n: int,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """f_0 .. f_{n-3} of the complex and of its boundary, from one expansion.

    For a facet F let O(F) be the vertices o with F - {o} a boundary ridge,
    and P(F) their positions in F.  A subset of F lies on the boundary iff
    it misses some o in O(F).  So each s-subset of each facet goes to
    exactly one of two sets: ``bd`` if it misses some o in O(F), ``cand``
    if it contains O(F).  Every boundary face reaches ``bd`` from the facet
    that holds its boundary ridge, and every face reaches one of the two,
    so f_{s-1}(boundary) = |bd| and f_{s-1} = |bd| + |cand| - |cand & bd|,
    which is |bd| + |cand - bd|.

    Facets are grouped by P(F) and each group is split in bulk: all to
    ``cand`` when P is empty, all to ``bd`` when s < |P|, and otherwise
    by a mask over the s-subsets of range(n), which lists the subsets of
    every facet in the same positional order.  A facet with one boundary
    ridge sends that ridge's subsets to ``bd``.
    """
    ridges_of: dict[Face, list[Face]] = {}
    for ridge in boundary_ridges:
        ridges_of.setdefault(by_ridge[ridge][0], []).append(ridge)
    groups = {(): [facet for facet in facets if facet not in ridges_of]}
    lone: list[Face] = []
    for facet, ridges in ridges_of.items():
        # o's position is the length of the common prefix of F and F - {o}
        P = tuple(sorted(sum(map(operator.eq, facet, ridge)) for ridge in ridges))
        groups.setdefault(P, []).append(facet)
        if len(P) == 1:
            lone.append(ridges[0])

    counts, counts_bd = [], []
    for size in range(1, n - 1):
        bd = set(_subsets(lone, size))
        cand: set[Face] = set()
        bits = None
        for P, group in groups.items():
            subsets = _subsets(group, size)
            if not P:
                cand.update(subsets)
            elif size < len(P):
                bd.update(subsets)
            else:
                if bits is None:
                    positions = itertools.combinations(range(n), size)
                    bits = [sum(1 << i for i in c) for c in positions]
                need = sum(1 << p for p in P)
                contains = [b & need == need for b in bits]
                if len(P) > 1:
                    subsets = list(subsets)
                    misses = [not c for c in contains]
                    bd.update(itertools.compress(subsets, itertools.cycle(misses)))
                cand.update(itertools.compress(subsets, itertools.cycle(contains)))
        counts_bd.append(len(bd))
        cand -= bd
        counts.append(len(bd) + len(cand))
    return tuple(counts), tuple(counts_bd)


def _subsets(faces: Iterable[Face], size: int) -> Iterator[Face]:
    """The size-subsets of each face in turn, each face's in combinations order."""
    combos = map(itertools.combinations, faces, itertools.repeat(size))
    return itertools.chain.from_iterable(combos)


def from_facets(facet_lists: Iterable[Sequence[int]]) -> Complex:
    """Build a normalized complex from raw facet vertex lists.

    Vertices within each facet are sorted, duplicate facets collapse.
    Rejects empty input, facets of mixed sizes, repeated vertices inside a
    facet, and non-integer or negative vertex ids.
    """
    normalized: set[Face] = set()
    for raw in facet_lists:
        facet = tuple(sorted(raw))
        if not facet:
            raise EmptyInputError("empty facet")
        for v in facet:
            if type(v) is not int or v < 0:
                raise ComplexError(f"vertex ids must be nonnegative integers, got {v!r}")
        if len(set(facet)) != len(facet):
            raise DuplicateVertexError(f"facet {list(raw)} repeats a vertex")
        normalized.add(facet)
    return Complex(frozenset(normalized))
