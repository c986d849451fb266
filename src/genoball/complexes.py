"""Pure simplicial complexes, f-vectors, boundaries, interior face counts.

A complex is stored by its facet set alone.  Its census generates each
facet's ridges once and records which facets share each ridge in one
flat integer array, ``partner``: slot i*n + r is the r-th ridge of facet
i; the facet across position p of facet i is partner[i*n + n-1-p] // n,
or none when that slot holds -1.  The boundary ridges, the overflow
check (a count identity), the shelling and, unless a shelling reached
every facet, the adjacency search read that array.  The faces of the
complex, and then of its boundary, are counted by one rule: below six
vertices per facet by expansion, with the complex's ridges read off its
pass, and from six up by a greedy shelling over a ridge pass, whose
h-vector gives f, falling back to the expansion when it gets stuck; so
the counts are exact either way.  The ball screen is read off those
counts; one function lists its conditions and the sphere screen's.  The
boundary complex is built only when :meth:`Complex.boundary` is called.

Faces are strictly increasing tuples of nonnegative integer vertex ids.
The ambient parameter n is the number of vertices per facet, so a complex
of n-vertex facets has dimension n - 1.  Interior face counts are defined
componentwise as f(B) - f(boundary B); the interior itself is never
materialized as a complex.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import defaultdict, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from math import comb

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

# Faces are counted by a shelling from this many vertices per facet up, and
# by expansion below, where the expansion is the faster of the two
_SHELL_MIN_N = 6


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


class FVector(tuple):
    """Face counts by dimension, counts[d] = number of d-faces for 0 <= d < n.

    An f-vector is the immutable tuple of its counts: it compares equal to
    that tuple, hashes like it and serialises to a JSON array, and ``n`` is
    its length.  Lookups outside 0..n-1 return 0, so identity sums need no
    range guards.  The empty face is never counted.
    """

    __slots__ = ()

    n = property(len)
    counts = property(tuple)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({self.counts!r})"

    def __getitem__(self, dim: int | slice) -> int | tuple[int, ...]:
        # a slice goes to the tuple; only an int outside 0..n-1 reads 0
        if not isinstance(dim, int) or 0 <= dim < len(self):
            return tuple.__getitem__(self, dim)
        return 0

    def euler_characteristic(self) -> int:
        return sum(c if d % 2 == 0 else -c for d, c in enumerate(self))


class BallCheckReport(
    namedtuple(
        "BallCheckReport",
        "n ridge_incidence_ok has_boundary dual_graph_connected"
        " euler_char_ball euler_char_boundary",
    )
):
    """Necessary-condition screen for "is this facet set a ball?".

    Ridge incidence at most 2, a nonempty boundary, a connected
    facet-adjacency graph, and the two Euler characteristics.  A genuine
    (n-1)-ball has euler_char_ball = 1 and euler_char_boundary =
    1 + (-1)^n.  Purity is not a field: building a :class:`Complex` from
    facets of mixed sizes already raises NonPureError.  ``ok`` means
    :meth:`failures` is empty.  Passing the screen does NOT prove
    ball-ness; failing it disproves it.  The three conditions are bools,
    ``n`` and the characteristics ints.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        """Human-readable list of the conditions that failed."""
        return _screen_failures(self, closed=False)


class Census(namedtuple("Census", "f f_boundary f_interior report")):
    """One pass over a complex: its f-vectors and its ball screen, counts only.

    ``f``, ``f_boundary`` and ``f_interior`` are f-vectors, with
    ``f_interior`` = f - f_boundary componentwise, and ``report`` is the
    ball screen.  For n = 1 the only ridge is the empty face, and
    ``f_boundary`` is empty, since the boundary of a point has no faces.
    Each f-vector is counted by expansion or by a shelling; no face set
    is kept and no boundary complex is built.  The f-vectors describe a
    ball only when ``report.ok``.
    """

    __slots__ = ()


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
        sizes = set(map(len, facets))
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
        return frozenset(_subsets(self.facets, dim + 1))

    def f_vector(self) -> FVector:
        """Counts of distinct i-faces for i = 0 .. n-1, one dimension at a time."""
        return FVector(len(self.faces(d)) for d in range(self.n))

    def census(self) -> "Census":
        """Everything ``verify`` and ``fvector`` need, computed once and cached.

        A ridge pass records, in one integer array, which facets share
        each ridge; the ridge check (a count identity) and the boundary
        ridges read it, and no facet's ridges are generated twice.  The
        faces of the complex, and then of its boundary ridges, are counted
        by expansion below n = 6 and from 6 up by a shelling over a ridge
        pass (the boundary's own), with the expansion as the fallback when
        the shelling gets stuck; only dimensions 0..n-3 are ever expanded.
        The adjacency search runs only when no shelling reached every
        facet.  :meth:`faces` and :meth:`f_vector` are not called and no
        :class:`Complex` is built.  Never raises.
        """
        census = self._census
        if census is None:
            census = self._take_census()
            self._census = census
        return census

    def _take_census(self) -> "Census":
        n = self.n
        facets = list(self.facets)
        first, partner = _ridge_pass(facets, n)
        boundary = _boundary_ridges(first, partner)
        f, shelled = _face_counts(facets, n, (first, partner))
        # a shelling crosses only shared ridges, so reaching every facet connects them
        connected = shelled or _connected(partner, n, len(facets))
        f_bd = _face_counts(boundary, n - 1)[0]
        return Census(
            f=f,
            f_boundary=f_bd,
            # f_bd has n - 1 entries: the boundary has no (n-1)-faces
            f_interior=FVector(map(operator.sub, f, (*f_bd, 0))),
            report=BallCheckReport(
                n=n,
                ridge_incidence_ok=_no_ridge_in_three(first, partner),
                has_boundary=bool(boundary),
                dual_graph_connected=connected,
                euler_char_ball=f.euler_characteristic(),
                euler_char_boundary=f_bd.euler_characteristic(),
            ),
        )

    def boundary(self) -> "Complex":
        """The subcomplex generated by ridges lying in exactly one facet.

        For a ball this is its boundary sphere.  Raises RidgeOverflowError
        if some ridge lies in three or more facets, NoBoundaryError if
        every ridge lies in exactly two.  The census keeps no ridges, so
        each call builds the complex anew from a ridge pass of its own.
        """
        self._census_with_boundary()
        return Complex(frozenset(_boundary_ridges(*_ridge_pass(list(self.facets), self.n))))

    def interior_f_vector(self) -> FVector:
        """f(B) - f(boundary B) componentwise.

        The boundary has no (n-1)-faces, so the top entry is the facet
        count.  The interior is a vector of counts only, not a complex.
        Raises the errors of :meth:`boundary`, and builds no complex.
        """
        return self._census_with_boundary().f_interior

    def _census_with_boundary(self) -> Census:
        """The census, once it shows a boundary; else the error of :meth:`boundary`."""
        if self.n < 2:
            raise ComplexError("boundary needs facets with at least 2 vertices")
        census = self.census()
        if not census.report.ridge_incidence_ok:
            # the census's facet order again, so the same ridge is named first
            ridge, count = _first_overflow(*_ridge_pass(list(self.facets), self.n))
            raise RidgeOverflowError(f"ridge {ridge} lies in {count} facets")
        if not census.report.has_boundary:
            raise NoBoundaryError("every ridge is interior")
        return census

    def ball_check(self) -> BallCheckReport:
        """The necessary-condition screen, read from the census.  Never raises."""
        return self.census().report


def _ridge_pass(facets: list[Face], n: int) -> tuple[dict[Face, int], list[int]]:
    """Which facets share each ridge, in one flat array; one dict operation per ridge.

    Slot k = i*n + r stands for the r-th ridge of facets[i] in
    combinations order, the ridge that drops position n - 1 - r.
    ``first`` maps each ridge to its first slot.  ``partner[k]`` is -1
    for a ridge held by one facet; otherwise the holders of a ridge form
    a ring of slots, each pointing at the next, so two holders point at
    each other.
    """
    first: dict[Face, int] = {}
    setdefault = first.setdefault
    partner = [-1] * (len(facets) * n)
    k = 0
    for facet in facets:
        for ridge in itertools.combinations(facet, n - 1):
            j = setdefault(ridge, k)
            if j != k:
                p = partner[j]
                partner[k] = j if p < 0 else p
                partner[j] = k
            k += 1
    return first, partner


def _boundary_ridges(first: dict[Face, int], partner: list[int]) -> list[Face]:
    """The ridges in exactly one facet, in the order the ridge pass saw them."""
    return list(itertools.compress(first, [partner[k] < 0 for k in first.values()]))


def _no_ridge_in_three(first: dict[Face, int], partner: list[int]) -> bool:
    """Whether every ridge lies in at most two facets, by a count identity.

    The m*n slots hold each ridge once per facet: at least b + 2(R - b)
    = 2R - b for R ridges, b of them boundary ridges (the -1 slots), with
    equality iff no ridge lies in three or more facets.
    """
    return len(partner) == 2 * len(first) - partner.count(-1)


def _first_overflow(first: dict[Face, int], partner: list[int]) -> tuple[Face, int]:
    """The ridge in three or more facets first seen in the ridge pass, with its count.

    Some ridge must lie in three facets.  ``first`` lists the ridges in
    the order they were seen.  A ring runs from its first slot to the
    newest and back down to the second, so it is walked until it drops to
    its first slot, its least.
    """
    for ridge, j in first.items():
        count, k = 1, partner[j]
        while k > j:
            count, k = count + 1, partner[k]
        if count > 2:
            return ridge, count


def _connected(partner: list[int], n: int, m: int) -> bool:
    """Whether the facet-adjacency graph is connected: a search from facet 0.

    The facet across slot k is partner[k] // n.  A boundary slot gives
    -1 // n == -1, and ``seen[-1]``, the extra last byte, is preset, so
    the search skips it; -1 must never index a list of facets, where it
    would read the last facet's row.
    """
    seen = bytearray(m + 1)
    seen[0] = seen[m] = 1
    order = [0]
    for i in order:  # grows while it is read
        for p in partner[i * n:i * n + n]:
            j = p // n
            if not seen[j]:
                seen[j] = 1
                order.append(j)
    return len(order) == m


def _face_counts(
    facets: list[Face], n: int, ridge_pass: tuple[dict[Face, int], list[int]] | None = None
) -> tuple[FVector, bool]:
    """The f-vector of a pure complex, and whether a shelling reached every facet.

    From n = _SHELL_MIN_N up, with ``ridge_pass`` or a pass of its own, if
    no ridge lies in three facets and a greedy shelling reaches every
    facet, F adds the faces between R(F) and F: f_{j-1} = sum_r h_r
    C(n-r, j-r).  Otherwise the faces below the facets are expanded, but
    the ridges are counted off a given pass and f_0 off the vertices.
    """
    if n >= _SHELL_MIN_N and facets:
        ridge_pass = first, partner = ridge_pass or _ridge_pass(facets, n)
        if _no_ridge_in_three(first, partner) and (h := _shelling(facets, n, partner)):
            return FVector(sum(map(operator.mul, h, row)) for row in _h_to_f_rows(n)), True
    # n = 0 is the boundary of a point, the empty complex; a point's empty ridge is not counted
    if n < 2:
        return FVector((len(facets),) * n), False
    ridges = len(ridge_pass[0]) if ridge_pass else len(set(_subsets(facets, n - 1)))
    lower = [len(set(_subsets(facets, s))) for s in range(2, n - 1)]
    vertices = [len(set(itertools.chain.from_iterable(facets)))] if n > 2 else []
    return FVector((*vertices, *lower, ridges, len(facets))), False


@functools.cache
def _h_to_f_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row j - 1 is [C(n-r, j-r) for r = 0..j], for j = 1..n: f_{j-1} = sum_r h_r C(n-r, j-r).

    Built once per n and read by every shelled complex of n-vertex facets.
    """
    return tuple(tuple(comb(n - r, j - r) for r in range(j + 1)) for j in range(1, n + 1))


def _shelling(facets: list[Face], n: int, partner: list[int]) -> list[int] | None:
    """The h-vector of a greedy shelling from facets[0], or None if it gets stuck.

    Every ridge must lie in at most two facets.  R(F) holds the vertices v
    of F with F - {v} in a shelled facet, and F may come next iff R(F) is
    nonempty (but for the first facet) and no shelled facet contains it;
    then h_{|R(F)|} gains one.  F is queued whenever R(F) grows, that is
    when the facet across one of its ridges is shelled: across slot k lies
    facet partner[k] // n, whose position n - 1 - partner[k] % n that ridge
    drops.  Vertex v keeps an int whose bit t marks the t-th shelled facet,
    so a shelled facet contains R(F) iff the AND over R(F) is nonzero.
    """
    m = len(facets)
    h = [0] * (n + 1)
    restriction: list[list[int]] = [[] for _ in range(m)]
    shelled = bytearray(m)
    holders: defaultdict[int, int] = defaultdict(int)
    steps = 0
    queue = [0]
    for j in queue:  # grows while it is read
        if shelled[j]:
            continue
        R = restriction[j]  # nonempty once a facet is shelled: j was queued across a ridge
        if steps and functools.reduce(operator.and_, map(holders.__getitem__, R)):
            continue
        bit = 1 << steps
        for v in facets[j]:
            holders[v] |= bit
        h[len(R)] += 1
        shelled[j] = 1
        steps += 1
        for p in partner[j * n:j * n + n]:
            i = p // n
            if p >= 0 and not shelled[i]:
                restriction[i].append(facets[i][n - 1 - p % n])
                queue.append(i)
    return h if steps == m else None


def _screen_failures(report: BallCheckReport, closed: bool) -> list[str]:
    """The failed conditions of the ball screen, or with ``closed`` of the sphere screen.

    A closed (n-1)-sphere has no boundary ridge, no boundary to check and
    Euler characteristic 1 + (-1)^(n-1).
    """
    out = []
    if not report.ridge_incidence_ok:
        out.append("a ridge lies in more than two facets")
    if closed and report.has_boundary:
        out.append("has boundary ridges")
    if not closed and not report.has_boundary:
        out.append("no boundary ridge (sphere candidate, not a ball)")
    if not report.dual_graph_connected:
        out.append("facet-adjacency graph is disconnected")
    expected = 1 + (-1) ** (report.n - 1) if closed else 1
    if report.euler_char_ball != expected:
        out.append(f"Euler characteristic {report.euler_char_ball} != {expected}")
    expected = 1 + (-1) ** report.n
    if not closed and report.euler_char_boundary != expected:
        out.append(f"boundary Euler characteristic {report.euler_char_boundary} != {expected}")
    return out


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
        for v in raw:
            if type(v) is not int or v < 0:
                raise ComplexError(f"vertex ids must be nonnegative integers, got {v!r}")
        facet = tuple(sorted(raw))
        if not facet:
            raise EmptyInputError("empty facet")
        if len(set(facet)) != len(facet):
            raise DuplicateVertexError(f"facet {list(raw)} repeats a vertex")
        normalized.add(facet)
    return Complex(frozenset(normalized))
