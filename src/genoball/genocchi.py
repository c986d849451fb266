"""Exact Genocchi and Bernoulli numbers, computed by independent routes.

The signed Genocchi numbers G_2, G_4, G_6, ... = -1, 1, -3, 17, -155, 2073,
... (OEIS A001469) are the even-index coefficients of the exponential
generating function 2t/(e^t + 1).  Four constructions are provided:

* ``genocchi_by_series`` -- expand 2t/(e^t + 1) as a truncated power series
  and read the coefficients off directly;
* ``genocchi_by_recursion_even`` -- the recursion
  G_{2n} = -n - (1/2) * sum_{k<n} C(2n, 2k) G_{2k};
* ``genocchi_by_recursion_odd`` -- the recursion
  G_{2n} = -1 - sum_{k<n} C(2n, 2k-1) G_{2k}/(2k);
* ``genocchi_by_bernoulli`` -- the scaling G_{2n} = 2(1 - 2^{2n}) B_{2n} of
  the Bernoulli numbers (B_1 = -1/2 convention), with B_{2n} read off the
  tangent numbers.

The four tables must agree entry by entry; `dumont_count` adds a fifth,
combinatorial route for small indices.  Every result is exact and no step
reduces a fraction.  The Bernoulli route runs Brent and Harvey's integer
recurrence for the tangent numbers T_n ("Fast computation of Bernoulli,
Tangent and Secant numbers", arXiv:1108.0286), then divides once per
value.  The odd recursion works in ``int`` over an lcm that grows with
the step, the series over a factorial that grows in blocks of
coefficients, and the even recursion halves once per step.  Every
division must leave no remainder, and `_exact_div` raises SelfCheckError
if one does.  The two recursions read their binomial weights from
Pascal's triangle, one row at a time (`_binomial_rows`); the series and
Bernoulli routes use no binomials, and no route calls `binomial` or
``math.comb``.  The identity residuals use ``fractions.Fraction`` and
`binomial`.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction

__all__ = [
    "G1",
    "DUMONT_LIMIT",
    "SelfCheckError",
    "InsufficientTableError",
    "GenocchiTable",
    "BernoulliTable",
    "binomial",
    "genocchi_by_series",
    "genocchi_by_recursion_even",
    "genocchi_by_recursion_odd",
    "bernoulli",
    "genocchi_by_bernoulli",
    "dumont_count",
    "ratio_identity_residual",
    "reciprocal_identity_residual",
]

#: The only nonzero odd-index Genocchi number: 2t/(e^t+1) = t + even terms.
G1 = 1

#: Largest n accepted by dumont_count (n = 5 means enumerating
#: 10! ~ 3.6M permutations).
DUMONT_LIMIT = 5


class SelfCheckError(ArithmeticError):
    """An internal consistency check failed.

    Raised when a quantity that must be an integer carries a denominator,
    or when a structurally guaranteed identity fails to hold.  Signals an
    implementation bug, never bad input.
    """


class InsufficientTableError(ValueError):
    """A Genocchi lookup needs indices beyond what the table covers."""


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention C(n, k) = 0 for k < 0 or k > n.

    Requires n >= 0.  The zero convention lets identity sums be written
    without range guards.
    """
    if n < 0:
        raise ValueError(f"binomial: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _binomial_rows(top: int) -> Iterator[list[int]]:
    """Rows 0 .. top of Pascal's triangle: row m is [C(m, 0), ..., C(m, m)].

    Each row is built from the one before by Pascal's rule, so a route that
    walks the rows in order pays one addition per binomial instead of a
    fresh C(m, j).  Only the current row is kept.  Requires top >= 0.
    """
    row = [1]
    yield row
    for _ in range(top):
        row = [1, *map(operator.add, row, row[1:]), 1]
        yield row


def _exact_div(num: int, den: int, what: str) -> int:
    """num / den, which must be an integer; a remainder is a SelfCheckError."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise SelfCheckError(f"{what} must be an integer, got {Fraction(num, den)}")
    return quotient


class GenocchiTable(namedtuple("GenocchiTable", "max_index values method")):
    """Genocchi numbers G_2 .. G_{max_index}, tagged with the producing method.

    ``values`` maps each even index to its integer G_index.
    """

    __slots__ = ()

    def genocchi(self, index: int) -> int:
        """G_index for any index covered by the table.

        Odd indices are served from the generating function itself:
        G_1 = 1 and G_{2n+1} = 0 for n >= 1.  Even indices above
        ``max_index`` raise InsufficientTableError.
        """
        if index < 0:
            raise ValueError(f"Genocchi index must be nonnegative, got {index}")
        if index == 0:
            return 0
        if index == 1:
            return G1
        if index % 2 == 1:
            return 0
        if index > self.max_index:
            raise InsufficientTableError(
                f"table ({self.method}) covers indices through {self.max_index}, "
                f"need {index}"
            )
        return self.values[index]


class BernoulliTable(namedtuple("BernoulliTable", "max_index values")):
    """Bernoulli numbers B_0 .. B_{max_index} under the B_1 = -1/2 convention.

    ``values`` maps each index to its Fraction B_index.
    """

    __slots__ = ()

    def bernoulli(self, index: int) -> Fraction:
        if not 0 <= index <= self.max_index:
            raise InsufficientTableError(
                f"table covers indices 0..{self.max_index}, need {index}"
            )
        return self.values[index]


def _require_positive(N: int) -> None:
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")


def _falling_products(top: int, new_top: int) -> list[int]:
    """[new_top!/k! for k = top, top+1, ..., new_top], by multiplication only.

    Entry 0 is the block ratio (top+1)...(new_top) that rescales top! to
    new_top!; entry k - top is the new scaled coefficient new_top!/k!.
    Requires 0 <= top < new_top.
    """
    falling = itertools.accumulate(range(new_top, top, -1), operator.mul, initial=1)
    return list(falling)[::-1]


#: Coefficients per block of the series route's growing scale.  At N = 100
#: (median of 15 interleaved runs, Python 3.11, 2-core VM) blocks of 1 / 4 /
#: 8 / 16 / 32 took 19 / 15 / 16 / 15 / 17 ms, against 30-35 ms for the one
#: scale (2N+1)! throughout; 4 to 16 are within noise at N = 250 as well.
_SERIES_BLOCK = 8


def genocchi_by_series(N: int) -> GenocchiTable:
    """G_2 .. G_{2N} from the power-series expansion of 2t/(e^t + 1).

    The quotient 2t / (2 + sum_{j>=1} t^j/j!) is computed by long
    division over a factorial scale s = top! that grows with the step: it
    starts at 0! and, before the first step i > top, advances top by
    ``_SERIES_BLOCK`` (capped at 2N+1).  At scale s the denominator series
    is d_0 = 2s, d_k = s/k! (k <= top), and the quotient is kept as the
    integers Q_j = s [t^j], solved from

        Q_i = (num_i s^2 - sum_{j<i} Q_j d_{i-j}) / d_0,   num = 2t.

    Q_j is an integer for every j <= top, because j! [t^j] = G_j is.  When
    top advances, every stored Q_j and d_k is multiplied by the block ratio
    (top+1)...(new_top), and d_k = new_top!/k! is appended for the new k;
    `_falling_products` gives both without a division.  Early steps thus
    multiply small integers, and the last block ends at the full scale
    D = (2N+1)!.  Then G_{2n} = (2n)! Q_{2n} / D.  Both divisions are
    checked to be exact.  The odd part of the quotient is checked on the
    way out: [t^1] must equal 1 and every higher odd coefficient through
    t^{2N+1} must vanish.
    """
    _require_positive(N)
    degree = 2 * N + 1
    num = [0, 2] + [0] * (degree - 1)
    top, s = 0, 1
    d = [2 * s]
    Q: list[int] = []
    for i in range(degree + 1):
        if i > top:
            new_top = min(top + _SERIES_BLOCK, degree)
            ratio, *fresh = _falling_products(top, new_top)
            s *= ratio
            Q = [q * ratio for q in Q]
            d = [x * ratio for x in d] + fresh
            top = new_top
        acc = num[i] * s * s - sum(map(operator.mul, Q, d[i:0:-1]))
        Q.append(_exact_div(acc, d[0], f"s [t^{i}]"))
    D = s
    if Q[1] != D:
        raise SelfCheckError(f"[t^1] of 2t/(e^t+1) must be 1, got {Fraction(Q[1], D)}")
    for n in range(1, N + 1):
        if Q[2 * n + 1] != 0:
            raise SelfCheckError(
                f"[t^{2 * n + 1}] of 2t/(e^t+1) must vanish, "
                f"got {Fraction(Q[2 * n + 1], D)}"
            )
    values = {
        2 * n: _exact_div(Q[2 * n] * math.factorial(2 * n), D, f"G_{2 * n}")
        for n in range(1, N + 1)
    }
    return GenocchiTable(max_index=2 * N, values=values, method="series")


def genocchi_by_recursion_even(N: int) -> GenocchiTable:
    """G_2 .. G_{2N} via G_{2n} = -n - (1/2) sum_{k=1}^{n-1} C(2n, 2k) G_{2k}.

    Computed as (-2n - sum_k C(2n, 2k) G_{2k}) / 2, checked to be exact.
    Step n reads its weights C(2n, 2k) from row 2n of Pascal's triangle.
    """
    _require_positive(N)
    G = [0]  # G[k] = G_{2k}; G[0] is never read
    rows = itertools.islice(_binomial_rows(2 * N), 2, None, 2)
    for n, row in enumerate(rows, start=1):
        acc = sum(map(operator.mul, row[2 : 2 * n : 2], G[1:n]))
        G.append(_exact_div(-2 * n - acc, 2, f"G_{2 * n}"))
    values = {2 * k: G[k] for k in range(1, N + 1)}
    return GenocchiTable(max_index=2 * N, values=values, method="recursion-even")


def genocchi_by_recursion_odd(N: int) -> GenocchiTable:
    """G_2 .. G_{2N} via G_{2n} = -1 - sum_{k=1}^{n-1} C(2n, 2k-1) G_{2k}/(2k).

    Step n sums over the common denominator L = lcm(2, 4, ..., 2n-2)
    (L = 1 for n = 1): G_{2n} = (-L - sum_k C(2n, 2k-1) W_k) / L with the
    weighted values W_k = G_{2k} L/(2k).  The W_k stay on the current L:
    when L grows they are multiplied by the ratio of the new L to the old,
    then W_{n-1} = G_{2n-2} L/(2n-2) is appended.  The ratio, the new
    weight's L/(2n-2) and the one division by L per step are checked to
    be exact; an older W_k is only ever multiplied, so it stays exact.
    Step n reads C(2n, 2k-1) from row 2n of Pascal's triangle.
    """
    _require_positive(N)
    G = [0]  # G[k] = G_{2k}; G[0] is never read
    W: list[int] = []  # W[k-1] = G_{2k} L/(2k) on the current L
    L = 1
    rows = itertools.islice(_binomial_rows(2 * N), 2, None, 2)
    for n, row in enumerate(rows, start=1):
        if n > 1:
            grown = math.lcm(L, 2 * n - 2)
            if grown != L:
                ratio = _exact_div(grown, L, f"lcm(2..{2 * n - 2}) / lcm(2..{2 * n - 4})")
                W = [w * ratio for w in W]
                L = grown
            scale = _exact_div(L, 2 * n - 2, f"lcm(2..{2 * n - 2}) / {2 * n - 2}")
            W.append(G[n - 1] * scale)
        acc = -L - sum(map(operator.mul, row[1 : 2 * n - 1 : 2], W))
        G.append(_exact_div(acc, L, f"G_{2 * n}"))
    values = {2 * k: G[k] for k in range(1, N + 1)}
    return GenocchiTable(max_index=2 * N, values=values, method="recursion-odd")


def _tangent_numbers(N: int) -> list[int]:
    """[0, T_1, ..., T_N]: the tangent numbers, tan t = sum_n T_n t^{2n-1}/(2n-1)!.

    Brent and Harvey's in-place recurrence: from T_k = (k-1)!, for
    k = 2..N and j = k..N, T_j = (j-k) T_{j-1} + (j-k+2) T_j.  That is
    N^2/2 products of a big integer by a small one, and no division.
    T_1, T_2, T_3, ... = 1, 2, 16, 272, ... (OEIS A000182).  Requires N >= 0.
    """
    T = [0, *itertools.accumulate(range(1, N), operator.mul, initial=1)][: N + 1]
    for k in range(2, N + 1):
        for j in range(k, N + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return T


def bernoulli(M: int) -> BernoulliTable:
    """B_0 .. B_M under the B_1 = -1/2 convention, from the tangent numbers.

    B_0 = 1, B_1 = -1/2, B_m = 0 for odd m >= 3, and
    B_{2n} = (-1)^{n-1} 2n T_n / (4^n (4^n - 1)), as reduced Fractions.
    """
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    T = _tangent_numbers(M // 2)
    values = {m: Fraction(0) for m in range(M + 1)}
    values[0] = Fraction(1)
    if M >= 1:
        values[1] = Fraction(-1, 2)
    for n in range(1, M // 2 + 1):
        values[2 * n] = Fraction((-1) ** (n - 1) * 2 * n * T[n], 4**n * (4**n - 1))
    return BernoulliTable(max_index=M, values=values)


def genocchi_by_bernoulli(N: int) -> GenocchiTable:
    """G_2 .. G_{2N} via G_{2n} = 2 (1 - 2^{2n}) B_{2n}.

    With B_{2n} from the tangent numbers T_n (see `bernoulli`) the scaling
    becomes G_{2n} = (-1)^n n T_n / 4^{n-1}, one division per value,
    checked to be exact.
    """
    _require_positive(N)
    T = _tangent_numbers(N)
    values = {
        2 * n: _exact_div((-1) ** n * n * T[n], 4 ** (n - 1), f"G_{2 * n}")
        for n in range(1, N + 1)
    }
    return GenocchiTable(max_index=2 * N, values=values, method="bernoulli")


def dumont_count(n: int) -> int:
    """Count permutations tau of {1, ..., 2n} with tau(i) > i exactly at odd i.

    Exhaustive enumeration of all (2n)! permutations; the count equals
    |G_{2n+2}|.  n is capped at DUMONT_LIMIT because the enumeration
    is factorial (10! ~ 3.6M permutations, a few seconds).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > DUMONT_LIMIT:
        raise ValueError(f"n = {n} exceeds the brute-force limit {DUMONT_LIMIT}")
    size = 2 * n
    positions = range(size)
    # 1-based position i = pos + 1 is odd exactly when pos is even.
    count = 0
    for perm in itertools.permutations(range(1, size + 1)):
        if all((perm[pos] > pos + 1) == (pos % 2 == 0) for pos in positions):
            count += 1
    return count


def ratio_identity_residual(n: int, table: GenocchiTable) -> Fraction:
    """Residual of the weighted-ratio identity among Genocchi numbers.

    Returns ((2n-1)/n) G_{2n}
            + (1/2) sum_{k=1}^{n-1} C(2n-1, 2k-1) ((2k-1)/k) G_{2k},
    which is exactly zero for every n >= 2.
    """
    if n < 2:
        raise ValueError(f"identity requires n >= 2, got {n}")
    lead = Fraction((2 * n - 1) * table.genocchi(2 * n), n)
    acc = Fraction(0)
    for k in range(1, n):
        acc += Fraction(
            binomial(2 * n - 1, 2 * k - 1) * (2 * k - 1) * table.genocchi(2 * k), k
        )
    return lead + acc / 2


def reciprocal_identity_residual(n: int, table: GenocchiTable) -> Fraction:
    """Residual of the reciprocal-weight identity among Genocchi numbers.

    Returns 1 + sum_{k=1}^{n-1} C(2n-2, 2k-1) G_{2k}/(2k), which is exactly
    zero for every n >= 2.
    """
    if n < 2:
        raise ValueError(f"identity requires n >= 2, got {n}")
    acc = Fraction(1)
    for k in range(1, n):
        acc += Fraction(binomial(2 * n - 2, 2 * k - 1) * table.genocchi(2 * k), 2 * k)
    return acc
