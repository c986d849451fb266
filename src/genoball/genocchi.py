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
  the Bernoulli numbers (B_1 = -1/2 convention).

The four tables must agree entry by entry; `dumont_count` adds a fifth,
combinatorial route for small indices.  Every result is exact.  The
series, odd-recursion and Bernoulli routes work in ``int`` over one common
denominator each (the fraction-free approach of Brent and Harvey, "Fast
computation of Bernoulli, Tangent and Secant numbers", arXiv:1108.0286),
so no step reduces a fraction; every division they make must leave no
remainder, and `_exact_div` raises SelfCheckError if one does.  The
even recursion and the identity residuals use ``fractions.Fraction``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

__all__ = [
    "G1",
    "DEFAULT_DUMONT_LIMIT",
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

#: Largest n accepted by dumont_count unless the caller raises the limit
#: (n = 5 means enumerating 10! ~ 3.6M permutations).
DEFAULT_DUMONT_LIMIT = 5


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


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise SelfCheckError(f"{what} must be an integer, got {value}")
    return value.numerator


def _exact_div(num: int, den: int, what: str) -> int:
    """num / den, which must be an integer; a remainder is a SelfCheckError."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise SelfCheckError(f"{what} must be an integer, got {Fraction(num, den)}")
    return quotient


@dataclass(frozen=True)
class GenocchiTable:
    """Genocchi numbers G_2 .. G_{max_index}, tagged with the producing method."""

    max_index: int
    values: Mapping[int, int]
    method: str

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


@dataclass(frozen=True)
class BernoulliTable:
    """Bernoulli numbers B_0 .. B_{max_index} under the B_1 = -1/2 convention."""

    max_index: int
    values: Mapping[int, Fraction]

    def bernoulli(self, index: int) -> Fraction:
        if not 0 <= index <= self.max_index:
            raise InsufficientTableError(
                f"table covers indices 0..{self.max_index}, need {index}"
            )
        return self.values[index]


def _require_positive(N: int) -> None:
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")


def genocchi_by_series(N: int) -> GenocchiTable:
    """G_2 .. G_{2N} from the power-series expansion of 2t/(e^t + 1).

    The quotient 2t / (2 + sum_{j>=1} t^j/j!) is computed by long
    division, over the common denominator D = (2N+1)!: the denominator
    series is scaled to d_0 = 2D, d_j = D/j!, and the quotient is kept as
    the integers Q_i = D [t^i], solved from

        Q_i = (num_i D^2 - sum_{j<i} Q_j d_{i-j}) / d_0,   num = 2t.

    Then G_{2n} = (2n)! Q_{2n} / D.  Both divisions are checked to be
    exact.  The odd part of the quotient is checked on the way out: [t^1]
    must equal 1 and every higher odd coefficient through t^{2N+1} must
    vanish.
    """
    _require_positive(N)
    degree = 2 * N + 1
    D = math.factorial(degree)
    d = [2 * D] + [D // math.factorial(j) for j in range(1, degree + 1)]
    num = [0, 2] + [0] * (degree - 1)
    D2 = D * D
    Q: list[int] = []
    for i in range(degree + 1):
        acc = num[i] * D2 - sum(map(operator.mul, Q, d[i:0:-1]))
        Q.append(_exact_div(acc, d[0], f"D [t^{i}]"))
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
    """G_2 .. G_{2N} via G_{2n} = -n - (1/2) sum_{k=1}^{n-1} C(2n, 2k) G_{2k}."""
    _require_positive(N)
    values: dict[int, int] = {}
    for n in range(1, N + 1):
        acc = sum(binomial(2 * n, 2 * k) * values[2 * k] for k in range(1, n))
        g = Fraction(-n) - Fraction(acc, 2)
        values[2 * n] = _as_int(g, f"G_{2 * n}")
    return GenocchiTable(max_index=2 * N, values=values, method="recursion-even")


def genocchi_by_recursion_odd(N: int) -> GenocchiTable:
    """G_2 .. G_{2N} via G_{2n} = -1 - sum_{k=1}^{n-1} C(2n, 2k-1) G_{2k}/(2k).

    Step n sums over the common denominator L = lcm(2, 4, ..., 2n-2)
    (L = 1 for n = 1): G_{2n} = (-L - sum_k C(2n, 2k-1) G_{2k} (L/(2k))) / L.
    The weights L/(2k) and the one division by L per step are checked to
    be exact.
    """
    _require_positive(N)
    values: dict[int, int] = {}
    L = 1
    for n in range(1, N + 1):
        if n > 1:
            L = math.lcm(L, 2 * n - 2)
        acc = -L
        for k in range(1, n):
            weight = _exact_div(L, 2 * k, f"lcm(2..{2 * n - 2}) / {2 * k}")
            acc -= binomial(2 * n, 2 * k - 1) * values[2 * k] * weight
        values[2 * n] = _exact_div(acc, L, f"G_{2 * n}")
    return GenocchiTable(max_index=2 * N, values=values, method="recursion-odd")


def _scaled_bernoulli(M: int) -> tuple[int, list[int]]:
    """(D, [b_0, ..., b_M]) with D = (M+1)! and b_m = B_m D, all integers.

    The convolution sum_{j=0}^{m} C(m+1, j) B_j = 0, multiplied by D,
    gives b_m = -(sum_{j<m} C(m+1, j) b_j) / (m+1), a division checked
    to be exact.  It is exact because the denominator of B_m divides
    (m+1)! (von Staudt-Clausen), which divides D.
    """
    D = math.factorial(M + 1)
    b = [D]
    for m in range(1, M + 1):
        acc = sum(binomial(m + 1, j) * b[j] for j in range(m))
        b.append(_exact_div(-acc, m + 1, f"B_{m} (M+1)!"))
    return D, b


def bernoulli(M: int) -> BernoulliTable:
    """B_0 .. B_M via the convolution sum_{j=0}^{m} C(m+1, j) B_j = 0.

    Solving the convolution for B_m with B_0 = 1 forces B_1 = -1/2 (the
    convention under which the Genocchi scaling below holds) and B_m = 0
    for odd m >= 3.  The convolution runs in integers over the common
    denominator (M+1)!, with each division by m+1 checked to be exact;
    the values are returned as reduced Fractions.
    """
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    D, b = _scaled_bernoulli(M)
    values = {m: Fraction(b_m, D) for m, b_m in enumerate(b)}
    return BernoulliTable(max_index=M, values=values)


def genocchi_by_bernoulli(N: int) -> GenocchiTable:
    """G_2 .. G_{2N} via G_{2n} = 2 (1 - 2^{2n}) B_{2n}.

    Reads the integers b_{2n} = B_{2n} (2N+1)! of the Bernoulli
    convolution and divides 2 (1 - 4^n) b_{2n} by (2N+1)!, checked to be
    exact.
    """
    _require_positive(N)
    D, b = _scaled_bernoulli(2 * N)
    values = {
        2 * n: _exact_div(2 * (1 - 4**n) * b[2 * n], D, f"G_{2 * n}")
        for n in range(1, N + 1)
    }
    return GenocchiTable(max_index=2 * N, values=values, method="bernoulli")


def dumont_count(n: int, limit: int = DEFAULT_DUMONT_LIMIT) -> int:
    """Count permutations tau of {1, ..., 2n} with tau(i) > i exactly at odd i.

    Exhaustive enumeration of all (2n)! permutations; the count equals
    |G_{2n+2}|.  ``limit`` caps n because the enumeration is factorial
    (the default allows 10! ~ 3.6M permutations, a few seconds).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > limit:
        raise ValueError(
            f"n = {n} exceeds the brute-force limit {limit}; "
            f"raise `limit` explicitly to enumerate (2n)! permutations"
        )
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
