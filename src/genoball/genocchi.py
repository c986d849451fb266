"""Exact Genocchi numbers, computed by independent routes.

The signed Genocchi numbers G_2, G_4, G_6, ... = -1, 1, -3, 17, -155, 2073,
... (OEIS A001469) are the even-index coefficients of the exponential
generating function 2t/(e^t + 1).  Four constructions are provided:

* ``genocchi_by_series`` -- expand 2t/(e^t + 1) as a truncated power series
  and read the coefficients off directly;
* ``genocchi_by_recursion_even`` -- the recursion
  G_{2n} = -n - (1/2) * sum_{k<n} C(2n, 2k) G_{2k};
* ``genocchi_by_recursion_odd`` -- the recursion
  G_{2n} = -1 - sum_{k<n} C(2n, 2k-1) G_{2k}/(2k);
* ``genocchi_by_bernoulli`` -- the scaling G_{2n} = 2(1 - 4^n) B_{2n} of
  the Bernoulli numbers, read off the tangent numbers.

The four tables must agree entry by entry; `dumont_count` adds a fifth,
combinatorial route for small indices.  Every result is exact and no step
reduces a fraction.  The Bernoulli route runs Brent and Harvey's integer
recurrence for the tangent numbers T_n ("Fast computation of Bernoulli,
Tangent and Secant numbers", arXiv:1108.0286), then divides once per
value.  The odd recursion works in ``int`` over one common denominator,
L = lcm(2, 4, ..., 2N), and the even recursion halves once per step.
Only the series grows its scale: it keeps its quotient over a factorial
that grows in blocks of coefficients, rescales only that quotient when
the factorial grows, and sums each long-division step by Horner's rule,
with big-by-small products, over the coefficients that can be nonzero
(t^1 and the even powers; the odd ones past t^1 are checked to vanish).
Every division must leave no remainder, and `_exact_div` raises
SelfCheckError if one does.  The two recursions read their binomial
weights from Pascal's triangle, one row at a time (`_binomial_rows`,
which builds and yields only each row's first half), and
`_both_recursions` runs the two in one walk, handing each half row to
both steps in turn, for the CLI's four-route cross-check; the series
and Bernoulli routes use no binomials, and no route calls `binomial` or
``math.comb``.  `ratio_identity_residual` uses ``fractions.Fraction``
and `binomial`.  Every route allocates its table's list in full before any
arithmetic, so an N too large to allocate fails at once, never runs on.
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
    "binomial",
    "genocchi_by_series",
    "genocchi_by_recursion_even",
    "genocchi_by_recursion_odd",
    "genocchi_by_bernoulli",
    "dumont_count",
    "ratio_identity_residual",
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
    """Half rows 0 .. top of Pascal's triangle: row m is [C(m, 0), ..., C(m, m//2)].

    Each half row is built from the one before by Pascal's rule; for even
    m its last entry is C(m, m/2) = 2 C(m-1, m/2-1).  Nothing is mirrored:
    a reader takes C(m, j) for j > m//2 as C(m, m-j), so a route that walks
    the rows in order pays one addition per binomial of the first half
    instead of a fresh C(m, j).  Only the current half row is kept.
    Requires top >= 0.
    """
    half = [1]  # C(m, 0), ..., C(m, m // 2)
    yield half
    for m in range(1, top + 1):
        if m % 2:
            half = [1, *map(operator.add, half, half[1:])]
        else:
            half = [1, *map(operator.add, half, half[1:]), 2 * half[-1]]
        yield half


def _exact_div(num: int, den: int, what: str) -> int:
    """num / den, which must be an integer; a remainder is a SelfCheckError."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise SelfCheckError(f"{what} must be an integer, got {Fraction(num, den)}")
    return quotient


class GenocchiTable(namedtuple("GenocchiTable", "values method")):
    """Genocchi numbers G_2, G_4, ..., tagged with the producing method.

    ``values`` maps each even index to its integer G_index.
    """

    __slots__ = ()

    def genocchi(self, index: int) -> int:
        """G_index for any index covered by the table.

        Odd indices are served from the generating function itself:
        G_1 = 1 and G_{2n+1} = 0 for n >= 1.  An even index that is not a
        key of ``values`` raises InsufficientTableError.
        """
        if index < 0:
            raise ValueError(f"Genocchi index must be nonnegative, got {index}")
        if index == 0:
            return 0
        if index == 1:
            return G1
        if index % 2 == 1:
            return 0
        try:
            return self.values[index]
        except KeyError:
            raise InsufficientTableError(
                f"table ({self.method}) covers indices through "
                f"{max(self.values, default=0)}, need {index}"
            ) from None


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


#: Coefficients per block of the series route's growing scale.  With the
#: Horner sum over t^1 and the even coefficients (medians of interleaved
#: runs, two rounds, Python 3.11, 2-core VM) blocks of 1 / 4 / 8 / 16 / 32
#: took 4.8-6.3 / 3.6-4.5 / 3.3-3.9 / 3.2-4.4 / 3.2-4.1 ms at N = 100 and
#: 43-47 / 35-40 / 33-34 / 33-34 / 32-33 ms at N = 250, against 3.5-4.7 and
#: 45-46 ms for the one scale (2N+1)! throughout.  8 to 32 are within noise
#: of each other at both sizes.
_SERIES_BLOCK = 8


def genocchi_by_series(N: int) -> GenocchiTable:
    """G_2 .. G_{2N} from the power-series expansion of 2t/(e^t + 1).

    The quotient 2t / (2 + sum_{j>=1} t^j/j!) is computed by long
    division over a factorial scale s = top! that grows with the step: it
    starts at 0! and, before the first step i > top, advances top by
    ``_SERIES_BLOCK`` (capped at 2N+1).  At scale s the denominator series
    is d_0 = 2s, d_k = s/k! (k <= top), and the quotient is kept as the
    integers Q_j = s [t^j], solved from

        Q_i = (num_i s^2 - sum_{k=1}^{i} Q_{i-k} d_k) / d_0,   num = 2t.

    Q_j is an integer for every j <= top, because j! [t^j] = G_j is.  The
    sum is evaluated by Horner's rule: since d_{k-1} = k d_k, it equals
    d_i H_i with H_i = sum_{j<i} Q_j i!/(i-j)!.  Q_0 = 0, and every odd
    Q_j with j >= 3 is 0 whenever the route returns, so H_i runs over the
    even j >= 2 only, descending, as H = H (i-j-1)(i-j) + Q_j (the
    multiplier depends on i - j alone, so it is tabled once per call), and
    closes with H_i = (H (i-1) + Q_1) i; the terms it skips are exactly 0, so
    every value equals the full sum's.  So step i multiplies a big
    integer by a small one about i/2 times and by another big integer
    once, and reads no d_k but d_0 and d_i.  The weights are integers,
    not binomials.  When top advances, every stored Q_j is multiplied by
    the block ratio (top+1)...(new_top), and only the new block's
    d_k = new_top!/k! are kept; `_falling_products` gives both without a
    division.  Early steps thus multiply small
    integers, and the last block ends at the full scale D = (2N+1)!.  Then
    G_{2n} = Q_{2n} / F_n with F_n = D/(2n)! = (2N+1) (2N) ... (2n+1),
    built down from F_N = 2N+1 by one small product per value, so no
    value is multiplied up to D and divided by it.  That product, carried
    on to 2 F_1, must equal D, and every division is checked to be exact.
    The odd part of the quotient is checked on the way out: [t^1] must
    equal 1 and every higher odd coefficient through t^{2N+1} must vanish.
    The odd steps are still solved, since they are that check: if one is
    not 0, the route raises instead of returning values that skipped it.
    """
    _require_positive(N)
    degree = 2 * N + 1
    Q = [0] * (degree + 1)  # Q[j] = s [t^j], filled by index
    # Horner multiplier (r-1) r by r = i - j: steps[i % 2] lists r = 2, 4, ...
    # for even i and r = 1, 3, ... for odd i, as j descends
    steps = [[(r - 1) * r for r in range(start, degree, 2)] for start in (2, 1)]
    top, s = 0, 1
    for i in range(degree + 1):
        if i > top:
            new_top = min(top + _SERIES_BLOCK, degree)
            d = _falling_products(top, new_top)  # d[k - low] = d_k, k = low..top
            low, top = top, new_top
            s *= d[0]
            Q[:i] = [q * d[0] for q in Q[:i]]
        acc = 2 * s * s if i == 1 else 0
        if i:
            # Q_0 = 0 and every odd Q_j past Q_1 is 0 (checked below), so
            # only even j >= 2 and j = 1 enter; at i = 1, Q[1] is still 0
            H = 0
            for step, q in zip(steps[i % 2], Q[(i - 1) & ~1 : 1 : -2]):
                H = H * step + q
            H = (H * (i - 1) + Q[1]) * i
            acc -= d[i - low] * H
        Q[i] = _exact_div(acc, 2 * s, f"s [t^{i}]")
    D = s
    if Q[1] != D:
        raise SelfCheckError(f"[t^1] of 2t/(e^t+1) must be 1, got {Fraction(Q[1], D)}")
    for n in range(1, N + 1):
        if Q[2 * n + 1] != 0:
            raise SelfCheckError(
                f"[t^{2 * n + 1}] of 2t/(e^t+1) must vanish, "
                f"got {Fraction(Q[2 * n + 1], D)}"
            )
    F = [0] * (N + 1)  # F[n] = D/(2n)!, down from F[N] = 2N+1
    f = degree
    for n in range(N, 0, -1):
        F[n] = f
        f *= 2 * n * (2 * n - 1)
    if f != D:  # f = 2 F[1]
        raise SelfCheckError(
            f"the series scale must be (2N+1)!, got {Fraction(D, f)} (2N+1)!"
        )
    values = {2 * n: _exact_div(Q[2 * n], F[n], f"G_{2 * n}") for n in range(1, N + 1)}
    return GenocchiTable(values=values, method="series")


def _even_half_rows(N: int) -> Iterator[list[int]]:
    """Half rows 2, 4, ..., 2N of Pascal's triangle: the rows the recursions read.

    Read through the module's `_binomial_rows`, one row at a time.
    """
    return itertools.islice(_binomial_rows(2 * N), 2, None, 2)


def _even_step(n: int, half: list[int], G: list[int]) -> int:
    """G_{2n} by the even recursion, from half row 2n and G[1:n] = G_2 .. G_{2n-2}.

    Computed as (-2n - sum_k C(2n, 2k) G_{2k}) / 2, checked to be exact.
    """
    # C(2n, 2k) for k = 1..n-1: half[2k] up to 2k = n, then half[2n-2k]
    weights = half[2 : n + 1 : 2] + half[2 * ((n + 1) // 2) - 2 : 1 : -2]
    acc = sum(map(operator.mul, weights, G[1:n]))
    return _exact_div(-2 * n - acc, 2, f"G_{2 * n}")


def _odd_step(n: int, half: list[int], W: list[int], L: int, N: int) -> int:
    """G_{2n} by the odd recursion, from half row 2n and W = [W_1 .. W_{n-1}].

    G_{2n} = (-L - sum_k C(2n, 2k-1) W_k) / L over L = lcm(2, 4, ..., 2N),
    and W_n = G_{2n} L/(2n) is appended to W; both divisions are checked
    to be exact.
    """
    # C(2n, 2k-1) for k = 1..n-1: half[2k-1] up to 2k-1 = n, then
    # half[2n-2k+1]; at n = 1 the one entry meets no W_k
    weights = half[1 : n + 1 : 2] + half[2 * (n // 2) - 1 : 2 : -2]
    value = _exact_div(-L - sum(map(operator.mul, weights, W)), L, f"G_{2 * n}")
    W.append(value * _exact_div(L, 2 * n, f"lcm(2..{2 * N}) / {2 * n}"))
    return value


def _lcm_of_evens(N: int) -> int:
    """L = lcm(2, 4, ..., 2N), the common denominator of the odd recursion's
    steps and of the Genocchi identity's weights in ``verify``."""
    return math.lcm(*range(2, 2 * N + 1, 2))


def _recursion_table(G: list[int], method: str) -> GenocchiTable:
    """The table of G[k] = G_{2k}, k = 1 .. len(G) - 1."""
    return GenocchiTable(values={2 * k: G[k] for k in range(1, len(G))}, method=method)


def genocchi_by_recursion_even(N: int) -> GenocchiTable:
    """G_2 .. G_{2N} via G_{2n} = -n - (1/2) sum_{k=1}^{n-1} C(2n, 2k) G_{2k}.

    Computed as (-2n - sum_k C(2n, 2k) G_{2k}) / 2, checked to be exact.
    Step n reads its weights C(2n, 2k) from row 2n of Pascal's triangle.
    """
    _require_positive(N)
    G = [0] * (N + 1)  # G[k] = G_{2k}; G[0] is never read
    for n, half in enumerate(_even_half_rows(N), start=1):
        G[n] = _even_step(n, half, G)
    return _recursion_table(G, "recursion-even")


def genocchi_by_recursion_odd(N: int) -> GenocchiTable:
    """G_2 .. G_{2N} via G_{2n} = -1 - sum_{k=1}^{n-1} C(2n, 2k-1) G_{2k}/(2k).

    Every step sums over one common denominator L = lcm(2, 4, ..., 2N):
    G_{2n} = (-L - sum_k C(2n, 2k-1) W_k) / L with the weighted values
    W_k = G_{2k} L/(2k), and W_n is appended once G_{2n} is known.  The
    division by L and each weight's L/(2n) are checked to be exact.
    Step n reads C(2n, 2k-1) from row 2n of Pascal's triangle.
    """
    _require_positive(N)
    G = [0] * (N + 1)  # G[k] = G_{2k}; G[0] is never read
    L = _lcm_of_evens(N)
    W: list[int] = []  # W[k-1] = G_{2k} L/(2k)
    for n, half in enumerate(_even_half_rows(N), start=1):
        G[n] = _odd_step(n, half, W, L, N)
    return _recursion_table(G, "recursion-odd")


def _both_recursions(N: int) -> tuple[GenocchiTable, GenocchiTable]:
    """The tables of `genocchi_by_recursion_even` and `genocchi_by_recursion_odd`
    from one walk of Pascal's triangle.

    Each half row 2n is handed to the even and the odd step in turn, so the
    two routes advance in lockstep and the walk holds one half row at a time
    (and the one it is built from), never a table of rows.  The two routes
    share the rows and nothing else: a wrong row shows in both, and each
    step's own checks still run.
    """
    _require_positive(N)
    even = [0] * (N + 1)  # even[k] = G_{2k} by the even recursion
    odd = [0] * (N + 1)  # odd[k] = G_{2k} by the odd recursion
    L = _lcm_of_evens(N)
    W: list[int] = []  # W[k-1] = odd[k] L/(2k)
    for n, half in enumerate(_even_half_rows(N), start=1):
        even[n] = _even_step(n, half, even)
        odd[n] = _odd_step(n, half, W, L, N)
    return _recursion_table(even, "recursion-even"), _recursion_table(odd, "recursion-odd")


def _tangent_numbers(N: int) -> list[int]:
    """[0, T_1, ..., T_N]: the tangent numbers, tan t = sum_n T_n t^{2n-1}/(2n-1)!.

    Brent and Harvey's in-place recurrence: from T_k = (k-1)!, for
    k = 2..N and j = k..N, T_j = (j-k) T_{j-1} + (j-k+2) T_j.  That is
    N^2/2 products of a big integer by a small one, and no division.
    T_1, T_2, T_3, ... = 1, 2, 16, 272, ... (OEIS A000182).  Requires N >= 0.
    """
    T = [0] * (N + 1)
    T[1:] = map(math.factorial, range(N))
    for k in range(2, N + 1):
        for j in range(k, N + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return T


def genocchi_by_bernoulli(N: int) -> GenocchiTable:
    """G_2 .. G_{2N} via G_{2n} = 2 (1 - 4^n) B_{2n} = (-1)^n n T_n / 4^{n-1}.

    The Bernoulli numbers (B_1 = -1/2 convention) are B_{2n} =
    (-1)^{n-1} 2n T_n / (4^n (4^n - 1)) in the tangent numbers T_n, so
    the scaling reads G_{2n} off T_n with one division per value, checked
    to be exact; no B_{2n} is formed.
    """
    _require_positive(N)
    T = _tangent_numbers(N)
    values = {
        2 * n: _exact_div((-1) ** n * n * T[n], 4 ** (n - 1), f"G_{2 * n}")
        for n in range(1, N + 1)
    }
    return GenocchiTable(values=values, method="bernoulli")


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
    which is exactly zero for every n >= 2.  Term by term, on any table,
    it is (2n-1) times a_m + (1/2) sum_{j<m} C(2m, 2j) a_j at m = n-1, with
    a_j = G_{2j+2}/(j+1): a coefficient identity of 2/(e^t + 1).
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
