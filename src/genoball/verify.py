"""Exact verification of interior/boundary f-vector identities on balls.

For a simplicial (n-1)-ball B with n - k even, three identities tie the
interior face counts f_k(int B) := f_k(B) - f_k(boundary B) to the
boundary counts:

* the Genocchi identity
    f_k(int B) = sum_{i=1}^{floor((n-k)/2)} (G_{2i}/(2i)) *
        (C(k+2i-1, k+1) f_{k+2i-2}(bd B) - C(k+2i, k+1) f_{k+2i-1}(int B));
* a Dehn-Sommerville variant for manifolds with boundary
    f_k(int B) = -f_k(bd B)/2
        - sum_{i=1}^{n-k-1} ((-1)^{n+k+i}/2) C(k+1+i, k+1) f_{k+i}(int B);
* for balls with no interior faces of dimension <= e and any k <= e, the
  boundary-only consequence equating the two Genocchi-weighted sums: the
  Genocchi identity at f_k(int B) = 0, whose residual is the negated
  Genocchi residual.

Each residual is an integer sum over one denominator: the Genocchi
weights G_{2i}/(2i) are integers over L = lcm(2, 4, ..., 2 floor((n-k)/2)),
the Dehn-Sommerville weights integers over 2.  The sum becomes one reduced
Fraction at the end, so every residual is still an exact Fraction; a pass
means literal equality with 0.  No floating point appears anywhere on the
verification path.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .complexes import Complex, FVector
from .genocchi import GenocchiTable, SelfCheckError, binomial

__all__ = [
    "ParityError",
    "PreconditionError",
    "BallCheckError",
    "IdentityCheck",
    "VerificationReport",
    "genocchi_identity_residual",
    "dehn_sommerville_residual",
    "no_interior_faces_residual",
    "max_interior_free_dimension",
    "required_table_size",
    "verify_ball",
]


class ParityError(ValueError):
    """The identity only applies when n - k is even."""


class PreconditionError(ValueError):
    """The boundary-only identity needs f_k(int B) = 0."""


class BallCheckError(ValueError):
    """The complex failed the necessary-condition screen; refusing to verify."""


def _require_even_gap(n: int, k: int) -> None:
    if (n - k) % 2 != 0:
        raise ParityError(f"n - k must be even, got n={n}, k={k}")


def _checked_binomials(k: int, i: int) -> tuple[int, int]:
    """The two binomial weights of the Genocchi identity, self-tested.

    Each coefficient has an equivalent mirrored form; their equality is
    structural, so a mismatch means a broken binomial and we stop.
    """
    c_bd = binomial(k + 2 * i - 1, k + 1)
    c_int = binomial(k + 2 * i, k + 1)
    if c_bd != binomial(k + 2 * i - 1, 2 * i - 2):
        raise SelfCheckError(f"binomial symmetry broken at (k={k}, i={i})")
    if c_int != binomial(k + 2 * i, 2 * i - 1):
        raise SelfCheckError(f"binomial symmetry broken at (k={k}, i={i})")
    return c_bd, c_int


def genocchi_identity_residual(
    k: int, interior: FVector, boundary: FVector, table: GenocchiTable
) -> Fraction:
    """Left side minus right side of the Genocchi identity at dimension k.

    n is ``len(interior)``.  Out-of-range f-vector entries read as 0; for
    k = n the sum is empty and the residual is trivially zero.  Requires
    n - k even, 0 <= k <= n.
    """
    n = len(interior)
    _require_even_gap(n, k)
    if not 0 <= k <= n:
        raise ValueError(f"k must be within 0..{n}, got {k}")
    top = (n - k) // 2
    # every weight G_{2i}/(2i) is an integer over L = lcm(2, 4, ..., 2 top)
    L = math.lcm(*range(2, 2 * top + 1, 2))
    acc = 0
    for i in range(1, top + 1):
        c_bd, c_int = _checked_binomials(k, i)
        weight = table.genocchi(2 * i) * (L // (2 * i))
        acc += weight * (c_bd * boundary[k + 2 * i - 2] - c_int * interior[k + 2 * i - 1])
    return Fraction(interior[k] * L - acc, L)


def dehn_sommerville_residual(k: int, interior: FVector, boundary: FVector) -> Fraction:
    """Residual of the Dehn-Sommerville ball variant at dimension k.

    Returns f_k(int B) + f_k(bd B)/2
            + sum_{i=1}^{n-k-1} ((-1)^{n+k+i}/2) C(k+1+i, k+1) f_{k+i}(int B),
    where n is ``len(interior)``.  Requires n - k even, 0 <= k <= n-2.
    """
    n = len(interior)
    _require_even_gap(n, k)
    if not 0 <= k <= n - 2:
        raise ValueError(f"k must be within 0..{n - 2}, got {k}")
    acc = 2 * interior[k] + boundary[k]
    for i in range(1, n - k):
        sign = -1 if (n + k + i) % 2 else 1
        acc += sign * binomial(k + 1 + i, k + 1) * interior[k + i]
    return Fraction(acc, 2)


def no_interior_faces_residual(
    k: int, interior: FVector, boundary: FVector, table: GenocchiTable
) -> Fraction:
    """Residual of the boundary-only identity for interior-free dimensions.

    This is the Genocchi identity at f_k(int B) = 0, which decouples into
        sum_i (G_{2i}/(2i)) C(k+2i-1, k+1) f_{k+2i-2}(bd B)
      = sum_i (G_{2i}/(2i)) C(k+2i, k+1)   f_{k+2i-1}(int B),
    both sums over 1 <= i <= floor((n-k)/2), where n is ``len(interior)``.
    Returns left minus right, which is the negated Genocchi residual.
    Requires n - k even, 0 <= k <= n and f_k(int B) = 0.
    """
    _require_even_gap(len(interior), k)
    if interior[k] != 0:
        raise PreconditionError(
            f"identity needs f_{k}(int B) = 0, got {interior[k]}"
        )
    return -genocchi_identity_residual(k, interior, boundary, table)


def max_interior_free_dimension(interior: FVector) -> int:
    """Largest e with f_j(int B) = 0 for all j <= e, or -1 if f_0(int B) > 0."""
    e = -1
    while e + 1 < len(interior) and interior[e + 1] == 0:
        e += 1
    return e


def required_table_size(n: int) -> int:
    """Smallest N such that a table G_2..G_{2N} verifies an ambient-n ball."""
    return max(1, n // 2)


class IdentityCheck(
    namedtuple("IdentityCheck", "identity k residual trivial", defaults=(False,))
):
    """One evaluated identity: which one, at which dimension, and its residual.

    ``residual`` is an exact Fraction; ``trivial`` marks a check that holds
    by construction.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.residual == 0


class VerificationReport(
    namedtuple("VerificationReport", "n checks name", defaults=(None,))
):
    """All identity checks for one ball, in deterministic order.

    ``checks`` is a tuple of :class:`IdentityCheck`; ``name`` may be None.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_ball(
    C: Complex, table: GenocchiTable, name: str | None = None
) -> VerificationReport:
    """Evaluate every applicable identity on one ball, exactly.

    The complex must pass the ball screen first; a complex that fails it
    is refused outright (BallCheckError) rather than reported pass/fail.
    Checks cover every k with 0 <= k <= n-2 and n - k even, plus the
    trivially satisfied top case k = n, plus the boundary-only identity
    for every even-gap k up to the detected interior-free dimension e.
    Each Genocchi sum is evaluated once: at k <= e, where f_k(int B) = 0,
    the boundary-only residual is the negated Genocchi residual.
    """
    census = C.census()
    if not census.report.ok:
        raise BallCheckError("; ".join(census.report.failures()))
    n = C.n
    interior, boundary = census.f_interior, census.f_boundary
    e = max_interior_free_dimension(interior)
    checks: list[IdentityCheck] = []
    boundary_only: list[IdentityCheck] = []
    for k in range(n % 2, n - 1, 2):
        residual = genocchi_identity_residual(k, interior, boundary, table)
        checks.append(IdentityCheck("genocchi", k, residual))
        checks.append(
            IdentityCheck("dehn-sommerville", k, dehn_sommerville_residual(k, interior, boundary))
        )
        if k <= e:
            boundary_only.append(IdentityCheck("no-interior-faces", k, -residual))
    checks.append(
        IdentityCheck(
            "genocchi",
            n,
            genocchi_identity_residual(n, interior, boundary, table),
            trivial=True,
        )
    )
    checks.extend(boundary_only)
    return VerificationReport(n=n, checks=tuple(checks), name=name)
