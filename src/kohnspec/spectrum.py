"""Exact enumeration of the positive Kohn Laplacian spectrum on S^(2n-1).

The positive spectrum is indexed by bidegrees (p, q) with p >= 0, q >= 1:
eigenvalue 2q(p + n - 1) with multiplicity dim_hpq(n, p, q).  Eigenvalues
are even integers, so the threshold comparison "eigenvalue <= lambda" is an
exact int-vs-float comparison in Python, with no rounding at the boundary.

enumerate_modes costs one loop iteration per spectral line (distinct (p, q)
pair under the threshold), which is the size of its output.  Its line cap
bounds the lines; it is enforced incrementally while streaming, plus a
fast-fail when the q range alone (every q <= lambda / (2(n-1)) contributes
at least the p = 0 line) already exceeds the cap.

count never visits a line.  With L = floor(lambda / 2), m = n - 1 and
F(x) = binom(n + x, n), the lines under the threshold are the (p, q) with
q(p + m) <= L.  For one q the sum of dim_hpq over p <= P = L // q - m
telescopes by the hockey-stick identity to

    (F(q) - F(q - 1)) F(P) - (F(q - 1) - F(q - 2)) F(P - 1),

and q enters only through L // q, which takes O(sqrt(L)) distinct values.
On each block of q sharing that value the q-factors telescope again, so
count costs a few exact binomials per block.  Its line_cap bounds the
blocks, whose number is known before any work is done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .combinatorics import dim_hpq
from .errors import DEFAULT_LINE_CAP, ResourceCapError, check_n

__all__ = [
    "SpectralLine",
    "eigenvalue",
    "enumerate_modes",
    "count",
    "counting_ratio",
]


@dataclass(frozen=True)
class SpectralLine:
    """One eigenspace: bidegree, exact eigenvalue, exact multiplicity."""

    p: int
    q: int
    eigenvalue: int
    multiplicity: int


def eigenvalue(n: int, p: int, q: int) -> int:
    """Eigenvalue 2q(p + n - 1) on the bidegree (p, q) eigenspace, exact."""
    check_n(n)
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    if q < 1:
        raise ValueError(f"positive spectrum requires q >= 1, got {q}")
    return 2 * q * (p + n - 1)


def _validate_threshold(n: int, lam: float) -> None:
    check_n(n)
    if isinstance(lam, float) and not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")


def _iter_lines(n: int, lam: float, line_cap: int) -> Iterator[SpectralLine]:
    """Yield every spectral line with eigenvalue <= lam, q-major order."""
    # Every q with 2q(n-1) <= lam contributes at least its p = 0 line, so the
    # q range alone is a lower bound on the line count.
    if lam / (2 * (n - 1)) > line_cap:
        raise ResourceCapError(
            f"at least {int(lam / (2 * (n - 1)))} spectral lines up to "
            f"lambda = {lam}; cap is {line_cap}"
        )
    emitted = 0
    q = 1
    while 2 * q * (n - 1) <= lam:
        p = 0
        while 2 * q * (p + n - 1) <= lam:
            emitted += 1
            if emitted > line_cap:
                raise ResourceCapError(
                    f"more than {line_cap} spectral lines up to lambda = {lam}"
                )
            yield SpectralLine(p, q, 2 * q * (p + n - 1), dim_hpq(n, p, q))
            p += 1
        q += 1


def enumerate_modes(
    n: int, lam: float, *, line_cap: int = DEFAULT_LINE_CAP
) -> list[SpectralLine]:
    """All spectral lines with eigenvalue <= lam, sorted by (eigenvalue, q, p).

    Materializes the list; raises ResourceCapError past line_cap lines.
    """
    _validate_threshold(n, lam)
    lines = list(_iter_lines(n, lam, line_cap))
    lines.sort(key=lambda line: (line.eigenvalue, line.q, line.p))
    return lines


def _block_count(L: int, m: int) -> int:
    """Number of distinct values L // q >= m over q >= 1, in O(1).

    For q <= s = isqrt(L) the values L // q are distinct, and those >= m are
    the q <= L // m.  The q > s give every value from 1 to L // (s + 1).  The
    two ranges share one value when L // s == L // (s + 1).
    """
    if L < m:
        return 0
    s = math.isqrt(L)
    q_max = L // m
    shared = 1 if s <= q_max and L // s == L // (s + 1) >= m else 0
    return min(s, q_max) + max(0, L // (s + 1) - m + 1) - shared


def count(n: int, lam: float, *, line_cap: int = DEFAULT_LINE_CAP) -> int:
    """Number of eigenvalues <= lam counted with multiplicity, exact integer.

    Sums the hockey-stick closed form over blocks of q sharing L // q (see
    the module docstring); about 2 sqrt(lam / 2) blocks.  Raises
    ResourceCapError, before any work, when there are more than line_cap
    blocks.
    """
    _validate_threshold(n, lam)
    m = n - 1
    L = int(lam // 2)  # 2q(p + m) <= lam  <=>  q(p + m) <= floor(lam / 2)
    blocks = _block_count(L, m)
    if blocks > line_cap:
        raise ResourceCapError(
            f"{blocks} hyperbola blocks up to lambda = {lam}; cap is {line_cap}"
        )

    # F(x) = binom(n + x, n) and F(x - 1) = F(x) * x / (n + x), exactly.
    total = 0
    q = 1
    f_prev, g_prev = 1, 0  # F(q - 1) and F(q - 2) at the block's first q
    while q * m <= L:
        k = L // q
        q_end = L // k
        p_max = k - m
        f_end = math.comb(n + q_end, n)
        g_end = f_end * q_end // (n + q_end)
        f_p = math.comb(n + p_max, n)
        total += (f_end - f_prev) * f_p - (g_end - g_prev) * (f_p * p_max // (n + p_max))
        f_prev, g_prev = f_end, g_end
        q = q_end + 1
    return total


def counting_ratio(
    n: int,
    lam: float,
    *,
    line_cap: int = DEFAULT_LINE_CAP,
    total: int | None = None,
) -> float:
    """count(n, lam) / lam**n, the quantity whose lam -> inf limit is the Weyl coefficient.

    Exact rational quotient, rounded once, so it neither overflows nor
    loses digits when lam**n leaves the float range.  total is count(n, lam)
    when the caller already has it; otherwise it is counted here.
    """
    _validate_threshold(n, lam)
    if lam <= 0:
        raise ValueError(f"counting_ratio needs lambda > 0, got {lam}")
    if total is None:
        total = count(n, lam, line_cap=line_cap)
    return float(Fraction(total) / Fraction(lam) ** n)
