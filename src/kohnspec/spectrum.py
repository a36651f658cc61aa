"""Exact enumeration of the positive Kohn Laplacian spectrum on S^(2n-1).

The positive spectrum is indexed by bidegrees (p, q) with p >= 0, q >= 1:
eigenvalue 2q(p + n - 1) with multiplicity dim_hpq(n, p, q).  Eigenvalues
are even integers, so the threshold comparison "eigenvalue <= lambda" is an
exact int-vs-float comparison in Python, with no rounding at the boundary.

enumerate_modes costs one sort plus a few C-level steps per spectral line
(distinct (p, q) pair under the threshold), which is the size of its output.
With A[k] = binom(n + k - 1, k), built once by A[k] = A[k-1] (n + k - 1) / k,
dim_hpq(n, p, q) = A[p] A[q] - A[p-1] A[q-1] with A[-1] = 0, exactly; the
lines of one q are p = 0 .. L // q - m (L and m as below), built from ranges.
Its line cap bounds the lines: it is checked per q before that q's lines are
built, after a fast-fail when q = 1 alone, or the q range (every
q <= lambda / (2(n-1)) contributes its p = 0 line), already exceeds the cap.

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
from fractions import Fraction
from itertools import repeat
from operator import sub
from typing import NamedTuple

from .combinatorics import multichoose_table
from .errors import DEFAULT_LINE_CAP, ResourceCapError, check_n

__all__ = [
    "SpectralLine",
    "eigenvalue",
    "enumerate_modes",
    "count",
    "counting_ratio",
]


class SpectralLine(NamedTuple):
    """One eigenspace: bidegree, exact eigenvalue, exact multiplicity.

    A tuple in the column order the CLI prints, so a line is already a row.
    """

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


def enumerate_modes(
    n: int, lam: float, *, line_cap: int = DEFAULT_LINE_CAP
) -> list[SpectralLine]:
    """All spectral lines with eigenvalue <= lam, sorted by (eigenvalue, q, p).

    Materializes the list; raises ResourceCapError past line_cap lines,
    before the lines of the q that would pass it are built.
    """
    _validate_threshold(n, lam)
    m = n - 1
    L = int(lam // 2)  # 2q(p + m) <= lam  <=>  q(p + m) <= floor(lam / 2)
    q_max = L // m
    # q = 1 has L - m + 1 lines and every q <= q_max its p = 0 line, so the
    # binomial table below (p <= L - m, q <= q_max) is never longer than the output.
    at_least = max(L - m + 1, q_max)
    if at_least > line_cap:
        raise ResourceCapError(
            f"at least {at_least} spectral lines up to lambda = {lam}; cap is {line_cap}"
        )
    binoms = multichoose_table(n, at_least + 1)  # binom(n + k - 1, k)
    shifted = [0, *binoms]  # shifted[k] = binoms[k - 1], with binoms[-1] = 0

    keys = []  # (eigenvalue, q, p, multiplicity), the sort order
    for q in range(1, q_max + 1):
        lines = L // q - m + 1
        if len(keys) + lines > line_cap:
            raise ResourceCapError(
                f"more than {line_cap} spectral lines up to lambda = {lam}"
            )
        step = 2 * q
        dims = map(
            sub,
            map(binoms[q].__mul__, binoms[:lines]),
            map(shifted[q].__mul__, shifted[:lines]),
        )
        keys += zip(range(step * m, step * (m + lines), step), repeat(q), range(lines), dims)
    keys.sort()
    return [SpectralLine(p, q, e, d) for e, q, p, d in keys]


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
