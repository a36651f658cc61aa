"""Exact combinatorial kernels: binomials, bidegree dimensions, scaled ceilings.

Everything in this module is integer or rational arithmetic, no floats.  The
binomial convention is the standard one: binom(a, b) = 0 whenever b < 0,
b > a, or a < 0, and binom(0, 0) = 1.  Downstream modules rely on the zeros
to absorb edge cases (p = 0 rows, q = 1 columns) without special-casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import check_n

__all__ = [
    "binom",
    "dim_hpq",
    "multichoose_table",
    "split_terms",
    "sceil",
    "RationalPoly",
    "binom_as_poly",
]


def binom(a: int, b: int) -> int:
    """Binomial coefficient under the standard convention.

    Returns 0 when b < 0, b > a, or a < 0; otherwise math.comb(a, b).
    """
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def dim_hpq(n: int, p: int, q: int) -> int:
    """Dimension of the space of bidegree (p, q) spherical harmonics on S^(2n-1).

    dim = binom(n+p-1, p) * binom(n+q-1, q) - binom(n+p-2, p-1) * binom(n+q-2, q-1)

    The subtracted product is the dimension one step down in both degrees;
    it vanishes automatically for p = 0 or q = 0 thanks to the binomial
    convention.  Exact arbitrary-precision integer.
    """
    check_n(n)
    if p < 0 or q < 0:
        raise ValueError(f"degrees must be nonnegative, got p={p}, q={q}")
    return binom(n + p - 1, p) * binom(n + q - 1, q) - binom(n + p - 2, p - 1) * binom(
        n + q - 2, q - 1
    )


def multichoose_table(n: int, size: int, table: list[int] | None = None) -> list[int]:
    """The list A[k] = binom(n + k - 1, k) for k < size (at least A[0] = 1), exact.

    Built by A[k] = A[k-1] (n + k - 1) // k, one small multiplication and
    division per entry.  Given table, a prefix of that list, it is extended
    in place and returned.  dim_hpq(n, p, q) = A[p] A[q] - A[p-1] A[q-1]
    with A[-1] = 0.
    """
    if table is None:
        table = [1]
    for k in range(len(table), size):
        table.append(table[-1] * (n + k - 1) // k)
    return table


def split_terms(n: int, p: int, q: int) -> tuple[int, int]:
    """The two-term split of dim_hpq used by the heat-trace decomposition.

    For q >= 1,

        dim_hpq(n, p, q) = binom(n+p-1, p) * binom(n+q-2, q)
                         + binom(n+p-2, p) * binom(n+q-2, q-1)

    and this returns the two summands in that order.  Summing the first term
    over p (geometric series in the heat weight) produces the single sum over
    q; summing the second over p produces the single sum over w = p + n - 1.
    """
    check_n(n)
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    if q < 1:
        raise ValueError(f"split requires q >= 1, got {q}")
    first = binom(n + p - 1, p) * binom(n + q - 2, q)
    second = binom(n + p - 2, p) * binom(n + q - 2, q - 1)
    return first, second


def sceil(x, alpha):
    """Smallest integer multiple of alpha that is >= x.

    sceil(x, alpha) = alpha * ceil(x / alpha), alpha > 0.

    Exact when both arguments are int/Fraction (returns Fraction).  With any
    float argument the division rounds once in binary, so results on exact
    multiples of alpha can land one step off in the last ulp; use rational
    inputs when exactness matters.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if isinstance(x, (int, Fraction)) and isinstance(alpha, (int, Fraction)):
        return Fraction(alpha) * math.ceil(Fraction(x) / Fraction(alpha))
    return alpha * math.ceil(x / alpha)


@dataclass(frozen=True)
class RationalPoly:
    """Dense univariate polynomial with exact Fraction coefficients.

    coefficients[j] multiplies x**j.  Normalized: no trailing zero
    coefficients; the zero polynomial is the empty tuple (degree -1).
    """

    coefficients: tuple[Fraction, ...]

    @staticmethod
    def from_coefficients(coeffs) -> "RationalPoly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return RationalPoly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        longer, shorter = self.coefficients, other.coefficients
        if len(shorter) > len(longer):
            longer, shorter = shorter, longer
        summed = list(longer)
        for j, c in enumerate(shorter):
            summed[j] += c
        return RationalPoly.from_coefficients(summed)


def binom_as_poly(offset: int, degree: int) -> RationalPoly:
    """binom(x + offset, degree) expanded as an exact polynomial in x.

    Product form: prod_{i=0}^{degree-1} (x + offset - i) / degree!.  For
    integer x with x + offset >= 0 this agrees with binom(); for negative
    tops the polynomial continues analytically (upper negation) while the
    convention returns 0, which is exactly the distinction the eigenvalue
    series exploits.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    coeffs = [Fraction(1)]
    for i in range(degree):
        shift = offset - i
        grown = [Fraction(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            grown[j] += c * shift
            grown[j + 1] += c
        coeffs = grown
    d_fact = math.factorial(degree)
    return RationalPoly.from_coefficients(Fraction(c, d_fact) for c in coeffs)
