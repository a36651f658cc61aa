"""Analytic continuation of the form-level Weyl coefficient in the form degree q.

For n >= 3 and m = n - 1 the form-degree coefficient

    stanton_coefficient(q) = binom(m, q) * vol(S^(2n-1)) / ((2 pi)^n n!)
                             * int_R (tau/sinh tau)^m e^(-(m-2q) tau) dtau

is holomorphic on the strip 0 < re q < m.  Subtracting the elementary
integral 2^(m-1) int_0^inf tau^m e^(-2 q tau) dtau = 2^(m-1) m! / (2q)^(m+1)
from the integrand continues it to -1 < re q < m:

    continued_coefficient(q) = 2 binom(m, q) * vol / ((2 pi)^n n!)
        * int_0^inf tau^m (cosh((m-2q) tau)/(sinh tau)^m
                           - 2^(m-1) e^(-2 q tau)) dtau

and the difference of the two is the explicit meromorphic term

    pole_term(q) = binom(m, q) * vol(S^(2n-1)) / (2 n (2 pi)^n) * q^(-n),

whose q -> 0 pole carries the transition to the continued value at the
origin: continued_coefficient(0) equals the Weyl coefficient c(n).

The integrands are formed from special_functions.folded_power/folded_excess,
exact at tau -> 0 and at large tau and overflowing only where their values
do.  As vol(S^(2n-1)) = 2 pi^n / m!, the prefactor is binom(m, q) / m!
times 2 / (2^n n!): the binomial over m! is a finite product by Euler's
reflection formula, and the rest is rational.  n = 2 is rejected: m = 1
leaves no strip between the first poles and the continuation degenerates;
so is n beyond errors.MAX_N["continuation"].

Near the q = 0 pole the direct-integral evaluator loses its decay margin, so
stanton_coefficient refuses |q| < NEAR_POLE_RADIUS; continued_coefficient is
the designated evaluator there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_NODE_CAP, ConvergenceError, check_n
from .special_functions import folded_excess, folded_power, integrate_decaying

__all__ = [
    "NEAR_POLE_RADIUS",
    "QUADRATURE_TOL",
    "StripPoint",
    "stanton_coefficient",
    "continued_coefficient",
    "pole_term",
    "continuation_residual",
]

NEAR_POLE_RADIUS = 0.05
QUADRATURE_TOL = 1e-10  # absolute tolerance of every continuation integral


@dataclass(frozen=True)
class StripPoint:
    """A form degree q (complex) for the sphere S^(2n-1), 3 <= n <= MAX_N["continuation"]."""

    n: int
    q: complex

    def __post_init__(self) -> None:
        check_n(self.n, "continuation")
        if self.n < 3:
            raise ValueError(f"continuation requires n >= 3, got n = {self.n}")
        object.__setattr__(self, "q", complex(self.q))
        if not cmath.isfinite(self.q):
            raise ValueError(f"q must be finite, got q = {self.q}")

    @property
    def m(self) -> int:
        return self.n - 1

    @property
    def in_stanton_strip(self) -> bool:
        """0 < re q < m and |q| >= NEAR_POLE_RADIUS: where stanton_coefficient is defined."""
        return 0.0 < self.q.real < self.m and abs(self.q) >= NEAR_POLE_RADIUS

    @property
    def in_continued_strip(self) -> bool:
        """-1 < re q < m: where continued_coefficient is defined."""
        return -1.0 < self.q.real < self.m


def _reciprocal_gammas(m: int, q: complex, *divisors: float | complex) -> complex:
    """1 / (Gamma(q+1) Gamma(m-q+1) prod(divisors)); without divisors binom(m, q) / m!.

    With k the integer in [0, m] nearest re q and u = q - k, Euler's
    reflection Gamma(1+u) Gamma(1-u) = pi u / sin(pi u) leaves the finite
    product sinc(u) / (prod_{i<k} (q - i) prod_{k<i<=m} (i - q)): no log-gamma,
    exactly the integer binomial's factors at integer q, and no factor vanishes
    on the strip -1 < re q < m.  sin(pi u) is e^L times a bounded factor,
    L = pi |im q| carried past float precision, and e^L enters in powers of
    e^128 kept apart while each factor divides, so OverflowError only where
    the value passes the float range.
    """
    j = round(q.real)
    k = min(max(j, 0), m)
    u = complex(q.real - k, q.imag)
    x, y = q.real - j, abs(q.imag)  # sin(pi u) = (-1)^(j-k) sin(pi (x + i im q))
    big_l = math.pi * y
    # the rounding of math.pi * y, exactly, plus (pi - math.pi) y
    small_l = float(Fraction(math.pi) * Fraction(y) - Fraction(big_l))
    small_l += 1.2246467991473532e-16 * y
    t = -math.expm1(-2.0 * big_l)  # 1 - e^(-2L)
    bounded = complex(
        math.sin(math.pi * x) * (2.0 - t), math.copysign(math.cos(math.pi * x) * t, q.imag)
    )
    value = (-0.5 if (j - k) % 2 else 0.5) * bounded / (math.pi * u) if u else complex(1.0)
    if value == 0:  # q is a pole of Gamma(q+1) or Gamma(m-q+1)
        return value
    powers, rest = divmod(big_l, 128.0)  # both exact
    value *= math.exp(rest) * math.exp(small_l)
    powers = int(powers)
    step = math.exp(128.0)
    # value * step^powers stays the running quotient, |value| in [1, step);
    # the leading 1.0 brings the start into that range
    for d in (1.0, *(q - i for i in range(k)), *(i - q for i in range(k + 1, m + 1)), *divisors):
        value /= d
        while step <= abs(value) < math.inf:
            value, powers = value / step, powers + 1
        while abs(value) < 1.0:
            value, powers = value * step, powers - 1
    while powers > 0 and cmath.isfinite(value):
        value, powers = value * step, powers - 1
    while powers < 0 and value:
        value, powers = value / step, powers + 1
    if not cmath.isfinite(value):
        raise OverflowError(f"1/(Gamma(q+1) Gamma({m}-q+1)) at q = {q} leaves the float range")
    return value


def _integrate(evaluator: str, point: StripPoint, integrand, decay: float, node_cap: int):
    """integrate_decaying over [0, inf) to QUADRATURE_TOL; a failure names the evaluator and point.

    A float-range failure is a ValueError: the kernels overflow only where
    their values do, so near an edge of the strip, at large n, the integrand
    itself passes the float range.  A ConvergenceError stays one.
    """
    where = f"n = {point.n}, q = {point.q}"
    try:
        return integrate_decaying(
            integrand, decay, tol=QUADRATURE_TOL, poly_degree=point.m, node_cap=node_cap
        )
    except OverflowError as err:
        raise ValueError(f"the {evaluator} integrand at {where} leaves the float range") from err
    except ConvergenceError as err:
        raise ConvergenceError(f"{evaluator} at {where}: {err}") from err


def _folded_integrand(first, m: int, q: complex, scale: float):
    """tau -> scale (first(tau, m, 2 re q) e^(-2i im q tau) + (tau/E)^m e^(-2 (m-q) tau)).

    first is folded_power or folded_excess.  A complex q enters as a real rate
    times a unit phase: with a and b the two real terms and theta = 2 im q tau,
    the sum is (a + b) cos theta + i (b - a) sin theta.
    """
    omega = 2.0 * q.imag
    rate = 2.0 * q.real
    other_rate = 2.0 * (m - q.real)

    def integrand(tau: float) -> complex:
        a = first(tau, m, rate)
        b = folded_power(tau, m, other_rate)
        theta = omega * tau
        return complex(scale * (a + b) * math.cos(theta), scale * (b - a) * math.sin(theta))

    return integrand


def _coefficient(evaluator: str, point: StripPoint, first, shift: int, node_cap: int) -> complex:
    """The body of stanton_coefficient (shift 0) and continued_coefficient (shift 1)."""
    n, q, m = point.n, point.q, point.m
    integrand = _folded_integrand(first, m, q, 2.0 ** (m - shift))
    decay = 2.0 * min(q.real + shift, m - q.real)
    quad = _integrate(evaluator, point, integrand, decay, node_cap)
    return _reciprocal_gammas(m, q, 2.0 ** (n - 1 - shift) * math.factorial(n)) * quad.value


def stanton_coefficient(point: StripPoint, *, node_cap: int = DEFAULT_NODE_CAP) -> complex:
    """Form-degree coefficient on the strip 0 < re q < n - 1.

    Folded to the half line: the integrand becomes
    2^m (tau/E)^m (e^(-2 q tau) + e^(-2 (m-q) tau)), E = 1 - e^(-2 tau),
    with limit 2 at tau = 0 and decay rate 2 min(re q, m - re q).
    """
    if not point.in_stanton_strip:
        raise ValueError(
            f"stanton_coefficient needs 0 < re q < {point.m} and |q| >= {NEAR_POLE_RADIUS}, "
            f"got q = {point.q}; near the pole evaluate continued_coefficient instead"
        )
    return _coefficient("stanton_coefficient", point, folded_power, 0, node_cap)


def continued_coefficient(point: StripPoint, *, node_cap: int = DEFAULT_NODE_CAP) -> complex:
    """Continued coefficient on the strip -1 < re q < n - 1; analytic at q = 0.

    Stable integrand: 2^(m-1) [tau^m (E^(-m) - 1) e^(-2 q tau)
    + (tau/E)^m e^(-2 (m-q) tau)]; limit 1 at tau = 0, decay rate
    2 min(re q + 1, m - re q).  At q = 0 this is exactly the
    integral-intermediate form of the Weyl coefficient.
    """
    if not point.in_continued_strip:
        raise ValueError(f"continued_coefficient needs -1 < re q < {point.m}, got q = {point.q}")
    return _coefficient("continued_coefficient", point, folded_excess, 1, node_cap)


def pole_term(point: StripPoint) -> complex:
    """The explicit meromorphic difference between the two evaluators.

    pole_term(q) = binom(m, q) * vol(S^(2n-1)) / (2 n (2 pi)^n) * q^(-n);
    the pi powers cancel, leaving binom(m, q) / m! times q^(-n) / (n 2^n).
    Undefined at q = 0; a ValueError names q where the value leaves the float range.
    """
    n, q = point.n, point.q
    if q == 0:
        raise ValueError("pole_term has its pole at q = 0")
    try:
        return _reciprocal_gammas(point.m, q, n * 2.0**n, *(q,) * n)
    except OverflowError as err:
        raise ValueError(
            f"the pole term at n = {n}, q = {q} leaves the float range"
        ) from err


def continuation_residual(point: StripPoint, *, node_cap: int = DEFAULT_NODE_CAP) -> float:
    """|stanton_coefficient - continued_coefficient - pole_term|, ideally ~0.

    Defined where stanton_coefficient is: 0 < re q < n - 1 away from the
    near-pole radius.
    """
    direct = stanton_coefficient(point, node_cap=node_cap)
    continued = continued_coefficient(point, node_cap=node_cap)
    return abs(direct - continued - pole_term(point))

