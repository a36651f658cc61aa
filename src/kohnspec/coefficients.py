"""Four independent routes to the leading Weyl coefficient c(n).

c(n) is the limit of count(n, lam) / lam**n.  The four evaluators here are
deliberately not allowed to share intermediate results; their mutual
agreement (reconcile) is the package's main correctness witness.

* series-zeta (reference): c(n) = (1/(2**n n!)) * sum_{q>=1} P(q)/q**n with
  P(q) = binom(q+n-2, n-2) + binom(q-1, n-2).  With r = n - 2,
  r! P(q) = R(q) + (-1)**r R(-q), where R(q) = (q+1)(q+2)...(q+r) has integer
  coefficients from one recurrence; the sum becomes an exact rational
  combination of even zeta values, and only the final assembly is floating
  point.
* series-direct: the same series summed numerically: an exact head of
  integer binomials and a certified Abel-Plana tail.
* integral: c(n) = vol(S^(2n-1)) (n-1) / (n (2 pi)^n n!) *
  2 * int_0^inf (x/sinh x)^n cosh((n-2)x) dx.
* integral-intermediate: c(n) = (1/(n! (n-1)!)) * int_0^inf x^(n-1) *
  (1/(1-e^(-2x))^(n-1) - 1 + 1/(e^(2x)-1)^(n-1)) dx.

In R(q) + (-1)**r R(-q) the coefficient of q**j doubles where r - j is even
and cancels where it is odd, so only even zeta arguments n - j appear in the
reference route: the odd ones cancel by construction.  The two integral
routes and series-direct's tail share special_functions' one half-line
rule, integrate_decaying, but no integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import DEFAULT_NODE_CAP, ConvergenceError, check_n
from .special_functions import (
    HEAD_TERMS,
    U,
    abel_plana_tail,
    folded_excess,
    folded_power,
    integrate_decaying,
    scaled_product,
    scaled_rational,
    zeta_even,
)

__all__ = [
    "METHODS",
    "ZetaCombination",
    "CoefficientEstimate",
    "ReconcileReport",
    "series_zeta",
    "series_direct",
    "integral_coefficient",
    "integral_intermediate",
    "estimate",
    "reconcile",
]

METHODS: tuple[str, ...] = (
    "series-zeta",
    "series-direct",
    "integral",
    "integral-intermediate",
)


@dataclass(frozen=True)
class ZetaCombination:
    """Exact closed form scale * sum_i coeffs_i * zeta(args_i), integer coeffs.

    terms are (coefficient, zeta argument) pairs with ascending even
    arguments; scale carries the 1/(2**n n!) prefactor and the cleared
    common denominator of the polynomial coefficients.
    """

    scale: Fraction
    terms: tuple[tuple[int, int], ...]

    def value(self) -> float:
        # each term's rational part, scale included, rounds once
        num, den = self.scale.numerator, self.scale.denominator
        return math.fsum(zeta_even(k).times(c * num, den) for c, k in self.terms)

    def __str__(self) -> str:
        body = " + ".join(f"{c}*zeta({k})" for c, k in self.terms)
        return f"({self.scale}) * ({body})"


@dataclass(frozen=True)
class CoefficientEstimate:
    """One evaluator's output: value, certified error bound, work measure."""

    n: int
    method: str
    value: float
    error_bound: float
    work: int
    exact_form: ZetaCombination | None = None


def series_zeta(n: int) -> CoefficientEstimate:
    """Reference route: exact zeta combination, floating only at assembly.

    P(q) = sum_j (2 e_j / r!) q**j over the j with r - j even, where e_j are
    the coefficients of R(q) = (q+1)...(q+r), r = n - 2; each q**j gives
    zeta(n - j).  The coefficients are cleared to integers by the lcm of
    their denominators, which goes into scale with 1/(2**n n!).

    The error bound is 1e-14 * |value|, covering the float rounding of the
    zeta values, the exact-rational-to-float conversions, and the fsum; the
    combination itself is exact.  Every term is positive, so nothing cancels.
    """
    check_n(n, "series-zeta")
    r = n - 2
    rising = [1]  # coefficients of (q+1)...(q+i), lowest degree first
    for i in range(1, r + 1):
        rising = [i * a + b for a, b in zip([*rising, 0], [0, *rising])]
    r_fact = math.factorial(r)
    kept = [(2 * rising[j], n - j) for j in range(r, -1, -2)]
    common = math.lcm(*(r_fact // math.gcd(c, r_fact) for c, _ in kept))
    terms = tuple((c * common // r_fact, k) for c, k in kept)
    scale = Fraction(1, 2**n * math.factorial(n) * common)
    form = ZetaCombination(scale, terms)
    value = form.value()
    return CoefficientEstimate(
        n=n,
        method="series-zeta",
        value=value,
        error_bound=1e-14 * abs(value),
        work=len(terms),
        exact_form=form,
    )


def _times_fraction(factor: Fraction, x: float) -> float:
    """factor * x through the extended-range kernel: float(factor) * x where that is normal."""
    return scaled_product((x,), start=scaled_rational(factor.numerator, factor.denominator))


def _integrand_rel(n: int) -> float:
    """Relative rounding of one evaluation of either integral route's integrand, first order.

    The n-th (or (n-1)-th) power of a quotient of rounded values costs 2n U;
    a further n U covers the rounding of the node itself, which moves the
    integrand by |x f'/f| U, about sqrt(n) U where the integrand carries its
    mass; 16 U covers the remaining exponentials, sums and products.
    """
    return (3 * n + 16) * U


def _series_term(n: int, z):
    """P(z)/z**n in product form, for real or complex z with Re z > 0.

    (prod_i (1/i + 1/z) + prod_i (1/i - 1/z)) / z**2 over i = 1..n-2: every
    partial product stays within the float range where the quotient does.
    """
    inv = 1.0 / z
    rising = falling = 1.0
    for i in range(1, n - 1):
        unit = 1.0 / i
        rising = rising * (unit + inv)
        falling = falling * (unit - inv)
    return (rising + falling) * inv * inv


def series_direct(n: int, *, node_cap: int = DEFAULT_NODE_CAP) -> CoefficientEstimate:
    """The series (1/(2**n n!)) sum_q P(q)/q**n: an exact head and a certified tail.

    The head is q = 1..HEAD_TERMS (64), each P(q) the sum of two exact
    math.comb integers divided by q**n in one correctly rounded division; the
    tail from a = HEAD_TERMS + 1 is abel_plana_tail on the product-form term,
    in at most node_cap evaluations, which work counts with the head.  One
    fsum adds all.  Binomials never come from series_zeta's expansion.
    """
    check_n(n, "series-direct")
    a = HEAD_TERMS + 1
    try:
        # Both products carry n - 2 factors of a few roundings each, and on
        # Re z >= a - 1/2 their sum never cancels to below half their moduli.
        parts, tail_bound, evaluations = abel_plana_tail(
            partial(_series_term, n), a, eval_rel=lambda r: (16 * n + 64) * U, node_cap=node_cap
        )
    except ConvergenceError as err:
        raise ConvergenceError(f"series-direct at n={n}: {err}") from err
    r = n - 2
    head = [(math.comb(q + r, r) + math.comb(q - 1, r)) / q**n for q in range(1, a)]
    total = math.fsum([*head, *parts])
    # The quotients and the fsum round once each, as do the prefactor's
    # mantissa and its product.
    rounding = 4.0 * U * abs(total)
    prefactor = Fraction(1, 2**n * math.factorial(n))
    return CoefficientEstimate(
        n=n,
        method="series-direct",
        value=_times_fraction(prefactor, total),
        error_bound=_times_fraction(prefactor, tail_bound + rounding),
        work=HEAD_TERMS + evaluations,
    )


def _integral_route(
    method: str, n: int, integrand, prefactor: Fraction, node_cap: int
) -> CoefficientEstimate:
    """prefactor times the integral over [0, inf) of a positive integrand, by integrate_decaying.

    The rule stops at the rounding _integrand_rel(n) states, with no absolute
    floor: its estimate follows the value at every n and holds as far as that
    statement does.  A ConvergenceError names the route and n.
    """
    rel = _integrand_rel(n)

    def stated(x: float) -> tuple[float, float, float]:
        value = integrand(x)
        return value, value, rel

    try:
        quad = integrate_decaying(stated, tol=0.0, node_cap=node_cap)
    except ConvergenceError as err:
        raise ConvergenceError(f"{method} at n={n}: {err}") from err
    return CoefficientEstimate(
        n=n,
        method=method,
        value=_times_fraction(prefactor, quad.value),
        error_bound=_times_fraction(prefactor, quad.error_estimate),
        work=quad.nodes_used,
    )


def integral_coefficient(n: int, *, node_cap: int = DEFAULT_NODE_CAP) -> CoefficientEstimate:
    """Full-line integral route, folded to [0, inf) in a cancellation-free form.

    (x/sinh x)^n cosh((n-2)x) = 2^(n-1) (x/E)^n e^(-2x) (1 + e^(-2(n-2)x))
    with E = 1 - e^(-2x); value 1 at x = 0, decay e^(-2x).  The pi powers of
    the volume and (2 pi)^n prefactors cancel exactly, leaving the rational
    prefactor 2(n-1) / ((n-1)! n 2^n n!).
    """
    check_n(n, "integral")
    scale = 2.0 ** (n - 1)

    def integrand(x: float) -> float:
        return scale * folded_power(x, n, 2.0) * (1.0 + math.exp(-2.0 * (n - 2) * x))

    prefactor = 2 * Fraction(2 * (n - 1), math.factorial(n - 1) * n * 2**n * math.factorial(n))
    return _integral_route("integral", n, integrand, prefactor, node_cap)


def _intermediate_integrand(n: int, x: float) -> float:
    """x^(n-1) (1/(1-e^(-2x))^(n-1) - 1 + 1/(e^(2x)-1)^(n-1)), exact at all scales.

    With m = n - 1 and E = 1 - e^(-2x), the first two terms are
    x^m (E^(-m) - 1) and the third is (x/E)^m e^(-2mx): the x -> 0 blowup
    ~ (2x)^(1-n) and the x -> inf decay ~ (n-1) x^m e^(-2x) both stay exact.
    """
    return folded_excess(x, n - 1, 0.0) + folded_power(x, n - 1, 2.0 * (n - 1))


def integral_intermediate(n: int, *, node_cap: int = DEFAULT_NODE_CAP) -> CoefficientEstimate:
    """Half-line integral of x^(n-1) times the three-term bracket.

    The integrand tends to 2^(2-n) at 0 and decays like x^(n-1) e^(-2x);
    prefactor 1/(n! (n-1)!).
    """
    check_n(n, "integral-intermediate")
    prefactor = Fraction(1, math.factorial(n) * math.factorial(n - 1))
    integrand = partial(_intermediate_integrand, n)
    return _integral_route("integral-intermediate", n, integrand, prefactor, node_cap)


def estimate(method: str, n: int, *, node_cap: int = DEFAULT_NODE_CAP) -> CoefficientEstimate:
    """c(n) by the route named method (one of METHODS).

    Each route fixes its own accuracy; only node_cap, which bounds every
    route's quadrature (series-zeta has none), is settable.
    The evaluator is looked up by its module-global name at call time, so a
    replaced module attribute also sees calls made through here.
    """
    if method == "series-zeta":
        return series_zeta(n)
    if method == "series-direct":
        return series_direct(n, node_cap=node_cap)
    if method == "integral":
        return integral_coefficient(n, node_cap=node_cap)
    if method == "integral-intermediate":
        return integral_intermediate(n, node_cap=node_cap)
    raise ValueError(f"method must be one of {', '.join(METHODS)}, got {method!r}")


@dataclass(frozen=True)
class ReconcileReport:
    """Pairwise agreement of all four routes against combined error bounds."""

    n: int
    estimates: tuple[CoefficientEstimate, ...]
    differences: tuple[tuple[str, str, float, float], ...]
    ok: bool


def reconcile(n: int, *, node_cap: int = DEFAULT_NODE_CAP) -> ReconcileReport:
    """Run every route in METHODS order; test |v_a - v_b| <= bound_a + bound_b pairwise."""
    estimates = tuple(estimate(method, n, node_cap=node_cap) for method in METHODS)
    rows = []
    ok = True
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            a, b = estimates[i], estimates[j]
            diff = abs(a.value - b.value)
            combined = a.error_bound + b.error_bound
            rows.append((a.method, b.method, diff, combined))
            ok = ok and diff <= combined
    return ReconcileReport(n=n, estimates=estimates, differences=tuple(rows), ok=ok)
