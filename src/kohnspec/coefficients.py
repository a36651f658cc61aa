"""Four independent routes to the leading Weyl coefficient c(n).

c(n) is the limit of count(n, lam) / lam**n.  The four evaluators here are
deliberately not allowed to share intermediate results; their mutual
agreement (reconcile) is the package's main correctness witness.

* series-zeta (reference): c(n) = (1/(2**n n!)) * sum_{q>=1} P(q)/q**n with
  P(q) = binom(q+n-2, n-2) + binom(q-1, n-2).  P is expanded exactly as a
  polynomial, turning the sum into an exact rational combination of even
  zeta values; only the final assembly is floating point.
* series-direct: the same series summed numerically: an exact head of
  integer binomials and a certified Euler-Maclaurin tail.
* integral: c(n) = vol(S^(2n-1)) (n-1) / (n (2 pi)^n n!) *
  2 * int_0^inf (x/sinh x)^n cosh((n-2)x) dx.
* integral-intermediate: c(n) = (1/(n! (n-1)!)) * int_0^inf x^(n-1) *
  (1/(1-e^(-2x))^(n-1) - 1 + 1/(e^(2x)-1)^(n-1)) dx.

The parity of P (P(-q) = (-1)^n P(q)) means only even zeta arguments ever
appear in the reference route; series_zeta enforces that as an internal
invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat, tee
from operator import add, truediv
from typing import Iterator

from .combinatorics import binom_as_poly
from .errors import (
    DEFAULT_NODE_CAP,
    DEFAULT_TERM_CAP,
    ConvergenceError,
    ResourceCapError,
    check_n,
)
from .special_functions import (
    EM_HEAD_TERMS,
    U,
    QuadratureResult,
    euler_maclaurin_tail,
    folded_kernel,
    integrate_decaying,
    log1mexp2,
    zeta_even,
)

__all__ = [
    "DEFAULT_SERIES_TERMS",
    "SERIES_DIRECT_MAX_N",
    "INTERMEDIATE_MAX_N",
    "INTEGRAL_MAX_N",
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

DEFAULT_SERIES_TERMS = EM_HEAD_TERMS  # exact head terms before series-direct's tail
SERIES_DIRECT_MAX_N = 144  # from n = 145 series-direct's bound is a subnormal float
# Beyond it integral-intermediate's node count grows erratically: about
# 27 000 nodes at n = 123 against 8 000 at n = 121, and the cap from n = 131.
INTERMEDIATE_MAX_N = 121
# Beyond it integral's quadrature meets the node cap (n = 106..108, bisecting
# near x ~ 407) and then (x / (1 - e^(-2x)))^n overflows on its own (n >= 109).
INTEGRAL_MAX_N = 105
_EXP_ARG_SAFE = 700.0  # e^y and 2 e^y are finite floats below this y

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
        total = math.fsum(c * zeta_even(k).value for c, k in self.terms)
        return float(self.scale) * total

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


def _eigenvalue_weight_poly(n: int):
    """P(q) = binom(q+n-2, n-2) + binom(q-1, n-2) as an exact polynomial."""
    return binom_as_poly(n - 2, n - 2) + binom_as_poly(-1, n - 2)


def series_zeta(n: int) -> CoefficientEstimate:
    """Reference route: exact zeta combination, floating only at assembly.

    The error bound is 1e-14 * |value|, covering the float rounding of the
    zeta values, the exact-rational-to-float conversions, and the fsum; the
    combination itself is exact.
    """
    check_n(n)
    poly = _eigenvalue_weight_poly(n)
    for j, coeff in enumerate(poly.coefficients):
        if coeff != 0 and (n - j) % 2:
            raise RuntimeError(
                f"parity violation: q**{j} survives in P for n={n}; "
                "only even zeta arguments may appear"
            )
    common = 1
    for coeff in poly.coefficients:
        common = math.lcm(common, coeff.denominator)
    terms = tuple(
        (int(coeff * common), n - j)
        for j in range(poly.degree, -1, -1)
        if (coeff := poly.coefficients[j]) != 0
    )
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
    """factor * x rounded to a float, formed as ldexp(mantissa * x, e) with factor = mantissa * 2^e.

    float(factor) alone leaves the normal range at large n (the integral
    prefactors from n = 92 and 99), while the product does not.  Where float(factor)
    is a normal float this is float(factor) * x to the bit.
    """
    e = factor.numerator.bit_length() - factor.denominator.bit_length()
    return math.ldexp(float(factor / Fraction(2) ** e) * x, e)


def _quadrature_rounding(quad: QuadratureResult, eval_rel: float) -> float:
    """First-order rounding of an integrate_decaying value whose integrand is positive.

    eval_rel bounds the relative error of one integrand evaluation.  Each
    accepted panel sums 32 weighted values (32 U) and scales them by its half
    width (U); the panels, at most nodes_used / 48 of them, are added one by
    one (U each); the final _times_fraction product rounds twice.
    """
    return (eval_rel + (35 + quad.nodes_used // 48) * U) * abs(quad.value)


def _integrand_rel(n: int) -> float:
    """Relative rounding of one evaluation of either integral route's integrand, first order.

    The n-th (or (n-1)-th) power of a quotient of rounded values costs 2n U;
    a further n U covers the rounding of the node itself, which moves the
    integrand by |x f'/f| U, about sqrt(n) U where the integrand carries its
    mass; 16 U covers the remaining exponentials, sums and products.
    """
    return (3 * n + 16) * U


_HEAD_BLOCK = 1 << 16  # hockey-stick prefix sums run one block at a time, so memory stays flat


def _hockey_stick(r: int, stop: int) -> Iterator[int]:
    """binom(k + r, r) for k = 0..stop-1, as the r-fold prefix sums of ones.

    The sums run block by block, each pass carrying its running total over,
    so memory does not grow with stop.
    """
    carries = [0] * r
    for begin in range(0, stop, _HEAD_BLOCK):
        block = [1] * min(_HEAD_BLOCK, stop - begin)
        for j in range(r):
            block[0] += carries[j]
            block = list(accumulate(block))
            carries[j] = block[-1]
        yield from block


def _head_quotients(n: int, terms: int) -> Iterator[float]:
    """P(q)/q**n for q = 1..terms, each one correctly rounded division of exact integers.

    With r = n - 2, P(q) = binom(q + r, r) + binom(q - 1, r), and the second
    binomial is the first one's sequence delayed by r + 1 places.
    """
    r = n - 2
    rising, lagged = tee(_hockey_stick(r, terms + 1))
    next(rising)
    falling = chain(repeat(0, r), lagged)
    weights = map(add, rising, falling)
    return map(truediv, weights, map(pow, range(1, terms + 1), repeat(n)))


def _series_term(n: int, z):
    """P(z)/z**n in product form, for real or complex z with Re z > 0.

    (prod_i (1 + i/z)/i + prod_i (1 - i/z)/i) / z**2 over i = 1..n-2: every
    partial product stays within the float range where the quotient does.
    """
    inv = 1.0 / z
    rising = falling = 1.0
    for i in range(1, n - 1):
        step = i * inv
        rising = rising * (1.0 + step) / i
        falling = falling * (1.0 - step) / i
    return (rising + falling) * inv * inv


def series_direct(
    n: int,
    terms: int = DEFAULT_SERIES_TERMS,
    *,
    term_cap: int = DEFAULT_TERM_CAP,
) -> CoefficientEstimate:
    """The series (1/(2**n n!)) sum_q P(q)/q**n: an exact head and a certified tail.

    The head is q = 1..terms, with P(q) as an exact integer from hockey-stick
    prefix sums and one correctly rounded division by q**n per term.  The
    tail from a = terms + 1 is special_functions.euler_maclaurin_tail on the
    product-form term; its integral takes the substitution x = a e^s, under
    which the q^-2 decay becomes e^-s.  Everything is added by one fsum.
    Binomials never come from the polynomial expansion of series_zeta.

    work is terms; term_cap bounds the head plus every evaluation of the
    tail (ResourceCapError at once if the head alone exceeds it,
    ConvergenceError if the tail would).  The bound adds the tail's bound
    (quadrature, R_m, aliasing and rounding) to the rounding of the head,
    the fsum and the prefactor.  ValueError from n = SERIES_DIRECT_MAX_N + 1,
    where the bound leaves the normal float range.
    """
    check_n(n)
    if n > SERIES_DIRECT_MAX_N:
        raise ValueError(
            f"series-direct supports n <= {SERIES_DIRECT_MAX_N}, got n = {n}: "
            "beyond it the error bound is a subnormal float, and c(n) is from n = 151"
        )
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if terms > term_cap:
        raise ResourceCapError(f"terms = {terms} exceeds the cap {term_cap}")
    a = terms + 1
    # Both products carry n - 2 factors of a few roundings each, and on
    # Re z >= a/2 their sum never cancels to below half their moduli.
    eval_rel = (16 * n + 64) * U
    # x^2 f(x) decreases to 2/(n-2)!, so the tail integral is at least
    # 2/((n-2)! a): tol is a relative U of it.
    tol = U * 2.0 / (math.factorial(n - 2) * a)

    def integral(node_cap: int):
        def integrand(s: float) -> float:
            x = a * math.exp(s)
            return _series_term(n, x) * x

        quad = integrate_decaying(integrand, 1.0, tol=tol, poly_degree=0, node_cap=node_cap)
        # A node s moves x by (s + 2) U relatively, and |d log(x f) / d log x| <= n - 1.
        nodes = (n - 1) * (quad.truncation_point + 2.0) * U
        return quad, _quadrature_rounding(quad, eval_rel + nodes)

    # |f(z)| <= |z|^-2 * 2 prod_i (1 + i/|z|)/i, at most (2/x)^2 * 2 prod_i (1 + 2i/x)/i
    # on the circle of radius x/2 around x: (a/x)^2 times its value at x = a.
    disk_max = 8.0 / (a * a)
    for i in range(1, n - 1):
        disk_max *= 1.0 / i + 2.0 / a
    try:
        parts, tail_bound, _ = euler_maclaurin_tail(
            lambda z: _series_term(n, z),
            a,
            disk_max=disk_max,
            growth=-2,
            integral=integral,
            eval_rel=lambda c: eval_rel,
            eval_cap=term_cap - terms,
        )
    except ConvergenceError as err:
        raise ConvergenceError(
            f"series-direct tail at n={n}, terms={terms}, term_cap={term_cap}: {err}"
        ) from err
    total = math.fsum(chain(_head_quotients(n, terms), parts))
    # The quotients and the fsum round once each, as do the prefactor's
    # mantissa and its product.
    rounding = 4.0 * U * abs(total)
    prefactor = Fraction(1, 2**n * math.factorial(n))
    return CoefficientEstimate(
        n=n,
        method="series-direct",
        value=_times_fraction(prefactor, total),
        error_bound=_times_fraction(prefactor, tail_bound + rounding),
        work=terms,
    )


def integral_coefficient(
    n: int, *, tol: float = 1e-10, node_cap: int = DEFAULT_NODE_CAP
) -> CoefficientEstimate:
    """Full-line integral route, folded to [0, inf) in a cancellation-free form.

    (x/sinh x)^n cosh((n-2)x) = 2^(n-1) (x/E)^n (e^(-2x) + e^(-2(n-1)x)) with
    E = 1 - e^(-2x) built from expm1; value 1 at x = 0, decay e^(-2x).  The
    pi powers of the volume and (2 pi)^n prefactors cancel exactly, leaving
    the rational prefactor 2(n-1) / ((n-1)! n 2^n n!).  ValueError from
    n = INTEGRAL_MAX_N + 1.
    """
    check_n(n)
    if n > INTEGRAL_MAX_N:
        raise ValueError(
            f"integral supports n <= {INTEGRAL_MAX_N}, got n = {n}: beyond it the quadrature "
            "meets the node cap and then its kernel leaves the float range"
        )
    scale = 2.0 ** (n - 1)

    def integrand(x: float) -> float:
        return scale * folded_kernel(x, n) * (math.exp(-2.0 * x) + math.exp(-2.0 * (n - 1) * x))

    quad = integrate_decaying(integrand, 2.0, tol=tol, poly_degree=n, node_cap=node_cap)
    prefactor = 2 * Fraction(2 * (n - 1), math.factorial(n - 1) * n * 2**n * math.factorial(n))
    bound = quad.error_estimate + _quadrature_rounding(quad, _integrand_rel(n))
    return CoefficientEstimate(
        n=n,
        method="integral",
        value=_times_fraction(prefactor, quad.value),
        error_bound=_times_fraction(prefactor, bound),
        work=quad.nodes_used,
    )


def _intermediate_integrand(n: int, x: float) -> float:
    """x^(n-1) (1/(1-e^(-2x))^(n-1) - 1 + 1/(e^(2x)-1)^(n-1)), exact at all scales.

    With lE = log(1 - e^(-2x)) the bracket's three terms regroup as
    expm1(g) + e^h with g = -(n-1) lE and h = -(n-1)(2x + lE); expm1/log1p
    keep both the x -> 0 blowup ~ (2x)^(1-n) and the x -> inf decay
    ~ (n-1) e^(-2x) exact.  Where e^g (near 0, from n = 101 at the
    quadrature's smallest nodes) or x^(n-1) (far out, from n = 122) leaves
    the float range while the product does not, x^(n-1) goes into the
    exponents: x^(n-1) expm1(g) is exp((n-1) log x + g) - x^(n-1) for
    g > 1, which cancels by at most a factor e/(e-1); g <= 1 happens there
    only at x > 100 (n <= INTERMEDIATE_MAX_N), where expm1(g) is
    (n-1) e^(-2x) to double precision.
    """
    m = n - 1
    log_e = log1mexp2(x)
    g = -m * log_e
    h = -m * (2.0 * x + log_e)
    log_x = math.log(x)
    if g < _EXP_ARG_SAFE and m * log_x < _EXP_ARG_SAFE:
        return x**m * (math.expm1(g) + math.exp(h))
    if g > 1.0:
        first = math.exp(m * log_x + g) - x**m
    else:
        first = math.exp(m * log_x + math.log(m) - 2.0 * x)
    return first + math.exp(m * log_x + h)


def integral_intermediate(
    n: int, *, tol: float = 1e-10, node_cap: int = DEFAULT_NODE_CAP
) -> CoefficientEstimate:
    """Half-line integral of x^(n-1) times the three-term bracket.

    The integrand tends to 2^(2-n) at 0 and decays like x^(n-1) e^(-2x);
    prefactor 1/(n! (n-1)!).  ValueError from n = INTERMEDIATE_MAX_N + 1.
    """
    check_n(n)
    if n > INTERMEDIATE_MAX_N:
        raise ValueError(
            f"integral-intermediate supports n <= {INTERMEDIATE_MAX_N}, got n = {n}: "
            "beyond it the quadrature's node count grows erratically toward the node cap"
        )

    quad = integrate_decaying(
        lambda x: _intermediate_integrand(n, x), 2.0, tol=tol, poly_degree=n - 1, node_cap=node_cap
    )
    prefactor = Fraction(1, math.factorial(n) * math.factorial(n - 1))
    bound = quad.error_estimate + _quadrature_rounding(quad, _integrand_rel(n))
    return CoefficientEstimate(
        n=n,
        method="integral-intermediate",
        value=_times_fraction(prefactor, quad.value),
        error_bound=_times_fraction(prefactor, bound),
        work=quad.nodes_used,
    )


def estimate(
    method: str,
    n: int,
    *,
    terms: int = DEFAULT_SERIES_TERMS,
    tol: float = 1e-10,
    term_cap: int = DEFAULT_TERM_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
) -> CoefficientEstimate:
    """c(n) by the route named method (one of METHODS), passing it the options it takes.

    The evaluator is looked up by its module-global name at call time, so a
    replaced module attribute also sees calls made through here.
    """
    if method == "series-zeta":
        return series_zeta(n)
    if method == "series-direct":
        return series_direct(n, terms, term_cap=term_cap)
    if method == "integral":
        return integral_coefficient(n, tol=tol, node_cap=node_cap)
    if method == "integral-intermediate":
        return integral_intermediate(n, tol=tol, node_cap=node_cap)
    raise ValueError(f"method must be one of {', '.join(METHODS)}, got {method!r}")


@dataclass(frozen=True)
class ReconcileReport:
    """Pairwise agreement of all four routes against combined error bounds."""

    n: int
    estimates: tuple[CoefficientEstimate, ...]
    differences: tuple[tuple[str, str, float, float], ...]
    ok: bool


def reconcile(
    n: int,
    *,
    terms: int = DEFAULT_SERIES_TERMS,
    tol: float = 1e-10,
    term_cap: int = DEFAULT_TERM_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ReconcileReport:
    """Run every route in METHODS order; test |v_a - v_b| <= bound_a + bound_b pairwise."""
    estimates = tuple(
        estimate(method, n, terms=terms, tol=tol, term_cap=term_cap, node_cap=node_cap)
        for method in METHODS
    )
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
