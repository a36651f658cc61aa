"""Four independent routes to the leading Weyl coefficient c(n).

c(n) is the limit of count(n, lam) / lam**n.  The four evaluators here are
deliberately not allowed to share intermediate results; their mutual
agreement (reconcile) is the package's main correctness witness.

* series-zeta (reference): c(n) = (1/(2**n n!)) * sum_{q>=1} P(q)/q**n with
  P(q) = binom(q+n-2, n-2) + binom(q-1, n-2).  P is expanded exactly as a
  polynomial, turning the sum into an exact rational combination of even
  zeta values; only the final assembly is floating point.
* series-direct: the same series summed numerically to a finite Q with a
  rigorous tail majorant.
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

from .combinatorics import binom_as_poly
from .errors import DEFAULT_NODE_CAP, DEFAULT_TERM_CAP, ResourceCapError, check_n
from .special_functions import folded_kernel, integrate_decaying, log1mexp2, zeta_even

__all__ = [
    "DEFAULT_SERIES_TERMS",
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

DEFAULT_SERIES_TERMS = 1_000_000

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


_CHUNK = 1 << 18


def _direct_chunk(n: int, start: int, stop: int) -> tuple[float, int]:
    """sum of P(q)/q**n over q = start..stop-1, and how many leading qs it kept.

    It drops the qs whose q**n overflows, where the term is 0 or nan; the
    binomial products stay finite wherever q**n does.  numpy is imported
    here, the package's only use of it, so that no other route loads it.
    """
    import numpy as np

    qs = np.arange(start, stop, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        rising = np.ones_like(qs)
        for i in range(1, n - 1):
            rising *= (qs + i) / i
        falling = np.ones_like(qs)
        for i in range(n - 2):
            falling *= (qs - 1 - i) / (n - 2 - i)
        power = qs**n
        summands = (rising + falling) / power
    kept = int(np.searchsorted(power, math.inf))  # q**n grows with q: the overflows come last
    summands[kept:] = 0.0
    return float(np.sum(summands)), kept


def series_direct(
    n: int,
    terms: int = DEFAULT_SERIES_TERMS,
    *,
    term_cap: int = DEFAULT_TERM_CAP,
) -> CoefficientEstimate:
    """Numerical partial sum of sum_q P(q)/q**n up to q = terms.

    Tail majorant: P(q) <= C(Q) * q**(n-2) for q > Q with
    C(Q) = ((1 + (n-2)/(Q+1))**(n-2) + 1) / (n-2)!, and
    sum_{q>Q} q**(-2) < 1/Q, so the discarded tail is below
    (1/(2**n n!)) * C(Q) / Q.  The terms past the float range of q**n are
    dropped; Q is then the last q before them, so the majorant covers them
    too.  The reported bound adds a 64-ulp relative
    cushion for the floating summation (numpy pairwise sums keep the actual
    rounding far below it).  Binomials are evaluated in product form,
    independent of the polynomial expansion used by series_zeta.
    """
    check_n(n)
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if terms > term_cap:
        raise ResourceCapError(f"terms = {terms} exceeds the cap {term_cap}")
    chunk_sums = []
    last = 0  # the kept terms are q = 1..last, since the dropped ones come last
    for start in range(1, terms + 1, _CHUNK):
        chunk_sum, kept = _direct_chunk(n, start, min(start + _CHUNK, terms + 1))
        chunk_sums.append(chunk_sum)
        last += kept
    prefactor = float(Fraction(1, 2**n * math.factorial(n)))
    value = prefactor * math.fsum(chunk_sums)
    envelope = ((1.0 + (n - 2) / (last + 1)) ** (n - 2) + 1.0) / math.factorial(n - 2)
    tail = prefactor * envelope / last
    bound = tail + 64.0 * math.ulp(1.0) * abs(value)
    return CoefficientEstimate(
        n=n, method="series-direct", value=value, error_bound=bound, work=terms
    )


def integral_coefficient(
    n: int, *, tol: float = 1e-10, node_cap: int = DEFAULT_NODE_CAP
) -> CoefficientEstimate:
    """Full-line integral route, folded to [0, inf) in a cancellation-free form.

    (x/sinh x)^n cosh((n-2)x) = 2^(n-1) (x/E)^n (e^(-2x) + e^(-2(n-1)x)) with
    E = 1 - e^(-2x) built from expm1; value 1 at x = 0, decay e^(-2x).  The
    pi powers of the volume and (2 pi)^n prefactors cancel exactly, leaving
    the rational prefactor 2(n-1) / ((n-1)! n 2^n n!).
    """
    check_n(n)
    scale = 2.0 ** (n - 1)

    def integrand(x: float) -> float:
        return scale * folded_kernel(x, n) * (math.exp(-2.0 * x) + math.exp(-2.0 * (n - 1) * x))

    quad = integrate_decaying(integrand, 2.0, tol=tol, poly_degree=n, node_cap=node_cap)
    prefactor = 2 * Fraction(2 * (n - 1), math.factorial(n - 1) * n * 2**n * math.factorial(n))
    return CoefficientEstimate(
        n=n,
        method="integral",
        value=_times_fraction(prefactor, quad.value),
        error_bound=_times_fraction(prefactor, quad.error_estimate),
        work=quad.nodes_used,
    )


def _intermediate_bracket(n: int, x: float) -> float:
    """1/(1-e^(-2x))^(n-1) - 1 + 1/(e^(2x)-1)^(n-1), exact at all scales.

    With lE = log(1 - e^(-2x)) the three terms regroup as
    expm1(-(n-1) lE) + exp(-(n-1)(2x + lE)); expm1/log1p keep both the
    x -> 0 blowup ~ (2x)^(1-n) and the x -> inf decay ~ (n-1) e^(-2x) exact.
    """
    m = n - 1
    log_e = log1mexp2(x)
    return math.expm1(-m * log_e) + math.exp(-m * (2.0 * x + log_e))


def integral_intermediate(
    n: int, *, tol: float = 1e-10, node_cap: int = DEFAULT_NODE_CAP
) -> CoefficientEstimate:
    """Half-line integral of x^(n-1) times the three-term bracket.

    The integrand tends to 2^(2-n) at 0 and decays like x^(n-1) e^(-2x);
    prefactor 1/(n! (n-1)!).
    """
    check_n(n)

    def integrand(x: float) -> float:
        return x ** (n - 1) * _intermediate_bracket(n, x)

    quad = integrate_decaying(
        integrand, 2.0, tol=tol, poly_degree=n - 1, node_cap=node_cap
    )
    prefactor = Fraction(1, math.factorial(n) * math.factorial(n - 1))
    return CoefficientEstimate(
        n=n,
        method="integral-intermediate",
        value=_times_fraction(prefactor, quad.value),
        error_bound=_times_fraction(prefactor, quad.error_estimate),
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
