"""Heat trace of the positive Kohn Laplacian spectrum on S^(2n-1), three ways.

The trace G(t) = sum over p >= 0, q >= 1 of dim_hpq(n, p, q) * exp(-2tq(p+n-1))
splits, via the two-term multiplicity split, into two single sums:

    split_q:  sum_{q >= 1}   binom(n+q-2, n-2) * r^(n-1) / (1 - r)^n,  r = exp(-2tq)
    split_w:  sum_{w >= n-1} binom(w-1, n-2)  * s       / (1 - s)^n,  s = exp(-2tw)

(p has been summed in closed form in each piece; w = p + n - 1 in the
second).  The direct double sum is kept as an independent cross-check.

Both split sums go through one helper, _split_sum, at a cost independent of
t.  It adds the first EM_HEAD_TERMS terms exactly (math.fsum).  If a geometric
tail bound certifies the rest before then (large t), it stops there.
Otherwise the tail from a = start + EM_HEAD_TERMS on is the Euler-Maclaurin
sum (special_functions.euler_maclaurin_tail)

    integral_a^inf f + f(a)/2 - sum_{j<=m} B_2j/(2j)! f^(2j-1)(a) + R_m,

with the integral from integrate_decaying, exact Bernoulli numbers, and the
odd derivatives from a trapezoid rule on a circle of radius a/8 around a.
The terms are analytic for Re z > 0 (the poles of 1/(1 - e^(-2tz)) lie on
the imaginary axis), so Cauchy estimates bound R_m and the contour's
aliasing error in closed form.  The reported error bound is the sum of the
stopped tail (or of the quadrature error, R_m and the aliasing bound) and
a first-order bound on floating-point rounding.

Denominators 1 - exp(-2tq) are formed with expm1, also at complex
arguments, so the small-t limit (t/(1 - e^(-at)))^n -> a^(-n) survives in
floating point; that is what makes the scaled trace t**n * G(t) stable down
to the default floor t = 1e-6.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .combinatorics import dim_hpq
from .errors import DEFAULT_TERM_CAP, ConvergenceError, check_n
from .special_functions import EM_HEAD_TERMS, U, euler_maclaurin_tail, integrate_decaying

__all__ = [
    "MIN_T",
    "HeatTraceSample",
    "trace_split_q",
    "trace_split_w",
    "trace_direct",
    "scaled_trace",
    "scale_by_t_power",
]

MIN_T = 1e-6

# Largest x with exp(-x) > 0 in floating point.
_EXP_ARG_MAX = -math.log(math.ulp(0.0))
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_RANGE_MARGIN = math.log(64.0)  # headroom of the trace and its bound over the first term


@dataclass(frozen=True)
class HeatTraceSample:
    """One evaluation of a heat-trace sum.

    error_bound covers truncation (tail or quadrature and Euler-Maclaurin
    remainder) and floating-point rounding.  terms_used counts every
    evaluation of a term: summed terms, quadrature nodes and contour samples.
    """

    n: int
    t: float
    value: float
    error_bound: float
    terms_used: int


def _validate(n: int, t: float, min_t: float) -> None:
    check_n(n)
    if not (isinstance(t, (int, float)) and math.isfinite(t)):
        raise ValueError(f"t must be finite, got {t}")
    if t < min_t:
        raise ValueError(
            f"t = {t} is below the heat-trace floor {min_t}; only the min_t "
            "argument of the kohnspec.heat_trace functions lowers the floor"
        )
    # The q = 1 term of split_q, (n-1) e^(-2t(n-1)) / (1 - e^(-2t))^n, sets
    # the scale of the trace: as t -> 0 the trace is Gamma(n+1) c(n) 2^n / (n-1)
    # times it, at most 3.3 (n = 2) and 1 + 1e-9 from n = 30 on.
    log_first = math.log(n - 1) - 2.0 * t * (n - 1) - n * math.log(-math.expm1(-2.0 * t))
    if log_first > _LOG_FLOAT_MAX - _RANGE_MARGIN:
        t_min = 0.5 * math.exp((math.log(n - 1) + _RANGE_MARGIN - _LOG_FLOAT_MAX) / n)
        raise ValueError(
            f"the heat trace at n = {n}, t = {t} is about e^{log_first:.0f}, beyond "
            f"the float range; at n = {n} the supported range is t >= about {t_min:.3g}"
        )


def _comb_float(a: int, b: int) -> float:
    """math.comb as a float, via lgamma when the exact integer overflows."""
    try:
        return float(math.comb(a, b))
    except OverflowError:
        return math.exp(
            math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)
        )


def _binom_exp(z, k: int, x):
    """binom(z, k) * exp(-x) for integer k >= 0, real or complex z and x.

    The binomial is exact for integer z, else the polynomial in z; that
    polynomial is multiplied into exp(-x) factor by factor, so no partial
    product overflows where the result does not (at t = 1e-6 and n ~ 50,
    binom(z, n-2) alone passes 1e308 on the tail's range while the term does
    not).
    """
    if isinstance(z, int):
        return _comb_float(z, k) * math.exp(-x)
    acc = cmath.exp(-x) if isinstance(x, complex) else math.exp(-x)
    for i in range(k):
        acc = acc * (z - i) / (i + 1)
    return acc


def _expm1(z):
    """e^z - 1 without cancellation near 0, for real or complex z."""
    if not isinstance(z, complex):
        return math.expm1(z)
    half_sin = math.sin(0.5 * z.imag)
    return complex(
        math.expm1(z.real) * math.cos(z.imag) - 2.0 * half_sin * half_sin,
        math.exp(z.real) * math.sin(z.imag),
    )


def _split_q_term(n: int, t: float, q):
    """q-th term of the split_q sum, stable at small t*q; q may be real or complex, Re q > 0."""
    denom = -_expm1(-2.0 * t * q)
    return _binom_exp(n + q - 2, n - 2, 2.0 * t * q * (n - 1)) / denom**n


def _split_w_term(n: int, t: float, w):
    """w-th term of the split_w sum (zero for w < n - 1); w may be real or complex, Re w > 0."""
    denom = -_expm1(-2.0 * t * w)
    return _binom_exp(w - 1, n - 2, 2.0 * t * w) / denom**n


def _eval_rel(n: int, x: float) -> float:
    """First-order relative rounding bound of one term evaluation.

    x bounds the modulus of the exponent rate * z.  The power denom**n, the
    n - 2 binomial factors, the rounded exponent (relative error x * U after
    exp) and up to 64 further additions are all counted.
    """
    return (16 * n + 4 * x + 64) * U


def _majorant(n: int, t: float, rate: float, re_min: float, abs_max: float) -> float:
    """Upper bound of |f(z)| over Re z >= re_min > 0, |z| <= abs_max, for either split term.

    Both terms are P(z) e^(-rate z) / (1 - e^(-2tz))^n with
    P(z) = prod_{i=1}^{n-2} (z +- i) / (n-2)!, so |P(z)| <= binom(|z|+n-2, n-2);
    |e^(-rate z)| = e^(-rate Re z) and |1 - e^(-2tz)| >= 1 - e^(-2t Re z).
    """
    return (
        _binom_exp(float(abs_max) + n - 2, n - 2, rate * re_min)
        / (-math.expm1(-2.0 * t * re_min)) ** n
    )


def _split_sum(
    label: str,
    n: int,
    t: float,
    term: Callable,
    start: int,
    ratio: Callable[[int], float],
    rate: float,
    abs_tol: float,
    rel_tol: float,
    term_cap: int,
) -> HeatTraceSample:
    """sum_{k >= start} term(n, t, k): exact head plus Euler-Maclaurin tail.

    ratio(k) bounds term(k+1)/term(k) for every later index and decreases in
    k; rate is the exponential decay rate of the term in k.  While summing
    the head, once ratio(k) < 1 the tail after term k is at most
    term * rho / (1 - rho); the sum stops there when that is below
    max(abs_tol, rel_tol * partial).  Otherwise euler_maclaurin_tail adds
    the terms from start + EM_HEAD_TERMS on.
    """
    head = []
    partial = 0.0
    for k in range(start, start + EM_HEAD_TERMS):
        if len(head) >= term_cap:
            raise ConvergenceError(
                f"{label} needed more than {term_cap} term evaluations at n={n}, t={t}"
            )
        value = term(n, t, k)
        head.append(value)
        partial += value
        rho = ratio(k)
        if rho < 1.0:
            tail = value * rho / (1.0 - rho)
            if tail <= max(abs_tol, rel_tol * partial):
                total = math.fsum(head)
                rounding = (_eval_rel(n, rate * k) + U) * total
                return HeatTraceSample(n, t, total, tail + rounding, len(head))

    a = start + EM_HEAD_TERMS
    tol = 0.25 * max(abs_tol, rel_tol * partial)

    def integral(node_cap: int):
        quad = integrate_decaying(
            lambda u: term(n, t, a + u), rate, tol=tol, poly_degree=n - 2, node_cap=node_cap
        )
        tip = _eval_rel(n, rate * (a + quad.truncation_point))
        return quad, (tip + quad.nodes_used * U) * abs(quad.value)

    try:
        # disk_max bounds |f| for Re z >= a/2, |z| <= 3a/2: on the disk of
        # radius a/2 around a, and, times (x/a)^(n-2), on the circle of
        # radius x/2 around any x >= a.
        parts, tail_bound, evaluations = euler_maclaurin_tail(
            lambda z: term(n, t, z),
            a,
            disk_max=_majorant(n, t, rate, 0.5 * a, 1.5 * a),
            growth=n - 2,
            integral=integral,
            eval_rel=lambda c: _eval_rel(n, c * rate * a),
            eval_cap=term_cap - len(head),
        )
    except ConvergenceError as err:
        raise ConvergenceError(
            f"{label} tail at n={n}, t={t}, term_cap={term_cap}: {err}"
        ) from err
    total = math.fsum([*head, *parts])
    rounding = _eval_rel(n, rate * a) * partial + U * total
    return HeatTraceSample(
        n, t, total, tail_bound + rounding, len(head) + evaluations
    )


def trace_split_q(
    n: int,
    t: float,
    *,
    abs_tol: float = 1e-15,
    rel_tol: float = 1e-13,
    term_cap: int = DEFAULT_TERM_CAP,
    min_t: float = MIN_T,
) -> HeatTraceSample:
    """The q-indexed single sum of the split heat trace.

    Term ratios are bounded by rho(q) = ((n+q-1)/(q+1)) * exp(-2t(n-1)),
    decreasing in q; the terms decay at rate 2t(n-1).  See _split_sum for
    the summation and its error bound; ConvergenceError when more than
    term_cap term evaluations would be needed.
    """
    _validate(n, t, min_t)
    decay = math.exp(-2.0 * t * (n - 1))
    return _split_sum(
        "split_q",
        n,
        t,
        _split_q_term,
        1,
        lambda q: ((n + q - 1) / (q + 1)) * decay,
        2.0 * t * (n - 1),
        abs_tol,
        rel_tol,
        term_cap,
    )


def trace_split_w(
    n: int,
    t: float,
    *,
    abs_tol: float = 1e-15,
    rel_tol: float = 1e-13,
    term_cap: int = DEFAULT_TERM_CAP,
    min_t: float = MIN_T,
) -> HeatTraceSample:
    """The w-indexed single sum of the split heat trace (w = p + n - 1).

    Same summation as trace_split_q with ratio bound
    rho(w) = (w/(w-n+2)) * exp(-2t) and decay rate 2t.
    """
    _validate(n, t, min_t)
    decay = math.exp(-2.0 * t)
    return _split_sum(
        "split_w",
        n,
        t,
        _split_w_term,
        n - 1,
        lambda w: (w / (w - n + 2)) * decay,
        2.0 * t,
        abs_tol,
        rel_tol,
        term_cap,
    )


def trace_direct(
    n: int,
    t: float,
    *,
    abs_tol: float = 1e-15,
    rel_tol: float = 1e-13,
    term_cap: int = DEFAULT_TERM_CAP,
    min_t: float = MIN_T,
) -> HeatTraceSample:
    """The raw double sum over (p, q), exact multiplicities, as a cross-check.

    Inner p-tails are bounded through the product majorant
    dim_hpq <= binom(n+p-1, p) * binom(n+q-1, q); outer q-tails through the
    majorant M(q) = binom(n+q-1, q) * exp(-2tq(n-1)) / (1-exp(-2tq))^n
    obtained by summing that product bound over all p.  The reported bound
    is the outer tail plus the accumulated inner tails plus rounding.
    Recursive summation of positive terms adds at most (terms-1) * U * partial.
    Each weight exp(-2tq)^(n-1+p) is built from one rounded exponential by a
    power and p multiplications, so its relative error is at most
    (n + 2p + 3 + x) * U with x = 2tq(n-1+p) < _EXP_ARG_MAX for every nonzero
    weight, and p < terms.
    """
    _validate(n, t, min_t)
    partial = 0.0
    inner_slack = 0.0
    terms = 0
    q = 1
    while True:
        x = math.exp(-2.0 * t * q)
        bq = _comb_float(n + q - 1, q)
        # Inner sum over p at this q.
        weight = x ** (n - 1)
        p = 0
        while True:
            terms += 1
            if terms > term_cap:
                raise ConvergenceError(
                    f"direct sum needed more than {term_cap} terms at n={n}, t={t}"
                )
            partial += dim_hpq(n, p, q) * weight
            r_inner = ((n + p) / (p + 1)) * x
            if r_inner < 1.0:
                majorant = _comb_float(n + p - 1, p) * bq * weight
                inner_tail = majorant * r_inner / (1.0 - r_inner)
                if inner_tail <= max(abs_tol, rel_tol * partial) / (2.0 * q * (q + 1)):
                    inner_slack += inner_tail
                    break
            p += 1
            weight *= x
        # Outer tail bound after block q; the ratio bound is evaluated at the
        # first discarded index q + 1, the largest over the discarded range.
        r_outer = ((n + q + 1) / (q + 2)) * math.exp(-2.0 * t * (n - 1))
        if r_outer < 1.0:
            nxt = q + 1
            m_next = (
                _comb_float(n + nxt - 1, nxt)
                * math.exp(-2.0 * t * nxt * (n - 1))
                / (-math.expm1(-2.0 * t * nxt)) ** n
            )
            outer_tail = m_next / (1.0 - r_outer)
            if outer_tail <= max(abs_tol, rel_tol * partial) / 2.0:
                rounding = (3 * terms + n + _EXP_ARG_MAX + 2) * U * partial
                return HeatTraceSample(
                    n, t, partial, outer_tail + inner_slack + rounding, terms
                )
        q += 1


def scaled_trace(
    n: int,
    t: float,
    *,
    abs_tol: float = 1e-15,
    rel_tol: float = 1e-13,
    term_cap: int = DEFAULT_TERM_CAP,
    min_t: float = MIN_T,
) -> float:
    """t**n * G(t) via the two split sums; tends to Gamma(n+1) * c(n) as t -> 0."""
    options = dict(abs_tol=abs_tol, rel_tol=rel_tol, term_cap=term_cap, min_t=min_t)
    total = trace_split_q(n, t, **options).value + trace_split_w(n, t, **options).value
    return scale_by_t_power(n, t, total)


def scale_by_t_power(n: int, t: float, total: float) -> float:
    """t**n * total, accurate also where t**n alone is a subnormal float.

    A subnormal power keeps only a few significant digits, so there the
    power is split in two and each half is multiplied into total in turn.
    """
    power = float(t) ** n
    if power >= sys.float_info.min:
        return power * total
    return (float(t) ** (n // 2) * total) * float(t) ** (n - n // 2)
