"""Heat trace of the positive Kohn Laplacian spectrum on S^(2n-1), three ways.

The trace G(t) = sum over p >= 0, q >= 1 of dim_hpq(n, p, q) * exp(-2tq(p+n-1))
splits, via the two-term multiplicity split, into two single sums:

    split_q:  sum_{q >= 1}   binom(n+q-2, n-2) * r^(n-1) / (1 - r)^n,  r = exp(-2tq)
    split_w:  sum_{w >= n-1} binom(w-1, n-2)  * s       / (1 - s)^n,  s = exp(-2tw)

(p has been summed in closed form in each piece; w = p + n - 1 in the
second).  The direct double sum is kept as an independent cross-check; it
takes every multiplicity from one exact table A[k] = binom(n+k-1, k) as
A[p] A[q] - A[p-1] A[q-1], and its number of terms grows like 1/t^2.

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

Every sum needs the trace inside the normal float range; _validate names
the supported t on either side.

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

from .combinatorics import multichoose_table
from .errors import DEFAULT_NODE_CAP, DEFAULT_TERM_CAP, ConvergenceError, check_n
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
_LOG_FLOAT_MIN = math.log(sys.float_info.min)  # smallest normal float
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
    # The trace is at least its first weight e^(-2t(n-1)); that weight must be
    # a normal float with the same headroom, or every sum reads 0.
    t_max = (-_LOG_FLOAT_MIN - _RANGE_MARGIN) / (2.0 * (n - 1))
    if t > t_max:
        raise ValueError(
            f"the heat trace at n = {n}, t = {t} is about e^{log_first:.0f}, below "
            f"the float range; at n = {n} the supported range is t <= about {t_max:.3g}"
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
    node_cap: int,
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

    def integral(evals_left: int):
        quad = integrate_decaying(
            lambda u: term(n, t, a + u),
            rate,
            tol=tol,
            poly_degree=n - 2,
            node_cap=min(evals_left, node_cap),
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
    node_cap: int = DEFAULT_NODE_CAP,
    min_t: float = MIN_T,
) -> HeatTraceSample:
    """The q-indexed single sum of the split heat trace.

    Term ratios are bounded by rho(q) = ((n+q-1)/(q+1)) * exp(-2t(n-1)),
    decreasing in q; the terms decay at rate 2t(n-1).  See _split_sum for
    the summation and its error bound; ConvergenceError when more than
    term_cap term evaluations, or more than node_cap of them in the tail
    integral, would be needed.
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
        node_cap,
    )


def trace_split_w(
    n: int,
    t: float,
    *,
    abs_tol: float = 1e-15,
    rel_tol: float = 1e-13,
    term_cap: int = DEFAULT_TERM_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
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
        node_cap,
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

    Each multiplicity is A[p] A[q] - A[p-1] A[q-1] from one exact table
    A[k] = binom(n+k-1, k) (combinatorics.multichoose_table), grown as the
    sum reaches further, so a term costs two products of table entries.
    Inner p-tails are bounded through the product majorant
    dim_hpq <= A[p] * A[q]; outer q-tails through the majorant
    M(q) = A[q] * exp(-2tq(n-1)) / (1-exp(-2tq))^n obtained by summing that
    product bound over all p.  The reported bound is the outer tail plus the
    accumulated inner tails plus rounding.  Recursive summation of positive
    terms adds at most (terms-1) * U * partial.  Each weight exp(-2tq)^(n-1+p)
    is built from one rounded exponential by a power and p multiplications,
    so its relative error is at most (n + 2p + 3 + x) * U with
    x = 2tq(n-1+p) < _EXP_ARG_MAX for every nonzero weight, and p < terms.

    Where a multiplicity passes the float range (large n), float(multiplicity)
    raises OverflowError, as the terms themselves are in range; that block and
    every later one are then formed scaled by powers of two (see _DirectSum).
    The cost grows like 1/t^2.
    """
    _validate(n, t, min_t)
    try:
        return _DirectSum(n, t, abs_tol, rel_tol, term_cap).run()
    except OverflowError as err:
        raise ValueError(
            f"the direct heat sum at n = {n}, t = {t} leaves the float range"
        ) from err


def _float_or_inf(k: int) -> float:
    """float(k), or inf where k is past the float range."""
    try:
        return float(k)
    except OverflowError:
        return math.inf


# A scaled block keeps its weight as mantissa * 2^-exponent with the mantissa
# in [2^-_SCALE_SHIFT, 1], and divides big integers by 2^s before conversion,
# so no factor of a term leaves the float range.
_SCALE_SHIFT = 512
_SCALE_TINY = 2.0**-_SCALE_SHIFT
_SCALE_BITS = 1000


def _scaled(k: int, mantissa: float, exponent: int) -> float:
    """k * mantissa * 2^-exponent, rounding k/2^s and the product once each."""
    s = max(k.bit_length() - _SCALE_BITS, 0)
    return math.ldexp(k / (1 << s) * mantissa, s - exponent)


class _DirectSum:
    """The direct double sum, one block of terms p = 0, 1, ... per q.

    Blocks are formed in plain float arithmetic (block, outer_majorant).  An
    entry of the float table past the float range is inf; a term reading it
    has overflowed already, because its multiplicity is at least both of its
    entries, so that block raises OverflowError.  From then on (scaled) the
    block is redone, and every later one formed, by scaled_block and
    scaled_outer_majorant: the same terms, order, stop tests and cap check,
    each term and majorant formed by _scaled.  A scaled weight takes n - 1
    multiplications instead of a power and never underflows, so its relative
    error is at most (2n + 2p + x) * U for every x = 2tq(n-1+p) reached; such
    a block reports n + x as its reach for the rounding bound, a plain block
    _EXP_ARG_MAX.
    """

    def __init__(self, n: int, t: float, abs_tol: float, rel_tol: float, term_cap: int):
        self.n, self.t = n, t
        self.abs_tol, self.rel_tol, self.term_cap = abs_tol, rel_tol, term_cap
        self.scaled = False
        self.exact = multichoose_table(n, 64)
        self.floats = list(map(_float_or_inf, self.exact))
        self.ratios = [(n + p) / (p + 1) for p in range(len(self.exact))]

    def grow(self) -> None:
        multichoose_table(self.n, 2 * len(self.exact), self.exact)
        n, size = self.n, len(self.exact)
        self.floats += map(_float_or_inf, self.exact[len(self.floats):])
        self.ratios += [(n + p) / (p + 1) for p in range(len(self.ratios), size)]

    def run(self) -> HeatTraceSample:
        n, t, abs_tol, rel_tol = self.n, self.t, self.abs_tol, self.rel_tol
        partial = 0.0
        inner_slack = 0.0
        reach = 0.0
        terms = 0
        decay = math.exp(-2.0 * t * (n - 1))
        q = 1
        while True:
            if q + 1 >= len(self.exact):
                self.grow()
            block = self.scaled_block if self.scaled else self.block
            try:
                partial, terms, inner_tail, block_reach = block(q, partial, terms)
            except OverflowError:
                if self.scaled:
                    raise
                self.scaled = True
                continue
            inner_slack += inner_tail
            reach = max(reach, block_reach)
            # Outer tail bound after block q; the ratio bound is evaluated at the
            # first discarded index q + 1, the largest over the discarded range.
            r_outer = ((n + q + 1) / (q + 2)) * decay
            if r_outer < 1.0:
                majorant = self.scaled_outer_majorant if self.scaled else self.outer_majorant
                outer_tail = majorant(q + 1) / (1.0 - r_outer)
                if outer_tail <= max(abs_tol, rel_tol * partial) / 2.0:
                    rounding = (3 * terms + n + reach + 2) * U * partial
                    return HeatTraceSample(
                        n, t, partial, outer_tail + inner_slack + rounding, terms
                    )
            q += 1

    def cap_error(self) -> ConvergenceError:
        return ConvergenceError(
            f"direct sum needed more than {self.term_cap} terms at n={self.n}, t={self.t}"
        )

    def outer_majorant(self, q: int) -> float:
        t = self.t
        return (
            self.floats[q]
            * math.exp(-2.0 * t * q * (self.n - 1))
            / (-math.expm1(-2.0 * t * q)) ** self.n
        )

    def scaled_outer_majorant(self, q: int) -> float:
        t, n = self.t, self.n
        return math.exp(
            math.log(self.exact[q])
            - 2.0 * t * q * (n - 1)
            - n * math.log(-math.expm1(-2.0 * t * q))
        )

    def block(self, q: int, partial: float, terms: int) -> tuple[float, int, float, float]:
        """Add the terms p = 0, 1, ... at this q to partial, in order, until the
        inner tail is certified; (partial, terms, inner tail, weight reach)."""
        n, exact, floats, ratios = self.n, self.exact, self.floats, self.ratios
        abs_tol, rel_tol = self.abs_tol, self.rel_tol
        x = math.exp(-2.0 * self.t * q)
        a_q, a_prev, b_q = exact[q], exact[q - 1], floats[q]
        share = 2.0 * q * (q + 1)
        room = self.term_cap - terms
        end = min(len(exact), room)
        weight = x ** (n - 1)
        previous = 0  # A[p - 1], with A[-1] = 0
        p = 0
        while True:
            if p == end:
                if p == room:
                    raise self.cap_error()
                self.grow()
                end = min(len(exact), room)
            current = exact[p]
            partial += (current * a_q - previous * a_prev) * weight
            r_inner = ratios[p] * x
            if r_inner < 1.0:
                inner_tail = floats[p] * b_q * weight * r_inner / (1.0 - r_inner)
                limit = rel_tol * partial
                if inner_tail <= (limit if limit > abs_tol else abs_tol) / share:
                    return partial, terms + p + 1, inner_tail, _EXP_ARG_MAX
            previous = current
            p += 1
            weight *= x

    def scaled_block(self, q: int, partial: float, terms: int) -> tuple[float, int, float, float]:
        """block, with every term and inner majorant formed by _scaled."""
        n, exact, ratios = self.n, self.exact, self.ratios
        abs_tol, rel_tol = self.abs_tol, self.rel_tol
        x = math.exp(-2.0 * self.t * q)
        a_q, a_prev = exact[q], exact[q - 1]
        share = 2.0 * q * (q + 1)
        room = self.term_cap - terms
        mantissa, exponent = 1.0, 0
        for _ in range(n - 1):
            mantissa *= x
            if mantissa < _SCALE_TINY:
                mantissa, exponent = math.ldexp(mantissa, _SCALE_SHIFT), exponent + _SCALE_SHIFT
        previous = 0
        p = 0
        while True:
            if p == room:
                raise self.cap_error()
            if p == len(exact):
                self.grow()
            current = exact[p]
            top = current * a_q
            partial += _scaled(top - previous * a_prev, mantissa, exponent)
            r_inner = ratios[p] * x
            if r_inner < 1.0:
                inner_tail = _scaled(top, mantissa, exponent) * r_inner / (1.0 - r_inner)
                if inner_tail <= max(abs_tol, rel_tol * partial) / share:
                    return partial, terms + p + 1, inner_tail, n + 2.0 * self.t * q * (n - 1 + p)
            previous = current
            p += 1
            mantissa *= x
            if mantissa < _SCALE_TINY:
                mantissa, exponent = math.ldexp(mantissa, _SCALE_SHIFT), exponent + _SCALE_SHIFT


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
