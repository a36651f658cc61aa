"""Heat trace of the positive Kohn Laplacian spectrum on S^(2n-1), three ways.

The trace G(t) = sum over p >= 0, q >= 1 of dim_hpq(n, p, q) * exp(-2tq(p+n-1))
splits, via the two-term multiplicity split, into two single sums:

    split_q:  sum_{q >= 1}   binom(n+q-2, n-2) * r^(n-1) / (1 - r)^n,  r = exp(-2tq)
    split_w:  sum_{w >= n-1} binom(w-1, n-2)  * s       / (1 - s)^n,  s = exp(-2tw)

(p has been summed in closed form in each piece; w = p + n - 1 in the
second).  The direct double sum is kept as an independent cross-check; it
takes every multiplicity from one exact table A[k] = binom(n+k-1, k) as
A[p] A[q] - A[p-1] A[q-1], and its number of terms grows like 1/t^2.

Every sum here stops on one rule: its tail below _REL_TOL times its own
partial sum, which, as a sum of positive terms, is a lower bound of the value
(a split tail integral may take its largest term instead, a lower bound too).

Both split sums go through one helper, _split_sum, at a cost independent of
t.  It adds the first EM_HEAD_TERMS terms exactly (math.fsum).  If a geometric
tail bound certifies the rest before then (large t), it stops there; terms
that at least halve per index are summed on until it does.  Otherwise the
tail from a = start + EM_HEAD_TERMS on is the Euler-Maclaurin sum
(special_functions.euler_maclaurin_tail)

    integral_a^inf f + f(a)/2 - sum_{j<=m} B_2j/(2j)! f^(2j-1)(a) + R_m,

with the integral from integrate_decaying, exact Bernoulli numbers, and the
odd derivatives from a trapezoid rule on a circle of radius a/8 around a.
The terms are analytic for Re z > 0 (the poles of 1/(1 - e^(-2tz)) lie on
the imaginary axis), so Cauchy estimates bound R_m and the contour's
aliasing error in closed form.  The reported error bound is the sum of the
stopped tail (or of the quadrature error, R_m and the aliasing bound) and
a first-order bound on floating-point rounding.

Every sum needs the trace and the numbers that form it inside the normal
floats: supported_t gives that interval of t for each n.

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
    "supported_t",
]

MIN_T = 1e-6
_REL_TOL = 1e-13  # every sum stops once its tail is below this share of its partial sum

# Largest x with exp(-x) > 0 in floating point.
_EXP_ARG_MAX = -math.log(math.ulp(0.0))
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_MIN = math.log(sys.float_info.min)  # smallest normal float
_RANGE_MARGIN = math.log(64.0)  # headroom of every quantity _range_excess keeps in range


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


def _range_excess(n: int, t: float) -> list[tuple[float, str, float]]:
    """(excess, name, log) of each quantity the heat sums need as a normal float at (n, t).

    With headroom _RANGE_MARGIN, the q = 1 term of split_q and both split tails'
    disk majorants stay below the largest float; the denominator (1 - e^(-2t))^n,
    the first weight and t^n times the q = 1 term above the smallest normal
    one.  The trace lies between the first weight and 3.3 times the q = 1 term.
    The excess, in logs, is <= 0 inside; the first four fall as t grows.
    """
    log_denom = n * math.log(-math.expm1(-2.0 * t))
    log_first = math.log(n - 1) - 2.0 * t * (n - 1) - log_denom
    top, bottom = _LOG_FLOAT_MAX - _RANGE_MARGIN, _LOG_FLOAT_MIN + _RANGE_MARGIN
    log_q = _log_majorant(n, t, 2.0 * t * (n - 1), 1 + EM_HEAD_TERMS)
    log_w = _log_majorant(n, t, 2.0 * t, n - 1 + EM_HEAD_TERMS)
    log_scaled = n * math.log(t) + log_first
    return [
        (log_first - top, "the q = 1 term", log_first),
        (log_q - top, "the split_q tail majorant", log_q),
        (log_w - top, "the split_w tail majorant", log_w),
        (bottom - log_denom, "the denominator (1 - e^(-2t))^n", log_denom),
        (bottom + 2.0 * t * (n - 1), "the first weight e^(-2t(n-1))", -2.0 * t * (n - 1)),
        (bottom - log_scaled, "t^n times the trace", log_scaled),
    ]


def supported_t(n: int) -> tuple[float, float] | None:
    """The lowest and highest t at which the heat sums answer for n >= 2, or None.

    Each end, found by bisection in log t, is MIN_T or where quantities of
    _range_excess cross the edge of the float range.
    """
    check_n(n)

    def inside(t: float, end: slice) -> bool:
        return max(_range_excess(n, t)[end])[0] <= 0.0

    def edge(end: slice, good: float, bad: float) -> float:
        for _ in range(60):
            mid = math.sqrt(good * bad)
            good, bad = (mid, bad) if inside(mid, end) else (good, mid)
        return good

    small_t, large_t = slice(4), slice(4, None)
    if not inside(MIN_T, large_t):
        return None
    # twice the largest t at which the first weight is inside
    high = edge(large_t, MIN_T, (_RANGE_MARGIN - _LOG_FLOAT_MIN) / (n - 1))
    if not inside(high, small_t):
        return None
    return (MIN_T if inside(MIN_T, small_t) else edge(small_t, high, MIN_T)), high


def _validate(n: int, t: float) -> None:
    check_n(n, "heat")
    if not (isinstance(t, (int, float)) and math.isfinite(t)):
        raise ValueError(f"t must be finite, got {t}")
    if t < MIN_T:
        reason = f"below the heat-trace floor {MIN_T}"
    else:
        excess, name, log = max(_range_excess(n, t))
        if excess <= 0.0:
            return
        reason = f"{name} is about e^{log:.3g}, {'beyond' if log > 0 else 'below'} the float range"
    low, high = supported_t(n)
    supported = f"at n = {n} heat supports t >= about {low:.3g} and t <= about {high:.3g}"
    raise ValueError(f"heat at n = {n}, t = {t}: {reason}; {supported}")


def _binom_exp(z, k: int, x):
    """binom(z, k) * exp(-x) for integer k >= 0, real or complex z and x.

    The binomial is exact for integer z, else the polynomial in z; that
    polynomial is multiplied into exp(-x) factor by factor, so no partial
    product overflows where the result does not (at t = 1e-6 and n ~ 50,
    binom(z, n-2) alone passes 1e308 on the tail's range while the term does
    not).  A subnormal exp(-x) (split_w near the largest supported t) enters
    as k + 1 equal factors, one per step; the partial products' logs are then
    concave in the step, so none underflows unless the result does.
    """
    exp = cmath.exp if isinstance(x, complex) else math.exp
    if x.real > -_LOG_FLOAT_MIN:
        acc = step = exp(-x / (k + 1))
        for i in range(k):
            acc = acc * (z - i) / (i + 1) * step
        return acc
    if isinstance(z, int):
        return float(math.comb(z, k)) * math.exp(-x)
    acc = exp(-x)
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


def _log_majorant(n: int, t: float, rate: float, a: int) -> float:
    """Log of a bound of |f(z)| over Re z >= a/2, |z| <= 3a/2, for either split term.

    Both terms are P(z) e^(-rate z) / (1 - e^(-2tz))^n with
    P(z) = prod_{i=1}^{n-2} (z +- i) / (n-2)!, so |P(z)| <= binom(|z|+n-2, n-2);
    |e^(-rate z)| = e^(-rate Re z) and |1 - e^(-2tz)| >= 1 - e^(-2t Re z).
    """
    z = 1.5 * a + n - 2
    log_binom = math.lgamma(z + 1) - math.lgamma(n - 1) - math.lgamma(z - n + 3)
    return log_binom - 0.5 * rate * a - n * math.log(-math.expm1(-t * a))


def _split_sum(
    label: str,
    n: int,
    t: float,
    term: Callable,
    start: int,
    shifts: tuple[int, int],
    rate: float,
    term_cap: int,
    node_cap: int,
) -> HeatTraceSample:
    """sum_{k >= start} term(n, t, k): exact head plus Euler-Maclaurin tail.

    rate is the decay rate of the term in k; rho(k) = ((k + alpha)/(k + beta))
    e^(-rate), with (alpha, beta) = shifts, decreases in k and bounds every
    later term(k+1)/term(k).  Once rho(k) < 1 the tail after term k is at
    most term * rho / (1 - rho), and the sum stops when that is below
    _REL_TOL * partial.  Terms that at least halve per index (rate >= log 2)
    are summed on to that stop, as the tail's disk majorant would not
    certify it.  Otherwise euler_maclaurin_tail adds the terms from
    a = start + EM_HEAD_TERMS on, its integral to a quarter of the stop's
    share of partial or of the term at the first k >= a with rho(k) < 1,
    about the largest, whichever is larger.
    """
    alpha, beta = shifts
    decay = math.exp(-rate)
    head = []
    partial = 0.0
    a = start + EM_HEAD_TERMS
    for k in range(start, a if rate < math.log(2.0) else sys.maxsize):
        if len(head) >= term_cap:
            raise ConvergenceError(
                f"{label} needed more than {term_cap} term evaluations at n={n}, t={t}"
            )
        value = term(n, t, k)
        head.append(value)
        partial += value
        rho = ((k + alpha) / (k + beta)) * decay
        if rho < 1.0:
            tail = value * rho / (1.0 - rho)
            if tail <= _REL_TOL * partial:
                total = math.fsum(head)
                rounding = (_eval_rel(n, rate * k) + U) * total
                return HeatTraceSample(n, t, total, tail + rounding, len(head))

    # One more term is a lower bound of the sum too, far above the head at large
    # n and mid t; at a real index it takes the overflow-free path.
    peak = max(a, math.floor((alpha * decay - beta) / -math.expm1(-rate)) + 1)
    tol = 0.25 * _REL_TOL * max(partial, term(n, t, float(peak)))

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
            disk_max=math.exp(_log_majorant(n, t, rate, a)),
            growth=n - 2,
            integral=integral,
            eval_rel=lambda c: _eval_rel(n, c * rate * a),
            eval_cap=term_cap - len(head) - 1,
        )
    except ConvergenceError as err:
        raise ConvergenceError(
            f"{label} tail at n={n}, t={t}, term_cap={term_cap}: {err}"
        ) from err
    total = math.fsum([*head, *parts])
    rounding = _eval_rel(n, rate * a) * partial + U * total
    return HeatTraceSample(n, t, total, tail_bound + rounding, len(head) + 1 + evaluations)


def trace_split_q(
    n: int,
    t: float,
    *,
    term_cap: int = DEFAULT_TERM_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
) -> HeatTraceSample:
    """The q-indexed single sum of the split heat trace.

    Term ratios are bounded by rho(q) = ((n+q-1)/(q+1)) * exp(-2t(n-1)),
    decreasing in q; the terms decay at rate 2t(n-1).  See _split_sum for
    the summation and its error bound; ConvergenceError when more than
    term_cap term evaluations, or more than node_cap of them in the tail
    integral, would be needed.
    """
    _validate(n, t)
    return _split_sum(
        "split_q",
        n,
        t,
        _split_q_term,
        1,
        (n - 1, 1),
        2.0 * t * (n - 1),
        term_cap,
        node_cap,
    )


def trace_split_w(
    n: int,
    t: float,
    *,
    term_cap: int = DEFAULT_TERM_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
) -> HeatTraceSample:
    """The w-indexed single sum of the split heat trace (w = p + n - 1).

    Same summation as trace_split_q with ratio bound
    rho(w) = (w/(w-n+2)) * exp(-2t) and decay rate 2t.
    """
    _validate(n, t)
    return _split_sum(
        "split_w",
        n,
        t,
        _split_w_term,
        n - 1,
        (0, 2 - n),
        2.0 * t,
        term_cap,
        node_cap,
    )


def trace_direct(
    n: int,
    t: float,
    *,
    term_cap: int = DEFAULT_TERM_CAP,
) -> HeatTraceSample:
    """The raw double sum over (p, q), exact multiplicities, as a cross-check.

    Each multiplicity is A[p] A[q] - A[p-1] A[q-1] from one exact table
    A[k] = binom(n+k-1, k) (combinatorics.multichoose_table), grown as the
    sum reaches further, so a term costs two products of table entries.
    Inner p-tails are bounded through the product majorant
    dim_hpq <= A[p] * A[q]; outer q-tails through the majorant
    M(q) = A[q] * exp(-2tq(n-1)) / (1-exp(-2tq))^n obtained by summing that
    product bound over all p.  The sum stops once the outer tail is below
    half of _REL_TOL * partial, each block once its inner tail is below a
    1/(2q(q+1)) share of that.  The reported bound is the outer tail plus the
    accumulated inner tails plus rounding.  Recursive summation of positive
    terms adds at most (terms-1) * U * partial.  Each weight exp(-2tq)^(n-1+p)
    is built from one rounded exponential by a power and p multiplications,
    so its relative error is at most (n + 2p + 3 + x) * U with
    x = 2tq(n-1+p) < _EXP_ARG_MAX for every nonzero weight, and p < terms.
    Where a multiplicity or a weight leaves the normal floats (large n), that
    block and every later one form their terms scaled by powers of two, in
    the same loop (see _DirectSum).  The cost grows like 1/t^2.
    """
    _validate(n, t)
    return _DirectSum(n, t, term_cap).run()


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

    Blocks are formed in plain float arithmetic until one raises
    OverflowError; from then on (scaled) block and outer_majorant form every
    term and majorant by _scaled instead, the redone block included.  An
    entry of the float table past the float range is inf; a term reading it
    has overflowed already, because its multiplicity is at least both of its
    entries, so that block raises, as does a plain one whose smallest weight
    is below the normal floats.  A scaled weight takes n - 1 multiplications
    instead of a power and never underflows, so its relative error is at
    most (2n + 2p + x) * U for every x = 2tq(n-1+p) reached; such a block
    reports n + x as its reach for the rounding bound, a plain block
    _EXP_ARG_MAX.
    """

    def __init__(self, n: int, t: float, term_cap: int):
        self.n, self.t, self.term_cap = n, t, term_cap
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
        n, t = self.n, self.t
        partial = 0.0
        inner_slack = 0.0
        reach = 0.0
        terms = 0
        decay = math.exp(-2.0 * t * (n - 1))
        q = 1
        while True:
            if q + 1 >= len(self.exact):
                self.grow()
            try:
                partial, terms, inner_tail, block_reach = self.block(q, partial, terms)
            except OverflowError:
                self.scaled = True
                partial, terms, inner_tail, block_reach = self.block(q, partial, terms)
            inner_slack += inner_tail
            reach = max(reach, block_reach)
            # Outer tail bound after block q; the ratio bound is evaluated at the
            # first discarded index q + 1, the largest over the discarded range.
            r_outer = ((n + q + 1) / (q + 2)) * decay
            if r_outer < 1.0:
                outer_tail = self.outer_majorant(q + 1) / (1.0 - r_outer)
                if outer_tail <= _REL_TOL * partial / 2.0:
                    rounding = (3 * terms + n + reach + 2) * U * partial
                    return HeatTraceSample(
                        n, t, partial, outer_tail + inner_slack + rounding, terms
                    )
            q += 1

    def outer_majorant(self, q: int) -> float:
        t, n = self.t, self.n
        if self.scaled:
            return math.exp(
                math.log(self.exact[q])
                - 2.0 * t * q * (n - 1)
                - n * math.log(-math.expm1(-2.0 * t * q))
            )
        return self.floats[q] * math.exp(-2.0 * t * q * (n - 1)) / (-math.expm1(-2.0 * t * q)) ** n

    def block(self, q: int, partial: float, terms: int) -> tuple[float, int, float, float]:
        """Add the terms p = 0, 1, ... at this q to partial, in order, until the
        inner tail is certified; (partial, terms, inner tail, weight reach).

        The weight exp(-2tq)^(n-1+p) is held as weight * 2^-exponent: a plain
        block keeps exponent 0, a scaled one keeps weight in [_SCALE_TINY, 1].
        """
        n, exact, floats, ratios = self.n, self.exact, self.floats, self.ratios
        scaled = self.scaled
        rel_tol = _REL_TOL  # a local: read once per term
        x = math.exp(-2.0 * self.t * q)
        a_q, a_prev, b_q = exact[q], exact[q - 1], floats[q]
        share = 2.0 * q * (q + 1)
        room = self.term_cap - terms
        end = min(len(exact), room)
        weight, exponent = 1.0, 0
        if scaled:
            for _ in range(n - 1):
                weight *= x
                if weight < _SCALE_TINY:
                    weight, exponent = math.ldexp(weight, _SCALE_SHIFT), exponent + _SCALE_SHIFT
        else:
            weight = x ** (n - 1)
        previous = 0  # A[p - 1], with A[-1] = 0
        p = 0
        while True:
            if p == end:
                if p == room:
                    raise ConvergenceError(
                        f"direct sum needed more than {self.term_cap} terms at n={n}, t={self.t}"
                    )
                self.grow()
                end = min(len(exact), room)
            current = exact[p]
            top = current * a_q
            if scaled:
                partial += _scaled(top - previous * a_prev, weight, exponent)
            else:
                partial += (top - previous * a_prev) * weight
            r_inner = ratios[p] * x
            if r_inner < 1.0:
                majorant = _scaled(top, weight, exponent) if scaled else floats[p] * b_q * weight
                inner_tail = majorant * r_inner / (1.0 - r_inner)
                if inner_tail <= rel_tol * partial / share:
                    if not scaled and weight < sys.float_info.min:  # the block's smallest weight
                        raise OverflowError("a weight of the block is a subnormal float")
                    reach = n + 2.0 * self.t * q * (n - 1 + p) if scaled else _EXP_ARG_MAX
                    return partial, terms + p + 1, inner_tail, reach
            previous = current
            p += 1
            weight *= x
            if scaled and weight < _SCALE_TINY:
                weight, exponent = math.ldexp(weight, _SCALE_SHIFT), exponent + _SCALE_SHIFT


def scaled_trace(
    n: int,
    t: float,
    *,
    term_cap: int = DEFAULT_TERM_CAP,
) -> float:
    """t**n * G(t) via the two split sums; tends to Gamma(n+1) * c(n) as t -> 0."""
    part_q = trace_split_q(n, t, term_cap=term_cap)
    part_w = trace_split_w(n, t, term_cap=term_cap)
    return scale_by_t_power(n, t, part_q.value + part_w.value)


def scale_by_t_power(n: int, t: float, total: float) -> float:
    """t**n * total, accurate also where t**n alone is a subnormal float.

    A subnormal power keeps only a few digits, so there its two halves enter
    in turn.  ValueError where a nonzero product is not a normal float.
    """
    head = n if float(t) ** n >= sys.float_info.min else n // 2
    scaled = float(t) ** head * total * float(t) ** (n - head)
    if total and not sys.float_info.min <= abs(scaled) <= sys.float_info.max:
        log = n * math.log(t) + math.log(abs(total))
        raise ValueError(f"t^n G(t) at n = {n}, t = {t} is about e^{log:.3g}, not a normal float")
    return scaled
