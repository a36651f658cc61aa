"""Heat trace of the positive Kohn Laplacian spectrum on S^(2n-1), three ways.

The trace G(t) = sum over p >= 0, q >= 1 of dim_hpq(n, p, q) * exp(-2tq(p+n-1))
splits, via the two-term multiplicity split, into two single sums:

    split_q:  sum_{q >= 1}   binom(n+q-2, n-2) * r^(n-1) / (1 - r)^n,  r = exp(-2tq)
    split_w:  sum_{w >= n-1} binom(w-1, n-2)  * s       / (1 - s)^n,  s = exp(-2tw)

(p has been summed in closed form in each piece; w = p + n - 1 in the
second).  The direct double sum is kept as an independent cross-check; it
forms every term, its multiplicity from one exact table A[k] = binom(n+k-1, k)
as A[p] A[q] - A[p-1] A[q-1], in Dirichlet's hyperbola order, and its number
of terms grows like (1/t) log(1/t).

Every sum here but an Abel-Plana tail stops once its tail is below _REL_TOL
times its own partial sum, a lower bound of the value.  Both split sums are
one helper, _split_sum, at (offset, rate) = (n - 2, 2t(n - 1)) and (-1, 2t):
an exact head, then, unless that stop comes first, the midpoint Abel-Plana
sum of the tail (special_functions.abel_plana_tail), with no remainder: the
terms' poles lie on Re z = 0 and they grow like |y|^(n-2) along Re z = a - 1/2.

Every sum needs t > 0 and the trace and the numbers that form it inside the
normal floats, nothing more: supported_t gives that interval of t for each n.

Denominators 1 - exp(-2tq) are formed with expm1, also at complex
arguments, so the small-t limit (t/(1 - e^(-at)))^n -> a^(-n) survives in
floating point; that is what makes the scaled trace t**n * G(t) stable down
to the lower end of that interval.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from operator import add
from typing import Callable

from .combinatorics import multichoose_table
from .errors import DEFAULT_NODE_CAP, DEFAULT_TERM_CAP, ConvergenceError, check_n
from .special_functions import HEAD_TERMS, U, abel_plana_tail, scaled_product, scaled_rational

__all__ = [
    "HeatTraceSample",
    "trace_split_q",
    "trace_split_w",
    "trace_direct",
    "scaled_trace",
    "scale_by_t_power",
    "supported_t",
]

_REL_TOL = 1e-13  # every sum stops once its tail is below this share of its partial sum

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_MIN = math.log(sys.float_info.min)  # smallest normal float
_RANGE_MARGIN = math.log(64.0)  # headroom of every quantity _range_excess keeps in range


@dataclass(frozen=True)
class HeatTraceSample:
    """One evaluation of a heat-trace sum: error_bound covers truncation and
    rounding, terms_used counts every evaluation of a term.
    """

    n: int
    t: float
    value: float
    error_bound: float
    terms_used: int


def _range_excess(n: int, t: float) -> list[tuple[float, str, float]]:
    """(excess, name, log) of each quantity the heat sums need as a normal float at (n, t).

    With headroom _RANGE_MARGIN, the q = 1 term of split_q stays below the
    largest float; the denominator (1 - e^(-2t))^n, the first weight and t^n
    times the q = 1 term above the smallest normal one.  The trace lies
    between the first weight and 3.3 times the q = 1 term.  The excess, in
    logs, is <= 0 inside; the first two fall as t grows, the last two rise.
    """
    log_denom = n * math.log(-math.expm1(-2.0 * t))
    log_first = math.log(n - 1) - 2.0 * t * (n - 1) - log_denom
    top, bottom = _LOG_FLOAT_MAX - _RANGE_MARGIN, _LOG_FLOAT_MIN + _RANGE_MARGIN
    log_scaled = n * math.log(t) + log_first
    return [
        (log_first - top, "the q = 1 term", log_first),
        (bottom - log_denom, "the denominator (1 - e^(-2t))^n", log_denom),
        (bottom + 2.0 * t * (n - 1), "the first weight e^(-2t(n-1))", -2.0 * t * (n - 1)),
        (bottom - log_scaled, "t^n times the trace", log_scaled),
    ]


def supported_t(n: int) -> tuple[float, float] | None:
    """The lowest and highest t at which the heat sums answer for n >= 2, or None.

    Each end is the float where quantities of _range_excess cross the edge
    of the float range, bisected for up from the smallest normal float.
    """
    check_n(n)

    def inside(t: float, end: slice) -> bool:
        return max(_range_excess(n, t)[end])[0] <= 0.0

    def edge(end: slice, good: float, bad: float) -> float:
        while True:  # in log t while the ends are far apart (good * bad may underflow)
            far = max(good, bad) > 2.0 * min(good, bad)
            mid = math.sqrt(good) * math.sqrt(bad) if far else 0.5 * (good + bad)
            if not min(good, bad) < mid < max(good, bad):
                return good  # good and bad are adjacent floats
            good, bad = (mid, bad) if inside(mid, end) else (good, mid)

    small_t, large_t = slice(2), slice(2, None)
    # twice the largest t at which the first weight is inside
    high = edge(large_t, sys.float_info.min, (_RANGE_MARGIN - _LOG_FLOAT_MIN) / (n - 1))
    if not inside(high, small_t):
        return None
    return edge(small_t, high, sys.float_info.min), high


def _validate(n: int, t: float) -> None:
    check_n(n, "heat")
    if not (isinstance(t, (int, float)) and math.isfinite(t)):
        raise ValueError(f"t must be finite, got {t}")
    if t <= 0:
        reason = "t must be positive"
    else:
        excess, name, log = max(_range_excess(n, t))
        if excess <= 0.0:
            return
        reason = f"{name} is about e^{log:.3g}, {'beyond' if log > 0 else 'below'} the float range"
    low, high = supported_t(n)
    supported = f"at n = {n} heat supports t >= about {low:.3g} and t <= about {high:.3g}"
    raise ValueError(f"heat at n = {n}, t = {t}: {reason}; {supported}")


def _term_functions(n: int, t: float, offset: int, rate: float) -> tuple[Callable, Callable]:
    """(exact, term): z -> binom(z + offset, n - 2) e^(-rate z) / (1 - e^(-2tz))^n, Re z > 0.

    exact takes an int z and its binomial exactly; term takes a real or
    complex z, the binomial as 1/(n-2)! times the z + offset - i over
    i < n - 2.  Either meets e^(-rate z) in the extended-range kernel
    (special_functions.scaled_product): no partial product leaves the floats
    where the term does not.
    """
    k, neg_rate, neg_t2 = n - 2, -rate, -2.0 * t
    exp, expm1, sin, cos, repeat = math.exp, math.expm1, math.sin, math.cos, itertools.repeat
    inverse_factorial = scaled_rational(1, math.factorial(k))
    shifts = [float(offset - i) for i in range(k)]

    def exact(i: int) -> float:
        binom = scaled_product((), (), neg_rate * i, scaled_rational(math.comb(i + offset, k)))
        return binom / (-expm1(neg_t2 * i)) ** n

    def term(z):
        y = neg_t2 * z
        binom = scaled_product(map(add, repeat(z), shifts), (), neg_rate * z, inverse_factorial)
        if isinstance(z, complex):
            # 1 - e^y = 2 sin^2(Im y / 2) - expm1(Re y) cos(Im y) - i e^(Re y) sin(Im y)
            half = sin(0.5 * y.imag)
            real = 2.0 * half * half - expm1(y.real) * cos(y.imag)
            return binom / complex(real, -exp(y.real) * sin(y.imag)) ** n
        return binom / (-expm1(y)) ** n

    return exact, term


def _eval_rel(n: int, x: float) -> float:
    """First-order relative rounding bound of one term evaluation.

    x bounds the modulus of the exponent rate * z.  The power denom**n, the
    n - 2 binomial factors, the rounded exponent (relative error x * U after
    exp) and up to 64 further additions are all counted.
    """
    return (16 * n + 4 * x + 64) * U


def _ratio_bound(n: int, offset: int) -> tuple[int, int, int]:
    """(start, alpha, beta) of the split sum at (n, offset), as _split_sum derives them."""
    return max(1, n - 2 - offset), offset + 1, offset + 3 - n


def _split_sum(label: str, n: int, t: float, offset: int, rate: float, node_cap: int) -> HeatTraceSample:
    """sum_{k >= 1} binom(k + offset, n - 2) e^(-rate k) / (1 - e^(-2tk))^n: exact head plus Abel-Plana tail.

    The sum starts at start = max(1, n - 2 - offset), the first k >= 1 whose
    binomial is nonzero.  The binomials' ratio is (k + alpha)/(k + beta),
    (alpha, beta) = (offset + 1, offset + 3 - n), and the denominators only
    grow, so rho(k) = ((k + alpha)/(k + beta)) e^(-rate), decreasing in k,
    bounds every later term(k+1)/term(k).  Once rho(k) < 1 the tail after
    term k is at most term * rho / (1 - rho), and the sum stops when that is
    below _REL_TOL * partial.  Terms that at least halve per index (rate >=
    log 2) are summed on to that stop; else abel_plana_tail adds the terms
    from a = start + HEAD_TERMS on, each rounding by _eval_rel(n, rate |z|).

    n bounds the head at max(HEAD_TERMS, 2n + 110) terms: where e^(-rate) <=
    1/2, rho <= 3/4 from the (2n-4)-th term of either sum on, and 108 terms
    later the tail bound is below _REL_TOL times that term.  t enters only the
    tail's cost, which grows like log log(1/t): at n = 2 both sums take 708
    evaluations at t = 0.01, 1 236 at 1e-12 and 702 from 1e-30 to 6e-154.
    """
    exact, term = _term_functions(n, t, offset, rate)
    start, alpha, beta = _ratio_bound(n, offset)
    decay = math.exp(-rate)
    head = []
    partial = 0.0
    a = start + HEAD_TERMS
    for k in range(start, a if rate < math.log(2.0) else sys.maxsize):
        value = exact(k)
        head.append(value)
        partial += value
        rho = ((k + alpha) / (k + beta)) * decay
        if rho < 1.0:
            tail = value * rho / (1.0 - rho)
            if tail <= _REL_TOL * partial:
                total = math.fsum(head)
                rounding = (_eval_rel(n, rate * k) + U) * total
                return HeatTraceSample(n, t, total, tail + rounding, len(head))

    try:
        parts, tail_bound, evaluations = abel_plana_tail(
            term, a, eval_rel=lambda r: _eval_rel(n, rate * r), node_cap=node_cap
        )
    except ConvergenceError as err:
        raise ConvergenceError(f"{label} tail at n={n}, t={t}: {err}") from err
    total = math.fsum([*head, *parts])
    rounding = _eval_rel(n, rate * a) * partial + U * total
    return HeatTraceSample(n, t, total, tail_bound + rounding, len(head) + evaluations)


def trace_split_q(n: int, t: float, *, node_cap: int = DEFAULT_NODE_CAP) -> HeatTraceSample:
    """The q-indexed single sum of the split heat trace, by _split_sum (its summation,
    error bound and work); ConvergenceError past node_cap evaluations in its tail.
    """
    _validate(n, t)
    return _split_sum("split_q", n, t, n - 2, 2.0 * t * (n - 1), node_cap)


def trace_split_w(n: int, t: float, *, node_cap: int = DEFAULT_NODE_CAP) -> HeatTraceSample:
    """The w-indexed single sum of the split heat trace (w = p + n - 1), as trace_split_q."""
    _validate(n, t)
    return _split_sum("split_w", n, t, -1, 2.0 * t, node_cap)


def trace_direct(
    n: int,
    t: float,
    *,
    term_cap: int = DEFAULT_TERM_CAP,
) -> HeatTraceSample:
    """The raw double sum over (q, w = p + n - 1), exact multiplicities, as a cross-check.

    Every term is formed from its multiplicity A[p] A[q] - A[p-1] A[q-1] (one
    exact table A[k] = binom(n+k-1, k), combinatorics.multichoose_table, with
    A[-1] = 0) and its own weight e^(-2tqw), in Dirichlet's hyperbola order:
    rows q <= Q over all w, columns w <= W over q > Q, and a bound for the
    corner q > Q, w > W.  A row (c = A[q], k = p) and a column (c = A[p],
    k = q) are both a line sum_k (c A[k] - c' A[k-1]) e^(-2tm(k+k0)).  Its
    terms from index K on are at most c A[K] e^(-2tm(K+k0)) times either
    1/(1 - rho(K)), where rho(K) = (n+K)/(K+1) e^(-2tm) < 1 bounds every later
    ratio A[k+1] e^(-2tm) / A[k], or (1 - e^(-2tm))^(-n), from A[K+i] <= A[K] A[i]
    and sum_i A[i] r^i = (1 - r)^(-n); log_tail takes the smaller.  The
    corner is that bound for its first column, summed over its q by the same.

    The stop: the q = 1 row is at least L = (n-1) e^(-2t(n-1)) / (1-e^(-2t))^n.
    Q is the smallest k whose corner at Q = k, W = max(k, n-2) is below
    _REL_TOL L/4, and each line ends at the first index whose tail is below
    an equal share of another _REL_TOL L/4 (both found by _first, a line's
    end guessed from the last line's largest exponent).  So the tails stay
    below _REL_TOL/2 of the partial sum, and term_cap is checked before each
    line, and the part of the table it needs, is formed.

    A line is formed in chunks whose weights span at most e^700, each weight
    e^(-2t x0) e^(-2t (x - x0)) for the chunk's first exponent x0, the first
    factor from the extended-range kernel, and multiplicities over 2^s below
    2^700: no weight is subnormal, and math.fsum sums the chunk exactly.  A
    term errs by (y + 3) U, y = 2tx, plus 2^-1074 of the chunk's units if
    subnormal (only where s > 0).  The bound is the tails, the corner,
    (y + 7) U of each chunk for its last y, (length + 1) 2^(s+k-1073) per
    chunk, 2^k <= e^(-2t x0) (at least 2^-1073, for scaling it back), and U
    of the total.  The number of terms grows like (1/t) log(1/t).
    """
    _validate(n, t)
    t2, ln2 = 2.0 * t, math.log(2.0)

    def log_factor(k: int, m: int) -> float:
        # log of a bound of sum_{i >= 0} A[k+i]/A[k] e^(-2tmi), the smaller of the two
        rho = (n + k) / (k + 1) * math.exp(-t2 * m)
        whole = -n * math.log(-math.expm1(-t2 * m))
        return min(-math.log1p(-rho), whole) if rho < 1.0 else whole

    def log_tail(c: int, m: int, k0: int, k: int) -> float:
        return math.log(c * math.comb(n - 1 + k, k)) - t2 * (m * (k + k0)) + log_factor(k, m)

    def log_corner(k: int) -> float:
        q, w = k + 1, max(k, n - 2) + 1  # the corner's first q and w
        p = w - n + 1
        return log_tail(math.comb(n - 1 + p, p), w, 0, q) + log_factor(p, q)

    log_quarter = math.log(0.25 * _REL_TOL * (n - 1)) - t2 * (n - 1) - n * math.log(-math.expm1(-t2))
    big_q = _first(lambda k: log_corner(k) <= log_quarter, 1, 1)
    big_w = max(big_q, n - 2)
    rows = ((q, q, n - 1, 0) for q in range(1, big_q + 1))  # (i, m, k0, start), c = A[i]
    columns = ((p, p + n - 1, 0, big_q + 1) for p in range(big_w - n + 2))
    log_share = log_quarter - math.log(big_q + big_w - n + 2)
    exp, decay = math.exp, -t2
    values, bound, terms, reach, table = [], exp(log_corner(big_q)), 0, 0.0, [1]
    for i, m, k0, start in itertools.chain(rows, columns):
        multichoose_table(n, i + 1, table)
        c, c_prev = table[i], table[i - 1] if i else 0
        rate = t2 * m
        guess = math.ceil(reach / rate) - k0
        end = _first(lambda k: log_tail(c, m, k0, k) <= log_share, start, guess)
        if terms + end - start > term_cap:
            raise ConvergenceError(f"direct sum needed more than {term_cap} terms at n={n}, t={t}")
        terms += end - start
        reach = rate * (end + k0)
        bound += exp(log_tail(c, m, k0, end))
        if end == start:
            continue
        multichoose_table(n, end, table)
        width = max(1, int(700.0 / rate))  # terms per chunk
        for lo in range(start, end, width):
            hi = min(lo + width, end)
            s = max((c * table[hi - 1]).bit_length() - 700, 0)
            scale = 1 << s
            prev = table[lo - 1 : hi - 1] if lo else [0, *table[: hi - 1]]
            weighted = zip(table[lo:hi], prev, range(0, m * (hi - lo), m))
            chunk = math.fsum([(c * a - c_prev * b) / scale * exp(decay * d) for a, b, d in weighted])
            first = t2 * (m * (lo + k0))
            values.append(scaled_product(start=(chunk, s), exp=-first))
            underflow = math.ldexp(hi - lo + 1, max(s + math.floor(-first / ln2), 0) - 1073)
            bound += (t2 * (m * (hi - 1 + k0)) + 7) * U * values[-1] + underflow
    total = math.fsum(values)
    return HeatTraceSample(n, t, total, bound + U * total, terms)


def _first(ok: Callable[[int], bool], start: int, guess: int) -> int:
    """The smallest k >= start with ok(k), where ok, unless true at start, is
    false up to some index and true from it on.

    Gallops from guess by steps 1, 2, 4, ... to bracket that index, then bisects.
    """
    if ok(start):
        return start
    lo, hi, step = start, max(start + 1, guess), 1
    if ok(hi):
        while hi - step > lo and ok(hi - step):
            hi, step = hi - step, 2 * step
        lo = max(lo, hi - step)
    else:
        lo = hi
        while not ok(lo + step):
            lo, step = lo + step, 2 * step
        hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def scaled_trace(n: int, t: float) -> float:
    """t**n * G(t) via the two split sums; tends to Gamma(n+1) * c(n) as t -> 0."""
    part_q = trace_split_q(n, t)
    part_w = trace_split_w(n, t)
    return scale_by_t_power(n, t, part_q.value + part_w.value)


def scale_by_t_power(n: int, t: float, total: float) -> float:
    """t**n * total for n <= 1021, also where t**n alone is not a normal float: with
    t = f 2^e, f in [1/2, 1), f^n times total's mantissa is a normal float, and
    the kernel adds the exponents.  ValueError past n = 1021, where f^n may be
    subnormal, and where a nonzero product is not a normal float.
    """
    if n > 1021:
        raise ValueError(f"scale_by_t_power needs n <= 1021, got n = {n}")
    (fraction, exponent), (mantissa, shift) = math.frexp(t), math.frexp(total)
    try:
        scaled = scaled_product(start=(fraction**n * mantissa, shift + n * exponent))
    except OverflowError:
        scaled = math.inf
    if total and not sys.float_info.min <= abs(scaled) <= sys.float_info.max:
        log = n * math.log(t) + math.log(abs(total))
        raise ValueError(f"t^n G(t) at n = {n}, t = {t} is about e^{log:.3g}, not a normal float")
    return scaled
