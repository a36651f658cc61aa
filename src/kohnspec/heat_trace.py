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

Every sum here stops on one rule: its tail below _REL_TOL times its own
partial sum, which, as a sum of positive terms, is a lower bound of the value
(a split tail integral may take its largest term instead, a lower bound too).

Both split sums go through one helper, _split_sum, at a cost bounded by n
and log(1/t).  It adds the first HEAD_TERMS terms exactly (math.fsum).  If
a geometric tail bound certifies the rest before then (large t), it stops
there; terms that at least halve per index are summed on until it does.
Otherwise the tail from a = start + HEAD_TERMS on is the midpoint Abel-Plana
sum (special_functions.abel_plana_tail), with c = a - 1/2,

    integral_c^inf f(x) dx + 2 Im integral_0^inf f(c + iy) / (e^(2 pi y) + 1) dy,

both integrals from integrate_decaying.  The terms are analytic for
Re z > 0 (the poles of 1/(1 - e^(-2tz)) lie on the imaginary axis) and grow
like |y|^(n-2) along Re z = c, so the formula holds with no remainder: the
reported error bound is the stopped tail, or the two quadratures' error
estimates, plus a first-order bound on floating-point rounding.

Every sum needs t > 0 and the trace and the numbers that form it inside the
normal floats, nothing more: supported_t gives that interval of t for each n.

Denominators 1 - exp(-2tq) are formed with expm1, also at complex
arguments, so the small-t limit (t/(1 - e^(-at)))^n -> a^(-n) survives in
floating point; that is what makes the scaled trace t**n * G(t) stable down
to the lower end of that interval.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .combinatorics import multichoose_table
from .errors import DEFAULT_NODE_CAP, DEFAULT_TERM_CAP, ConvergenceError, check_n
from .special_functions import HEAD_TERMS, U, abel_plana_tail, integrate_decaying

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
    """One evaluation of a heat-trace sum.

    error_bound covers truncation (the stopped tail or the tail's two
    quadratures) and floating-point rounding.  terms_used counts every
    evaluation of a term: summed terms and quadrature nodes.
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


def _split_sum(
    label: str,
    n: int,
    t: float,
    term: Callable,
    start: int,
    shifts: tuple[int, int],
    rate: float,
    node_cap: int,
) -> HeatTraceSample:
    """sum_{k >= start} term(n, t, k): exact head plus Abel-Plana tail.

    rate is the decay rate of the term in k; rho(k) = ((k + alpha)/(k + beta))
    e^(-rate), with (alpha, beta) = shifts, decreases in k and bounds every
    later term(k+1)/term(k).  Once rho(k) < 1 the tail after term k is at
    most term * rho / (1 - rho), and the sum stops when that is below
    _REL_TOL * partial.  Terms that at least halve per index (rate >= log 2)
    are summed on to that stop.  Otherwise abel_plana_tail adds the terms
    from a = start + HEAD_TERMS on, both its integrals to a quarter of the
    stop's share of partial or of the term at the first k >= a with
    rho(k) < 1, about the largest, whichever is larger; the stated rounding
    of a term at modulus r is _eval_rel(n, rate r).

    n bounds the work; t enters only the integrals'.  The head has at most
    max(HEAD_TERMS, 2n + 110) terms: where e^(-rate) <= 1/2, rho <= 3/4
    from the (2n-4)-th term of either sum on, and 108 terms later the tail
    bound is below _REL_TOL times that term, which partial holds.  The tail
    adds one term and the two integrals' nodes, each at most node_cap
    (ConvergenceError past it).  The first integral's geometric panels, about
    log2(1/t), take both sums from 3 410 evaluations at (n, t) = (2, 1e-6)
    to 50 194 at 6e-154.
    """
    alpha, beta = shifts
    decay = math.exp(-rate)
    head = []
    partial = 0.0
    a = start + HEAD_TERMS
    for k in range(start, a if rate < math.log(2.0) else sys.maxsize):
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
    c = a - 0.5
    try:
        quad = integrate_decaying(
            lambda u: term(n, t, c + u), rate, tol=tol, poly_degree=n - 2, node_cap=node_cap,
            eval_rel=lambda u: _eval_rel(n, rate * (c + u)),
        )
        parts, tail_bound, evaluations = abel_plana_tail(
            lambda z: term(n, t, z), a, integral=quad, poly_degree=n - 2,
            eval_rel=lambda r: _eval_rel(n, rate * r), node_cap=node_cap,
        )
    except ConvergenceError as err:
        raise ConvergenceError(f"{label} tail at n={n}, t={t}: {err}") from err
    total = math.fsum([*head, *parts])
    rounding = _eval_rel(n, rate * a) * partial + U * total
    return HeatTraceSample(n, t, total, tail_bound + rounding, len(head) + 1 + evaluations)


def trace_split_q(n: int, t: float, *, node_cap: int = DEFAULT_NODE_CAP) -> HeatTraceSample:
    """The q-indexed single sum of the split heat trace.

    Term ratios are bounded by rho(q) = ((n+q-1)/(q+1)) * exp(-2t(n-1)),
    decreasing in q; the terms decay at rate 2t(n-1).  See _split_sum for
    the summation, its error bound and its work; ConvergenceError when the
    tail integral would need more than node_cap nodes.
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
        node_cap,
    )


def trace_split_w(n: int, t: float, *, node_cap: int = DEFAULT_NODE_CAP) -> HeatTraceSample:
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
        node_cap,
    )


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

    Each line is formed in bulk at its own power of two 2^(j-s): every
    multiplicity is divided by 2^s, which puts it below 2^960, and every weight
    is e^(j log 2 - x) for its exponent x, with j log 2 at most the line's
    first exponent.  So no term overflows, and math.fsum sums the line exactly
    before one rounding.  A term's relative error is at most (2x + 2j + 4) U
    (x, j log 2, their difference, exp to 1 ulp, the division, the product);
    an underflow adds at most 2^(b-s-1073) in the line's units, b the bit
    length of c times the line's last table entry.  The bound is the tails,
    the corner, (2 x_max + 2j + 6) U of each line, (length + 2) 2^(b-j-1073)
    per line for underflows (at least 2^-1073, which covers scaling the line
    back), and U of the total.  The number of terms grows like (1/t) log(1/t).
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
    exp = math.exp
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
        bits = (c * table[end - 1]).bit_length()
        s = max(bits - 960, 0)
        j = int(rate * (start + k0) / ln2)
        scale, shift = 1 << s, j * ln2
        prev = table[start - 1 : end - 1] if start else [0, *table[: end - 1]]
        exponents = range(m * (start + k0), m * (end + k0), m)
        line = math.fsum(
            [
                (c * a - c_prev * b) / scale * exp(shift - t2 * x)
                for a, b, x in zip(table[start:end], prev, exponents)
            ]
        )
        values.append(math.ldexp(line, s - j))
        underflow = math.ldexp(end - start + 2, max(bits - j, 0) - 1073)
        bound += (2.0 * reach + 2 * j + 6) * U * values[-1] + underflow
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
