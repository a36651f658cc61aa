import functools
import math
import sys
import time
from fractions import Fraction

import mpmath as mp
import pytest

from kohnspec.coefficients import series_zeta
from kohnspec.combinatorics import dim_hpq
from kohnspec.errors import DEFAULT_NODE_CAP, DEFAULT_TERM_CAP, MAX_N, ConvergenceError
from kohnspec.heat_trace import (
    _ratio_bound,
    _term_functions,
    scale_by_t_power,
    scaled_trace,
    supported_t,
    trace_direct,
    trace_split_q,
    trace_split_w,
)
from kohnspec.special_functions import HEAD_TERMS, U

HEAT_MAX_N = MAX_N["heat"][0]


def test_split_q_large_t_dominated_by_first_term():
    # at t = 10, n = 2 the q = 1 term is e^(-20)/(1 - e^(-20))^2 and the
    # next one is ~4e-18, 2e-9 of it.  The stop is relative to the partial
    # sum, so that term is added too, and the bound covers the third, ~e^(-60)
    first, second, third = (math.exp(-20.0 * q) / (-math.expm1(-20.0 * q)) ** 2 for q in (1, 2, 3))
    got = trace_split_q(2, 10.0)
    assert got.terms_used == 2
    assert got.value == pytest.approx(first + second, rel=1e-15)
    assert third <= got.error_bound <= 1e-13 * got.value


def test_split_w_matches_manual_partial_sum():
    n, t = 2, 0.5
    manual = math.fsum(
        math.comb(w - 1, n - 2)
        * math.exp(-2 * t * w)
        / (-math.expm1(-2 * t * w)) ** n
        for w in range(n - 1, 200)
        if w >= 1
    )
    got = trace_split_w(n, t)
    assert got.value == pytest.approx(manual, rel=1e-12)


def test_direct_trace_large_t_asymptote():
    # leading mode contributes dim(2,0,1) * e^(-2t) = 2 e^(-20)
    got = trace_direct(2, 10.0)
    assert got.value == pytest.approx(2 * math.exp(-20.0), rel=1e-8)


def test_direct_trace_dominates_first_mode():
    for n in (2, 3, 4):
        for t in (0.2, 1.0, 3.0):
            lower = dim_hpq(n, 0, 1) * math.exp(-2 * (n - 1) * t)
            assert trace_direct(n, t).value >= lower


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("t", [0.05, 0.2, 1.0, 5.0])
def test_split_agrees_with_direct(n, t):
    direct = trace_direct(n, t)
    part_q = trace_split_q(n, t)
    part_w = trace_split_w(n, t)
    diff = abs(direct.value - (part_q.value + part_w.value))
    assert diff <= direct.error_bound + part_q.error_bound + part_w.error_bound


@pytest.mark.parametrize("t", [0.0, -0.0, -1.0])
def test_time_must_be_positive(t):
    low, high = supported_t(2)
    named = f"t must be positive; at n = 2 heat supports t >= about {low:.3g} and t <= about {high:.3g}"
    for fn in (trace_split_q, trace_split_w, trace_direct):
        with pytest.raises(ValueError, match=named):
            fn(2, t)


def test_time_below_the_float_range_names_the_quantity_and_the_interval():
    # below the lowest t the float range rejects it, before any work: even a
    # cap the sum would exceed at once gives the range message
    low, high = supported_t(2)
    named = (
        r"the denominator \(1 - e\^\(-2t\)\)\^n is about e\^-70\d, below the float range; "
        f"at n = 2 heat supports t >= about {low:.3g} and t <= about {high:.3g}"
    )
    with pytest.raises(ValueError, match=named):
        trace_split_q(2, 0.99 * low, node_cap=1)


# supported_t's lowest t: at these n, where (1 - e^(-2t))^n, about (2t)^n, comes
# within the factor 64 of headroom of the smallest normal float
LOWEST_T = {2: 5.97e-154, 3: 5.63e-103, 5: 3.39e-62, 8: 3.15e-39, 20: 2.76e-16, 40: 1.2e-8}


@pytest.mark.parametrize("n", sorted(LOWEST_T))
def test_lowest_t_is_where_the_denominator_leaves_the_normal_floats(n):
    low, high = supported_t(n)
    assert low == pytest.approx(LOWEST_T[n], rel=0.01)
    # every 10^-k below it is named, none raises from inside the message
    for k in range(6, 330):
        t = 10.0**-k
        if 0.0 < t < low:
            with pytest.raises(ValueError, match=f"heat supports t >= about {low:.3g} and"):
                trace_split_w(n, t)
    t = 1.001 * low
    assert trace_split_q(n, t).value > 0.0 and trace_split_w(n, t).value > 0.0


def _heat_polynomial(n, t):
    """P_n(1/t), the part of G(t) polynomial in 1/t, for n = 2, 3; G - P_n ~ e^(-2 pi^2 / t)."""
    t, pi2 = mp.mpf(t), mp.pi**2
    if n == 2:
        return pi2 / (12 * t**2) - 1 / (2 * t) + mp.mpf(1) / 12
    return pi2 / (24 * t**3) - (pi2 / 24 + mp.mpf(1) / 8) / t**2 + 1 / (4 * t) - mp.mpf(1) / 24


@pytest.mark.parametrize("n", [2, 3])
def test_split_sums_match_the_exact_polynomial_down_to_the_lowest_t(n):
    # G - P_n is e^(-2 pi^2 / t), 3e-29 at t = 0.3, times a polynomial in 1/t:
    # far below the bounds from there down
    low, _ = supported_t(n)
    ts = [0.3, 0.1, 1e-2, 1e-4, 1e-8, 1e-16, 1e-32, 1e-64, 1e-128]
    with mp.workdps(40):
        for t in [t for t in ts if t > low] + [1.001 * low]:
            part_q, part_w = trace_split_q(n, t), trace_split_w(n, t)
            diff = abs(mp.mpf(part_q.value) + mp.mpf(part_w.value) - _heat_polynomial(n, t))
            assert diff <= part_q.error_bound + part_w.error_bound, (t, part_q, part_w)


@pytest.mark.parametrize("n", range(2, 21))
def test_scaled_trace_at_the_lowest_t_is_the_weyl_limit(n):
    # t^n G(t) -> n! c(n) as t -> 0, here to about t times n
    t = 1.001 * supported_t(n)[0]
    scaled = scale_by_t_power(n, t, trace_split_q(n, t).value + trace_split_w(n, t).value)
    assert scaled == pytest.approx(math.factorial(n) * series_zeta(n).value, rel=1e-13)


def test_term_cap():
    with pytest.raises(ConvergenceError):
        trace_direct(2, 1e-4, term_cap=10)


@pytest.mark.parametrize("n, t", [(2, 1e-30), (2, 1e-150), (20, 1e-15), (40, 2e-8)])
def test_direct_sum_at_small_t_stops_at_the_term_cap_at_once(n, t):
    # about (1/t) log(1/t) terms, past any cap; its first line alone shows it,
    # before a table or a list of the sqrt(1/t) lines is formed
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match=f"more than {DEFAULT_TERM_CAP} terms"):
        trace_direct(n, t)
    assert time.perf_counter() - start < 1.0


def test_scaled_trace_approaches_its_limit():
    # t^n G(t) tends to Gamma(n+1) times the counting coefficient; at
    # t = 1e-3 the n = 2 value is within 1e-3 of pi^2/12
    limit2 = math.pi**2 / 12
    assert abs(scaled_trace(2, 1e-3) - limit2) < 1e-3
    errs2 = [abs(scaled_trace(2, t) - limit2) for t in (0.1, 0.01, 0.001)]
    assert errs2[2] < errs2[1] < errs2[0]

    limit3 = math.pi**2 / 24
    errs3 = [abs(scaled_trace(3, t) - limit3) for t in (0.1, 0.01, 0.001)]
    assert errs3[2] < errs3[1] < errs3[0]


def test_split_q_term_stable_at_tiny_t():
    # e^(-2t)/(1 - e^(-2t))^2 ~ 1/(2t)^2; the expm1 form must not collapse
    t = 1e-12
    for split_q_term, q in zip(_term_functions(2, t, 0, 2.0 * t), (1, 1.0)):
        assert split_q_term(q) * t**2 == pytest.approx(0.25, rel=1e-3)



@pytest.mark.parametrize("n", [2, 3, 5, 8, 40, 124, 500])
def test_split_sum_ratio_bound_holds_from_its_start(n):
    # each split sum is binom(k + offset, n - 2) e^(-rate k) / (1 - e^(-2tk))^n;
    # rho(k) = ((k + alpha)/(k + beta)) e^(-rate) must bound term(k+1)/term(k)
    # from start, the first k >= 1 with a nonzero binomial, on
    low, high = supported_t(n)
    for t in (low, math.sqrt(low) * math.sqrt(high), high):
        for offset, rate in ((n - 2, 2.0 * t * (n - 1)), (-1, 2.0 * t)):
            start, alpha, beta = _ratio_bound(n, offset)
            assert math.comb(start + offset, n - 2) != 0
            assert all(math.comb(k + offset, n - 2) == 0 for k in range(1, start))
            with mp.workdps(30):
                decay, t2 = mp.exp(-mp.mpf(rate)), 2 * mp.mpf(t)
                for k in [*range(start, start + 200), 10**3, 10**4, 10**5, 10**6]:
                    binom = Fraction(math.comb(k + 1 + offset, n - 2), math.comb(k + offset, n - 2))
                    denom = (mp.expm1(-t2 * k) / mp.expm1(-t2 * (k + 1))) ** n
                    ratio = mp.mpf(binom.numerator) / binom.denominator * denom * decay
                    assert ratio <= mp.mpf(k + alpha) / (k + beta) * decay, (n, t, offset, k)


# ------------------------------------------------- mpmath oracle sweep

ORACLE_DPS = 20


@functools.cache
def _gauss_legendre_nodes(dps=ORACLE_DPS, degree=4):
    from mpmath.calculus.quadrature import GaussLegendre

    with mp.workdps(dps):
        return GaussLegendre(mp.mp).calc_nodes(degree, mp.mp.prec)  # 3 * 2^(degree-1) points


def _oracle_split(n, t, which, head=100, order=3, dps=ORACLE_DPS, degree=4):
    """One split sum at dps digits (20 by default), independently of kohnspec.

    head terms summed directly, then the Euler-Maclaurin tail: the integral
    by Gauss-Legendre (24 points at degree 4) on panels [x, min(2x, x + 8/rate)]
    out to (3 dps + 4 + 4n)/rate past the head (x^(n-2) e^(-rate x) has
    dropped below 10^-dps of its peak there), and mpmath's numerical
    derivatives.  With the defaults the dropped Euler-Maclaurin remainder is
    far below 1e-20 relative; (head, order) = (1000, 8) puts it near
    18!/(2 pi 1000)^18, below 1e-52.
    """
    with mp.workdps(dps):
        tt = mp.mpf(t)
        if which == "q":
            start, sign, rate = 1, 1, 2 * tt * (n - 1)
        else:
            start, sign, rate = n - 1, -1, 2 * tt
        norm = mp.factorial(n - 2)

        def f(x):
            poly = mp.mpf(1)
            for i in range(1, n - 1):
                poly *= x + sign * i
            return poly / norm * mp.exp(-rate * x) / (-mp.expm1(-2 * tt * x)) ** n

        a = start + head
        total = mp.fsum(f(mp.mpf(k)) for k in range(start, a))
        lo, end = mp.mpf(a), a + (3 * dps + 4 + 4 * n) / rate
        nodes = _gauss_legendre_nodes(dps, degree)
        while lo < end:
            hi = min(2 * lo, lo + 8 / rate)
            half, mid = (hi - lo) / 2, (hi + lo) / 2
            total += half * mp.fsum(w * f(mid + half * x) for x, w in nodes)
            lo = hi
        derivs = list(mp.diffs(f, a, 2 * order - 1))
        total += derivs[0] / 2
        for j in range(1, order + 1):
            total -= mp.bernoulli(2 * j) / mp.factorial(2 * j) * derivs[2 * j - 1]
        return total


@functools.cache
def _oracle_trace_50(n, t):
    """G(t) = split_q + split_w at 50 digits: Gauss-Legendre at 48 points, head 1000, order 8."""
    with mp.workdps(50):
        return mp.fsum(_oracle_split(n, t, which, head=1000, order=8, dps=50, degree=5) for which in "qw")


def _oracle_plain_sum(n, t, which, dps=ORACLE_DPS):
    """One split sum at dps digits (20 by default) by plain summation, cheap at large n and moderate t.

    Each binomial follows from the last by its exact ratio.  Past the peak
    the term ratio is at most rho(k) = (binomial ratio) * e^(-rate), which
    falls in k, so the sum stops once term * rho / (1 - rho) < 1e-22 * sum.
    """
    with mp.workdps(dps):
        tt = mp.mpf(t)
        if which == "q":
            k, coef, rate = 1, mp.mpf(n - 1), 2 * tt * (n - 1)
            grow = lambda k: mp.mpf(n + k - 1) / (k + 1)  # binom(n+k-1, n-2) / binom(n+k-2, n-2)
        else:
            k, coef, rate = n - 1, mp.mpf(1), 2 * tt
            grow = lambda k: mp.mpf(k) / (k - n + 2)  # binom(k, n-2) / binom(k-1, n-2)
        total = mp.mpf(0)
        while True:
            term = coef * mp.exp(-rate * k) / (-mp.expm1(-2 * tt * k)) ** n
            total += term
            rho = grow(k) * mp.exp(-rate)
            if rho < 1 and term * rho / (1 - rho) < mp.mpf(10) ** -22 * total:
                return total
            coef *= grow(k)
            k += 1


def test_plain_oracle_agrees_with_the_split_oracle():
    for which in ("q", "w"):
        ref = _oracle_split(5, 0.05, which)
        assert abs(_oracle_plain_sum(5, 0.05, which) - ref) <= 1e-16 * ref


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("t", [1e-6, 1e-4, 1e-2, 0.1, 1.0, 10.0])
def test_split_sums_against_mpmath(n, t):
    # every stop is relative to the partial sum, so the bound is held to
    # 1e-12 of the value even where the value is tiny
    for which, fn in (("q", trace_split_q), ("w", trace_split_w)):
        got = fn(n, t)
        ref = _oracle_split(n, t, which)
        assert abs(mp.mpf(got.value) - ref) <= got.error_bound, (which, got)
        assert got.error_bound <= 1e-12 * got.value, (which, got)
        assert got.terms_used <= 5000, (which, got)


@pytest.mark.parametrize("n", [45, 53])
def test_split_sums_against_mpmath_large_n(n):
    # at t = 1e-6 the polynomial factor of the tail terms alone passes 1e308
    # (n = 53) and the quadrature's tail weight overflows (n = 45)
    for which, fn in (("q", trace_split_q), ("w", trace_split_w)):
        got = fn(n, 1e-6)
        ref = _oracle_split(n, 1e-6, which)
        assert abs(mp.mpf(got.value) - ref) <= got.error_bound, (which, got)
        assert got.error_bound <= 1e-12 * got.value, (which, got)


def test_trace_beyond_float_range_is_a_value_error():
    for fn in (trace_split_q, trace_split_w, trace_direct):
        with pytest.raises(ValueError, match="float range"):
            fn(60, 1e-6)
    trace_split_q(60, 5e-6)  # inside the range the error names


@pytest.mark.parametrize("n, t", [(2, 0.01), (3, 0.02), (5, 0.05)])
def test_direct_bound_covers_rounding(n, t):
    got = trace_direct(n, t)
    ref = _oracle_split(n, t, "q") + _oracle_split(n, t, "w")
    assert abs(mp.mpf(got.value) - ref) <= got.error_bound


# Values, bounds (both as float.hex) and evaluation counts of the split sums:
# large t stops in the head, the rest run the tail, and from n = 300 on
# split_q stops at its first term.  Each count of a sum that runs the tail
# includes one term and both integrals' nodes.  The rows that run the tail
# were re-pinned when the Abel-Plana tail replaced the Euler-Maclaurin one
# (its integral from a - 1/2 plus one along Re z = a - 1/2, in place of the
# Bernoulli corrections and their contour), and the quadrature came to book
# each panel's rounding at its own right end.  Values moved by up to 103 ulp
# (split_w at (500, 0.32), 1.4e-14 relative), each within its new bound of
# the 50-digit oracle; bounds moved by 0.62x to 1.0x; counts rose by
# 311-335 at n <= 40 (the second integral) and fell at n = 300..500.
# They were re-pinned again when e^(-x) and the binomial came to meet in the
# extended-range kernel: values moved by 0 ulp, except 1 at (400, 0.3) and
# 15 at (500, 0.32) for split_w; bounds by a factor 0.9957 to 1.0015.
_PINNED_SPLIT_SUMS = [
    (trace_split_q, 2, 0.5, "0x1.2fc510cfdb188p+0", "0x1.7602304a273f0p-44", 30),
    (trace_split_w, 2, 0.5, "0x1.2fc510cfdb188p+0", "0x1.7602304a273f0p-44", 30),
    (trace_split_q, 3, 1e-06, "0x1.3c13df10d71b6p+58", "0x1.11dcafffd5310p+13", 1657),
    (trace_split_w, 3, 1e-06, "0x1.895d768c0115dp+55", "0x1.b15c3d0c5793ep+9", 1713),
    (trace_split_q, 5, 0.01, "0x1.429b7a2285bd5p+30", "0x1.a37b0237eaaa8p-16", 1001),
    (trace_split_w, 5, 0.01, "0x1.029f6268b733cp+24", "0x1.6db69b0322bf0p-22", 1161),
    (trace_split_q, 8, 0.001, "0x1.770d1c9ae3d62p+74", "0x1.26414ce411eb7p+29", 1057),
    (trace_split_w, 8, 0.001, "0x1.e90403431347ap+62", "0x1.14a7617ef2f00p+18", 1265),
    (trace_split_q, 40, 0.0001, "0x1.ba28340e945e6p+496", "0x1.314a5a497e9bbp+453", 1185),
    (trace_split_w, 40, 0.0001, "0x1.292c20bf3cec7p+479", "0x1.25480c055e862p+436", 1497),
    (trace_split_q, 300, 0.2, "0x1.e9de8a5bf7868p+315", "0x1.3f86fce2998c1p+275", 1),
    (trace_split_w, 300, 0.2, "0x1.148c74066a9c9p+306", "0x1.bf88ec42abcc7p+265", 1377),
    (trace_split_q, 400, 0.3, "0x1.73ca55a193bfdp+122", "0x1.50df198d153a9p+82", 1),
    (trace_split_w, 400, 0.3, "0x1.ae828530af338p+112", "0x1.e4a96338d42fap+72", 1281),
    (trace_split_q, 500, 0.32, "0x1.a3e36a16d6b0dp+88", "0x1.dedaeccd32cefp+48", 1),
    (trace_split_w, 500, 0.32, "0x1.974f87feda845p+78", "0x1.19b6949a7d291p+39", 1281),
]


@pytest.mark.parametrize(
    "fn, n, t, value, bound, terms",
    _PINNED_SPLIT_SUMS,
    ids=[f"{fn.__name__}-{n}-{t}" for fn, n, t, *_ in _PINNED_SPLIT_SUMS],
)
def test_split_sums_arithmetic_is_pinned(fn, n, t, value, bound, terms):
    got = fn(n, t)
    assert (got.value.hex(), got.error_bound.hex(), got.terms_used) == (value, bound, terms)


# The four bench --verify inputs.
_BENCH_VERIFY = [(3, 0.001115), (3, 0.002859), (5, 0.00202), (8, 0.002929)]


@pytest.mark.parametrize("n, t", _BENCH_VERIFY + [(n, t) for n in (2, 3, 8) for t in (0.05, 0.5, 10.0)])
def test_direct_against_a_50_digit_oracle(n, t):
    # every chunk of a line is summed exactly, so the bound is the stop's
    # 1e-13/2 plus each term's rounding, near (y + 7) 2^-53 of its chunk
    got = trace_direct(n, t)
    with mp.workdps(50):
        assert abs(mp.mpf(got.value) - _oracle_trace_50(n, t)) <= got.error_bound, got
    assert got.error_bound <= 2e-13 * got.value, got


@pytest.mark.parametrize("n, t", [(150, 0.02), (200, 0.05), (200, 0.8), (400, 0.3), (582, 0.4884)])
def test_direct_where_multiplicities_or_weights_leave_the_float_range(n, t):
    # the multiplicities pass 1e308 (the trace is about e^456 at (200, 0.05))
    # and at (582, 0.4884) the weights fall below 1e-308 while the terms do
    # not: each chunk of a line is formed at its own scale
    got = trace_direct(n, t)
    with mp.workdps(30):
        ref = _oracle_plain_sum(n, t, "q") + _oracle_plain_sum(n, t, "w")
        assert abs(mp.mpf(got.value) - ref) <= got.error_bound, got
    assert got.error_bound <= 1e-12 * got.value, got


# Values, bounds (float.hex) and term counts of the direct double sum in
# hyperbola order with exact line sums: the bench --verify inputs, small n over
# three decades of t, and larger n up to the largest, where multiplicities
# and weights leave the float range.  The rows the two tests above share were
# taken after those held them within their bounds of the oracles.  They were
# re-pinned when each line came to be formed in chunks, each at its scale from
# the extended-range kernel: values moved by 0-32 ulp at n <= 53, by 83 ulp
# at (150, 0.02), 18 at (200, 0.05), 111 at (200, 0.8) and 281 at
# (582, 0.4884) (from 8.8e-14 to 2.9e-14 off the oracle there); bounds fell
# by a factor 0.22 to 0.90; term counts did not move.
_PINNED_DIRECT = [
    (3, 0.001115, '0x1.1a8253cf4b553p+28', '0x1.54920abc67cccp-17', 160650),
    (3, 0.002859, '0x1.0b838817a4022p+24', '0x1.054c6bff5b385p-21', 55769),
    (5, 0.00202, '0x1.e5a77dee63d26p+41', '0x1.911b90a050f63p-3', 79417),
    (8, 0.002929, '0x1.188261d274d9fp+62', '0x1.e080fe33b98a2p+17', 49775),
    (2, 0.05, '0x1.3f11f5226336bp+8', '0x1.ded7b15df11f4p-39', 2298),
    (2, 0.5, '0x1.2fc510cfdb26bp+1', '0x1.13f85d13dff84p-45', 142),
    (2, 10.0, '0x1.1b48657c9a81dp-28', '0x1.aa9e3231183acp-76', 3),
    (3, 0.05, '0x1.810aa86e2b250p+11', '0x1.05a510c08691dp-34', 2027),
    (3, 0.5, '0x1.9a6fbb7a85d3ep+0', '0x1.49480d127fee0p-46', 116),
    (3, 10.0, '0x1.d635b711e6a5ap-57', '0x1.f5d8d8b25b1fap-104', 2),
    (4, 0.05, '0x1.0b9f4bb2914dep+15', '0x1.2d037bdf39272p-30', 1919),
    (4, 0.5, '0x1.2d80c2ac46b6ep+0', '0x1.f644afa21bb14p-47', 105),
    (4, 10.0, '0x1.5ae191d691015p-85', '0x1.df091af4d2671p-132', 2),
    (5, 0.05, '0x1.7b82ddcc9526cp+18', '0x1.21d6fc8c9fd66p-27', 1859),
    (5, 0.5, '0x1.b3a2398d8ad9ap-1', '0x1.acdcaceb904c9p-47', 98),
    (5, 10.0, '0x1.dfcfd257f3faap-114', '0x1.96fe291da80a7p-160', 2),
    (6, 0.05, '0x1.0b10f8817320dp+22', '0x1.b7907dacef8c5p-24', 1810),
    (6, 0.5, '0x1.31b1558554a15p-1', '0x1.14d848f213f18p-47', 94),
    (6, 10.0, '0x1.3e91753ae31c8p-142', '0x1.409172e2fe847p-188', 2),
    (7, 0.05, '0x1.727e45c0ffddcp+25', '0x1.3eb1d72169fd1p-20', 1771),
    (7, 0.5, '0x1.a1e7baac6f731p-2', '0x1.324a88f60b383p-47', 88),
    (7, 10.0, '0x1.9b45b45153e8cp-171', '0x1.def9e777f2a2bp-217', 2),
    (8, 0.05, '0x1.fa3be93d9146ep+28', '0x1.8e2bc31b30d24p-16', 1731),
    (8, 0.5, '0x1.17a9500eb9416p-2', '0x1.9e2a15a9235ebp-48', 86),
    (8, 10.0, '0x1.040f107dc64c8p-199', '0x1.582044fa6f176p-245', 2),
    (30, 0.05, '0x1.65bc01164952cp+102', '0x1.bc3e4ab253699p+57', 1319),
    (53, 0.01, '0x1.10294bcc4a322p+304', '0x1.e6771d3cc8dcep+258', 6450),
    (150, 0.02, '0x1.6d5c019ff0215p+699', '0x1.6291f52ec831dp+655', 6467),
    (200, 0.05, '0x1.89734b8fb701dp+657', '0x1.b4ea10f6df55ap+613', 3160),
    (200, 0.8, '0x1.4845f3c4fb247p-387', '0x1.d55792f137439p-431', 125),
    (582, 0.4884, '0x1.12257eda8bfa0p-413', '0x1.5f5ae1b96a435p-456', 552),
]


@pytest.mark.parametrize(
    "n, t, value, bound, terms", _PINNED_DIRECT, ids=[f"{n}-{t}" for n, t, *_ in _PINNED_DIRECT]
)
def test_direct_arithmetic_is_pinned(n, t, value, bound, terms):
    got = trace_direct(n, t)
    assert (got.value.hex(), got.error_bound.hex(), got.terms_used) == (value, bound, terms)
    # the cap counts every term, checked before each line: exactly terms_used fit
    assert trace_direct(n, t, term_cap=terms) == got
    with pytest.raises(ConvergenceError, match=f"more than {terms - 1} terms"):
        trace_direct(n, t, term_cap=terms - 1)


@pytest.mark.parametrize("n, t", [(2, 400.0), (53, 10.0)])
def test_trace_below_float_range_is_a_value_error(n, t):
    # the trace, about e^(-2t(n-1)), is below the smallest normal float;
    # the sums would all read 0 with a 0 bound
    t_max = (-math.log(sys.float_info.min) - math.log(64.0)) / (2 * (n - 1))
    for fn in (trace_split_q, trace_split_w, trace_direct):
        with pytest.raises(ValueError, match="below the float range") as info:
            fn(n, t)
        assert f"t <= about {t_max:.3g}" in str(info.value)
    for fn in (trace_split_q, trace_split_w, trace_direct):
        got = fn(n, 0.999 * t_max)
        assert got.value >= sys.float_info.min
        assert got.error_bound > 0.0


@pytest.mark.parametrize("t", [0.3, 0.6])
@pytest.mark.parametrize("n", [203, 259])
def test_split_sums_past_the_float_form_of_the_tail(n, t):
    # from n = 203 the Bernoulli corrections of the Euler-Maclaurin tail
    # that split_w once had needed r^(2j-1) past 1e308 (and B_2j itself from
    # n = 259); the Abel-Plana tail forms no such number.  At t = 0.6 the
    # first correction was about 1e8 times the printed bound, so its
    # replacement, the integral along Re z = a - 1/2, is checked in sign and size.
    for which, fn in (("q", trace_split_q), ("w", trace_split_w)):
        got = fn(n, t)
        ref = _oracle_plain_sum(n, t, which)
        assert abs(mp.mpf(got.value) - ref) <= got.error_bound, (which, got)
        assert got.error_bound <= 1e-11 * got.value, (which, got)


@pytest.mark.parametrize("n, t", [(200, 0.8), (300, 1.0), (550, 0.4835), (582, 0.4884)])
def test_heat_sums_where_the_trace_is_tiny(n, t):
    # the trace is 4e-117 down to 1e-238: an absolute floor of 1e-15 once
    # stopped each sum after a few terms, with split_w 48% low at (200, 0.8)
    # and bounds up to 120 times the value; each stop is now relative.  The
    # split_w terms halve per index, so they are summed on to that stop: the
    # Euler-Maclaurin tail after 64 terms once bounded (300, 1.0) only to
    # 4e19 times the value
    with mp.workdps(30):
        refs = {which: _oracle_plain_sum(n, t, which) for which in ("q", "w")}
        parts = {"q": trace_split_q(n, t), "w": trace_split_w(n, t)}
        direct = trace_direct(n, t)
        for got, ref in ((parts["q"], refs["q"]), (parts["w"], refs["w"]), (direct, sum(refs.values()))):
            assert abs(mp.mpf(got.value) - ref) <= got.error_bound, got
            assert got.error_bound <= 1e-11 * got.value, got
        want = mp.mpf(t) ** n * sum(refs.values())
        scaled = scale_by_t_power(n, t, parts["q"].value + parts["w"].value)
        assert abs(scaled - want) <= 1e-12 * want


@pytest.mark.parametrize("n, t", [(500, 0.15), (582, 0.2), (700, 0.25)])
def test_heat_where_the_euler_maclaurin_disk_majorants_left_the_float_range(n, t):
    # outside heat's range while its tails bounded |f| on disks of radius a/2
    # (binom(1.5a + n - 2, n - 2) passed 1e308).  Both split sums hold their
    # bounds of the oracle; the direct sum at (700, 0.25) books 1.2e-6 of the
    # value for underflowing weights, far above its error, yet still covers it
    with mp.workdps(30):
        refs = {which: _oracle_plain_sum(n, t, which) for which in ("q", "w")}
        for which, fn in (("q", trace_split_q), ("w", trace_split_w)):
            got = fn(n, t)
            assert abs(mp.mpf(got.value) - refs[which]) <= got.error_bound, (which, got)
            assert got.error_bound <= 3e-12 * got.value, (which, got)
        direct = trace_direct(n, t)
        assert abs(mp.mpf(direct.value) - refs["q"] - refs["w"]) <= direct.error_bound, direct


def test_split_tail_stops_at_the_node_cap():
    # split_w's tail integral at (124, 0.01) takes exactly 824 nodes
    ref = trace_split_w(124, 0.01)
    assert trace_split_w(124, 0.01, node_cap=824) == ref
    with pytest.raises(ConvergenceError, match="node cap 823 exceeded"):
        trace_split_w(124, 0.01, node_cap=823)


@pytest.mark.parametrize("fn", [trace_split_q, trace_split_w])
@pytest.mark.parametrize("n", [2, 3, 50, 145, 300, 500, 582, HEAT_MAX_N])
def test_split_sums_work_is_bounded_by_n(fn, n):
    # No term cap: at the ends and the log-midpoint of the supported t, a
    # sum that stops on the geometric rule has at most max(64, 2n + 110)
    # terms, and an Abel-Plana tail adds one term and its two integrals'
    # nodes, each at most the node cap.
    low, high = supported_t(n)
    for t in (low, math.sqrt(low * high), high):
        rate = 2.0 * t * (n - 1) if fn is trace_split_q else 2.0 * t
        got = fn(n, t)
        if rate >= math.log(2.0) or got.terms_used <= HEAD_TERMS:
            assert got.terms_used <= max(HEAD_TERMS, 2 * n + 110), (t, got)
        else:
            assert got.terms_used <= HEAD_TERMS + 1 + 2 * DEFAULT_NODE_CAP, (t, got)


@pytest.mark.parametrize(
    "n, t",
    [
        (126, 0.01), (128, 0.01), (250, 0.1), (280, 0.2), (330, 0.3), (460, 0.33), (484, 0.31), (500, 0.3156),
        (500, 0.3155711471273671),
    ],
)
def test_split_w_where_its_tail_integral_is_large(n, t):
    # the tail integral is about 1e215 at (128, 0.01), far above the head's
    # partial sum; its panels are accepted relative to it.  At (484, 0.31) the
    # head is 1e-95 of the sum: a tolerance relative to the head alone, not
    # to the largest term, bisected the integral to 193 625 evaluations.  At
    # (500, 0.3155711471273671) panel pairs differ by more than 1e-14 but less
    # than one term's stated rounding, about 1e-12; accepted only at 1e-14 they
    # bisected to widths of 1e-12, 82 866 evaluations and a bound of 1.06e-11
    # of the value.  The floor is now that stated rounding: 1 746 evaluations
    # and a bound of 1.53e-12, and 1 281 and 1.25e-12 with the Abel-Plana tail.
    got = trace_split_w(n, t)
    ref = _oracle_plain_sum(n, t, "w")
    assert abs(mp.mpf(got.value) - ref) <= got.error_bound
    assert got.error_bound <= 2e-12 * got.value
    assert got.terms_used <= 2_500


def test_max_n_is_the_largest_n_with_a_supported_t():
    assert supported_t(HEAT_MAX_N) is not None
    for n in (HEAT_MAX_N + 1, HEAT_MAX_N + 10, 1000, 1460):
        assert supported_t(n) is None


def _sweep_points():
    """Each interval's ends +-1% and its geometric middle, over a grid of n to HEAT_MAX_N + 10."""
    for n in (2, 3, 8, 30, 53, 60, 100, 145, 200, 300, 400, 440, 500, 560, 582, 640, 700, HEAT_MAX_N):
        low, high = supported_t(n)
        for t in (0.99 * low, 1.01 * low, math.sqrt(low * high), 0.99 * high, 1.01 * high):
            yield n, t
    for n in (HEAT_MAX_N + 1, HEAT_MAX_N + 10):
        yield n, 0.49


@pytest.mark.parametrize("n, t", list(_sweep_points()), ids=lambda v: f"{v:.4g}")
def test_heat_answers_inside_its_interval_and_names_it_outside(n, t):
    span = supported_t(n) if n <= HEAT_MAX_N else None
    if span is None or not span[0] <= t <= span[1]:
        named = (
            f"heat supports n <= {HEAT_MAX_N}" if span is None
            else f"heat supports t >= about {span[0]:.3g} and t <= about {span[1]:.3g}"
        )
        for fn in (trace_split_q, trace_split_w, trace_direct):
            with pytest.raises(ValueError, match=named):
                fn(n, t)
        return
    parts = {"q": trace_split_q(n, t), "w": trace_split_w(n, t)}
    for got in parts.values():
        assert sys.float_info.min <= got.value < math.inf, got
        assert 0.0 < got.error_bound < math.inf, got
    scaled = scale_by_t_power(n, t, parts["q"].value + parts["w"].value)
    assert sys.float_info.min <= scaled < math.inf
    if (n + 50) / t > 1e4:  # about the number of split_w terms the plain oracle sums
        return
    refs = {which: _oracle_plain_sum(n, t, which) for which in parts}
    for which, got in parts.items():
        assert abs(mp.mpf(got.value) - refs[which]) <= got.error_bound, (which, got)
        assert got.error_bound <= 1e-11 * got.value, (which, got)
    if n >= 200:
        # the direct sum: its multiplicities pass 1e308 and, near the upper
        # end, its line's weights span more than the float range; neither is
        # an error.  Each chunk of a line keeps its weights normal, so the
        # bound stays near the rounding at every n, 748 included
        direct = trace_direct(n, t)
        assert abs(mp.mpf(direct.value) - refs["q"] - refs["w"]) <= direct.error_bound
        assert direct.error_bound <= 1e-11 * direct.value, direct


@pytest.mark.parametrize("n, t", [(700, 0.25), (748, 0.2474)])
def test_direct_at_the_largest_n_against_a_50_digit_sum(n, t):
    # a line's weights span more than the float range here; formed in chunks
    # at their own scales, the direct sum is within 1e-12 of the value (it was
    # off by 3.5e-13 and 4.1e-9 when subnormal weights met multiplicities up
    # to 2^960) and its bound within 1e-11
    direct = trace_direct(n, t)
    with mp.workdps(50):
        ref = _oracle_plain_sum(n, t, "q", dps=50) + _oracle_plain_sum(n, t, "w", dps=50)
        assert abs(mp.mpf(direct.value) - ref) <= 1e-12 * ref
        assert abs(mp.mpf(direct.value) - ref) <= direct.error_bound
    assert direct.error_bound <= 1e-11 * direct.value


def test_scale_by_t_power_rejects_n_past_its_domain():
    # past n = 1021 f^n (t = f 2^e) may be subnormal: at n = 1050 the product
    # would lose 3.4e-8 of its value, so it names the bound instead
    with pytest.raises(ValueError, match=r"n <= 1021, got n = 1050"):
        scale_by_t_power(1050, 0.5001, 2.0**500)
    with mp.workdps(40):
        want = mp.mpf(0.5001) ** 1021 * mp.mpf(2) ** 500
        assert abs(scale_by_t_power(1021, 0.5001, 2.0**500) - want) <= 4 * U * want


def test_scale_by_t_power_names_a_product_outside_the_normal_floats():
    # at (930, 0.3) t^n is about e^-1120 and the trace about e^182
    with pytest.raises(ValueError, match=r"t\^n G\(t\) at n = 930, t = 0.3 is about e\^-938"):
        scale_by_t_power(930, 0.3, math.exp(182.0))
    # at (80, 1e-4) t^n alone is subnormal; the product of its two halves is not
    total = 3.0e300
    with mp.workdps(40):
        want = mp.mpf(1e-4) ** 80 * total
        assert abs(scale_by_t_power(80, 1e-4, total) - want) <= 1e-15 * want
