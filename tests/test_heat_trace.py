import functools
import math

import mpmath as mp
import pytest

from kohnspec.combinatorics import dim_hpq
from kohnspec.errors import ConvergenceError
from kohnspec.heat_trace import (
    _split_q_term,
    scaled_trace,
    trace_direct,
    trace_split_q,
    trace_split_w,
)


def test_split_q_large_t_dominated_by_first_term():
    # at t = 10, n = 2 the q = 1 term is e^(-20)/(1 - e^(-20))^2 and the
    # next one is ~4e-18; the default tolerance truncates after the first
    # term, and the discarded tail must be covered by the reported bound
    first = math.exp(-20.0) / (-math.expm1(-20.0)) ** 2
    second = math.exp(-40.0) / (-math.expm1(-40.0)) ** 2
    got = trace_split_q(2, 10.0)
    assert first <= got.value <= first + 1e-17
    assert got.error_bound >= second
    # forcing a tiny absolute tolerance picks up the second term
    tight = trace_split_q(2, 10.0, abs_tol=1e-30)
    assert tight.terms_used > got.terms_used
    assert tight.value == pytest.approx(first + second, rel=1e-14)


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


def test_tail_bounds_sound_against_tighter_reference():
    for n in (2, 3):
        for t in (0.1, 0.7):
            loose = trace_split_q(n, t, abs_tol=1e-9)
            tight = trace_split_q(n, t, abs_tol=1e-15)
            assert abs(loose.value - tight.value) <= (
                loose.error_bound + tight.error_bound
            )
            assert loose.terms_used <= tight.terms_used


def test_time_floor():
    with pytest.raises(ValueError):
        trace_split_q(2, 5e-7)
    with pytest.raises(ValueError):
        trace_split_q(2, 0.0)
    with pytest.raises(ValueError):
        trace_direct(2, -1.0)
    # overriding the floor lets the call proceed far enough to hit the
    # term cap instead, proving the floor (not the summation) rejected it
    with pytest.raises(ConvergenceError):
        trace_split_q(2, 5e-7, min_t=1e-7, term_cap=10)


def test_term_cap():
    with pytest.raises(ConvergenceError):
        trace_split_q(2, 1e-5, term_cap=50)
    with pytest.raises(ConvergenceError):
        trace_direct(2, 1e-4, term_cap=10)


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
    assert _split_q_term(2, t, 1) * t**2 == pytest.approx(0.25, rel=1e-3)


# ------------------------------------------------- mpmath oracle sweep

ORACLE_DPS = 20


@functools.cache
def _gauss_legendre_nodes():
    from mpmath.calculus.quadrature import GaussLegendre

    with mp.workdps(ORACLE_DPS):
        return GaussLegendre(mp.mp).calc_nodes(4, mp.mp.prec)  # 24 points


def _oracle_split(n, t, which, head=100, order=3):
    """One split sum at 20 digits, independently of kohnspec.

    100 terms summed directly, then the Euler-Maclaurin tail: the integral
    by 24-point Gauss-Legendre on panels [x, min(2x, x + 8/rate)] out to
    (64 + 4n)/rate past the head (x^(n-2) e^(-rate x) has dropped below
    1e-20 of its peak there), and mpmath's numerical derivatives.  Past 100
    terms the dropped Euler-Maclaurin remainder is far below 1e-20 relative.
    """
    with mp.workdps(ORACLE_DPS):
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
        lo, end = mp.mpf(a), a + (64 + 4 * n) / rate
        while lo < end:
            hi = min(2 * lo, lo + 8 / rate)
            half, mid = (hi - lo) / 2, (hi + lo) / 2
            total += half * mp.fsum(w * f(mid + half * x) for x, w in _gauss_legendre_nodes())
            lo = hi
        derivs = list(mp.diffs(f, a, 2 * order - 1))
        total += derivs[0] / 2
        for j in range(1, order + 1):
            total -= mp.bernoulli(2 * j) / mp.factorial(2 * j) * derivs[2 * j - 1]
        return total


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("t", [1e-6, 1e-4, 1e-2, 0.1, 1.0, 10.0])
def test_split_sums_against_mpmath(n, t):
    # abs_tol=0 makes the requested accuracy purely relative, so the bound
    # can be held to 1e-12 of the value even where the value is tiny
    for which, fn in (("q", trace_split_q), ("w", trace_split_w)):
        got = fn(n, t, abs_tol=0.0)
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


# Values, bounds (both as float.hex) and evaluation counts of the split sums
# before their Euler-Maclaurin tail moved into special_functions: large t
# stops in the head, the rest run the tail, and at n = 40 the Bernoulli order
# rises above EM_ORDER.
_PINNED_SPLIT_SUMS = [
    (trace_split_q, 2, 0.5, "0x1.2fc510cfdb188p+0", "0x1.7602304a273f0p-44", 30),
    (trace_split_w, 2, 0.5, "0x1.2fc510cfdb188p+0", "0x1.7602304a273f0p-44", 30),
    (trace_split_q, 3, 1e-06, "0x1.3c13df10d71b6p+58", "0x1.19fdb4c0a8210p+13", 1321),
    (trace_split_w, 3, 1e-06, "0x1.895d768c0115dp+55", "0x1.1bb0f0688c404p+10", 1377),
    (trace_split_q, 5, 0.01, "0x1.429b7a2285bd5p+30", "0x1.a37291d101ce1p-16", 665),
    (trace_split_w, 5, 0.01, "0x1.029f6268b733dp+24", "0x1.1a046362b8d3ep-20", 825),
    (trace_split_q, 8, 0.001, "0x1.770d1c9ae3d62p+74", "0x1.2639555760547p+29", 737),
    (trace_split_w, 8, 0.001, "0x1.e90403431347ap+62", "0x1.2424af1901de3p+20", 953),
    (trace_split_q, 40, 0.0001, "0x1.ba28340e945e6p+496", "0x1.314a5a497e9bbp+453", 873),
    (trace_split_w, 40, 0.0001, "0x1.292c20bf3cecap+479", "0x1.1a3e25e8813c6p+438", 2121),
]


@pytest.mark.parametrize(
    "fn, n, t, value, bound, terms",
    _PINNED_SPLIT_SUMS,
    ids=[f"{fn.__name__}-{n}-{t}" for fn, n, t, *_ in _PINNED_SPLIT_SUMS],
)
def test_split_sums_arithmetic_is_pinned(fn, n, t, value, bound, terms):
    got = fn(n, t)
    assert (got.value.hex(), got.error_bound.hex(), got.terms_used) == (value, bound, terms)
