import functools
import math
import sys
from fractions import Fraction

import mpmath as mp
import pytest

from kohnspec.coefficients import (
    DEFAULT_SERIES_TERMS,
    INTERMEDIATE_MAX_N,
    METHODS,
    SERIES_DIRECT_MAX_N,
    _intermediate_integrand,
    estimate,
    integral_coefficient,
    integral_intermediate,
    reconcile,
    series_direct,
    series_zeta,
)
from kohnspec.errors import ConvergenceError, ResourceCapError


def test_exact_form_n2():
    est = series_zeta(2)
    form = est.exact_form
    assert form.scale == Fraction(1, 8)
    assert form.terms == ((2, 2),)
    assert str(form) == "(1/8) * (2*zeta(2))"
    assert est.value == form.value()


def test_exact_form_n4_and_n5():
    f4 = series_zeta(4).exact_form
    assert f4.scale == Fraction(1, 384)
    assert f4.terms == ((1, 2), (2, 4))
    f5 = series_zeta(5).exact_form
    assert f5.scale == Fraction(1, 11520)
    assert f5.terms == ((1, 2), (11, 4))


def test_series_zeta_closed_forms():
    assert series_zeta(2).value == pytest.approx(math.pi**2 / 24, rel=1e-14)
    assert series_zeta(3).value == pytest.approx(math.pi**2 / 144, rel=1e-14)
    z2, z4 = math.pi**2 / 6, math.pi**4 / 90
    assert series_zeta(4).value == pytest.approx((z2 + 2 * z4) / 384, rel=1e-14)
    assert series_zeta(5).value == pytest.approx((z2 + 11 * z4) / 11520, rel=1e-14)


def test_series_zeta_uses_only_even_zeta_arguments():
    # the odd-index contributions cancel in pairs, a parity effect the
    # exact form must reflect
    for n in range(2, 13):
        form = series_zeta(n).exact_form
        for _, k in form.terms:
            assert k % 2 == 0
            assert 2 <= k <= n


def test_series_zeta_positive_and_decreasing():
    values = [series_zeta(n).value for n in range(2, 12)]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_series_zeta_validates():
    with pytest.raises(ValueError):
        series_zeta(1)


def test_series_direct_honest_and_tightening():
    for n in (2, 3, 5, 8):
        ref = series_zeta(n)
        coarse = series_direct(n, 1000)
        fine = series_direct(n, 10_000)
        for est in (coarse, fine):
            assert abs(est.value - ref.value) <= est.error_bound + ref.error_bound
        assert fine.error_bound < coarse.error_bound
        assert coarse.work == 1000
        assert fine.work == 10_000


def test_series_direct_validates_and_caps():
    with pytest.raises(ValueError):
        series_direct(3, 0)
    with pytest.raises(ResourceCapError):
        series_direct(3, 20_000_000, term_cap=10_000_000)


def test_integral_routes_match_series():
    for n in range(2, 9):
        ref = series_zeta(n).value
        alt = integral_coefficient(n)
        mid = integral_intermediate(n)
        assert abs(alt.value - ref) <= 1e-9
        assert abs(mid.value - ref) <= 1e-9
        assert abs(alt.value - ref) <= alt.error_bound + 1e-14 * ref
        assert abs(mid.value - ref) <= mid.error_bound + 1e-14 * ref


def test_method_names_exported():
    assert METHODS == ("series-zeta", "series-direct", "integral", "integral-intermediate")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_intermediate_bracket_boundary_decay(n):
    # x^n * bracket = x * integrand vanishes linearly at 0 (slope 2^(2-n)) and
    # exponentially at infinity, so both integration-by-parts boundary
    # terms drop
    def witness(x):
        return x * _intermediate_integrand(n, x)

    assert abs(witness(1e-9)) < 1e-8
    assert abs(witness(40.0)) < 1e-8
    assert witness(1e-4) == pytest.approx(2.0 ** (2 - n) * 1e-4, rel=0.02)
    assert witness(1e-5) / witness(1e-6) == pytest.approx(10.0, rel=0.01)


def test_reconcile_all_routes():
    report = reconcile(3)
    assert report.ok
    assert len(report.estimates) == 4
    assert len(report.differences) == 6
    for _, _, diff, budget in report.differences:
        assert diff <= budget


@pytest.mark.parametrize("n", [2, 5, 12])
def test_reconcile_runs_the_dispatch_in_methods_order(n):
    report = reconcile(n)
    assert tuple(est.method for est in report.estimates) == METHODS
    for method, est in zip(METHODS, report.estimates):
        assert estimate(method, n) == est  # every field, floats bit for bit


def test_estimate_rejects_unknown_method():
    with pytest.raises(ValueError, match="integral-intermediate"):
        estimate("intermediate", 4)


@functools.cache
def _weyl_reference(n: int) -> mp.mpf:
    """c(n) at 50 digits: P(q) expanded exactly, then sum_j a_j zeta(n - j) in mpmath."""
    rising, falling = [Fraction(1)], [Fraction(1)]
    for i in range(1, n - 1):  # prod (q + i) and prod (q - i), i = 1..n-2
        rising = [Fraction(0)] + rising
        falling = [Fraction(0)] + falling
        for j in range(len(rising) - 1):
            rising[j] += i * rising[j + 1]
            falling[j] -= i * falling[j + 1]
    with mp.workdps(50):
        total = mp.mpf(0)
        for j, (a, b) in enumerate(zip(rising, falling)):
            if a + b:
                total += mp.mpf((a + b).numerator) / (a + b).denominator * mp.zeta(n - j)
        return total / (mp.factorial(n - 2) * mp.mpf(2) ** n * mp.factorial(n))


@pytest.mark.parametrize("terms", [2, DEFAULT_SERIES_TERMS, 1000])
def test_series_direct_against_the_oracle(terms):
    # every n up to 100, at a tail start from a = 3 to a = 1001; the default
    # must be a witness as sharp as the other routes
    for n in range(2, 101):
        est = series_direct(n, terms)
        assert est.work == terms
        ref = _weyl_reference(n)
        assert abs(est.value - ref) <= est.error_bound, n
        if terms == DEFAULT_SERIES_TERMS:
            assert est.error_bound <= 1e-13 * est.value, n
            assert abs(est.value - ref) <= 1e-15 * ref, n


def test_series_direct_to_the_edge_of_the_float_range():
    est = series_direct(SERIES_DIRECT_MAX_N)
    assert est.error_bound >= sys.float_info.min
    assert abs(est.value - _weyl_reference(SERIES_DIRECT_MAX_N)) <= est.error_bound
    for n in (SERIES_DIRECT_MAX_N + 1, 160, 174):
        with pytest.raises(ValueError, match=f"n <= {SERIES_DIRECT_MAX_N}"):
            series_direct(n)


def test_series_direct_tail_counts_against_the_term_cap():
    # the head fits, the tail's contour does not
    with pytest.raises(ConvergenceError, match="term_cap=100"):
        series_direct(4, 64, term_cap=100)


@pytest.mark.parametrize("method", ["integral", "integral-intermediate"])
def test_integral_routes_against_the_oracle(method):
    # the bound covers the rounding of the integrand, the panel sums and the
    # prefactor product (at n = 49 integral-intermediate is off by about 3 ulp)
    for n in range(2, 101):
        ref = _weyl_reference(n)
        est = estimate(method, n)
        assert abs(est.value - ref) <= est.error_bound, n
        # the default tol is absolute: at small n it, not rounding, sets the bound
        sharp = estimate(method, n, tol=1e-14)
        assert abs(sharp.value - ref) <= sharp.error_bound, n
        assert sharp.error_bound <= 1e-13 * sharp.value, n


@pytest.mark.parametrize(
    "method, last_answered", [("integral", 105), ("integral-intermediate", INTERMEDIATE_MAX_N)]
)
@pytest.mark.parametrize("n", [*range(85, 111), INTERMEDIATE_MAX_N, INTERMEDIATE_MAX_N + 1])
def test_integral_routes_where_the_prefactor_leaves_the_float_range(method, last_answered, n):
    # The integral prefactor is subnormal from n = 92 and 0.0 from n = 96, the
    # intermediate one from n = 99; the quadrature value and c(n) are normal.
    # The intermediate bracket alone overflows from n = 101.  Beyond a route's
    # range a typed error is allowed, never a silent 0.
    try:
        est = estimate(method, n)
    except (ConvergenceError, OverflowError, ValueError) as err:
        assert n > last_answered
        if isinstance(err, ValueError):
            assert f"n <= {last_answered}" in str(err)
        return
    assert n <= last_answered
    ref = _weyl_reference(n)
    assert abs(est.value - ref) <= est.error_bound
    assert est.error_bound <= 1e-13 * est.value
