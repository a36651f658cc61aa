import functools
import hashlib
import math
import sys
from fractions import Fraction

import mpmath as mp
import pytest

from kohnspec.coefficients import (
    METHODS,
    _intermediate_integrand,
    estimate,
    integral_coefficient,
    integral_intermediate,
    reconcile,
    series_direct,
    series_zeta,
)
from kohnspec.errors import MAX_N, ConvergenceError
from kohnspec.special_functions import HEAD_TERMS

SERIES_DIRECT_MAX_N = MAX_N["series-direct"][0]
INTERMEDIATE_MAX_N = MAX_N["integral-intermediate"][0]


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


# float.hex(series_zeta(n).value) and sha256(str(exact_form)), taken from the
# Fraction-polynomial expansion that the integer recurrence replaced
EXACT_FORM_PINS = {
    2: ("0x1.a51a6625307d2p-2", "76b5a4f6e1b962b75c7c85a833e2334e3cd9293385027349f4e4c3416949c799"),
    3: ("0x1.18bc4418cafe1p-4", "a68f0d77d4aada585950e486b5d648a64e2dc431e7bd7074dbbc1dfe66d110f0"),
    10: ("0x1.4ea2eca834a82p-29", "b939046137f3a222af050344ad441e6d497285d374869657a9c3264f785de0b2"),
    50: ("0x1.53561504665cap-259", "ce487923dc7bebccb89dfac20f77865276582110c17e9407593ab4949d927f5c"),
    66: ("0x1.f228a80611384p-369", "2ec5fef4ad9b9bf285931679c13d83e5013860053fa923a9d58fc627220c62ff"),
    100: ("0x1.d20ea6fd439fep-619", "b90f8b5220f8ae3f8544d1d6866fc7f0ab8945a9214aabd6e80e696491829e4d"),
    145: ("0x1.47f499c87839fp-975", "c540190aaaffae8f787f70d72bea0f992ff441541404fbb4011e02847ad24311"),
}


@pytest.mark.parametrize("n", sorted(EXACT_FORM_PINS))
def test_exact_form_pinned_values(n):
    est = series_zeta(n)
    value_hex, form_digest = EXACT_FORM_PINS[n]
    assert float.hex(est.value) == value_hex
    assert hashlib.sha256(str(est.exact_form).encode()).hexdigest() == form_digest


def test_exact_form_is_the_weight_polynomial_at_every_n():
    # 2^n n! scale sum_i c_i q^(n - k_i) = binom(q+n-2, n-2) + binom(q-1, n-2)
    for n in range(2, MAX_N["series-zeta"][0] + 1):
        form = series_zeta(n).exact_form
        assert all(k % 2 == 0 for _, k in form.terms), n
        for q in range(1, 5):
            poly = 2**n * math.factorial(n) * form.scale * sum(
                c * Fraction(q) ** (n - k) for c, k in form.terms
            )
            assert poly == math.comb(q + n - 2, n - 2) + math.comb(q - 1, n - 2), (n, q)


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


def test_series_direct_validates_and_caps():
    with pytest.raises(ValueError):
        series_direct(1)
    # the node cap bounds the tail integral from its first samples on
    with pytest.raises(ConvergenceError, match="^series-direct at n=3: node cap 1 exceeded while truncating"):
        series_direct(3, node_cap=1)


# Value, bound (float.hex) and work of series-direct, from when its head was
# formed by streamed hockey-stick prefix sums: the same exact integers and
# the same correctly rounded divisions as math.comb gives.  The bounds at
# n = 2, 3 and 10 were re-pinned when an Abel-Plana tail replaced the
# Euler-Maclaurin one and each factor of the product form became one
# product by 1/i +- 1/z; they fell, and no value moved.
_PINNED_SERIES_DIRECT = [
    (2, "0x1.a51a6625307d3p-2", "0x1.1b32fc175d6c2p-52", 64),
    (3, "0x1.18bc4418cafe2p-4", "0x1.8690ca76b4bf5p-55", 64),
    (10, "0x1.4ea2eca834a83p-29", "0x1.4ea3809b057d5p-80", 64),
    (56, "0x1.17e9b1ac4b619p-299", "0x1.17e9b1ac4b619p-350", 64),
    (100, "0x1.d20ea6fd43a1cp-619", "0x1.d20ea6fd43a1cp-670", 64),
    (144, "0x1.70ee9ef12b970p-967", "0x1.70ee9ef12b970p-1018", 64),
]


@pytest.mark.parametrize(
    "n, value, bound, work", _PINNED_SERIES_DIRECT, ids=[str(n) for n, *_ in _PINNED_SERIES_DIRECT]
)
def test_series_direct_is_pinned(n, value, bound, work):
    got = series_direct(n)
    assert (got.value.hex(), got.error_bound.hex(), got.work) == (value, bound, work)


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


def test_series_direct_against_the_oracle():
    # every n up to 100: a witness as sharp as the other routes
    for n in range(2, 101):
        est = series_direct(n)
        assert est.work == HEAD_TERMS
        ref = _weyl_reference(n)
        assert abs(est.value - ref) <= est.error_bound, n
        assert est.error_bound <= 1e-13 * est.value, n
        assert abs(est.value - ref) <= 1e-15 * ref, n


def test_series_direct_to_the_edge_of_the_float_range():
    est = series_direct(SERIES_DIRECT_MAX_N)
    assert est.error_bound >= sys.float_info.min
    assert abs(est.value - _weyl_reference(SERIES_DIRECT_MAX_N)) <= est.error_bound
    for n in (SERIES_DIRECT_MAX_N + 1, 160, 174):
        with pytest.raises(ValueError, match=f"n <= {SERIES_DIRECT_MAX_N}"):
            series_direct(n)


@pytest.mark.parametrize("method", ["series-direct", "integral", "integral-intermediate"])
def test_integral_routes_name_themselves_at_the_node_cap(method):
    with pytest.raises(ConvergenceError, match=rf"^{method} at n=4: node cap 100 exceeded at \["):
        estimate(method, 4, node_cap=100)


@pytest.mark.parametrize("method", ["integral", "integral-intermediate"])
def test_integral_routes_against_the_oracle(method):
    # the bound covers the rounding of the integrand, the panel sums and the
    # prefactor product (at n = 49 integral-intermediate is off by about 3 ulp);
    # the tolerance is relative to a lower bound of the integral, so the
    # bound is sharp at every n, and the node count stays small
    for n in range(2, MAX_N[method][0] + 1):
        ref = _weyl_reference(n)
        est = estimate(method, n)
        assert abs(est.value - ref) <= est.error_bound, n
        assert est.error_bound <= 1e-13 * est.value, n
        assert est.work <= 1_000, n


@pytest.mark.parametrize(
    "method, last_answered",
    [("integral", MAX_N["integral"][0]), ("integral-intermediate", INTERMEDIATE_MAX_N)],
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


@pytest.mark.parametrize("method", METHODS)
def test_each_route_answers_at_its_table_entry_and_names_it_beyond(method):
    largest = MAX_N[method][0]
    est = estimate(method, largest)
    assert abs(est.value - _weyl_reference(largest)) <= est.error_bound
    assert est.error_bound >= sys.float_info.min
    with pytest.raises(ValueError, match=f"^{method} supports n <= {largest}, got n = {largest + 1}:"):
        estimate(method, largest + 1)


def test_series_zeta_past_the_old_zeta_cap():
    # every term of the zeta combination is positive, so nothing cancels;
    # the scale is multiplied in as mantissa times 2^e
    largest = MAX_N["series-zeta"][0]
    for n in [*range(60, largest, 3), largest]:
        est = series_zeta(n)
        ref = _weyl_reference(n)
        assert abs(est.value - ref) <= est.error_bound, n
        assert est.error_bound >= sys.float_info.min, n
    # beyond: a subnormal bound (146), a 0.0 bound (152), an int too large for a float (300)
    for n in (largest + 1, 152, 300):
        with pytest.raises(ValueError, match=f"n <= {largest}"):
            series_zeta(n)
