import cmath
import math
from fractions import Fraction

import mpmath as mp
import pytest

from kohnspec import coefficients, continuation
from kohnspec.errors import ConvergenceError
from kohnspec.special_functions import (
    _GL16,
    _GL32,
    PiMultiple,
    QuadratureResult,
    _log_tail_weight,
    U,
    abel_plana_tail,
    bernoulli,
    folded_excess,
    folded_power,
    integrate_decaying,
    log1mexp2,
    zeta_even,
)

# Euler-Maclaurin reference for zeta(k): partial sum plus integral tail and
# two correction terms, remainder O(N^(-k-3)).


def _zeta_reference(k: int, cutoff: int = 2000) -> float:
    partial = math.fsum(j ** (-k) for j in range(1, cutoff))
    n = float(cutoff)
    tail = n ** (1 - k) / (k - 1) + 0.5 * n ** (-k) + k * n ** (-k - 1) / 12.0
    return partial + tail


def test_bernoulli_table():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for k, want in expected.items():
        assert bernoulli(k) == want
    for k in (3, 5, 7, 9, 11):
        assert bernoulli(k) == 0


def test_zeta_even_exact_rationals():
    assert zeta_even(2).rational == Fraction(1, 6)
    assert zeta_even(2).pi_power == 2
    assert zeta_even(4).rational == Fraction(1, 90)
    assert zeta_even(8).rational == Fraction(1, 9450)


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12])
def test_zeta_even_float_value(k):
    assert abs(zeta_even(k).value - _zeta_reference(k)) <= 1e-12


def test_zeta_even_past_the_old_cap_of_64():
    # series-zeta at n <= 145 meets zeta(k) for even k <= 144; pi^k is a
    # power of the rounded pi, about k * 4e-17 relative
    with mp.workdps(50):
        for k in range(2, 146, 2):
            assert abs(zeta_even(k).value - mp.zeta(k)) <= 1e-14 * mp.zeta(k), k


@pytest.mark.parametrize("k", [1, 3, 0, -2])
def test_zeta_even_rejects_bad_arguments(k):
    with pytest.raises(ValueError):
        zeta_even(k)


def test_pi_multiple_value():
    assert PiMultiple(Fraction(1, 6), 2).value == pytest.approx(
        math.pi**2 / 6, rel=1e-15
    )


def _exp_rel(rate: float, ops: int):
    """The stated rounding of c x^k e^(-rate x): rate x U from the rounded node, ops U for the rest."""
    return lambda x: (rate * x + ops) * U


def test_integrate_decaying_known_integrals():
    r = integrate_decaying(lambda x: math.exp(-x), 1.0, tol=1e-10, poly_degree=0, eval_rel=_exp_rel(1, 1))
    assert r.value == pytest.approx(1.0, abs=1e-9)
    assert abs(r.value - 1.0) <= r.error_estimate

    r = integrate_decaying(
        lambda x: x * math.exp(-2 * x), 2.0, tol=1e-10, poly_degree=1, eval_rel=_exp_rel(2, 3)
    )
    assert r.value == pytest.approx(0.25, abs=1e-10)
    assert abs(r.value - 0.25) <= r.error_estimate

    r = integrate_decaying(
        lambda x: x**5 * math.exp(-x), 1.0, tol=1e-10, poly_degree=5, eval_rel=_exp_rel(1, 8)
    )
    assert r.value == pytest.approx(120.0, abs=1e-7)
    assert abs(r.value - 120.0) <= r.error_estimate


def test_integrate_decaying_bose_kernel():
    # sum_m 4 m e^(-2 m x) integrated against x^2 gives zeta(2)
    def f(x):
        return 4.0 * math.exp(-2 * x) / (-math.expm1(-2 * x)) ** 2 * x**2

    # e^(-2x) and its expm1 denominator move by 2x U each with the node
    r = integrate_decaying(f, 2.0, tol=1e-10, poly_degree=2, eval_rel=_exp_rel(4, 10))
    exact = math.pi**2 / 6
    assert abs(r.value - exact) <= r.error_estimate
    assert r.value == pytest.approx(exact, abs=1e-9)


def test_integrate_decaying_complex_integrand():
    r = integrate_decaying(
        lambda x: cmath.exp(-2 * x * (1 + 0.5j)), 2.0, tol=1e-10, poly_degree=0, eval_rel=_exp_rel(3, 4)
    )
    exact = 0.4 - 0.2j
    assert isinstance(r, QuadratureResult)
    assert abs(r.value - exact) <= r.error_estimate
    assert abs(r.value - exact) <= 1e-9


def test_integrate_decaying_reports_work_and_truncation():
    r = integrate_decaying(lambda x: math.exp(-x), 1.0, tol=1e-10, poly_degree=0, eval_rel=_exp_rel(1, 1))
    assert r.nodes_used > 0
    assert r.truncation_point > 1.0


def test_integrate_decaying_tolerance_halving_consistent():
    f = lambda x: x * math.exp(-2 * x)  # noqa: E731
    loose = integrate_decaying(f, 2.0, poly_degree=1, tol=1e-8, eval_rel=_exp_rel(2, 3))
    tight = integrate_decaying(f, 2.0, poly_degree=1, tol=5e-9, eval_rel=_exp_rel(2, 3))
    assert abs(loose.value - tight.value) <= loose.error_estimate + tight.error_estimate


def test_integrate_decaying_width_share_follows_the_integral():
    # far above tol the panels are held to 1e-14 of the integral, not to tol;
    # the estimate books each panel's rounding at the panel's own right end,
    # so it follows the mass near 0: at the truncation point (T = 867) the
    # stated rounding (x + 2) U is 9.6e-14, and the estimate 6.3e-15
    r = integrate_decaying(
        lambda x: 1e300 * math.exp(-x), 1.0, tol=1e-10, poly_degree=0, eval_rel=_exp_rel(1, 2)
    )
    assert abs(r.value - 1e300) <= r.error_estimate <= 1e-14 * 1e300
    assert r.error_estimate <= 0.1 * (r.truncation_point + 2) * U * r.value
    assert r.nodes_used <= 1_000


def test_integrate_decaying_names_a_sum_past_the_float_range():
    # every node and panel is finite, the integral (1e309) is not
    with pytest.raises(OverflowError, match="not finite"):
        integrate_decaying(
            lambda x: 1e307 * math.exp(-0.01 * x), 0.01, tol=1e-10, poly_degree=0, eval_rel=_exp_rel(0.01, 2)
        )


def test_integrate_decaying_node_cap():
    with pytest.raises(ConvergenceError):
        integrate_decaying(
            lambda x: math.exp(-x), 1.0, tol=1e-10, poly_degree=0, eval_rel=_exp_rel(1, 1), node_cap=20
        )


def _noisy(x: float) -> float:
    """e^(-x) (1 + 1e-12 sin(1e7 x)): relative noise of 1e-12, deterministic, about 1e-19 net."""
    return math.exp(-x) * (1.0 + 1e-12 * math.sin(1e7 * x))


def test_integrate_decaying_accepts_panels_at_the_stated_rounding():
    # the noise is stated: panel pairs that differ by it alone are accepted,
    # and the estimate carries it
    r = integrate_decaying(_noisy, 1.0, tol=1e-14, poly_degree=0, eval_rel=lambda x: 2e-12)
    assert r.nodes_used <= 1_000
    assert abs(r.value - 1.0) <= r.error_estimate <= 5e-12
    # stated as a few ulps, the same noise is bisected on to the node cap
    with pytest.raises(ConvergenceError, match="node cap 20000 exceeded"):
        integrate_decaying(
            _noisy, 1.0, tol=1e-14, poly_degree=0, eval_rel=_exp_rel(1, 2), node_cap=20_000
        )


def test_integrate_decaying_validates_arguments():
    for rate in (0.0, -1.0, math.nan, math.inf):
        # nan used to probe 400 truncation points, inf to raise a bare math domain error
        with pytest.raises(ValueError, match="decay_rate must be positive and finite"):
            integrate_decaying(lambda x: 0.0, rate, tol=1e-10, poly_degree=0, eval_rel=lambda x: 0.0)
    with pytest.raises(ValueError):
        integrate_decaying(lambda x: 0.0, 1.0, tol=0.0, poly_degree=0, eval_rel=lambda x: 0.0)
    for degree in (-1, 0.5, 2.0):
        # 0.5 used to be truncated to 0, certifying a tail for slower growth than stated
        with pytest.raises(ValueError, match="poly_degree must be a nonnegative integer"):
            integrate_decaying(lambda x: 0.0, 1.0, tol=1e-10, poly_degree=degree, eval_rel=lambda x: 0.0)
    # every caller states its integrand's rounding: there is no default
    with pytest.raises(TypeError, match="eval_rel"):
        integrate_decaying(lambda x: 0.0, 1.0, tol=1e-10, poly_degree=0)


# Value, bound (float.hex) and node count of the engine's callers outside
# heat, pinned as regressions.  Three bounds moved by 1-2 ulp when the
# rounding came to be booked panel by panel: eval_rel is constant here, so
# eval_rel times each panel's modulus, summed, rounds differently from
# eval_rel times their sum.
_PINNED_CALLERS = [
    ("integral_coefficient", 20, "0x1.2020530cacd54p-77", "0x1.2f10d3e91bf9ap-123", 416),
    ("integral_intermediate", 20, "0x1.2020530cacd4bp-77", "0x1.3c9fff294e7f2p-123", 416),
    ("integral_coefficient", 70, "0x1.932c907058e14p-397", "0x1.51a3b822a54e5p-441", 544),
    ("integral_intermediate", 70, "0x1.932c907058e14p-397", "0x1.36fb1a34f4432p-441", 544),
    ("integral_coefficient", 145, "0x1.47f499c8783c1p-975", "0x1.5e34b421b9030p-1019", 680),
    ("integral_intermediate", 145, "0x1.47f499c8783c2p-975", "0x1.5dad2ad996234p-1019", 680),
]


@pytest.mark.parametrize(
    "route, n, value, bound, nodes", _PINNED_CALLERS, ids=[f"{r}-{n}" for r, n, *_ in _PINNED_CALLERS]
)
def test_integral_routes_are_pinned(route, n, value, bound, nodes):
    got = getattr(coefficients, route)(n)
    assert (got.value.hex(), got.error_bound.hex(), got.work) == (value, bound, nodes)


# The continuation's value (real and imaginary parts) and its integral's
# error estimate and node count, from the same commit as _PINNED_CALLERS.
# The values were re-pinned when binom(m, q) came to be formed by Euler's
# reflection formula (1.4e-14 closer to it at n = 40).  The estimates and
# the n = 40 integrals were re-pinned when the integrand came to state its
# rounding, (3m + 16) U plus the phase's 2 |im q| tau U: the estimate books
# it, and panels are accepted at it (fewer nodes at n = 40, where the
# 50-digit relative error of stanton_coefficient moved from 2.4e-5 to 3.8e-5
# and of continued_coefficient from 2.8e-10 to 8.2e-10, within the
# estimates, 2.0e-4 and 9.0e-9 of the integrals).  The estimates fell again,
# by 12-36% (at n = 40 to 1.3e-4 and 6.8e-9 of the integrals, still above
# those errors), when the rounding came to be booked at each panel's own
# eval_rel(b) rather than at eval_rel(T): the phase's share grows with x.
_PINNED_CONTINUATION = [
    ("stanton_coefficient", 10, 1.3 + 0.7j,
     "-0x1.2f29993125315p-34", "0x1.f788ae7678368p-35", "0x1.1eae9f0e31cb4p-33", 384),
    ("continued_coefficient", 10, 1.3 + 0.7j,
     "-0x1.384037ffebfd2p-40", "-0x1.f798cf0adcfa4p-38", "0x1.54252849b7572p-39", 384),
    ("stanton_coefficient", 40, 2 + 3j,
     "0x1.95a49695686e2p-262", "-0x1.961bb0e245c71p-264", "0x1.d99761b1c72abp+65", 1824),
    ("continued_coefficient", 40, 2 + 3j,
     "0x1.b5b1e8bc7619ap-268", "0x1.7e436c866f75fp-266", "0x1.88588e2c213bep+46", 1144),
]


@pytest.mark.parametrize(
    "route, n, q, re, im, bound, nodes",
    _PINNED_CONTINUATION,
    ids=[f"{r}-{n}-{q}" for r, n, q, *_ in _PINNED_CONTINUATION],
)
def test_continuation_is_pinned(monkeypatch, route, n, q, re, im, bound, nodes):
    quads = []

    def recorded(*args, **kwargs):
        quads.append(integrate_decaying(*args, **kwargs))
        return quads[-1]

    monkeypatch.setattr(continuation, "integrate_decaying", recorded)
    got = getattr(continuation, route)(continuation.StripPoint(n, q))
    [quad] = quads
    assert (got.real.hex(), got.imag.hex(), quad.error_estimate.hex(), quad.nodes_used) == (
        re, im, bound, nodes
    )


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_integrate_decaying_rejects_a_tol_that_is_not_positive_and_finite(tol):
    # NaN compares false with everything, so `tol <= 0` alone let it through
    with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol}"):
        integrate_decaying(lambda x: math.exp(-x), 1.0, tol=tol, poly_degree=0, eval_rel=_exp_rel(1, 1))


@pytest.mark.parametrize(
    "T, s, d",
    [
        (1e8, 43, 2e-6),  # T**s = 1e344 alone overflows; the weight is ~8.8e262
        (4.9e7, 48, 2e-6),  # the weight itself (~e^762) overflows; its log does not
        (7.5, 12, 3.0),
        (2.0, 5, 20.0),
    ],
)
def test_log_tail_weight_against_mpmath(T, s, d):
    # int_T^inf x^s e^(-d x) dx = Gamma(s + 1, d T) / d^(s + 1)
    with mp.workdps(30):
        ref = mp.log(mp.gammainc(s + 1, mp.mpf(d) * T) / mp.mpf(d) ** (s + 1))
        got = _log_tail_weight(T, s, d)
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("x", [1e-300, 1e-9, 0.01, 0.3, 0.3499, 0.35, 0.3501, 0.5, 3.0, 20.0, 300.0])
def test_stable_kernels_against_mpmath(x):
    # both sides of the 0.35 crossover of log(1 - e^(-2x)), down to 1e-300
    # where 1 - e^(-2x) is 2e-300 and up to 300 where it is 1 - 3e-261, so
    # the reference carries 320 digits
    with mp.workdps(320):
        e = -mp.expm1(-2 * mp.mpf(x))
        assert float(mp.log(e)) == pytest.approx(log1mexp2(x), rel=4e-16, abs=0.0)
        for m in (1, 5, 40):
            assert float((x / e) ** m) == pytest.approx(folded_power(x, m, 0.0), rel=1e-14, abs=0.0)


_KERNEL_X = [10.0 ** (k / 2) for k in range(-20, 8)]  # 1e-10 .. 3162, log-spaced


def test_folded_kernels_against_mpmath():
    # Both kernels for m = 1..145, a few rates and log-spaced x, wherever their
    # values lie within e^(+-700): the plain product and the one-power path
    # alike within (4m + 2 (|rate| + 2) x + 16) U, which counts the m-th power
    # of a base rounded four times and the rounding of the exponent -rate x.
    # Past e^710 (beyond the largest float) each raises OverflowError instead.
    # The reference builds the powers by exact-enough products at 320 digits
    # and E^(-m) - 1 by expm1 and log1p, which stay accurate as E -> 1.
    kernels = [(folded_power, rate) for rate in (0.0, 0.1, 2.0, 20.0)]
    kernels += [(folded_excess, rate) for rate in (-1.9, 0.0, 0.1, 2.0)]
    checked = 0
    with mp.workdps(320):
        low, high, past = mp.exp(-700), mp.exp(700), mp.exp(710)
        for x in _KERNEL_X:
            xm = mp.mpf(x)
            log_e = mp.log1p(-mp.exp(-2 * xm))
            base = xm / mp.exp(log_e)
            decays = [mp.exp(-rate * xm) for _, rate in kernels]
            base_m = x_m = mp.mpf(1)
            for m in range(1, 146):
                base_m *= base
                x_m *= xm
                excess = mp.expm1(-m * log_e)
                for (kernel, rate), decay in zip(kernels, decays):
                    want = (base_m if kernel is folded_power else x_m * excess) * decay
                    if want > past:
                        with pytest.raises(OverflowError):
                            kernel(x, m, rate)
                    elif low < want < high:
                        bound = (4 * m + 2 * (abs(rate) + 2.0) * x + 16) * U
                        got = kernel(x, m, rate)
                        assert abs(got - want) <= bound * want, (kernel.__name__, x, m, rate)
                        checked += 1
    assert checked > 20000


def _gauss_legendre_positive_half(order: int) -> list[tuple[mp.mpf, mp.mpf]]:
    """The positive nodes of P_order and their weights 2/((1-x^2) P'(x)^2), ascending, by Newton in mpmath."""

    def d_legendre(x):
        return order * (x * mp.legendre(order, x) - mp.legendre(order - 1, x)) / (x * x - 1)

    half = []
    for i in range(1, order // 2 + 1):
        guess = mp.cos(mp.pi * (i - 0.25) / (order + 0.5))
        x = mp.findroot(lambda x: mp.legendre(order, x), guess, solver="newton", df=d_legendre)
        half.append((x, 2 / ((1 - x * x) * d_legendre(x) ** 2)))
    return sorted(half)


@pytest.mark.parametrize("rule", [_GL16, _GL32], ids=["GL16", "GL32"])
def test_gauss_legendre_table_against_mpmath(rule):
    # Measured worst case of the table against the 50-digit roots: nodes 0.3 / 1.2 ulp,
    # weights 63 / 472 ulp (7e-15 / 6e-14 relative) for GL16 / GL32.
    order = len(rule)
    assert [x for x, _ in rule] == sorted(x for x, _ in rule)
    for (x, w), (y, v) in zip(rule, reversed(rule)):
        assert x == -y and w == v
    with mp.workdps(50):
        reference = _gauss_legendre_positive_half(order)
        assert len({x for x, _ in reference}) == order // 2
        for (x, w), (x_ref, w_ref) in zip(rule[order // 2 :], reference):
            assert abs(x - x_ref) <= 2 * math.ulp(x)
            assert abs(w - w_ref) <= 1e-13 * w_ref


def _tail_of_inverse_square(a, integral_error=None):
    """abel_plana_tail of 1/z^2 from a, with its integral 1/c, c = a - 1/2, in closed form."""
    c = a - 0.5
    return abel_plana_tail(
        lambda z: 1.0 / (z * z),
        a,
        integral=QuadratureResult(1.0 / c, U / c if integral_error is None else integral_error, 0, 0.0),
        poly_degree=0,
        eval_rel=lambda r: 4 * U,
    )


@pytest.mark.parametrize("a", [1, 65, 1000])
def test_abel_plana_tail_of_inverse_squares_is_the_trigamma(a):
    # sum_{k >= a} 1/k^2 = psi'(a), from the shortest head on
    parts, bound, evaluations = _tail_of_inverse_square(a)
    with mp.workdps(50):
        want = mp.psi(1, a)
        assert abs(mp.fsum(map(mp.mpf, parts)) - want) <= bound <= 4e-15 * want
    assert evaluations <= 1_000


@pytest.mark.parametrize("a, beta", [(1, 0.01), (1, 1.0), (65, 0.3), (1000, 0.5)])
def test_abel_plana_tail_of_a_geometric_sum(a, beta):
    # sum_{k >= a} e^(-beta k) = e^(-beta a) / (1 - e^(-beta)); the integral
    # is e^(-beta c) / beta, whose rounded exponent beta c costs beta c U
    c = a - 0.5
    integral = math.exp(-beta * c) / beta
    parts, bound, _ = abel_plana_tail(
        lambda z: cmath.exp(-beta * z),
        a,
        integral=QuadratureResult(integral, (beta * c + 3) * U * integral, 0, 0.0),
        poly_degree=0,
        eval_rel=lambda r: (beta * r + 2) * U,
    )
    with mp.workdps(50):
        want = mp.exp(-beta * a) / -mp.expm1(-beta)
        assert abs(mp.fsum(map(mp.mpf, parts)) - want) <= bound <= 1e-13 * want


@pytest.mark.parametrize("z", [0.5 + 0.5j, 2 + 3j])
@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("a", [1, 65])
def test_abel_plana_tail_of_complex_terms_is_the_hurwitz_zeta(a, n, z):
    # sum_{k >= a} (k + z)^(-n) = zeta(n, a + z): a complex term, whose
    # second integral needs f(c - iy) as well as f(c + iy).  Along Re w = c
    # the term is up to 100 times the sum at (1, 10, 0.5+0.5i), and so is its rounding
    c = a - 0.5
    integral = (c + z) ** (1 - n) / (n - 1)
    parts, bound, _ = abel_plana_tail(
        lambda w: (w + z) ** -n,
        a,
        integral=QuadratureResult(integral, 4 * n * U * abs(integral), 0, 0.0),
        poly_degree=0,
        eval_rel=lambda r: 4 * n * U,
    )
    with mp.workdps(50):
        want = mp.zeta(n, a + mp.mpc(z))
        got = mp.fsum(map(mp.mpc, parts))
        assert abs(got - want) <= bound <= 2e-13 * abs(want)


@pytest.mark.parametrize("a, largest_bound", [(3, 1e-3), (8, 1e-8), (1001, 1e-18)])
def test_abel_plana_tail_raises_where_its_bound_is_not_finite(a, largest_bound):
    # a finite integral bound gives the Hurwitz zeta(2, a), also from the
    # shortest and a long head (a = 3 and 1001)
    parts, bound, _ = _tail_of_inverse_square(a)
    with mp.workdps(50):
        assert abs(mp.fsum(map(mp.mpf, parts)) - mp.zeta(2, a)) <= bound < largest_bound
    # an integral whose bound is past the float range makes the bound inf; it is not returned
    with pytest.raises(ConvergenceError, match="error bound is inf"):
        _tail_of_inverse_square(a, math.inf)
