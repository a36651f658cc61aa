import cmath
import math
import sys

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kohnspec import continuation
from kohnspec.coefficients import series_zeta
from kohnspec.continuation import (
    NEAR_POLE_RADIUS,
    QUADRATURE_TOL,
    StripPoint,
    continuation_residual,
    continued_coefficient,
    pole_term,
    stanton_coefficient,
)
from kohnspec.errors import MAX_N, ConvergenceError
from kohnspec.special_functions import U, integrate_decaying

# Anchors frozen from an independent high-precision evaluation of the same
# integrals (50-digit working precision, cancellation-free integrands).
F_ANCHORS = {
    (4, 1.5): 0.0077463369939556698,
    (5, 0.7): 0.0049857956520788428,
    (4, 1.2 + 0.7j): 0.0027598317527301662 - 0.0023255388993342311j,
}
G_ANCHORS = {
    (4, 0.5): 0.0058937122148620566,
    (3, -0.5): 0.12640159429022486,
    (5, 1.2 + 0.7j): 0.00018643627137637854 - 6.5323485589094064e-05j,
    (6, 0): 0.00011563672007806142,
}


def test_strip_point_validation():
    with pytest.raises(ValueError):
        StripPoint(2, 1.0)
    with pytest.raises(ValueError):
        StripPoint(3.0, 1.0)  # type: ignore[arg-type]
    pt = StripPoint(3, 1)
    assert pt.q == complex(1.0, 0.0)
    assert pt.m == 2


@pytest.mark.parametrize("q", [math.nan, math.inf, complex(0.5, math.nan), complex(1.0, -math.inf)])
def test_strip_point_rejects_a_q_that_is_not_finite(q):
    with pytest.raises(ValueError, match="q must be finite, got q = "):
        StripPoint(3, q)


@pytest.mark.parametrize("n, q", [(3, 1e-177), (3, 1e-104), (10, 1 + 300j), (10, 1e300j)])
def test_pole_term_names_q_where_it_leaves_the_float_range(n, q):
    # q^-n overflows, or e^(pi |im q|) outgrows the binomial's other factors
    with pytest.raises(ValueError, match=f"pole term at n = {n}, q = .* leaves the float range"):
        pole_term(StripPoint(n, q))


def test_stanton_closed_form_anchor():
    got = stanton_coefficient(StripPoint(3, 1.0))
    assert abs(got - math.pi**2 / 72) <= 1e-9 * (math.pi**2 / 72)
    assert abs(got.imag) < 1e-12


@pytest.mark.parametrize("key", sorted(F_ANCHORS, key=str))
def test_stanton_frozen_anchors(key):
    n, q = key
    want = F_ANCHORS[key]
    got = stanton_coefficient(StripPoint(n, q))
    assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("key", sorted(G_ANCHORS, key=str))
def test_continued_frozen_anchors(key):
    n, q = key
    want = G_ANCHORS[key]
    got = continued_coefficient(StripPoint(n, q))
    assert abs(got - want) <= 1e-9 * abs(want)


def test_continued_at_zero_recovers_counting_coefficient():
    for n in (3, 4, 5, 6):
        got = continued_coefficient(StripPoint(n, 0.0))
        assert abs(got - series_zeta(n).value) < 1e-8
        assert abs(got.imag) < 1e-12


def test_strip_domains_enforced():
    with pytest.raises(ValueError):
        stanton_coefficient(StripPoint(3, -0.5))
    with pytest.raises(ValueError):
        stanton_coefficient(StripPoint(3, 2.0))
    with pytest.raises(ValueError):
        continued_coefficient(StripPoint(3, -1.0))
    with pytest.raises(ValueError):
        continued_coefficient(StripPoint(3, 2.5))


def test_near_pole_refusal_points_at_continuation():
    with pytest.raises(ValueError, match="continued_coefficient"):
        stanton_coefficient(StripPoint(3, 0.01))
    # just outside the radius the evaluator works
    outside = NEAR_POLE_RADIUS * 1.2
    value = stanton_coefficient(StripPoint(3, outside))
    assert abs(value) > 0


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("q_spec", ["low", "mid", "complex"])
def test_identity_residual_small(n, q_spec):
    q = {"low": 0.3, "mid": (n - 1) / 2, "complex": 1.2 + 0.7j}[q_spec]
    assert continuation_residual(StripPoint(n, q)) < 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 6: at large |im q| the quadrature pair loses every digit of f; "
    "the series with a printed bound is the mend",
)
@pytest.mark.parametrize("q", [1 + 20j, 1 + 100j])
def test_identity_residual_small_against_f_at_large_imaginary_q(q):
    # at n = 10 the residual is 2.8e-7 against |f| = 2.9e-7 at 1+20i and
    # 5.0e94 against 3.4e94 at 1+100i, while the pole term there is good to 1e-15
    point = StripPoint(10, q)
    assert continuation_residual(point) <= 1e-8 * abs(stanton_coefficient(point))


def test_pole_term_constant():
    # the residual identity pins the pole constant; at (3, 1) it is
    # binom(2,1) / (2! * 3 * 2^3) = 1/24
    got = pole_term(StripPoint(3, 1.0))
    assert abs(got - 1.0 / 24.0) <= 1e-12
    # and quadrature of the two evaluators reproduces it
    f = stanton_coefficient(StripPoint(3, 1.0))
    g = continued_coefficient(StripPoint(3, 1.0))
    assert abs((f - g) - got) < 1e-9


def test_pole_term_rejects_origin():
    with pytest.raises(ValueError):
        pole_term(StripPoint(3, 0.0))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pole_blowup_scales_like_q_to_minus_n(n):
    m = n - 1
    measured = abs(pole_term(StripPoint(n, 0.01))) / abs(pole_term(StripPoint(n, 0.1)))
    # binom(m, q) drifts between the two points; normalize it away using
    # an independent gamma implementation
    binom_ratio = (
        math.gamma(1.1) * math.gamma(m + 0.9) / (math.gamma(1.01) * math.gamma(m + 0.99))
    )
    assert measured / binom_ratio == pytest.approx(10.0**n, rel=0.03)


def test_schwarz_symmetry():
    pt = StripPoint(4, 0.4 + 0.3j)
    conj_pt = StripPoint(4, 0.4 - 0.3j)
    for fn in (stanton_coefficient, continued_coefficient):
        a = fn(pt)
        b = fn(conj_pt)
        assert abs(b - a.conjugate()) <= 1e-12 * abs(a)
    assert abs(pole_term(conj_pt) - pole_term(pt).conjugate()) <= 1e-13 * abs(
        pole_term(pt)
    )


@pytest.mark.parametrize("q", [0.5, 1.0, 1.7])
def test_fold_matches_split_pair(q):
    # the two-exponential integrand equals the sum of two single-exponential
    # integrals evaluated separately
    n, m = 4, 3
    pt = StripPoint(n, q)

    def half(rate):
        def integrand(tau):
            e = -math.expm1(-2.0 * tau)
            value = 2.0**m * (tau / e) ** m * math.exp(-2.0 * rate * tau)
            return value, value, (3 * m + 16) * U

        return integrate_decaying(integrand, tol=QUADRATURE_TOL).value

    from kohnspec.continuation import _reciprocal_gammas

    # binom(m, q) vol(S^(2n-1)) / ((2 pi)^n n!) = binom(m, q) / m! * 2 / (2^n n!)
    split_sum = _reciprocal_gammas(m, complex(q), 2.0 ** (n - 1) * math.factorial(n)) * (
        half(q) + half(m - q)
    )
    folded = stanton_coefficient(pt)
    assert abs(folded - split_sum) <= 1e-8 * abs(folded)


def _domain_accepts(evaluator, point: StripPoint) -> bool:
    """True unless the evaluator refuses the point; node_cap=1 stops it right after the check."""
    try:
        evaluator(point, node_cap=1)
    except ConvergenceError:
        return True
    except ValueError:
        return False
    raise AssertionError("node_cap=1 cannot finish a quadrature")


@st.composite
def strip_points(draw):
    """StripPoints around both strips, their edges and the near-pole disk included."""
    n = draw(st.integers(3, 8))
    edges = [-1.0, 0.0, NEAR_POLE_RADIUS, float(n - 1)]
    re = draw(st.sampled_from(edges) | st.floats(-2.0, float(n)))
    im = draw(st.sampled_from([0.0, NEAR_POLE_RADIUS]) | st.floats(-2.0, 2.0))
    return StripPoint(n, complex(re, im))


@given(strip_points())
def test_strip_predicates_match_the_evaluators(point):
    assert point.in_stanton_strip == _domain_accepts(stanton_coefficient, point)
    assert point.in_continued_strip == _domain_accepts(continued_coefficient, point)


def _pole_reference(n: int, q: complex) -> mp.mpc:
    """binom(n-1, q) q^(-n) / ((n-1)! n 2^n) at 50 digits."""
    with mp.workdps(50):
        return mp.binomial(n - 1, mp.mpc(q)) * mp.mpc(q) ** (-n) / (mp.factorial(n - 1) * n * mp.mpf(2) ** n)


def test_continuation_at_its_table_entry_and_beyond():
    largest = MAX_N["continuation"][0]
    # at q = 0 e^g of the continued integrand overflows near tau = 0 from
    # n = 82; the integrand then forms tau^m e^g in one exponent
    g0 = continued_coefficient(StripPoint(largest, 0))
    want = series_zeta(largest).value
    assert abs(g0 - want) <= 1e-13 * want
    # the pole term is smallest as re q nears n - 1, and stays a normal float
    for q in (0.5, 2.0, 3 + 1j, largest - 1.5, largest - 1.05):
        pole = pole_term(StripPoint(largest, q))
        ref = _pole_reference(largest, q)
        assert abs(pole) >= sys.float_info.min, q
        assert abs(pole - ref) <= 1e-12 * abs(ref), q
    for q in (2.0, 3 + 1j):
        point = StripPoint(largest, q)
        f = stanton_coefficient(point)
        assert continuation_residual(point) <= 1e-12 * abs(f), q
    with pytest.raises(ValueError, match=f"^continuation supports n <= {largest}, got n = {largest + 1}:"):
        StripPoint(largest + 1, 1.0)


@pytest.mark.parametrize("n", [3, 4, 10, 40, 60, 82])
def test_pole_term_matches_the_50_digit_binomial(n):
    # binom(m, q) by Euler's reflection formula is a finite product: a few
    # ulps per factor, where a difference of log-gammas of size ~280 lost
    # digits (1.6e-13 at n = 82, q = 0.05)
    m = n - 1
    for q in (0.5 + 0.5j, 2 + 3j, 0.05, m - 0.05, 1, 2, -0.5 + 0.3j, -0.9, m / 2 + 1j, m - 0.5 + 2j):
        ref = _pole_reference(n, q)
        assert abs(pole_term(StripPoint(n, q)) - ref) <= 2e-14 * abs(ref), q


@pytest.mark.parametrize("n, q", [(3, 0.5 + 230j), (10, 1 + 226j), (82, 1 + 226j), (82, 40 + 240j)])
def test_pole_term_answers_where_sin_pi_q_alone_overflows(n, q):
    # sin(pi q) passes the float range from |im q| ~ 226 on; the product's
    # factors and q^(-n) bring the value back into it
    pole = pole_term(StripPoint(n, q))
    ref = _pole_reference(n, q)
    assert cmath.isfinite(pole)
    assert abs(pole - ref) <= 1e-14 * abs(ref)


def test_binomial_zeros_are_exact_off_the_strip():
    # 1/Gamma(q+1) vanishes at q = -1, -2, ...; 1/Gamma(m-q+1) at q = m+1, ...
    for q in (-1.0, -2.0, 3.0, 7.0):
        assert pole_term(StripPoint(3, q)) == 0


def _folded_series(n: int, q: complex, first: int) -> mp.mpc:
    """sum_{k >= first} binom(m+k-1, k) / (2 (q+k))^(m+1) at 50 digits, m = n - 1.

    With E^(-m) = sum_k binom(m+k-1, k) e^(-2k tau), int_0^inf tau^m E^(-m)
    e^(-2 q tau) dtau is m! times this sum from k = 0; the k = 0 term is the
    one that E^(-m) - 1 drops.
    """
    m = n - 1
    with mp.workdps(50):
        return mp.nsum(lambda k: mp.binomial(m + k - 1, k) / (2 * (q + k)) ** (m + 1), [first, mp.inf])


def _edge_reference(evaluator, n: int, q: complex) -> mp.mpc:
    """stanton_coefficient or continued_coefficient at q, from the series above.

    The continued integral carries half the weight 2^m and its prefactor
    twice, and drops the k = 0 term of the e^(-2 q tau) side.
    """
    m = n - 1
    with mp.workdps(50):
        prefactor = mp.binomial(m, q) * 2 / (mp.factorial(m) * mp.mpf(2) ** n * mp.factorial(n))
        first = 0 if evaluator is stanton_coefficient else 1
        folded = 2**m * (_folded_series(n, q, first) + _folded_series(n, m - q, 0))
        return prefactor * mp.factorial(m) * folded


@pytest.mark.parametrize(
    "evaluator, n, q",
    [
        (continued_coefficient, 20, -0.95),
        (continued_coefficient, 40, -0.75),
        (stanton_coefficient, 78, 0.05),
        *((continued_coefficient, 82, q) for q in (-0.99, -0.98, -0.95, -0.9, 0.05, 80.95)),
        (stanton_coefficient, 82, 0.05),
        (stanton_coefficient, 82, 80.95),
    ],
)
def test_the_strip_edge_answers(evaluator, n, q):
    # the decay rate is small there and the quadrature reaches out to tau of
    # several hundred (tens of thousands at n = 82, q = -0.99), where
    # e^(-2q tau) or (tau/E)^m alone passes the float range while the
    # integrand does not
    value = evaluator(StripPoint(n, q))
    want = _edge_reference(evaluator, n, q)
    assert value.imag == 0.0
    assert abs(value.real - want) <= 1e-12 * want


@pytest.mark.parametrize(
    "evaluator, n, q, rel",
    [
        (stanton_coefficient, 82, 0.5 + 0.5j, 1e-3),
        (continued_coefficient, 82, 0.5 + 0.5j, 2e-13),
        (stanton_coefficient, 40, 2 + 3j, 3e-5),
        (continued_coefficient, 40, 2 + 3j, 1e-9),
    ],
)
def test_the_loss_where_the_parts_cancel_stays_where_it_is(evaluator, n, q, rel):
    # f's integral is about (re q / |q|)^n of its parts', so f loses digits
    # that no quadrature keeps (ROADMAP item 6, whose series mends it); g
    # loses fewer.  Measured: f 8.7e-4 and 2.1e-5, g 9.9e-14 and 8.3e-10,
    # relative.
    value = evaluator(StripPoint(n, q))
    want = _edge_reference(evaluator, n, q)
    assert abs(value - want) <= rel * abs(want)


@pytest.mark.parametrize("q", [-0.999, -0.995])
def test_float_range_failure_where_the_integrand_passes_it_is_named(q):
    # at n = 82, q = -0.999 the integrand peaks near e^778; at q = -0.995 it
    # stays finite but its integral passes the float range
    with pytest.raises(ValueError, match=r"at n = 82, q = .* leaves the float range"):
        continued_coefficient(StripPoint(82, q))


@pytest.mark.parametrize("evaluator", [stanton_coefficient, continued_coefficient])
def test_node_cap_failure_names_the_evaluator_and_point(evaluator):
    pattern = rf"^{evaluator.__name__} at n = 4, q = \(1\+1j\): node cap 100 exceeded at \["
    with pytest.raises(ConvergenceError, match=pattern):
        evaluator(StripPoint(4, 1 + 1j), node_cap=100)


def _folded_reference(tau: float, m: int, q: complex, shift: int) -> mp.mpc:
    """The continuation's integrand at the float tau, at the working precision.

    E^(-m) - 1 comes from expm1 and log1p, so it keeps its digits as E -> 1.
    """
    t = mp.mpf(tau)
    log_e = mp.log1p(-mp.exp(-2 * t))
    base = (t / mp.exp(log_e)) ** m
    a = (t**m * mp.expm1(-m * log_e) if shift else base) * mp.exp(-2 * mp.mpf(q.real) * t)
    b = base * mp.exp(-2 * (m - mp.mpf(q.real)) * t)
    theta = 2 * mp.mpf(q.imag) * t
    return mp.mpf(2) ** (m - shift) * mp.mpc((a + b) * mp.cos(theta), (b - a) * mp.sin(theta))


@pytest.mark.parametrize(
    "evaluator, n, q",
    [
        (continued_coefficient, 82, 0.05),
        (stanton_coefficient, 82, 0.05),
        (continued_coefficient, 20, -0.95),
        (continued_coefficient, 40, 2 + 3j),
        (stanton_coefficient, 10, 4.5 + 3j),
    ],
)
def test_stated_rounding_holds_at_the_nodes_the_rule_visits(monkeypatch, evaluator, n, q):
    # Every node's error against 80 digits is within the rounding the integrand
    # states against the parts' modulus.  Without the exponent's rate tau U the
    # statement fell short by up to 4.3 times (continued, n = 82, q = 0.05,
    # tau = 516) and 1.8 times (stanton there, tau = 6 884); with it the worst
    # ratio is 0.41.
    seen = []

    def spy(integrand, **kwargs):
        def recorded(tau):
            seen.append((tau, integrand(tau)))
            return seen[-1][1]

        return integrate_decaying(recorded, **kwargs)

    monkeypatch.setattr(continuation, "integrate_decaying", spy)
    evaluator(StripPoint(n, q))
    shift = int(evaluator is continued_coefficient)
    with mp.workdps(80):
        for tau, (value, modulus, rel) in seen:
            error = abs(mp.mpc(value) - _folded_reference(tau, n - 1, complex(q), shift))
            assert error <= rel * modulus, (tau, float(error / (rel * modulus)))
