import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kohnspec.coefficients import series_zeta
from kohnspec.continuation import (
    NEAR_POLE_RADIUS,
    StripPoint,
    continuation_residual,
    continued_coefficient,
    dominating_integral,
    pole_term,
    stanton_coefficient,
)
from kohnspec.errors import ConvergenceError
from kohnspec.special_functions import integrate_decaying

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
            return 2.0**m * (tau / e) ** m * math.exp(-2.0 * rate * tau)

        return integrate_decaying(integrand, 2.0 * rate, poly_degree=m).value

    from kohnspec.continuation import _complex_binom, _volume_prefactor

    split_sum = _complex_binom(m, complex(q)) * _volume_prefactor(n) * (
        half(q) + half(m - q)
    )
    folded = stanton_coefficient(pt)
    assert abs(folded - split_sum) <= 1e-8 * abs(folded)


def test_dominating_integral_anchors():
    assert dominating_integral(2.0, 3) == pytest.approx(
        0.083039468191618528, rel=1e-9
    )
    assert dominating_integral(50.0, 1) == pytest.approx(
        0.0050503333066742815, rel=1e-9
    )


def test_dominating_integral_positive_decreasing():
    values = [dominating_integral(beta, 2) for beta in (1.0, 2.0, 4.0)]
    assert all(v > 0 for v in values)
    assert values[0] > values[1] > values[2]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_dominating_integral_large_beta_scaling(m):
    # for large beta the mass sits near 0 where the integrand tends to
    # 2^(-m), so the integral behaves like 2^(-(m+1)) / beta
    beta = 50.0
    predicted = 2.0 ** -(m + 1) / beta
    assert dominating_integral(beta, m) == pytest.approx(predicted, rel=0.05)


def test_dominating_integral_validates():
    with pytest.raises(ValueError):
        dominating_integral(0.0, 2)
    with pytest.raises(ValueError):
        dominating_integral(1.0, 0)


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
