"""Special-function kernels and a deterministic half-line quadrature engine.

Covers exactly what the spectral computations need and nothing more:

* even zeta values as exact rational multiples of pi powers (Bernoulli route),
* log(1 - e^(-2x)) and the half-line integrands' kernels (x/E)^m e^(-rate x)
  and x^m (E^(-m) - 1) e^(-rate x), E = 1 - e^(-2x), overflow-free in range,
* integrate_decaying: adaptive Gauss-Legendre panels on [0, T] plus a
  certified analytic bound for the [T, inf) tail of integrands with a known
  exponential decay rate,
* abel_plana_tail: the tail sum_{k >= a} f(k) of a series whose term is
  analytic on Re z >= a - 1/2, as two such integrals.

Everything here is deterministic: fixed node sets, fixed refinement order,
no randomness, so repeated calls return bit-identical results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DEFAULT_NODE_CAP, ConvergenceError

__all__ = [
    "PiMultiple",
    "bernoulli",
    "zeta_even",
    "log1mexp2",
    "folded_power",
    "folded_excess",
    "QuadratureResult",
    "integrate_decaying",
    "HEAD_TERMS",
    "abel_plana_tail",
]

U = 2.0**-53  # unit roundoff of a float
HEAD_TERMS = 64  # terms a caller sums exactly before the Abel-Plana tail
_PANEL_REL = 1e-14  # the relative agreement a GL16/GL32 panel pair can reach


@dataclass(frozen=True)
class PiMultiple:
    """A real number of the form rational * pi**pi_power, kept exact."""

    rational: Fraction
    pi_power: int

    @property
    def value(self) -> float:
        return float(self.rational) * math.pi**self.pi_power


_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(k: int) -> Fraction:
    """Exact k-th Bernoulli number, B_1 = -1/2 convention.

    Recurrence: sum_{j=0}^{m} binom(m+1, j) B_j = 0 for m >= 1.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    while len(_bernoulli_cache) <= k:
        m = len(_bernoulli_cache)
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * _bernoulli_cache[j]
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[k]


def zeta_even(k: int) -> PiMultiple:
    """zeta(k) for even k >= 2, as an exact rational multiple of pi**k.

    Closed form: zeta(k) = (-1)**(k/2 + 1) * B_k * (2 pi)**k / (2 * k!),
    so the rational part is (-1)**(k/2 + 1) * B_k * 2**(k-1) / k!.
    """
    if k < 2 or k % 2:
        raise ValueError(f"zeta_even needs even k >= 2, got {k}")
    sign = -1 if (k // 2 + 1) % 2 else 1
    rational = sign * bernoulli(k) * Fraction(2 ** (k - 1), math.factorial(k))
    return PiMultiple(rational, k)


def log1mexp2(x: float) -> float:
    """log(1 - e^(-2x)) for x > 0, to full relative accuracy at both ends.

    log(-expm1) below the crossover, log1p above it: plain log(-expm1(-2x))
    loses six digits for large x, which the integrands then amplify.
    """
    if x < 0.35:
        return math.log(-math.expm1(-2.0 * x))
    return math.log1p(-math.exp(-2.0 * x))


_LOG_SAFE = 700.0  # e^-y is a normal float for y below this


def folded_power(x: float, m: int, rate: float) -> float:
    """(x/E)^m e^(-rate x) for x > 0, m >= 1 and rate >= 0, with E = 1 - e^(-2x) from expm1.

    The product of the two factors where both are normal floats, else one
    m-th power of the bounded base (x/E) e^(-rate x/m); so OverflowError only
    where the value itself passes the float range.
    """
    base = x / -math.expm1(-2.0 * x)
    if rate * x < _LOG_SAFE:
        try:
            return base**m * math.exp(-rate * x)
        except OverflowError:  # base**m alone passes the float range
            pass
    return (base * math.exp(-rate * x / m)) ** m


def folded_excess(x: float, m: int, rate: float) -> float:
    """x^m (E^(-m) - 1) e^(-rate x) for x > 0, m >= 1 and rate >= -2, with E = 1 - e^(-2x).

    folded_power(x, m, rate + 2) times h = (1 - E^m)/e^(-2x) = sum_{k<m} E^k,
    which lies in [1, m] and is m to double precision from x = 25 on.  h comes
    from expm1(m log E), so neither E^(-m) nor its cancellation against 1 is
    formed; OverflowError only where the value passes the float range.
    """
    h = m if x >= 25.0 else -math.expm1(m * log1mexp2(x)) * math.exp(2.0 * x)
    value = folded_power(x, m, rate + 2.0) * h
    if value == math.inf:  # the power fits, the value does not
        raise OverflowError("math range error")
    return value


@dataclass(frozen=True)
class QuadratureResult:
    """Value and certified error budget of a half-line integral.

    error_estimate = sum of per-panel GL16/GL32 discrepancies (each a
    conservative stand-in for the accepted panel's true error), the analytic
    bound on the discarded [truncation_point, inf) tail and the sum's rounding.
    """

    value: float | complex
    error_estimate: float
    nodes_used: int
    truncation_point: float


# Gauss-Legendre nodes and weights on [-1, 1]: the positive half, ascending.
# The repr of the leggauss(16) and leggauss(32) tables that README's design
# notes name, whose nodes are exactly antisymmetric and weights exactly
# symmetric, so mirroring gives the full tables bit for bit and in order.
# A literal table, not a Newton solve at import: Newton reproduces the nodes
# but not every weight to the last bit, and the quadrature sums would move.
_GL16_HALF = (
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)
_GL32_HALF = (
    (0.048307665687738324, 0.09654008851472766),
    (0.1444719615827965, 0.09563872007927471),
    (0.23928736225213706, 0.09384439908080451),
    (0.33186860228212767, 0.09117387869576378),
    (0.42135127613063533, 0.08765209300440378),
    (0.5068999089322294, 0.08331192422694671),
    (0.5877157572407623, 0.07819389578707023),
    (0.6630442669302152, 0.07234579410884834),
    (0.7321821187402897, 0.06582222277636168),
    (0.7944837959679424, 0.058684093478535565),
    (0.84936761373257, 0.05099805926237609),
    (0.8963211557660521, 0.042835898022226836),
    (0.9349060759377397, 0.034273862913021765),
    (0.9647622555875064, 0.025392065309262024),
    (0.9856115115452684, 0.016274394730905743),
    (0.9972638618494816, 0.007018610009470506),
)
_GL16 = tuple((-x, w) for x, w in reversed(_GL16_HALF)) + _GL16_HALF
_GL32 = tuple((-x, w) for x, w in reversed(_GL32_HALF)) + _GL32_HALF


def _panel(f: Callable, a: float, b: float, rule) -> float | complex:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total: float | complex = 0.0
    for x, w in rule:
        total = total + w * f(mid + half * x)
    return half * total


def _log_tail_weight(T: float, s: int, d: float) -> float:
    """log of the exact integral of x**s * exp(-d x) over [T, inf), integer s >= 0, T > 0.

    The closed form exp(-d T) sum_j s!/(s-j)! T^(s-j) / d^(j+1) is evaluated
    as s log T - d T + log sum_j s!/(s-j)! / (T^j d^(j+1)), so that T^s never
    appears on its own: the result is finite even where the weight itself
    leaves the float range.
    """
    acc = 0.0
    term = 1.0 / d
    for j in range(s + 1):
        acc += term
        term *= (s - j) / (T * d)
    return s * math.log(T) - d * T + math.log(acc)


def integrate_decaying(
    integrand: Callable[[float], float | complex],
    decay_rate: float,
    *,
    tol: float,
    poly_degree: int,
    eval_rel: Callable[[float], float],
    node_cap: int = DEFAULT_NODE_CAP,
) -> QuadratureResult:
    """Integrate f over [0, inf) for f with |f(x)| <= C * x**poly_degree * exp(-decay_rate * x).

    decay_rate must genuinely lower-bound the exponential decay of |f| and
    poly_degree upper-bound its polynomial growth; both are used to certify
    the truncation tail.  C is estimated from samples near the truncation
    point, so the reported error_estimate is an a posteriori bound, honest
    whenever the envelope assumption holds.

    The [0, T] part uses adaptive bisection with paired 16/32-point
    Gauss-Legendre panels.  eval_rel(x), non-decreasing, is the caller's
    statement of the relative rounding of one evaluation at node x.  A panel
    [a, b] is accepted when the pair agrees within the width share (b - a)/T
    of max(tol, floor |sum|)/2, the sum taken over the accepted panels and
    this one, or within floor = max(_PANEL_REL, eval_rel(b)) of the panel's
    own value: the share follows the size of the integral once that passes
    tol, and no panel is asked for digits its rounding does not hold.  The
    estimate adds the sum's rounding: eval_rel(b), the largest of the panel's
    nodes, times each accepted panel's modulus, and (35 + nodes_used // 48) U
    times their sum, |value| if one-signed: 32 weights and a half width per
    panel, one addition each, two roundings for a prefactor.
    tol is absolute; complex-valued integrands are supported transparently.
    Raises ValueError unless decay_rate and tol are positive and finite and
    poly_degree is a nonnegative integer, ConvergenceError when node_cap
    would be exceeded or no certifiable truncation point exists,
    OverflowError when the sum is not a finite float.
    """
    if not (math.isfinite(decay_rate) and decay_rate > 0.0):
        raise ValueError(f"decay_rate must be positive and finite, got {decay_rate}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not (isinstance(poly_degree, int) and poly_degree >= 0):
        raise ValueError(f"poly_degree must be a nonnegative integer, got {poly_degree}")
    d = float(decay_rate)
    s = poly_degree
    nodes_used = 0

    def log_envelope_constant(T: float) -> float:
        nonlocal nodes_used
        ln_c = -math.inf
        for i in range(8):
            x = T * (0.55 + 0.45 * i / 7.0)
            v = abs(integrand(x))
            nodes_used += 1
            if v == 0.0:
                continue
            ln_c = max(ln_c, math.log(v) + d * x - s * math.log(x))
        return ln_c

    # The tail bound C * weight is formed in logs: either factor alone can
    # leave the float range while their product is tiny.
    log_half_tol = math.log(0.5 * tol)
    T = max(2.0 * (s + 1) / d, 8.0 / d, 1.0)
    for _ in range(400):
        if nodes_used + 8 > node_cap:
            raise ConvergenceError(f"node cap {node_cap} exceeded while truncating")
        log_tail = log_envelope_constant(T) + _log_tail_weight(T, s, d)
        if log_tail <= log_half_tol:
            tail_bound = math.exp(log_tail)
            break
        T *= 1.25
    else:
        raise ConvergenceError(
            f"no truncation point certified the tail below {0.5 * tol:g}; "
            "check decay_rate/poly_degree"
        )

    # Geometric initial panels, finer toward 0 where the integrand varies fastest.
    smallest = min(1.0, 1.0 / d, T / 8.0)
    edges = [T]
    width = T
    while width > smallest:
        width /= 2.0
        edges.append(width)
    edges.append(0.0)
    edges.reverse()

    stack = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    stack.reverse()
    value: float | complex = 0.0
    moduli = booked = panel_error = 0.0
    while stack:
        a, b = stack.pop()
        if nodes_used + 48 > node_cap:
            raise ConvergenceError(f"node cap {node_cap} exceeded at [{a:g}, {b:g}]")
        coarse = _panel(integrand, a, b, _GL16)
        fine = _panel(integrand, a, b, _GL32)
        nodes_used += 48
        diff = abs(fine - coarse)
        rel = eval_rel(b)
        floor = max(_PANEL_REL, rel)
        if (
            diff <= 0.5 * max(tol, floor * abs(value + fine)) * (b - a) / T
            or diff <= floor * abs(fine)
        ):
            value = value + fine
            moduli += abs(fine)
            booked += rel * abs(fine)
            # |truth - fine| can match |fine - coarse| when a panel is
            # accepted at the rounding floor, so the heuristic gets a
            # safety factor before it is reported as a bound.
            panel_error += 2.0 * diff
        else:
            mid = 0.5 * (a + b)
            stack.append((mid, b))
            stack.append((a, mid))

    if not cmath.isfinite(value):
        raise OverflowError(f"the integral's sum is not finite: {value}")
    rounding = booked + (35 + nodes_used // 48) * U * moduli
    return QuadratureResult(value, panel_error + tail_bound + rounding, nodes_used, T)


def abel_plana_tail(
    term: Callable[[complex], complex],
    a: int,
    *,
    integral: QuadratureResult,
    poly_degree: int,
    eval_rel: Callable[[float], float],
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[list[float | complex], float, int]:
    """sum_{k >= a} term(k) as (parts to add, error bound, evaluations), a >= 1.

    The midpoint Abel-Plana formula (F. W. J. Olver, Asymptotics and Special
    Functions, ch. 8 sec. 3; DLMF 2.10(i)), with c = a - 1/2:

        integral_c^inf f(x) dx - i integral_0^inf (f(c+iy) - f(c-iy)) / (e^(2 pi y) + 1) dy,

    for f analytic on Re z >= c with |f(c + iy)| at most a polynomial of
    degree poly_degree in y.  The caller states integral, the first part from
    integrate_decaying, and eval_rel(r), the relative rounding of one
    evaluation of the term at modulus r.  The second part integrates the
    complex f(c + iy)/(e^(2 pi y) + 1), whose weight adds 4 pi y + 4
    roundings, by integrate_decaying at decay rate 2 pi and tol U |integral|,
    so its panels and rounding are measured against |f|.  For a real term
    f(c - iy) = conj f(c + iy), and that part is twice the imaginary part of
    the one integral; a complex integral marks a complex term, which takes
    f(c - iy) as well.  The bound adds the integrals' error estimates, the
    evaluations are their nodes; ConvergenceError if the bound is not finite.
    """
    c = a - 0.5

    def side(sign: float) -> QuadratureResult:
        def integrand(y: float) -> complex:
            weight = math.exp(-math.tau * y)
            return term(complex(c, sign * y)) * (weight / (1.0 + weight))

        return integrate_decaying(
            integrand, math.tau, tol=U * abs(integral.value), poly_degree=poly_degree, node_cap=node_cap,
            eval_rel=lambda y: eval_rel(math.hypot(c, y)) + (2.0 * math.tau * y + 4.0) * U,
        )

    upper = side(1.0)
    if isinstance(integral.value, complex):
        lower = side(-1.0)
        correction = -1j * (upper.value - lower.value)
        error = upper.error_estimate + lower.error_estimate
        nodes = upper.nodes_used + lower.nodes_used
    else:
        correction, error, nodes = 2.0 * upper.value.imag, 2.0 * upper.error_estimate, upper.nodes_used
    bound = integral.error_estimate + error
    if not math.isfinite(bound):
        raise ConvergenceError(f"the error bound is {bound}")
    return [integral.value, correction], bound, integral.nodes_used + nodes
