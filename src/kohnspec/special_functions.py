"""Special-function kernels and a deterministic half-line quadrature rule.

Covers exactly what the spectral computations need and nothing more:

* even zeta values as exact rational multiples of pi powers (tangent numbers),
* scaled_product: an extended-range kernel for products that leave the floats,
* log(1 - e^(-2x)) and the half-line integrands' kernels (x/E)^m e^(-rate x)
  and x^m (E^(-m) - 1) e^(-rate x), E = 1 - e^(-2x), overflow-free in range,
* integrate_decaying: the one half-line rule, a trapezoid rule in an
  exponential variable, with an error estimate from its last two steps,
* abel_plana_tail: the tail sum_{k >= a} f(k) of a series whose term is
  analytic on Re z >= a - 1/2, as two integrals by that rule.

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
    "scaled_product",
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
PI_LO = 1.2246467991473532e-16  # pi - math.pi, to about 1e-32
_FLOOR = 2.0**-60  # the share of its largest sample below which integrate_decaying's walk and ends stop


@dataclass(frozen=True)
class PiMultiple:
    """A real number of the form rational * pi**pi_power, kept exact."""

    rational: Fraction
    pi_power: int

    @property
    def value(self) -> float:
        return self.times(1)

    def times(self, num: int, den: int = 1) -> float:
        """The value times num/den > 0, the rational part rounded once."""
        rational = self.rational
        k, start = self.pi_power, scaled_rational(num * rational.numerator, den * rational.denominator)
        # pi^k = math.pi^k e^(k PI_LO / math.pi) to first order
        return scaled_product((math.pi**k, math.exp(k * (PI_LO / math.pi))), start=start)


# The extended-range kernel.  Cody and Waite's two-part ln 2, as in fdlibm's
# exp: _LN2_HI has 32 significant bits, so k * _LN2_HI is exact for |k| < 2^21.
_LN2, _LN2_HI, _LN2_LO = math.log(2.0), 6.93147180369123816490e-01, 1.90821492927058770002e-10
_LOW, _HIGH = 2.0**-480, 2.0**480  # the mantissas' band


def scaled_product(factors=(), divisors=(), exp=0.0, start=(1.0, 0)) -> float | complex:
    """prod(factors) / prod(divisors) * e^exp * m 2^e, (m, e) = start, as a float or complex.

    The extended-range kernel (Smith, Lozier and Olver, ACM TOMS 7, 1981), a
    float or complex mantissa with an int exponent: e^exp enters as 2^k e^r,
    r = exp - k ln 2 against the two-part ln 2 (Cody and Waite, Software Manual
    for the Elementary Functions, 1980), k = 0 for |Re exp| < 88.  A mantissa
    that has left 2^(+-480) returns to [1/2, 1) by an exact power of two
    before the next factor multiplies or divisor divides: one comparison per
    factor.  Factors and divisors lie within 2^(+-540), m within 2^(+-800) if
    exp is given.  Rounding, relative: U = 2^-53 per real factor or divisor,
    3 U per complex one, the rounding of exp plus 2 U for e^exp, nothing for
    the scalings unless the value is subnormal (2^-1075 absolute per part).
    OverflowError past the largest float; 0 for Re exp <= -2^19.
    """
    mantissa, exponent = start
    if exp:
        re = exp.real
        if not -88.0 < re < 88.0:
            if not -(2.0**19) < re < 2.0**19:  # past it k * _LN2_HI may round; e^exp is 2^(+-756 000)
                if re > 0.0:
                    raise OverflowError(f"e^{re:.6g} is past the extended range")
                return 0.0 * mantissa
            k = round(re / _LN2)
            exp, exponent = (exp - k * _LN2_HI) - k * _LN2_LO, exponent + k
        mantissa *= cmath.exp(exp) if exp.__class__ is complex else math.exp(exp)
    for factor in factors:
        if not _LOW <= abs(mantissa) <= _HIGH:
            mantissa, exponent = _renormalised(mantissa, exponent)
        mantissa *= factor
    for divisor in divisors:
        if not _LOW <= abs(mantissa) <= _HIGH:
            mantissa, exponent = _renormalised(mantissa, exponent)
        mantissa /= divisor
    return _ldexp(mantissa, exponent) if exponent else mantissa


def scaled_rational(num: int, den: int = 1) -> tuple[float, int]:
    """num/den > 0 as a start (m, e) for scaled_product, rounded once: e = 0 inside 2^(+-480)."""
    exponent = num.bit_length() - den.bit_length()
    if -480 < exponent < 480:
        return num / den, 0
    return (num << max(-exponent, 0)) / (den << max(exponent, 0)), exponent


def _renormalised(mantissa, exponent: int) -> tuple[float | complex, int]:
    if not cmath.isfinite(mantissa):
        raise OverflowError("a partial product passed the float range")
    shift = math.frexp(abs(mantissa))[1]
    return _ldexp(mantissa, -shift), exponent + shift


def _ldexp(mantissa, exponent: int) -> float | complex:  # exact unless the result is subnormal
    if isinstance(mantissa, complex):
        return complex(math.ldexp(mantissa.real, exponent), math.ldexp(mantissa.imag, exponent))
    return math.ldexp(mantissa, exponent)


_tangent_numbers: list[int] = []  # T_1, T_2, ...: tan x = sum_i T_i x^(2i-1) / (2i-1)!


def _tangent(i: int) -> int:
    """T_i, i >= 1, from a table rebuilt to max(i, 2 len) entries by Brent and Harvey's
    integer recurrence (arXiv:1108.0286, Algorithm TangentNumbers), O(len^2) operations.
    """
    if len(_tangent_numbers) < i:
        size = max(i, 2 * len(_tangent_numbers))
        table = [1] * size
        for k in range(1, size):
            table[k] = k * table[k - 1]
        for k in range(1, size):
            for j in range(k, size):
                table[j] = (j - k) * table[j - 1] + (j - k + 2) * table[j]
        _tangent_numbers[:] = table
    return _tangent_numbers[i - 1]


def bernoulli(k: int) -> Fraction:
    """Exact k-th Bernoulli number, B_1 = -1/2 convention.

    B_2i = (-1)^(i-1) 2i T_i / (4^i (4^i - 1)) from the tangent numbers T_i.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if k < 2 or k % 2:
        return Fraction(-1, 2) if k == 1 else Fraction(int(k == 0))
    i = k // 2
    return Fraction((-1) ** (i - 1) * k * _tangent(i), 4**i * (4**i - 1))


def zeta_even(k: int) -> PiMultiple:
    """zeta(k) for even k = 2i >= 2, as an exact rational multiple of pi**k.

    Closed form: zeta(2i) = |B_2i| (2 pi)^(2i) / (2 (2i)!), so the rational
    part is T_i / (2 (4^i - 1) (2i - 1)!) in the tangent numbers.
    """
    if k < 2 or k % 2:
        raise ValueError(f"zeta_even needs even k >= 2, got {k}")
    i = k // 2
    return PiMultiple(Fraction(_tangent(i), 2 * (4**i - 1) * math.factorial(k - 1)), k)


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
    """(x/E)^m e^(-rate x) for x > 0, 1 <= m <= 800 and rate >= 0, with E = 1 - e^(-2x) from expm1.

    The product of the two factors where both are normal floats, else f^m,
    x/E = f 2^e with f in [1/2, 1), times e^(-rate x) through the
    extended-range kernel: OverflowError only where the value passes the
    float range.  Either way within (2m + 5) U, plus rate x U where rate x is
    not exact (x/E rounds twice, raised to the m-th power).  ValueError for m
    outside [1, 800], where f^m may leave the normal floats.
    """
    if not 1 <= m <= 800:
        raise ValueError(f"folded_power needs 1 <= m <= 800, got m = {m}")
    base = x / -math.expm1(-2.0 * x)
    if rate * x < _LOG_SAFE:
        try:
            return base**m * math.exp(-rate * x)
        except OverflowError:  # base**m alone passes the float range
            pass
    fraction, exponent = math.frexp(base)
    return scaled_product(exp=-rate * x, start=(fraction**m, exponent * m))


def folded_excess(x: float, m: int, rate: float) -> float:
    """x^m (E^(-m) - 1) e^(-rate x) for x > 0, 1 <= m <= 800 and rate >= -2, with E = 1 - e^(-2x).

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
    """A half-line integral by integrate_decaying: its value, error estimate, evaluations and far end.

    error_estimate is the rule's estimate from its last two changes plus the
    rounding the nodes book, an a posteriori figure and not a bound;
    truncation_point is the rule's last node.
    """

    value: float | complex
    error_estimate: float
    nodes_used: int
    truncation_point: float


def integrate_decaying(
    integrand: Callable[[float], tuple], *, tol: float, node_cap: int = DEFAULT_NODE_CAP
) -> QuadratureResult:
    """integral_0^inf F(u) du by one trapezoid rule in an exponential variable.

    integrand(u) gives F(u), a modulus M(u) >= |F(u)| and its stated relative
    rounding, in at most node_cap evaluations.  The rule runs in s after
    u = u0 e^v, v = 2s + s^3/8, exact at its nested steps 1/2, 1/4, ..., 2^-13
    and, as exp-sinh (Tanaka, Sugihara, Murota and Mori, Numer. Math. 111,
    2009), spanning far ends in few nodes; it converges exponentially in the
    number of nodes (Trefethen and Weideman, SIAM Review 56, 2014).  A walk
    over u = 4^j/256 finds u0, where g = u M(u) peaks, the ends, where g falls
    below _FLOOR g(u0) (like u below the walk), and each turn: a share
    r = g/g(u0) > U whose log bends by T > 1/8 needs a step in v of at most
    min(2 pi^2, pi sigma sqrt(2 L)) / L, sigma = log 4 / sqrt(T), L = log(r/U).
    It stops at the first such step where d min(1, d/d') of its last two
    changes is within the booked rounding plus tol, an absolute floor.  A node
    books its stated rounding plus 3 U: e^v (u0 is a power of two), moving the
    weight u with the argument, and the weight's two products; the estimate
    adds _FLOOR (sum + g(u0)) and U |value|.  ValueError unless tol is finite
    and nonnegative, ConvergenceError past node_cap or if no step agrees,
    OverflowError where g or the sum is not a finite float.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    used = 0

    def s_at(v: float) -> float:  # the s with 2s + s^3/8 = v, by Cardano's formula
        r = math.sqrt(16.0 * v * v + (16.0 / 3.0) ** 3)
        return (r + 4.0 * v) ** (1.0 / 3.0) - (r - 4.0 * v) ** (1.0 / 3.0)

    def spend(count: int, where: str) -> None:
        nonlocal used
        if used + count > node_cap:
            raise ConvergenceError(f"node cap {node_cap} exceeded {where}")
        used += count

    walk = [0.0]  # walk[j] is g at u = 4^j / 256
    for j in range(1, 454):
        spend(1, "while truncating")
        walk.append(4.0**j / 256.0 * integrand(4.0**j / 256.0)[1])
        if not math.isfinite(walk[j]):
            raise OverflowError(f"u |F(u)| is not finite at u = {4.0**j / 256.0:g}")
        if walk[j] <= _FLOOR * max(walk) and walk[j] < walk[j - 1]:
            break
    top, h = max(walk), 0.5
    if top == 0.0:
        return QuadratureResult(0.0, 0.0, used, 4.0 ** (len(walk) - 1) / 256.0)
    peak, logs, finest = walk.index(top), [math.log(g) if g else -math.inf for g in walk], h
    for j in range(2, len(walk) - 1):
        share, turn = logs[j] - logs[peak] - math.log(U), abs(logs[j - 1] + logs[j + 1] - 2.0 * logs[j])
        if share > 0.0 and 0.125 < turn < math.inf:
            step = min(2.0 * math.pi**2, math.pi * math.log(4.0) * math.sqrt(2.0 * share / turn)) / share
            finest = min(finest, step / (2.0 + 0.375 * s_at(math.log(4.0) * (j - peak)) ** 2))
    dropped = [j for j in range(1, peak) if walk[j] <= _FLOOR * top]
    low = 4.0 ** (dropped[-1] - peak) if dropped else min(1.0, _FLOOR * top / walk[1]) * 4.0 ** (1 - peak)
    first = math.floor(s_at(math.log(low)) / h)
    last = math.ceil(s_at(math.log(4.0) * (len(walk) - 1 - peak)) / h)
    where = f"at [0, {4.0 ** (len(walk) - 1) / 256.0:g}] at step"
    u0 = 4.0**peak / 256.0
    # each node's weighted real part, imaginary part, modulus and booked rounding
    reals, imags, moduli, booked = [], [], [], []
    kinds = set()

    def add(steps: range) -> float:  # the nodes at s = k h, k in steps; returns the last one's u
        spend(len(steps), f"{where} {h:g}")
        for k in steps:
            s = k * h
            x = u0 * math.exp(2.0 * s + s * s * s / 8.0)
            value, modulus, rel = integrand(x)
            weight = (2.0 + 0.375 * s * s) * x
            kinds.add(value.__class__)
            reals.append(weight * value.real)
            imags.append(weight * value.imag)
            moduli.append(weight * modulus)
            booked.append(moduli[-1] * (rel + 3.0 * U))
        return x

    def total() -> float | complex:  # h times the nodes' values, summed exactly
        real = h * math.fsum(reals)
        value = complex(real, h * math.fsum(imags)) if complex in kinds else real
        if not cmath.isfinite(value):
            raise OverflowError(f"the integral's sum is not finite: {value}")
        return value

    far = add(range(first, last + 1))
    value, change = total(), 0.0
    while h > 2.0**-13:
        h *= 0.5
        first, last = 2 * first, 2 * last
        add(range(first + 1, last, 2))
        previous, value, rounding = value, total(), h * math.fsum(booked)
        d = abs(value - previous)
        estimate, change = d * min(1.0, d / change) if change else d, d
        if estimate <= rounding + tol and h <= finest:
            estimate = estimate + rounding + _FLOOR * (h * math.fsum(moduli) + top) + U * abs(value)
            return QuadratureResult(value, estimate, used, far)
    raise ConvergenceError(f"no agreement {where} {h:g}")


def abel_plana_tail(
    term: Callable, a: int, *, eval_rel: Callable[[float], float], node_cap: int = DEFAULT_NODE_CAP
) -> tuple[list[float | complex], float, int]:
    """sum_{k >= a} term(k) as (parts to add, error bound, evaluations), a >= 1.

    The midpoint Abel-Plana formula (F. W. J. Olver, Asymptotics and Special
    Functions, ch. 8 sec. 3; DLMF 2.10(i)), with c = a - 1/2:

        integral_c^inf f(x) dx - i integral_0^inf (f(c+iy) - f(c-iy)) / (e^(2 pi y) + 1) dy,

    for f analytic on Re z >= c and small enough at infinity there, both by
    integrate_decaying, the second to U times the first, in at most node_cap
    evaluations (ConvergenceError past it or if the bound is not finite).
    eval_rel(r) states the relative rounding of one evaluation at modulus r,
    its argument c + u's (u rounds once) included; the second integrand's adds
    4 pi y + 4 for its weight.  A complex value at a real node marks a complex
    term, which takes f(c - iy) too; node_cap counts both evaluations.
    """
    c = a - 0.5

    def along(u: float) -> tuple:
        value = term(c + u)
        return value, abs(value), eval_rel(c + u)

    def across(y: float) -> tuple:
        nonlocal used
        used += cost
        if used > node_cap:
            raise ConvergenceError(f"node cap {node_cap} exceeded at y = {y:g}")
        weight = math.exp(-math.tau * y) / (1.0 + math.exp(-math.tau * y))
        upper, rel = term(complex(c, y)), eval_rel(math.hypot(c, y)) + (2.0 * math.tau * y + 4.0) * U
        lower = term(complex(c, -y)) if complex_term else upper.conjugate()
        return -1j * weight * (upper - lower), weight * (abs(upper) + abs(lower)), rel

    integral = integrate_decaying(along, tol=0.0, node_cap=node_cap)
    complex_term = isinstance(integral.value, complex)
    cost = 1 + complex_term  # term evaluations per node of the second integral
    used = integral.nodes_used  # term evaluations so far, which across counts on
    correction = integrate_decaying(across, tol=U * abs(integral.value), node_cap=node_cap)
    bound = integral.error_estimate + correction.error_estimate
    if not math.isfinite(bound):
        raise ConvergenceError(f"the error bound is {bound}")
    parts = [integral.value, correction.value if complex_term else correction.value.real]
    return parts, bound, used
