"""Independent references for every number the benchmark checks.

Nothing here imports kohnspec.  Integers are exact; real and complex values
come from mpmath at 50 significant digits, through formulas chosen to differ
from the package's own routes where a cheap alternative exists:

* N(lambda): hockey-stick sum over q of the product form of dim H_{p,q};
  the mode listing is checked line by line against the other closed form
  dim = (p+q+n-1)/(n-1) * C(p+n-2, p) * C(q+n-2, q).
* c(n): exact polynomial expansion of the series weight, summed against
  mpmath.zeta at every argument (odd ones included, so a parity slip shows).
* heat split sums: a direct head plus an Euler-Maclaurin tail whose
  integral and derivatives mpmath evaluates.
* form-degree coefficients: mpmath.quad of the textbook integrands over the
  unfolded variable, and the pole term in closed form.

The heat and quadrature references cost seconds each, so the values for the
inputs the workloads can draw are stored in reference.json; regenerate it
with `python3 bench/oracle.py --write`.  A value missing from the table is
computed on the spot.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp

DPS = 50
mp.mp.dps = DPS
TABLE_PATH = Path(__file__).with_name("reference.json")


# ------------------------------------------------------------- exact counts


def _threshold(lam: float) -> int:
    """Largest integer <= lam; eigenvalues are integers, so N(lam) = N(floor(lam))."""
    return math.floor(Fraction(lam))


def _p_max(n: int, big_l: int, q: int) -> int:
    """Largest p with 2q(p+n-1) <= big_l (may be negative: no line at this q)."""
    return big_l // (2 * q) - (n - 1)


def line_count(n: int, lam: float) -> int:
    """Number of (p, q) pairs, p >= 0, q >= 1, with 2q(p+n-1) <= lam."""
    big_l = _threshold(lam)
    total = 0
    q = 1
    while (p_top := _p_max(n, big_l, q)) >= 0:
        total += p_top + 1
        q += 1
    return total


def eigen_count(n: int, lam: float) -> int:
    """N(lam) by summing dim over p in closed form (hockey stick) for each q."""
    big_l = _threshold(lam)
    total = 0
    q = 1
    while (p_top := _p_max(n, big_l, q)) >= 0:
        # sum_{p<=P} C(n+p-1, p) = C(n+P, P); sum_{p<=P} C(n+p-2, p-1) = C(n+P-1, P-1)
        upper = math.comb(n + p_top, p_top) * math.comb(n + q - 1, q)
        lower = math.comb(n + p_top - 1, p_top - 1) if p_top >= 1 else 0
        total += upper - lower * math.comb(n + q - 2, q - 1)
        q += 1
    return total


def multiplicity(n: int, p: int, q: int) -> int:
    """dim H_{p,q}(S^(2n-1)) = (p+q+n-1)/(n-1) * C(p+n-2, p) * C(q+n-2, q)."""
    return (p + q + n - 1) * math.comb(p + n - 2, p) * math.comb(q + n - 2, q) // (n - 1)


# ------------------------------------------------------ Weyl coefficient c(n)


def _binom_poly(offset: int, degree: int) -> list[Fraction]:
    """Coefficients (ascending) of C(x + offset, degree) as a polynomial in x."""
    coeffs = [Fraction(1)]
    for i in range(degree):
        shift = offset - i
        grown = [Fraction(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            grown[j] += c * shift
            grown[j + 1] += c
        coeffs = grown
    return [c / math.factorial(degree) for c in coeffs]


_weyl_cache: dict[int, mp.mpf] = {}


def weyl(n: int) -> mp.mpf:
    """c(n) = (1/(2^n n!)) sum_q (C(q+n-2, n-2) + C(q-1, n-2)) / q^n."""
    if n not in _weyl_cache:
        weights = [a + b for a, b in zip(_binom_poly(n - 2, n - 2), _binom_poly(-1, n - 2))]
        total = mp.mpf(0)
        for j, w in enumerate(weights):
            if w:
                total += mp.mpf(w.numerator) / w.denominator * mp.zeta(n - j)
        _weyl_cache[n] = total / (mp.mpf(2) ** n * mp.factorial(n))
    return _weyl_cache[n]


# --------------------------------------------------------------- heat trace


def _euler_maclaurin(f, start: int, scale: mp.mpf, head: int = 1500, order: int = 4):
    """sum_{k >= start} f(k) for f smooth on the scale 1/t and decaying.

    The first `head` terms are summed directly; the rest is the integral
    plus the Euler-Maclaurin corrections up to B_{2 order}.  Past the head
    every derivative is O(f / head^j), so the dropped remainder is below
    (2 order + 2)! / (2 pi head)^(2 order + 2) relative, far under 1e-30.
    """
    a = start + head
    total = mp.fsum(f(mp.mpf(k)) for k in range(start, a))
    points = [a] + [a + scale * x for x in (1, 4, 16, 64)] + [mp.inf]
    total += mp.quad(f, points)
    derivs = list(mp.diffs(f, a, 2 * order - 1))
    total += derivs[0] / 2
    for j in range(1, order + 1):
        total -= mp.bernoulli(2 * j) / mp.factorial(2 * j) * derivs[2 * j - 1]
    return total


def heat_split(n: int, t: float) -> tuple[mp.mpf, mp.mpf]:
    """The q-indexed and w-indexed split sums of the heat trace at time t."""
    tt = mp.mpf(t)

    def term_q(q):
        return mp.binomial(n + q - 2, n - 2) * mp.exp(-2 * tt * q * (n - 1)) / (
            -mp.expm1(-2 * tt * q)
        ) ** n

    def term_w(w):
        return mp.binomial(w - 1, n - 2) * mp.exp(-2 * tt * w) / (-mp.expm1(-2 * tt * w)) ** n

    return _euler_maclaurin(term_q, 1, 1 / tt), _euler_maclaurin(term_w, n - 1, 1 / tt)


# ------------------------------------------------- form-degree continuation


def _volume_factor(n: int) -> mp.mpf:
    """vol(S^(2n-1)) / ((2 pi)^n n!) = 2 / ((n-1)! 2^n n!)."""
    return mp.mpf(2) / (mp.factorial(n - 1) * mp.mpf(2) ** n * mp.factorial(n))


def stanton_prefactor(n: int, q: complex) -> mp.mpc:
    """binom(m, q) vol / ((2 pi)^n n!), the factor in front of the f integral."""
    return mp.binomial(n - 1, mp.mpc(q)) * _volume_factor(n)


def stanton_f(n: int, q: complex) -> mp.mpc:
    """binom(m,q) vol/((2pi)^n n!) * int_R (tau/sinh tau)^m e^(-(m-2q) tau) dtau."""
    m = n - 1
    a = m - 2 * mp.mpc(q)

    def integrand(tau):
        if tau == 0:
            return mp.mpf(1)
        return (tau / mp.sinh(tau)) ** m * mp.exp(-a * tau)

    return stanton_prefactor(n, q) * mp.quad(integrand, [-mp.inf, -2, 0, 2, mp.inf])


def stanton_g(n: int, q: complex) -> mp.mpc:
    """2 binom(m,q) vol/((2pi)^n n!) * int_0^inf tau^m (cosh((m-2q)tau)/sinh^m tau - 2^(m-1) e^(-2q tau)).

    With E = 1 - e^(-2 tau) the bracket is 2^(m-1) [e^(-2q tau) (E^(-m) - 1)
    + e^(-2(m-q) tau) E^(-m)]; written so, nothing cancels at large tau,
    where the two original terms grow like e^(-2 re q tau) and their
    difference decays.
    """
    m = n - 1
    qq = mp.mpc(q)
    half_weight = mp.mpf(2) ** (m - 1)

    def integrand(tau):
        if tau == 0:
            return mp.mpf(1)
        log_e = mp.log1p(-mp.exp(-2 * tau))
        inv_em = mp.exp(-m * log_e)
        return half_weight * tau**m * (
            mp.exp(-2 * qq * tau) * mp.expm1(-m * log_e) + mp.exp(-2 * (m - qq) * tau) * inv_em
        )

    return 2 * stanton_prefactor(n, q) * mp.quad(integrand, [0, 2, 8, mp.inf])


def pole(n: int, q: complex) -> mp.mpc:
    """binom(m, q) / ((n-1)! n 2^n) * q^(-n)."""
    qq = mp.mpc(q)
    return mp.binomial(n - 1, qq) / (mp.factorial(n - 1) * n * mp.mpf(2) ** n) * qq ** (-n)


# ------------------------------------------------------------ stored table


def heat_key(n: int, t: str) -> str:
    return f"{n}|{t}"


def stanton_key(n: int, q: complex) -> str:
    return f"{n}|{q.real!r}|{q.imag!r}"


class References:
    """Reference values, read from reference.json and completed on demand."""

    def __init__(self, path: Path | None = TABLE_PATH):
        self.heat_table: dict[str, list[str]] = {}
        self.stanton_table: dict[str, dict[str, list[str]]] = {}
        if path is not None and path.is_file():
            data = json.loads(path.read_text())
            self.heat_table = data["heat"]
            self.stanton_table = data["stanton"]
        self.computed = 0

    def heat(self, n: int, t: str) -> tuple[mp.mpf, mp.mpf]:
        key = heat_key(n, t)
        if key not in self.heat_table:
            self.computed += 1
            self.heat_table[key] = [mp.nstr(v, DPS) for v in heat_split(n, float(t))]
        return tuple(mp.mpf(v) for v in self.heat_table[key])

    def stanton(self, n: int, q: complex, which: str) -> mp.mpc:
        """which is "f" or "g"; the value of that evaluator at (n, q)."""
        entry = self.stanton_table.setdefault(stanton_key(n, q), {})
        if which not in entry:
            self.computed += 1
            value = (stanton_f if which == "f" else stanton_g)(n, q)
            entry[which] = [mp.nstr(value.real, DPS), mp.nstr(value.imag, DPS)]
        re, im = entry[which]
        return mp.mpc(mp.mpf(re), mp.mpf(im))

    def dump(self) -> None:
        data = {
            "about": "mpmath references at 50 digits; regenerate with python3 bench/oracle.py --write",
            "heat": dict(sorted(self.heat_table.items())),
            "stanton": dict(sorted(self.stanton_table.items())),
        }
        TABLE_PATH.write_text(json.dumps(data, indent=1) + "\n")


def _write_table() -> None:
    """Evaluate the reference of every heat and stanton input any seed can draw.

    Values already in the table are kept; the table is saved as it grows.
    """
    import workloads

    refs = References()
    heat = workloads.heat_reference_inputs()
    stanton = workloads.stanton_reference_inputs()
    for i, (n, t) in enumerate(heat):
        refs.heat(n, t)
        if i % 10 == 9:
            refs.dump()
    for i, (n, q, which) in enumerate(stanton):
        refs.stanton(n, q, which)
        if i % 50 == 49:
            refs.dump()
    keep_heat = {heat_key(n, t) for n, t in heat}
    keep_stanton = {stanton_key(n, q) for n, q, _ in stanton}
    refs.heat_table = {k: v for k, v in refs.heat_table.items() if k in keep_heat}
    refs.stanton_table = {k: v for k, v in refs.stanton_table.items() if k in keep_stanton}
    refs.dump()
    print(f"wrote {TABLE_PATH.name}: {refs.computed} new values", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 bench/oracle.py --write")
    _write_table()
