import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kohnspec.combinatorics import binom, dim_hpq
from kohnspec.errors import ResourceCapError
from kohnspec.spectrum import (
    SpectralLine,
    _block_count,
    count,
    counting_ratio,
    eigenvalue,
    enumerate_modes,
)


def naive_count(n: int, lam: float) -> int:
    """Brute-force reference: walk the (p, q) lattice directly."""
    total = 0
    q = 1
    while 2 * q * (n - 1) <= lam:
        p = 0
        while 2 * q * (p + n - 1) <= lam:
            total += binom(n + p - 1, p) * binom(n + q - 1, q) - binom(
                n + p - 2, p - 1
            ) * binom(n + q - 2, q - 1)
            p += 1
        q += 1
    return total


def test_eigenvalue_examples():
    assert eigenvalue(2, 0, 1) == 2
    assert eigenvalue(2, 1, 1) == 4
    assert eigenvalue(3, 2, 5) == 40


def test_eigenvalue_validates():
    with pytest.raises(ValueError):
        eigenvalue(2, 0, 0)
    with pytest.raises(ValueError):
        eigenvalue(2, -1, 1)
    with pytest.raises(ValueError):
        eigenvalue(1, 0, 1)


def test_enumerate_modes_smallest_shell():
    lines = enumerate_modes(2, 4)
    assert lines == [
        SpectralLine(p=0, q=1, eigenvalue=2, multiplicity=2),
        SpectralLine(p=1, q=1, eigenvalue=4, multiplicity=3),
        SpectralLine(p=0, q=2, eigenvalue=4, multiplicity=3),
    ]


def test_enumerate_modes_sorted_and_consistent_with_count():
    for n in (2, 3, 4):
        for lam in (10, 35.5, 80):
            lines = enumerate_modes(n, lam)
            keys = [(ln.eigenvalue, ln.q, ln.p) for ln in lines]
            assert keys == sorted(keys)
            assert sum(ln.multiplicity for ln in lines) == count(n, lam)


def naive_modes(n: int, lam: float) -> list[tuple[int, int, int, int]]:
    """Brute-force reference: dim_hpq over the (p, q) lattice, sorted by (eigenvalue, q, p)."""
    lines = []
    q = 1
    while 2 * q * (n - 1) <= lam:
        p = 0
        while 2 * q * (p + n - 1) <= lam:
            lines.append((p, q, eigenvalue(n, p, q), dim_hpq(n, p, q)))
            p += 1
        q += 1
    return sorted(lines, key=lambda line: (line[2], line[1], line[0]))


def mode_thresholds(n: int) -> list[float]:
    """Below the first eigenvalue (no lines), eigenvalues, the floats just below them, non-integers."""
    exact = [2 * (n - 1), eigenvalue(n, 3, 2), eigenvalue(n, 0, 7), 120, 240]
    below = [math.nextafter(float(lam), 0.0) for lam in exact]
    return [0, 1, 2 * (n - 1) - 0.5, *exact, *below, 35.5, 99.9, 181.25]


@pytest.mark.parametrize("n", range(2, 9))
def test_enumerate_modes_matches_naive_lattice(n):
    for lam in mode_thresholds(n):
        want = naive_modes(n, lam)
        assert enumerate_modes(n, lam) == want, lam
    assert enumerate_modes(n, 2 * (n - 1) - 0.5) == []
    assert enumerate_modes(n, 2 * (n - 1)) == [(0, 1, 2 * (n - 1), n)]


@pytest.mark.parametrize("n", [2, 3, 8])
def test_enumerate_modes_line_cap_is_exact(n):
    for lam in (2 * (n - 1), 35.5, 240):
        lines = len(naive_modes(n, lam))
        assert len(enumerate_modes(n, lam, line_cap=lines)) == lines
        # a cap of lines - 1: the lines count is cap + 1
        with pytest.raises(ResourceCapError):
            enumerate_modes(n, lam, line_cap=lines - 1)


def test_spectral_line_is_an_immutable_row():
    line = SpectralLine(p=1, q=2, eigenvalue=8, multiplicity=4)
    assert line == (1, 2, 8, 4)
    assert SpectralLine._fields == ("p", "q", "eigenvalue", "multiplicity")
    with pytest.raises(AttributeError):
        line.p = 0


def test_count_small_anchors():
    assert count(2, 2) == 2
    assert count(2, 4) == 8
    assert count(2, 0) == 0
    assert count(2, 1.999) == 0


def test_count_frozen_values():
    assert count(2, 100) == 4160
    assert count(2, 10_000) == 41_131_608
    assert count(3, 100) == 68_282
    assert count(3, 10_000) == 68_545_246_735


def test_count_matches_naive_oracle():
    for n in (2, 3, 4):
        for lam in (10, 25.5, 40):
            assert count(n, lam) == naive_count(n, lam)


def test_count_threshold_boundary_is_inclusive():
    assert count(2, 3.999999) == 2
    assert count(2, 4.0) == 8


def test_count_monotone_in_threshold():
    rng = random.Random(1234)
    for _ in range(50):
        n = rng.randint(2, 6)
        lo = rng.uniform(0.0, 500.0)
        hi = lo + rng.uniform(0.0, 100.0)
        assert count(n, lo) <= count(n, hi)


def test_count_validates():
    with pytest.raises(ValueError):
        count(1, 10)
    with pytest.raises(ValueError):
        count(2, -1.0)
    with pytest.raises(ValueError):
        count(2, float("nan"))


def test_counting_ratio():
    assert counting_ratio(2, 4) == pytest.approx(8 / 16.0)
    with pytest.raises(ValueError):
        counting_ratio(2, 0.0)


def test_line_cap_enforced():
    with pytest.raises(ResourceCapError):
        count(2, 1e6, line_cap=100)
    with pytest.raises(ResourceCapError):
        enumerate_modes(2, 1e6, line_cap=100)


def test_line_cap_fast_fails_on_huge_thresholds():
    # q alone exceeds the cap, so this must fail immediately rather than
    # grind through the lattice
    with pytest.raises(ResourceCapError):
        count(2, 1e12, line_cap=1_000_000)


def test_enumerate_modes_fails_fast_when_one_q_passes_the_cap():
    # 125 000 q, far below the cap, but q = 1 alone has 999 993 lines
    with pytest.raises(ResourceCapError, match="at least 999993 spectral lines"):
        enumerate_modes(9, 2e6, line_cap=200_000)


@st.composite
def thresholds(draw):
    """(n, lam) with lam <= 2000: arbitrary, an eigenvalue, or the float just below one."""
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["any", "eigenvalue", "below"]))
    if kind == "any":
        return n, draw(st.floats(0.0, 2000.0))
    q = draw(st.integers(1, 1000 // (n - 1)))
    p = draw(st.integers(0, 1000 // q - (n - 1)))
    lam = float(eigenvalue(n, p, q))
    return n, lam if kind == "eigenvalue" else math.nextafter(lam, 0.0)


@given(thresholds())
def test_count_matches_naive_property(case):
    n, lam = case
    assert count(n, lam) == naive_count(n, lam)


def per_q_hockey_stick(n: int, lam: float) -> int:
    """Unblocked reference: the closed-form sum over p, one q at a time."""
    L, m = int(lam // 2), n - 1
    comb = math.comb
    total = 0
    for q in range(1, L // m + 1):
        P = L // q - m
        lower = comb(n + P - 1, P - 1) if P else 0
        total += comb(n + q - 1, q) * comb(n + P, P) - comb(n + q - 2, q - 1) * lower
    return total


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("lam", [1e6, 1e7])
def test_count_matches_per_q_hockey_stick(n, lam):
    assert count(n, lam) == per_q_hockey_stick(n, lam)


def test_block_count_matches_brute_force():
    for L in range(400):
        for m in range(1, 9):
            distinct = {L // q for q in range(1, L + 1) if L // q >= m}
            assert _block_count(L, m) == len(distinct), (L, m)


def test_count_work_is_blocks_not_lines():
    # 1,414,212 blocks, where a loop over lines would visit ~1.4e13; the value
    # is checked against sum_q K(K+1)/2 + qK, K = floor(lam/2) // q, the n = 2 form
    assert count(2, 1e12, line_cap=1_500_000) == 411_233_516_712_952_003_385_536


def test_counting_ratio_does_not_overflow():
    # 1e6**60 overflows a float; the exact quotient does not
    assert counting_ratio(60, 1e6) == pytest.approx(6.129047125870333e-99, rel=1e-15)
    assert counting_ratio(2, 100, total=4160) == 0.416
