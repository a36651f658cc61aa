import math
from fractions import Fraction

import pytest

from kohnspec.combinatorics import (
    binom,
    dim_hpq,
    multichoose_table,
    sceil,
    split_terms,
)


def test_binom_matches_math_comb():
    for a in range(0, 25):
        for b in range(0, a + 1):
            assert binom(a, b) == math.comb(a, b)


def test_binom_out_of_range_is_zero():
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(-1, 0) == 0
    assert binom(-3, -3) == 0


def test_binom_pascal_rule():
    for a in range(1, 61):
        for b in range(1, a + 1):
            assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)


def test_binom_symmetry():
    for a in range(0, 40):
        for b in range(0, a + 1):
            assert binom(a, b) == binom(a, a - b)


def test_dim_examples():
    assert dim_hpq(2, 1, 1) == 3
    assert dim_hpq(3, 0, 1) == 3
    assert dim_hpq(4, 0, 1) == 4
    assert dim_hpq(2, 0, 0) == 1


def test_dim_symmetric_in_p_q():
    for n in range(2, 7):
        for p in range(0, 12):
            for q in range(0, 12):
                assert dim_hpq(n, p, q) == dim_hpq(n, q, p)


def test_dim_positive():
    for n in range(2, 7):
        for p in range(0, 15):
            for q in range(0, 15):
                assert dim_hpq(n, p, q) > 0


def test_dim_validates_arguments():
    with pytest.raises(ValueError):
        dim_hpq(1, 0, 0)
    with pytest.raises(ValueError):
        dim_hpq(2, -1, 0)
    with pytest.raises(ValueError):
        dim_hpq(2, 0, -2)


def test_multichoose_table_gives_every_multiplicity():
    for n in (2, 3, 7, 40):
        table = multichoose_table(n, 30)
        assert table == [math.comb(n + k - 1, k) for k in range(30)]
        for p in range(29):
            for q in range(29):
                below = table[p - 1] * table[q - 1] if p and q else 0
                assert table[p] * table[q] - below == dim_hpq(n, p, q)


def test_multichoose_table_extends_in_place():
    table = multichoose_table(5, 4)
    assert multichoose_table(5, 10, table) is table
    assert table == multichoose_table(5, 10)
    assert multichoose_table(5, 0) == [1]


def test_split_examples():
    assert split_terms(2, 1, 1) == (2, 1)
    assert split_terms(2, 0, 1) == (1, 1)
    assert split_terms(4, 0, 1) == (3, 1)


def test_split_identity_over_stated_ranges():
    # the two-term split must reproduce the eigenspace dimension exactly
    for n in range(2, 9):
        for p in range(0, 31):
            for q in range(1, 31):
                a, b = split_terms(n, p, q)
                assert a + b == dim_hpq(n, p, q)


def test_split_rejects_q_zero():
    with pytest.raises(ValueError):
        split_terms(3, 2, 0)


def test_sceil_integer_examples():
    assert sceil(7, 3) == 9
    assert sceil(6, 2) == 6
    assert sceil(0, 5) == 0
    assert sceil(-7, 3) == -6


def test_sceil_is_multiple_of_alpha():
    for x in range(-20, 21):
        for alpha in (1, 2, 3, 7, Fraction(1, 2), Fraction(3, 4)):
            s = sceil(x, alpha)
            assert Fraction(s) % Fraction(alpha) == 0


def test_sceil_brackets_its_argument():
    values = [Fraction(k, 7) for k in range(-30, 31)]
    for x in values:
        for alpha in (Fraction(1, 3), Fraction(2, 5), 1, 2):
            s = sceil(x, alpha)
            assert x <= s < x + alpha


def test_sceil_monotone_and_idempotent():
    alpha = Fraction(2, 3)
    xs = [Fraction(k, 9) for k in range(-20, 21)]
    previous = None
    for x in xs:
        s = sceil(x, alpha)
        if previous is not None:
            assert s >= previous
        previous = s
        assert sceil(s, alpha) == s


def test_sceil_float_path():
    assert sceil(0.7, 0.25) == pytest.approx(0.75)
    assert sceil(1.0, 0.25) == pytest.approx(1.0)


def test_sceil_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        sceil(1, 0)
    with pytest.raises(ValueError):
        sceil(1, -2)
