"""Chebyshev family: values, composition law, and derivative structure.

The independent oracle is the closed form on the rational one-parameter
family x = (t + 1/t)/2, where the degree-n member takes the value
(t^n + 1/t^n)/2. That identity pins every coefficient without using the
doubling formulas the implementation runs on; the three-term recurrence,
run iteratively, is a second oracle.
"""

import time
from fractions import Fraction as F
from math import comb

import pytest

from polydecomp.chebyshev import (
    _dressed_odd_chebyshev_degree,
    _has_dressed_chebyshev_shape,
    chebyshev,
    chebyshev_reduction_identities,
    extract_odd_base,
)
from polydecomp.decompose import enumerate_classes
from polydecomp.parsing import parse
from polydecomp.poly import MAX_DEGREE, ONE, Polynomial, X
from polydecomp.roots import poly_gcd


FROZEN = {
    1: "x",
    2: "2x^2 - 1",
    3: "4x^3 - 3x",
    4: "8x^4 - 8x^2 + 1",
    5: "16x^5 - 20x^3 + 5x",
    6: "32x^6 - 48x^4 + 18x^2 - 1",
}


@pytest.mark.parametrize("n,text", sorted(FROZEN.items()))
def test_frozen_table(n, text):
    assert chebyshev(n) == parse(text)


@pytest.mark.parametrize("t", [F(2), F(3, 2), F(-5, 3), F(1, 4), F(7)])
def test_closed_form_oracle(t):
    x = (t + 1 / t) / 2
    for n in range(1, 13):
        assert chebyshev(n)(x) == (t**n + t**-n) / 2


def test_endpoint_values():
    for n in range(1, 20):
        assert chebyshev(n)(F(1)) == 1
        assert chebyshev(n)(F(-1)) == (-1) ** n


def test_parity():
    for n in range(1, 16, 2):
        assert chebyshev(n).is_odd_function
    for n in range(2, 16, 2):
        even, odd = chebyshev(n).even_odd_split()
        assert odd.is_zero


def test_composition_law():
    for m in range(2, 9):
        for n in range(2, 9):
            if m * n <= 60:
                assert chebyshev(m).compose(chebyshev(n)) == chebyshev(m * n)


def test_matches_three_term_recurrence():
    prev, cur = ONE, X  # T_0, T_1
    for n in range(1, 301):
        assert chebyshev(n) == cur
        prev, cur = cur, 2 * X * cur - prev


def test_commuting_family():
    t3, t5 = chebyshev(3), chebyshev(5)
    assert t3.compose(t5) == t5.compose(t3) == chebyshev(15)


def test_degree_and_lead():
    for n in range(1, 12):
        q = chebyshev(n)
        assert q.degree == n
        assert q.lead == 2 ** (n - 1)


def test_degree_two_unit_form():
    assert chebyshev(2) == parse("2x - 1").compose(parse("x^2"))


def test_swap_classes_at_degree_six():
    seqs = sorted(c.degree_sequence for c in enumerate_classes(chebyshev(6)))
    assert seqs == [(2, 3), (3, 2)]


def test_reduction_identities():
    assert chebyshev_reduction_identities((3, 5, 7)) == {3: True, 5: True, 7: True}


def test_derivative_gcds_constant():
    primes = (2, 3, 5, 7, 11, 13)
    for i, k in enumerate(primes):
        for l in primes[i + 1 :]:
            g = poly_gcd(chebyshev(k).derivative(), chebyshev(l).derivative())
            assert g.is_constant and not g.is_zero


def dickson(k, a):
    """D_k(x, a) = sum k/(k-i) C(k-i, i) (-a)^i x^(k-2i), with
    D_k(t + a/t, a) = t^k + (a/t)^k."""
    coeffs = [F(0)] * (k + 1)
    for i in range(k // 2 + 1):
        coeffs[k - 2 * i] = F(k, k - i) * comb(k - i, i) * (-a) ** i
    return Polynomial(coeffs)


def dress(p):
    """(3x - 1/2) . p . (2x/5 + 3), both units rational."""
    return parse("3x - 1/2").compose(p).compose(parse("2/5 x + 3"))


DRESSED_SHAPE_TABLE = [
    # (label, polynomial, is a dressed T_k, k = its degree)
    ("T3", chebyshev(3), True),
    ("T5", chebyshev(5), True),
    ("dressed T3", dress(chebyshev(3)), True),
    ("dressed T5", dress(chebyshev(5)), True),
    ("dressed T7", dress(chebyshev(7)), True),
    ("dressed T9 (odd, not prime)", dress(chebyshev(9)), True),
    ("D3(x, 2)", dickson(3, 2), True),
    ("D5(x, 2)", dickson(5, 2), True),
    ("D7(x, 3)", dickson(7, 3), True),
    ("dressed D5(x, -5/3)", dress(dickson(5, F(-5, 3))), True),
    ("x^3 + x", parse("x^3 + x"), True),
    ("T5 with its x coefficient changed", parse("16x^5 - 20x^3 + 6x"), False),
    ("T5 with its x^3 coefficient changed", parse("16x^5 - 19x^3 + 5x"), False),
    ("T5 with an x^2 term added", parse("16x^5 - 20x^3 + x^2 + 5x"), False),
    ("T5 with its constant changed", parse("16x^5 - 20x^3 + 5x + 4"), True),
    ("dressed T7 with its x coefficient changed", dress(chebyshev(7)) + X, False),
    ("x^5 + x (no x^3 term)", parse("x^5 + x"), False),
    ("x^3", parse("x^3"), False),
    ("x^7", parse("x^7"), False),
    ("T4 (even degree)", chebyshev(4), False),
    ("T6 (even degree)", chebyshev(6), False),
    ("T2", chebyshev(2), False),
    ("x^2 + 1", parse("x^2 + 1"), False),
    ("x", X, False),
    ("7", parse("7"), False),
]


@pytest.mark.parametrize(
    "p,shape", [row[1:] for row in DRESSED_SHAPE_TABLE],
    ids=[row[0] for row in DRESSED_SHAPE_TABLE],
)
def test_dressed_chebyshev_shape_table(p, shape):
    assert _has_dressed_chebyshev_shape(p) is shape
    prime = p.degree in (3, 5, 7)
    assert _dressed_odd_chebyshev_degree(p) == (p.degree if shape and prime else None)


def test_extract_odd_base():
    base = extract_odd_base(chebyshev(5))
    assert base == parse("16x^2 - 20x + 5")
    assert parse("x") * base.compose(parse("x^2")) == chebyshev(5)


def test_rejects_index_below_one():
    with pytest.raises(ValueError):
        chebyshev(0)
    with pytest.raises(ValueError):
        chebyshev(-3)


@pytest.mark.parametrize("n", [2.5, 2.0, True, F(3)])
def test_rejects_non_int_index(n):
    # with T_2 and T_3 cached, a float, bool or Fraction of equal value
    # must not reach their cache entries
    chebyshev(2), chebyshev(3)
    with pytest.raises(TypeError, match="must be an int"):
        chebyshev(n)


def test_extract_odd_base_rejects_even():
    with pytest.raises(ValueError):
        extract_odd_base(chebyshev(4))


def test_cache_is_bounded():
    # a sweep past the bound keeps at most maxsize entries and the values
    # stay exact after eviction
    size = chebyshev.cache_info().maxsize
    assert size is not None
    chebyshev.cache_clear()
    for n in range(1, size + 100):
        chebyshev(n)
    assert chebyshev.cache_info().currsize <= size
    for n, text in FROZEN.items():
        assert chebyshev(n) == parse(text)


def test_degree_cap_within_budget():
    # the last doubling steps are multi-megabit products, which take the
    # decimal tier of the product kernel; by Karatsuba alone T_4096 took
    # about 5 s on a 2-core host where it now takes about 1.1 s
    chebyshev.cache_clear()
    t0 = time.perf_counter()
    t = chebyshev(MAX_DEGREE)
    elapsed = time.perf_counter() - t0
    n = MAX_DEGREE
    assert t.den == 1 and t.num[-1] == 2 ** (n - 1)
    assert t(1) == 1 and t(-1) == (-1) ** n
    assert not any(t.num[1::2])
    # the composition law at the cap, through a product of two
    # 2049-term operands
    assert chebyshev(2).compose(chebyshev(n // 2)) == t
    assert elapsed < 3.0


def test_composition_at_the_cap_within_budget():
    # T_64 o T_64 = T_4096; the split in compose makes balanced products,
    # the largest in the decimal tier of the product kernel.  By Horner
    # this took about 19 s on a 2-core host where it now takes about 2.6 s
    t64 = chebyshev(64)
    t0 = time.perf_counter()
    t = t64.compose(t64)
    elapsed = time.perf_counter() - t0
    assert t == chebyshev(MAX_DEGREE)
    assert elapsed < 6.0
