"""Decomposition search, canonical forms, and class enumeration.

The right_factor oracle table below was computed independently by
undetermined coefficients (solve g(h) = a for the coefficients of g and
h with h monic, h(0) = 0) in a computer algebra system, then frozen.
"""

import random
import time
from fractions import Fraction as F

import pytest

from polydecomp import decompose
from polydecomp.decompose import (
    canonicalize,
    common_composite,
    complete_decomposition,
    enumerate_classes,
    is_indecomposable,
    right_factor,
    ritt1_check,
    scale_canonicalize,
)
from polydecomp.parsing import parse
from polydecomp.poly import Polynomial, PostconditionError, Unit, compose_all

T6 = "32x^6 - 48x^4 + 18x^2 - 1"


# (target, d, outer, inner); inner is always the canonical monic
# zero-constant right factor, or None when no split at that degree exists
RIGHT_FACTOR_TABLE = [
    ("x^8 + 2x^6 + x^4", 2, "x^4 + 2x^3 + x^2", "x^2"),
    ("x^8 + 2x^6 + x^4", 4, "x^2", "x^4 + x^2"),
    (T6, 2, "32x^3 - 48x^2 + 18x - 1", "x^2"),
    (T6, 3, "32x^2 - 1", "x^3 - 3/4 x"),
    ("x^6 + 2x^4 + x^2 + 1", 2, "x^3 + 2x^2 + x + 1", "x^2"),
    ("x^6 + 2x^4 + x^2 + 1", 3, "x^2 + 1", "x^3 + x"),
    ("x^6 + 3x^5 + 3x^4 + x^3", 2, "x^3", "x^2 + x"),
    ("x^6 + 3x^5 + 3x^4 + x^3", 3, None, None),
    (
        "1/4 x^6 + 1/10 x^4 + 1/3 x^3 + 1/100 x^2 + 1/15 x",
        3,
        "1/4 x^2 + 1/3 x",
        "x^3 + 1/5 x",
    ),
]


class TestRightFactor:
    @pytest.mark.parametrize("target,d,outer,inner", RIGHT_FACTOR_TABLE)
    def test_oracle_table(self, target, d, outer, inner):
        got = right_factor(parse(target), d)
        if outer is None:
            assert got is None
        else:
            g, h = got
            assert g == parse(outer)
            assert h == parse(inner)
            assert g.compose(h) == parse(target)

    def test_rejects_improper_degrees(self):
        a = parse("x^8 + 2x^6 + x^4")
        for d in (1, 3, 5, 8, 16):
            with pytest.raises(ValueError):
                right_factor(a, d)

    def test_recovers_planted_split(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_poly(rng, rng.choice((2, 3, 4)))
            h = random_poly(rng, rng.choice((2, 3)))
            a = g.compose(h)
            got = right_factor(a, h.degree)
            assert got is not None
            g2, h2 = got
            assert g2.compose(h2) == a
            # the canonical right factor is unique, so it must be the
            # normalized form of the planted one
            assert h2 == h.canonical_core()[1]
        # rational factors: a split forces h's denominators to divide a power
        # of a's, and right_factor rejects early when they do not
        for _ in range(20):
            g = random_rational_poly(rng, rng.choice((2, 3)))
            h = random_rational_poly(rng, rng.choice((2, 3, 4)))
            a = g.compose(h)
            g2, h2 = right_factor(a, h.degree)
            assert g2.compose(h2) == a
            assert h2 == h.canonical_core()[1]

    def test_rejects_large_denominator_quickly(self):
        # the x^59 coefficient puts a 400-bit denominator into the candidate
        # right factor, which no split can carry
        coeffs = [F(i % 7 - 3) for i in range(59)] + [F(1, 2**400 + 1), F(1)]
        a = Polynomial(coeffs)
        t0 = time.perf_counter()
        assert right_factor(a, 30) is None
        assert time.perf_counter() - t0 < 3.0

    def test_canonical_shape(self):
        g, h = right_factor(parse("x^4 + 4x^3 + 6x^2 + 4x + 7"), 2)
        assert h.lead == 1
        assert h(0) == 0


def random_poly(rng, degree):
    coeffs = [F(rng.randint(-3, 3)) for _ in range(degree)]
    coeffs.append(F(rng.choice((-2, -1, 1, 2, 3))))
    return Polynomial(coeffs)


def random_rational_poly(rng, degree):
    """Nonzero coefficients with denominators up to 2^64."""
    def coeff():
        return F(rng.choice((-1, 1)) * rng.randint(1, 2**64), rng.randint(1, 2**64))

    return Polynomial([coeff() for _ in range(degree + 1)])


class TestIndecomposable:
    def test_prime_degree_always(self):
        for text in ("x^2", "x^3 + 2x", "x^5 + x^4 + x", "x^7 - 1"):
            assert is_indecomposable(parse(text))

    def test_composites(self):
        assert not is_indecomposable(parse("x^4"))
        assert not is_indecomposable(parse("x^4 + x^2"))
        assert not is_indecomposable(parse(T6))

    def test_composite_degree_but_indecomposable(self):
        # x^4 + x admits no quadratic split: forcing the cubic and
        # quadratic coefficients to zero kills the linear term
        assert is_indecomposable(parse("x^4 + x"))

    def test_rejects_units_and_constants(self):
        with pytest.raises(ValueError):
            is_indecomposable(parse("x + 1"))
        with pytest.raises(ValueError):
            is_indecomposable(parse("3"))


class TestCompleteDecomposition:
    def test_known_chain(self):
        d = complete_decomposition(parse("x^8 + 2x^6 + x^4"))
        assert d.degree_sequence == (2, 2, 2)
        assert d.verify()
        assert compose_all(d.factors) == parse("x^8 + 2x^6 + x^4")

    def test_indecomposable_input(self):
        d = complete_decomposition(parse("x^5 + x^4 + x"))
        assert d.degree_sequence == (5,)

    def test_factors_are_indecomposable(self):
        rng = random.Random(23)
        for _ in range(15):
            parts = [random_poly(rng, rng.choice((2, 3))) for _ in range(3)]
            a = compose_all(parts)
            d = complete_decomposition(a)
            assert compose_all(d.factors) == a
            assert all(is_indecomposable(f) for f in d.factors)


class TestCanonicalize:
    def test_oracle(self):
        out = canonicalize((parse("2x^2 + 1"), parse("3x^3 + x + 4")))
        assert list(out) == [parse("18x^2 + 48x + 33"), parse("x^3 + 1/3 x")]

    def test_preserves_composite_and_normalizes(self):
        rng = random.Random(5)
        for _ in range(25):
            parts = tuple(random_poly(rng, rng.choice((2, 3))) for _ in range(3))
            out = canonicalize(parts)
            assert compose_all(out) == compose_all(parts)
            for f in out[1:]:
                assert f.lead == 1 and f(0) == 0

    def test_scale_variant_keeps_odd_parts_odd(self):
        parts = (parse("2x^3 + x"), parse("3x^3"))
        out = scale_canonicalize(parts)
        assert list(out) == [parse("54x^3 + 3x"), parse("x^3")]
        assert compose_all(out) == compose_all(parts)
        assert all(f.is_odd_function for f in out)


class TestEnumerateClasses:
    def test_chebyshev_six(self):
        classes = enumerate_classes(parse(T6))
        assert sorted(c.degree_sequence for c in classes) == [(2, 3), (3, 2)]
        for c in classes:
            assert compose_all(c.factors) == parse(T6)
            assert all(is_indecomposable(f) for f in c.factors)

    def test_monomial(self):
        classes = enumerate_classes(parse("x^6"))
        assert sorted(c.degree_sequence for c in classes) == [(2, 3), (3, 2)]

    def test_single_class(self):
        # both adjacent products are degree 4 and only split at degree 2,
        # so no swap is available and the chain is rigid
        assert len(enumerate_classes(parse("x^8 + 2x^6 + x^4"))) == 1

    def test_two_classes(self):
        classes = enumerate_classes(parse("x^10 + 2x^8 + x^6"))
        assert len(classes) == 2
        seqs = sorted(c.degree_sequence for c in classes)
        assert seqs == [(2, 5), (5, 2)]

    def test_classes_are_canonical(self):
        for c in enumerate_classes(parse("x^10 + 2x^8 + x^6")):
            for f in c.factors[1:]:
                assert f.lead == 1 and f(0) == 0


class TestRitt1:
    def test_report_shape(self):
        r = ritt1_check(parse("x^6"))
        assert r.class_count == 2
        assert r.length == 2
        assert r.degree_multiset == (2, 3)
        assert r.passed

    def test_on_seeded_products(self):
        rng = random.Random(99)
        for _ in range(30):
            parts = [random_poly(rng, rng.choice((2, 3, 5))) for _ in range(rng.choice((2, 3)))]
            assert ritt1_check(compose_all(parts)).passed


class TestCommonComposite:
    def test_monomials(self):
        c, alpha, beta = common_composite(parse("x^2"), parse("x^3"))
        assert c == parse("x^6")
        assert alpha == parse("x^3")
        assert beta == parse("x^2")
        assert alpha.compose(parse("x^2")) == c
        assert beta.compose(parse("x^3")) == c

    def test_chebyshev_pair(self):
        t2, t3 = parse("2x^2 - 1"), parse("4x^3 - 3x")
        got = common_composite(t2, t3)
        assert got is not None
        c, alpha, beta = got
        assert alpha.compose(t2) == c
        assert beta.compose(t3) == c
        # c is the canonical form of the degree-6 element, so it is a
        # unit applied to the classical degree-6 polynomial
        u, core = parse(T6).canonical_core()
        assert c == core

    def test_none_within_bound(self):
        assert common_composite(parse("x^2"), parse("x^2 + x"), 8) is None

    def test_rejects_units(self):
        with pytest.raises(ValueError):
            common_composite(parse("x + 1"), parse("x^2"))

    def test_inconsistent_witness_raises_a_named_error(self, monkeypatch):
        real = decompose._solve_linear

        def corrupt(rows, rhs):
            sol = real(rows, rhs)
            sol[-1] += 1  # the top coefficient of beta
            return sol

        monkeypatch.setattr(decompose, "_solve_linear", corrupt)
        with pytest.raises(PostconditionError, match="inconsistent witness") as info:
            common_composite(parse("x^2"), parse("x^3"))
        assert not isinstance(info.value, AssertionError)

    def test_coprime_chebyshev_degrees(self):
        t3, t5 = parse("4x^3 - 3x"), parse("16x^5 - 20x^3 + 5x")
        got = common_composite(t3, t5)
        assert got is not None
        c, alpha, beta = got
        assert c.degree == 15
        assert alpha.compose(t3) == c
        assert beta.compose(t5) == c

    def test_inner_factor_of_composite(self):
        # h is a right factor of g(h) by construction, so the common
        # composite is g(h) itself up to the canonical unit
        rng = random.Random(31)
        for _ in range(10):
            h = random_poly(rng, 2)
            g = random_poly(rng, rng.choice((2, 3)))
            b = g.compose(h)
            got = common_composite(h, b)
            assert got is not None
            c, alpha, beta = got
            assert alpha.compose(h) == c
            assert beta.compose(b) == c
            assert c == b.canonical_core()[1]
