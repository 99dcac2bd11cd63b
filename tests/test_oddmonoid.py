"""The monoid of odd polynomials under composition.

Closure and the two swap families are checked on hand-built witnesses;
the negative statements (certain composites are never odd) run over the
seeded sample families at a reduced count, with the full thousand-sample
sweep left to the acceptance suite.
"""

import random
from fractions import Fraction as F

import pytest

from polydecomp import decompose, oddmonoid
from polydecomp.chebyshev import chebyshev
from polydecomp.cli import _set_fields_json
from polydecomp.corpus import even_core_composites, odd_factor_pairs, shifted_odd_composites
from polydecomp.decompose import (
    Decomposition,
    _proper_divisors,
    enumerate_classes,
    is_indecomposable,
    right_factor,
    scale_canonicalize,
)
from polydecomp.oddmonoid import (
    adjust_to_odd,
    classify_odd_swap,
    decompose_in_O,
    is_irreducible_in_O,
    is_odd,
)
from polydecomp.parsing import parse
from polydecomp.poly import Polynomial, compose_all


def random_odd(rng, degree):
    coeffs = [F(0)] * (degree + 1)
    for i in range(1, degree + 1, 2):
        coeffs[i] = F(rng.randint(-4, 4))
    coeffs[degree] = F(rng.choice((1, -1, 2, 3)))
    return Polynomial(coeffs)


def old_decompose_in_O(a):
    """The earlier definition: each class walked right to left with every
    right factor adjusted to odd, then scale-canonicalized and composed."""
    out = []
    for cls in enumerate_classes(a):
        fs = list(cls.factors)
        ok = True
        for i in range(len(fs) - 1, 0, -1):
            adjusted = adjust_to_odd(fs[i - 1], fs[i])
            if adjusted is None:
                ok = False
                break
            fs[i - 1], fs[i] = adjusted
        if not ok or not is_odd(fs[0]):
            continue
        fs = scale_canonicalize(fs)
        out.append(Decomposition(fs, compose_all(fs)))
    return tuple(out)


def old_is_irreducible_in_O(a):
    """The earlier definition: a search over every proper divisor degree
    for a split whose right factor can be adjusted to odd."""
    for d in _proper_divisors(a.degree):
        split = right_factor(a, d)
        if split is not None and adjust_to_odd(*split) is not None:
            return False
    return True


def odd_composites():
    """The odd seeded pairs, odd Chebyshev and monomial of degree 15,
    three-factor odd chains, a Dickson pair and a power-swap composite."""
    out = [g.compose(h) for g, h in odd_factor_pairs(seed=7, count=200)]
    out += [chebyshev(15), parse("x^15")]
    rng = random.Random(15)
    for _ in range(20):
        out.append(compose_all([random_odd(rng, rng.choice((3, 5))) for _ in range(3)]))
    out.append(parse("8x^3 - 3x").compose(parse("64x^5 - 40x^3 + 5x")))
    out.append((parse("x") * parse("x^2 + 1") ** 3).compose(parse("x^3")))
    return out


class TestMembership:
    def test_is_odd(self):
        assert is_odd(parse("x^5 - 2x^3 + x"))
        assert is_odd(parse("x"))
        assert not is_odd(parse("x^2"))
        assert not is_odd(parse("x^3 + 1"))

    def test_closure_under_composition(self):
        rng = random.Random(8)
        for _ in range(60):
            a = random_odd(rng, rng.choice((3, 5)))
            b = random_odd(rng, rng.choice((3, 5, 7)))
            assert is_odd(a.compose(b))

    def test_chebyshev_odd_indices(self):
        for n in (3, 5, 7, 9, 15):
            assert is_odd(chebyshev(n))


class TestIrreducibility:
    def test_prime_degree_members(self):
        for text in ("x^3", "x^5 - x^3 + 2x", "x^7"):
            assert is_irreducible_in_O(parse(text))

    def test_composite_members(self):
        assert not is_irreducible_in_O(parse("x^9"))
        assert not is_irreducible_in_O(chebyshev(9))
        # x^9 + x^3 = (x^3 + x) . x^3
        assert not is_irreducible_in_O(parse("x^9 + x^3"))

    def test_rejects_non_odd(self):
        with pytest.raises(ValueError):
            is_irreducible_in_O(parse("x^2"))


class TestDecomposeInO:
    def test_monomial(self):
        classes = decompose_in_O(parse("x^9"))
        assert len(classes) == 1
        assert classes[0].factors == (parse("x^3"), parse("x^3"))

    def test_recompose_and_oddness(self):
        rng = random.Random(12)
        for _ in range(25):
            parts = [random_odd(rng, rng.choice((3, 5))) for _ in range(2)]
            a = compose_all(parts)
            classes = decompose_in_O(a)
            assert classes
            for d in classes:
                assert compose_all(d.factors) == a
                for f in d.factors:
                    assert is_odd(f)
                    assert is_irreducible_in_O(f)

    def test_uniform_length_and_multiset(self):
        pairs = odd_factor_pairs(seed=7, count=40)
        for g, h in pairs:
            classes = decompose_in_O(g.compose(h))
            lengths = {len(d.factors) for d in classes}
            assert len(lengths) == 1
            multisets = {tuple(sorted(f.degree for f in d.factors)) for d in classes}
            assert len(multisets) == 1

    def test_rejects_non_odd(self):
        with pytest.raises(ValueError):
            decompose_in_O(parse("x^4"))


class TestReductionMonoid:
    """The odd classes are the general classes, and O-irreducibility is
    indecomposability, because canonical right factors of odd polynomials
    are odd."""

    def test_agrees_with_old_definitions(self):
        multi = 0
        for a in odd_composites():
            got = decompose_in_O(a)
            assert got == old_decompose_in_O(a), a
            multi += len(got) > 1
            for f in {a} | {f for d in got for f in d.factors}:
                assert is_irreducible_in_O(f) == old_is_irreducible_in_O(f), f
        assert multi > 0

    @pytest.mark.parametrize("text", ["x^15", "x^9 + x^3"])
    def test_no_composition_with_classes_cached(self, text, monkeypatch):
        a = parse(text)
        enumerate_classes(a)
        calls = []
        real = Polynomial.compose

        def counting(self, other):
            calls.append((self, other))
            return real(self, other)

        monkeypatch.setattr(Polynomial, "compose", counting)
        assert decompose_in_O(a)
        assert calls == []

    @pytest.mark.parametrize("text", ["x^15", "x^9 + x^3"])
    def test_no_split_search_with_indecomposability_cached(self, text, monkeypatch):
        a = parse(text)
        expected = is_indecomposable(a)
        calls = []

        def counting(p, d):
            calls.append((p, d))
            return right_factor(p, d)

        monkeypatch.setattr(decompose, "right_factor", counting)
        monkeypatch.setattr(oddmonoid, "right_factor", counting)
        is_irreducible_in_O.cache_clear()
        assert is_irreducible_in_O(a) == expected
        assert calls == []


class TestSwapFamilies:
    def test_power_family_witness(self):
        p = parse("x") * parse("x^2 + 1") ** 3
        q = parse("x^3")
        p_star = parse("x^3")
        q_star = parse("x") * parse("x^6 + 1")
        assert p.compose(q) == p_star.compose(q_star)
        r = classify_odd_swap(p, q, p_star, q_star)
        assert r.kind == "b"
        assert r.s == 3
        assert r.t == 1
        assert r.alpha == parse("x + 1")

    def test_monomial_swap(self):
        # x^3 . x^5 = x^5 . x^3 is the power pattern with alpha = 1
        r = classify_odd_swap(parse("x^3"), parse("x^5"), parse("x^5"), parse("x^3"))
        assert (r.kind, r.s, r.t, r.alpha) == ("b", 5, 3, parse("1"))

    def test_power_pattern_with_scaled_lead(self):
        # 2x^3 (x^2 + 1)^5 . x^5 = 2x^5 . (x^13 + x^3): the lead 2 is a scale
        # unit and need not be a fifth power
        p, q = parse("2x^5"), parse("x^13 + x^3")
        p_star = parse("2x^13 + 10x^11 + 20x^9 + 20x^7 + 10x^5 + 2x^3")
        q_star = parse("x^5")
        r = classify_odd_swap(p, q, p_star, q_star)
        assert (r.kind, r.s, r.t, r.alpha) == ("c", 5, 3, parse("x + 1"))

    def test_swap_from_odd_classes(self):
        # both classes of -3x^3 . (-x^7 + x/2) as decompose_in_O returns them
        a = parse("-3x^3").compose(parse("-x^7 + 1/2 x"))
        classes = decompose_in_O(a)
        assert [c.degree_sequence for c in classes] == [(3, 7), (7, 3)]
        r = classify_odd_swap(*classes[0].factors, *classes[1].factors)
        assert (r.kind, r.s, r.t, r.alpha) == ("c", 3, 1, parse("x - 1/2"))

    @pytest.mark.parametrize("mu", [F(-1), F(2), F(-1, 3), F(5, 7)], ids=str)
    def test_rejects_unit_equivalent_pairs(self, mu):
        # (p . (mu x), (x / mu) . q) is the pair (p, q) moved by a unit;
        # x^3 . x^5 against x^5 . x^3 still classifies (test_monomial_swap)
        p, q = parse("x^3 - 2x"), parse("x^5 + 1/2 x^3 + 3x")
        with pytest.raises(ValueError, match="the pairs are unit-equivalent; no swap to classify"):
            classify_odd_swap(p, q, p.scale_arg(mu), q * (1 / mu))

    def test_chebyshev_family(self):
        r = classify_odd_swap(chebyshev(3), chebyshev(5), chebyshev(5), chebyshev(3))
        assert r.kind == "a"
        assert (r.n, r.m) == (3, 5)

    @pytest.mark.parametrize(
        "p,q",
        [
            # T_3 and T_5 conjugated by x -> sqrt(2) x: only the square of
            # the scale is rational, so these are Dickson polynomials
            ("8x^3 - 3x", "64x^5 - 40x^3 + 5x"),
            # conjugated by x -> i x: the squared scale is negative
            ("-4x^3 - 3x", "16x^5 + 20x^3 + 5x"),
        ],
    )
    def test_dickson_family(self, p, q):
        p, q = parse(p), parse(q)
        assert p.compose(q) == q.compose(p)
        r = classify_odd_swap(p, q, q, p)
        assert (r.kind, r.n, r.m) == ("a", 3, 5)
        r = classify_odd_swap(q, p, p, q)
        assert (r.kind, r.n, r.m) == ("a", 5, 3)

    def test_to_json(self):
        r = classify_odd_swap(chebyshev(3), chebyshev(5), chebyshev(5), chebyshev(3))
        assert _set_fields_json(r) == {"kind": "a", "n": 3, "m": 5}

    def test_rejects_mismatched_composites(self):
        with pytest.raises(ValueError):
            classify_odd_swap(parse("x^3"), parse("x^5"), parse("x^5"), parse("x^3 + x"))

    def test_rejects_even_input(self):
        with pytest.raises(ValueError):
            classify_odd_swap(parse("x^2"), parse("x^3"), parse("x^3"), parse("x^2"))


class TestAdjustToOdd:
    def test_undoes_unit_twist(self):
        # start from an odd split, smear it with the unit x + 5, and the
        # adjustment must recover an odd pair with the same composite
        g0, h0 = parse("x^3"), parse("x^3 + x")
        g = g0.compose(parse("x - 5"))
        h = h0 + 5
        got = adjust_to_odd(g, h)
        assert got is not None
        g2, h2 = got
        assert is_odd(g2) and is_odd(h2)
        assert g2.compose(h2) == g0.compose(h0)
        assert (g2, h2) == (g0, h0)

    def test_rejects_non_odd_composite(self):
        with pytest.raises(ValueError):
            adjust_to_odd(parse("x^3"), parse("x^3 + x^2"))

    @pytest.mark.parametrize("shift", [F(1), F(-3), F(1, 2)])
    def test_any_unit_twist_is_adjustable(self, shift):
        rng = random.Random(int(shift * 6))
        g0 = random_odd(rng, 3)
        h0 = random_odd(rng, 5)
        g = g0.compose(parse("x") - shift)
        h = h0 + shift
        got = adjust_to_odd(g, h)
        assert got is not None
        assert got[0].compose(got[1]) == g0.compose(h0)


class TestDegreeCap:
    # x^67 . x^71 has degree 4757 > MAX_DEGREE: both refuse it as
    # compose_all does, before any power is built
    def test_classify_odd_swap_refuses_a_composite_above_the_cap(self):
        p, q = parse("x^67"), parse("x^71")
        with pytest.raises(ValueError, match="composite degree 4757 exceeds the degree cap 4096"):
            classify_odd_swap(p, q, q, p)

    def test_adjust_to_odd_refuses_a_composite_above_the_cap(self):
        with pytest.raises(ValueError, match="composite degree 4757 exceeds the degree cap 4096"):
            adjust_to_odd(parse("x^67"), parse("x^71"))


class TestNegativeFamilies:
    def test_shifted_composites_never_odd(self):
        for a in shifted_odd_composites(seed=5, count=200):
            assert not is_odd(a)

    def test_even_core_composites_never_odd(self):
        for a in even_core_composites(seed=5, count=200):
            assert not is_odd(a)
