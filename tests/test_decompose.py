"""Decomposition search, canonical forms, and class enumeration.

The right_factor oracle table below was computed independently by
undetermined coefficients (solve g(h) = a for the coefficients of g and
h with h monic, h(0) = 0) in a computer algebra system, then frozen.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from polydecomp import decompose
from polydecomp.chebyshev import chebyshev
from polydecomp.corpus import indecomposable_factor, ritt_corpus
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
from polydecomp.poly import (
    MAX_DEGREE,
    Polynomial,
    PostconditionError,
    Unit,
    compose_all,
)
from polydecomp.roots import _FIRST_PRIME, _int_series_root, is_probable_prime

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


def fraction_series_root(f, m, terms):
    """The first `terms` coefficients of f^(1/m) for a power series with
    f[0] = 1, in Fractions, from the x^(j-1) coefficients of
    m * f * r' = r * f'."""
    root = [F(1)] + [F(0)] * (terms - 1)
    for j in range(1, terms):
        s1 = sum((j - k) * f[j - k] * root[k] for k in range(j))
        s2 = sum((j - k) * root[j - k] * f[k] for k in range(1, j))
        root[j] = (s1 - m * s2) / (m * j)
    return root


def old_right_factor(a, d):
    """The earlier split: a's canonical core as Fractions, its whole
    reversed sequence to a Fraction series root, then the denominators
    cleared again and a digit loop on x -> x/e, e the lcm of h's
    denominators, that tests every tap of the scaled h."""
    n = a.degree
    m = n // d
    outer_unit, ahat = a.canonical_core()
    h = Polynomial([F(0)] + fraction_series_root([ahat[i] for i in range(n, -1, -1)], m, d)[::-1])
    hi, e = list(h.num), h.den
    ai, da = list(ahat.num), ahat.den
    if pow(da, d, e):
        return None
    epow = [e**j for j in range(n + 1)]
    base = [c * epow[d - j] // e for j, c in enumerate(hi)]
    cur = [c * epow[n - j] for j, c in enumerate(ai)]
    scaled = []
    for _ in range(m):
        q = [0] * (len(cur) - d)
        for k in range(len(q) - 1, -1, -1):
            c = cur[k + d]
            if c:
                q[k] = c
                for j in range(d):
                    if base[j]:
                        cur[k + j] -= c * base[j]
        if any(cur[j] for j in range(1, d)):
            return None
        scaled.append(cur[0])
        cur = q
    scaled.append(cur[0])
    digits = [F(dig, da * epow[d * (m - i)]) for i, dig in enumerate(scaled)]
    return outer_unit.apply_left(Polynomial(digits)), h


def assert_matches_old_split(a):
    for d in decompose._proper_divisors(a.degree):
        assert right_factor(a, d) == old_right_factor(a, d), (a, d)


class TestIntegerRightFactor:
    """right_factor works on a's integer numerators; it must give exactly
    the earlier split, accept or reject, at every proper divisor."""

    def test_planted_rational_splits(self):
        rng = random.Random(17)
        for _ in range(25):
            g = random_rational_poly(rng, rng.choice((2, 3, 4)))
            h = random_rational_poly(rng, rng.choice((2, 3, 4)))
            a = g.compose(h)
            assert right_factor(a, h.degree) is not None
            assert_matches_old_split(a)
            assert_matches_old_split(-a + F(1, 3))

    def test_inner_factors_with_zero_taps(self):
        rng = random.Random(19)
        for inner in ("x^7 + x", "x^5 - 2x^2", "x^4 - x", "x^6 + 3x^3"):
            h = parse(inner)
            for _ in range(4):
                g = random_rational_poly(rng, rng.choice((2, 3)))
                a = g.compose(h)
                assert right_factor(a, h.degree)[1] == h
                assert_matches_old_split(a)

    def test_chebyshev(self):
        for n in range(4, 61):
            if decompose._proper_divisors(n):
                assert_matches_old_split(chebyshev(n))

    def test_no_split(self):
        rng = random.Random(23)
        for degree in (4, 6, 8, 9, 12, 12, 15, 16):
            a = random_rational_poly(rng, degree)
            for d in decompose._proper_divisors(degree):
                assert right_factor(a, d) is None
            assert_matches_old_split(a)

    def test_reads_numerators_not_the_canonical_core(self, monkeypatch):
        seen = []
        real_root = decompose._int_series_root

        def spy_root(f, m, terms):
            seen.append(len(f))
            return real_root(f, m, terms)

        def no_core(self):
            raise AssertionError("right_factor built a canonical core")

        monkeypatch.setattr(decompose, "_int_series_root", spy_root)
        monkeypatch.setattr(Polynomial, "canonical_core", no_core)
        a = parse("-3/2 x^12 + 5x^7 - 1/7 x^3 + 4")
        for d in (2, 3, 4, 6):
            right_factor(a, d)
        assert right_factor(chebyshev(12), 4) is not None
        assert seen == [2, 3, 4, 6, 4]


class TestIntegerSeriesRoot:
    """The integer series root against the Fraction recurrence, and the
    per-term test da^j r_j in Z that stops it."""

    @given(
        da=st.integers(min_value=1, max_value=12),
        rest=st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=6),
        m=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_root(self, da, rest, m):
        f = [da] + rest
        want = fraction_series_root([F(c, da) for c in f], m, len(f))
        got = _int_series_root(f, m, len(f))
        if got is None:
            assert any((da**j * r).denominator != 1 for j, r in enumerate(want))
        else:
            num, den = got
            assert [F(c, den) for c in num] == want
            assert den == math.lcm(*(r.denominator for r in want))

    def test_planted_powers(self):
        rng = random.Random(29)
        for _ in range(40):
            m = rng.choice((2, 3, 5))
            r = Polynomial(
                [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 9, 25))) for _ in range(rng.randint(1, 6))]
                + [F(1)]
            )
            ints = list((r**m).num)
            got = _int_series_root(ints[::-1], m, r.degree + 1)
            assert got is not None
            num, den = got
            assert [F(c, den) for c in num] == [r[i] for i in range(r.degree, -1, -1)]

    def test_stops_at_the_first_bad_term(self):
        # r_1 = 1/2 with da = 1 fails the test; f[2] must never be read
        assert _int_series_root([1, 1, None], 2, 3) is None
        # (1 + x)^(1/2) = 1 + x/2 - x^2/8 + ..., allowed once da = 4
        assert _int_series_root([4, 4, 0], 2, 3) == ([8, 4, -1], 8)


class TestWeightedDenominator:
    def test_coprime_base(self):
        nums = [12, 18, 35, 1, 49, 210, 2**40 * 3]
        base = decompose._coprime_base(nums)
        assert all(b > 1 for b in base)
        assert all(math.gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1:])
        for x in nums:
            for b in base:
                while x % b == 0:
                    x //= b
            assert x == 1

    @staticmethod
    def least_s(rs):
        s = 1
        while any((s**j * r).denominator != 1 for j, r in enumerate(rs)):
            s += 1
        return s

    def test_least_over_prime_bases(self):
        # the last denominator, 42, splits the coprime base into the
        # primes 2, 3 and 7; a base element such as 9 alone would stay 9
        rng = random.Random(31)
        for _ in range(60):
            rs = [F(1)] + [
                F(rng.choice((1, -1, 5)), rng.choice((1, 2, 4, 8, 3, 9, 27, 7, 49)))
                for _ in range(rng.randint(1, 6))
            ] + [F(1, 42)]
            den = math.lcm(*(r.denominator for r in rs))
            num = [r.numerator * (den // r.denominator) for r in rs]
            assert decompose._weighted_denominator(num, den) == self.least_s(rs)

    def test_valid_and_between_least_and_den(self):
        rng = random.Random(37)
        for _ in range(60):
            rs = [F(1)] + [
                F(rng.choice((1, -1, 5)), rng.choice((1, 6, 12, 18, 36, 10, 100, 30)))
                for _ in range(rng.randint(1, 6))
            ]
            den = math.lcm(*(r.denominator for r in rs))
            num = [r.numerator * (den // r.denominator) for r in rs]
            s = decompose._weighted_denominator(num, den)
            assert all((s**j * r).denominator == 1 for j, r in enumerate(rs))
            assert s % self.least_s(rs) == 0
            assert den % s == 0


def found_factors():
    rng = random.Random(1)
    return tuple(indecomposable_factor(rng, deg) for deg in (3, 7, 7, 7))


def halving_factors():
    """g o h at d = 49 with h = sum x^j / 2^(49 - j): its reversed
    coefficients are 1 / 2^j, so q_1 = 2 qualifies against den = 2^48."""
    h = Polynomial([0] + [F(1, 2 ** (49 - j)) for j in range(1, 50)])
    g = Polynomial([j % 5 - 2 for j in range(49)] + [1])
    return (g, h)


class TestSlowSplitsWithinBudget:
    """Splits whose right factor has large denominators, of 78 bits and
    more in the first four rows.  Scaled by the lcm of those denominators,
    the digit loop took about 30-100 s on them; each answer is checked
    against the planted chain, whose inner part of degree d is the only
    canonical candidate.

    The last two rows pin `_weighted_denominator`, one branch each.  With
    s = den they took 58 s (T_7 o T_343, whose odd reversed coefficients
    vanish, so q_1 = 1 does not qualify and the coprime base runs) and
    123 s (the q_1 branch), against about 1 s each, on a 2-core host with
    Python 3.11."""

    @pytest.mark.parametrize(
        "factors,d,accepted",
        [
            (found_factors(), 343, True),
            (ritt_corpus(42, 200)[1], 343, True),
            (ritt_corpus(42, 200)[81], 175, True),
            (ritt_corpus(42, 200)[57], 245, False),
            ((chebyshev(7), chebyshev(343)), 343, True),
            (halving_factors(), 49, True),
        ],
        ids=[
            "3-7-7-7", "corpus-1", "corpus-81", "corpus-57-reject",
            "T7-T343-coprime-base", "halving-q1",
        ],
    )
    def test_split(self, factors, d, accepted):
        a = compose_all(factors)
        t0 = time.perf_counter()
        split = right_factor(a, d)
        assert time.perf_counter() - t0 < 5.0
        if not accepted:
            assert split is None
            return
        g, h = split
        assert h == compose_all(factors[1:]).canonical_core()[1]
        assert h.degree == d
        assert g.compose(h) == a


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

    def test_canonical_factors_pass_no_unit(self, monkeypatch):
        def no_apply(self, q):
            raise AssertionError("applied the identity unit")

        monkeypatch.setattr(Unit, "apply_right", no_apply)
        parts = (parse("2x^2 + 1"), parse("x^3 + 1/3 x"), parse("x^2 - x"))
        assert canonicalize(parts) == parts

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

    def test_search_states_need_no_recheck(self):
        # the search neither canonicalizes nor re-checks indecomposability;
        # every class it returns must already pass both
        targets = [compose_all(fs) for fs in ritt_corpus(42, 40)]
        targets += [chebyshev(n) for n in range(4, 61) if not is_probable_prime(n)]
        for a in targets:
            for c in enumerate_classes(a):
                assert canonicalize(c.factors) == c.factors, a
                assert all(is_indecomposable(f) for f in c.factors), a

    @pytest.mark.parametrize("text", ["x + 1", "5", "0"])
    def test_rejects_degree_below_two(self, text):
        with pytest.raises(ValueError, match="degree >= 2"):
            enumerate_classes(parse(text))


class TestRitt1:
    @pytest.mark.parametrize("text", ["x + 1", "5", "0"])
    def test_rejects_degree_below_two(self, text):
        with pytest.raises(ValueError, match="degree >= 2"):
            ritt1_check(parse(text))

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


def large_composite(seed, shape):
    rng = random.Random(seed)
    return compose_all([indecomposable_factor(rng, d) for d in shape])


def dense_poly(seed, degree, monic=False):
    rng = random.Random(seed)
    cs = [rng.randint(1, 5) for _ in range(degree + 1)]
    if monic:
        cs[-1] = 1
    return Polynomial(cs)


def guarded_cubic_composite():
    """Monic dense 512 o (2x^3 + 5x^2 + 5x + 2): the lead 2^512 absorbs
    every 2-power denominator of the series root at left degree 2."""
    return dense_poly(512, 512, True).compose(parse("2x^3 + 5x^2 + 5x + 2"))


def split(a, d, digits):
    """`right_factor` at d with the series root and then the given digit
    engine, without the reject modulo a prime."""
    n, m = a.degree, a.degree // d
    ai = decompose._ahat_numerators(a)
    root = _int_series_root(ai[n : n - d : -1], m, d)
    if root is None:
        return None
    num, den = root
    g = digits(ai, ai[-1], num, den, m)
    if g is None:
        return None
    return Unit(a[0], a.lead).apply_left(g), Polynomial.from_ints([0, *reversed(num)], den)


def greedy_classes(a):
    """The class search started from the greedy decomposition, as it was
    before the left peel."""
    mp = pytest.MonkeyPatch()
    mp.setattr(decompose, "_first_decomposition", lambda a: complete_decomposition(a).factors)
    try:
        return enumerate_classes.__wrapped__(a)
    finally:
        mp.undo()


class TestLeftSplit:
    """The interpolated split of the class search's left peel against the
    digit path it stands in for."""

    @pytest.mark.parametrize(
        "seed,shape",
        [(3, (5, 7, 5, 5)), (4, (7, 5, 5, 7)), (5, (3, 7, 7, 7)), (6, (7, 7, 7, 3))],
    )
    def test_equals_the_digit_path(self, seed, shape):
        a = large_composite(seed, shape)
        assert a.degree >= 768 and decompose._peels_left(a)
        n = a.degree
        for m in decompose._proper_divisors(n):
            if m**3 > n:
                break
            want = split(a, n // m, decompose._constant_digits)
            assert split(a, n // m, decompose._interpolated_digits) == want
            assert (want is not None) == (m == shape[0])

    def test_composition_decides(self):
        # b keeps a's top coefficients and a's value at every |t| <= 20, so
        # only the composition can reject the split that a has
        a = large_composite(3, (5, 7, 5, 5))
        wall = Polynomial.const(1)
        for t in range(-20, 21):
            wall = wall * Polynomial((-t, 1))
        b = a + wall * 3
        assert all(b(t) == a(t) for t in range(-20, 21))
        d = b.degree // 5
        assert split(a, d, decompose._interpolated_digits) is not None
        assert split(b, d, decompose._interpolated_digits) is None
        assert right_factor(b, d) is None

    def test_too_few_nodes_leave_it_to_the_digits(self, monkeypatch):
        # h vanishes at every |t| <= 8, so the first 16 points give one node
        h = Polynomial.const(1)
        for t in range(-8, 9):
            h = h * Polynomial((-t, 1))
        a = parse("3x^2 + x - 1").compose(h)
        calls = []
        real = decompose._constant_digits

        def spy(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(decompose, "_constant_digits", spy)
        got = split(a, 17, decompose._interpolated_digits)
        assert calls == [2]
        assert got == right_factor(a, 17)
        assert got[1] == h

    def test_first_decomposition_is_complete_and_canonical(self):
        a = large_composite(7, (7, 7, 7, 7))
        fs = decompose._first_decomposition(a)
        assert [f.degree for f in fs] == [7, 7, 7, 7]
        assert compose_all(fs) == a
        assert canonicalize(fs) == fs
        assert all(is_indecomposable(f) for f in fs)

    def peel_trials(self, monkeypatch, a):
        """The (polynomial, right degree) of every `right_factor` call that
        `_first_decomposition` makes on a, peeling from degree 512."""
        tried = []
        real = decompose.right_factor

        def spy(p, d):
            tried.append((p, d))
            return real(p, d)

        monkeypatch.setattr(decompose, "right_factor", spy)
        monkeypatch.setattr(decompose, "_PEEL_MIN_DEGREE", 512)
        fs = decompose._first_decomposition(a)
        peeled = list(tried)
        assert fs == complete_decomposition(a).factors
        return peeled

    def test_no_degree_tried_twice(self, monkeypatch):
        # no left degree m <= 8 splits dense 256 o (x^2 + x), and the
        # greedy finish reaches those degrees only after one that splits
        a = dense_poly(256, 256, monic=True).compose(parse("x^2 + x"))
        tried = self.peel_trials(monkeypatch, a)
        assert [d for p, d in tried if p == a] == [256, 128, 64, 2]
        assert len(set(tried)) == len(tried)

    def test_rejects_modulo_a_prime_where_the_root_cannot(self, monkeypatch):
        # the lead 2^256 absorbs every 2-power denominator of the series
        # root, so left degree 2 is rejected modulo a prime instead, and the
        # exact root never runs its 256 terms
        a = dense_poly(256, 256, monic=True).compose(parse("2x^2 + x"))
        want = complete_decomposition(a).factors
        rejects, root_terms = [], []
        real_reject = decompose._rejects_mod_prime
        real_root = decompose._int_series_root

        def spy_reject(ai, d, m):
            rejects.append((m, real_reject(ai, d, m)))
            return rejects[-1][1]

        def spy_root(f, m, terms):
            root_terms.append(terms)
            return real_root(f, m, terms)

        monkeypatch.setattr(decompose, "_rejects_mod_prime", spy_reject)
        monkeypatch.setattr(decompose, "_int_series_root", spy_root)
        assert decompose._peels_left(a)
        assert decompose._first_decomposition(a) == want
        assert rejects[0] == (2, True)
        assert 256 not in root_terms

    def test_engine_is_chosen_by_the_input(self, monkeypatch):
        # b = g o h and a = b o (x^2 + x), dense of degrees 384 and 768:
        # every caller interpolates exactly where m^3 <= n
        b = parse("2x^3 + x^2 - x").compose(dense_poly(128, 128, monic=True))
        a = b.compose(parse("x^2 + x"))
        assert decompose._peels_left(a) and decompose._peels_left(b)
        ran = []
        for name in ("_constant_digits", "_interpolated_digits"):

            def spy(ai, da, num, den, m, real=getattr(decompose, name), name=name):
                ran.append((len(ai) - 1, m, name))
                return real(ai, da, num, den, m)

            monkeypatch.setattr(decompose, name, spy)
        callers = {
            "right_factor": lambda: [
                right_factor(p, d) for p in (a, b) for d in decompose._proper_divisors(p.degree)
            ],
            "is_indecomposable": lambda: is_indecomposable.__wrapped__(b),
            "complete_decomposition": lambda: complete_decomposition(a),
        }
        for caller, run in callers.items():
            ran.clear()
            run()
            assert "_interpolated_digits" in {e for _, _, e in ran}, caller
            for n, m, engine in ran:
                assert (engine == "_interpolated_digits") == (m**3 <= n), (caller, n, m)
        assert [f.degree for f in complete_decomposition(a).factors] == [3, 128, 2]
        for p in (a, b):
            n = p.degree
            for m in decompose._proper_divisors(n):
                if m**3 <= n:
                    want = split(p, n // m, decompose._constant_digits)
                    assert right_factor(p, n // m) == want, (n, m)

    def test_classes_unchanged_when_every_input_is_peeled(self, monkeypatch):
        targets = [compose_all(fs) for fs in ritt_corpus(42, 40)]
        targets += [chebyshev(n) for n in range(4, 121) if not is_probable_prime(n)]
        targets += [Polynomial.monomial(n) for n in (4, 12, 36, 60, 64, 96)]
        want = [greedy_classes(a) for a in targets]
        monkeypatch.setattr(decompose, "_peels_left", lambda p: p.degree >= 4)
        for a, classes in zip(targets, want):
            assert enumerate_classes.__wrapped__(a) == classes, a
            assert complete_decomposition(a).factors in {c.factors for c in classes}


class TestLeftSplitWithinBudget:
    """Sparse and structured inputs stay off the left peel, and dense ones
    whose short left degrees all reject pay little for trying them.  Best
    of 3 on a 2-core host, the class search without the peel and with it:
    x^3600 + x^7 + 1 0.21 / 0.22 s, x^4096 + x^5 + 1 0.15 / 0.15 s,
    T_2401 0.23 / 0.23 s, x^4087 + x^7 + 1 0.005 / 0.005 s, x^2520
    0.20 / 0.19 s, dense 2048 o (x^2 + x) 1.67 / 1.65 s and monic dense
    1024 o monic cubic 1.67 / 1.68 s.  Monic dense 512 o (2x^3 + 5x^2 +
    5x + 2), whose lead 2^512 leaves the series root no early reject, took
    4.8-5.5 s without the reject modulo a prime and 0.7-0.9 s with it."""

    @pytest.mark.parametrize(
        "make,classes,budget",
        [
            (lambda: parse("x^3600 + x^7 + 1"), 1, 2.0),
            (lambda: parse("x^4096 + x^5 + 1"), 1, 2.0),
            (lambda: chebyshev(2401), 1, 2.0),
            (lambda: parse("x^4087 + x^7 + 1"), 1, 1.0),
            (lambda: parse("x^2520"), 420, 2.0),
            (lambda: dense_poly(2048, 2048).compose(parse("x^2 + x")), 1, 8.0),
            (lambda: dense_poly(1024, 1024, True).compose(dense_poly(1, 3, monic=True)), 1, 8.0),
            (guarded_cubic_composite, 1, 3.0),
        ],
        ids=[
            "x3600", "x4096", "T2401", "x4087", "x2520", "dense2048-o-2", "monic1024-o-3",
            "monic512-o-2x3",
        ],
    )
    def test_classes(self, make, classes, budget):
        a = make()
        t0 = time.perf_counter()
        got = enumerate_classes.__wrapped__(a)
        assert time.perf_counter() - t0 < budget
        assert len(got) == classes

    def test_guarded_right_factor(self):
        # 3.2 s without the reject modulo a prime, 0.04 s with it
        a = guarded_cubic_composite()
        t0 = time.perf_counter()
        assert right_factor(a, 768) is None
        assert time.perf_counter() - t0 < 1.0


class TestModularReject:
    """The reject modulo a prime that `right_factor` runs where every
    prime of m divides da, so that the series root cannot reject early."""

    @staticmethod
    def guarded(a, d):
        """a's numerators ai, checking that the split at d is guarded."""
        ai = decompose._ahat_numerators(a)
        m = a.degree // d
        assert pow(ai[-1], m, m) == 0
        return ai

    @staticmethod
    def with_lead(rng, degree, lead):
        return Polynomial([rng.randint(-5, 5) for _ in range(degree)] + [lead])

    def test_never_rejects_a_planted_split(self):
        rng = random.Random(41)
        for lead, ms in ((2, (2, 4, 8)), (6, (2, 4, 6, 8, 12)), (12, (2, 4, 6, 8, 12))):
            for m in ms:
                d = rng.choice((64, 72, 96))
                g = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m)] + [1])
                a = g.compose(self.with_lead(rng, d, lead))
                assert not decompose._rejects_mod_prime(self.guarded(a, d), d, m)

    def test_rejects_only_where_the_digits_reject(self, monkeypatch):
        real = decompose._rejects_mod_prime
        monkeypatch.setattr(decompose, "_rejects_mod_prime", lambda ai, d, m: False)
        rng = random.Random(43)
        cases = [
            (dense_poly(61, 64).compose(parse("2x^2 + x")), 64),
            (dense_poly(62, 48).compose(parse("6x^4 + x^3 - x")), 96),
            (self.with_lead(rng, 192, 6), 96),
            (self.with_lead(rng, 192, 6), 64),
            (self.with_lead(rng, 256, 4), 64),
        ]
        for lead, m in ((2, 2), (6, 3), (4, 4)):
            g = Polynomial([rng.randint(-9, 9) for _ in range(m)] + [1])
            cases.append((g.compose(self.with_lead(rng, 64, lead)), 64))
        outcomes = set()
        for a, d in cases:
            rejected = real(self.guarded(a, d), d, a.degree // d)
            digits = split(a, d, decompose._constant_digits)
            assert not (rejected and digits is not None), (a.degree, d)
            outcomes.add((rejected, digits is None))
        assert outcomes == {(True, True), (False, False)}

    def test_skips_a_prime_dividing_the_lead(self):
        p0 = decompose._reject_prime(1, 64)
        p1 = decompose._reject_prime(2 * p0, 64)
        assert p0 == _FIRST_PRIME
        assert is_probable_prime(p1)
        assert not any(is_probable_prime(q) for q in range(p1 + 2, p0, 2))
        assert decompose._reject_prime(2 * p0 * p1, 64) < p1
        # mod p0 the lead of either input has no inverse
        a = parse("x^2 + 3x").compose(self.with_lead(random.Random(47), 64, 2 * p0))
        ai = self.guarded(a, 64)
        assert ai[-1] % p0 == 0
        assert not decompose._rejects_mod_prime(ai, 64, 2)
        b = a + Polynomial.monomial(70)
        assert decompose._rejects_mod_prime(self.guarded(b, 64), 64, 2)

    def test_walk_stops_at_the_right_degree(self):
        # A lead divisible by every prime from the right degree to 2^15
        # leaves no prime for the reject: it proves nothing and returns,
        # where an unbounded walk down would never end.
        d = 64
        primes = [q for q in range(d, _FIRST_PRIME + 1) if is_probable_prime(q)]
        lead = 2 * math.prod(primes)
        assert decompose._reject_prime(lead // primes[0], d) == primes[0]
        assert decompose._reject_prime(lead, d) is None
        ai = [0, 1] + [0] * (2 * d - 2) + [lead]
        assert not decompose._rejects_mod_prime(ai, d, 2)
        # x^128 + x / lead, whose ahat has these numerators, has no split
        # of right degree 64; the exact path proves it.
        assert right_factor(Polynomial.from_ints(ai, lead), d) is None


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

    def test_default_bound_is_the_degree_cap(self):
        a, b = parse("x^128 + x"), parse("x^127 + x^2")
        with pytest.raises(ValueError, match=f"16256 exceeds bound {MAX_DEGREE}"):
            common_composite(a, b)
        with pytest.raises(ValueError, match="16256 exceeds bound 16255"):
            common_composite(a, b, 16255)

    def test_inconsistent_witness_raises_a_named_error(self, monkeypatch):
        real = decompose._outer_coefficients

        def corrupt(a, b, i, j):
            alpha, beta = real(a, b, i, j)
            beta[-1] += 1  # the top coefficient of beta
            return alpha, beta

        monkeypatch.setattr(decompose, "_outer_coefficients", corrupt)
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


class TestCommonCompositeWithinBudget:
    """The top-down pass stops at the first row that no power leads, so a
    dense reject costs about the powers alone.  Solving the whole system
    by Gauss-Jordan took over 600 s on the dense 61/67 pair and about
    13 s on T_31/T_37 on a 2-core host, where these now take about 2.5 s
    and 1.2 s."""

    def test_dense_reject_at_the_cap(self):
        rng = random.Random(61)
        a = Polynomial([rng.randint(1, 5) for _ in range(62)])
        b = Polynomial([rng.randint(1, 5) for _ in range(68)])
        t0 = time.perf_counter()
        got = common_composite(a, b)
        elapsed = time.perf_counter() - t0
        assert got is None
        assert elapsed < 10.0

    def test_chebyshev_accept(self):
        t31, t37 = chebyshev(31), chebyshev(37)
        t0 = time.perf_counter()
        got = common_composite(t31, t37)
        elapsed = time.perf_counter() - t0
        assert got is not None
        c, alpha, beta = got
        assert alpha.compose(t31) == c
        assert beta.compose(t37) == c
        assert elapsed < 6.0

    @pytest.mark.parametrize("da,db", [(2, 2047), (3, 1364)])
    def test_refuses_powers_too_large(self, da, db):
        # the powers would hold 4.19M and 2.80M coefficients; the pass
        # gave no result in 600 s on the first and reached 800 MB on the
        # second
        rng = random.Random(da)
        a = Polynomial([rng.randint(1, 5) for _ in range(da + 1)])
        b = Polynomial([rng.randint(1, 5) for _ in range(db + 1)])
        t0 = time.perf_counter()
        with pytest.raises(decompose.CompositeTooLargeError, match="coefficients"):
            common_composite(a, b)
        assert time.perf_counter() - t0 < 1.0


def oracle_pairs():
    """Seeded pairs with lcm of degrees at most 30: integer, rational and
    unit-dressed, some with a common composite and some without."""
    rng = random.Random(17)
    x2x = parse("x^2 + x")
    pairs = [
        (parse("x^2"), parse("x^3")),
        (parse("x^2"), parse("x^2 + x")),
        (x2x.compose(parse("x^2")), parse("x^2").compose(x2x)),
        (parse("x^4").compose(x2x), parse("x^6").compose(x2x)),
    ]
    for m, n in ((2, 3), (3, 4), (2, 5), (4, 6), (5, 6)):
        pairs.append((random_poly(rng, m), random_poly(rng, n)))

    def unit():
        scale = F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
        return Unit(F(rng.randint(-4, 4), rng.randint(1, 5)), scale)

    for m, n in ((3, 5), (2, 3), (4, 6), (3, 2), (2, 7)):
        v = unit().as_poly()
        pairs.append((unit().apply_left(chebyshev(m).compose(v)), chebyshev(n).compose(v)))
    for _ in range(3):
        h = random_rational_poly(rng, 2)
        g = random_rational_poly(rng, rng.choice((2, 3)))
        pairs.append((h, g.compose(h)))
    h = random_rational_poly(rng, 2)
    pairs.append((parse("x^2").compose(h), parse("x^3").compose(h)))
    for m, n in ((2, 3), (3, 4)):
        pairs.append((random_rational_poly(rng, m), random_rational_poly(rng, n)))
    return pairs


class TestCommonCompositeAgainstSympy:
    """The alpha/beta system set up in sympy's symbols and solved by
    `linsolve`: alpha's lead pinned to 1/lead(a)^i so the composite is
    monic, beta(0) = 0, then c(0) = 0 by one shift of all three."""

    @staticmethod
    def solve(a, b):
        x = sympy.Symbol("x")

        def expr(p):
            return sum(sympy.Rational(c, p.den) * x**k for k, c in enumerate(p.num))

        n = math.lcm(a.degree, b.degree)
        i, j = n // a.degree, n // b.degree
        al = sympy.symbols(f"al0:{i}")
        be = sympy.symbols(f"be1:{j + 1}")
        lead = 1 / sympy.Rational(a.num[-1], a.den) ** i
        ea, eb = expr(a), expr(b)
        diff = sympy.Poly(
            sum(al[k] * ea**k for k in range(i))
            + lead * ea**i
            - sum(be[l - 1] * eb**l for l in range(1, j + 1)),
            x,
        )
        sols = sympy.linsolve(diff.coeffs(), [*al, *be])
        if not sols:
            return None
        (sol,) = sols
        alpha = sympy.Poly([lead, *reversed(sol[:i])], x)
        beta = sympy.Poly([*reversed(sol[i:]), 0], x)
        c = alpha.compose(sympy.Poly(ea, x))
        shift = c.eval(0)
        return c - shift, alpha - shift, beta - shift

    def test_agrees_on_seeded_pairs(self):
        found = 0
        for a, b in oracle_pairs():
            want = self.solve(a, b)
            got = common_composite(a, b)
            if want is None:
                assert got is None, (a, b)
                continue
            found += 1
            assert got is not None, (a, b)
            for p, q in zip(got, want):
                cs = reversed(q.all_coeffs())
                assert p == Polynomial(F(int(c.p), int(c.q)) for c in cs), (a, b)
        assert 0 < found < len(oracle_pairs())
