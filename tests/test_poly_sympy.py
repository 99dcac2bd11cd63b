"""Products and substitutions against sympy's dense QQ polynomials.

`Polynomial.__mul__`, `compose`, `shift_arg` and `Unit.apply_right` all run
on denominator-cleared integer vectors through one convolution kernel,
which switches to Kronecker packing once the operand area reaches
`_PACKED_MUL_MIN_AREA`.  The inputs here have up to 40 terms, with many
zero coefficients and mixed denominators, so both sides of that switch
are exercised; constant operands and the zero polynomial are included.
sympy's `Poly.mul`, `Poly.compose` and `Poly.shift` over QQ are the oracle.

`TestComposeSplit` takes `compose` past Horner's rule into its baby and
giant steps and its divide-and-conquer split: every outer degree 1 to 17
(each 2^j and 2^j + 1 boundary) and 32, inner degree 1 (the `shift_arg`
path) and 24, inner denominators 1 and 6, outer polynomials with a zero
top or bottom half, zero blocks, zero coefficients inside a block and a
one-term top block, and coefficients big enough for the decimal product
tier, also in the giant step.  Each result is checked against sympy and
against pointwise evaluation.  The big products are counted, and no power
of the inner is made twice.

`divmod` (integer pseudo-division) is checked against sympy's `div` on
coefficients up to 10^30 over denominators up to 10^6, non-unit leads of
either sign and quotients up to 60 terms, where lead^k is large.

`squarefree_decomposition` and `poly_gcd` are checked against sympy's
`sqf_list` and `gcd` (made monic), on planted products of powers and on
hypothesis inputs.
"""

import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import polydecomp.poly as poly
from polydecomp.poly import Polynomial, Unit
from polydecomp.roots import poly_gcd, squarefree_decomposition

x = sympy.Symbol("x")

fracs = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=1000)
coeffs = st.one_of(st.just(F(0)), fracs)
small = st.fractions(min_value=-9, max_value=9, max_denominator=12)
big = st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**6)
big_coeffs = st.one_of(st.just(F(0)), big)


def rational_polys(max_terms):
    return st.lists(coeffs, min_size=0, max_size=max_terms).map(Polynomial)


def to_sympy(a: Polynomial) -> sympy.Poly:
    cs = [sympy.Rational(c, a.den) for c in reversed(a.num)]
    return sympy.Poly(cs or [0], x, domain="QQ")


def from_sympy(a: sympy.Poly) -> Polynomial:
    return Polynomial(F(int(c.p), int(c.q)) for c in reversed(a.all_coeffs()))


@given(a=rational_polys(40), b=rational_polys(40))
@settings(max_examples=100, deadline=None)
def test_mul(a, b):
    assert a * b == from_sympy(to_sympy(a).mul(to_sympy(b)))


@given(g=rational_polys(12), h=rational_polys(12))
@settings(max_examples=50, deadline=None)
def test_compose(g, h):
    assert g.compose(h) == from_sympy(to_sympy(g).compose(to_sympy(h)))


@given(a=rational_polys(40), lam=st.one_of(small, fracs))
@settings(max_examples=50, deadline=None)
def test_shift_arg(a, lam):
    expected = to_sympy(a).shift(sympy.Rational(lam.numerator, lam.denominator))
    assert a.shift_arg(lam) == from_sympy(expected)


@given(a=rational_polys(40), shift=small, scale=small.filter(bool))
@settings(max_examples=50, deadline=None)
def test_unit_apply_right(a, shift, scale):
    u = Unit(shift, scale)
    assert u.apply_right(a) == from_sympy(to_sympy(a).compose(to_sympy(u.as_poly())))


def dense(rng, degree, bits, den=1):
    """A degree-``degree`` polynomial with random numerators below 2^bits,
    all over ``den``; the leading one is nonzero."""
    cs = [rng.randrange(-(2**bits), 2**bits) for _ in range(degree)]
    return Polynomial(F(c, den) for c in cs + [rng.randrange(1, 2**bits)])


class TestComposeSplit:
    POINTS = (F(0), F(1), F(-2, 3), F(7, 5))

    def check(self, g, h):
        r = g.compose(h)
        assert r == from_sympy(to_sympy(g).compose(to_sympy(h)))
        for t in self.POINTS:
            assert r(t) == g(h(t))
        return r

    @pytest.mark.parametrize("inner", ["x + 3/7", "degree 24", "degree 24 over 6"])
    @pytest.mark.parametrize("n", [*range(1, 18), 32])
    def test_outer_degrees(self, n, inner):
        rng = random.Random(100 * n + len(inner))
        g = dense(rng, n, 40) * F(5, 3)
        if inner == "x + 3/7":
            h = Polynomial([F(3, 7), 1])
            assert g.shift_arg(F(3, 7)) == self.check(g, h)
        else:
            self.check(g, dense(rng, 24, 40, 6 if "over" in inner else 1))

    @pytest.mark.parametrize("n", [8, 9, 16, 17])
    def test_zero_halves(self, n):
        rng = random.Random(n)
        h = dense(rng, 12, 30, 6)
        low = dense(rng, n // 2 - 1, 30)
        top_zero = low + Polynomial.monomial(n, F(2, 9))  # x^n plus a low half
        bottom_zero = low.inflate(1, n - n // 2 + 1)  # x^k times a low half
        for g in (top_zero, bottom_zero, Polynomial.monomial(n), Polynomial.monomial(n) + 1):
            self.check(g, h)

    def test_split_runs_past_the_base_case(self, monkeypatch):
        calls = []
        split = poly._int_compose
        monkeypatch.setattr(
            poly, "_int_compose", lambda *args: calls.append(1) or split(*args)
        )
        rng = random.Random(5)
        g = dense(rng, 16, 40)
        self.check(g, dense(rng, 24, 40))
        assert len(calls) > 1
        calls.clear()
        self.check(g, Polynomial([F(3, 7), 1]))
        assert len(calls) == 1  # Horner: every product stays schoolbook

    def test_decimal_tier_products(self, monkeypatch):
        # coefficients of hundreds of bits make the balanced products
        # large enough for libmpdec, with slots wider than 640 digits; CI
        # also runs this under that int-to-str digit limit, so their text
        # is converted in chunks
        calls = []
        decimal_mul = poly._int_mul_decimal
        monkeypatch.setattr(
            poly, "_int_mul_decimal", lambda *args: calls.append(1) or decimal_mul(*args)
        )
        rng = random.Random(16)
        self.check(dense(rng, 9, 600, 3), dense(rng, 24, 300, 7))
        assert calls

    def spy_big_products(self, monkeypatch):
        """Record (len(a), len(b), slot digits) of every packed or libmpdec
        product; slot digits is None for a packed one."""
        calls = []
        packed, decimal_mul = poly._int_mul_packed, poly._int_mul_decimal

        def spy_packed(a, b, bound):
            calls.append((len(a), len(b), None))
            return packed(a, b, bound)

        def spy_decimal(a, b, bound):
            calls.append((len(a), len(b), len(poly._int_text(2 * bound))))
            return decimal_mul(a, b, bound)

        monkeypatch.setattr(poly, "_int_mul_packed", spy_packed)
        monkeypatch.setattr(poly, "_int_mul_decimal", spy_decimal)
        return calls

    @pytest.mark.parametrize("terms, products", [(8, 4), (6, 3)])
    def test_big_product_count(self, monkeypatch, terms, products):
        # two blocks of k = terms / 2 coefficients: the powers h^2 .. h^k,
        # then one giant step h^k times the top block (Horner's rule makes
        # terms - 2 big products here, and the split it served made 7 and 5)
        rng = random.Random(terms)
        h = Polynomial([rng.randrange(-3, 4) for _ in range(343)] + [1])
        g = dense(rng, terms - 1, 40)
        calls = self.spy_big_products(monkeypatch)
        r = g.compose(h)
        assert len(calls) == products
        for t in self.POINTS:
            assert r(t) == g(h(t))

    def test_powers_are_made_once(self, monkeypatch):
        # a 65-term outer splits at 64, 32, 16 and 8; its eight leaves share
        # h^2, h^3 and h^4, and the splits add h^8 .. h^64
        made = []
        power = poly._int_power

        def spy(pows, e):
            if e not in pows:
                made.append(e)
            return power(pows, e)

        monkeypatch.setattr(poly, "_int_power", spy)
        rng = random.Random(65)
        g, h = dense(rng, 64, 20), dense(rng, 24, 20, 5)
        r = g.compose(h)
        assert sorted(made) == [2, 3, 4, 8, 16, 32, 64]
        for t in self.POINTS:  # sympy takes seconds at degree 1536
            assert r(t) == g(h(t))

    @pytest.mark.parametrize(
        "support",
        [
            (4, 5, 6, 7),  # the low block of a leaf is zero
            (0, 1, 2, 4, 5, 7),  # a zero last coefficient in the low block
            (0, 1, 2, 3, 4, 6, 7),  # and a zero inside the high one
            (0, 1, 2),  # a one-term high block
            (0, 2, 4, 6, 8),  # every other power of h unused
            (*range(8, 16), 16),  # a zero low leaf under the split at 16
            (0, 16),  # zero leaves on both sides of the split
        ],
    )
    def test_block_edges(self, support):
        rng = random.Random(len(support))
        g = Polynomial.from_ints(
            [rng.randrange(1, 2**30) if i in support else 0 for i in range(max(support) + 1)],
            7,
        )
        self.check(g, dense(rng, 24, 30, 6))

    def test_giant_step_in_the_decimal_tier(self, monkeypatch):
        # outer coefficients of 2000 bits make the one giant step, h^4 times
        # the top block, a libmpdec product with slots wider than 640
        # digits, while the powers of h stay narrower; CI also runs this
        # under that int-to-str digit limit
        rng = random.Random(22)
        g, h = dense(rng, 7, 2000, 3), dense(rng, 39, 100, 7)
        calls = self.spy_big_products(monkeypatch)
        self.check(g, h)
        wide = [(la, lb) for la, lb, w in calls if w and w > 640]
        assert wide and all(4 * h.degree + 1 in (la, lb) for la, lb in wide)


def check_divmod(a, b):
    q, r = divmod(a, b)
    sq, sr = to_sympy(a).div(to_sympy(b))
    assert (q, r) == (from_sympy(sq), from_sympy(sr))


@given(
    a=st.lists(big_coeffs, max_size=60).map(Polynomial),
    low=st.lists(big_coeffs, max_size=19),
    lead=big.filter(lambda c: c not in (0, 1, -1)),
)
@settings(max_examples=60, deadline=None)
def test_divmod(a, low, lead):
    check_divmod(a, Polynomial(low + [lead]))


def test_divmod_fixed_cases():
    long = Polynomial(F((-1) ** k * 10**25 + k, 3**k + 2) for k in range(60))
    negative_lead = Polynomial([F(5, 7)] * 20 + [F(-37, 11)])
    check_divmod(long, negative_lead)  # a 40-term quotient, lead^40 scaling
    check_divmod(long, Polynomial.const(F(-7, 3)))
    check_divmod(negative_lead, long)
    assert divmod(negative_lead, long) == (Polynomial(), negative_lead)
    assert divmod(long, Polynomial.const(F(-7, 3))) == (long * F(-3, 7), Polynomial())


def test_fixed_edge_cases(monkeypatch):
    packed_calls = []
    packed = poly._int_mul_packed
    monkeypatch.setattr(
        poly, "_int_mul_packed", lambda *args: packed_calls.append(1) or packed(*args)
    )
    zero, seven = Polynomial(), Polynomial.const(F(7, 3))
    sparse = Polynomial([F(1, 2)] + [0] * 30 + [F(-3, 4)])
    # 300 terms: even the two-term shift operand reaches the packed product
    dense = Polynomial(F(k % 11 - 5, k % 7 + 1) for k in range(300))
    for a in (zero, seven, sparse, dense):
        sa = to_sympy(a)
        for b in (zero, seven, sparse, dense):
            assert a * b == from_sympy(sa.mul(to_sympy(b)))
        assert a.shift_arg(F(-5, 6)) == from_sympy(sa.shift(sympy.Rational(-5, 6)))
    for g in (zero, seven, sparse):
        for h in (zero, seven, sparse):
            assert g.compose(h) == from_sympy(to_sympy(g).compose(to_sympy(h)))
    assert packed_calls


def assert_sqf_matches_sympy(a: Polynomial):
    content, parts = squarefree_decomposition(a)
    _, factors = to_sympy(a).sqf_list()
    assert parts == {k: from_sympy(f.monic()) for f, k in factors}
    assert content == a.lead


nonconst_polys = rational_polys(6).filter(lambda a: not a.is_constant)


@given(
    parts=st.lists(st.tuples(nonconst_polys, st.integers(min_value=1, max_value=3)), min_size=1, max_size=3),
    lead=small.filter(bool),
)
@settings(max_examples=50, deadline=None)
def test_squarefree_decomposition_planted(parts, lead):
    a = Polynomial.const(lead)
    for f, k in parts:
        a = a * f**k
    assert_sqf_matches_sympy(a)


@given(a=rational_polys(12).filter(lambda a: not a.is_zero))
@settings(max_examples=50, deadline=None)
def test_squarefree_decomposition(a):
    assert_sqf_matches_sympy(a)


def sympy_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    g = to_sympy(a).gcd(to_sympy(b))
    return from_sympy(g.monic()) if not g.is_zero else Polynomial()


@given(common=rational_polys(5), a=rational_polys(6), b=rational_polys(6))
@settings(max_examples=50, deadline=None)
def test_poly_gcd_planted(common, a, b):
    a, b = common * a, common * b
    assert poly_gcd(a, b) == sympy_gcd(a, b)


@given(a=rational_polys(10), b=rational_polys(10))
@settings(max_examples=50, deadline=None)
def test_poly_gcd(a, b):
    assert poly_gcd(a, b) == sympy_gcd(a, b)
