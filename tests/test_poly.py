"""Core polynomial arithmetic.

Hand-computed oracles for the small cases, hypothesis for the ring laws,
and a direct cross-check of both packed integer convolutions, binary and
decimal, against the schoolbook product (the packed paths are the pieces
with room for carry/sign mistakes).
"""

import decimal
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from polydecomp.poly import MAX_DEGREE, ONE, X, ZERO, Polynomial, Unit, compose_all
from polydecomp import poly
from polydecomp.poly import _conv_bound, _int_conv, _int_mul_decimal, _int_mul_packed
from polydecomp.parsing import parse


def p(text):
    return parse(text)


# strategies kept small: exactness does not depend on size, only the
# packed-multiplication test needs big numbers and builds them itself
fracs = st.fractions(min_value=-9, max_value=9, max_denominator=8)
polys = st.lists(fracs, min_size=0, max_size=7).map(Polynomial)
nonconst = st.lists(fracs, min_size=2, max_size=6).map(
    lambda cs: Polynomial(cs[:-1] + [cs[-1] if cs[-1] != 0 else F(1)])
)


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])
        assert Polynomial([0, 0, 0]).is_zero

    def test_degree_and_lead(self):
        q = p("3x^4 - x")
        assert q.degree == 4
        assert q.lead == 3
        assert ONE.degree == 0
        assert X.degree == 1
        with pytest.raises(ValueError):
            ZERO.degree

    def test_const_and_monomial(self):
        assert Polynomial.const(F(2, 3)) == p("2/3")
        assert Polynomial.monomial(5) == p("x^5")
        assert Polynomial.monomial(3, F(-1, 2)) == p("-1/2 x^3")

    def test_int_and_fraction_inputs_agree(self):
        for cs in ([3, -1, 4, 1, -5, 9, 2, 6], [0, 0, 7, 0], [0], [], [10**40, -3]):
            assert Polynomial(cs) == Polynomial([F(c) for c in cs])
            assert Polynomial(cs) == Polynomial.from_ints(cs, 1)
        assert Polynomial([2, F(1, 2)]) == Polynomial.from_ints([4, 1], 2)

    def test_non_rational_coefficients_rejected(self):
        for bad in ([1, 2.0], [True, 2], [1, False]):
            with pytest.raises(TypeError, match="must be int or Fraction"):
                Polynomial(bad)

    def test_const_rejects_strings(self):
        with pytest.raises(TypeError):
            Polynomial.const("1/2")

    def test_support_and_valuation(self):
        q = p("x^5 + 2x^3")
        assert q.support() == (3, 5)
        assert q.x_valuation() == 3
        with pytest.raises(ValueError):
            ZERO.x_valuation()


class TestRepresentation:
    """Numerators over one denominator, kept in a unique lowest-terms form."""

    @given(st.lists(st.fractions(max_denominator=60), max_size=8))
    def test_lowest_terms(self, cs):
        q = Polynomial(cs)
        stripped = list(cs)
        while stripped and stripped[-1] == 0:
            stripped.pop()
        assert q.den > 0
        assert math.gcd(q.den, *q.num) == 1
        assert [q[i] for i in range(len(q.num))] == stripped
        assert all(type(c) is int for c in q.num)
        assert Polynomial.from_ints(q.num, q.den) == q

    def test_zero(self):
        assert (ZERO.num, ZERO.den) == ((), 1)
        assert Polynomial.from_ints([0, 0], -6) == ZERO
        assert Polynomial.from_ints([0, 0], -6).den == 1

    def test_from_ints_normalises(self):
        want = Polynomial([F(1, 2), 0, F(-3, 4)])
        for num, den in (([2, 0, -3], 4), ([-2, 0, 3], -4), ([6, 0, -9, 0], 12)):
            got = Polynomial.from_ints(num, den)
            assert got == want
            assert (got.num, got.den) == (want.num, want.den) == ((2, 0, -3), 4)
            assert hash(got) == hash(want)
        with pytest.raises(ZeroDivisionError):
            Polynomial.from_ints([1], 0)

    def test_hash_and_eq_read_integers(self, monkeypatch):
        a = p("1/2 x^5 - 3/7 x^2 + 5/3")
        b = p("5/3 - 3/7 x^2 + 1/2 x^5")
        c = p("1/2 x^5 - 3/7 x^2 + 4/3")
        calls = []

        def spy(name):
            real = getattr(F, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            return wrapper

        monkeypatch.setattr(F, "__hash__", spy("__hash__"))
        monkeypatch.setattr(F, "__eq__", spy("__eq__"))
        assert hash(a) == hash(b)
        assert a == b and a != c
        assert len({a, b, c}) == 2
        assert calls == []


class TestArithmetic:
    def test_product_oracle(self):
        assert p("x + 1") * p("x + 1") == p("x^2 + 2x + 1")
        assert p("x^2 - 1") * p("x^2 + 1") == p("x^4 - 1")
        assert p("1/2 x + 1/3") * p("2x - 3") == p("x^2 - 5/6 x - 1")

    def test_sum_difference(self):
        a, b = p("x^3 + x"), p("x^3 - x + 2")
        assert a + b == p("2x^3 + 2")
        assert a - b == p("2x - 2")
        assert a - a == ZERO

    def test_scalar_ops(self):
        assert p("x^2 + x") * F(1, 2) == p("1/2 x^2 + 1/2 x")
        assert p("x") + 3 == p("x + 3")

    def test_pow(self):
        assert p("x + 1") ** 3 == p("x^3 + 3x^2 + 3x + 1")
        assert p("x") ** 0 == ONE
        assert ZERO**0 == ONE
        with pytest.raises(ValueError):
            p("x") ** -1

    @given(a=polys, n=st.integers(min_value=0, max_value=9))
    @example(a=ZERO, n=0)
    @example(a=ZERO, n=5)
    def test_pow_is_the_repeated_product(self, a, n):
        product = ONE
        for _ in range(n):
            product = product * a
        assert a**n == product

    def test_divmod_oracle(self):
        q, r = divmod(p("x^3 - 2x + 5"), p("x - 1"))
        assert q == p("x^2 + x - 1")
        assert r == p("4")
        assert p("x^4 - 1") % p("x^2 - 1") == ZERO

    def test_evaluation(self):
        q = p("2x^3 - x + 4")
        assert q(0) == 4
        assert q(F(1, 2)) == F(15, 4)
        assert q(-2) == -10
        for point in (0.5, True):
            with pytest.raises(TypeError):
                q(point)

    def test_derivative(self):
        assert p("x^4 + 3x^2 + 7").derivative() == p("4x^3 + 6x")
        assert p("5").derivative() == ZERO

    @given(a=polys, b=polys, c=polys)
    def test_ring_laws(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(a=polys, b=nonconst)
    def test_divmod_identity(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


class TestCompose:
    def test_oracle(self):
        assert p("x^2 + 1").compose(p("x + 2")) == p("x^2 + 4x + 5")
        assert p("x^2").compose(p("x^3")) == p("x^6")
        # fractional coefficients exercise the denominator-clearing path
        assert p("1/2 x^2 + 1/3 x").compose(p("2x + 3")) == p("2x^2 + 20/3 x + 11/2")

    def test_constants(self):
        assert p("5").compose(p("x^2 + 1")) == p("5")
        assert p("x^2 + x").compose(p("3")) == p("12")

    @given(g=nonconst, h=nonconst)
    def test_degree_multiplicative(self, g, h):
        assert g.compose(h).degree == g.degree * h.degree

    @given(f=polys, g=nonconst, h=nonconst)
    @settings(max_examples=60)
    def test_associative(self, f, g, h):
        assert f.compose(g).compose(h) == f.compose(g.compose(h))

    @given(f=polys, h=polys, x0=fracs)
    def test_matches_pointwise(self, f, h, x0):
        assert f.compose(h)(x0) == f(h(x0))

    def test_compose_all(self):
        fs = (p("x^2 + 1"), p("x^3 - x"), p("2x + 5"))
        assert compose_all(fs) == fs[0].compose(fs[1]).compose(fs[2])
        assert compose_all((p("x^7"),)) == p("x^7")

    def test_compose_all_refuses_a_composite_above_the_cap(self, monkeypatch):
        # 2048 * 2048 > MAX_DEGREE, refused before any composition starts
        monkeypatch.setattr(Polynomial, "compose", lambda *args: pytest.fail("composed"))
        big = p("x^2048 + x")
        with pytest.raises(ValueError, match=f"composite degree 4194304 exceeds the degree cap {MAX_DEGREE}"):
            compose_all((big, big))
        with pytest.raises(ValueError, match=f"composite degree {2 * MAX_DEGREE} exceeds"):
            compose_all((p("x^2"), p("x^64"), p("x^64 + 1")))

    def test_compose_all_up_to_the_cap(self):
        assert compose_all((p("x^64"), p("x^64 + x"))).degree == MAX_DEGREE
        # a constant factor makes the composite constant, whatever the degrees
        assert compose_all((p("x^4096"), p("2"), p("x^4096"))) == p(str(2**4096))
        assert compose_all((p("x^4096 + 1"), ZERO, p("x^4096"))) == ONE


big_ints = st.integers(min_value=-(10**40), max_value=10**40)


class TestPackedMultiply:
    """The Kronecker-substitution product must agree with the direct sum."""

    @staticmethod
    def schoolbook(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return out

    @given(
        a=st.lists(big_ints, min_size=1, max_size=40),
        b=st.lists(big_ints, min_size=1, max_size=40),
    )
    @settings(max_examples=150)
    def test_agrees_with_schoolbook(self, a, b):
        assert _int_conv(a, b) == self.schoolbook(a, b)

    # adversarial sign patterns, and an all-zero operand
    SIGN_CASES = [
        ([1], [1]),
        ([-1, -1, -1], [-1, -1, -1]),
        ([2**63 - 1, -(2**63)], [2**63, 2**63 - 1]),
        ([0, 0, 5], [7, 0, 0]),
        ([10**30, -(10**30)], [10**30, 10**30]),
        ([0, 0, 0], [3, -4]),
    ]

    def test_packed_path_directly(self):
        # small vectors would normally take the schoolbook branch, so call
        # the packed routine itself
        for a, b in self.SIGN_CASES:
            assert _int_mul_packed(a, b, _conv_bound(a, b)) == self.schoolbook(a, b)

    def test_huge_coefficient_product(self):
        n = 10**200
        a = [n, -n, n]
        b = [-n, n]
        assert _int_conv(a, b) == self.schoolbook(a, b)


class TestDecimalMultiply:
    """The libmpdec tier of `_int_conv`: packed in base 10^w, exact or
    raising.  CI also runs these with a low int-to-str digit limit, so the
    chunked text conversions run at small sizes."""

    schoolbook = staticmethod(TestPackedMultiply.schoolbook)

    def test_decimal_path_directly(self):
        for a, b in TestPackedMultiply.SIGN_CASES:
            assert _int_mul_decimal(a, b, _conv_bound(a, b)) == self.schoolbook(a, b)

    def test_every_bias_length(self):
        # the biases are built by doubling from the top bit of the slot
        # count, so every count from 1 to 64 is a different bit pattern
        rng = random.Random(12)
        for la in range(1, 33):
            for lb in (1, la, 33 - la):
                a = [rng.randrange(-(10**40), 10**40) for _ in range(la)]
                b = [rng.randrange(-(10**9), 10**9) for _ in range(lb)]
                bound = _conv_bound(a, b)
                assert _int_mul_decimal(a, b, bound) == _int_mul_packed(a, b, bound)

    def test_real_size_product_takes_the_decimal_tier(self, monkeypatch):
        # a long operand with big coefficients times a shorter one, as in
        # the products of the compose split, above the crossover
        rng = random.Random(14)
        a = [rng.randrange(-(2**1000), 2**1000) for _ in range(400)]
        b = [rng.randrange(-(2**60), 2**60) for _ in range(300)]
        bound = _conv_bound(a, b)
        assert (len(a) + len(b)) * bound.bit_length() >= poly._DECIMAL_MUL_MIN_SIZE
        calls = []
        decimal_mul = poly._int_mul_decimal
        monkeypatch.setattr(
            poly, "_int_mul_decimal",
            lambda *args: calls.append(1) or decimal_mul(*args),
        )
        assert _int_conv(a, b) == _int_mul_packed(a, b, bound)
        assert calls == [1]

    def test_slot_wider_than_the_digit_limit(self):
        # 2 * bound has more than 4300 digits, so every slot text is
        # converted in chunks both ways
        n = 10**2200 + 12345
        a = [n, -n, n - 1, 0, -n]
        b = [-n, n + 7, 3]
        bound = _conv_bound(a, b)
        assert len(str(decimal.Decimal(2 * bound))) > 4300
        assert _int_mul_decimal(a, b, bound) == self.schoolbook(a, b)
        big = [n * (k - 12) for k in range(25)]
        assert _int_conv(big, big) == self.schoolbook(big, big)

    def test_chunked_text_round_trip(self):
        # Decimal(int) and str(Decimal) are not under the digit limit
        for n in (0, 7, 10**5000 - 1, 10**5000, 3**12000, 10**4400 + 1):
            text = poly._int_text(n)
            assert text == str(decimal.Decimal(n))
            assert poly._int_text(-n) == str(decimal.Decimal(-n))
            assert poly._text_int(text) == n
            assert poly._text_int(text.zfill(len(text) + 9)) == n
        # a digit int() does not read is a ValueError, not a recursion
        for text in ("\u00b2", "1\u00b2", "\u2460" * 5000):
            with pytest.raises(ValueError):
                poly._text_int(text)

    def test_context_traps_rounding(self):
        ctx = poly._EXACT
        for signal in (
            decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow
        ):
            assert ctx.traps[signal]
        assert ctx.prec == decimal.MAX_PREC
        # the same traps at a small precision show that a rounding raises
        small = ctx.copy()
        small.prec = 5
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            small.multiply(decimal.Decimal(123456), decimal.Decimal(7))

    def test_global_context_untouched(self):
        before = decimal.getcontext().copy()
        a = [3**700 - k for k in range(300)]
        bound = _conv_bound(a, a)
        assert _int_mul_decimal(a, a, bound) == _int_mul_packed(a, a, bound)
        after = decimal.getcontext()
        for field in ("prec", "traps", "flags"):
            assert getattr(after, field) == getattr(before, field)


class TestStructure:
    def test_even_odd_split(self):
        even, odd = p("x^5 + 3x^4 + x^2 - x + 7").even_odd_split()
        assert even == p("3x^4 + x^2 + 7")
        assert odd == p("x^5 - x")

    @given(a=polys)
    def test_even_odd_sums_back(self, a):
        even, odd = a.even_odd_split()
        assert even + odd == a
        assert all(e % 2 == 0 for e in even.support())
        assert all(e % 2 == 1 for e in odd.support())

    def test_is_odd_function(self):
        assert p("x^5 - 2x^3 + x").is_odd_function
        assert not p("x^5 + x^2").is_odd_function
        assert ZERO.is_odd_function

    def test_deflate(self):
        assert p("x^4 + x^2").deflate(2) == (2, p("x + 1"))
        assert p("x^6 - 2x^3 + 5").deflate(3) == (0, p("x^2 - 2x + 5"))
        assert p("x^3 + x^2").deflate(2) is None

    @given(a=polys, k=st.integers(min_value=1, max_value=6), s=st.integers(min_value=0, max_value=6))
    @settings(max_examples=60)
    def test_inflate(self, a, k, s):
        got = a.inflate(k, s)
        assert got == Polynomial.monomial(s) * a.compose(Polynomial.monomial(k))
        assert Polynomial.from_ints(got.num[s::k], got.den) == a
        if not a.is_zero:
            v = a.x_valuation()
            assert got.deflate(k) == (s + k * v, Polynomial.from_ints(a.num[v:], a.den))

    def test_inflate_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            p("x + 1").inflate(0, 1)
        with pytest.raises(ValueError):
            p("x + 1").inflate(2, -1)
        with pytest.raises(ValueError):
            p("x + 1").deflate(0)
        assert p("x^4 + x^2").deflate(3) is None

    def test_shift_scale_arg(self):
        q = p("x^2")
        assert q.shift_arg(F(1)) == p("x^2 + 2x + 1")
        assert q.scale_arg(F(3)) == p("9x^2")

    @given(a=polys, s=fracs)
    def test_shift_arg_pointwise(self, a, s):
        shifted = a.shift_arg(s)
        for x0 in (F(0), F(1), F(-2, 3)):
            assert shifted(x0) == a(x0 + s)

    def test_canonical_core(self):
        u, core = p("3x^2 + 6x + 5").canonical_core()
        assert core.lead == 1 and core(0) == 0
        assert u.apply_left(core) == p("3x^2 + 6x + 5")

    def test_canonical_core_of_a_core_is_itself(self):
        core = p("x^3 - 1/2 x")
        u, same = core.canonical_core()
        assert u.is_identity
        assert same is core

    @given(a=nonconst)
    def test_canonical_core_roundtrip(self, a):
        u, core = a.canonical_core()
        assert core.lead == 1
        assert core(0) == 0
        assert u.apply_left(core) == a


class TestUnit:
    def test_apply_sides(self):
        u = Unit(F(1), F(2))  # 1 + 2x
        q = p("x^2")
        assert u.apply_left(q) == p("2x^2 + 1")
        assert u.apply_right(q) == p("4x^2 + 4x + 1")

    def test_as_poly(self):
        assert Unit(F(-3), F(5)).as_poly() == p("5x - 3")

    @given(
        sh=fracs,
        sc=fracs.filter(lambda q: q != 0),
        a=polys,
    )
    def test_group_laws(self, sh, sc, a):
        u = Unit(sh, sc)
        v = u.inverse()
        assert u.compose(v).is_identity
        assert v.compose(u).is_identity
        assert v.apply_left(u.apply_left(a)) == a
        assert u.apply_right(v.apply_right(a)) == a

    def test_identity(self):
        e = Unit.identity()
        assert e.is_identity
        assert e.as_poly() == X
