"""Parser and printer, for polynomials and for single rationals.

The load-bearing invariant is that format_poly output always parses back
to the same polynomial. That gets a large seeded sweep plus a hypothesis
version; the rest is grammar corner cases.
"""

import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from polydecomp.parsing import (
    ParseError,
    format_poly,
    format_coeffs,
    format_rational,
    parse,
    parse_rational,
)
from polydecomp.poly import MAX_DEGREE, MAX_LITERAL_DIGITS, Polynomial


def random_poly(rng):
    deg = rng.randrange(0, 9)
    coeffs = [
        F(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(deg + 1)
    ]
    return Polynomial(coeffs)


def test_roundtrip_seeded_sweep():
    rng = random.Random(20240817)
    for _ in range(1000):
        q = random_poly(rng)
        assert parse(format_poly(q)) == q


@given(st.lists(st.fractions(max_denominator=1000), min_size=0, max_size=10).map(Polynomial))
def test_roundtrip_property(q):
    assert parse(format_poly(q)) == q


def test_format_oracle():
    assert format_poly(parse("x^5 + 2x^4 + x^3")) == "x^5 + 2*x^4 + x^3"
    assert format_poly(parse("-x^2 + 1/2 x - 3")) == "-x^2 + 1/2*x - 3"
    assert format_poly(Polynomial()) == "0"
    assert format_poly(Polynomial.const(F(-7, 3))) == "-7/3"
    assert format_poly(parse("x")) == "x"


@pytest.mark.parametrize(
    "a,b",
    [
        ("2x", "2*x"),
        ("+x^2", "x^2"),
        ("x + x", "2x"),
        ("1/2 x^3", "1/2*x^3"),
        ("x^0", "1"),
        ("  x ^ 2 - 1 ", "x^2-1"),
        ("0*x^9 + x", "x"),
        ("-0", "0"),
    ],
)
def test_equivalent_spellings(a, b):
    assert parse(a) == parse(b)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x +",
        "y",
        "x^-2",
        "x^2/4",      # a fractional exponent, not a divided coefficient
        "1/0",
        "2**x",
        "x^^2",
        "x^",
        "* x",
        "3/ x",
        "x x",
    ],
)
def test_rejects(text):
    with pytest.raises(ParseError):
        parse(text)


def test_degree_cap():
    # The cap is checked on the exponent token, before the dense
    # coefficient list exists, so a huge exponent fails at once.
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse("x^1000000000")
    assert time.perf_counter() - start < 1.0
    assert info.value.offset == 2
    assert "degree cap" in str(info.value)
    with pytest.raises(ParseError):
        parse(f"x^{MAX_DEGREE + 1}")
    with pytest.raises(ParseError):
        parse("1 + x^" + "9" * 5000)
    assert parse(f"x^{MAX_DEGREE} + 1").degree == MAX_DEGREE
    assert parse("x^" + "0" * 5000 + "7") == parse("x^7")


def test_literal_cap():
    # Checked on the token before int() runs, so an over-long literal is a
    # ParseError at its offset rather than CPython's plain ValueError.
    assert MAX_LITERAL_DIGITS <= 4300
    long = "9" * (MAX_LITERAL_DIGITS + 1)
    with pytest.raises(ParseError, match="digit cap") as info:
        parse(long + "x^2")
    assert info.value.offset == 0
    with pytest.raises(ParseError, match="digit cap") as info:
        parse("x + 3/" + long)
    assert info.value.offset == 6
    top = "9" * MAX_LITERAL_DIGITS
    assert parse(top + "x^2")[2] == int(top)
    assert parse("1/" + top)[0] == F(1, int(top))


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as info:
        parse("x^2 + $")
    assert info.value.offset == 6
    assert isinstance(info.value, ValueError)


class TestParseRational:
    @pytest.mark.parametrize(
        "text,value",
        [("0", F(0)), ("-1/2", F(-1, 2)), ("+ 6 / 4", F(3, 2)), ("-7/001", F(-7))],
    )
    def test_values(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text",
        ["", "-", "1/0", "1/", "1e5000", "1.5", "1/-2", "x", "1 2", "1/2x", "--1"],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)

    def test_literal_cap(self):
        big = "9" * MAX_LITERAL_DIGITS
        assert parse_rational(f"-1/{big}") == F(-1, int(big))
        with pytest.raises(ParseError, match="digit cap"):
            parse_rational("9" + big)
        with pytest.raises(ParseError, match="digit cap"):
            parse_rational("1/9" + big)

    @given(st.lists(st.fractions(max_denominator=40), max_size=8).map(Polynomial))
    def test_reads_back_format_coeffs(self, q):
        assert Polynomial(parse_rational(c) for c in format_coeffs(q)) == q

    def test_format_coeffs_shape(self):
        assert format_coeffs(parse("x^2 - 1/3")) == ["-1/3", "0", "1"]
        assert format_coeffs(Polynomial()) == []


def read_digits(text):
    """int(text) for a digit string of any length, in chunks under the
    interpreter's int-to-str limit."""
    sign, text = (-1, text[1:]) if text.startswith("-") else (1, text)
    n = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return sign * n


class TestExactText:
    def test_matches_str_below_the_limit(self):
        rng = random.Random(7)
        for bits in (1, 60, 4000, 14000, 14200):
            for _ in range(20):
                c = F(rng.choice((-1, 1)) * rng.getrandbits(bits), rng.getrandbits(bits) + 1)
                assert format_rational(c) == str(c)
        assert format_rational(F(0)) == "0"

    def test_any_size(self):
        rng = random.Random(8)
        for digits in (4300, 4301, 6000, 20000):
            for _ in range(3):
                num = rng.randrange(10 ** (digits - 1), 10**digits)
                den = rng.randrange(10**digits) + 1
                c = -F(num, den)
                got_num, _, got_den = format_rational(c).partition("/")
                assert F(read_digits(got_num), read_digits(got_den or "1")) == c
        # zero runs across a split point must keep their padding
        n = 10**10000 + 7
        assert format_rational(F(n)) == "1" + "0" * 9999 + "7"

    def test_six_thousand_digit_coefficient(self):
        nines = 10**3000 - 1
        text = format_poly(parse(f"{nines}x").compose(parse(f"{nines}x^2")))
        # (10^3000 - 1)^2 = 10^6000 - 2 * 10^3000 + 1
        assert text == "9" * 2999 + "8" + "0" * 2999 + "1*x^2"
        assert read_digits(text[:-4]) == nines * nines
        assert format_coeffs(parse(f"{nines}x^2") * nines) == ["0", "0", text[:-4]]
