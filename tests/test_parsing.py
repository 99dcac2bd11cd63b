"""Parser and printer, for polynomials and for single rationals.

The load-bearing invariant is that format_poly output always parses back
to the same polynomial. That gets a large seeded sweep plus a hypothesis
version; the rest is grammar corner cases.
"""

import contextlib
import math
import random
import sys
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


@contextlib.contextmanager
def digit_limit(n):
    """Run under an int-to-str digit limit of n and restore the old limit
    after; a no-op on an interpreter that has no such limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(n)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


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


# (sign, coefficient as (n, d) with d None for a bare integer or the whole
# pair None for none, exponent or None for no x, joiner, exponent spelling)
_TERMS = st.tuples(
    st.sampled_from("+-"),
    st.none() | st.tuples(st.integers(0, 10**6), st.none() | st.integers(1, 60)),
    st.none() | st.integers(0, 6),
    st.sampled_from(["*", "", " ", " * "]),
    st.sampled_from(["plain", "padded"]),
).filter(lambda t: t[1] is not None or t[2] is not None)


def _render(coef, exp, joiner, spelling):
    """The text of one unsigned term and its value."""
    if coef is None:
        text, value = "", F(1)
    else:
        n, d = coef
        text, value = (str(n), F(n)) if d is None else (f"{n}/{d}", F(n, d))
    if exp is None:
        return text, 0, value
    if spelling == "padded":
        xp = f"x^0{exp}"
    else:
        xp = "x" if exp == 1 else f"x^{exp}"
    return (xp if coef is None else text + joiner + xp), exp, value


@given(st.lists(_TERMS, min_size=1, max_size=12), st.integers(0, 12), st.booleans())
def test_parse_sums_terms_exactly(terms, cancelled, leading_plus):
    # The first `cancelled` terms come back with the opposite sign, so some
    # exponents cancel to zero, possibly all of them.
    flip = {"+": "-", "-": "+"}
    terms = terms + [(flip[t[0]], *t[1:]) for t in terms[:cancelled]]
    pieces, sums = [], {}
    for sign, *rest in terms:
        text, exp, value = _render(*rest)
        pieces.append(f" {sign} {text}")
        sums[exp] = sums.get(exp, F(0)) + (value if sign == "+" else -value)
    text = "".join(pieces).lstrip()
    if not leading_plus and text.startswith("+"):
        text = text[1:]
    p = parse(text)
    expected = [sums.get(i, F(0)) for i in range(max(sums) + 1)]
    assert [p[i] for i in range(len(expected))] == expected
    assert p == Polynomial(expected)
    # the stored pair is in lowest terms
    assert p.den > 0 and math.gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0


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


# One row per raise site in parsing.py, offsets and messages pinned exactly.
_LONG = "9" * (MAX_LITERAL_DIGITS + 1)
PARSE_ERRORS = [
    ("x^2 + $", 6, "unexpected character '$'"),
    ("y", 0, "unexpected character 'y'"),
    ("3\u00b2x", 1, "unexpected character '\u00b2'"),  # isdigit() but not int()
    ("x^\u00b3", 2, "unexpected character '\u00b3'"),
    (_LONG + "x", 0, f"integer literal exceeds the {MAX_LITERAL_DIGITS}-digit cap"),
    ("x + 3/" + _LONG, 6, f"integer literal exceeds the {MAX_LITERAL_DIGITS}-digit cap"),
    ("", 0, "empty expression"),
    ("   ", 0, "empty expression"),
    ("x x", 2, "expected '+' or '-', got 'x'"),
    ("2 x^2 3", 6, "expected '+' or '-', got '3'"),
    ("2x^2x", 4, "expected '+' or '-', got 'x'"),
    ("x +", 3, "expected a term"),
    ("x^2 +", 5, "expected a term"),
    ("* x", 0, "expected a term, got '*'"),
    ("x + ^2", 4, "expected a term, got '^'"),
    ("1/", 2, "unexpected end of expression"),
    ("2*", 2, "unexpected end of expression"),
    ("3/ x", 3, "expected a positive integer denominator"),
    ("1/-2", 2, "expected a positive integer denominator"),
    ("1/0", 2, "division by zero in rational literal"),
    ("2**x", 2, "expected 'x', got '*'"),
    ("2*3", 2, "expected 'x', got '3'"),
    ("x^", 2, "expected an exponent"),
    ("x^-2", 2, "exponent must be a nonnegative integer"),
    ("x^x", 2, "exponent must be a nonnegative integer"),
    ("x^^2", 2, "exponent must be a nonnegative integer"),
    ("x^2/4", 3, "exponent must be an integer"),
    ("x^4097", 2, f"exponent exceeds the degree cap {MAX_DEGREE}"),
    ("1 + x^" + "9" * 5000, 6, f"exponent exceeds the degree cap {MAX_DEGREE}"),
]
RATIONAL_ERRORS = [
    ("1.5", 1, "unexpected character '.'"),
    ("1e5000", 1, "unexpected character 'e'"),
    ("\u00b2", 0, "unexpected character '\u00b2'"),
    (_LONG, 0, f"integer literal exceeds the {MAX_LITERAL_DIGITS}-digit cap"),
    ("1/" + _LONG, 2, f"integer literal exceeds the {MAX_LITERAL_DIGITS}-digit cap"),
    ("", 0, "unexpected end of expression"),
    ("-", 1, "unexpected end of expression"),
    ("+", 1, "unexpected end of expression"),
    ("1/", 2, "unexpected end of expression"),
    ("x", 0, "expected an integer, got 'x'"),
    ("--1", 1, "expected an integer, got '-'"),
    ("1/x", 2, "expected a positive integer denominator"),
    ("1/-2", 2, "expected a positive integer denominator"),
    ("1/0", 2, "division by zero in rational literal"),
    ("1 2", 2, "expected the end of the rational, got '2'"),
    ("1/2x", 3, "expected the end of the rational, got 'x'"),
]


def error_rows(rows):
    """pytest params of (text, offset, message) rows, each with its text as
    its id, cut short past 20 characters."""
    return [
        pytest.param(*row, id=row[0] if len(row[0]) <= 20 else f"{row[0][:12]}...")
        for row in rows
    ]


def assert_rejects(reader, text, offset, message):
    with pytest.raises(ParseError) as info:
        reader(text)
    assert info.value.offset == offset
    assert str(info.value) == f"syntax error at offset {offset}: {message}"


@pytest.mark.parametrize("text,offset,message", error_rows(PARSE_ERRORS))
def test_rejects(text, offset, message):
    assert_rejects(parse, text, offset, message)


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
    assert parse(top + "x^2")[2] == 10**MAX_LITERAL_DIGITS - 1
    assert parse("1/" + top)[0] == F(1, 10**MAX_LITERAL_DIGITS - 1)


def test_literal_under_a_lowered_digit_limit():
    # Literals within the cap parse at any int-to-str limit, as the cap's
    # comment in poly.py promises.
    nines = "9" * 1000
    with digit_limit(640):
        p = parse(nines + "*x^2 + x")
        c = parse_rational("-1/" + nines)
    assert p == Polynomial([0, 1, 10**1000 - 1])
    assert c == F(-1, 10**1000 - 1)


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

    @pytest.mark.parametrize("text,offset,message", error_rows(RATIONAL_ERRORS))
    def test_rejects(self, text, offset, message):
        assert_rejects(parse_rational, text, offset, message)

    def test_literal_cap(self):
        big = "9" * MAX_LITERAL_DIGITS
        assert parse_rational(f"-1/{big}") == F(-1, 10**MAX_LITERAL_DIGITS - 1)
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
    """int(text) for a digit string of any length, in chunks of 500 digits,
    under any int-to-str limit the interpreter accepts (the least is 640)."""
    sign, text = (-1, text[1:]) if text.startswith("-") else (1, text)
    n = 0
    for i in range(0, len(text), 500):
        chunk = text[i:i + 500]
        n = n * 10 ** len(chunk) + int(chunk)
    return sign * n


class TestExactText:
    def test_matches_str_below_the_limit(self):
        rng = random.Random(7)
        for bits in (1, 60, 4000, 14000, 14200):
            for _ in range(20):
                c = F(rng.choice((-1, 1)) * rng.getrandbits(bits), rng.getrandbits(bits) + 1)
                with digit_limit(4300):  # CPython's default, wherever this runs
                    expected = str(c)
                assert format_rational(c) == expected
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
        text = format_poly(parse("9" * 3000 + "x").compose(parse("9" * 3000 + "x^2")))
        # (10^3000 - 1)^2 = 10^6000 - 2 * 10^3000 + 1
        assert text == "9" * 2999 + "8" + "0" * 2999 + "1*x^2"
        assert read_digits(text[:-4]) == nines * nines
        assert format_coeffs(parse("9" * 3000 + "x^2") * nines) == ["0", "0", text[:-4]]
