"""Parser, printer, and the JSON wire form.

The load-bearing invariant is that format_poly output always parses back
to the same polynomial. That gets a large seeded sweep plus a hypothesis
version; the rest is grammar corner cases.
"""

import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from polydecomp.parsing import ParseError, format_poly, parse, poly_from_json, poly_to_json
from polydecomp.poly import MAX_DEGREE, Polynomial


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


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as info:
        parse("x^2 + $")
    assert info.value.offset == 6
    assert isinstance(info.value, ValueError)


class TestJson:
    def test_roundtrip(self):
        q = parse("1/2 x^3 - 2x + 5")
        assert poly_from_json(poly_to_json(q)) == q

    def test_shape(self):
        assert poly_to_json(parse("x^2 - 1/3")) == {"coeffs": ["-1/3", "0", "1"]}
        assert poly_to_json(Polynomial()) == {"coeffs": []}

    def test_accepts_plain_integers(self):
        assert poly_from_json({"coeffs": [1, "2/3"]}) == Polynomial([F(1), F(2, 3)])

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            {"coeffs": "1,2"},
            {"coeffs": [True]},
            {"coeffs": [None]},
            {"coeffs": [1.5]},
            [1, 2],
        ],
    )
    def test_rejects_bad_json(self, obj):
        with pytest.raises(ValueError):
            poly_from_json(obj)

    @given(st.lists(st.fractions(max_denominator=40), max_size=8).map(Polynomial))
    def test_roundtrip_property(self, q):
        assert poly_from_json(poly_to_json(q)) == q
