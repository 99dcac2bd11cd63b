"""Text forms for polynomials and rationals.

Grammar (whitespace insignificant)::

    expr     := ["+"|"-"] term (("+"|"-") term)*
    term     := rational "*"? xpart | rational | xpart
    xpart    := "x" ("^" nonneg-integer)?
    rational := integer ("/" positive-integer)?

Exponents above ``poly.MAX_DEGREE`` are rejected before any coefficient
list is built, and integer literals longer than ``poly.MAX_LITERAL_DIGITS``
digits before they are converted; shorter ones are read at any int-to-str
limit.  `parse_rational` reads a signed ``rational`` under the same cap.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import MAX_DEGREE, MAX_LITERAL_DIGITS, Polynomial, _int_text, _text_int


class ParseError(ValueError):
    """Syntax error in a polynomial expression, with a byte offset."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


_INT = "int"
_X = "x"
_OP = "op"
_END = "end"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of text, then an end marker at offset len(text)."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append((_INT, text[i:j], i))
            i = j
            continue
        if ch == "x":
            tokens.append((_X, ch, i))
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append((_OP, ch, i))
            i += 1
            continue
        raise ParseError(i, f"unexpected character {ch!r}")
    tokens.append((_END, "", n))
    return tokens


def _unexpected(tok: tuple[str, str, int], message: str) -> ParseError:
    """The error for a token that is not the one wanted: `message`, or the
    end of the expression when tok is the end marker."""
    if tok[0] == _END:
        return ParseError(tok[2], "unexpected end of expression")
    return ParseError(tok[2], message)


def _literal(digits: str, offset: int) -> int:
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError(
            offset, f"integer literal exceeds the {MAX_LITERAL_DIGITS}-digit cap"
        )
    return _text_int(digits)


def _rational(tokens: list[tuple[str, str, int]], i: int) -> tuple[int, int, int]:
    """Read ``rational`` at tokens[i]: (numerator, denominator, next index)."""
    kind, value, offset = tokens[i]
    if kind != _INT:
        raise _unexpected(tokens[i], f"expected an integer, got {value!r}")
    num = _literal(value, offset)
    if tokens[i + 1][1] != "/":
        return num, 1, i + 1
    kind, value, offset = tokens[i + 2]
    if kind != _INT:
        raise _unexpected(tokens[i + 2], "expected a positive integer denominator")
    den = _literal(value, offset)
    if den == 0:
        raise ParseError(offset, "division by zero in rational literal")
    return num, den, i + 3


def _sign(tokens: list[tuple[str, str, int]], i: int) -> tuple[bool, int]:
    """Read an optional "+" or "-" at tokens[i]: (negative, next index)."""
    op = tokens[i][1]
    if op == "-":
        return True, i + 1
    return False, i + 1 if op == "+" else i


def parse(text: str) -> Polynomial:
    """Parse a polynomial expression; raises ParseError with a byte offset."""
    tokens = _tokenize(text)
    if tokens[0][0] == _END:
        raise ParseError(0, "empty expression")
    terms: dict[int, tuple[int, int]] = {}  # exponent -> (num, den)
    neg, i = _sign(tokens, 0)
    while True:
        kind, value, offset = tokens[i]
        if kind == _INT:
            num, den, i = _rational(tokens, i)
            kind, value, offset = tokens[i]
            if value == "*":
                i += 1
                kind, value, offset = tokens[i]
                if kind != _X:
                    raise _unexpected(tokens[i], f"expected 'x', got {value!r}")
        elif kind == _X:
            num = den = 1
        elif kind == _END:
            raise ParseError(offset, "expected a term")
        else:
            raise ParseError(offset, f"expected a term, got {value!r}")
        exp = 0  # an xpart follows when tokens[i] is x
        if kind == _X:
            exp = 1
            i += 1
            if tokens[i][1] == "^":
                kind, value, offset = tokens[i + 1]
                if kind == _END:
                    raise ParseError(offset, "expected an exponent")
                if kind != _INT:
                    raise ParseError(offset, "exponent must be a nonnegative integer")
                i += 2
                if tokens[i][1] == "/":
                    raise ParseError(tokens[i][2], "exponent must be an integer")
                digits = value.lstrip("0") or "0"
                if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                    raise ParseError(
                        offset, f"exponent exceeds the degree cap {MAX_DEGREE}"
                    )
                exp = int(digits)
        if neg:
            num = -num
        if exp in terms:
            a, b = terms[exp]
            lcm = b // math.gcd(b, den) * den
            num, den = a * (lcm // b) + num * (lcm // den), lcm
        terms[exp] = num, den
        kind, value, offset = tokens[i]
        if kind == _END:
            break
        if value != "+" and value != "-":
            raise ParseError(offset, f"expected '+' or '-', got {value!r}")
        neg, i = value == "-", i + 1
    den = math.lcm(*[b for _, b in terms.values()])
    num = [0] * (max(terms) + 1)
    for exp, (a, b) in terms.items():
        num[exp] = a * (den // b)
    return Polynomial.from_ints(num, den)


def parse_rational(text: str) -> Fraction:
    """Parse ``["+"|"-"] rational``; raises ParseError with a byte offset."""
    tokens = _tokenize(text)
    neg, i = _sign(tokens, 0)
    num, den, i = _rational(tokens, i)
    kind, value, offset = tokens[i]
    if kind != _END:
        raise ParseError(offset, f"expected the end of the rational, got {value!r}")
    return Fraction(-num if neg else num, den)


def _rational_text(n: int, d: int) -> str:
    """The text of n / d for d > 0, as str(Fraction(n, d))."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    return _int_text(n) if d == 1 else f"{_int_text(n)}/{_int_text(d)}"


def format_rational(c: Fraction) -> str:
    """Exact decimal text of c at any size, equal to str(c).

    A numerator or denominator past the interpreter's int-to-str digit
    limit is written in halves split by a power of ten; the limit is never
    raised.
    """
    return _rational_text(c.numerator, c.denominator)


def format_poly(p: Polynomial) -> str:
    """Deterministic text form, descending powers.  It round-trips through
    parse while every coefficient's numerator and denominator stay within
    MAX_LITERAL_DIGITS digits; longer ones are printed exactly but do not
    parse back."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for exp in range(len(p.num) - 1, -1, -1):
        n = p.num[exp]
        if n == 0:
            continue
        body = _rational_text(abs(n), p.den)
        if exp:
            xp = "x" if exp == 1 else f"x^{exp}"
            body = xp if body == "1" else f"{body}*{xp}"
        if not parts:
            parts.append(body if n > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if n > 0 else f" - {body}")
    return "".join(parts)


def format_coeffs(p: Polynomial) -> list[str]:
    """The coefficients of p, ascending, as `format_rational` writes them."""
    return [_rational_text(n, p.den) for n in p.num]
