"""Text forms for polynomials and rationals.

Grammar (whitespace insignificant)::

    expr     := ["+"|"-"] term (("+"|"-") term)*
    term     := rational "*"? xpart | rational | xpart
    xpart    := "x" ("^" nonneg-integer)?
    rational := integer ("/" positive-integer)?

Exponents above ``poly.MAX_DEGREE`` are rejected before any coefficient
list is built, and integer literals longer than ``poly.MAX_LITERAL_DIGITS``
digits before they are converted.  `parse_rational` reads a signed
``rational`` under the same literal cap.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import MAX_DEGREE, MAX_LITERAL_DIGITS, Polynomial, _int_text


class ParseError(ValueError):
    """Syntax error in a polynomial expression, with a byte offset."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


_INT = "int"
_X = "x"
_OP = "op"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
    return tokens


def _literal(digits: str, offset: int) -> int:
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError(
            offset, f"integer literal exceeds the {MAX_LITERAL_DIGITS}-digit cap"
        )
    return int(digits)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError(len(self.text), "unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        if not self.tokens:
            raise ParseError(0, "empty expression")
        buckets: dict[int, Fraction] = {}
        sign = 1
        tok = self.peek()
        if tok and tok[0] == _OP and tok[1] in "+-":
            self.take()
            sign = -1 if tok[1] == "-" else 1
        while True:
            exp, coef = self._term()
            buckets[exp] = buckets.get(exp, Fraction(0)) + sign * coef
            tok = self.peek()
            if tok is None:
                break
            if tok[0] == _OP and tok[1] in "+-":
                self.take()
                sign = -1 if tok[1] == "-" else 1
                continue
            raise ParseError(tok[2], f"expected '+' or '-', got {tok[1]!r}")
        if not buckets:
            return Polynomial()
        top = max(buckets)
        return Polynomial([buckets.get(i, Fraction(0)) for i in range(top + 1)])

    def _term(self) -> tuple[int, Fraction]:
        tok = self.peek()
        if tok is None:
            raise ParseError(len(self.text), "expected a term")
        if tok[0] == _INT:
            coef = self._rational()
            nxt = self.peek()
            if nxt and nxt[0] == _OP and nxt[1] == "*":
                self.take()
                return self._xpart(), coef
            if nxt and nxt[0] == _X:
                return self._xpart(), coef
            return 0, coef
        if tok[0] == _X:
            return self._xpart(), Fraction(1)
        raise ParseError(tok[2], f"expected a term, got {tok[1]!r}")

    def _rational(self) -> Fraction:
        kind, value, offset = self.take()
        if kind != _INT:
            raise ParseError(offset, f"expected an integer, got {value!r}")
        num = _literal(value, offset)
        tok = self.peek()
        if tok and tok[0] == _OP and tok[1] == "/":
            self.take()
            dkind, dvalue, doffset = self.take()
            if dkind != _INT:
                raise ParseError(doffset, "expected a positive integer denominator")
            den = _literal(dvalue, doffset)
            if den == 0:
                raise ParseError(doffset, "division by zero in rational literal")
            return Fraction(num, den)
        return Fraction(num)

    def _xpart(self) -> int:
        kind, value, offset = self.take()
        if kind != _X:
            raise ParseError(offset, f"expected 'x', got {value!r}")
        tok = self.peek()
        if tok and tok[0] == _OP and tok[1] == "^":
            self.take()
            etok = self.peek()
            if etok is None:
                raise ParseError(len(self.text), "expected an exponent")
            if etok[0] == _OP and etok[1] == "-":
                raise ParseError(etok[2], "exponent must be a nonnegative integer")
            ekind, evalue, eoffset = self.take()
            if ekind != _INT:
                raise ParseError(eoffset, "exponent must be a nonnegative integer")
            nxt = self.peek()
            if nxt and nxt[0] == _OP and nxt[1] == "/":
                raise ParseError(nxt[2], "exponent must be an integer")
            digits = evalue.lstrip("0") or "0"
            if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                raise ParseError(
                    eoffset, f"exponent exceeds the degree cap {MAX_DEGREE}"
                )
            return int(digits)
        return 1


def parse(text: str) -> Polynomial:
    """Parse a polynomial expression; raises ParseError with a byte offset."""
    return _Parser(text).parse()


def parse_rational(text: str) -> Fraction:
    """Parse ``["+"|"-"] rational``; raises ParseError with a byte offset."""
    ps = _Parser(text)
    tok = ps.peek()
    sign = 1
    if tok and tok[0] == _OP and tok[1] in "+-":
        ps.take()
        sign = -1 if tok[1] == "-" else 1
    value = sign * ps._rational()
    tok = ps.peek()
    if tok is not None:
        raise ParseError(tok[2], f"expected the end of the rational, got {tok[1]!r}")
    return value


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
