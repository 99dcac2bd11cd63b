"""Text and JSON forms for polynomials.

Grammar (whitespace insignificant)::

    expr     := ["+"|"-"] term (("+"|"-") term)*
    term     := rational "*"? xpart | rational | xpart
    xpart    := "x" ("^" nonneg-integer)?
    rational := integer ("/" positive-integer)?

Exponents above ``poly.MAX_DEGREE`` are rejected before any coefficient
list is built, and integer literals longer than ``poly.MAX_LITERAL_DIGITS``
digits before they are converted.

The JSON form is ``{"coeffs": ["num/den", ...]}``, ascending by exponent,
each entry a rational in lowest terms ("/1" omitted).  Reading it accepts
ints and strings ``[-]digits[/digits]`` only, under the same degree and
literal caps as the parser.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import MAX_DEGREE, MAX_LITERAL_DIGITS, Polynomial


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


def _int_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past the interpreter's int-to-str digit limit
        pass
    if n < 0:
        return "-" + _int_text(-n)
    k = int(n.bit_length() * 0.30103) // 2  # about half of n's digits
    hi, lo = divmod(n, 10**k)
    return _int_text(hi) + _int_text(lo).zfill(k)


def format_rational(c: Fraction) -> str:
    """Exact decimal text of c at any size, equal to str(c).

    A numerator or denominator past the interpreter's int-to-str digit
    limit is written in halves split by a power of ten; the limit is never
    raised.
    """
    try:
        return str(c)
    except ValueError:
        pass
    if c.denominator == 1:
        return _int_text(c.numerator)
    return f"{_int_text(c.numerator)}/{_int_text(c.denominator)}"


def format_poly(p: Polynomial) -> str:
    """Deterministic text form, descending powers.  It round-trips through
    parse while every coefficient's numerator and denominator stay within
    MAX_LITERAL_DIGITS digits; longer ones are printed exactly but do not
    parse back."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for exp in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[exp]
        if c == 0:
            continue
        mag = abs(c)
        if exp == 0:
            body = format_rational(mag)
        else:
            xp = "x" if exp == 1 else f"x^{exp}"
            body = xp if mag == 1 else f"{format_rational(mag)}*{xp}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def poly_to_json(p: Polynomial) -> dict:
    return {"coeffs": [format_rational(c) for c in p.coeffs]}


_JSON_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_INT_BOUND = 10**MAX_LITERAL_DIGITS


def _json_coefficient(i: int, entry: object) -> Fraction:
    """Entry i of a JSON coefficient list, its digit runs checked against
    the literal cap before any is converted."""
    m = _JSON_RATIONAL.fullmatch(entry) if isinstance(entry, str) else None
    if m is not None:
        num, den = m.groups()
        too_long = len(num.lstrip("-")) > MAX_LITERAL_DIGITS or (
            den is not None and len(den) > MAX_LITERAL_DIGITS
        )
    elif isinstance(entry, int) and not isinstance(entry, bool):
        num, den = entry, None
        too_long = not -_INT_BOUND < entry < _INT_BOUND
    else:
        raise ValueError(f"bad coefficient entry: {entry!r}")
    if too_long:
        raise ValueError(
            f"coefficient entry {i} exceeds the {MAX_LITERAL_DIGITS}-digit cap"
        )
    den = 1 if den is None else int(den)
    if den == 0:
        raise ValueError(f"coefficient entry {i} ({entry!r}) has a zero denominator")
    return Fraction(int(num), den)


def poly_from_json(obj: object) -> Polynomial:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ValueError("polynomial JSON must be an object with a 'coeffs' list")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise ValueError("'coeffs' must be a list of rational strings")
    if len(coeffs) > MAX_DEGREE + 1:
        raise ValueError(f"'coeffs' exceeds the degree cap {MAX_DEGREE}")
    return Polynomial([_json_coefficient(i, c) for i, c in enumerate(coeffs)])
