"""Exact dense polynomial arithmetic over the rationals.

Everything in this package works with `Polynomial` (a dense tuple of
integer numerators, ascending exponents, over one positive denominator,
in lowest terms) and `Unit` (a degree-1 polynomial, the invertible
elements under composition).  Products and compositions convolve the
numerators directly.  All operations are pure; both classes are frozen
and hashable.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

# The largest degree the parser and `chebyshev` build.  A dense polynomial
# of degree n holds n + 1 coefficients, so an unchecked exponent such as
# x^1000000000 is an unbounded allocation.
MAX_DEGREE = 4096

# The longest integer literal the parser reads, in decimal digits.  It is
# CPython's default limit on converting a string to an int (since 3.10.7 and
# 3.11), so a longer literal is a ParseError on every supported version, not
# a plain ValueError on some and a silent parse on others.  A literal within
# the cap is read by `_text_int`, so it parses under a lower limit too.
MAX_LITERAL_DIGITS = 4300

# Below these sizes plain convolution beats the big-int packing path.
_PACKED_MUL_MIN_TERMS = 2
_PACKED_MUL_MIN_AREA = 512
# From this size, (la + lb) * bits(bound), libmpdec's number-theoretic
# multiply beats CPython's Karatsuba on the packed operands (ROADMAP item 2
# has the measurement).
_DECIMAL_MUL_MIN_SIZE = 300_000

# Decimal arithmetic on integers that is exact or raises: any rounding,
# however small, is an error rather than a wrong digit.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[
        decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow
    ],
)


class PostconditionError(ValueError):
    """A computed result failed the exact check that guards it.  Raised
    instead of an assert so the check also runs under python -O."""


def _ratio(v: Scalar) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
        return v.as_integer_ratio()
    raise TypeError(f"scalar must be int or Fraction, got {type(v).__name__}")


def _frac(v: Scalar) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(*_ratio(v))


def _int_text(n: int) -> str:
    """str(n) at any size.  Past the interpreter's int-to-str digit limit
    n is written in halves split by a power of ten; the limit is never
    raised."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _int_text(-n)
    k = int(n.bit_length() * 0.30103) // 2  # about half of n's digits
    hi, lo = divmod(n, 10**k)
    return _int_text(hi) + _int_text(lo).zfill(k)


def _text_int(s: str) -> int:
    """int(s) for a string of decimal digits at any length, the inverse of
    `_int_text` on nonnegative values, split in halves past the limit."""
    try:
        return int(s)
    except ValueError:
        if len(s) < 2:
            raise
    k = len(s) // 2
    return _text_int(s[:-k]) * 10**k + _text_int(s[-k:])


def _unpack_nonneg(n: int, nbytes: int, count: int) -> list[int]:
    raw = n.to_bytes(nbytes * count, "little")
    return [
        int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "little")
        for i in range(count)
    ]


def _conv_bound(a: Sequence[int], b: Sequence[int]) -> int:
    """min(la, lb) * max|a| * max|b|, with a zero operand's max taken as 1:
    no coefficient of a, of b or of their convolution exceeds it in
    absolute value."""
    return min(len(a), len(b)) * (max(map(abs, a)) or 1) * (max(map(abs, b)) or 1)


def _int_mul_packed(a: Sequence[int], b: Sequence[int], bound: int) -> list[int]:
    """Multiply integer coefficient sequences via Kronecker substitution.

    Signed coefficients are packed directly; the product's digits are
    recovered in balanced form by adding an offset that shifts every digit
    into [0, 2^width) before the byte-level unpack.  One big-int product
    total, exact for any signs while ``bound`` is `_conv_bound(a, b)` or
    more.
    """
    out_len = len(a) + len(b) - 1
    nbytes = bound.bit_length() // 8 + 1
    pa = _pack_signed(a, nbytes)
    prod = pa * (pa if b is a else _pack_signed(b, nbytes))
    half = 1 << (8 * nbytes - 1)
    offset_piece = half.to_bytes(nbytes, "little")
    offset = int.from_bytes(offset_piece * out_len, "little")
    digits = _unpack_nonneg(prod + offset, nbytes, out_len)
    return [d - half for d in digits]


def _pack_signed(cs: Sequence[int], nbytes: int) -> int:
    """Evaluate the signed sequence at 2^(8*nbytes), exactly.

    Each digit is stored biased by 2^(8*nbytes - 1) so the byte encoding
    is nonnegative, then the accumulated bias is subtracted once.
    """
    half = 1 << (8 * nbytes - 1)
    blob = b"".join((c + half).to_bytes(nbytes, "little") for c in cs)
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * len(cs), "little")
    return int.from_bytes(blob, "little") - bias


def _int_mul_decimal(a: Sequence[int], b: Sequence[int], bound: int) -> list[int]:
    """`_int_mul_packed` in base 10^w, with the one product done by libmpdec.

    Each coefficient is biased by half = 10^w / 2 into one w-digit slot of
    decimal text, the texts are joined into one `Decimal` and the repeated
    bias is subtracted.  The product is exact in `_EXACT`; adding the bias
    back leaves the balanced slots as w-digit slices of its text.  Text is
    converted in chunks past the interpreter's digit limit.
    """
    out_len = len(a) + len(b) - 1
    w = len(_int_text(2 * bound))  # 10^w > 2 * bound, so every slot fits
    half = 5 * 10 ** (w - 1)
    one = decimal.Decimal(half)

    biases: dict[int, decimal.Decimal] = {}

    def bias(count: int) -> decimal.Decimal:
        """half in each of count slots, built from the top bit of count by
        exact doubling (b . b) and appending (b . half), never parsed."""
        if count not in biases:
            b, k = one, 1
            for bit in bin(count)[3:]:
                b = _EXACT.add(_EXACT.scaleb(b, w * k), b)
                k *= 2
                if bit == "1":
                    b = _EXACT.add(_EXACT.scaleb(b, w), one)
                    k += 1
            biases[count] = b
        return biases[count]

    def pack(cs: Sequence[int]) -> decimal.Decimal:
        text = "".join([_int_text(c + half).zfill(w) for c in reversed(cs)])
        return _EXACT.subtract(decimal.Decimal(text), bias(len(cs)))

    pa = pack(a)
    pb = pa if b is a else pack(b)
    prod = _EXACT.add(_EXACT.multiply(pa, pb), bias(out_len))
    text = str(prod).zfill(w * out_len)
    return [_text_int(text[i - w:i]) - half for i in range(w * out_len, 0, -w)]


def _int_conv(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Convolution of integer sequences in three size tiers: schoolbook,
    then one packed big-int product, then one packed libmpdec product."""
    la, lb = len(a), len(b)
    if min(la, lb) >= _PACKED_MUL_MIN_TERMS and la * lb >= _PACKED_MUL_MIN_AREA:
        bound = _conv_bound(a, b)
        if (la + lb) * bound.bit_length() >= _DECIMAL_MUL_MIN_SIZE:
            return _int_mul_decimal(a, b, bound)
        return _int_mul_packed(a, b, bound)
    out = [0] * (la + lb - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def _int_power(pows: dict[int, Sequence[int]], e: int) -> Sequence[int]:
    """h^e for the table pows, whose entry 1 is h.  A missing power is made
    once and kept: by squaring h^(e/2) where e is even, else as
    h^(e//2) * h^(e//2 + 1)."""
    if e not in pows:
        low = _int_power(pows, e // 2)
        pows[e] = _int_conv(low, low if e % 2 == 0 else _int_power(pows, e - e // 2))
    return pows[e]


def _int_block(cs: Sequence[int], pows: dict[int, Sequence[int]]) -> list[int]:
    """sum cs[j] * h^j as a scalar combination of the kept powers of h: a
    plain integer loop, with no product of two polynomials."""
    out = [cs[0]] + [0] * ((len(cs) - 1) * (len(pows[1]) - 1))
    for j in range(1, len(cs)):
        c = cs[j]
        if c:
            for i, v in enumerate(_int_power(pows, j)):
                out[i] += c * v
    return out


def _int_compose(cs: Sequence[int], pows: dict[int, Sequence[int]]) -> list[int]:
    """sum cs[i] * h^i for integer sequences, with pows[1] = h, split as in
    `Polynomial.compose`; [] when every cs[i] is 0.  Every power of h it
    needs goes into pows, which all the leaves of the split share."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    if not n:
        return []
    h = pows[1]
    if n <= 2 or ((n - 2) * (len(h) - 1) + 1) * len(h) < _PACKED_MUL_MIN_AREA:
        acc = [cs[n - 1]]
        for k in range(n - 2, -1, -1):
            acc = _int_conv(acc, h)
            acc[0] += cs[k]
        return acc
    if n <= 8:
        m = (n + 1) // 2
        lo, hi = _int_block(cs[:m], pows), _int_block(cs[m:n], pows)
    else:
        m = 1 << ((n - 1).bit_length() - 1)
        lo, hi = _int_compose(cs[:m], pows), _int_compose(cs[m:n], pows)
    out = _int_conv(_int_power(pows, m), hi)
    for i, c in enumerate(lo):
        out[i] += c
    return out


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with exact rational coefficients, stored as integer
    numerators over one denominator, as FLINT's fmpq_poly does.

    ``num[i] / den`` is the coefficient of x^i.  The pair is kept in lowest
    terms: den > 0, gcd(den, *num) == 1 and no trailing zeros, so the zero
    polynomial is ``((), 1)``.  That form is unique, so equality and the
    hash compare integers.  It is the only stored form: ``p[i]`` gives one
    coefficient as a ``Fraction``.
    """

    num: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        coeffs = list(coeffs)
        if all(type(c) is int for c in coeffs):
            self._store(coeffs, 1)
            return
        pairs = [_ratio(c) for c in coeffs]
        den = math.lcm(*[d for _, d in pairs])
        self._store([n * (den // d) for n, d in pairs], den)

    def _store(self, num: list[int], den: int) -> None:
        while num and num[-1] == 0:
            num.pop()
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [c // g for c in num]
            den //= g
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_ints(cls, num: Iterable[int], den: int) -> "Polynomial":
        """The polynomial with coefficients num[i] / den, for any nonzero den;
        the pair is brought to lowest terms."""
        if den == 0:
            raise ZeroDivisionError("polynomial denominator is zero")
        p = object.__new__(cls)
        p._store(list(num), den)
        return p

    @staticmethod
    def const(v: Scalar) -> "Polynomial":
        return Polynomial((v,))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1))

    @staticmethod
    def monomial(degree: int, coeff: Scalar = 1) -> "Polynomial":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return Polynomial((0,) * degree + (coeff,))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int:
        """Degree of a nonzero polynomial.  The zero polynomial has none."""
        if not self.num:
            raise ValueError("the zero polynomial has no degree")
        return len(self.num) - 1

    @property
    def lead(self) -> Fraction:
        if not self.num:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    @property
    def is_constant(self) -> bool:
        return len(self.num) <= 1

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.num):
            return Fraction(self.num[i], self.den)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __repr__(self) -> str:
        from .parsing import format_poly

        return f"Polynomial({format_poly(self)!r})"

    def __str__(self) -> str:
        from .parsing import format_poly

        return format_poly(self)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.const(other)
        den = math.lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.num]
        b = [c * (den // other.den) for c in other.num]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return Polynomial.from_ints(a, den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_ints([-c for c in self.num], self.den)

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.const(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return Polynomial.const(other) - self

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if not isinstance(other, Polynomial):
            n, d = _ratio(other)
            return Polynomial.from_ints([x * n for x in self.num], self.den * d)
        if not self.num or not other.num:
            return Polynomial()
        prod = _int_conv(self.num, other.num)
        return Polynomial.from_ints(prod, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Polynomial.const(1)
        return Polynomial.from_ints(_int_power({1: self.num}, n), self.den**n)

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact euclidean division: self = q*other + r with deg r < deg other."""
        if not isinstance(other, Polynomial):
            raise TypeError("divmod expects a Polynomial divisor")
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero or len(self.num) < len(other.num):
            return Polynomial(), self
        # Pseudo-division over Z: lead^k * A = Q * B + R, every step exact.
        b = other.num
        dn = len(b) - 1
        k = len(self.num) - dn
        scale = b[-1] ** k
        rem = [c * scale for c in self.num]
        q = [0] * k
        for i in range(k - 1, -1, -1):
            c = q[i] = rem[i + dn] // b[-1]
            if c:
                for j in range(dn):
                    if b[j]:
                        rem[i + j] -= c * b[j]
        den = self.den * scale
        return (
            Polynomial.from_ints([c * other.den for c in q], den),
            Polynomial.from_ints(rem[:dn], den),
        )

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    # -- evaluation and composition -----------------------------------

    def __call__(self, t: Scalar) -> Fraction:
        """Exact Horner evaluation at a rational point tn/td, on the
        numerators: sum num[i] * tn^i * td^(n-i) over den * td^n."""
        tn, td = _ratio(t)
        acc, scale = 0, 1
        for c in reversed(self.num):
            acc = acc * tn + c * scale
            scale *= td
        return Fraction(acc * td, self.den * scale)  # scale is td^(n+1)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Substitution self(inner(x)), by baby and giant steps on the numerators.

        With n = deg(self), h = inner.num and the outer numerators scaled
        once to c[k] = num[k] * inner.den^(n-k), the result is sum c[k] * h^k
        over self.den * inner.den^n.  Up to eight terms the sum is cut into
        two blocks at m = ceil((n + 1) / 2), as in Paterson and Stockmeyer's
        scheme (SIAM J. Comput. 2, 1973):

            c(h) = c_lo(h) + h^m * c_hi(h),  c_lo = c[:m], c_hi = c[m:].

        Each block is a scalar combination of the baby steps h, ..., h^(m-1),
        a plain integer loop, and h^m is the giant step.  That is m big
        products, h^2 .. h^m and h^m * c_hi(h), where Horner's rule makes
        n - 1: 4 against 6 for eight terms, 3 against 4 for six.  A longer
        sum is split the same way at the power of two m < n + 1 <= 2m, with
        both halves split again down to blocks of at most four terms.  Its
        products are balanced, h^m against c_hi(h), which is no longer, and
        the fast tiers of `_int_conv` (Karatsuba on one packed int, then
        libmpdec's number-theoretic multiply) gain most on balanced
        operands.  Every power of h is made once, by squaring where its
        exponent is even, and kept for all the leaves, so h^2, h^3 and h^4
        serve every block.  Horner's rule stays where all of its products
        stay below the packed tier: each then multiplies by the few small
        coefficients of h, which costs less than the blocks' larger ones.
        """
        if self.is_constant:
            return self
        if inner.is_constant:
            return Polynomial.const(self(inner[0]))
        cs, dh = self.num, inner.den
        scale = 1
        if dh != 1:
            cs = list(cs)
            for k in range(len(cs) - 2, -1, -1):
                scale *= dh
                cs[k] *= scale
        return Polynomial.from_ints(_int_compose(cs, {1: inner.num}), self.den * scale)

    def derivative(self) -> "Polynomial":
        num = [i * c for i, c in enumerate(self.num)]
        return Polynomial.from_ints(num[1:], self.den)

    def shift_arg(self, lam: Scalar) -> "Polynomial":
        """self(x + lam)."""
        lam = _frac(lam)
        if lam == 0:
            return self
        return self.compose(Polynomial((lam, 1)))

    def scale_arg(self, mu: Scalar) -> "Polynomial":
        """self(mu * x): with mu = mn/md, num[i] becomes
        num[i] * mn^i * md^(n-i) over den * md^n."""
        if self.is_constant:
            return self
        mn, md = _ratio(mu)
        n = len(self.num) - 1
        return Polynomial.from_ints(
            [c * mn**i * md ** (n - i) for i, c in enumerate(self.num)],
            self.den * md**n,
        )

    # -- support helpers ----------------------------------------------

    def even_odd_split(self) -> tuple["Polynomial", "Polynomial"]:
        """Return (even part, odd part); the two sum back to self."""
        ev = [0 if i % 2 else c for i, c in enumerate(self.num)]
        od = [c if i % 2 else 0 for i, c in enumerate(self.num)]
        return Polynomial.from_ints(ev, self.den), Polynomial.from_ints(od, self.den)

    @property
    def is_odd_function(self) -> bool:
        return not any(self.num[::2])

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.num) if c)

    def x_valuation(self) -> int:
        """Multiplicity of the root 0 (degree of the first nonzero term)."""
        for i, c in enumerate(self.num):
            if c:
                return i
        raise ValueError("the zero polynomial has no x-valuation")

    def inflate(self, k: int, s: int) -> "Polynomial":
        """x^s * self(x^k): coefficient j goes to exponent s + k*j, the
        inverse of slicing ``num[s::k]``."""
        if k < 1 or s < 0:
            raise ValueError("inflate needs k >= 1 and s >= 0")
        out = [0] * (s + k * (len(self.num) - 1) + 1)
        out[s::k] = self.num
        return Polynomial.from_ints(out, self.den)

    def deflate(self, k: int) -> "tuple[int, Polynomial] | None":
        """The inverse of ``inflate``: (s, g) with self = x^s * g(x^k) and
        g(0) != 0, or None when the support leaves the class s + kZ."""
        if k < 1:
            raise ValueError("deflate needs k >= 1")
        s = self.x_valuation()
        if any(c and (i - s) % k for i, c in enumerate(self.num)):
            return None
        return s, Polynomial.from_ints(self.num[s::k], self.den)

    def forced_center(self) -> Fraction:
        """The only shift lam for which self(x + lam) has no x^(n-1) term."""
        n = self.degree
        return Fraction(-self.num[n - 1], n * self.num[n])

    def canonical_core(self) -> tuple["Unit", "Polynomial"]:
        """Write self = u (after) core with core monic and core(0) = 0.

        The unit u absorbs the leading coefficient and the constant term;
        this is the normal form used for right factors everywhere.
        """
        if self.is_constant:
            raise ValueError("cannot normalize a constant polynomial")
        if self.num[-1] == self.den and self.num[0] == 0:
            return Unit.identity(), self
        core = Polynomial.from_ints((0,) + self.num[1:], self.num[-1])
        return Unit(shift=self[0], scale=self.lead), core


@dataclass(frozen=True)
class Unit:
    """A degree-1 polynomial shift + scale*x, the composition-invertible maps."""

    shift: Fraction
    scale: Fraction

    def __init__(self, shift: Scalar = 0, scale: Scalar = 1):
        sc = _frac(scale)
        if sc == 0:
            raise ValueError("unit scale must be nonzero")
        object.__setattr__(self, "shift", _frac(shift))
        object.__setattr__(self, "scale", sc)

    @staticmethod
    def identity() -> "Unit":
        return Unit(0, 1)

    @property
    def is_identity(self) -> bool:
        return self.shift == 0 and self.scale == 1

    def as_poly(self) -> Polynomial:
        return Polynomial((self.shift, self.scale))

    def inverse(self) -> "Unit":
        return Unit(shift=-self.shift / self.scale, scale=1 / self.scale)

    def __call__(self, t: Scalar) -> Fraction:
        return self.scale * _frac(t) + self.shift

    def compose(self, other: "Unit") -> "Unit":
        """self after other: (self . other)(x) = self(other(x))."""
        return Unit(
            shift=self.scale * other.shift + self.shift,
            scale=self.scale * other.scale,
        )

    def apply_left(self, p: Polynomial) -> Polynomial:
        """self . p, i.e. scale*p + shift."""
        return p * self.scale + self.shift

    def apply_right(self, p: Polynomial) -> Polynomial:
        """p . self, i.e. p(scale*x + shift)."""
        return p.compose(self.as_poly())


def compose_all(factors: Sequence[Polynomial]) -> Polynomial:
    """Compose a nonempty factor sequence left to right as written.

    Folds from the right: composition is associative and the right fold
    keeps the outer operand of every step small.  A composite above the
    degree cap `MAX_DEGREE` is refused before any power is built.
    """
    if not factors:
        raise ValueError("cannot compose an empty factor sequence")
    degree = math.prod(f.degree if f else 0 for f in factors)
    if degree > MAX_DEGREE:
        raise ValueError(f"composite degree {degree} exceeds the degree cap {MAX_DEGREE}")
    acc = factors[-1]
    for f in reversed(factors[:-1]):
        acc = f.compose(acc)
    return acc


X = Polynomial.x()
ZERO = Polynomial()
ONE = Polynomial.const(1)
