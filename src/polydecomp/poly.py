"""Exact dense polynomial arithmetic over the rationals.

Everything in this package works with `Polynomial` (dense coefficient
tuple, ascending exponents, exact `Fraction` entries) and `Unit` (a
degree-1 polynomial, the invertible elements under composition).  All
operations are pure; both classes are frozen and hashable.
"""

from __future__ import annotations

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
# a plain ValueError on some and a silent parse on others.
MAX_LITERAL_DIGITS = 4300

# Below these sizes plain convolution beats the big-int packing path.
_PACKED_MUL_MIN_TERMS = 2
_PACKED_MUL_MIN_AREA = 512


class PostconditionError(ValueError):
    """A computed result failed the exact check that guards it.  Raised
    instead of an assert so the check also runs under python -O."""


def _frac(v: Scalar) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise TypeError(f"coefficient must be int or Fraction, got {type(v).__name__}")


def _unpack_nonneg(n: int, nbytes: int, count: int) -> list[int]:
    raw = n.to_bytes(nbytes * count, "little")
    return [
        int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "little")
        for i in range(count)
    ]


def _int_mul_packed(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Multiply integer coefficient sequences via Kronecker substitution.

    Signed coefficients are packed directly; the product's digits are
    recovered in balanced form by adding an offset that shifts every digit
    into [0, 2^width) before the byte-level unpack.  One big-int product
    total, exact for any signs.
    """
    out_len = len(a) + len(b) - 1
    amax = max(abs(c) for c in a)
    bmax = max(abs(c) for c in b)
    if amax == 0 or bmax == 0:
        return [0] * out_len
    bound = min(len(a), len(b)) * amax * bmax
    nbytes = bound.bit_length() // 8 + 1
    prod = _pack_signed(a, nbytes) * _pack_signed(b, nbytes)
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


def _int_conv(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Convolution of integer sequences, packed when the size justifies it."""
    la, lb = len(a), len(b)
    if min(la, lb) >= _PACKED_MUL_MIN_TERMS and la * lb >= _PACKED_MUL_MIN_AREA:
        return _int_mul_packed(a, b)
    out = [0] * (la + lb - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def _integer_form(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Clear denominators: (ints, den) with coeffs[i] == ints[i] / den.

    den is the lcm of the denominators, so it is 1 for integer input.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _mul_coeffs(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> list[Fraction]:
    ai, da = _integer_form(a)
    bi, db = _integer_form(b)
    den = da * db
    return [Fraction(n, den) for n in _int_conv(ai, bi)]


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of x^i; trailing zeros are stripped on
    construction, so the zero polynomial is the empty tuple.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

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
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of a nonzero polynomial.  The zero polynomial has none."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.const(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return Polynomial.const(other) - self

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = _frac(other)
            if c == 0:
                return Polynomial()
            return Polynomial(tuple(x * c for x in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        return Polynomial(_mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact euclidean division: self = q*other + r with deg r < deg other."""
        if not isinstance(other, Polynomial):
            raise TypeError("divmod expects a Polynomial divisor")
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero or len(self.coeffs) < len(other.coeffs):
            return Polynomial(), self
        rem = list(self.coeffs)
        dn = len(other.coeffs) - 1
        inv_lead = 1 / other.lead
        q = [Fraction(0)] * (len(rem) - dn)
        oc = other.coeffs
        for k in range(len(rem) - dn - 1, -1, -1):
            c = rem[k + dn]
            if c:
                c *= inv_lead
                q[k] = c
                for j in range(dn):
                    if oc[j]:
                        rem[k + j] -= c * oc[j]
                rem[k + dn] = Fraction(0)
        return Polynomial(q), Polynomial(rem[:dn])

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    # -- evaluation and composition -----------------------------------

    def __call__(self, t: Scalar) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Substitution self(inner(x)), by Horner in the outer coefficients.

        Runs on denominator-cleared integer vectors, so each Horner step
        is a single integer convolution rather than Fraction arithmetic.
        """
        if self.is_constant:
            return self
        if inner.is_constant:
            return Polynomial.const(self(inner[0]))
        outer, dg = _integer_form(self.coeffs)
        hint, dh = _integer_form(inner.coeffs)
        acc = [outer[-1]]
        dhpow = 1
        for k in range(len(outer) - 2, -1, -1):
            acc = _int_conv(acc, hint)
            dhpow *= dh
            acc[0] += outer[k] * dhpow
        den = dg * dhpow
        return Polynomial(tuple(Fraction(c, den) for c in acc))

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def shift_arg(self, lam: Scalar) -> "Polynomial":
        """self(x + lam)."""
        lam = _frac(lam)
        if lam == 0:
            return self
        return self.compose(Polynomial((lam, 1)))

    def scale_arg(self, mu: Scalar) -> "Polynomial":
        """self(mu * x)."""
        mu = _frac(mu)
        out = []
        p = Fraction(1)
        for c in self.coeffs:
            out.append(c * p)
            p *= mu
        return Polynomial(out)

    # -- support helpers ----------------------------------------------

    def even_odd_split(self) -> tuple["Polynomial", "Polynomial"]:
        """Return (even part, odd part); the two sum back to self."""
        ev = [c if i % 2 == 0 else Fraction(0) for i, c in enumerate(self.coeffs)]
        od = [c if i % 2 == 1 else Fraction(0) for i, c in enumerate(self.coeffs)]
        return Polynomial(ev), Polynomial(od)

    @property
    def is_odd_function(self) -> bool:
        return all(c == 0 for i, c in enumerate(self.coeffs) if i % 2 == 0)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c)

    def x_valuation(self) -> int:
        """Multiplicity of the root 0 (degree of the first nonzero term)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise ValueError("the zero polynomial has no x-valuation")

    def to_inner_power(self, k: int) -> "Polynomial | None":
        """If self = q(x^k), return q; otherwise None."""
        if k < 1:
            raise ValueError("inner power must be positive")
        if any(c and i % k for i, c in enumerate(self.coeffs)):
            return None
        return Polynomial(self.coeffs[::k])

    def inflate(self, k: int, s: int) -> "Polynomial":
        """x^s * self(x^k): coefficient j goes to exponent s + k*j, the
        inverse of slicing ``coeffs[s::k]``."""
        if k < 1 or s < 0:
            raise ValueError("inflate needs k >= 1 and s >= 0")
        out = [Fraction(0)] * (s + k * (len(self.coeffs) - 1) + 1)
        out[s::k] = self.coeffs
        return Polynomial(out)

    def deflate(self, k: int) -> "tuple[int, Polynomial] | None":
        """The inverse of ``inflate``: (s, g) with self = x^s * g(x^k) and
        g(0) != 0, or None when the support leaves the class s + kZ."""
        if k < 1:
            raise ValueError("deflate needs k >= 1")
        s = self.x_valuation()
        if any(c and (i - s) % k for i, c in enumerate(self.coeffs)):
            return None
        return s, Polynomial(self.coeffs[s::k])

    def forced_center(self) -> Fraction:
        """The only shift lam for which self(x + lam) has no x^(n-1) term."""
        n = self.degree
        return -self[n - 1] / (n * self.lead)

    def canonical_core(self) -> tuple["Unit", "Polynomial"]:
        """Write self = u (after) core with core monic and core(0) = 0.

        The unit u absorbs the leading coefficient and the constant term;
        this is the normal form used for right factors everywhere.
        """
        if self.is_constant:
            raise ValueError("cannot normalize a constant polynomial")
        lead = self.lead
        const = self.coeffs[0]
        core = Polynomial(
            tuple((c - const if i == 0 else c) / lead for i, c in enumerate(self.coeffs))
        )
        return Unit(shift=const, scale=lead), core


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
    keeps the outer operand of every step small.
    """
    if not factors:
        raise ValueError("cannot compose an empty factor sequence")
    acc = factors[-1]
    for f in reversed(factors[:-1]):
        acc = f.compose(acc)
    return acc


X = Polynomial.x()
ZERO = Polynomial()
ONE = Polynomial.const(1)
