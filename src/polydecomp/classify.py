"""Shape classification of indecomposable polynomials.

Up to degree-1 units on both sides, an indecomposable polynomial either is
a prime power x^l (tag P), carries a power inside or outside a coefficient
pattern (tag Q: x^s g(x^l) or x^s g(x)^l with g(0) != 0, s >= 1, l prime),
or has neither structure (tag R).  Detection runs over the rationals only;
when a non-rational centering constant would be required to settle Q versus
R the honest answer is Undetermined.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .decompose import complete_decomposition, is_indecomposable
from .poly import ONE, Polynomial, Unit, _int_conv
from .roots import _primitive, _split_power, is_probable_prime, squarefree_decomposition
from .roots import rational_roots  # noqa: F401  perfbench's tracer test reads it here


@dataclass(frozen=True)
class ShapeClass:
    tag: str  # "P" | "Q" | "R" | "Undetermined"
    source: Polynomial
    prime: Optional[int] = None
    variant: Optional[str] = None  # "power-inside" | "power-outside"
    s: Optional[int] = None
    center: Optional[Fraction] = None
    witness_g: Optional[Polynomial] = None
    outer_unit: Optional[Unit] = None
    inner_unit: Optional[Unit] = None

    def core(self) -> Polynomial:
        """The middle factor of the witness sandwich outer . core . inner."""
        if self.tag == "P":
            return Polynomial.monomial(self.prime)
        if self.tag == "Q":
            if self.variant == "power-inside":
                return self.witness_g.inflate(self.prime, self.s)
            return Polynomial.monomial(self.s) * self.witness_g**self.prime
        raise ValueError(f"no witness core for tag {self.tag}")

    def recompose(self) -> Polynomial:
        """Rebuild the classified polynomial from the witness data."""
        mid = self.inner_unit.apply_right(self.core())
        return self.outer_unit.apply_left(mid)


def _try_centered(p: Polynomial) -> Optional[ShapeClass]:
    """Detect p = u . x^l . (x - lam) (tag P, l = deg p prime) or
    p = u . [x^s g(x^l)] . (x - lam) (tag Q, power inside).

    Centering is forced: the recentred polynomial must have support inside
    one residue class mod l that contains n but not n - 1, so its x^(n-1)
    coefficient vanishes and lam is pinned; a pure power is the one-term
    support.  Everything after that is support inspection, hence the
    detection is complete over the rationals.
    """
    lam = p.forced_center()
    base = p(lam)
    q = p.shift_arg(lam) - base
    support = q.support()
    s = support[0]
    inner = Unit(shift=-lam, scale=Fraction(1))
    if len(support) == 1:
        if not is_probable_prime(s):
            return None
        return ShapeClass(
            tag="P",
            source=p,
            prime=s,
            center=lam,
            outer_unit=Unit(shift=base, scale=p.lead),
            inner_unit=inner,
        )
    spread = math.gcd(*[e - s for e in support[1:]])
    if spread < 2:
        return None
    l = next(f for f in range(2, spread + 1) if spread % f == 0)
    _, g = q.deflate(l)
    # recompose() is p(lam) + q(x - lam), which is p by the choice of q.
    return ShapeClass(
        tag="Q",
        source=p,
        prime=l,
        variant="power-inside",
        s=s,
        center=lam,
        witness_g=g,
        outer_unit=Unit(shift=base, scale=Fraction(1)),
        inner_unit=inner,
    )


def critical_value_polynomial(p: Polynomial) -> Polynomial:
    """The monic polynomial in y whose roots are the critical values of p,
    each with multiplicity equal to the total derivative-multiplicity of
    the critical points above it: the characteristic polynomial of
    multiplication by p modulo p'.  Its degree is deg(p) - 1.

    It runs on integers.  Let b be the primitive numerators of p', of
    degree d with lead L, and x_j its roots.  The L x_j are the roots of
    L^(d-1) b(z / L), which is monic over Z, so they are algebraic
    integers, and so are the values v_j = D p(x_j), D = L^n p.den with
    n = deg p.  Newton's identities then give the integers
    T_i = L^(d-1) sum_j x_j^i, i < d, and turn the integer power sums
    S_k = sum_j v_j^k back into integer elementary symmetric functions
    E_k, each division exact.  The coefficient of y^(d-k) is
    (-1)^k E_k / D^k.

    S_k is a trace: p^k mod b = c L^f w / D^k for an integer content c and
    a primitive w in Z[x], so S_k = c L^(f-d+1) sum_i w_i T_i.  The powers
    are reduced by integer pseudo-division and kept primitive, so their
    coefficients stay near the height of p^k mod b over Q.
    """
    d = p.derivative().degree
    if d == 0:
        return Polynomial.const(1)
    n = d + 1
    b = _primitive([i * c for i, c in enumerate(p.num)][1:])
    lead = b[-1]
    low = b[:d]

    def rem(v: list[int]) -> tuple[int, list[int], int]:
        """(g, w, e) with lead^e v = g w mod b, w primitive of degree < d."""
        e = 0
        for k in range(len(v) - 1, d - 1, -1):
            c = v[k]
            if c:
                e += 1
                for j in range(k - d):
                    v[j] *= lead
                for j, y in enumerate(low, k - d):
                    v[j] = v[j] * lead - c * y
        w = v[:d]
        g = math.gcd(*w)
        if g > 1:
            w = [c // g for c in w]
        return g, w, e

    # t[i] is T_i, from Newton's identities for b.
    top = lead ** (d - 1)
    t = [d * top]
    for k in range(1, d):
        u = sum(map(mul, low[d - 1 : d - k : -1], t[k - 1 : 0 : -1]))
        t.append((-k * low[d - k] * top - u) // lead)
    g1, w1, e1 = rem(list(p.num))
    content, f, power = 1, 0, [1]
    s = [d]
    for _ in range(d):
        g, power, e = rem(_int_conv(power, w1))
        content *= g1 * g
        f += n - e1 - e
        s.append(content * lead ** (f - d + 1) * sum(map(mul, power, t)))
    coeffs = [1]
    for k in range(1, d + 1):
        coeffs.append(-sum(map(mul, coeffs, s[k:0:-1])) // k)
    scale = lead**n * p.den
    return Polynomial.from_ints(
        [c * scale**k for k, c in enumerate(reversed(coeffs))], scale**d
    )


def _try_power_outside(p: Polynomial, centers: tuple[Fraction, ...]) -> Optional[ShapeClass]:
    """Detect p = u . [x^s g(x)^l] . (x - x0) with rational data.

    The additive constant of u must be one of the critical values b in
    `centers` (see `_power_outside_candidates`), tried in ascending order.
    For each, p - b is split into squarefree parts: the shape holds iff
    exactly one multiplicity class escapes divisibility by a prime l, that
    class is a single rational point (its part is linear), and the rest
    assemble into an exact l-th power, which `_split_power` reads off
    p - b recentred at that point.
    """
    for b in centers:
        _, parts = squarefree_decomposition(p - b)
        mults = sorted(e for e in parts)
        for s in mults:
            if parts[s].degree != 1:
                continue
            others = [e for e in mults if e != s]
            if not others:
                continue
            shared = math.gcd(*others)
            for l in range(2, shared + 1):
                if shared % l or not is_probable_prime(l) or s % l == 0:
                    continue
                x0 = -parts[s][0]
                split = _split_power((p - b).shift_arg(x0), l)
                if split is None:
                    continue
                return ShapeClass(
                    tag="Q",
                    source=p,
                    prime=l,
                    variant="power-outside",
                    s=s,
                    center=x0,
                    witness_g=split[1],
                    outer_unit=Unit(shift=b, scale=p.lead),
                    inner_unit=Unit(shift=-x0, scale=Fraction(1)),
                )
    return None


def _qualifying_multiplicities(n: int) -> set[int]:
    """Critical-value multiplicities that a power-outside shape of degree n
    could produce.  A shape with parameters (l, s), l a prime below n and
    l not dividing s, has inner degree delta = (n - s) / l and contributes
    multiplicity at least n - 1 - delta, so anything from n - 1 - max(delta)
    up to n - 1 qualifies.  Since s = n - l*delta = n (mod l), l must not
    divide n, and then delta runs up to (n - 1) // l; the least such l
    gives the maximum."""
    l = 2
    while l < n and (n % l == 0 or not is_probable_prime(l)):
        l += 1
    delta_max = (n - 1) // l if l < n else 0
    return set(range(n - 1 - delta_max, n))


def _power_outside_candidates(cv: Polynomial) -> tuple[tuple[Fraction, ...], bool]:
    """(centers, irrational): the rational roots of c, ascending, and whether
    c has irrational real roots.  c is the product of the squarefree parts of
    cv of qualifying multiplicity, squarefree as the parts are coprime, and
    only its roots can be the additive constant of a power-outside shape.
    deg c <= 2: a qualifying multiplicity is at least (n - 1) / 2 = deg cv / 2
    and all multiplicities sum to deg cv.  On c's numerators c0 + c1 x +
    c2 x^2 (c2 > 0, c being monic), constant c has no root, linear c has
    -c0 / c1, and quadratic c, with disc = c1^2 - 4 c0 c2 nonzero, has none
    real if disc < 0, two rational ones if disc is a square, and two
    irrational ones otherwise."""
    qualifying = _qualifying_multiplicities(cv.degree + 1)
    _, parts = squarefree_decomposition(cv)
    c = math.prod((f for k, f in parts.items() if k in qualifying), start=ONE)
    if c.is_constant:
        return (), False
    if c.degree == 1:
        return (Fraction(-c.num[0], c.num[1]),), False
    c0, c1, c2 = c.num
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        return (), False
    r = math.isqrt(disc)
    if r * r != disc:
        return (), True
    return (Fraction(-c1 - r, 2 * c2), Fraction(r - c1, 2 * c2)), False


def classify_shape(p: Polynomial) -> ShapeClass:
    """Tag an indecomposable polynomial P, Q, R or Undetermined.

    Pure powers and the power-inside pattern are tried first at their one
    pinned center (hence completely), then power-outside at the rational
    candidates of one squarefree decomposition of the critical values.  If
    all three fail, the result is R, or Undetermined when the candidates
    are real roots of a quadratic with a positive non-square discriminant.
    """
    if p.is_constant or p.degree < 2:
        raise ValueError("classification needs degree >= 2")
    if not is_indecomposable(p):
        raise ValueError("classification is defined for indecomposable polynomials")
    shape = _try_centered(p)
    if shape is not None:
        return shape
    centers, irrational = _power_outside_candidates(critical_value_polynomial(p))
    shape = _try_power_outside(p, centers)
    if shape is not None:
        return shape
    return ShapeClass(tag="Undetermined" if irrational else "R", source=p)


@dataclass(frozen=True)
class RittInvariants:
    n_P: int
    n_Q: int
    n_R: int
    n_undetermined: int
    p_by_prime: tuple[tuple[int, int], ...]  # sorted (prime, count) pairs

    @property
    def has_undetermined(self) -> bool:
        return self.n_undetermined > 0


def invariants_of_factors(factors) -> RittInvariants:
    """Counts of P, Q, R tags over an explicit factor list."""
    shapes = [classify_shape(f) for f in factors]
    tags = Counter(shape.tag for shape in shapes)
    primes = Counter(shape.prime for shape in shapes if shape.tag == "P")
    return RittInvariants(
        n_P=tags["P"],
        n_Q=tags["Q"],
        n_R=tags["R"],
        n_undetermined=tags["Undetermined"],
        p_by_prime=tuple(sorted(primes.items())),
    )


def ritt_invariants(a: Polynomial) -> RittInvariants:
    """Shape counts over one complete decomposition of a.

    The counts do not depend on which decomposition is used; the test suite
    exercises that by recomputing them over every decomposition class.
    """
    if a.is_constant or a.degree < 2:
        raise ValueError("invariants need degree >= 2")
    return invariants_of_factors(complete_decomposition(a).factors)
