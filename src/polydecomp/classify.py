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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .decompose import complete_decomposition, is_indecomposable
from .poly import Polynomial, Unit
from .roots import (
    count_real_roots,
    is_probable_prime,
    rational_roots,
    squarefree_decomposition,
)


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

    def to_json(self) -> dict:
        out: dict = {"tag": self.tag}
        if self.prime is not None:
            out["prime"] = self.prime
        if self.variant is not None:
            out["variant"] = self.variant
        if self.s is not None:
            out["s"] = self.s
        if self.center is not None:
            out["center"] = str(self.center)
        if self.witness_g is not None:
            out["witness_g"] = [str(c) for c in self.witness_g.coeffs]
        if self.outer_unit is not None:
            out["outer_unit"] = {
                "scale": str(self.outer_unit.scale),
                "shift": str(self.outer_unit.shift),
            }
        if self.inner_unit is not None:
            out["inner_unit"] = {
                "scale": str(self.inner_unit.scale),
                "shift": str(self.inner_unit.shift),
            }
        return out


def _try_power(p: Polynomial) -> Optional[ShapeClass]:
    n = p.degree
    if not is_probable_prime(n):
        return None
    lam = p.forced_center()
    if p.shift_arg(lam) - p(lam) != Polynomial.monomial(n, p.lead):
        return None
    return ShapeClass(
        tag="P",
        source=p,
        prime=n,
        center=lam,
        outer_unit=Unit(shift=p(lam), scale=p.lead),
        inner_unit=Unit(shift=-lam, scale=Fraction(1)),
    )


def _try_power_inside(p: Polynomial) -> Optional[ShapeClass]:
    """Detect p = u . [x^s g(x^l)] . (x - lam).

    Centering is forced: the recentred polynomial must have support inside
    one residue class mod l that contains n but not n - 1, so its x^(n-1)
    coefficient vanishes and lam is the same pinned center as in the pure
    power test.  Everything after that is support inspection, hence the
    detection is complete over the rationals.
    """
    lam = p.forced_center()
    q = p.shift_arg(lam) - p(lam)
    support = q.support()
    s = support[0]
    diffs = [e - s for e in support[1:]]
    if not diffs:
        return None
    spread = math.gcd(*diffs)
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
        outer_unit=Unit(shift=p(lam), scale=Fraction(1)),
        inner_unit=Unit(shift=-lam, scale=Fraction(1)),
    )


def _charpoly_of_multiplication(p: Polynomial, modulus: Polynomial) -> Polynomial:
    """Characteristic polynomial of multiplication by p in Q[x]/(modulus).

    Its roots are p at the roots of the modulus, with their multiplicities.
    Newton's identities give the power sums t_i of the modulus roots; the
    values' power sums are the traces s_k = sum_i (p^k mod modulus)_i t_i,
    which Newton's identities turn back into coefficients.
    """
    d = modulus.degree
    a = [c / modulus.lead for c in reversed(modulus.coeffs)]
    t = [Fraction(d)]
    for k in range(1, d):
        t.append(-k * a[k] - sum(a[j] * t[k - j] for j in range(1, k)))
    reduced = p % modulus
    power = Polynomial.const(1)
    s = [Fraction(d)]
    for _ in range(d):
        power = (power * reduced) % modulus
        s.append(sum(c * t[i] for i, c in enumerate(power.coeffs)))
    coeffs = [Fraction(1)]
    for k in range(1, d + 1):
        coeffs.append(-sum(coeffs[j] * s[k - j] for j in range(k)) / k)
    return Polynomial(coeffs[::-1])


def critical_value_polynomial(p: Polynomial) -> Polynomial:
    """The monic polynomial in y whose roots are the critical values of p,
    each with multiplicity equal to the total derivative-multiplicity of
    the critical points above it: the characteristic polynomial of
    multiplication by p modulo p'.  Its degree is deg(p) - 1."""
    return _charpoly_of_multiplication(p, p.derivative())


def _try_power_outside(p: Polynomial, cv: Polynomial) -> Optional[ShapeClass]:
    """Detect p = u . [x^s g(x)^l] . (x - x0) with rational data.

    The additive constant of u must be a critical value b of p; rational
    candidates are the rational roots of the critical value polynomial cv.
    For each, p - b is split into squarefree parts: the shape holds iff
    exactly one multiplicity class escapes divisibility by a prime l, that
    class is a single rational point (its part is linear), and the rest
    assemble into an exact l-th power.
    """
    lc = p.lead
    for b in rational_roots(cv):
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
                ghat = Polynomial.const(1)
                for e in others:
                    ghat = ghat * parts[e] ** (e // l)
                g = ghat.shift_arg(x0)
                shape = ShapeClass(
                    tag="Q",
                    source=p,
                    prime=l,
                    variant="power-outside",
                    s=s,
                    center=x0,
                    witness_g=g,
                    outer_unit=Unit(shift=b, scale=lc),
                    inner_unit=Unit(shift=-x0, scale=Fraction(1)),
                )
                if shape.recompose() == p:
                    return shape
    return None


def _qualifying_multiplicities(n: int) -> set[int]:
    """Critical-value multiplicities that a power-outside shape of degree n
    could produce.  A shape with parameters (l, s) and inner degree
    delta = (n - s) / l contributes multiplicity at least n - 1 - delta,
    so anything from n - 1 - max(delta) up to n - 1 qualifies."""
    delta_max = 0
    for l in range(2, n):
        if not is_probable_prime(l):
            continue
        delta = 1
        while True:
            s = n - l * delta
            if s < 1:
                break
            if s % l:
                delta_max = max(delta_max, delta)
            delta += 1
    return set(range(n - 1 - delta_max, n))


def _has_irrational_real_candidate(cv: Polynomial) -> bool:
    """True when the critical value polynomial cv has an irrational real
    root whose multiplicity a power-outside shape could produce.  Parts are
    squarefree, so that means more real roots than rational ones."""
    qualifying = _qualifying_multiplicities(cv.degree + 1)
    _, parts = squarefree_decomposition(cv)
    return any(
        count_real_roots(part) > len(rational_roots(part))
        for k, part in parts.items()
        if k in qualifying
    )


def classify_shape(p: Polynomial) -> ShapeClass:
    """Tag an indecomposable polynomial P, Q, R or Undetermined.

    Pure powers are tried first with their pinned center, then the
    power-inside pattern (also pinned, hence complete), then power-outside
    over rational centering data.  If all three fail, the result is R when
    every remaining candidate center is certified non-real or rational (and
    already refuted), and Undetermined when an irrational real candidate
    survives.
    """
    if p.is_constant or p.degree < 2:
        raise ValueError("classification needs degree >= 2")
    if not is_indecomposable(p):
        raise ValueError("classification is defined for indecomposable polynomials")
    shape = _try_power(p)
    if shape is not None:
        return shape
    shape = _try_power_inside(p)
    if shape is not None:
        return shape
    cv = critical_value_polynomial(p)
    shape = _try_power_outside(p, cv)
    if shape is not None:
        return shape
    if _has_irrational_real_candidate(cv):
        return ShapeClass(tag="Undetermined", source=p)
    return ShapeClass(tag="R", source=p)


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

    def to_json(self) -> dict:
        return {
            "n_P": self.n_P,
            "n_Q": self.n_Q,
            "n_R": self.n_R,
            "n_undetermined": self.n_undetermined,
            "n_P_by_prime": {str(l): c for l, c in self.p_by_prime},
        }


def invariants_of_factors(factors) -> RittInvariants:
    """Counts of P, Q, R tags over an explicit factor list."""
    n_p = n_q = n_r = n_u = 0
    by_prime: dict[int, int] = {}
    for f in factors:
        shape = classify_shape(f)
        if shape.tag == "P":
            n_p += 1
            by_prime[shape.prime] = by_prime.get(shape.prime, 0) + 1
        elif shape.tag == "Q":
            n_q += 1
        elif shape.tag == "R":
            n_r += 1
        else:
            n_u += 1
    return RittInvariants(
        n_P=n_p,
        n_Q=n_q,
        n_R=n_r,
        n_undetermined=n_u,
        p_by_prime=tuple(sorted(by_prime.items())),
    )


def ritt_invariants(a: Polynomial) -> RittInvariants:
    """Shape counts over one complete decomposition of a.

    The counts do not depend on which decomposition is used; the test suite
    exercises that by recomputing them over every decomposition class.
    """
    if a.is_constant or a.degree < 2:
        raise ValueError("invariants need degree >= 2")
    return invariants_of_factors(complete_decomposition(a).factors)
