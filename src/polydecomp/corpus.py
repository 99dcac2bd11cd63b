"""Seeded sample generators for the verification suites.

The mathematical modules are sampling-free; everything random lives here,
driven by ``random.Random`` so a (seed, count) pair pins the exact sample
set. Consumers are the command line ``verify`` suites and the test suite.

Generator shape: a composite is built from 2 to 4 indecomposable factors
of prime degree at most 7, with coefficients uniform over the integers
-3..3 and a nonzero leading coefficient. The cusp variant then solves for
one coefficient of the leftmost factor so the composite has a critical
point at the origin. The odd-monoid counterexample hunters use the same
coefficient pool, optionally halved.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .poly import Polynomial, Unit

PRIME_DEGREES = (2, 3, 5, 7)
_NONZERO = (-3, -2, -1, 1, 2, 3)


def indecomposable_factor(rng: random.Random, degree: int | None = None) -> Polynomial:
    """A random polynomial of prime degree (hence indecomposable)."""
    d = degree if degree is not None else rng.choice(PRIME_DEGREES)
    coeffs = [rng.randint(-3, 3) for _ in range(d)]
    coeffs.append(rng.choice(_NONZERO))
    return Polynomial(coeffs)


def composite_factors(rng: random.Random) -> tuple[Polynomial, ...]:
    """Factors for one corpus composite: 2 to 4 prime-degree indecomposables."""
    return tuple(indecomposable_factor(rng) for _ in range(rng.choice((2, 3, 4))))


def ritt_corpus(seed: int = 42, count: int = 200) -> list[tuple[Polynomial, ...]]:
    """The seeded corpus for the first-Ritt and invariant suites.

    Returns factor tuples; compose them to get the test subjects.
    """
    rng = random.Random(seed)
    return [composite_factors(rng) for _ in range(count)]


def _force_critical_at_zero(factors: tuple[Polynomial, ...]) -> tuple[Polynomial, ...]:
    """Adjust the leftmost factor's linear coefficient so the composite has
    derivative zero at the origin.

    With t the value of the right part at 0, setting p1'(t) = 0 kills the
    whole chain-rule product. Solving for the linear coefficient is always
    possible and keeps the degree (and hence indecomposability) intact.
    """
    t = 0
    for p in reversed(factors[1:]):
        t = p(t)
    head = factors[0]
    # Subtracting head'(t)*x lowers the derivative by head'(t) everywhere,
    # so it vanishes at t; the linear coefficient becomes -(head'(t) - head[1]).
    return (head - Polynomial.monomial(1, head.derivative()(t)),) + factors[1:]


def cusp_corpus(seed: int = 42, count: int = 50) -> list[tuple[Polynomial, ...]]:
    """Seeded composites with a critical point at the origin.

    Same generator as ritt_corpus, then one coefficient of the leftmost
    factor is solved so the composite's derivative vanishes at 0.
    """
    rng = random.Random(seed)
    return [_force_critical_at_zero(composite_factors(rng)) for _ in range(count)]


def _scaled_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 2)))


def _nonzero_scaled(rng: random.Random) -> Fraction:
    while True:
        c = _scaled_coeff(rng)
        if c != 0:
            return c


def _random_poly(rng: random.Random, degree: int) -> Polynomial:
    coeffs = [_scaled_coeff(rng) for _ in range(degree)]
    coeffs.append(_nonzero_scaled(rng))
    return Polynomial(coeffs)


def _random_odd_poly(rng: random.Random) -> Polynomial:
    """Random odd polynomial of degree 3, 5, or 7."""
    d = rng.choice((3, 5, 7))
    coeffs = [0] * (d + 1)
    for j in range(1, d, 2):
        coeffs[j] = _scaled_coeff(rng)
    coeffs[d] = _nonzero_scaled(rng)
    return Polynomial(coeffs)


def shifted_odd_composites(seed: int = 42, count: int = 1000) -> list[Polynomial]:
    """Samples of (x + mu) o a o f with a odd of degree > 1, mu nonzero,
    and f nonconstant. None of these can be an odd function; the odd-monoid
    suite asserts exactly that.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        mu = _nonzero_scaled(rng)
        a = _random_odd_poly(rng)
        f = _random_poly(rng, rng.randint(1, 7))
        out.append(a.compose(f) + mu)
    return out


def even_core_composites(seed: int = 42, count: int = 1000) -> list[Polynomial]:
    """Samples of f o x^2 o u with f nonconstant and u a degree-one map.
    None of these can be an odd function either.
    """
    rng = random.Random(seed)
    square = Polynomial.monomial(2)
    out = []
    for _ in range(count):
        f = _random_poly(rng, rng.randint(1, 7))
        u = Unit(shift=_scaled_coeff(rng), scale=_nonzero_scaled(rng))
        out.append(f.compose(u.apply_right(square)))
    return out


def odd_factor_pairs(seed: int = 42, count: int = 200) -> list[tuple[Polynomial, Polynomial]]:
    """Pairs of random odd polynomials, for closure and split checks."""
    rng = random.Random(seed)
    return [(_random_odd_poly(rng), _random_odd_poly(rng)) for _ in range(count)]
