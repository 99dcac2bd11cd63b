"""The monoid of odd polynomials under composition.

Odd polynomials (only odd-exponent terms) are closed under composition and
form a monoid O whose units are the maps x -> mu*x.  O is a reduction
monoid: its decompositions are exactly those of K[x], moved into O by
units.  For odd a, every canonical right factor h (monic, h(0) = 0) is
odd, because -h(-x) is a canonical right factor of a of the same (odd)
degree and such factors are unique; the outer factor is then odd on the
infinite image of h, hence odd.  So the canonical classes of a already lie
in O, and a is irreducible in O exactly when it is indecomposable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Optional

from .chebyshev import _dressed_odd_chebyshev_degree
from .decompose import (
    Decomposition,
    enumerate_classes,
    is_indecomposable,
    scale_canonicalize,
)
from .decompose import right_factor  # noqa: F401  perfbench's tracer test reads it here
from .poly import Polynomial, compose_all
from .roots import _split_power, is_probable_prime


def is_odd(p: Polynomial) -> bool:
    return p.is_odd_function


# Public, and traced by perfbench/tracer.py's LAYERS; the odd classes do not
# call it.
def adjust_to_odd(
    g: Polynomial, h: Polynomial
) -> Optional[tuple[Polynomial, Polynomial]]:
    """Rewrite g . h as g' . h' with h' odd, when a unit permits it.

    Every degree-preserving rewriting of the right factor has the form
    (g . u^{-1}, u . h) with u a unit, and (mu*h + lam) has zero even part
    iff the even part of h is the constant -lam/mu.  So the test is simply
    whether h's even part is constant; the left factor then becomes odd as
    well because an odd composite with an odd right factor forces it.
    """
    composite = compose_all((g, h))
    if not is_odd(composite):
        raise ValueError("adjust_to_odd expects an odd composite")
    even_part, _ = h.even_odd_split()
    if not even_part.is_constant:
        return None
    c = even_part[0]
    return g.shift_arg(c), h - c


def _check_odd_input(a: Polynomial, name: str) -> None:
    if not is_odd(a):
        raise ValueError(f"{name} expects an odd polynomial")
    if a.is_constant or a.degree < 2:
        raise ValueError(f"{name} expects degree >= 2")


def decompose_in_O(a: Polynomial) -> tuple[Decomposition, ...]:
    """All decomposition classes of a within the odd monoid.

    These are the general classes of a, as `enumerate_classes` returns
    them: every factor of a canonical class of an odd polynomial is odd
    (see the module docstring), and its non-leftmost factors are already
    monic, so no unit has to be threaded and nothing is composed again.
    """
    _check_odd_input(a, "decompose_in_O")
    return enumerate_classes(a)


# Cached because perfbench/run.py clears and reads this cache every pass.
@lru_cache(maxsize=1024)
def is_irreducible_in_O(a: Polynomial) -> bool:
    """True when no proper-degree split of a exists inside the odd monoid.

    A split in K[x] with a canonical right factor is already a split in
    the odd monoid (see the module docstring), so this is
    indecomposability.
    """
    _check_odd_input(a, "is_irreducible_in_O")
    return is_indecomposable(a)


@dataclass(frozen=True)
class OddSwapResult:
    kind: str  # "a" | "b" | "c"
    n: Optional[int] = None  # kind a: left Chebyshev index
    m: Optional[int] = None  # kind a: right Chebyshev index
    s: Optional[int] = None  # kinds b, c: the prime monomial degree
    t: Optional[int] = None  # kinds b, c: valuation of the structured factor
    alpha: Optional[Polynomial] = None


def _match_power_pattern(
    p: Polynomial, q: Polynomial
) -> Optional[tuple[int, int, Polynomial]]:
    """Match (p, q) ~ (x^t [alpha(x^2)]^s, x^s) up to scale units.

    q must be a monomial of odd prime degree s; p must split off exactly
    x^t (t odd) times a scalar times an s-th power of an even polynomial.
    The scalar is a scale unit, so alpha is returned monic.  Returns
    (s, t, alpha) with alpha(0) != 0; a constant alpha is the classical
    monomial swap x^t . x^s = x^s . x^t.
    """
    s = q.degree
    if q.support() != (s,) or s < 3 or not is_probable_prime(s):
        return None
    split = _split_power(p, s)
    if split is None or split[0] % 2 == 0:
        return None
    t, a_poly = split
    inner = a_poly.deflate(2)
    if inner is None or inner[0] != 0:
        return None
    return s, t, inner[1]


def classify_odd_swap(
    p: Polynomial, q: Polynomial, p_star: Polynomial, q_star: Polynomial
) -> OddSwapResult:
    """Name the structural reason two O-irreducible pairs share a composite.

    Exactly three non-equivalent swap patterns exist for odd irreducible
    factors of coprime degrees: (a) two unit-dressed Chebyshev
    polynomials of prime degrees (Dickson polynomials over Q) in either
    order, (b) a power x^s jumping right across x^t [alpha(x^2)]^s, and
    (c) the mirror of (b) with the power on the left.  Raises when the
    compositions differ, when the pairs are unit-equivalent (no swap
    happened), or when nothing matches.
    """
    for f in (p, q, p_star, q_star):
        if not is_odd(f):
            raise ValueError("classify_odd_swap expects odd factors")
        if not is_irreducible_in_O(f):
            raise ValueError("classify_odd_swap expects O-irreducible factors")
    if compose_all((p, q)) != compose_all((p_star, q_star)):
        raise ValueError("the two pairs do not share a composite")
    # The pairs are unit-equivalent, (p_star, q_star) = (p . (mu x),
    # (x / mu) . q), exactly when their scale-normal forms agree.
    if scale_canonicalize((p, q)) == scale_canonicalize((p_star, q_star)):
        raise ValueError("the pairs are unit-equivalent; no swap to classify")
    if gcd(p.degree, q.degree) != 1:
        raise ValueError("no pattern: factor degrees are not coprime")

    n = _dressed_odd_chebyshev_degree(p)
    m = _dressed_odd_chebyshev_degree(q)
    if n and m and (q_star.degree, p_star.degree) == (n, m):
        return OddSwapResult(kind="a", n=n, m=m)

    fwd = _match_power_pattern(p, q)
    if fwd is not None and q_star.degree == p.degree and p_star.degree == q.degree:
        s, t, alpha = fwd
        return OddSwapResult(kind="b", s=s, t=t, alpha=alpha)

    back = _match_power_pattern(p_star, q_star)
    if back is not None and q.degree == p_star.degree and p.degree == q_star.degree:
        s, t, alpha = back
        return OddSwapResult(kind="c", s=s, t=t, alpha=alpha)

    raise ValueError("no pattern: the pair matches none of the swap forms")
