"""Composition factoring: right factors, complete decompositions, classes.

A decomposition of a is an ordered factor list [p1, ..., pr] with
a = p1 . p2 . ... . pr (composition, leftmost applied last), every factor of
degree >= 2 and indecomposable.  Two decompositions are equivalent when one
arises from the other by inserting u, u^{-1} around a factor boundary for a
degree-1 unit u.  The canonical form of a class makes every factor except
the leftmost monic with zero constant term; that representative is unique,
so class equality is coefficient equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .poly import Polynomial, PostconditionError, _integer_form, compose_all
from .roots import _series_root, divisors


@dataclass(frozen=True)
class Decomposition:
    factors: tuple[Polynomial, ...]
    target: Polynomial

    @property
    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(f.degree for f in self.factors)

    def verify(self) -> bool:
        return (
            all(not f.is_constant and f.degree >= 2 for f in self.factors)
            and compose_all(self.factors) == self.target
        )


@dataclass(frozen=True)
class DecompositionClass:
    """A unit-equivalence class, keyed by its canonical representative."""

    representative: Decomposition

    @property
    def factors(self) -> tuple[Polynomial, ...]:
        return self.representative.factors

    @property
    def degree_sequence(self) -> tuple[int, ...]:
        return self.representative.degree_sequence


def canonicalize(factors) -> tuple[Polynomial, ...]:
    """Thread units right to left until all non-leftmost factors are monic
    with zero constant term.  Preserves the composition exactly."""
    fs = list(factors)
    for i in range(len(fs) - 1, 0, -1):
        u, core = fs[i].canonical_core()
        fs[i] = core
        fs[i - 1] = u.apply_right(fs[i - 1])
    return tuple(fs)


def scale_canonicalize(factors) -> tuple[Polynomial, ...]:
    """Make every non-leftmost factor monic using scale units x -> mu*x only.

    Unlike full canonicalization this never shifts arguments, so properties
    that depend on behavior at 0 (odd symmetry, zero derivative at 0) are
    preserved factor by factor.
    """
    fs = list(factors)
    for i in range(len(fs) - 1, 0, -1):
        mu = fs[i].lead
        if mu != 1:
            fs[i] = Polynomial([c / mu for c in fs[i].coeffs])
            fs[i - 1] = fs[i - 1].scale_arg(mu)
    return tuple(fs)


def _proper_divisors(n: int) -> list[int]:
    return [d for d in divisors(n) if 1 < d < n]


def right_factor(a: Polynomial, d: int) -> tuple[Polynomial, Polynomial] | None:
    """Split a = g . h with deg(h) = d, h monic and h(0) = 0, if possible.

    The top d coefficients of a pin the candidate h: after normalizing a to
    monic with zero constant term, the reversed coefficient sequence must be
    the m-th power (m = deg(a)/d) of h's reversed sequence, which an exact
    power-series root recovers term by term.  Expanding a in base h
    (repeated division) then accepts iff every digit is constant; the digits
    are g's coefficients.  The canonical h of a given degree is unique, so
    a None return is a proof of absence.
    """
    if a.is_constant or a.degree < 2:
        raise ValueError("right_factor needs a polynomial of degree >= 2")
    n = a.degree
    if d <= 1 or d >= n or n % d:
        raise ValueError(f"degree {d} is not a proper divisor of {n}")
    m = n // d

    outer_unit, ahat = a.canonical_core()
    # Reversed power series at infinity: rev[j] is the x^(n-j) coefficient.
    rev = ahat.coeffs[::-1]
    h = Polynomial([Fraction(0)] + _series_root(rev, m, d)[::-1])

    digits = _constant_digits(ahat, h, m)
    if digits is None:
        return None
    g_core = Polynomial(digits)
    return outer_unit.apply_left(g_core), h


def _constant_digits(ahat: Polynomial, h: Polynomial, m: int) -> list[Fraction] | None:
    """Base-h digits of ahat when all of them are constants; else None.

    ahat and h are monic with zero constant term.  A split forces e, the
    lcm of h's denominators, to divide da^d, da being ahat's: da^n ahat(x/da)
    is monic over Z, so every root of da^d h(x/da) - c, for c a root of the
    outer factor, is an algebraic integer, and da^d h(x/da) has integer
    coefficients.  Failing that test proves there is no split; passing it
    bounds e by da^d, so the scaled integers below stay polynomial in the
    input size.  The digits come from substituting x -> x/e and
    multiplying through, which turns the repeated division into pure
    integer synthetic division by a monic integer polynomial: no rational
    normalization happens inside the loop.
    """
    d = h.degree
    n = ahat.degree
    hi, e = _integer_form(h.coeffs)
    ai, da = _integer_form(ahat.coeffs)
    if pow(da, d, e):
        return None
    epow = [1] * (n + 1)
    for j in range(1, n + 1):
        epow[j] = epow[j - 1] * e
    # h(x/e) * e^d and ahat(x/e) * da * e^n, both with integer coefficients.
    base = [c * epow[d - j] // e for j, c in enumerate(hi)]
    cur = [c * epow[n - j] for j, c in enumerate(ai)]
    scaled: list[int] = []
    for _ in range(m):
        qlen = len(cur) - d
        q = [0] * qlen
        for k in range(qlen - 1, -1, -1):
            c = cur[k + d]
            if c:
                q[k] = c
                for j in range(d):
                    bj = base[j]
                    if bj:
                        cur[k + j] -= c * bj
        if any(cur[j] for j in range(1, d)):
            return None
        scaled.append(cur[0])
        cur = q
    # m rounds of d-term division leave n + 1 - m*d = 1 coefficient.
    scaled.append(cur[0])
    out = []
    for i, dig in enumerate(scaled):
        out.append(Fraction(dig, da * epow[d * (m - i)]))
    return out


@lru_cache(maxsize=4096)
def is_indecomposable(a: Polynomial) -> bool:
    """True when a (degree >= 2) is not a composition of two non-units."""
    if a.is_constant or a.degree < 2:
        raise ValueError("indecomposability is defined for degree >= 2")
    n = a.degree
    for d in _proper_divisors(n):
        if right_factor(a, d) is not None:
            return False
    return True


def complete_decomposition(a: Polynomial) -> Decomposition:
    """Greedy canonical decomposition into indecomposables.

    At each step the smallest proper divisor degree admitting a right
    factor is stripped; the stripped factor is itself indecomposable, since
    any splitting of it would expose a smaller right factor of the whole.
    """
    if a.is_constant or a.degree < 2:
        raise ValueError("decomposition is defined for degree >= 2")
    rights: list[Polynomial] = []
    work = a
    while True:
        n = work.degree
        found = None
        for d in _proper_divisors(n):
            found = right_factor(work, d)
            if found is not None:
                break
        if found is None:
            break
        work, h = found
        rights.append(h)
    # The factors recompose to a by construction; no need to re-expand.
    return Decomposition(tuple([work] + rights[::-1]), a)


@lru_cache(maxsize=256)
def enumerate_classes(a: Polynomial) -> tuple[DecompositionClass, ...]:
    """All unit-equivalence classes of complete decompositions of a.

    Breadth-first search from the greedy decomposition: each move recombines
    an adjacent factor pair and re-splits the product at every other proper
    divisor degree, keeping only splits into two indecomposables.  States
    are deduplicated by canonical form.  Output is sorted by degree sequence
    and then lexicographically by coefficients, so it is deterministic.
    """
    start = canonicalize(complete_decomposition(a).factors)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt: list[tuple[Polynomial, ...]] = []
        for fs in frontier:
            for i in range(len(fs) - 1):
                pair_product = fs[i].compose(fs[i + 1])
                skip = fs[i + 1].degree
                for d in _proper_divisors(pair_product.degree):
                    if d == skip:
                        continue
                    split = right_factor(pair_product, d)
                    if split is None:
                        continue
                    g, h = split
                    if not (is_indecomposable(g) and is_indecomposable(h)):
                        continue
                    cand = canonicalize(fs[:i] + (g, h) + fs[i + 2:])
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt

    def sort_key(fs: tuple[Polynomial, ...]):
        return (
            tuple(f.degree for f in fs),
            tuple(f.coeffs for f in fs),
        )

    return tuple(
        DecompositionClass(Decomposition(fs, a)) for fs in sorted(seen, key=sort_key)
    )


@dataclass(frozen=True)
class Ritt1Report:
    class_count: int
    length: int
    degree_multiset: tuple[int, ...]
    passed: bool


def ritt1_check(a: Polynomial) -> Ritt1Report:
    """Do all decomposition classes share one length and degree multiset?"""
    classes = enumerate_classes(a)
    lengths = {len(c.factors) for c in classes}
    multisets = {tuple(sorted(c.degree_sequence)) for c in classes}
    return Ritt1Report(
        class_count=len(classes),
        length=next(iter(lengths)),
        degree_multiset=next(iter(sorted(multisets))),
        passed=len(lengths) == 1 and len(multisets) == 1,
    )


def _solve_linear(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """One solution of rows * x = rhs over the rationals (free variables 0),
    or None when inconsistent."""
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        sel = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][ncols] != 0:
            return None
    out = [Fraction(0)] * ncols
    for r, c in pivots:
        out[c] = aug[r][ncols]
    return out


def common_composite(
    a: Polynomial, b: Polynomial, degree_bound: int | None = None
) -> tuple[Polynomial, Polynomial, Polynomial] | None:
    """Least common composite: c = alpha . a = beta . b at degree lcm(da, db).

    The unknown coefficients of alpha and beta enter linearly, so a single
    rational linear solve decides existence.  When a common composite exists
    at all it exists at the lcm degree, which is the only degree solved.
    Returns (c, alpha, beta) with c monic and c(0) = 0, or None.
    """
    if a.is_constant or a.degree < 2 or b.is_constant or b.degree < 2:
        raise ValueError("common_composite needs two polynomials of degree >= 2")
    target = math.lcm(a.degree, b.degree)
    if degree_bound is None:
        degree_bound = 10 * target
    if target > degree_bound:
        raise ValueError(
            f"least common composite degree {target} exceeds bound {degree_bound}"
        )
    i = target // a.degree
    j = target // b.degree
    pow_a = [Polynomial.const(1)]
    for _ in range(i):
        pow_a.append(pow_a[-1] * a)
    pow_b = [Polynomial.const(1)]
    for _ in range(j):
        pow_b.append(pow_b[-1] * b)
    pin = 1 / a.lead**i  # forces c monic
    ncols = i + (j + 1)
    rows = []
    rhs = []
    for coef_idx in range(target + 1):
        row = [Fraction(0)] * ncols
        for k in range(i):
            row[k] = pow_a[k][coef_idx]
        for l in range(j + 1):
            row[i + l] = -pow_b[l][coef_idx]
        rows.append(row)
        rhs.append(-pin * pow_a[i][coef_idx])
    sol = _solve_linear(rows, rhs)
    if sol is None:
        return None
    alpha = Polynomial(sol[:i] + [pin])
    beta = Polynomial(sol[i:])
    c = alpha.compose(a)
    shift = c[0]
    if shift:
        alpha = alpha - shift
        beta = beta - shift
        c = c - shift
    if c != beta.compose(b):
        raise PostconditionError("linear solve produced an inconsistent witness")
    return c, alpha, beta
