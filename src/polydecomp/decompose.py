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
from operator import mul

from .poly import MAX_DEGREE, Polynomial, PostconditionError, compose_all
from .roots import (
    _FIRST_PRIME,
    _eval_int_mod,
    _int_series_root,
    _next_prime,
    _primitive,
    divisors,
)

# `right_factor` interpolates, and the class search peels left factors,
# on dense inputs from this degree up (see `_peels_left`).  `classes`
# latency_p95_ms in ms by floor (`perfbench/run.py --seconds 40`, seed 1,
# two runs each, Python 3.11.7 on 2 cores): 768 27.3 / 27.7, 512 24.6 /
# 24.0, 384 22.4 / 23.4, 300 22.1 / 22.7; below degree 400 no single
# input gained.  With the floor at 256 the class search on degrees
# 256-511 was 1.28 times slower.
_PEEL_MIN_DEGREE = 384

# `right_factor` tries the modular reject on right degrees from this one up.
# Below it the test cost more than it saved: on every guarded split it
# ran 860 times per `classes` pass at about 41 us each below degree 100.
_MODULAR_MIN_DEGREE = 64


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


def canonicalize(factors) -> tuple[Polynomial, ...]:
    """Thread units right to left until all non-leftmost factors are monic
    with zero constant term.  Preserves the composition exactly; a factor
    already in that form passes no unit to its left neighbour."""
    fs = list(factors)
    for i in range(len(fs) - 1, 0, -1):
        u, core = fs[i].canonical_core()
        if not u.is_identity:
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
            fs[i] = fs[i] * (1 / mu)
            fs[i - 1] = fs[i - 1].scale_arg(mu)
    return tuple(fs)


def _proper_divisors(n: int) -> list[int]:
    return [d for d in divisors(n) if 1 < d < n]


def right_factor(a: Polynomial, d: int) -> tuple[Polynomial, Polynomial] | None:
    """Split a = g . h with deg(h) = d, h monic and h(0) = 0, if possible.

    The top d coefficients of a pin the candidate h: after normalizing a to
    monic with zero constant term, the reversed coefficient sequence must be
    the m-th power (m = deg(a)/d) of h's reversed sequence, which an exact
    integer power-series root recovers term by term.  A split forces each
    reversed coefficient r_j of h to satisfy da^j r_j in Z (da the lcm of
    the normalized a's denominators), so the root rejects at the first term
    that fails.  When every prime of m divides da that test cannot fail
    early, so for d >= 64 and m^2 <= n a reject modulo a prime runs first
    (`_rejects_mod_prime`).

    g comes from one of two engines, chosen by cost: by interpolation
    (`_interpolated_digits`) when m^3 <= n and a passes `_peels_left`,
    else as the base-h digits of a (`_constant_digits`).  The canonical h
    of a given degree is unique, so both give the same (g, h) or both
    None, and a None return is a proof of absence.
    """
    if a.is_constant or a.degree < 2:
        raise ValueError("right_factor needs a polynomial of degree >= 2")
    n = a.degree
    if d <= 1 or d >= n or n % d:
        raise ValueError(f"degree {d} is not a proper divisor of {n}")
    m = n // d
    ai = _ahat_numerators(a)
    # m divides da^m exactly when every prime of m divides da: the series
    # root then cannot reject early (see `_rejects_mod_prime`).
    if (
        d >= _MODULAR_MIN_DEGREE
        and m * m <= n
        and pow(ai[-1], m, m) == 0
        and _rejects_mod_prime(ai, d, m)
    ):
        return None
    # The root reads the top d coefficients of ahat, reversed, and returns
    # h's reversed coefficients as numerators over one denominator.
    root = _int_series_root(ai[n : n - d : -1], m, d)
    if root is None:
        return None
    num, den = root
    digits = _interpolated_digits if m**3 <= n and _peels_left(a) else _constant_digits
    g = digits(ai, ai[-1], num, den, m)
    if g is None:
        return None
    return g * a.lead + a[0], Polynomial.from_ints([0, *reversed(num)], den)


def _ahat_numerators(a: Polynomial) -> list[int]:
    """ahat = (a - a(0)) / lead as ai / da, da = ai[-1]: the numerators of a
    with the constant cleared, made primitive with a positive lead.  Since
    ahat is monic, da is then exactly the lcm of ahat's denominators."""
    return _primitive([0, *a.num[1:]])


def _reject_prime(mda: int, d: int) -> int | None:
    """The largest prime p, d <= p < 2^15, that does not divide mda, or None.

    Below 2^15 the product of two residues fits in one 30-bit CPython
    digit.  A p below d would divide some j < d, which the series root
    divides by, and the floor also ends the walk on an mda that every
    prime in range divides.
    """
    p = _FIRST_PRIME
    while mda % p == 0:
        p = _next_prime(p, -2)
        if p < d:
            return None
    return p


def _distinct_nodes(value, m: int) -> dict | None:
    """{value(t): t} over the first m + 2 of t = 0, 1, -1, 2, -2, ... with
    distinct values, or None when the first 4(m + 2) give fewer."""
    nodes: dict = {}
    for k in range(4 * (m + 2)):
        t = (k + 1) // 2 if k % 2 else -(k // 2)
        nodes.setdefault(value(t), t)
        if len(nodes) == m + 2:
            return nodes
    return None


def _rejects_mod_prime(ai: list[int], d: int, m: int) -> bool:
    """True when ahat = ai / da, of degree n = m*d, is proved to have no
    split g . h with deg(h) = d, modulo a prime p with d <= p < 2^15, so
    that the product of two residues fits in one 30-bit CPython digit,
    and p not dividing m*da.  False proves nothing.

    A split over Q has h and the base-h digits of ahat, g's coefficients,
    p-integral: da^j r_j is an integer for each reversed coefficient r_j
    of h (see `_int_series_root`) and p does not divide da, and division
    by the monic h keeps p-integral values p-integral.  So the split
    survives reduction mod p.  There h is the series root of ahat's top d
    coefficients, unique because p does not divide m, and ai(t) =
    da * g(h(t)) mod p at every integer t.  Over m + 2 values of t whose
    h(t) differ mod p, the values ai(t) thus lie on a polynomial of degree
    at most m in h(t), so their top divided difference is 0 mod p.  A
    nonzero one is a proof that no split exists, as the series root's own
    reject is, not a probabilistic step.  With too few distinct nodes
    nothing is rejected.
    """
    n = m * d
    p = _reject_prime(m * ai[-1], d)
    if p is None:
        return False
    # The root's recurrence (see `_int_series_root`) over one-digit
    # residues: m j r_j da = sum over k < j of (j - (m+1) k) f[j-k] r_k.
    f = [c % p for c in ai[n : n - d : -1]]
    inv_mda = pow(m * f[0], -1, p)
    r = [1]
    kr = [0]
    for j in range(1, d):
        fr = f[j:0:-1]
        t = j * sum(map(mul, fr, r)) - (m + 1) * sum(map(mul, fr, kr))
        c = t % p * inv_mda % p * pow(j, -1, p) % p
        r.append(c)
        kr.append(j * c % p)
    hbar = [0, *reversed(r)]
    nodes = _distinct_nodes(lambda t: _eval_int_mod(hbar, t, p), m)
    if nodes is None:
        return False
    # The top divided difference, sum of ai(t_i) / prod_{k != i} (u_i - u_k).
    abar = [c % p for c in ai]
    top = 0
    for u, t in nodes.items():
        w = 1
        for v in nodes:
            if v != u:
                w = w * (u - v) % p
        top += _eval_int_mod(abar, t, p) * pow(w, -1, p)
    return top % p != 0


def _coprime_base(nums) -> list[int]:
    """Pairwise coprime integers > 1 whose products of powers give every
    one of nums (positive integers): a coprime base in Bernstein's sense,
    by plain quadratic gcd refinement.  A pair with a common factor g is
    replaced by g and the two cofactors, which lowers the product of
    everything in play by g, so the refinement ends."""
    base: list[int] = []
    todo = [x for x in nums if x > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                del base[i]
                todo.extend(y for y in (g, x // g, b // g) if y > 1)
                break
        else:
            base.append(x)
    return base


def _weighted_denominator(num: list[int], den: int) -> int:
    """An s with s^j r_j in Z for every r_j = num[j] / den, j >= 1, that
    divides den = lcm(q_j), the reduced denominators.

    q_1 divides every such s, so q_1 is the least one when it qualifies.
    Otherwise, over a coprime base b of the q_j, s is the product of
    b^max_j(ceil(v_b(q_j) / j)): the least such s when the base elements
    are prime, found without factoring.
    """
    if den == 1:
        return 1
    qs = [den // math.gcd(c, den) for c in num[1:]]
    if not any(pow(qs[0], j, q) for j, q in enumerate(qs, 1)):
        return qs[0]
    s = 1
    for b in _coprime_base(set(qs)):
        need = 0
        for j, q in enumerate(qs, 1):
            v = 0
            while q % b == 0:
                q //= b
                v += 1
            if v > need * j:
                need = -(-v // j)
        s *= b**need
    return s


def _constant_digits(
    ai: list[int], da: int, num: list[int], den: int, m: int
) -> Polynomial | None:
    """The polynomial whose coefficients are the base-h digits of
    ahat = ai / da when all of those digits are constants; else None.

    ahat is monic with zero constant term, and da is the lcm of its
    denominators.  h is monic with zero constant term and reversed
    coefficients r_j = num[j] / den, each with da^j r_j in Z (checked by
    the series root).  With s from `_weighted_denominator`, s^d h(x/s) is
    monic over Z, and substituting x -> x/s and multiplying through turns
    the repeated division into pure integer synthetic division by it: no
    rational normalization happens inside the loop.  s divides den, the
    lcm of h's denominators, so the scaled integers are never larger than
    with den in its place, and usually far smaller.
    """
    d = len(num)
    n = len(ai) - 1
    s = _weighted_denominator(num, den)
    spow = [1] * (n + 1)
    for j in range(1, n + 1):
        spow[j] = spow[j - 1] * s
    # The nonzero low taps of h(x/s) * s^d; tap 0 is h(0) = 0 and tap d is 1.
    taps = [(j, b) for j in range(1, d) if (b := num[d - j] * spow[d - j] // den)]
    # ahat(x/s) * da * s^n, with integer coefficients.
    cur = [c * spow[n - j] for j, c in enumerate(ai)]
    scaled: list[int] = []
    for _ in range(m):
        qlen = len(cur) - d
        q = [0] * qlen
        for k in range(qlen - 1, -1, -1):
            c = cur[k + d]
            if c:
                q[k] = c
                for j, bj in taps:
                    cur[k + j] -= c * bj
        if any(cur[j] for j in range(1, d)):
            return None
        scaled.append(cur[0])
        cur = q
    # m rounds of d-term division leave n + 1 - m*d = 1 coefficient.
    scaled.append(cur[0])
    # Digit i is scaled[i] / (da * s^(d*(m-i))); over da * s^n it is
    # scaled[i] * s^(d*i).
    return Polynomial.from_ints(
        [dig * spow[d * i] for i, dig in enumerate(scaled)], da * spow[n]
    )


def _int_eval(cs: list[int], t: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = acc * t + c
    return acc


def _interpolated_digits(
    ai: list[int], da: int, num: list[int], den: int, m: int
) -> Polynomial | None:
    """The g of `_constant_digits`, found by interpolation instead and
    accepted only by the exact composition g . h == ahat; else None.

    With H = den * h and A = ai, both over Z, g . h = ahat means that
    P(y) = da * g(y / den) takes the value A(t) at the node H(t) for every
    integer t.  Nodes come from t = 0, 1, -1, 2, -2, ..., skipping repeats.
    Newton's divided differences through the first m + 1 distinct nodes
    give the only candidate P of degree at most m, and the top difference
    over m + 2 of them is its disagreement at the last one: a nonzero one
    proves there is no split.
    Agreement at m + 2 points proves nothing, since a - g . h may vanish
    at every small integer, so the composition decides.  When the first
    4(m + 2) points give too few distinct nodes the digits decide.
    """
    hnum = [0, *reversed(num)]
    nodes = _distinct_nodes(lambda t: _int_eval(hnum, t), m)  # H(t) -> t
    if nodes is None:
        return _constant_digits(ai, da, num, den, m)
    us = list(nodes)
    dd = [Fraction(_int_eval(ai, t)) for t in nodes.values()]
    for k in range(1, m + 2):
        for i in range(m + 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (us[i] - us[i - k])
    if dd[m + 1]:
        return None
    # P from its Newton form, innermost factor first.
    p = [dd[m]]
    for k in range(m - 1, -1, -1):
        p = [b - us[k] * c for b, c in zip([0, *p], [*p, 0])]
        p[0] += dd[k]
    g = Polynomial([c * den**k / da for k, c in enumerate(p)])
    if g.compose(Polynomial.from_ints(hnum, den)) != Polynomial.from_ints(ai, da):
        return None
    return g


def _least_split(a: Polynomial) -> tuple[Polynomial, Polynomial] | None:
    """`right_factor` at the least proper divisor degree that splits a."""
    for d in _proper_divisors(a.degree):
        split = right_factor(a, d)
        if split is not None:
            return split
    return None


@lru_cache(maxsize=4096)
def is_indecomposable(a: Polynomial) -> bool:
    """True when a (degree >= 2) is not a composition of two non-units."""
    if a.is_constant or a.degree < 2:
        raise ValueError("indecomposability is defined for degree >= 2")
    return _least_split(a) is None


def complete_decomposition(a: Polynomial) -> Decomposition:
    """Greedy canonical decomposition into indecomposables.

    At each step the smallest proper divisor degree admitting a right
    factor is stripped; the stripped factor is itself indecomposable, since
    any splitting of it would expose a smaller right factor of the whole.
    """
    if a.is_constant or a.degree < 2:
        raise ValueError("decomposition is defined for degree >= 2")
    work, rights = a, []
    while (split := _least_split(work)) is not None:
        work, h = split
        rights.append(h)
    # The factors recompose to a by construction; no need to re-expand.
    return Decomposition((work, *reversed(rights)), a)


def _peels_left(p: Polynomial) -> bool:
    """Is p large and dense enough to be peeled from the left?  On sparse
    input the digit loop is cheap and interpolation nodes are huge."""
    return p.degree >= _PEEL_MIN_DEGREE and 8 * p.num.count(0) <= p.degree


def _first_decomposition(a: Polynomial) -> tuple[Polynomial, ...]:
    """A canonical complete decomposition of a for the class search.

    When a passes `_peels_left`, its left factor g of least degree m is
    peeled off first, trying m = 2, 3, ... among the divisors of n with
    m^3 <= n, and the search goes on with h, which is monic with zero
    constant, so every factor but the first is canonical.  g is
    indecomposable: a split g = g1 . g2 would make g1 a left factor of a
    of a smaller degree, already ruled out.  Otherwise, or when no such m
    splits, `complete_decomposition` gives it.
    """
    n = a.degree
    if _peels_left(a):
        for m in _proper_divisors(n):
            if m**3 > n:
                break
            split = right_factor(a, n // m)
            if split is not None:
                return (split[0], *_first_decomposition(split[1]))
    return complete_decomposition(a).factors


@lru_cache(maxsize=256)
def enumerate_classes(a: Polynomial) -> tuple[Decomposition, ...]:
    """All unit-equivalence classes of complete decompositions of a, each
    as its canonical Decomposition, sorted by degree sequence and then by
    coefficients.  Raises ValueError below degree 2.

    A worklist search from one complete decomposition: each move
    recombines an adjacent factor pair and re-splits the product at every
    other proper divisor degree.  By Ritt's first theorem any start reaches
    every class; `_first_decomposition` gives it, peeling short left
    factors first off a large dense a.  Every state is canonical, so
    coefficient equality dedups classes: `right_factor` gives h monic with
    h(0) = 0 and a g with the lead and constant of the pair product, itself
    monic with zero constant when both factors are.  Every split is into
    indecomposables: by Ritt's first theorem (Engstrom's form) all complete
    decompositions of the pair product have length 2, as the pair does.
    """
    if a.is_constant or a.degree < 2:
        raise ValueError("decomposition is defined for degree >= 2")
    start = _first_decomposition(a)
    seen = {start}
    todo = [start]
    while todo:
        fs = todo.pop()
        for i in range(len(fs) - 1):
            pair_product = fs[i].compose(fs[i + 1])
            skip = fs[i + 1].degree
            for d in _proper_divisors(pair_product.degree):
                if d == skip:
                    continue
                split = right_factor(pair_product, d)
                if split is None:
                    continue
                cand = fs[:i] + split + fs[i + 2:]
                if cand not in seen:
                    seen.add(cand)
                    todo.append(cand)

    def sort_key(fs: tuple[Polynomial, ...]):
        return (
            tuple(f.degree for f in fs),
            tuple(tuple(f[i] for i in range(len(f.num))) for f in fs),
        )

    return tuple(Decomposition(fs, a) for fs in sorted(seen, key=sort_key))


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


class CompositeTooLargeError(ValueError):
    """A common composite whose search would keep too many power terms."""


# The most coefficients the powers of one `common_composite` pass may
# hold.  Dense 61/67 (261,568 of them) takes about 2.5 s; dense (3, 1364)
# (2.80M) reached 800 MB and dense (2, 2047) (4.19M) did not finish in
# 600 s.
_COMPOSITE_MAX_POWER_TERMS = 300_000


def _outer_coefficients(
    a: Polynomial, b: Polynomial, i: int, j: int
) -> tuple[list, list] | None:
    """Coefficient lists of alpha (degree i) and beta (degree j) with
    alpha . a = beta . b, alpha's lead 1 / lead(a)^i so that the composite
    is monic, and alpha(0) = 0; None when no such pair exists.

    The system is triangular.  With N = i*deg(a) = j*deg(b) the lcm of the
    degrees, alpha . a - beta . b is a combination of the powers a^k, which
    lead at row k*deg(a), and b^l, which lead at row l*deg(b).  No row
    0 < r < N leads one power of each kind, since r would then be a common
    multiple of the degrees below their lcm.  So one pass from row N down
    fixes beta_l at row l*deg(b) (row N included, alpha's lead being
    pinned), fixes alpha_k at row k*deg(a), and stops at the first other
    row left nonzero, which proves that no pair exists.  At row 0 both
    constants lead; alpha(0) = 0 takes up that freedom.
    """
    pow_a = [Polynomial.const(1)]
    for _ in range(i):
        pow_a.append(pow_a[-1] * a)
    pow_b = [Polynomial.const(1)]
    for _ in range(j):
        pow_b.append(pow_b[-1] * b)
    alpha = [0] * (i + 1)
    beta = [0] * (j + 1)
    alpha[i] = 1 / a.lead**i
    rest = pow_a[i] * alpha[i]  # alpha . a - beta . b so far
    for row in range(i * a.degree, 0, -1):
        k, ka = divmod(row, a.degree)
        l, lb = divmod(row, b.degree)
        if lb == 0:
            beta[l] = rest[row] / pow_b[l].lead
            rest = rest - pow_b[l] * beta[l]
        elif ka == 0:
            alpha[k] = -rest[row] / pow_a[k].lead
            rest = rest + pow_a[k] * alpha[k]
        elif rest[row]:
            return None
    beta[0] = rest[0]
    return alpha, beta


def common_composite(
    a: Polynomial, b: Polynomial, degree_bound: int = MAX_DEGREE
) -> tuple[Polynomial, Polynomial, Polynomial] | None:
    """Least common composite: c = alpha . a = beta . b at degree lcm(da, db).

    The unknown coefficients of alpha and beta enter linearly, and the
    system is triangular: one top-down pass over the coefficients decides
    existence (see `_outer_coefficients`).  When a common composite exists
    at all it exists at the lcm degree, which is the only degree solved.
    Returns (c, alpha, beta) with c monic and c(0) = 0, or None.

    The pass keeps the powers a^k for k <= N/deg(a) and b^l for
    l <= N/deg(b), N the lcm: about (N/deg(a) + N/deg(b)) * N/2
    coefficients.  Above `_COMPOSITE_MAX_POWER_TERMS` of them
    `CompositeTooLargeError` is raised before any power is built.
    """
    if a.is_constant or a.degree < 2 or b.is_constant or b.degree < 2:
        raise ValueError("common_composite needs two polynomials of degree >= 2")
    target = math.lcm(a.degree, b.degree)
    if target > degree_bound:
        raise ValueError(
            f"least common composite degree {target} exceeds bound {degree_bound}"
        )
    i, j = target // a.degree, target // b.degree
    terms = (i + j) * target // 2
    if terms > _COMPOSITE_MAX_POWER_TERMS:
        raise CompositeTooLargeError(
            f"least common composite of degrees {a.degree} and {b.degree} needs "
            f"powers of {terms} coefficients, above {_COMPOSITE_MAX_POWER_TERMS}"
        )
    sol = _outer_coefficients(a, b, i, j)
    if sol is None:
        return None
    alpha, beta = Polynomial(sol[0]), Polynomial(sol[1])
    c = alpha.compose(a)
    shift = c[0]
    if shift:
        alpha = alpha - shift
        beta = beta - shift
        c = c - shift
    if c != beta.compose(b):
        raise PostconditionError("linear solve produced an inconsistent witness")
    return c, alpha, beta
