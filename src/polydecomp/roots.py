"""Rational roots, polynomial gcd, squarefree parts, and real-root counts.

Root finding is exact and complete over the rationals: roots of the
squarefree part are found modulo a prime, Hensel-lifted, and recovered by
rational reconstruction, and every candidate is verified by exact
evaluation before it is returned. A polynomial that is squarefree modulo
that prime, which does not divide its lead, is squarefree over Q, so the
rational gcd with the derivative runs only when that test fails. The
prime is the first good one from 32749, the largest prime below 2^15,
upward: below 2^15 the product of two residues fits in one 30-bit
CPython digit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .poly import Polynomial

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The largest prime below 2^15: the product of two residues fits in one
# 30-bit CPython digit, and a Frobenius power x^q takes 15 squarings.
_FIRST_PRIME = 32749


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Deterministic for n below ~3.3e24 with these bases.
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, by trial division."""
    if n < 1:
        raise ValueError("divisors expects a positive integer")
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def _next_prime(q: int, step: int) -> int:
    """The first probable prime q + k*step, k >= 1; step is 2 or -2."""
    q += step
    while not is_probable_prime(q):
        q += step
    return q


def _primitive(nums: Sequence[int]) -> list[int]:
    """nums over their content, signed so that the last entry is positive."""
    content = math.gcd(*nums)
    if nums[-1] < 0:
        content = -content
    return [c // content for c in nums]


def _pm_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_divmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod q; b must be monic.

    The coefficients of a may be any integers: each is reduced mod q once,
    when it leads the running remainder or when it is returned.
    """
    a = a[:]
    db = len(b) - 1
    low, qt = b[:db], []
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] % q
        qt.append(c)
        if c:
            for j, y in enumerate(low, k - db):
                a[j] -= c * y
    qt.reverse()
    return _pm_trim(qt), _pm_trim([x % q for x in a[:db]])


def _pm_monic(a: list[int], q: int) -> list[int]:
    inv = pow(a[-1], -1, q)
    return [(c * inv) % q for c in a]


def _pm_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        _, r = _pm_divmod(a, _pm_monic(b, q), q)
        a, b = b, r
    return _pm_monic(a, q) if a else a


def _pm_sqrmod(a: list[int], f: list[int], q: int) -> list[int]:
    """a^2 mod f mod q with f monic; the raw products are summed first, and
    each cross product a_i*a_j is formed once."""
    if not a:
        return []
    out = [0] * (2 * len(a) - 1)
    for i, ca in enumerate(a):
        if ca:
            out[2 * i] += ca * ca
            t = 2 * ca
            for j, cb in enumerate(a[i + 1:], 2 * i + 1):
                out[j] += t * cb
    return _pm_divmod(out, f, q)[1]


def _pm_powmod(c: int, e: int, f: list[int], q: int) -> list[int]:
    """(x + c)^e mod f mod q with f monic, scanning e from its top bit.

    Each bit costs one squaring, and each set bit one multiply by x + c:
    a shift, a scaled add and one reduction row.
    """
    df = len(f) - 1
    result = [1]
    for bit in bin(e)[2:]:
        result = _pm_sqrmod(result, f, q)
        if bit == "1":
            r = result + [0] * (df - len(result))
            t, rows = r[-1], zip([0] + r, r, f)
            result = _pm_trim([(lo + c * hi - t * y) % q for lo, hi, y in rows])
    return result


def _pm_linear_roots(g: list[int], q: int, salt: int = 1) -> list[int]:
    """Roots of a monic product of distinct linear factors mod q."""
    if len(g) <= 1:
        return []
    if len(g) == 2:
        return [(-g[0]) % q]
    c = salt
    while True:
        split = _pm_powmod(c, (q - 1) // 2, g, q)
        split = split[:] if split else [0]
        split[0] = (split[0] - 1) % q
        h = _pm_gcd(g, _pm_trim(split), q)
        if 0 < len(h) - 1 < len(g) - 1:
            rest, _ = _pm_divmod(g, h, q)
            return _pm_linear_roots(h, q, c + 1) + _pm_linear_roots(rest, q, c + 1)
        c += 1


def _eval_int_mod(ints: list[int], t: int, m: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = (acc * t + c) % m
    return acc


def _rat_reconstruct(t: int, m: int, num_bound: int, den_bound: int):
    """The fraction r/s with r = t*s mod m, |r| <= num_bound, 0 < s <= den_bound.

    Standard half-extended Euclid; returns None when no convergent fits
    the bounds. Completeness needs m > 2 * num_bound * den_bound, which
    the caller guarantees.
    """
    r0, r1 = m, t % m
    s0, s1 = 0, 1
    while r1 > num_bound:
        qq = r0 // r1
        r0, r1 = r1, r0 - qq * r1
        s0, s1 = s1, s0 - qq * s1
    if s1 < 0:
        s1, r1 = -s1, -r1
    if s1 > den_bound:
        return None
    return Fraction(r1, s1)


def _squarefree_image(ints: Sequence[int], q: int) -> list[int] | None:
    """The monic image of ints mod q, or None when q divides the lead or
    the image has a repeated factor."""
    if ints[-1] % q == 0:
        return None
    fbar = _pm_monic([c % q for c in ints], q)
    dbar = _pm_trim([i * c % q for i, c in enumerate(fbar)][1:])
    return fbar if len(_pm_gcd(fbar, dbar, q)) == 1 else None


def rational_roots(p: Polynomial) -> tuple[Fraction, ...]:
    """Exactly the rational roots of a nonzero polynomial, sorted.

    After splitting off the root 0, the roots of the squarefree part are
    found modulo the first prime from 32749 = 2^15 - 19 upward that keeps
    it squarefree and of full degree (below 2^15 the product of two
    residues fits in one 30-bit CPython digit), Hensel-lifted past twice
    the product of its extreme coefficients, and recovered by rational
    reconstruction. A candidate is returned only when p vanishes at it
    exactly.

    p is tested first at the prime itself. If q does not divide the lead
    of p and p has no repeated factor mod q, then p is squarefree over Q:
    a factor g^2 of p in Z[x] has lead(g) dividing lead(p), so g keeps its
    degree mod q and g^2 would survive. Only when this test fails is the
    rational gcd of p and p' computed, once, to split off the squarefree
    part.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has every point as a root")
    found: set[Fraction] = set()
    v = p.x_valuation()
    if v > 0:
        found.add(Fraction(0))
        p = Polynomial.from_ints(p.num[v:], p.den)
    if p.is_constant:
        return tuple(sorted(found))
    sints = _primitive(p.num)
    q = _FIRST_PRIME
    fbar = _squarefree_image(sints, q)
    if fbar is None:
        g = poly_gcd(p, p.derivative())
        if not g.is_constant:
            sints = _primitive((p // g).num)
            fbar = _squarefree_image(sints, q)
        # This walk ends: a prime is bad for the squarefree part only when
        # it divides the lead or the discriminant, and both are nonzero.
        while fbar is None:
            q = _next_prime(q, 2)
            fbar = _squarefree_image(sints, q)
    n = len(sints) - 1
    if n == 1:
        root = Fraction(-sints[0], sints[1])
        if p(root) == 0:
            found.add(root)
        return tuple(sorted(found))
    num_bound, den_bound = abs(sints[0]), abs(sints[-1])
    target = 2 * num_bound * den_bound + 1

    xq = _pm_powmod(0, q, fbar, q)
    xq = xq[:] if xq else [0, 0]
    while len(xq) < 2:
        xq.append(0)
    xq[1] = (xq[1] - 1) % q
    kernel = _pm_gcd(fbar, _pm_trim(xq), q)

    deriv = [i * c for i, c in enumerate(sints)][1:]
    for t in _pm_linear_roots(kernel, q):
        modulus = q
        while modulus < target:
            modulus *= modulus
            ft = _eval_int_mod(sints, t, modulus)
            inv = pow(_eval_int_mod(deriv, t, modulus), -1, modulus)
            t = (t - ft * inv) % modulus
        cand = _rat_reconstruct(t, modulus, num_bound, den_bound)
        if cand is not None and p(cand) == 0:
            found.add(cand)
    return tuple(sorted(found))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor (a constant gcd is returned as 1), by a
    primitive remainder sequence: each remainder is made primitive over Z,
    so its coefficients do not grow as in the rational Euclidean sequence."""
    while not b.is_zero:
        r = a % b
        a, b = b, Polynomial.from_ints(_primitive(r.num), 1) if r.num else r
    if a.is_zero:
        return a
    return a * (1 / a.lead)


def squarefree_decomposition(p: Polynomial) -> tuple[Fraction, dict[int, Polynomial]]:
    """Yun's algorithm: p = content * prod(part^mult), parts monic squarefree.

    Returns (content, {multiplicity: part}) with only nonconstant parts.
    No gcd runs when 32749 does not divide the lead of the monic p's
    numerators and p is squarefree modulo 32749, for then p is squarefree
    over Q (see `rational_roots`).
    """
    if p.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    content = p.lead
    p = p * (1 / content)
    if p.is_constant:
        return content, {}
    if _squarefree_image(p.num, _FIRST_PRIME) is not None:
        return content, {1: p}
    parts: dict[int, Polynomial] = {}
    g = poly_gcd(p, p.derivative())
    b = p // g
    c = p.derivative() // g
    d = c - b.derivative()
    i = 1
    while not b.is_constant:
        ai = poly_gcd(b, d)
        if not ai.is_constant:
            parts[i] = ai
        b = b // ai
        c = d // ai
        d = c - b.derivative()
        i += 1
    return content, parts


# Traced by perfbench/tracer.py's LAYERS, and a test oracle; the library never calls it.
def count_real_roots(p: Polynomial) -> int:
    """Number of distinct real roots, by a Sturm chain on the squarefree part."""
    if p.is_zero:
        raise ValueError("the zero polynomial is not admissible here")
    if p.is_constant:
        return 0
    g = poly_gcd(p, p.derivative())
    if not g.is_constant:
        p = p // g
    chain = [p, p.derivative()]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()

    def sign_changes(at_plus_infinity: bool) -> int:
        signs = []
        for q in chain:
            if q.is_zero:
                continue
            s = 1 if q.lead > 0 else -1
            if not at_plus_infinity and q.degree % 2 == 1:
                s = -s
            signs.append(s)
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    return sign_changes(False) - sign_changes(True)


def _integer_kth_root(n: int, k: int) -> int | None:
    """Exact k-th root of n >= 0, or None."""
    if n < 0:
        raise ValueError("negative radicand")
    if n < 2:
        return n
    # Integer Newton from above: 2^ceil(bits/k) exceeds the root, and the
    # iterates fall strictly until they reach floor(n^(1/k)).
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x**k == n else None
        x = y


def rational_kth_root(q: Fraction, k: int) -> Fraction | None:
    """Exact rational k-th root, respecting sign for odd k.  None if inexact."""
    if k < 1:
        raise ValueError("root index must be positive")
    if q < 0:
        if k % 2 == 0:
            return None
        r = rational_kth_root(-q, k)
        return None if r is None else -r
    num = _integer_kth_root(q.numerator, k)
    den = _integer_kth_root(q.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_series_root(f: Sequence[int], m: int, terms: int) -> tuple[list[int], int] | None:
    """The first `terms` coefficients r_j of (f / f[0])^(1/m), as integer
    numerators over one common denominator, or None.

    f holds integers with da = f[0] > 0: f / da is the reversed coefficient
    sequence of a monic p of degree n with da * p over Z, so the roots of
    da^n p(x/da), which is monic over Z, are algebraic integers.  Let R be
    monic of degree d with p = R^m, or with p = g . R for a monic g as in
    `right_factor`.  Every root of da^d R(x/da) - c, for c = 0 or c a root
    of da^n g(x/da^d), is then a root of da^n p(x/da), so the coefficients
    of da^d R(x/da) are integers (all but the constant one when p = g . R):
    da^j r_j is an integer for every term read.  The first term whose
    reduced denominator does not divide da^j therefore proves that no such
    R exists, and the root stops there.

    Term j comes from the x^(j-1) coefficient of m f r' = f' r:
    m j r_j da = sum over k < j of (j - (m+1) k) f[j-k] r_k.
    """
    da = f[0]
    num = [1]
    knum = [0]
    den = 1
    for j in range(1, terms):
        fr = f[j:0:-1]
        t = j * sum(map(mul, fr, num)) - (m + 1) * sum(map(mul, fr, knum))
        q = m * j * da * den
        g = math.gcd(t, q)
        t //= g
        q //= g
        if pow(da, j, q):
            return None
        if den % q:
            grow = q // math.gcd(den, q)
            den *= grow
            num = [c * grow for c in num]
            knum = [c * grow for c in knum]
        c = t * (den // q)
        num.append(c)
        knum.append(j * c)
    return num, den


def poly_kth_root(p: Polynomial, k: int) -> Polynomial | None:
    """The polynomial r with r**k == p, if one exists over the rationals:
    the series root of p / lead reversed, scaled by the lead's k-th root.

    The root runs on p's primitive numerators and stops at the first term
    whose denominator no polynomial root allows (see `_int_series_root`).
    """
    if k < 1:
        raise ValueError("root index must be positive")
    if p.is_zero:
        return p
    n = p.degree
    if n % k:
        return None
    lead_root = rational_kth_root(p.lead, k)
    if lead_root is None:
        return None
    ints = _primitive(p.num)
    root = _int_series_root(ints[::-1], k, n // k + 1)
    if root is None:
        return None
    num, den = root
    r = Polynomial.from_ints(reversed(num), den) * lead_root
    return r if r**k == p else None


def _split_power(w: Polynomial, l: int) -> tuple[int, Polynomial] | None:
    """(s, g) with w = lead(w) * x^s * g(x)^l and g monic, or None: the one
    reader of the power pattern x^s g^l that the swap recognisers share."""
    s = w.x_valuation()
    g = poly_kth_root(Polynomial.from_ints(w.num[s:], w.den) * (1 / w.lead), l)
    return None if g is None else (s, g)
