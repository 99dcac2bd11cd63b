"""Integer and rational root machinery.

Root sets are checked against planted constructions: build the polynomial
from chosen roots, then the answer is known before the code under test
runs. Root sets are also compared with sympy's ``ground_roots``, an
independent exact oracle used in tests only, on planted inputs with small
and with 60-bit cofactors.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from polydecomp.parsing import parse
from polydecomp.poly import MAX_LITERAL_DIGITS, ONE, Polynomial, X
from polydecomp.roots import (
    _FIRST_PRIME,
    count_real_roots,
    divisors,
    is_probable_prime,
    poly_gcd,
    poly_kth_root,
    rational_kth_root,
    rational_roots,
    squarefree_decomposition,
)


# The first prime rational_roots tries.
Q0 = _FIRST_PRIME


def poly_with_roots(roots, cofactor=ONE, lead=1):
    q = Polynomial.const(F(lead))
    for r in roots:
        q = q * Polynomial([-F(r), F(1)])
    return q * cofactor


def sympy_rational_roots(q):
    import sympy

    coeffs = [sympy.Rational(c, q.den) for c in reversed(q.num)]
    found = sympy.Poly(coeffs, sympy.Symbol("x"), domain="QQ").ground_roots()
    return tuple(sorted(F(int(r.p), int(r.q)) for r in found))


class TestIntegerHelpers:
    def test_divisors_oracle(self):
        assert divisors(672) == [
            1, 2, 3, 4, 6, 7, 8, 12, 14, 16, 21, 24,
            28, 32, 42, 48, 56, 84, 96, 112, 168, 224, 336, 672,
        ]
        assert divisors(1) == [1]
        assert divisors(97) == [1, 97]
        assert divisors(2**20) == [2**i for i in range(21)]
        assert divisors(1009 * 1013) == [1, 1009, 1013, 1009 * 1013]
        with pytest.raises(ValueError):
            divisors(0)

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=80)
    def test_divisors_structure(self, n):
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert all(a < b for a, b in zip(ds, ds[1:]))
        assert {n // d for d in ds} == set(ds)
        assert ds[0] == 1 and ds[-1] == n

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert divisors(49) == [1, 7, 49]
        for n in range(1, 2001):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n

    def test_primality_against_sieve(self):
        limit = 10_000
        sieve = [True] * (limit + 1)
        sieve[0] = sieve[1] = False
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
        for n in range(limit + 1):
            assert is_probable_prime(n) == sieve[n], n

    def test_primality_large(self):
        assert is_probable_prime(2**61 - 1)
        assert not is_probable_prime(2**61 + 1)
        # Carmichael numbers fool Fermat tests but not this one
        for n in (561, 1729, 294409, 56052361):
            assert not is_probable_prime(n)


class TestRationalRoots:
    def test_planted_small(self):
        q = poly_with_roots([2, -5, F(1, 3)], cofactor=parse("x^2 + 1"))
        assert set(rational_roots(q)) == {F(2), F(-5), F(1, 3)}

    @pytest.mark.parametrize(
        "q",
        [
            poly_with_roots([F(-7, 3)], lead=-2),
            poly_with_roots([2, -5, F(1, 3)], cofactor=parse("x^2 + 1"), lead=-1),
            poly_with_roots([F(3, 4), F(3, 4), -1], cofactor=parse("x^2 - 2"), lead=-6),
            parse("x^2") * poly_with_roots([F(-9, 5), 4], lead=F(-2, 7)),
        ],
        ids=str,
    )
    def test_negated_input_has_the_same_roots(self, q):
        assert q.lead < 0
        assert rational_roots(-q) == rational_roots(q)

    def test_no_rational_roots(self):
        assert rational_roots(parse("x^2 + 1")) == ()
        assert rational_roots(parse("x^2 - 2")) == ()

    def test_zero_root_and_multiplicity(self):
        q = parse("x^3") * poly_with_roots([F(7, 2)]) ** 2
        assert set(rational_roots(q)) == {F(0), F(7, 2)}

    def test_returns_sorted(self):
        q = poly_with_roots([3, -1, F(-1, 2)])
        assert list(rational_roots(q)) == sorted(rational_roots(q))

    def test_planted_huge_coefficients(self):
        # an irrational cofactor with 60-bit coefficients makes the
        # extreme coefficients far too large to enumerate their divisors
        cof = Polynomial([F(2**61 - 1), F(2**60), F(1)])
        q = poly_with_roots([F(-3, 2), 5], cofactor=cof)
        assert set(rational_roots(q)) == {F(-3, 2), F(5)}

    def test_huge_no_roots(self):
        cof = Polynomial([F(2**61 - 1), F(2**60), F(1)])
        assert rational_roots(cof * cof) == ()
        # modular roots of these lift to fractions within the coefficient
        # bounds that are not roots; only the exact check rejects them
        assert rational_roots(parse(
            "960623497610179316x^2 - 225049982576642288x + 628869966819335509"
        )) == ()
        assert rational_roots(parse(
            "623380847x^3 + 405543113x^2 - 280847131x - 603491762"
        )) == ()
        # the same for the prime below 2^30, on a squarefree input and
        # on one whose squarefree part is split off over Q first
        cubic = parse("-937711753x^3 + 138251922x^2 + 980677840x + 400227407")
        assert rational_roots(cubic) == ()
        assert rational_roots(cubic * cubic) == ()
        # and for Q0: each has a root mod Q0 whose lift reconstructs to
        # 2873/4051 and -40/3307, inside the coefficient bounds
        for src in ("7638x^2 + 16109x + 12313", "12890x^3 + 16342x^2 + 2238x + 3497"):
            q = parse(src)
            assert rational_roots(q) == () == sympy_rational_roots(q)

    @pytest.mark.parametrize(
        "q",
        [
            # squarefree over Q, but its two roots meet mod Q0
            poly_with_roots([1, 1 + Q0]),
            poly_with_roots([F(1, Q0), -2], cofactor=parse("x^2 + 3")),
            poly_with_roots([F(-5, 3)], cofactor=parse("x^2 + 1"), lead=7 * Q0),
            parse("x - 1") ** 2 * parse("x^2 + 1"),
            parse("x^2 - 2") ** 2 * parse("3x - 1"),
        ],
        ids=["collide-mod-q0", "root-1/q0", "lead-divisible-by-q0", "double-root", "double-irrational"],
    )
    def test_bad_first_prime_and_repeated_factors(self, q):
        assert rational_roots(q) == sympy_rational_roots(q)

    def test_rational_gcd_only_when_the_modular_test_fails(self, monkeypatch):
        calls = []

        def spy(a, b):
            calls.append((a, b))
            return poly_gcd(a, b)

        monkeypatch.setattr("polydecomp.roots.poly_gcd", spy)
        assert rational_roots(parse("x - 1") * parse("x^2 + 1")) == (F(1),)
        assert calls == []
        assert rational_roots(parse("x - 1") ** 2 * parse("x^2 + 1")) == (F(1),)
        assert len(calls) == 1

    def test_many_bad_primes(self):
        # Every one of the first 600 primes from Q0 up divides either the
        # lead or the constant of a*x^2 + c, so each is bad for it; the walk
        # has no fixed bound and goes past them all.
        primes, q = [], Q0
        while len(primes) < 600:
            if is_probable_prime(q):
                primes.append(q)
            q += 2
        a, c = math.prod(primes[0::2]), math.prod(primes[1::2])
        quad = Polynomial([F(c), F(0), F(a)])
        assert rational_roots(quad) == ()
        assert rational_roots(quad * parse("x - 1")) == (F(1),)

    def test_bad_prime_walk_within_budget(self):
        # a is the product of the consecutive primes from Q0 up that fits in
        # one literal, and c of the next ones: each of the first 1858 primes
        # of the walk divides the lead or the constant of a*x^2 + c.
        def prime_run(q):
            """The product of the consecutive primes from the prime q up
            that stays below 10^MAX_LITERAL_DIGITS, and the next prime."""
            run, cap = 1, 10**MAX_LITERAL_DIGITS
            while run * q < cap:
                run *= q
                q += 2
                while not is_probable_prime(q):
                    q += 2
            return run, q

        a, q = prime_run(Q0)
        c, _ = prime_run(q)
        quad = Polynomial([c, 0, a])
        t0 = time.perf_counter()
        assert rational_roots(quad) == ()
        assert rational_roots(-quad) == ()
        assert time.perf_counter() - t0 < 0.5

    def test_planted_seeded(self):
        rng = random.Random(7)
        for _ in range(30):
            roots = [
                F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(rng.randint(0, 3))
            ]
            q = poly_with_roots(roots, cofactor=parse("x^2 + x + 1"))
            assert rational_roots(q) == tuple(sorted(set(roots)))

    def test_zero_valuation_split(self):
        q = parse("x^2") * poly_with_roots([-11, F(-3, 8)])
        assert rational_roots(q) == (F(-11), F(-3, 8), F(0))

    @given(
        roots=st.lists(
            st.fractions(min_value=-30, max_value=30, max_denominator=6), max_size=3
        ),
        repeat=st.booleans(),
        valuation=st.integers(min_value=0, max_value=2),
        cofactor=st.one_of(
            st.lists(st.integers(-3, 3), min_size=1, max_size=5),
            st.lists(st.integers(-(2**60), 2**60), min_size=1, max_size=4),
        )
        .map(Polynomial)
        .filter(lambda c: not c.is_zero),
    )
    @example(roots=[F(-7, 3)], repeat=False, valuation=0, cofactor=ONE)
    @example(roots=[], repeat=False, valuation=0, cofactor=Polynomial([F(3), F(2**60 + 1)]))
    @example(
        roots=[F(5, 2), F(-1)],
        repeat=True,
        valuation=2,
        cofactor=Polynomial([F(2**61 - 1), F(2**60), F(1)]),
    )
    @example(
        roots=[F(2**89 - 1, 3**60), F(-(5**40), 7**30 + 2)],
        repeat=False,
        valuation=1,
        cofactor=Polynomial([F(628869966819335509), F(-225049982576642288), F(960623497610179316)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_sympy(self, roots, repeat, valuation, cofactor):
        roots = roots + roots[:1] if repeat else roots
        q = Polynomial([F(0)] * valuation + [F(1)]) * poly_with_roots(roots, cofactor)
        assert rational_roots(q) == sympy_rational_roots(q)

    @given(
        roots=st.lists(
            st.fractions(min_value=-30, max_value=30, max_denominator=6),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60)
    def test_planted_property(self, roots):
        q = poly_with_roots(roots, cofactor=parse("x^4 + x^2 + 1"))
        assert set(rational_roots(q)) == set(F(r) for r in roots)


class TestPolyGcd:
    def test_oracle(self):
        a = parse("x^2 + 3x + 2")  # (x+1)(x+2)
        b = parse("x^2 + 4x + 3")  # (x+1)(x+3)
        assert poly_gcd(a, b) == parse("x + 1")

    def test_coprime_is_one(self):
        g = poly_gcd(parse("x^2 + 1"), parse("x^3 - 2"))
        assert g.is_constant and not g.is_zero

    def test_monic_result(self):
        g = poly_gcd(parse("4x^2 - 4"), parse("6x^2 + 12x + 6"))
        assert g == parse("x + 1")

    @given(
        a=st.lists(st.integers(-5, 5), min_size=2, max_size=5).map(Polynomial),
        b=st.lists(st.integers(-5, 5), min_size=2, max_size=5).map(Polynomial),
    )
    @settings(max_examples=60)
    def test_divides_both(self, a, b):
        if a.is_zero or b.is_zero:
            return
        g = poly_gcd(a, b)
        assert (a % g).is_zero
        assert (b % g).is_zero


def test_squarefree_decomposition():
    target = parse("x + 2") * parse("x - 1") ** 2 * parse("x + 1") ** 3 * 5
    content, parts = squarefree_decomposition(target)
    assert parts == {1: parse("x + 2"), 2: parse("x - 1"), 3: parse("x + 1")}
    rebuilt = Polynomial.const(content)
    for mult, factor in parts.items():
        rebuilt = rebuilt * factor**mult
    assert rebuilt == target


def test_squarefree_of_squarefree():
    content, parts = squarefree_decomposition(parse("2x^2 - 2"))
    assert content == 2
    assert parts == {1: parse("x^2 - 1")}


def sympy_squarefree_decomposition(q):
    import sympy

    coeffs = [sympy.Rational(c, q.den) for c in reversed(q.num)]
    lead, factors = sympy.Poly(coeffs, sympy.Symbol("x"), domain="QQ").sqf_list()

    def poly(f):
        return Polynomial(F(int(c.p), int(c.q)) for c in reversed(f.monic().all_coeffs()))

    return F(int(lead.p), int(lead.q)), {k: poly(f) for f, k in factors}


def _squarefree_cases():
    rng = random.Random(53)
    cases = []
    for _ in range(40):
        q = Polynomial.const(F(rng.choice((1, -1, 2, 5)), rng.randint(1, 7)))
        for _ in range(rng.randint(1, 4)):
            deg = rng.randint(1, 3)
            f = Polynomial([F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg)] + [F(1)])
            q = q * f ** rng.choice((1, 1, 2, 3, 4))
        cases.append(q)
    return cases


@pytest.mark.parametrize("q", _squarefree_cases(), ids=str)
def test_squarefree_decomposition_matches_sympy(q):
    assert squarefree_decomposition(q) == sympy_squarefree_decomposition(q)


@pytest.mark.parametrize(
    "q,gcds",
    [
        (parse("x - 1") * parse("x - 2") * parse("x^2 + 1"), 0),
        # squarefree over Q, but 32749 divides the lead of the numerators
        # of its monic form x^2 + x/Q0 + 1/Q0
        (Polynomial([1, 1, Q0]), 2),
        # squarefree over Q, but its two roots meet mod 32749
        (poly_with_roots([1, 1 + Q0]), 2),
        (parse("x^2 + 1") ** 2 * parse("x - 3"), 3),
    ],
    ids=["squarefree", "lead-divisible-by-q0", "collide-mod-q0", "repeated-factor"],
)
def test_squarefree_decomposition_gcd_only_when_the_modular_test_fails(monkeypatch, q, gcds):
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr("polydecomp.roots.poly_gcd", spy)
    assert squarefree_decomposition(q) == sympy_squarefree_decomposition(q)
    assert len(calls) == gcds


class TestRealRootCount:
    @pytest.mark.parametrize(
        "text,n",
        [
            ("x^2 + 1", 0),
            ("x^2 - 2", 2),
            ("x^3 - 3x", 3),
            ("x^2 - 2x + 1", 1),  # distinct roots, not multiplicity
            ("x^3 - 1", 1),
            ("x^5 - x", 3),
            ("80x^4 - 60x^2 + 5", 4),
        ],
    )
    def test_oracle(self, text, n):
        assert count_real_roots(parse(text)) == n

    def test_planted(self):
        q = poly_with_roots([0, 1, -2, F(5, 7)], cofactor=parse("x^2 + 3"))
        assert count_real_roots(q) == 4


class TestKthRoots:
    def test_rational(self):
        assert rational_kth_root(F(8), 3) == 2
        assert rational_kth_root(F(9, 4), 2) == F(3, 2)
        assert rational_kth_root(F(-27), 3) == -3
        assert rational_kth_root(F(2), 2) is None
        assert rational_kth_root(F(-4), 2) is None
        assert rational_kth_root(F(0), 5) == 0
        assert rational_kth_root(F(3**1000), 2) == 3**500
        assert rational_kth_root(F(3**1001), 2) is None
        assert rational_kth_root(F(-(2**3000), 3**300), 3) == F(-(2**1000), 3**100)

    def test_rational_near_powers(self):
        for k in range(2, 6):
            for n in range(300):
                assert rational_kth_root(F(n**k), k) == n, (n, k)
                if n >= 2:
                    assert rational_kth_root(F(n**k + 1), k) is None, (n, k)
                    assert rational_kth_root(F(n**k - 1), k) is None, (n, k)

    def test_poly(self):
        assert poly_kth_root(parse("x^2 + 2x + 1"), 2) == parse("x + 1")
        assert poly_kth_root(parse("4x^2"), 2) == parse("2x")
        assert poly_kth_root(parse("-x^3"), 3) == parse("-x")
        assert poly_kth_root(parse("x^2 + 1"), 2) is None
        assert poly_kth_root(parse("x^6"), 3) == parse("x^2")

    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize(
        "q", ["x + 1", "-2x^2 + 1/3", "3/2x^3 - x + 5", "x^2 + 1"]
    )
    def test_poly_odd_root_of_negation(self, q, k):
        target = parse(q) ** k
        assert poly_kth_root(-target, k) == -poly_kth_root(target, k)

    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_poly_near_powers(self, k):
        rng = random.Random(k)
        for _ in range(10):
            deg = rng.randint(1, 8)
            coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)]
            q = Polynomial(coeffs + [F(rng.choice((1, -2, 3)))])
            for target in (q**k, q.scale_arg(3) ** k):
                r = poly_kth_root(target, k)
                assert r**k == target
                assert r.lead == rational_kth_root(target.lead, k)
            assert poly_kth_root(q**k + 1, k) is None
            assert poly_kth_root(q**k * 2, k) is None

    @given(
        q=st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=2, max_size=4).map(Polynomial),
        k=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=50)
    def test_poly_roundtrip(self, q, k):
        if q.is_zero or q.is_constant:
            return
        r = poly_kth_root(q**k, k)
        assert r is not None
        assert r**k == q**k
