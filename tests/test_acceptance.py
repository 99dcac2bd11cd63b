"""Acceptance gate: eleven numbered criteria, one per test.

Each test is self-contained and asserts exact values; the conftest hook
prints a `criterion NN: PASS/FAIL` line per test so the run log shows
the gate at a glance. Criteria with a runtime budget measure their own
substantive work with perf_counter and assert the bound.

Criterion 8 pins an irregular element of degree 70,
x^2 . (x^5 + x^3) . (x^7 + x^2 + x). The inner septic is not odd on
purpose. A squaring passes an odd factor x^r g(x^2) (r odd) by the power
swap x^2 . x^r g(x^2) = x^r g^2 . x^2. With the odd septic x^7 + x it
passes both inner factors:
x^2 . (x^5 + x^3) = (x^5 + 2x^4 + x^3) . x^2 and
x^2 . (x^7 + x) = (x^7 + 2x^4 + x) . x^2. That gives a third class
ending in x^2, a length-3 A-decomposition and a regular element; the
test keeps it as the regular contrast, backed by an explicit witness.
With x^7 + x^2 + x the second swap is not available.
"""

import functools
import random
import time
from fractions import Fraction as F

from polydecomp.chebyshev import chebyshev
from polydecomp.classify import invariants_of_factors
from polydecomp.corpus import (
    cusp_corpus,
    even_core_composites,
    ritt_corpus,
    shifted_odd_composites,
)
from polydecomp.cusp import (
    apply_cusp_move,
    cusp_report,
    enumerate_A_decompositions,
    in_A,
    max_decompositions,
)
from polydecomp.decompose import (
    common_composite,
    enumerate_classes,
    right_factor,
    ritt1_check,
)
from polydecomp.oddmonoid import classify_odd_swap, is_odd
from polydecomp.parsing import parse
from polydecomp.poly import Polynomial, compose_all


@functools.lru_cache(maxsize=1)
def corpus_composites():
    return tuple(
        (factors, compose_all(factors)) for factors in ritt_corpus(seed=42, count=200)
    )


def test_criterion_01_chebyshev_composition_law():
    """Two classes at degree six; the index-multiplicative composition law;
    the quadratic member written through a unit."""
    t0 = time.perf_counter()

    classes = enumerate_classes(chebyshev(6))
    assert sorted(c.degree_sequence for c in classes) == [(2, 3), (3, 2)]

    for m in range(1, 31):
        for n in range(1, 31):
            if m * n <= 60:
                assert chebyshev(m).compose(chebyshev(n)) == chebyshev(m * n)

    assert chebyshev(2) == parse("2x - 1").compose(parse("x^2"))

    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_power_swap_identity():
    """The power-swap rewriting, pinned on its smallest instance and
    verified on 50 seeded (m, r, g) triples."""
    t0 = time.perf_counter()

    lhs = parse("x^2").compose(parse("x") * parse("x^2 + 1"))
    rhs = (parse("x") * parse("x + 1") ** 2).compose(parse("x^2"))
    assert lhs == rhs == parse("x^6 + 2x^4 + x^2")

    rng = random.Random(42)
    for _ in range(50):
        m = rng.choice((2, 3, 5))
        r = rng.randint(1, 4)
        gdeg = rng.randint(0, 4)
        coeffs = [F(rng.randint(-3, 3)) for _ in range(gdeg)]
        coeffs.append(F(rng.choice((1, -1, 2, 3))))
        g = Polynomial(coeffs)
        inflated = [F(0)] * (gdeg * m + 1)
        for i in range(gdeg + 1):
            inflated[i * m] = g[i]
        g_of_xm = Polynomial(inflated)
        left = Polynomial.monomial(m).compose(Polynomial.monomial(r) * g_of_xm)
        right = (Polynomial.monomial(r) * g**m).compose(Polynomial.monomial(m))
        assert left == right

    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_uniform_class_statistics():
    """Every element of the seeded 200-composite corpus has classes of one
    shared length and one shared degree multiset."""
    t0 = time.perf_counter()

    results = [ritt1_check(a) for _, a in corpus_composites()]
    assert len(results) == 200
    assert all(r.passed for r in results)

    assert time.perf_counter() - t0 < 60.0


def test_criterion_04_invariant_stability():
    """Shape-tag counters agree across every class of every corpus element,
    with no undetermined classifications anywhere."""
    for _, a in corpus_composites():
        reports = [invariants_of_factors(c.factors) for c in enumerate_classes(a)]
        assert reports, a
        first = reports[0]
        assert all(r == first for r in reports)
        assert all(not r.has_undetermined for r in reports)


def test_criterion_05_derivative_coprimality():
    """Derivatives of distinct prime members of the commuting family share
    no common root."""
    primes = (2, 3, 5, 7, 11, 13)
    from polydecomp.roots import poly_gcd

    for i, k in enumerate(primes):
        for l in primes[i + 1 :]:
            g = poly_gcd(chebyshev(k).derivative(), chebyshev(l).derivative())
            assert g.is_constant
            assert not g.is_zero


def test_criterion_06_odd_monoid():
    """The power-family swap witness, its classification, and the two
    never-odd sample families at a thousand samples each."""
    t0 = time.perf_counter()

    p = parse("x") * parse("x^2 + 1") ** 3
    q = parse("x^3")
    p_star = parse("x^3")
    q_star = parse("x") * parse("x^6 + 1")
    assert p.compose(q) == p_star.compose(q_star)

    swap = classify_odd_swap(p, q, p_star, q_star)
    assert swap.kind == "b"
    assert swap.s == 3
    assert swap.t == 1
    assert swap.alpha == parse("x + 1")

    shifted = shifted_odd_composites(seed=42, count=1000)
    assert len(shifted) == 1000
    assert sum(1 for a in shifted if is_odd(a)) == 0

    cores = even_core_composites(seed=42, count=1000)
    assert len(cores) == 1000
    assert sum(1 for a in cores if is_odd(a)) == 0

    assert time.perf_counter() - t0 < 30.0


def test_criterion_07_length_spread_and_max_instantiation():
    """The degree-8 element splits at lengths 2 and 3 in the semigroup;
    its report and its maximal instantiation are pinned exactly."""
    a = parse("x^8 + 2x^6 + x^4")

    lengths = sorted(set(len(m) for m in enumerate_A_decompositions(a).members))
    assert lengths == [2, 3]

    rep = cusp_report(a)
    assert rep.length == 3
    assert rep.index == 3
    assert rep.defect == 0
    assert rep.regular
    assert rep.rational_realizable

    inst = max_decompositions(a).bases[0].instantiate((F(0), F(-1, 2)))
    assert inst == (parse("x^2"), parse("x^2 - 1/4"), parse("x^2 + 1/2"))
    assert compose_all(inst) == a


def test_criterion_08_irregular_counterexample():
    """The degree-70 element x^2 . (x^5 + x^3) . (x^7 + x^2 + x) is
    irregular: index 2, defect 1, and maximal members at the two degree
    multisets {2,35} and {5,14}.

    Irregularity is also proved without the index code. A has no
    degree-1 elements, so a length-3 A-decomposition is a complete
    decomposition and, by Ritt's first theorem, ends in a factor of
    degree 2, 5 or 7. There is no right factor of degree 2 or 5, and
    every degree-7 one is a unit composed with h7, which is not critical
    at 0, so none lies in A.

    With the odd septic x^7 + x instead, the squaring moves to the right
    through two power swaps, and the element is regular. The explicit
    length-3 A-decomposition below shows it, through H = x^7 + 2x^4 + x,
    whose derivative (7x^3 + 1)(x^3 + 1) vanishes at -1."""
    odd = compose_all((parse("x^2"), parse("x^5 + x^3"), parse("x^7 + x")))
    witness = (
        parse("x^5 + 2x^4 + x^3"),
        parse("x^7 + 2x^4 + x").compose(parse("x - 1")),
        parse("x^2 + 1"),
    )
    assert compose_all(witness) == odd
    assert all(in_A(f) for f in witness)
    rep = cusp_report(odd)
    assert (rep.length, rep.index, rep.defect, rep.regular) == (3, 3, 0, True)
    assert max(enumerate_A_decompositions(odd).lengths) == rep.index

    t0 = time.perf_counter()

    a = compose_all((parse("x^2"), parse("x^5 + x^3"), parse("x^7 + x^2 + x")))
    assert a.degree == 70
    rep = cusp_report(a)
    sk = max_decompositions(a)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0

    assert rep.length == 3
    assert rep.index == 2
    assert rep.defect == 1
    assert not rep.regular
    assert sorted(sk.degree_multisets) == [(2, 35), (5, 14)]

    assert right_factor(a, 2) is None
    assert right_factor(a, 5) is None
    _, h7 = right_factor(a, 7)
    assert not in_A(h7)
    assert max(enumerate_A_decompositions(a).lengths) == rep.index


def test_criterion_09_regular_elements_share_multisets():
    """Every regular element of the seeded 50-element corpus has maximal
    members of a single degree multiset."""
    regular_seen = 0
    for factors in cusp_corpus(seed=42, count=50):
        a = compose_all(factors)
        rep = cusp_report(a)
        if not rep.regular:
            continue
        regular_seen += 1
        assert len(set(max_decompositions(a).degree_multisets)) == 1
    assert regular_seen > 0


def test_criterion_10_move_closure():
    """The terminal inward power move on the degree-10 pair, and the
    shift-transfer move undone by its inverse shift."""
    a = parse("x^10 + 2x^8 + x^6")
    start = (parse("x^2"), parse("x^5 + x^3"))
    assert compose_all(start) == a

    moved = apply_cusp_move(start, 1, "cb")
    assert moved.factors == (parse("x^5 + 2x^4 + x^3"), parse("x^2"))
    assert compose_all(moved.factors) == a
    assert all(in_A(f) for f in moved.factors)

    adm_start = (parse("x^2"), parse("x^2 + x"), parse("x^2"))
    there = apply_cusp_move(adm_start, 2, "adm", F(-1, 2))
    assert all(in_A(f) for f in there.factors)
    back = apply_cusp_move(there.factors, 2, "adm", F(1, 2))
    assert back.factors == adm_start


def test_criterion_11_common_composite_witnesses():
    """Least common composites: the monomial pair, the quadratic and cubic
    members of the commuting family, and a pair with none below degree 8."""
    got = common_composite(parse("x^2"), parse("x^3"))
    assert got is not None
    c, alpha, beta = got
    assert c == parse("x^6")
    assert alpha.compose(parse("x^2")) == c
    assert beta.compose(parse("x^3")) == c

    got = common_composite(chebyshev(2), chebyshev(3))
    assert got is not None
    c, alpha, beta = got
    assert alpha.compose(chebyshev(2)) == c
    assert beta.compose(chebyshev(3)) == c
    u, core = chebyshev(6).canonical_core()
    assert c == core

    assert common_composite(parse("x^2"), parse("x^2 + x"), 8) is None
