"""Shape taxonomy for indecomposable factors and the per-class counters.

critical_value_polynomial is checked against a live oracle: sympy's
resultant res_x(p'(x), p(x) - y), made monic, on seeded polynomials of
degree 2-12 and on products with repeated roots; a few values are also
frozen in CV_TABLE.  The classifier itself is exercised on examples whose
shape is visible by hand, and against `full_scan_classify`, which tries
power-outside at every rational root of the critical value polynomial.
"""

import math
import random
from fractions import Fraction as F

import pytest
import sympy

import polydecomp.classify as classify
import polydecomp.roots as roots
from polydecomp.classify import (
    ShapeClass,
    _power_outside_candidates,
    classify_shape,
    critical_value_polynomial,
    invariants_of_factors,
    ritt_invariants,
)
from polydecomp.chebyshev import chebyshev
from polydecomp.cli import _invariants_json
from polydecomp.corpus import indecomposable_factor
from polydecomp.decompose import complete_decomposition, enumerate_classes
from polydecomp.parsing import parse
from polydecomp.poly import MAX_DEGREE, ONE, Polynomial, Unit, compose_all
from polydecomp.roots import count_real_roots, rational_roots, squarefree_decomposition


class TestPowerShape:
    def test_pure_power(self):
        s = classify_shape(parse("x^5"))
        assert s.tag == "P"
        assert s.prime == 5
        assert s.center == 0

    def test_shifted_quadratic(self):
        s = classify_shape(parse("x^2 - 4x + 1"))
        assert s.tag == "P"
        assert s.prime == 2
        assert s.center == 2
        assert s.recompose() == parse("x^2 - 4x + 1")

    def test_scaled_quadratic(self):
        s = classify_shape(parse("2x^2 - 4x + 1"))
        assert s.tag == "P"
        assert s.center == 1
        assert s.recompose() == parse("2x^2 - 4x + 1")

    def test_every_quadratic_is_p(self):
        rng = random.Random(3)
        for _ in range(30):
            q = Polynomial([F(rng.randint(-9, 9)), F(rng.randint(-9, 9)), F(rng.choice((1, -1, 2, 5)))])
            assert classify_shape(q).tag == "P"


class TestPowerInside:
    def test_odd_tail(self):
        s = classify_shape(parse("x^5 + x^3"))
        assert s.tag == "Q"
        assert s.variant == "power-inside"
        assert s.prime == 2
        assert s.s == 3
        assert s.witness_g == parse("x + 1")
        assert s.recompose() == parse("x^5 + x^3")

    def test_chebyshev_five(self):
        s = classify_shape(chebyshev(5))
        assert (s.tag, s.variant, s.s) == ("Q", "power-inside", 1)
        assert s.witness_g == parse("16x^2 - 20x + 5")

    def test_depressed_cubic_trick(self):
        # any cubic recenters to x^3 + cx = x g(x^2), so no cubic is R
        s = classify_shape(parse("x^3 + 2x^2 + x"))
        assert s.tag == "Q"
        assert s.variant == "power-inside"
        assert s.center == F(-2, 3)
        assert s.recompose() == parse("x^3 + 2x^2 + x")

    def test_conjugated(self):
        q = parse("x^5 + x^3").compose(parse("x + 1"))
        s = classify_shape(q)
        assert (s.tag, s.s, s.center) == ("Q", 3, -1)
        assert s.recompose() == q


class TestPowerOutside:
    def test_cube_times_square(self):
        s = classify_shape(parse("x^5 + 2x^4 + x^3"))
        assert s.tag == "Q"
        assert s.variant == "power-outside"
        assert (s.prime, s.s, s.center) == (3, 2, -1)
        assert s.recompose() == parse("x^5 + 2x^4 + x^3")

    def test_square_factor(self):
        q = parse("x") * parse("x^2 + x + 1") ** 2
        s = classify_shape(q)
        assert s.tag == "Q"
        assert s.variant == "power-outside"
        assert (s.prime, s.s) == (2, 1)
        assert s.witness_g == parse("x^2 + x + 1")
        assert s.recompose() == q


class TestNeither:
    def test_generic_quintic(self):
        assert classify_shape(parse("x^5 + x^4 + x")).tag == "R"

    def test_tags_partition(self):
        rng = random.Random(17)
        seen = set()
        for _ in range(60):
            deg = rng.choice((2, 3, 5, 7))
            coeffs = [F(rng.randint(-3, 3)) for _ in range(deg)] + [F(rng.choice((1, 2, -1)))]
            s = classify_shape(Polynomial(coeffs))
            assert s.tag in ("P", "Q", "R")
            seen.add(s.tag)
        assert seen == {"P", "Q", "R"}


class TestDomainErrors:
    def test_rejects_units(self):
        with pytest.raises(ValueError):
            classify_shape(parse("x + 1"))

    def test_rejects_decomposable(self):
        with pytest.raises(ValueError):
            classify_shape(parse("x^4 + x^2"))


CV_TABLE = [
    ("x^3 - 3x", "x^2 - 4"),
    ("x^4 + 2x^3", "x^3 + 27/16 x^2"),
    ("16x^5 - 20x^3 + 5x", "x^4 - 2x^2 + 1"),
]


@pytest.mark.parametrize("src,expected", CV_TABLE)
def test_critical_value_polynomial(src, expected):
    assert critical_value_polynomial(parse(src)) == parse(expected)


def test_critical_value_polynomial_edges():
    assert critical_value_polynomial(parse("3x - 7/2")) == Polynomial.const(1)
    for src in ("5", "0"):
        with pytest.raises(ValueError, match="^the zero polynomial has no degree$"):
            critical_value_polynomial(parse(src))


def test_critical_values_are_roots():
    # each critical point's image must be a root of the critical value
    # polynomial; x^3 - 3x has critical points +-1 with values -+2
    cv = critical_value_polynomial(parse("x^3 - 3x"))
    q = parse("x^3 - 3x")
    for t in (F(1), F(-1)):
        assert cv(q(t)) == 0


def sympy_critical_value_polynomial(p):
    x, y = sympy.symbols("x y")
    expr = sum(sympy.Rational(c, p.den) * x**i for i, c in enumerate(p.num))
    res = sympy.Poly(sympy.resultant(sympy.diff(expr, x), expr - y, x), y, domain="QQ")
    return Polynomial(F(int(c.p), int(c.q)) for c in reversed(res.monic().all_coeffs()))


def _oracle_cases():
    rng = random.Random(29)
    cases = []
    for deg in range(2, 13):
        for _ in range(3):
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)]
            cases.append(Polynomial(coeffs + [F(rng.choice((1, -1, 2, 3)), rng.randint(1, 4))]))
    # repeated roots of p give repeated critical points
    for _ in range(4):
        low = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        cases.append(parse("x^2") * parse("x + 1") ** 3 * Polynomial(low + [F(1)]))
    cases.append(parse("x^7"))
    cases.append(parse("x^2 - 2") ** 3 * parse("x"))
    cases.append(parse("2x - 1") ** 4 * parse("x^2 + 1") ** 2)
    # 40-bit leads at degree 13, over 40-bit denominators, over none and
    # over one shared 40-bit denominator: the integer path scales by
    # powers of the lead of p'
    big = random.Random(31)
    for den_bits in (40, 0):
        coeffs = [F(big.randint(-(2**40), 2**40), big.randint(1, 2**den_bits)) for _ in range(13)]
        lead = F(big.randint(2**39, 2**40), big.randint(1, 2**den_bits))
        cases.append(Polynomial(coeffs + [lead]))
    cases.append(Polynomial([F(big.randint(-9, 9), 2**40 - 87) for _ in range(13)] + [F(2**40 + 15, 3)]))
    return cases


@pytest.mark.parametrize("p", _oracle_cases(), ids=str)
def test_critical_value_polynomial_matches_resultant(p):
    assert critical_value_polynomial(p) == sympy_critical_value_polynomial(p)


@pytest.mark.parametrize(
    "src,tag,calls",
    [
        ("x^5", "P", 0),
        ("x^5 + x^3", "Q", 0),
        ("x^5 + 2x^4 + x^3", "Q", 1),
        ("x^5 + x^4 + x", "R", 1),
    ],
)
def test_classify_computes_critical_values_at_most_once(monkeypatch, src, tag, calls):
    seen = []

    def counted(p):
        seen.append(p)
        return critical_value_polynomial(p)

    monkeypatch.setattr(classify, "critical_value_polynomial", counted)
    assert classify_shape(parse(src)).tag == tag
    assert len(seen) == calls


@pytest.mark.parametrize(
    "src,tag",
    [
        ("x^5", "P"),
        ("x^5 + x^3", "Q"),
        ("x^5 + 5x^4 + 11x^3 + 13x^2 + 8x + 2", "Q"),  # x^5 + x^3 at x + 1
    ],
)
def test_classify_recenters_once(monkeypatch, src, tag):
    p = parse(src)
    calls = []
    shift_arg = Polynomial.shift_arg

    def counted(self, lam):
        calls.append(lam)
        return shift_arg(self, lam)

    monkeypatch.setattr(Polynomial, "shift_arg", counted)
    assert classify_shape(p).tag == tag
    assert len(calls) == 1


def has_irrational_real_candidate(p):
    """Whether the critical values of p that a power-outside shape could
    use include an irrational real one: the test classify_shape makes
    before it answers Undetermined."""
    _, irrational = _power_outside_candidates(critical_value_polynomial(p))
    return irrational


class TestIrrationalCandidates:
    def test_present(self):
        assert has_irrational_real_candidate(parse("3x^5 - 20x^3 + 60x"))

    def test_absent(self):
        assert not has_irrational_real_candidate(parse("x^5 + x^4 + x"))


def full_scan_classify(p):
    """classify_shape as it was before it kept only the critical values of
    qualifying multiplicity: power-outside is tried at every rational root
    of the critical value polynomial cv, and the Undetermined test splits
    cv into squarefree parts a second time and counts roots part by part."""
    shape = classify._try_centered(p)
    if shape is not None:
        return shape
    cv = critical_value_polynomial(p)
    shape = classify._try_power_outside(p, rational_roots(cv))
    if shape is not None:
        return shape
    qualifying = classify._qualifying_multiplicities(cv.degree + 1)
    _, parts = squarefree_decomposition(cv)
    if any(
        count_real_roots(part) > len(rational_roots(part))
        for k, part in parts.items()
        if k in qualifying
    ):
        return ShapeClass(tag="Undetermined", source=p)
    return ShapeClass(tag="R", source=p)


def _corpus_factors():
    rng = random.Random(43)
    out = []
    for deg in range(2, 12):
        for _ in range(12):
            out.extend(complete_decomposition(indecomposable_factor(rng, deg)).factors)
    return out


def _power_outside_shapes():
    """lc * (x - x0)^s * g(x - x0)^l + b of prime degree s + l deg g, so
    indecomposable, with l not dividing s and g(0) != 0."""
    rng = random.Random(47)

    def rat():
        return F(rng.randint(-9, 9), rng.randint(1, 5))

    out = []
    for l, s, dg in [(2, 1, 3), (2, 3, 2), (2, 1, 5), (2, 5, 4), (3, 1, 2), (3, 2, 3),
                     (3, 4, 3), (5, 2, 1), (5, 1, 2), (5, 3, 2)]:
        for _ in range(2):
            g = Polynomial([F(rng.choice((1, -1, 2, 3)))] + [rat() for _ in range(dg - 1)]
                           + [F(rng.choice((1, -2, 3)))])
            core = Polynomial.monomial(s) * g**l
            lc = F(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 7)))
            out.append(Unit(shift=rat(), scale=lc).apply_left(core.shift_arg(-rat())))
    return out


class TestFullScanOracle:
    @pytest.mark.parametrize("p", _corpus_factors(), ids=str)
    def test_corpus_factors(self, p):
        assert classify_shape(p) == full_scan_classify(p)

    @pytest.mark.parametrize("p", _power_outside_shapes(), ids=str)
    def test_power_outside_shapes(self, p):
        shape = classify_shape(p)
        assert (shape.tag, shape.recompose()) == ("Q", p)
        assert shape == full_scan_classify(p)

    @pytest.mark.parametrize(
        "src",
        [
            "3x^5 - 20x^3 + 60x",
            "3x^5 - 20x^3 + 60x + 1/2",
            # the Dickson polynomial D_7(x, 2): critical values
            # +-2^(9/2), each of multiplicity 3
            "x^7 - 14x^5 + 56x^3 - 56x",
        ],
    )
    def test_undetermined(self, monkeypatch, src):
        # These are power-inside at a rational center, and their irrational
        # real critical values have qualifying multiplicity; with the
        # centered detector off, both classifiers reach the Undetermined test.
        monkeypatch.setattr(classify, "_try_centered", lambda p: None)
        p = parse(src)
        assert classify_shape(p) == full_scan_classify(p) == ShapeClass(tag="Undetermined", source=p)


def qualifying_part(p):
    """c, the product of the squarefree parts of p's critical value
    polynomial whose multiplicity qualifies."""
    _, parts = squarefree_decomposition(critical_value_polynomial(p))
    qualifying = classify._qualifying_multiplicities(p.degree)
    return math.prod((f for k, f in parts.items() if k in qualifying), start=ONE)


def test_qualifying_multiplicities_are_at_least_half():
    # each qualifying critical value takes at least half of the n - 1
    # critical points, so at most two qualify: deg c <= 2
    for n in range(2, MAX_DEGREE + 1):
        assert 2 * min(classify._qualifying_multiplicities(n)) >= n - 1, n


def test_qualifying_part_is_at_most_quadratic():
    for p in _corpus_factors() + _power_outside_shapes():
        assert qualifying_part(p).degree <= 2, p


@pytest.mark.parametrize(
    "src,centered,deg_c,candidates,tag,b",
    [
        # constant c: no critical value qualifies
        ("x^5 + x^4 + x", True, 0, ((), False), "R", None),
        # linear c: x^3 (x + 1)^2, the critical value 0 of multiplicity 3
        ("x^5 + 2x^4 + x^3", True, 1, ((F(0),), False), "Q", F(0)),
        # square discriminant: T_5 and T_7 are power-outside at both
        # constants +-1, and the smaller is tried first
        ("16x^5 - 20x^3 + 5x", False, 2, ((F(-1), F(1)), False), "Q", F(-1)),
        ("64x^7 - 112x^5 + 56x^3 - 7x", False, 2, ((F(-1), F(1)), False), "Q", F(-1)),
        # negative discriminant: the qualifying critical values are +-2i
        ("x^5 + 5x^3 + 5x", False, 2, ((), False), "R", None),
        # positive discriminant, not a square: +-32 sqrt(2)
        ("3x^5 - 20x^3 + 60x", False, 2, ((), True), "Undetermined", None),
    ],
)
def test_candidates_by_branch_need_no_root_finder(monkeypatch, src, centered, deg_c, candidates, tag, b):
    # one row per branch of the closed form in _power_outside_candidates,
    # each checked against the full scan, which uses the root finder and the
    # Sturm chain that classify_shape no longer calls
    p = parse(src)
    if not centered:
        monkeypatch.setattr(classify, "_try_centered", lambda p: None)
    assert qualifying_part(p).degree == deg_c
    assert _power_outside_candidates(critical_value_polynomial(p)) == candidates
    calls = []

    def spy(name, f):
        def counted(*args):
            calls.append(name)
            return f(*args)

        return counted

    for module, name in ((roots, "rational_roots"), (roots, "count_real_roots"), (classify, "rational_roots")):
        monkeypatch.setattr(module, name, spy(f"{module.__name__}.{name}", getattr(module, name)))
    shape = classify_shape(p)
    assert calls == []
    assert shape == full_scan_classify(p)
    assert shape.tag == tag
    if tag == "Q":
        assert (shape.variant, shape.outer_unit.shift, shape.recompose()) == ("power-outside", b, p)


def test_squarefree_critical_values_need_no_roots_and_no_gcd(monkeypatch):
    # an R septic whose critical value polynomial is squarefree modulo
    # 32749: no critical value qualifies, and no rational gcd runs
    calls = []

    def spy(name, f):
        def counted(*args):
            calls.append(name)
            return f(*args)

        return counted

    for module in (classify, roots):
        monkeypatch.setattr(module, "rational_roots", spy("rational_roots", rational_roots))
    monkeypatch.setattr(roots, "poly_gcd", spy("poly_gcd", roots.poly_gcd))
    assert classify_shape(parse("x^7 + x^2 + x")).tag == "R"
    assert calls == []


class TestInvariants:
    def test_known_counts(self):
        inv = ritt_invariants(parse("x^8 + 2x^6 + x^4"))
        assert (inv.n_P, inv.n_Q, inv.n_R) == (3, 0, 0)
        assert not inv.has_undetermined
        assert inv.p_by_prime == ((2, 3),)

    def test_chebyshev_six(self):
        inv = ritt_invariants(chebyshev(6))
        assert (inv.n_P, inv.n_Q, inv.n_R) == (1, 1, 0)
        assert inv.p_by_prime == ((2, 1),)

    def test_to_json(self):
        got = _invariants_json(ritt_invariants(parse("x^8 + 2x^6 + x^4")))
        assert got == {
            "n_P": 3,
            "n_Q": 0,
            "n_R": 0,
            "n_undetermined": 0,
            "n_P_by_prime": {"2": 3},
        }

    def test_stable_across_classes(self):
        rng = random.Random(41)
        for _ in range(12):
            parts = []
            for _ in range(rng.choice((2, 3))):
                deg = rng.choice((2, 3, 5))
                coeffs = [F(rng.randint(-3, 3)) for _ in range(deg)] + [F(rng.choice((1, 2, -1)))]
                parts.append(Polynomial(coeffs))
            a = compose_all(parts)
            reports = [
                _invariants_json(invariants_of_factors(c.factors))
                for c in enumerate_classes(a)
            ]
            assert all(r == reports[0] for r in reports)

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            ritt_invariants(parse("x"))


def test_qualifying_multiplicities_match_the_search():
    # the double loop over primes l < n and inner degrees delta that the
    # closed form replaced, kept as its oracle
    def oracle(n):
        delta_max = 0
        for l in range(2, n):
            if not sympy.isprime(l):
                continue
            delta = 1
            while n - l * delta >= 1:
                if (n - l * delta) % l:
                    delta_max = max(delta_max, delta)
                delta += 1
        return set(range(n - 1 - delta_max, n))

    for n in range(2, 600):
        assert classify._qualifying_multiplicities(n) == oracle(n), n
