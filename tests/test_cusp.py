"""The semigroup of polynomials critical at the origin.

Membership, the C/D split, length and index bookkeeping, decomposition
enumeration with unit threading, and the four local rewrite moves. The
worked examples are expanded by hand in the assertions so each expected
factor list is independently checkable by multiplying out.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from polydecomp import cusp, decompose, poly
from polydecomp.chebyshev import chebyshev
from polydecomp.cli import _report_json, _skeleton_json
from polydecomp.corpus import cusp_corpus
from polydecomp.cusp import (
    IrrationalRootRequiredError,
    PatternMismatchError,
    PostconditionError,
    _member_key,
    admissible_shifts,
    apply_cusp_move,
    classify_CD,
    compose_in_A_criterion,
    cusp_report,
    enumerate_A_decompositions,
    in_A,
    index_at_zero,
    max_decompositions,
)
from polydecomp.decompose import enumerate_classes, is_indecomposable, scale_canonicalize
from polydecomp.parsing import parse
from polydecomp.poly import Polynomial, compose_all

A8 = parse("x^8 + 2x^6 + x^4")
DEG70 = compose_all((parse("x^2"), parse("x^5 + x^3"), parse("x^7 + x")))


class TestMembership:
    def test_in_A(self):
        assert in_A(parse("x^2 + 1"))
        assert in_A(parse("x^3"))
        assert in_A(parse("7"))
        assert not in_A(parse("x^2 + x"))
        assert not in_A(parse("x^3 - 3x"))

    @given(
        st.lists(
            st.one_of(st.just(F(0)), st.fractions(-9, 9, max_denominator=8)),
            max_size=7,
        ).map(Polynomial)
    )
    def test_in_A_is_derivative_at_zero(self, p):
        assert in_A(p) == (p.derivative()(0) == 0)

    def test_composition_criterion_branches(self):
        assert compose_in_A_criterion(parse("x^2"), parse("x^2 + x")) == (
            True,
            "outer-critical-at-image",
        )
        assert compose_in_A_criterion(parse("x^2 + x"), parse("x^2 + 1")) == (
            True,
            "inner-in-A",
        )
        assert compose_in_A_criterion(parse("x^2"), parse("x + 1")) == (False, "neither")

    def test_criterion_matches_direct_check(self):
        rng = random.Random(6)
        for _ in range(120):
            a = random_nonconst(rng)
            b = random_nonconst(rng)
            member, branch = compose_in_A_criterion(a, b)
            assert member == in_A(a.compose(b))
            if member:
                assert branch in ("inner-in-A", "outer-critical-at-image")
            else:
                assert branch == "neither"


def random_nonconst(rng):
    deg = rng.choice((1, 2, 2, 3))
    coeffs = [F(rng.randint(-3, 3)) for _ in range(deg)]
    coeffs.append(F(rng.choice((1, -1, 2))))
    return Polynomial(coeffs)


class TestAdmissibleShifts:
    @pytest.mark.parametrize(
        "src,expected",
        [
            ("x^3 - 3x", (F(-1), F(1))),
            ("x^2", (F(0),)),
            ("x^3 + 3x", ()),
            ("x^2 + x", (F(-1, 2),)),
        ],
    )
    def test_oracle(self, src, expected):
        assert tuple(sorted(admissible_shifts(parse(src)))) == expected

    def test_shifts_are_critical_points(self):
        q = parse("x^4 - 8x^2 + 3")
        for c in admissible_shifts(q):
            assert q.derivative()(c) == 0


def old_classify_CD(p):
    """The earlier definition: a separate indecomposability test, then each
    class tail recomposed and differentiated at 0."""
    if p.derivative()(0) != 0:
        return "not-in-A"
    if is_indecomposable(p):
        return "C"
    for cls in enumerate_classes(p):
        if compose_all(cls.factors[1:]).derivative()(0) == 0:
            return "not-irreducible-in-A"
    return "D"


def bracketings(r):
    """Every cut of r factors into consecutive blocks, as (lo, hi) spans."""
    for mask in range(2 ** (r - 1)):
        cuts = [0] + [i for i in range(1, r) if (mask >> (i - 1)) & 1] + [r]
        yield [(cuts[t], cuts[t + 1]) for t in range(len(cuts) - 1)]


def reference_A_decompositions(a):
    """The members enumerate_A_decompositions lists, by the bracketing
    search: each bracketing of each class has its blocks composed up front,
    the shifts are threaded block by block, and members are deduplicated
    under their coefficient key."""
    found = {}

    def thread(blocks, j, lam_prev, acc):
        if j == len(blocks) - 1:
            dressed = blocks[j] - lam_prev
            if classify_CD(dressed) in ("C", "D"):
                member = scale_canonicalize(acc + [dressed])
                found[_member_key(member)] = member
            return
        for lam in admissible_shifts(blocks[j]):
            dressed = blocks[j].shift_arg(lam) - lam_prev
            if classify_CD(dressed) in ("C", "D"):
                thread(blocks, j + 1, lam, acc + [dressed])

    for cls in enumerate_classes(a):
        fs = cls.factors
        for spans in bracketings(len(fs)):
            thread([compose_all(fs[lo:hi]) for lo, hi in spans], 0, F(0), [])
    return tuple(
        sorted(
            found.values(),
            key=lambda m: (len(m), tuple(f.degree for f in m), _member_key(m)),
        )
    )


def blocks_and_dressed_blocks(a):
    """Every block enumerate_A_decompositions cuts from a class of a, and
    every dressing of it with the shifts that enumeration threads."""
    out = set()
    for cls in enumerate_classes(a):
        fs = cls.factors
        for spans in bracketings(len(fs)):
            blocks = [compose_all(fs[lo:hi]) for lo, hi in spans]
            incoming = (F(0),)
            for j, block in enumerate(blocks):
                out.add(block)
                if j == len(blocks) - 1:
                    out.update(block - lam_prev for lam_prev in incoming)
                    break
                shifts = admissible_shifts(block)
                out.update(
                    block.shift_arg(lam) - lam_prev
                    for lam in shifts
                    for lam_prev in incoming
                )
                incoming = shifts
    return out


class TestClassifyCD:
    def test_c_examples(self):
        assert classify_CD(parse("x^2")) == "C"
        assert classify_CD(parse("x^5 + x^3")) == "C"

    def test_d_example(self):
        # decomposable as x^2 . (x^2 + x), but the tail is never critical
        # at 0 so no unit can split it inside the semigroup
        assert classify_CD(parse("x^4 + 2x^3 + x^2")) == "D"

    def test_splittable(self):
        assert classify_CD(A8) == "not-irreducible-in-A"

    def test_non_member(self):
        assert classify_CD(parse("x^2 + x")) == "not-in-A"

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            classify_CD(parse("x + 1"))

    def test_agrees_with_old_definition(self):
        subjects = set()
        for factors in cusp_corpus(seed=42, count=50):
            a = compose_all(factors)
            subjects.add(a)
            if a.degree <= 64:
                subjects |= blocks_and_dressed_blocks(a)
        kinds = Counter()
        for p in sorted(subjects, key=lambda q: (q.degree, [q[i] for i in range(len(q.num))])):
            kind = classify_CD(p)
            assert kind == old_classify_CD(p), p
            kinds[kind] += 1
        assert set(kinds) == {"C", "D", "not-irreducible-in-A", "not-in-A"}

    @pytest.mark.parametrize(
        "p,kind",
        [
            (parse("x^4 + 2x^3 + x^2"), "D"),
            (A8, "not-irreducible-in-A"),
            (DEG70, "not-irreducible-in-A"),
        ],
    )
    def test_runs_each_accepted_split_once(self, p, kind, monkeypatch):
        # A separate indecomposability test would repeat the first accepted
        # split of p that the class enumeration makes anyway.
        accepted = Counter()
        real = decompose.right_factor

        def counting(a, d):
            split = real(a, d)
            if split is not None and a == p:
                accepted[d] += 1
            return split

        monkeypatch.setattr(decompose, "right_factor", counting)
        decompose.is_indecomposable.cache_clear()
        decompose.enumerate_classes.cache_clear()
        assert classify_CD(p) == kind
        assert accepted and set(accepted.values()) == {1}


class TestIndexAndReport:
    def test_index_oracle(self):
        assert index_at_zero(A8) == 3
        assert index_at_zero(parse("x^2 + 1")) == 1
        assert index_at_zero(parse("x^4")) == 2

    def test_index_rejects_non_members(self):
        with pytest.raises(ValueError):
            index_at_zero(parse("x^2 + x"))

    def test_report_small(self):
        rep = cusp_report(A8)
        assert _report_json(rep) == {
            "degree": 8,
            "length": 3,
            "index_at_zero": 3,
            "defect": 0,
            "regular": True,
            "rational_realizable": True,
        }

    def test_report_power(self):
        rep = cusp_report(parse("x^4"))
        assert (rep.length, rep.index, rep.defect, rep.regular) == (2, 2, 0, True)

    def test_degree_seventy_element(self):
        # the element built as square . odd-quintic . odd-septic; its
        # third class ends in a squaring factor, which is critical at 0,
        # so the index reaches the full length
        rep = cusp_report(DEG70)
        assert rep.length == 3
        assert rep.index == 3
        assert rep.defect == 0
        assert rep.regular
        assert rep.rational_realizable

    def test_report_rejects_non_members(self):
        with pytest.raises(ValueError):
            cusp_report(parse("x^3 - 3x"))


class TestEnumerateADecompositions:
    def test_small_example(self):
        out = enumerate_A_decompositions(A8)
        assert sorted(set(len(m) for m in out.members)) == [2, 3]
        assert out.lengths == (2, 3)
        for m in out.members:
            assert compose_all(m) == A8
            assert all(in_A(f) for f in m)
        assert (parse("x^4 + 2x^3 + x^2"), parse("x^2")) in out.members

    def test_pure_powers(self):
        out = enumerate_A_decompositions(parse("x^4"))
        assert out.members == ((parse("x^2"), parse("x^2")),)
        out9 = enumerate_A_decompositions(parse("x^9"))
        assert out9.members == ((parse("x^3"), parse("x^3")),)

    def test_matches_the_bracketing_search(self):
        subjects = [A8] + [parse(f"x^{n}") for n in (4, 9, 12, 16, 36)]
        subjects += [
            a for a in map(compose_all, cusp_corpus(seed=42, count=50)) if a.degree <= 64
        ]
        several = 0
        for a in subjects:
            members = enumerate_A_decompositions(a).members
            assert members == reference_A_decompositions(a), a
            several += len(members) > 1
        assert several >= 5

    def test_lengths_can_differ_from_max(self):
        # the length-2 member exists in the full enumeration but not in
        # the maximal skeleton, whose members all have the index length
        sk = max_decompositions(A8)
        assert sk.degree_multisets == ((2, 2, 2),)
        enum_multisets = {
            tuple(sorted(f.degree for f in m))
            for m in enumerate_A_decompositions(A8).members
        }
        assert (2, 4) in enum_multisets


class TestMaxDecompositions:
    def test_skeleton_small(self):
        sk = max_decompositions(A8)
        assert sk.index == 3
        assert len(sk.bases) == 1
        base = sk.bases[0]
        assert base.factors == (parse("x^2"), parse("x^2 + x"), parse("x^2"))
        assert base.position == 3
        assert base.shift_sets == ((F(0),), (F(-1, 2),))
        assert base.rational_instantiable

    def test_instantiation(self):
        base = max_decompositions(A8).bases[0]
        inst = base.instantiate((F(0), F(-1, 2)))
        assert inst == (parse("x^2"), parse("x^2 - 1/4"), parse("x^2 + 1/2"))
        assert compose_all(inst) == A8
        assert all(in_A(f) for f in inst)

    def test_instantiate_postconditions_raise_a_named_error(self):
        base = max_decompositions(A8).bases[0]
        shifts = (F(0), F(-1, 2))
        cases = [
            (
                dataclasses.replace(base, target=base.target + 1),
                shifts,
                "do not recompose",
            ),
            (
                dataclasses.replace(base, shift_sets=((F(1),), (F(-1, 2),))),
                (F(1), F(-1, 2)),
                "not critical at 0",
            ),
            (
                dataclasses.replace(base, position=2, shift_sets=((F(0),),)),
                (F(0),),
                "not A-irreducible",
            ),
        ]
        for bad, picks, message in cases:
            with pytest.raises(PostconditionError, match=message) as info:
                bad.instantiate(picks)
            assert isinstance(info.value, ValueError)
            assert not isinstance(info.value, AssertionError)

    # a string, float or bool shift is refused before any arithmetic, like
    # a Unit shift; "1e10000000" would otherwise build 10^(10^7)
    @pytest.mark.parametrize("bad", ["-1/2", "1e10000000", -0.5, True])
    def test_instantiate_rejects_inexact_shifts(self, bad):
        base = max_decompositions(A8).bases[0]
        with pytest.raises(TypeError, match="must be int or Fraction"):
            base.instantiate((F(0), bad))

    def test_instantiate_takes_int_and_fraction_shifts(self):
        base = max_decompositions(A8).bases[0]
        assert base.instantiate((0, F(-1, 2))) == base.instantiate((F(0), F(-1, 2)))

    def test_default_instantiations(self):
        sk = max_decompositions(A8)
        assert sk.default_instantiations() == (
            (parse("x^2"), parse("x^2 - 1/4"), parse("x^2 + 1/2")),
        )

    def test_power_skeleton(self):
        sk = max_decompositions(parse("x^4"))
        assert sk.index == 2
        assert sk.bases[0].factors == (parse("x^2"), parse("x^2"))
        assert sk.bases[0].shift_sets == ((F(0),),)

    def test_degree_seventy_multisets(self):
        sk = max_decompositions(DEG70)
        assert sk.index == 3
        assert sk.degree_multisets == ((2, 5, 7),)

    def test_json_shape(self):
        got = _skeleton_json(max_decompositions(parse("x^4")))
        assert got == {
            "degree": 4,
            "index_at_zero": 2,
            "bases": [
                {
                    "class": [["0", "0", "1"], ["0", "0", "1"]],
                    "position": 2,
                    "shift_sets": [["0"]],
                    "degree_multiset": [2, 2],
                    "rational_instantiable": True,
                }
            ],
            "degree_multisets": [[2, 2]],
        }


class TestBracketSearchAgreement:
    def test_small_degrees(self):
        # the exhaustive enumeration's longest member must realize the
        # index whenever the witnesses exist over the rationals
        for a in (A8, parse("x^4"), parse("x^9"), parse("x^10 + 2x^8 + x^6")):
            rep = cusp_report(a)
            if not rep.rational_realizable:
                continue
            lengths = [len(m) for m in enumerate_A_decompositions(a).members]
            assert max(lengths) == rep.index

    def test_corpus_sample(self):
        for factors in cusp_corpus(seed=42, count=50)[:12]:
            a = compose_all(factors)
            if a.degree > 16:
                continue
            rep = cusp_report(a)
            if not rep.rational_realizable:
                continue
            lengths = [len(m) for m in enumerate_A_decompositions(a).members]
            assert max(lengths) == rep.index


class TestMoves:
    def test_shift_transfer(self):
        mv = apply_cusp_move(
            (parse("x^2"), parse("x^2 + x"), parse("x^2")), 2, "adm", F(-1, 2)
        )
        assert mv.factors == (parse("x^2"), parse("x^2 - 1/4"), parse("x^2 + 1/2"))
        assert all(in_A(f) for f in mv.factors)

    def test_shift_transfer_involutive(self):
        start = (parse("x^2"), parse("x^2 + x"), parse("x^2"))
        there = apply_cusp_move(start, 2, "adm", F(-1, 2))
        back = apply_cusp_move(there.factors, 2, "adm", F(1, 2))
        assert back.factors == start

    @pytest.mark.parametrize("bad", ["-1/2", "1e10000000", -0.5, True])
    def test_shift_transfer_rejects_inexact_shifts(self, bad):
        with pytest.raises(TypeError, match="must be int or Fraction"):
            apply_cusp_move((parse("x^2"), parse("x^2 + x"), parse("x^2")), 2, "adm", bad)

    def test_shift_transfer_takes_int_and_fraction_shifts(self):
        start = (parse("x^2"), parse("x^2 + 1"))
        assert apply_cusp_move(start, 1, "adm", 1) == apply_cusp_move(start, 1, "adm", F(1))

    def test_shift_transfer_rejects_inadmissible(self):
        with pytest.raises(PatternMismatchError):
            apply_cusp_move((parse("x^3 + x"), parse("x^2")), 1, "adm", F(1))

    def test_power_inward_terminal(self):
        mv = apply_cusp_move((parse("x^2"), parse("x^5 + x^3")), 1, "cb")
        assert mv.factors == (parse("x^5 + 2x^4 + x^3"), parse("x^2"))
        assert compose_all(mv.factors) == parse("x^10 + 2x^8 + x^6")
        assert mv.in_A == (True, True)

    def test_power_outward_inverts_inward(self):
        mv = apply_cusp_move((parse("x^5 + 2x^4 + x^3"), parse("x^2")), 1, "cc")
        assert mv.factors == (parse("x^2"), parse("x^5 + x^3"))

    def test_power_outward_off_origin(self):
        # the right factor's value at 0 is x0 = 1, and x^3 + 3x^2 - 4 is
        # (x - 1)(x + 2)^2 there
        mv = apply_cusp_move((parse("x^3 + 3x^2 - 4"), parse("x^2 + 1")), 1, "cc")
        assert mv.factors == (parse("x^2"), parse("x^3 + 3x"))

    def test_power_outward_irrational_inner_shift(self):
        # non-terminal, s = 1: x^3 + 3x has no rational critical point
        with pytest.raises(
            IrrationalRootRequiredError,
            match="the rewritten inner factor has no rational critical point",
        ):
            apply_cusp_move(
                (parse("x^3 + 3x^2 - 4"), parse("x^2 + 1"), parse("x^3")), 1, "cc"
            )

    def test_power_inward_linear_head(self):
        # s = 1: the inner factor is x^3 - 3x after the shift x -> x - 1,
        # and the rewritten outer factor x (x - 3)^2 is shifted to its
        # smallest rational critical point, 1
        mv = apply_cusp_move(
            (parse("x^2"), parse("x^3 + 3x^2 - 2"), parse("x^2")), 1, "cb"
        )
        assert mv.factors == (
            parse("x^3 - 3x^2 + 4"),
            parse("x^2 - 1"),
            parse("x^2 + 1"),
        )

    def test_power_inward_non_terminal(self):
        mv = apply_cusp_move((parse("x^2"), parse("x^5 + x^3"), parse("x^2")), 1, "cb")
        assert mv.factors == (
            parse("x^5 + 2x^4 + x^3"),
            parse("x^2"),
            parse("x^2"),
        )

    def test_chebyshev_swap_needs_irrational_shift(self):
        with pytest.raises(IrrationalRootRequiredError):
            apply_cusp_move((chebyshev(3), chebyshev(5)), 1, "ca")
        # T_3 and T_5 conjugated by x -> sqrt(2) x fit the same pattern
        with pytest.raises(IrrationalRootRequiredError):
            apply_cusp_move((parse("8x^3 - 3x"), parse("64x^5 - 40x^3 + 5x")), 1, "ca")

    def test_chebyshev_swap_pattern_mismatch(self):
        with pytest.raises(PatternMismatchError):
            apply_cusp_move((parse("x^2 + x"), parse("x^3")), 1, "ca")

    def test_power_inward_pattern_mismatch(self):
        with pytest.raises(PatternMismatchError):
            apply_cusp_move((parse("x^2 + x"), parse("x^3 + x^2")), 1, "cb")

    def test_position_validation(self):
        with pytest.raises(ValueError):
            apply_cusp_move((parse("x^2"), parse("x^2")), 0, "adm", F(0))
        with pytest.raises(ValueError):
            apply_cusp_move((parse("x^2"), parse("x^2")), 2, "adm", F(0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            apply_cusp_move((parse("x^2"), parse("x^2")), 1, "zz")

    def test_adm_requires_shift(self):
        with pytest.raises(ValueError):
            apply_cusp_move((parse("x^2"), parse("x^2")), 1, "adm")

    def test_recomposition_check_raises_a_named_error(self, monkeypatch):
        def drop_the_inner_shift(fs, i, shift):
            fs[i] = fs[i].shift_arg(shift)

        monkeypatch.setattr(cusp, "_move_shift_transfer", drop_the_inner_shift)
        with pytest.raises(PostconditionError, match="do not recompose") as info:
            apply_cusp_move((parse("x^2"), parse("x^2 + 1")), 1, "adm", F(1))
        assert not isinstance(info.value, AssertionError)
        assert PostconditionError is poly.PostconditionError


class TestCorpus:
    def test_members_and_reports(self):
        for factors in cusp_corpus(seed=42, count=50)[:20]:
            a = compose_all(factors)
            assert in_A(a)
            rep = cusp_report(a)
            assert rep.defect == rep.length - rep.index
            assert rep.regular == (rep.defect == 0)
            sk = max_decompositions(a)
            assert sk.index == rep.index

    def test_regular_elements_have_uniform_multisets(self):
        seen_regular = 0
        for factors in cusp_corpus(seed=42, count=50):
            a = compose_all(factors)
            rep = cusp_report(a)
            if not rep.regular:
                continue
            seen_regular += 1
            assert len(set(max_decompositions(a).degree_multisets)) == 1
        assert seen_regular > 0
