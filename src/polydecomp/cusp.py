"""Decomposition theory inside the monoid of polynomials critical at 0.

Let A be the set of nonconstant polynomials f with f'(0) = 0.  A is closed
under composition, and unlike the full composition monoid it contains no
units at all: every degree-1 polynomial has nonvanishing derivative.  So
factorization questions in A are genuinely different from the unit-twisted
picture of the full monoid.  This module provides:

  * membership and the two-branch composition criterion for A,
  * admissible shifts (rational critical points) of a factor,
  * classification of A-irreducible elements into the two kinds: elements
    that are already indecomposable in the full monoid, and elements that
    decompose there but admit no splitting inside A,
  * enumeration of all decompositions of an element of A into
    A-irreducibles, up to the scale units that survive in this setting,
  * the index invariant at the origin, the defect against the full
    decomposition length, and regularity/realizability reporting,
  * skeletons of the maximal-length A-decompositions and their rational
    instantiations,
  * local rewrite moves on adjacent factors (shift transfer, Chebyshev
    swap, and the two power/pattern swaps), with exact rational arithmetic
    and explicit errors when a move would require leaving the rationals.

Everything is exact; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .chebyshev import _dressed_odd_chebyshev_degree, _has_dressed_chebyshev_shape
from .decompose import enumerate_classes, scale_canonicalize
from .poly import Polynomial, PostconditionError, _frac, compose_all
from .roots import _split_power, is_probable_prime, rational_kth_root, rational_roots


class PatternMismatchError(ValueError):
    """The factors at the requested position do not fit the move's pattern."""


class IrrationalRootRequiredError(ValueError):
    """The move exists over the reals (or complexes) but needs data that is
    not rational, such as a critical point or a k-th root of a coefficient."""


def in_A(p: Polynomial) -> bool:
    """True when p'(0) = 0, i.e. p is critical at the origin.

    p'(0) is the coefficient of x.
    """
    return p[1] == 0


def compose_in_A_criterion(a: Polynomial, b: Polynomial) -> tuple[bool, str]:
    """Decide in_A(a after b) and report which branch makes it so.

    The composite is critical at 0 exactly when the inner factor is, or
    when the outer factor is critical at the inner factor's value at 0.
    Returns (membership, branch) with branch one of "inner-in-A",
    "outer-critical-at-image", "neither".
    """
    if a.is_constant or b.is_constant:
        raise ValueError("composition criterion needs nonconstant factors")
    if in_A(b):
        return True, "inner-in-A"
    if a.derivative()(b(Fraction(0))) == 0:
        return True, "outer-critical-at-image"
    return False, "neither"


def admissible_shifts(p: Polynomial) -> tuple[Fraction, ...]:
    """Rational critical points of p, sorted ascending.

    A shift c is admissible for p when (p after (x + c))'(0) = 0, which is
    exactly p'(c) = 0.  For a degree-1 factor there are none.
    """
    if p.is_constant:
        raise ValueError("admissible shifts are defined for nonconstant polynomials")
    return rational_roots(p.derivative())


def classify_CD(p: Polynomial) -> str:
    """Classify an element of A as an A-irreducible of kind C or D.

    "C": indecomposable in the full composition monoid.
    "D": decomposable there, but every decomposition class has a tail
         (second-through-last composite) with nonzero derivative at 0, so
         no splitting point can be moved into A by any unit, rational or
         not.
    "not-irreducible-in-A": some class admits such a splitting.
    "not-in-A": p is not critical at the origin.

    Raises ValueError below degree 2.

    One class enumeration decides everything: p is indecomposable exactly
    when its only class has a single factor, and by the chain rule a tail
    is critical at 0 exactly when one of its factors is critical at the
    value fed to it.
    """
    if p.is_constant or p.degree < 2:
        raise ValueError("classification needs degree at least 2")
    if not in_A(p):
        return "not-in-A"
    classes = enumerate_classes(p)
    if len(classes[0].factors) == 1:
        return "C"
    if any(_class_index_positions(cls.factors[1:]) for cls in classes):
        return "not-irreducible-in-A"
    return "D"


def _is_A_irreducible(p: Polynomial) -> bool:
    return classify_CD(p) in ("C", "D")


def _class_index_positions(factors: tuple[Polynomial, ...]) -> tuple[int, ...]:
    """1-based positions i with p_i'(t_i) = 0, where t_i is the value at 0
    of everything to the right of p_i."""
    out = []
    v = Fraction(0)
    for i in range(len(factors) - 1, -1, -1):
        if factors[i].derivative()(v) == 0:
            out.append(i + 1)
        v = factors[i](v)
    return tuple(sorted(out))


def index_at_zero(a: Polynomial) -> int:
    """The largest i, over all decomposition classes, such that the i-th
    factor is critical at the point fed to it when evaluating at 0."""
    return max_decompositions(a).index


@dataclass(frozen=True)
class CuspReport:
    """Summary of how an element of A sits between the two monoids."""

    degree: int
    length: int
    index: int
    rational_realizable: bool

    @property
    def defect(self) -> int:
        return self.length - self.index

    @property
    def regular(self) -> bool:
        return self.defect == 0


def cusp_report(a: Polynomial) -> CuspReport:
    """Length of full decompositions, index at zero, defect, regularity,
    and whether a maximal A-decomposition can be realized with rational
    shifts.

    Raises ValueError when a is not in A or has degree below 2.  The
    length is read off one class: all classes share it by Ritt's first
    theorem, which ritt1_check tests.
    """
    return max_decompositions(a).report


@dataclass(frozen=True)
class ADecompositions:
    """All decompositions of the target into A-irreducibles, up to the
    scale units threaded between factors."""

    target: Polynomial
    members: tuple[tuple[Polynomial, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(sorted({len(m) for m in self.members}))


def _member_key(member) -> tuple:
    return tuple(
        tuple(f[i].as_integer_ratio() for i in range(len(f.num))) for f in member
    )


def enumerate_A_decompositions(a: Polynomial) -> ADecompositions:
    """Enumerate every decomposition of a into A-irreducible factors.

    Each full decomposition class is cut into consecutive blocks one cut
    point at a time, so a dressed block is composed and classified once
    for all the cuts to its right.  Between adjacent blocks only a shift
    unit x + c can be threaded while keeping both sides in A, and c must
    be an admissible shift of the whole left block; the final block must
    itself be critical at 0.  Blocks that fail to classify as C or D are
    discarded.  Members are normalized with scale units (every non-leftmost
    factor monic) and deduplicated across classes and cuts.
    """
    if a.is_constant or a.degree < 2:
        raise ValueError("A-decompositions need degree at least 2")
    if not in_A(a):
        raise ValueError("not an element of A: derivative at 0 is nonzero")

    found: set[tuple[Polynomial, ...]] = set()

    def extend(fs, start, lam_prev, acc):
        for end in range(start + 1, len(fs)):
            block = compose_all(fs[start:end])
            for lam in admissible_shifts(block):
                dressed = block.shift_arg(lam) - lam_prev
                if _is_A_irreducible(dressed):
                    extend(fs, end, lam, acc + [dressed])
        # A last block outside A classifies "not-in-A" and is dropped.
        dressed = compose_all(fs[start:]) - lam_prev
        if _is_A_irreducible(dressed):
            found.add(scale_canonicalize(acc + [dressed]))

    for cls in enumerate_classes(a):
        extend(cls.factors, 0, Fraction(0), [])

    members = sorted(
        found,
        key=lambda m: (len(m), tuple(f.degree for f in m), _member_key(m)),
    )
    return ADecompositions(target=a, members=tuple(members))


@dataclass(frozen=True)
class MaxBase:
    """One way of reaching the maximal A-decomposition length.

    The first position-1 factors of the class are kept whole and each needs
    one admissible shift; everything from the critical position rightward
    is fused into a single tail block.
    """

    target: Polynomial
    factors: tuple[Polynomial, ...]
    position: int
    shift_sets: tuple[tuple[Fraction, ...], ...]

    @property
    def degree_multiset(self) -> tuple[int, ...]:
        head = [f.degree for f in self.factors[: self.position - 1]]
        tail = prod(f.degree for f in self.factors[self.position - 1 :])
        return tuple(sorted(head + [tail]))

    @property
    def rational_instantiable(self) -> bool:
        return all(self.shift_sets)

    def instantiate(self, shifts) -> tuple[Polynomial, ...]:
        """Build the concrete A-decomposition for one choice of shifts.

        shifts must pick one admissible shift, an int or a Fraction, per
        head factor (TypeError otherwise).  The result recomposes to the
        target, every factor lies in A, and the tail block is A-irreducible
        by maximality; PostconditionError is raised when any of the three
        fails.
        """
        shifts = tuple(_frac(s) for s in shifts)
        if len(shifts) != self.position - 1:
            raise ValueError(
                f"expected {self.position - 1} shifts, got {len(shifts)}"
            )
        for s, allowed in zip(shifts, self.shift_sets):
            if s not in allowed:
                raise ValueError(f"shift {s} is not admissible here")
        out = []
        lam_prev = Fraction(0)
        for j, s in enumerate(shifts):
            out.append(self.factors[j].shift_arg(s) - lam_prev)
            lam_prev = s
        tail = compose_all(self.factors[self.position - 1 :]) - lam_prev
        out.append(tail)
        if compose_all(out) != self.target:
            raise PostconditionError(
                "the instantiated factors do not recompose to the target"
            )
        if not all(in_A(f) for f in out):
            raise PostconditionError("an instantiated factor is not critical at 0")
        if not _is_A_irreducible(tail):
            raise PostconditionError("the tail block is not A-irreducible")
        return tuple(out)


@dataclass(frozen=True)
class MaxSkeleton:
    """All bases of maximal-length A-decompositions of the target."""

    target: Polynomial
    index: int
    bases: tuple[MaxBase, ...]

    @property
    def degree_multisets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted({b.degree_multiset for b in self.bases}))

    @property
    def report(self) -> CuspReport:
        """The cusp_report of the target, read off this skeleton."""
        return CuspReport(
            degree=self.target.degree,
            length=len(self.bases[0].factors),
            index=self.index,
            rational_realizable=any(b.rational_instantiable for b in self.bases),
        )

    def default_instantiations(self) -> tuple[tuple[Polynomial, ...], ...]:
        """One concrete maximal A-decomposition per rationally instantiable
        base, using the smallest admissible shift at every position."""
        out = []
        for b in self.bases:
            if b.rational_instantiable:
                out.append(b.instantiate([ss[0] for ss in b.shift_sets]))
        return tuple(out)


def max_decompositions(a: Polynomial) -> MaxSkeleton:
    """Skeletons of the maximal-length A-decompositions of a.

    The maximal length equals the index at zero; each class and critical
    position achieving it contributes one base.  A base is flagged, not
    rejected, when some head factor has no rational admissible shift.
    Every class has a critical position: by the chain rule
    a'(0) = prod p_i'(t_i), which vanishes for a in A.

    Raises ValueError when a is not in A or has degree below 2.
    """
    if a.is_constant or a.degree < 2:
        raise ValueError("index at zero needs degree at least 2")
    if not in_A(a):
        raise ValueError("index at zero is defined on elements critical at 0")
    per_class = [
        (cls.factors, max(_class_index_positions(cls.factors)))
        for cls in enumerate_classes(a)
    ]
    index = max(i for _, i in per_class)
    bases = [
        MaxBase(
            target=a,
            factors=fs,
            position=i,
            shift_sets=tuple(admissible_shifts(fs[j]) for j in range(i - 1)),
        )
        for fs, i in per_class
        if i == index
    ]
    bases.sort(key=lambda b: _member_key(b.factors))
    return MaxSkeleton(target=a, index=index, bases=tuple(bases))


@dataclass(frozen=True)
class MoveResult:
    """Outcome of a local rewrite move; factors recompose to the original
    composite, and in_A reports per-factor membership honestly (a shift
    transfer may move a factor out of A)."""

    kind: str
    position: int
    factors: tuple[Polynomial, ...]

    @property
    def in_A(self) -> tuple[bool, ...]:
        return tuple(in_A(f) for f in self.factors)


def _binomial_power_degree(p: Polynomial) -> int | None:
    """If p = a*x^q + b with q prime, return q."""
    q = p.degree
    if q < 2 or not is_probable_prime(q):
        return None
    return q if set(p.support()) <= {0, q} else None


def _first_critical_point(f: Polynomial, s: int, role: str) -> Fraction:
    """Smallest rational critical point of f = x^s * (...), preferring 0.

    0 works exactly when s >= 2.  Raises IrrationalRootRequiredError,
    naming the rewritten factor by role, when no rational critical point
    exists.
    """
    if s >= 2:
        return Fraction(0)
    roots = admissible_shifts(f)
    if not roots:
        raise IrrationalRootRequiredError(
            f"the rewritten {role} factor has no rational critical point"
        )
    return roots[0]


def _move_shift_transfer(fs: list[Polynomial], i: int, shift: Fraction):
    """Move a shift unit across the pair at i: [p, q] -> [p(x+c), q - c].

    Accepted when c is an admissible shift of p, or when p itself is
    critical at 0 (the inverse direction of the first case, which is what
    makes the move involutive)."""
    p = fs[i]
    dp = p.derivative()
    if dp(shift) != 0 and not in_A(p):
        raise PatternMismatchError(
            f"shift {shift} is not admissible for the factor at this position"
        )
    fs[i] = p.shift_arg(shift)
    fs[i + 1] = fs[i + 1] - shift


def _move_chebyshev_swap(fs: list[Polynomial], i: int):
    ka = _dressed_odd_chebyshev_degree(fs[i])
    kb = _dressed_odd_chebyshev_degree(fs[i + 1])
    if ka is None or kb is None:
        raise PatternMismatchError(
            "both factors must be unit-dressed Chebyshev polynomials of odd "
            "prime degree"
        )
    if ka == kb:
        raise PatternMismatchError("factor degrees must be distinct (coprime)")
    if not _has_dressed_chebyshev_shape(fs[i].compose(fs[i + 1])):
        raise PatternMismatchError(
            "the dressing units between the two Chebyshev factors do not "
            "cancel, so the pair does not compose to a dressed Chebyshev"
        )
    # Swapping needs shifts at critical points of the larger-degree
    # Chebyshev polynomial; for degree 5 and up none of them is rational.
    raise IrrationalRootRequiredError(
        f"swapping Chebyshev factors of degrees {ka} and {kb} needs a shift "
        f"at a critical point of the degree-{max(ka, kb)} factor, and those "
        "are irrational"
    )


def _move_power_inward(fs: list[Polynomial], i: int):
    """[a x^p + b, x^s g(x^p) dressed] -> the p-th power moves right.

    Uses x^p after (x^s g(x^p)) = (x^s g(x)^p) after x^p.  In the terminal
    case the inner factor must carry no trailing shift; otherwise the
    stripped shift is pushed into the factor after the pair.
    """
    pi, pnext = fs[i], fs[i + 1]
    p = _binomial_power_degree(pi)
    if p is None:
        raise PatternMismatchError("left factor is not a binomial a*x^p + b")
    if gcd(p, pnext.degree) != 1:
        raise PatternMismatchError("factor degrees are not coprime")
    terminal = i + 1 == len(fs) - 1
    center = pnext.forced_center()
    w = pnext.shift_arg(center)
    nu = -center
    if terminal and nu != 0:
        raise PatternMismatchError(
            "terminal move: the inner factor carries a trailing shift that "
            "nothing to the right can absorb"
        )
    rec = w.deflate(p)
    if rec is None:
        raise PatternMismatchError(
            "right factor is not x^s g(x^p) up to a shift unit"
        )
    s, g = rec
    if not in_A(pnext):
        raise PatternMismatchError("right factor is not critical at 0")
    a, b = pi.lead, pi[0]
    outer = (g**p).inflate(1, s)
    gamma = _first_critical_point(outer, s, "outer")
    new_outer = outer.shift_arg(gamma) * a + b
    new_inner = Polynomial.monomial(p) - gamma
    fs[i] = new_outer
    fs[i + 1] = new_inner
    if not terminal:
        fs[i + 2] = fs[i + 2] + nu


def _move_power_outward(fs: list[Polynomial], i: int):
    """[x^s g(x)^p dressed, a x^p + b] -> the p-th power moves left.

    Mirror of the inward move.  The right factor's value at 0 pins the
    dressing of the left factor; the scale of the right factor must have a
    rational p-th root to re-enter the rewritten inner factor.
    """
    pi, pnext = fs[i], fs[i + 1]
    p = _binomial_power_degree(pnext)
    if p is None:
        raise PatternMismatchError("right factor is not a binomial a*x^p + b")
    if gcd(p, pi.degree) != 1:
        raise PatternMismatchError("factor degrees are not coprime")
    if not in_A(pi):
        raise PatternMismatchError("left factor is not critical at 0")
    x0 = pnext(Fraction(0))
    beta = pi(x0)
    w = (pi - beta).shift_arg(x0)
    s = w.x_valuation()
    if gcd(p, s) != 1:
        raise PatternMismatchError(
            "left factor does not vanish to a power-coprime order at the "
            "right factor's value at 0"
        )
    split = _split_power(w, p)
    if split is None:
        raise PatternMismatchError(
            "left factor is not lc * (x - x0)^s * G(x)^p at the right "
            "factor's value at 0"
        )
    g = split[1]
    mu = rational_kth_root(pnext.lead, p)
    if mu is None:
        raise IrrationalRootRequiredError(
            f"the right factor's scale has no rational {p}-th root"
        )
    new_outer = Polynomial.monomial(p, pi.lead) + beta
    inner_core = g.inflate(p, s)
    terminal = i + 1 == len(fs) - 1
    if terminal:
        fs[i] = new_outer
        fs[i + 1] = inner_core.scale_arg(mu)
        return
    delta = _first_critical_point(inner_core, s, "inner") / mu
    fs[i] = new_outer
    fs[i + 1] = inner_core.scale_arg(mu).shift_arg(delta)
    fs[i + 2] = fs[i + 2] - delta


_MOVE_KINDS = ("adm", "ca", "cb", "cc")


def apply_cusp_move(
    factors,
    position: int,
    kind: str,
    shift: Fraction | None = None,
) -> MoveResult:
    """Apply one local rewrite move at a 1-based position.

    Kinds: "adm" transfers a shift unit across the pair (requires shift);
    "ca" swaps adjacent unit-dressed Chebyshev factors of distinct odd
    prime degrees; "cb" moves a prime power x^p from left to right across
    an x^s g(x^p) pattern; "cc" is the mirror move from right to left.

    Raises PatternMismatchError when the factors do not fit the kind,
    IrrationalRootRequiredError when the rewrite exists but needs
    irrational data, ValueError for bad positions or arguments, and
    TypeError for a shift that is not an int or a Fraction.  The result
    always recomposes to the original composite.
    """
    fs = [f for f in factors]
    if any(f.is_constant for f in fs):
        raise ValueError("factors must be nonconstant")
    k = kind.lower()
    if k not in _MOVE_KINDS:
        raise ValueError(f"unknown move kind {kind!r}")
    if not 1 <= position <= len(fs) - 1:
        raise ValueError("position out of range: the move acts on a pair")
    before = compose_all(fs)
    i = position - 1
    if k == "adm":
        if shift is None:
            raise ValueError("the shift transfer move needs a shift")
        _move_shift_transfer(fs, i, _frac(shift))
    elif k == "ca":
        _move_chebyshev_swap(fs, i)
    elif k == "cb":
        _move_power_inward(fs, i)
    else:
        _move_power_outward(fs, i)
    if compose_all(fs) != before:
        raise PostconditionError(
            "the moved factors do not recompose to the original composite"
        )
    return MoveResult(kind=k, position=position, factors=tuple(fs))
