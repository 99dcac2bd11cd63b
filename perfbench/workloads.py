"""Seeded inputs, ops and correctness checks for the three workloads.

An op is one user request on one seeded input: parse the input text, make
the library calls, then format the result with ``format_poly``.  Every op
returns ``(text, check)``: ``text`` is the formatted output that goes into
the run's digest, and ``check()`` runs the workload's correctness
predicates.  The harness times the op and never the check.

The ops reach the library through the ``polydecomp`` package attributes
at call time, so a tracer that rebinds them sees every call the ops make.

Inputs.  The corpus generator draws 2 to 4 factors of prime degree with
``polydecomp.corpus.indecomposable_factor``.  Instead of drawing each
composite's shape at random, the benchmark walks a fixed shape schedule
whose frequencies are exactly those of ``ritt_corpus``: every 2-factor
shape 16 times, every 3-factor shape 4 times and every 4-factor shape
once in each cycle of 768, with 2-, 3- and 4-factor composites taking
turns.  The seed draws every coefficient, so the same seed gives the same
inputs, but the degree mix of a pass does not depend on the seed.  Cost
grows steeply with degree (a degree-2401 composite costs about as much as
a thousand small ones), so a random mix made throughput differ by about
20% from seed to seed.
"""

from __future__ import annotations

import itertools
import math
import random

import polydecomp as pd
from polydecomp import corpus

PRIMES = (2, 3, 5, 7)
CHEBYSHEV_RANGE = range(4, 121)
# Inputs per second of --seconds in one pass.  At the seed commit, on the
# reference host at nominal speed (see speed.py), a pass with its checks
# then takes about 55% of --seconds for classes, whose metrics are steady
# with fewer inputs, 80% for cusp-odd and 95% for invariants, whose op
# costs are the most heavy-tailed.  Fixed numbers, so both sides of a
# comparison run the same inputs.
RATES = {"classes": 26.7, "invariants": 10.9, "cusp-odd": 51.4}
# cusp-odd: odd-pair ops per cusp op, the ratio of the verify suites.
ODD_PER_CUSP = 4
# A-decompositions are enumerated up to this degree.
A_DEC_DEGREE = 64


def _shape_groups() -> list[list[tuple[int, ...]]]:
    groups = []
    for k in (2, 3, 4):
        repeat = 4 ** (4 - k)
        group = [s for s in itertools.product(PRIMES, repeat=k) for _ in range(repeat)]
        random.Random(k).shuffle(group)
        groups.append(group)
    return groups


def shape_schedule(count: int) -> list[tuple[int, ...]]:
    """The first count composite shapes; the same for every seed."""
    groups = _shape_groups()
    cycle = [g[i] for i in range(len(groups[0])) for g in groups]
    return [cycle[i % len(cycle)] for i in range(count)]


def corpus_factors(seed: int, count: int):
    """count factor tuples with seeded coefficients over the shape schedule."""
    rng = random.Random(seed)
    return [
        tuple(corpus.indecomposable_factor(rng, d) for d in shape)
        for shape in shape_schedule(count)
    ]


def _texts(polys) -> tuple[str, ...]:
    return tuple(pd.format_poly(p) for p in polys)


def _chain(factors) -> str:
    return " o ".join(pd.format_poly(f) for f in factors)


def _composite_ns() -> list[int]:
    return [n for n in CHEBYSHEV_RANGE if any(n % p == 0 for p in range(2, math.isqrt(n) + 1))]


def build_inputs(workload: str, seed: int, seconds: float) -> list[tuple[str, object]]:
    """One pass of (kind, input) pairs, sized by ``RATES`` for ``seconds``.
    Only texts and integers, so the ops do the parsing."""
    n = max(1, round(RATES[workload] * seconds))
    if workload == "classes":
        ns = _composite_ns()
        out = [("ritt", _texts(fs)) for fs in corpus_factors(seed, max(1, n - len(ns)))]
        # Spread the fixed Chebyshev ops evenly through the pass.
        step = len(out) / len(ns)
        for i, m in reversed(list(enumerate(ns))):
            out.insert(int(i * step), ("cheb", m))
        return out
    if workload == "invariants":
        return [("inv", _texts(fs)) for fs in corpus_factors(seed, n)]
    if workload == "cusp-odd":
        n_cusp = max(1, n // (ODD_PER_CUSP + 1))
        # The adjustment cusp_corpus makes: the composite is critical at 0.
        cusp = [corpus._force_critical_at_zero(fs) for fs in corpus_factors(seed, n_cusp)]
        pairs = corpus.odd_factor_pairs(seed, n_cusp * ODD_PER_CUSP)
        out = []
        for i, fs in enumerate(cusp):
            out.append(("cusp", _texts(fs)))
            for pq in pairs[i * ODD_PER_CUSP:(i + 1) * ODD_PER_CUSP]:
                out.append(("odd", _texts(pq)))
        return out
    raise ValueError(f"unknown workload {workload!r}")


# -- ops ---------------------------------------------------------------


def _op_ritt(texts):
    factors = [pd.parse(t) for t in texts]
    a = pd.compose_all(factors)
    classes = pd.enumerate_classes(a)
    text = "\n".join(_chain(c.factors) for c in classes)

    def check():
        reps = {c.factors for c in classes}
        return pd.canonicalize(factors) in reps and all(
            pd.compose_all(c.factors) == a for c in classes
        )

    return text, check


def _prime_factors(n: int) -> list[int]:
    # Trial division here, so the check does not lean on the library.
    out, p = [], 2
    while n > 1:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out


def _op_cheb(n):
    t = pd.chebyshev(n)
    classes = pd.enumerate_classes(t)
    text = "\n".join(_chain(c.factors) for c in classes)

    def check():
        orderings = set(itertools.permutations(_prime_factors(n)))
        return sorted(c.degree_sequence for c in classes) == sorted(orderings)

    return text, check


def _op_inv(texts):
    a = pd.compose_all([pd.parse(t) for t in texts])
    classes = pd.enumerate_classes(a)
    invs = [pd.invariants_of_factors(c.factors) for c in classes]
    text = "\n".join(
        f"{_chain(c.factors)} | P={v.n_P} Q={v.n_Q} R={v.n_R} U={v.n_undetermined} "
        f"by_prime={list(v.p_by_prime)}"
        for c, v in zip(classes, invs)
    )

    def check():
        return len(set(invs)) == 1 and not any(v.has_undetermined for v in invs)

    return text, check


def _op_cusp(texts):
    a = pd.compose_all([pd.parse(t) for t in texts])
    rep = pd.cusp_report(a)
    skeleton = pd.max_decompositions(a)
    inst = skeleton.default_instantiations()
    adecs = pd.enumerate_A_decompositions(a) if a.degree <= A_DEC_DEGREE else None
    lines = [
        f"degree={rep.degree} length={rep.length} index={rep.index} "
        f"rational={rep.rational_realizable} multisets={list(skeleton.degree_multisets)}"
    ]
    lines += ["max: " + _chain(m) for m in inst]
    if adecs is not None:
        lines += ["A: " + _chain(m) for m in adecs.members]
    text = "\n".join(lines)

    def check():
        # The predicates of the verify cusp suite, A-decompositions to degree 64.
        ok = pd.in_A(a) and rep.index == skeleton.index and rep.length >= rep.index
        if rep.regular and len(skeleton.degree_multisets) != 1:
            ok = False
        if ok and rep.rational_realizable and adecs is not None:
            ok = max(adecs.lengths) == rep.index
        return ok

    return text, check


def _op_odd(texts):
    c = pd.compose_all([pd.parse(t) for t in texts])
    classes = pd.decompose_in_O(c)
    lines = []
    for cl in classes:
        irr = [pd.is_irreducible_in_O(f) for f in cl.factors]
        lines.append(f"{_chain(cl.factors)} | irreducible={irr}")
    pairs = [cl.factors for cl in classes if len(cl.factors) == 2]
    for i, j in itertools.combinations(range(len(pairs)), 2):
        try:
            swap = pd.classify_odd_swap(*pairs[i], *pairs[j])
            lines.append(f"swap {i},{j}: {swap.kind}")
        except ValueError as exc:
            # Documented outcome when no swap pattern matches; it is the
            # answer a user gets, so it goes into the output, not a failure.
            lines.append(f"swap {i},{j}: error: {exc}")
    text = "\n".join(lines)

    def check():
        # The closure predicates of the verify odd suite.
        lengths = {len(cl.factors) for cl in classes}
        multisets = {tuple(sorted(f.degree for f in cl.factors)) for cl in classes}
        return (
            pd.is_odd(c)
            and len(lengths) == 1
            and len(multisets) == 1
            and all(pd.is_odd(f) for cl in classes for f in cl.factors)
        )

    return text, check


OPS = {
    "ritt": _op_ritt,
    "cheb": _op_cheb,
    "inv": _op_inv,
    "cusp": _op_cusp,
    "odd": _op_odd,
}
