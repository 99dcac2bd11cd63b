"""Command line front end.

Subcommands cover parsing, composition, decomposition and class
enumeration, shape classification and invariants, common composites,
Chebyshev polynomials, the odd monoid, the cusp semigroup, and the
seeded verification suites. Output is plain text or JSON; JSON carries a
top-level "schema": 1 and two runs with the same arguments produce the
same bytes.

Exit codes: 0 success; 1 usage error; 2 domain error (unparsable input,
pattern mismatch, membership failure, failed verification); 3 when an
operation needs an admissible shift that is irrational.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import sys
from fractions import Fraction

from .chebyshev import chebyshev, chebyshev_reduction_identities
from .classify import classify_shape, invariants_of_factors, ritt_invariants
from .corpus import (
    cusp_corpus,
    even_core_composites,
    indecomposable_factor,
    odd_factor_pairs,
    ritt_corpus,
    shifted_odd_composites,
)
from .cusp import (
    IrrationalRootRequiredError,
    PatternMismatchError,
    _MOVE_KINDS,
    _class_index_positions,
    apply_cusp_move,
    compose_in_A_criterion,
    enumerate_A_decompositions,
    in_A,
    max_decompositions,
)
from .decompose import (
    common_composite,
    complete_decomposition,
    enumerate_classes,
    ritt1_check,
)
from .oddmonoid import classify_odd_swap, decompose_in_O, is_irreducible_in_O, is_odd
from .parsing import ParseError, format_coeffs, format_poly, format_rational, parse
from .parsing import parse_rational
from .poly import MAX_DEGREE, Polynomial, Unit, compose_all

class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _trial_count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _add_io(sub, polys: str = "none") -> None:
    if polys != "none":
        help_n = "polynomial in text form" + (
            " (repeat for several)" if polys == "many" else ""
        )
        sub.add_argument("--poly", action="append", default=[], help=help_n)
        sub.add_argument(
            "--file",
            action="append",
            default=[],
            help="JSON file holding a polynomial string or a list of them",
        )
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _gather(args) -> list[Polynomial]:
    texts: list[str] = list(args.poly)
    for path in args.file:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError(f"{path}: JSON nested too deeply") from None
        if isinstance(data, str):
            texts.append(data)
        elif isinstance(data, list) and all(isinstance(t, str) for t in data):
            texts.extend(data)
        else:
            raise ValueError(f"{path}: expected a string or a list of strings")
    if not texts:
        raise ValueError("no polynomial given; use --poly or --file")
    return [parse(t) for t in texts]


def _one(args) -> Polynomial:
    ps = _gather(args)
    if len(ps) != 1:
        raise ValueError(f"expected exactly one polynomial, got {len(ps)}")
    return ps[0]


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps({"schema": 1, **payload}, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _chain_lines(chains) -> list[str]:
    """One indented line per chain of factors, joined by "o"."""
    return ["  " + "  o  ".join(format_poly(f) for f in c) for c in chains]


def _set_fields_json(result, skip: tuple[str, ...] = ()) -> dict:
    """The fields of a result dataclass that are set: polynomials as
    coefficient lists, rationals as text, units as {scale, shift}."""
    out = {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if value is None or field.name in skip:
            continue
        if isinstance(value, Polynomial):
            value = format_coeffs(value)
        elif isinstance(value, Fraction):
            value = format_rational(value)
        elif isinstance(value, Unit):
            value = {k: format_rational(getattr(value, k)) for k in ("scale", "shift")}
        out[field.name] = value
    return out


def _invariants_json(inv) -> dict:
    return {
        "n_P": inv.n_P,
        "n_Q": inv.n_Q,
        "n_R": inv.n_R,
        "n_undetermined": inv.n_undetermined,
        "n_P_by_prime": {str(l): c for l, c in inv.p_by_prime},
    }


def _report_json(rep) -> dict:
    return {
        "degree": rep.degree,
        "length": rep.length,
        "index_at_zero": rep.index,
        "defect": rep.defect,
        "regular": rep.regular,
        "rational_realizable": rep.rational_realizable,
    }


def _skeleton_json(sk) -> dict:
    return {
        "degree": sk.target.degree,
        "index_at_zero": sk.index,
        "bases": [
            {
                "class": [format_coeffs(f) for f in b.factors],
                "position": b.position,
                "shift_sets": [[format_rational(s) for s in ss] for ss in b.shift_sets],
                "degree_multiset": list(b.degree_multiset),
                "rational_instantiable": b.rational_instantiable,
            }
            for b in sk.bases
        ],
        "degree_multisets": [list(m) for m in sk.degree_multisets],
    }


def _cmd_parse(args) -> tuple[int, dict, list[str]]:
    p = _one(args)
    payload = {
        "poly": format_poly(p),
        "degree": None if p.is_zero else p.degree,
        "coefficients": format_coeffs(p),
    }
    return 0, payload, [format_poly(p)]


def _cmd_compose(args) -> tuple[int, dict, list[str]]:
    ps = _gather(args)
    if len(ps) < 2:
        raise ValueError("compose needs at least two polynomials")
    c = compose_all(ps)
    payload = {
        "factors": [format_poly(p) for p in ps],
        "composite": format_poly(c),
        "degree": None if c.is_zero else c.degree,
    }
    return 0, payload, [format_poly(c)]


def _cmd_decompose(args) -> tuple[int, dict, list[str]]:
    a = _one(args)
    d = complete_decomposition(a)
    payload = {
        "target": format_poly(a),
        "factors": [format_poly(f) for f in d.factors],
        "degree_sequence": list(d.degree_sequence),
    }
    return 0, payload, [format_poly(f) for f in d.factors]


def _cmd_classes(args) -> tuple[int, dict, list[str]]:
    a = _one(args)
    classes = enumerate_classes(a)
    payload = {
        "target": format_poly(a),
        "count": len(classes),
        "classes": [
            {
                "factors": [format_poly(f) for f in c.factors],
                "degree_sequence": list(c.degree_sequence),
            }
            for c in classes
        ],
    }
    lines = [f"{len(classes)} class(es)", *_chain_lines(c.factors for c in classes)]
    return 0, payload, lines


def _cmd_classify(args) -> tuple[int, dict, list[str]]:
    shape = classify_shape(_one(args))
    payload = {"shape": _set_fields_json(shape, skip=("source",))}
    return 0, payload, [f"tag: {shape.tag}"]


def _cmd_invariants(args) -> tuple[int, dict, list[str]]:
    inv = ritt_invariants(_one(args))
    payload = {"invariants": _invariants_json(inv)}
    lines = [
        f"n_P={inv.n_P} n_Q={inv.n_Q} n_R={inv.n_R} "
        f"undetermined={inv.n_undetermined}",
        "per-prime: "
        + (
            " ".join(f"{l}:{c}" for l, c in inv.p_by_prime)
            if inv.p_by_prime
            else "(none)"
        ),
    ]
    return 0, payload, lines


def _cmd_common(args) -> tuple[int, dict, list[str]]:
    ps = _gather(args)
    if len(ps) != 2:
        raise ValueError("common needs exactly two polynomials")
    got = common_composite(ps[0], ps[1], args.bound)
    if got is None:
        return 0, {"found": False}, ["none"]
    c, alpha, beta = got
    payload = {
        "found": True,
        "composite": format_poly(c),
        "outer_for_first": format_poly(alpha),
        "outer_for_second": format_poly(beta),
    }
    return 0, payload, [format_poly(c)]


def _cmd_cheb(args) -> tuple[int, dict, list[str]]:
    t = chebyshev(args.n)
    return 0, {"n": args.n, "poly": format_poly(t)}, [format_poly(t)]


def _cmd_odd_analyze(args) -> tuple[int, dict, list[str]]:
    a = _one(args)
    if not is_odd(a):
        return 2, {"odd": False, "poly": format_poly(a)}, ["not an odd polynomial"]
    payload: dict = {"odd": True, "poly": format_poly(a)}
    lines = ["odd: yes"]
    if a.degree >= 2:
        irr = is_irreducible_in_O(a)
        payload["irreducible"] = irr
        lines.append(f"irreducible in O: {'yes' if irr else 'no'}")
        classes = decompose_in_O(a)
        payload["classes"] = [[format_poly(f) for f in c.factors] for c in classes]
        lines.append(f"{len(classes)} class(es)")
        lines.extend(_chain_lines(c.factors for c in classes))
        swaps = []
        pairs = [c.factors for c in classes if len(c.factors) == 2]
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                res = classify_odd_swap(*pairs[i], *pairs[j])
                swaps.append(_set_fields_json(res))
                lines.append(f"swap {i},{j}: kind {res.kind}")
        payload["swaps"] = swaps
    return 0, payload, lines


def _cmd_odd_swap(args) -> tuple[int, dict, list[str]]:
    ps = _gather(args)
    if len(ps) != 4:
        raise ValueError("odd swap needs four polynomials: p q p* q*")
    res = classify_odd_swap(ps[0], ps[1], ps[2], ps[3])
    return 0, {"swap": _set_fields_json(res)}, [f"kind {res.kind}"]


def _cmd_cusp_report(args) -> tuple[int, dict, list[str]]:
    a = _one(args)
    sk = max_decompositions(a)
    rep = sk.report
    payload = {"report": _report_json(rep), "max_skeleton": _skeleton_json(sk)}
    lines = [
        f"degree {rep.degree}: length {rep.length}, index at zero {rep.index}, "
        f"defect {rep.defect}, {'regular' if rep.regular else 'irregular'}, "
        f"{'rational witnesses exist' if rep.rational_realizable else 'needs irrational shifts'}",
        "maximal degree multisets: "
        + " ".join("{" + ",".join(map(str, m)) + "}" for m in sk.degree_multisets),
    ]
    return 0, payload, lines


def _cmd_cusp_decs(args) -> tuple[int, dict, list[str]]:
    a = _one(args)
    decs = enumerate_A_decompositions(a)
    payload = {
        "target": format_poly(a),
        "lengths": list(decs.lengths),
        "members": [[format_poly(f) for f in m] for m in decs.members],
    }
    lines = [f"lengths: {list(decs.lengths)}", *_chain_lines(decs.members)]
    return 0, payload, lines


def _cmd_cusp_move(args) -> tuple[int, dict, list[str]]:
    ps = _gather(args)
    if len(ps) < 2:
        raise ValueError("cusp move needs a decomposition of at least two factors")
    res = apply_cusp_move(tuple(ps), args.position, args.kind, args.shift)
    payload = {
        "move": {
            "kind": res.kind,
            "position": res.position,
            "factors": [format_poly(f) for f in res.factors],
            "in_A": list(res.in_A),
        }
    }
    return 0, payload, [" o ".join(format_poly(f) for f in res.factors)]


def _suite_ritt1(seed: int, trials: int) -> tuple[int, list[str]]:
    failures = []
    for k, fs in enumerate(ritt_corpus(seed, trials)):
        a = compose_all(fs)
        rep = ritt1_check(a)
        ok = rep.passed
        if ok:
            tails = {c.factors[-1] for c in enumerate_classes(a)}
            degs = sorted(t.degree for t in tails)
            ok = len(degs) == len(set(degs)) and all(
                math.gcd(degs[i], degs[j]) == 1
                for i in range(len(degs))
                for j in range(i + 1, len(degs))
            )
        if not ok:
            failures.append(f"element {k}")
    return trials, failures


def _suite_invariants(seed: int, trials: int) -> tuple[int, list[str]]:
    failures = []
    for k, fs in enumerate(ritt_corpus(seed, trials)):
        a = compose_all(fs)
        per_class = [
            invariants_of_factors(c.factors) for c in enumerate_classes(a)
        ]
        if len(set(per_class)) != 1 or any(v.has_undetermined for v in per_class):
            failures.append(f"element {k}")
    return trials, failures


def _suite_chebyshev(seed: int, trials: int) -> tuple[int, list[str]]:
    del seed, trials  # the identity set below is fixed and exact
    failures = []
    checks = 0
    for m in range(2, 31):
        for n in range(2, 31):
            if m * n > 60:
                continue
            checks += 1
            if chebyshev(m).compose(chebyshev(n)) != chebyshev(m * n):
                failures.append(f"T_{m} o T_{n}")
    checks += 1
    if chebyshev(2) != parse("2x-1").compose(Polynomial.monomial(2)):
        failures.append("T_2 unit form")
    for n, ok in chebyshev_reduction_identities((3, 5, 7)).items():
        checks += 1
        if not ok:
            failures.append(f"reduction identity {n}")
    primes = (2, 3, 5, 7, 11, 13)
    from .roots import poly_gcd

    for i in range(len(primes)):
        for j in range(i + 1, len(primes)):
            checks += 1
            g = poly_gcd(
                chebyshev(primes[i]).derivative(), chebyshev(primes[j]).derivative()
            )
            if not (g.is_constant and not g.is_zero):
                failures.append(f"derivative gcd {primes[i]},{primes[j]}")
    return checks, failures


def _suite_odd(seed: int, trials: int) -> tuple[int, list[str]]:
    failures = []
    checks = 0
    for k, p in enumerate(shifted_odd_composites(seed, trials)):
        checks += 1
        if is_odd(p):
            failures.append(f"shifted sample {k}")
    for k, p in enumerate(even_core_composites(seed, trials)):
        checks += 1
        if is_odd(p):
            failures.append(f"even-core sample {k}")
    for k, (a, b) in enumerate(odd_factor_pairs(seed, min(trials, 200))):
        checks += 1
        c = a.compose(b)
        ok = is_odd(c)
        if ok and c.degree >= 2:
            classes = decompose_in_O(c)
            ok = ritt1_check(c).passed and all(
                is_odd(f) for cl in classes for f in cl.factors
            )
        if not ok:
            failures.append(f"closure pair {k}")
    return checks, failures


def _suite_cusp(seed: int, trials: int) -> tuple[int, list[str]]:
    failures = []
    checks = 0
    for k, fs in enumerate(cusp_corpus(seed, trials)):
        checks += 1
        a = compose_all(fs)
        try:
            if not in_A(a):
                raise ValueError("corpus element escaped A")
            sk = max_decompositions(a)
            rep = sk.report
            # the index once more, straight from the classes, so the
            # skeleton's own reduction is checked
            index = max(
                i
                for cls in enumerate_classes(a)
                for i in _class_index_positions(cls.factors)
            )
            ok = rep.index == index and rep.length >= rep.index
            if rep.regular and len(sk.degree_multisets) != 1:
                ok = False
            if (
                ok
                and rep.rational_realizable
                and a.degree <= 16
            ):
                ok = max(enumerate_A_decompositions(a).lengths) == rep.index
        except (PatternMismatchError, IrrationalRootRequiredError, ValueError):
            ok = False
        if not ok:
            failures.append(f"element {k}")
    rng = random.Random(seed)
    for k in range(500):
        checks += 1
        f = indecomposable_factor(rng)
        g = indecomposable_factor(rng)
        lhs = in_A(f.compose(g))
        if lhs != compose_in_A_criterion(f, g)[0]:
            failures.append(f"membership pair {k}")
    return checks, failures


# name: (runner, default trial count); chebyshev's identity set is fixed
_SUITES = {
    "ritt1": (_suite_ritt1, 200),
    "invariants": (_suite_invariants, 200),
    "chebyshev": (_suite_chebyshev, 0),
    "odd": (_suite_odd, 1000),
    "cusp": (_suite_cusp, 50),
}


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    results = []
    lines = []
    any_fail = False
    for name in names:
        runner, trials = _SUITES[name]
        if args.trials is not None:
            trials = args.trials
        checks, failures = runner(args.seed, trials)
        any_fail = any_fail or bool(failures)
        results.append(
            {
                "suite": name,
                "checks": checks,
                "passes": checks - len(failures),
                "failures": failures,
            }
        )
        lines.append(f"suite {name}: {checks - len(failures)}/{checks} pass")
    return (2 if any_fail else 0), {"seed": args.seed, "results": results}, lines


def _add_commands(subs, *rows) -> None:
    """Register (name, help, polys, handler) rows that take only I/O flags."""
    for name, help_text, polys, fn in rows:
        sp = subs.add_parser(name, help=help_text)
        _add_io(sp, polys)
        sp.set_defaults(fn=fn)


def _build_parser() -> _Parser:
    top = _Parser(prog="polydecomp", description=__doc__.splitlines()[0])
    subs = top.add_subparsers(dest="command", required=True)
    _add_commands(
        subs,
        ("parse", "canonical text form of a polynomial", "one", _cmd_parse),
        ("compose", "compose polynomials left to right", "many", _cmd_compose),
        ("decompose", "one complete decomposition", "one", _cmd_decompose),
        ("classes", "all decomposition classes", "one", _cmd_classes),
        ("classify", "shape tag of an indecomposable", "one", _cmd_classify),
        ("invariants", "class-independent factor counts", "one", _cmd_invariants),
    )

    sp = subs.add_parser("common", help="least common composite of two polynomials")
    _add_io(sp, "many")
    sp.add_argument("--bound", type=int, default=MAX_DEGREE, help="degree cap")
    sp.set_defaults(fn=_cmd_common)

    sp = subs.add_parser("cheb", help="Chebyshev polynomial T_n")
    sp.add_argument("n", type=int)
    _add_io(sp)
    sp.set_defaults(fn=_cmd_cheb)

    sp = subs.add_parser("odd", help="odd-monoid operations")
    _add_commands(
        sp.add_subparsers(dest="odd_command", required=True),
        ("analyze", "membership, irreducibility, classes", "one", _cmd_odd_analyze),
        ("swap", "name the swap pattern of two pairs", "many", _cmd_odd_swap),
    )

    sp = subs.add_parser("cusp", help="cusp-semigroup operations")
    csubs = sp.add_subparsers(dest="cusp_command", required=True)
    _add_commands(
        csubs,
        ("report", "length, index, defect, regularity", "one", _cmd_cusp_report),
        ("decs", "all decompositions inside A", "one", _cmd_cusp_decs),
    )
    cp = csubs.add_parser("move", help="apply a local rewrite move")
    _add_io(cp, "many")
    cp.add_argument("--position", type=int, required=True, help="1-based factor index")
    cp.add_argument("--kind", choices=_MOVE_KINDS, required=True, help="move kind")
    cp.add_argument(
        "--shift",
        type=parse_rational,
        default=Fraction(0),
        help="rational shift parameter",
    )
    cp.set_defaults(fn=_cmd_cusp_move)

    sp = subs.add_parser("verify", help="run a seeded verification suite")
    sp.add_argument("--suite", choices=(*_SUITES, "all"), required=True)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument(
        "--trials", type=_trial_count, help="sample count (suite default if omitted)"
    )
    _add_io(sp)
    sp.set_defaults(fn=_cmd_verify)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, payload, lines = args.fn(args)
        _emit(args, payload, lines)
        return code
    except IrrationalRootRequiredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, PatternMismatchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
