"""Command-line front end: subcommands, exit codes, and output stability."""

import argparse
import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import time

import pytest

import polydecomp.cli as cli
import polydecomp.cusp as cusp
from polydecomp.parsing import parse


def run(argv):
    """Call main() in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestBasics:
    def test_cheb_text(self):
        code, out, _ = run(["cheb", "3", "--format", "text"])
        assert code == 0
        assert out == "4*x^3 - 3*x\n"

    def test_cheb_deep_index(self):
        # the recursion is log2(n) deep, so no RecursionError at n = 500
        code, out, err = run(["cheb", "500"])
        assert (code, err) == (0, "")
        t = parse(out)
        assert t.degree == 500 and t.lead == 2**499

    def test_degree_cap(self):
        code, out, err = run(["cheb", "4097"])
        assert (code, out) == (2, "")
        assert err == "error: Chebyshev index 4097 exceeds the degree cap 4096\n"
        code, out, err = run(["parse", "--poly", "x^1000000000"])
        assert (code, out) == (2, "")
        assert "degree cap" in err

    def test_prints_coefficients_past_the_str_limit(self):
        nines = "9" * 3000
        code, out, err = run(["compose", "--poly", f"{nines}x^2", "--poly", f"{nines}x^2"])
        assert (code, err) == (0, "")
        # (10^3000 - 1)^3 = 10^9000 - 3 * 10^6000 + 3 * 10^3000 - 1
        cube = "9" * 2999 + "7" + "0" * 2999 + "2" + "9" * 2999 + "9"
        assert out == f"{cube}*x^4\n"
        coprime = f"{nines}/1{'0' * 2999}1"
        code, out, _ = run(["parse", "--poly", f"{coprime} x", "--format", "json"])
        assert code == 0
        assert json.loads(out)["coefficients"] == ["0", coprime]

    def test_literal_cap(self):
        code, out, err = run(["parse", "--poly", "9" * 4301 + "x"])
        assert (code, out) == (2, "")
        assert err.startswith("error: syntax error at offset 0: ")

    def test_parse_json(self):
        code, out, _ = run(["parse", "--poly", "x^2+1", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["degree"] == 2
        assert payload["coefficients"] == ["1", "0", "1"]
        assert payload["poly"] == "x^2 + 1"

    def test_compose(self):
        code, out, _ = run(["compose", "--poly", "x^2", "--poly", "x^3+x", "--format", "text"])
        assert code == 0
        assert out.strip() == "x^6 + 2*x^4 + x^2"

    def test_zero_polynomial_text(self):
        for argv in (["parse", "--poly", "0"], ["compose", "--poly", "x^2", "--poly", "0"]):
            assert run(argv + ["--format", "text"]) == (0, "0\n", "")

    def test_zero_polynomial_json(self):
        code, out, _ = run(["parse", "--poly", "0", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["poly"], payload["degree"], payload["coefficients"]) == ("0", None, [])
        code, out, _ = run(["compose", "--poly", "x^2", "--poly", "0", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["composite"], payload["degree"]) == ("0", None)

    def test_decompose_example(self):
        code, out, _ = run(["decompose", "--poly", "x^8+2*x^6+x^4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["factors"] == ["x^2", "x^2 + x", "x^2"]
        assert payload["degree_sequence"] == [2, 2, 2]

    def test_classes(self):
        code, out, _ = run(
            ["classes", "--poly", "32x^6 - 48x^4 + 18x^2 - 1", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert sorted(c["degree_sequence"] for c in payload["classes"]) == [[2, 3], [3, 2]]

    def test_classify(self):
        code, out, _ = run(["classify", "--poly", "x^5 + x^3", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["shape"]["tag"] == "Q"
        assert payload["shape"]["s"] == 3

    def test_invariants(self):
        code, out, _ = run(["invariants", "--poly", "x^8+2*x^6+x^4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["invariants"]["n_P"] == 3

    def test_common(self):
        code, out, _ = run(
            ["common", "--poly", "x^2", "--poly", "x^3", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["composite"] == "x^6"
        assert payload["outer_for_first"] == "x^3"
        assert payload["outer_for_second"] == "x^2"

    def test_common_not_found(self):
        code, out, _ = run(
            ["common", "--poly", "x^2", "--poly", "x^2+x", "--bound", "8", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["found"] is False

    def test_common_default_bound_is_the_degree_cap(self):
        # lcm(128, 127) = 16256 > MAX_DEGREE: refused before any system is built
        t0 = time.perf_counter()
        code, out, err = run(["common", "--poly", "x^128+x", "--poly", "x^127+x^2"])
        assert time.perf_counter() - t0 < 2.0
        assert (code, out) == (2, "")
        assert "degree 16256 exceeds bound 4096" in err

    def test_common_refuses_powers_too_large(self):
        # lcm(2, 2047) = 4094 is under the cap, but the powers of the pass
        # would hold about 4.19M coefficients
        long = " + ".join(f"x^{k}" for k in range(2047, 0, -1)) + " + 1"
        t0 = time.perf_counter()
        code, out, err = run(["common", "--poly", "x^2 + x", "--poly", long])
        assert time.perf_counter() - t0 < 2.0
        assert (code, out) == (2, "")
        assert "needs powers of 4194303 coefficients" in err

    @pytest.mark.parametrize(
        "poly",
        [
            "x^101 + x^2 + x",
            # x^3 (x - 1)^2 (x^36 + 2), whose critical values are not squarefree
            "x^41 - 2x^40 + x^39 + 2x^5 - 4x^4 + 2x^3",
        ],
    )
    def test_classify_within_budget(self, poly):
        # a child process, so that a slow gcd is killed at the timeout
        proc = subprocess.run(
            [sys.executable, "-m", "polydecomp.cli", "classify", "--poly", poly],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "tag: R\n", "")

    def test_file_input(self, tmp_path):
        path = tmp_path / "polys.json"
        path.write_text(json.dumps(["x^2", "x^3 + x"]))
        code, out, _ = run(["compose", "--file", str(path), "--format", "text"])
        assert code == 0
        assert out.strip() == "x^6 + 2*x^4 + x^2"

    def test_deeply_nested_file_is_2(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        code, out, err = run(["parse", "--file", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "nested too deeply" in err
        assert "Traceback" not in err


class TestOddCommands:
    def test_analyze(self):
        code, out, _ = run(["odd", "analyze", "--poly", "x^9", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["odd"] is True
        assert payload["irreducible"] is False
        assert payload["classes"] == [["x^3", "x^3"]]

    @pytest.mark.parametrize(
        "poly,kind",
        [
            ("x^15", "b"),
            ("2x^65 + 10x^55 + 20x^45 + 20x^35 + 10x^25 + 2x^15", "c"),
            ("3x^21 - 9/2 x^15 + 9/4 x^9 - 3/8 x^3", "c"),
        ],
    )
    def test_analyze_power_swaps(self, poly, kind):
        code, out, _ = run(["odd", "analyze", "--poly", poly])
        assert code == 0
        assert out.splitlines()[-1] == f"swap 0,1: kind {kind}"

    def test_analyze_dickson_swap(self):
        # (8x^3 - 3x) . (64x^5 - 40x^3 + 5x), T_3 and T_5 conjugated by
        # x -> sqrt(2) x
        poly = (
            "2097152*x^15 - 3932160*x^13 + 2949120*x^11 - 1126400*x^9"
            " + 230400*x^7 - 24192*x^5 + 1120*x^3 - 15*x"
        )
        code, out, _ = run(["odd", "analyze", "--poly", poly])
        assert code == 0
        assert out.splitlines()[-1] == "swap 0,1: kind a"

    def test_analyze_rejects_even(self):
        code, _, err = run(["odd", "analyze", "--poly", "x^4"])
        assert code == 2

    def test_swap(self):
        code, out, _ = run(
            [
                "odd", "swap",
                "--poly", "x^7 + 3x^5 + 3x^3 + x",
                "--poly", "x^3",
                "--poly", "x^3",
                "--poly", "x^7 + x",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["swap"]["kind"] == "b"
        assert payload["swap"]["s"] == 3
        assert payload["swap"]["t"] == 1
        assert payload["swap"]["alpha"] == ["1", "1"]


    def test_swap_composite_above_the_cap_is_2(self):
        # 67 * 71 = 4757 > MAX_DEGREE, refused as `compose` refuses it
        code, out, err = run(
            ["odd", "swap", "--poly", "x^67", "--poly", "x^71", "--poly", "x^71", "--poly", "x^67"]
        )
        assert (code, out) == (2, "")
        assert err == "error: composite degree 4757 exceeds the degree cap 4096\n"


class TestCuspCommands:
    def test_report(self):
        code, out, _ = run(["cusp", "report", "--poly", "x^8+2*x^6+x^4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["length"] == 3
        assert payload["report"]["index_at_zero"] == 3
        assert payload["report"]["regular"] is True
        assert payload["max_skeleton"]["degree_multisets"] == [[2, 2, 2]]

    def test_report_builds_the_skeleton_once(self, monkeypatch):
        calls = []
        real = cli.max_decompositions

        def counting(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(cli, "max_decompositions", counting)
        monkeypatch.setattr(cusp, "max_decompositions", counting)
        for fmt in ("text", "json"):
            calls.clear()
            code, _, _ = run(["cusp", "report", "--poly", "x^8+2*x^6+x^4", "--format", fmt])
            assert code == 0
            assert calls == [parse("x^8+2*x^6+x^4")]

    def test_decs(self):
        code, out, _ = run(["cusp", "decs", "--poly", "x^8+2*x^6+x^4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["lengths"] == [2, 3]
        assert ["x^4 + 2*x^3 + x^2", "x^2"] in payload["members"]

    def test_move(self):
        code, out, _ = run(
            [
                "cusp", "move",
                "--poly", "x^2", "--poly", "x^2 + x", "--poly", "x^2",
                "--position", "2", "--kind", "adm", "--shift=-1/2",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["move"]["factors"] == ["x^2", "x^2 - 1/4", "x^2 + 1/2"]
        assert payload["move"]["in_A"] == [True, True, True]

    @pytest.mark.parametrize(
        "shift", ["1e5000", "1/0", "0.5", "9" * 4301, "1/2x", "3\u00b2"]
    )
    def test_move_rejects_a_bad_shift(self, shift):
        t0 = time.perf_counter()
        code, out, err = run(
            [
                "cusp", "move", "--poly", "x^2", "--poly", "x^2 + x",
                "--position", "1", "--kind", "adm", "--shift", shift,
            ]
        )
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "")
        assert "argument --shift" in err


    @pytest.mark.parametrize(
        "polys,kind,code,stdout,stderr",
        [
            (["x^3+3x^2-4", "x^2+1"], "cc", 0, "x^2 o x^3 + 3*x\n", ""),
            (
                ["x^2", "x^3+3x^2-2", "x^2"], "cb", 0,
                "x^3 - 3*x^2 + 4 o x^2 - 1 o x^2 + 1\n", "",
            ),
            (
                ["x^3+3x^2-4", "x^2+1", "x^3"], "cc", 3, "",
                "error: the rewritten inner factor has no rational critical point\n",
            ),
        ],
    )
    def test_power_moves(self, polys, kind, code, stdout, stderr):
        argv = ["cusp", "move", "--position", "1", "--kind", kind]
        for poly in polys:
            argv += ["--poly", poly]
        assert run(argv) == (code, stdout, stderr)


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert run(["nonsense"])[0] == 1
        assert run([])[0] == 1
        assert run(["cheb"])[0] == 1

    def test_domain_error_is_2(self):
        assert run(["classify", "--poly", "x^4 + x^2"])[0] == 2
        assert run(["parse", "--poly", "x^2/4"])[0] == 2
        assert run(["cusp", "report", "--poly", "x^2 + x"])[0] == 2

    @pytest.mark.parametrize("poly", ["\u00b2", "3\u00b2x", "x^\u00b3"])
    def test_non_decimal_digit_is_2(self, poly):
        # str.isdigit() holds for these but int() does not read them
        for cmd in ("classify", "parse"):
            code, out, err = run([cmd, "--poly", poly])
            assert (code, out) == (2, "")
            assert "unexpected character" in err

    @pytest.mark.parametrize("poly", ["x + 1", "5", "0"])
    def test_classes_below_degree_two_is_2(self, poly):
        code, out, err = run(["classes", "--poly", poly])
        assert (code, out) == (2, "")
        assert "degree >= 2" in err

    def test_pattern_mismatch_is_2(self):
        code, _, err = run(
            ["cusp", "move", "--poly", "x^2 + x", "--poly", "x^3 + x^2",
             "--position", "1", "--kind", "cb"]
        )
        assert code == 2
        assert "error" in err

    def test_irrational_root_is_3(self):
        code, _, err = run(
            ["cusp", "move", "--poly", "4x^3 - 3x", "--poly", "16x^5 - 20x^3 + 5x",
             "--position", "1", "--kind", "ca"]
        )
        assert code == 3
        assert "irrational" in err.lower()

    def test_success_is_0(self):
        assert run(["cheb", "2"])[0] == 0

    def test_composite_above_the_cap_is_2(self):
        # 2048 * 2048 > MAX_DEGREE: refused before any power is built
        t0 = time.perf_counter()
        code, out, err = run(["compose", "--poly", "x^2048 + x", "--poly", "x^2048 + x"])
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert "composite degree 4194304 exceeds the degree cap 4096" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--poly", "x^8+2*x^6+x^4", "--format", "json"],
            ["cusp", "report", "--poly", "x^8+2*x^6+x^4", "--format", "json"],
            ["verify", "--suite", "chebyshev"],
        ],
    )
    def test_identical_runs_identical_bytes(self, argv):
        first = run(argv)
        second = run(argv)
        assert first == second
        assert first[0] == 0


class TestVerifySuites:
    def test_chebyshev_suite(self):
        code, out, _ = run(["verify", "--suite", "chebyshev"])
        assert code == 0
        assert "161/161 pass" in out

    def test_odd_suite_small(self):
        code, out, _ = run(["verify", "--suite", "odd", "--trials", "40"])
        assert code == 0
        assert "120/120 pass" in out

    def test_ritt1_suite_small(self):
        code, out, _ = run(["verify", "--suite", "ritt1", "--trials", "20", "--seed", "42"])
        assert code == 0
        assert "pass" in out

    @pytest.mark.parametrize("trials", ["-3", "-1", "x"])
    def test_rejects_a_bad_trial_count(self, trials):
        code, out, err = run(["verify", "--suite", "ritt1", "--trials", trials])
        assert (code, out) == (1, "")
        assert "argument --trials" in err

    def test_zero_trials(self):
        assert run(["verify", "--suite", "ritt1", "--trials", "0"]) == (
            0, "suite ritt1: 0/0 pass\n", ""
        )

    def test_cusp_suite_catches_a_wrong_skeleton_index(self, monkeypatch):
        # the suite recomputes the index from the classes, so a skeleton
        # that misreports it fails every element
        real = cli.max_decompositions

        def off_by_one(a):
            sk = real(a)
            return dataclasses.replace(sk, index=sk.index + 1)

        assert run(["verify", "--suite", "cusp", "--trials", "3"])[0] == 0
        monkeypatch.setattr(cli, "max_decompositions", off_by_one)
        code, out, _ = run(["verify", "--suite", "cusp", "--trials", "3", "--format", "json"])
        assert code == 2
        failures = json.loads(out)["results"][0]["failures"]
        assert failures == ["element 0", "element 1", "element 2"]

    def test_seed_changes_corpus_not_outcome(self):
        a = run(["verify", "--suite", "ritt1", "--trials", "10", "--seed", "1"])
        b = run(["verify", "--suite", "ritt1", "--trials", "10", "--seed", "2"])
        assert a[0] == 0 and b[0] == 0


_IO = [
    ("--poly", False, None, [], None),
    ("--file", False, None, [], None),
    ("--format", False, ("text", "json"), "text", None),
]

# Every command path with its arguments in registration order: option
# string (or dest), required, choices, default and the name of the type.
FLAGS = {
    (): [],
    ("parse",): _IO,
    ("compose",): _IO,
    ("decompose",): _IO,
    ("classes",): _IO,
    ("classify",): _IO,
    ("invariants",): _IO,
    ("common",): [*_IO, ("--bound", False, None, 4096, "int")],
    ("cheb",): [("n", True, None, None, "int"), _IO[2]],
    ("odd",): [],
    ("odd", "analyze"): _IO,
    ("odd", "swap"): _IO,
    ("cusp",): [],
    ("cusp", "report"): _IO,
    ("cusp", "decs"): _IO,
    ("cusp", "move"): [
        *_IO,
        ("--position", True, None, None, "int"),
        ("--kind", True, ("adm", "ca", "cb", "cc"), None, None),
        ("--shift", False, None, 0, "parse_rational"),
    ],
    ("verify",): [
        (
            "--suite",
            True,
            ("ritt1", "invariants", "chebyshev", "odd", "cusp", "all"),
            None,
            None,
        ),
        ("--seed", False, None, 42, "int"),
        ("--trials", False, None, None, "_trial_count"),
        _IO[2],
    ],
}


def _flag_table(parser, path=()):
    rows, subs = [], None
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            subs = a
        elif not isinstance(a, argparse._HelpAction):
            choices = None if a.choices is None else tuple(a.choices)
            rows.append((
                a.option_strings[0] if a.option_strings else a.dest,
                a.required,
                choices,
                a.default,
                None if a.type is None else a.type.__name__,
            ))
    yield path, rows
    for name, sub in (subs.choices.items() if subs else ()):
        yield from _flag_table(sub, path + (name,))


class TestHelpCoverage:
    def test_every_flag_of_every_command(self):
        # usage text varies across Python versions, so the flags are
        # pinned from the parser itself
        assert dict(_flag_table(cli._build_parser())) == FLAGS

    def test_every_subcommand_listed(self):
        _, out, err = run(["-h"])
        text = out + err
        for name in (
            "parse", "compose", "decompose", "classes", "classify",
            "invariants", "common", "cheb", "odd", "cusp", "verify",
        ):
            assert name in text

    def test_odd_subcommands(self):
        _, out, err = run(["odd", "-h"])
        assert "analyze" in out + err
        assert "swap" in out + err

    def test_cusp_subcommands(self):
        _, out, err = run(["cusp", "-h"])
        text = out + err
        for name in ("report", "decs", "move"):
            assert name in text


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from polydecomp.cli import main; sys.exit(main(sys.argv[1:]))",
         "cheb", "3", "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4*x^3 - 3*x"
