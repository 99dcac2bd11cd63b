"""Command-line front end: subcommands, exit codes, and output stability."""

import contextlib
import io
import json
import subprocess
import sys

import pytest

import polydecomp.cli as cli
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

    def test_file_input(self, tmp_path):
        path = tmp_path / "polys.json"
        path.write_text(json.dumps(["x^2", "x^3 + x"]))
        code, out, _ = run(["compose", "--file", str(path), "--format", "text"])
        assert code == 0
        assert out.strip() == "x^6 + 2*x^4 + x^2"


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


class TestCuspCommands:
    def test_report(self):
        code, out, _ = run(["cusp", "report", "--poly", "x^8+2*x^6+x^4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["length"] == 3
        assert payload["report"]["index_at_zero"] == 3
        assert payload["report"]["regular"] is True
        assert payload["max_skeleton"]["degree_multisets"] == [[2, 2, 2]]

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

    def test_seed_changes_corpus_not_outcome(self):
        a = run(["verify", "--suite", "ritt1", "--trials", "10", "--seed", "1"])
        b = run(["verify", "--suite", "ritt1", "--trials", "10", "--seed", "2"])
        assert a[0] == 0 and b[0] == 0


class TestHelpCoverage:
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
