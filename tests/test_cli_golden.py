"""Golden command-line output: exact stdout and exit code, text and JSON.

Every README example (with the `verify --suite all` line split into small
per-suite runs) and one command per exit path are pinned byte for byte in
`cli_golden.json`.  For exits 2 and 3 the stderr `error:` text is pinned
too; argparse usage text (exit 1) varies across Python versions and is not.

Regenerate the data file only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import pathlib
import sys

import pytest
from test_cli import run

DATA = pathlib.Path(__file__).with_name("cli_golden.json")

CASES = [
    # README examples
    ["parse", "--poly", "x^2 + 2x + 1"],
    ["cheb", "5"],
    ["compose", "--poly", "x^2", "--poly", "x^3 - 3/4x"],
    ["decompose", "--poly", "x^8 + 2x^6 + x^4"],
    ["classes", "--poly", "32x^6 - 48x^4 + 18x^2 - 1"],
    ["classify", "--poly", "x^5 + x^3"],
    ["invariants", "--poly", "x^8 + 2x^6 + x^4"],
    ["common", "--poly", "x^2", "--poly", "x^3"],
    ["odd", "analyze", "--poly", "x^9 + x^3"],
    ["odd", "swap", "--poly", "x^7 + 3x^5 + 3x^3 + x", "--poly", "x^3",
     "--poly", "x^3", "--poly", "x^7 + x"],
    ["cusp", "report", "--poly", "x^8 + 2x^6 + x^4"],
    ["cusp", "decs", "--poly", "x^8 + 2x^6 + x^4"],
    ["cusp", "move", "--poly", "x^2", "--poly", "x^2 + x", "--poly", "x^2",
     "--position", "2", "--kind", "adm", "--shift=-1/2"],
    ["verify", "--suite", "chebyshev"],
    ["verify", "--suite", "odd", "--trials", "40"],
    ["verify", "--suite", "cusp", "--trials", "10"],
    ["verify", "--suite", "ritt1", "--trials", "20"],
    ["verify", "--suite", "invariants", "--trials", "20"],
    # exit 1: usage error
    ["nonsense"],
    # exit 2: domain errors
    ["classify", "--poly", "x^4 + x^2"],
    ["parse", "--poly", "x^2/4"],
    ["cusp", "report", "--poly", "x^2 + x"],
    ["odd", "analyze", "--poly", "x^4"],
    ["cusp", "move", "--poly", "x^2 + x", "--poly", "x^3 + x^2",
     "--position", "1", "--kind", "cb"],
    # exit 3: the Chebyshev move needs an irrational shift
    ["cusp", "move", "--poly", "4x^3 - 3x", "--poly", "16x^5 - 20x^3 + 5x",
     "--position", "1", "--kind", "ca"],
]

FORMATS = ("text", "json")


def _key(argv, fmt):
    return " ".join(argv + ["--format", fmt])


def _record(argv, fmt):
    code, out, err = run(argv + ["--format", fmt])
    rec = {"code": code, "stdout": out}
    if code in (2, 3):
        rec["stderr"] = err
    return rec


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(a, f) for a in CASES for f in FORMATS)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_is_pinned(golden, argv, fmt):
    assert _record(argv, fmt) == golden[_key(argv, fmt)]


if __name__ == "__main__":
    records = {_key(a, f): _record(a, f) for a in CASES for f in FORMATS}
    DATA.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {DATA}", file=sys.stderr)
