"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

The layer-separation tests pin which layers each workload reaches: a
change to a layer a workload never calls cannot move that workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.setup("classes", 1, 1)  # puts the checkout's library on the path
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


def result(capsys, *argv) -> tuple[int, dict]:
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def traced_calls(capsys, workload: str, seed: int = 42) -> dict[str, float]:
    code, res = result(capsys, "--workload", workload, "--seed", str(seed), "--seconds", "4", "--trace", "1")
    assert code == 0 and res["correct"] and res["failed"] == 0
    return {k: v["value"] for k, v in res["metrics"].items()}


def calls(metrics, prefix: str) -> list[float]:
    return [v for k, v in metrics.items() if k.startswith(prefix) and k.endswith(".calls")]


def test_classes_layers(capsys):
    m = traced_calls(capsys, "classes")
    assert sum(calls(m, "classify.")) == 0
    assert m["roots.rational_roots.calls"] == 0
    for name in ("decompose.right_factor", "decompose.enumerate_classes", "chebyshev.chebyshev",
                 "poly.Polynomial.compose"):
        assert m[f"{name}.calls"] > 0, name
    assert 0 < m["decompose.right_factor.accept_ratio"] <= 1


def test_invariants_layers(capsys):
    m = traced_calls(capsys, "invariants")
    assert sum(calls(m, "cusp.")) == 0
    assert sum(calls(m, "oddmonoid.")) == 0
    for name in ("roots.rational_roots", "classify.classify_shape",
                 "classify.critical_value_polynomial", "classify.invariants_of_factors"):
        assert m[f"{name}.calls"] > 0, name


def test_cusp_odd_layers(capsys):
    m = traced_calls(capsys, "cusp-odd")
    for name in ("cusp.cusp_report", "cusp.max_decompositions", "cusp.admissible_shifts",
                 "cusp.enumerate_A_decompositions", "oddmonoid.decompose_in_O",
                 "oddmonoid.is_irreducible_in_O", "roots.rational_roots"):
        assert m[f"{name}.calls"] > 0, name
    assert m["decompose.enumerate_classes.hit_ratio"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_second_seed(capsys, workload):
    code, res = result(capsys, "--workload", workload, "--seed", "7", "--seconds", "2", "--trace", "0")
    assert code == 0 and res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for spec in bench["end_to_end"]:
        got = res["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"] and got["value"] > 0


def test_per_layer_names_match_benchmark_json(capsys):
    m = traced_calls(capsys, "invariants", seed=3)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(m) == sorted(spec["name"] for spec in bench["per_layer"])


def test_tracer_restores_every_binding():
    def snapshot():
        mods = [m for k, m in sys.modules.items() if k == "polydecomp" or k.startswith("polydecomp.")]
        cls = sys.modules["polydecomp.poly"].Polynomial
        return [dict(vars(m)) for m in mods] + [dict(vars(cls))]

    before = snapshot()
    original = tr.module("oddmonoid").right_factor
    t = tr.Tracer()
    t.install()
    assert tr.module("oddmonoid").right_factor is not original
    t.uninstall()
    after = snapshot()
    assert len(before) == len(after)
    for b, a in zip(before, after):
        assert b.keys() == a.keys() and all(b[k] is a[k] for k in b)


def test_tracer_binds_every_namespace():
    pd = sys.modules["polydecomp"]
    cls = sys.modules["polydecomp.poly"].Polynomial
    t = tr.Tracer()
    t.install()
    try:
        for mod in ("roots", "classify", "cusp"):
            assert hasattr(tr.module(mod).rational_roots, "__wrapped__"), mod
        assert tr.module("decompose").right_factor is tr.module("oddmonoid").right_factor
        assert pd.enumerate_classes is tr.module("decompose").enumerate_classes
        assert cls.__dict__["__rmul__"] is cls.__dict__["__mul__"]
        t.run_op(lambda _: pd.parse("x^2").compose(pd.parse("x^3 + x")), None)
    finally:
        t.uninstall()
    rows = t.summary()
    assert rows["parsing.parse"]["calls"] == 2
    assert rows["poly.Polynomial.compose"]["calls"] == 1
    total = sum(r["self_s"] for r in rows.values())
    assert abs(total - (t.end[0] - t.start[0])) < 1e-9


def test_inputs_depend_only_on_seed():
    a = workloads.build_inputs("cusp-odd", 5, 2)
    assert a == workloads.build_inputs("cusp-odd", 5, 2)
    assert a != workloads.build_inputs("cusp-odd", 6, 2)
    assert workloads.shape_schedule(300) == workloads.shape_schedule(768)[:300]


def test_failed_check_fails_the_run(capsys, monkeypatch):
    monkeypatch.setitem(workloads.OPS, "inv", lambda texts: ("", lambda: False))
    code, res = result(capsys, "--workload", "invariants", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert code == 1 and not res["correct"] and res["failed"] == res["attempted"]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "classes", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
