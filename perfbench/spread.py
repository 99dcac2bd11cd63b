"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload invariants --seeds 1-10 --seconds 40

Runs are sequential.  For every metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, and checks the
spreads against a third of the bounds in ``BENCHMARK.json``.  ``--json``
writes the raw values and the summary to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"seed {seed}: exit {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    factor = next(float(l.split(";")[0].split("=")[1]) for l in lines if l.startswith("speed_factor="))
    result["metrics"]["speed_factor"] = {"value": factor, "unit": "ratio"}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    ap.add_argument("--json", type=Path, default=None)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in seeds(args.seeds):
        result = run(args.workload, seed, seconds)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    steady = True
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        ok = bound is None or name == "setup_s" or spread < bound / 3
        steady = steady and ok
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        mark = "" if bound is None else ("  ok" if ok else "  ABOVE bound/3")
        print(f"{name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.3f}{mark}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                         "values": values, "summary": summary}, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
