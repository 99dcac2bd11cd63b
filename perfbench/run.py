"""polydecomp benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout; the library is imported from ``src``:

    python3 perfbench/run.py --workload classes --seed 1 --seconds 40 --trace 0

The load is a closed loop with one caller and no threads.  A pass runs
every input of the workload once, after clearing the library's four lru
caches.  ``--trace 0`` repeats passes while the next one still fits in
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` sizes a
pass to a third of ``--seconds``, runs it once untraced and once traced,
and prints the per-layer metrics; the spans go to ``perfbench/out/``.

Every reported time is scaled to nominal host speed with the reference
kernel of ``speed.py``, timed between ops; the wall-clock values are
printed too.  Every op's output is checked outside the timed region.  The
run prints the sha256 digest of the formatted outputs of a pass; every
pass of a run, traced or not, must give the same digest.  The run exits 1
after the result line if any op raised or failed its check, and exits 2,
printing no result, when the library is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
import tracer as tr

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("classes", "invariants", "cusp-odd")
# Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_SAMPLES = 3
# Kernel timings that scale one set-up time.
SETUP_KERNEL_SAMPLES = 20
# In a traced run the pass holds this share of --seconds worth of inputs,
# leaving room for the untraced pass and the tracing overhead.
TRACE_SHARE = 1 / 3
# Op time between two timings of the reference kernel.
KERNEL_EVERY_S = 0.1


def setup(workload: str, seed: int, seconds: float):
    """Import the library from the checkout and build the formatted inputs.
    Returns (seconds taken, inputs)."""
    t0 = perf_counter()
    if not (SRC / "polydecomp" / "__init__.py").is_file():
        print(f"error: no library at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import polydecomp

    if Path(polydecomp.__file__).resolve().parent != SRC / "polydecomp":
        print(f"error: polydecomp imported from {polydecomp.__file__}", file=sys.stderr)
        raise SystemExit(2)
    import workloads

    inputs = workloads.build_inputs(workload, seed, seconds)
    return perf_counter() - t0, inputs


def scaled_setup(own: float) -> float:
    """A set-up time scaled to nominal host speed by kernel timings taken
    right after it."""
    return own * speed_factor([speed.time_kernel() for _ in range(SETUP_KERNEL_SAMPLES)])


def setup_samples(args, own: float) -> list[float]:
    """Scaled set-up times of this process and of fresh child processes."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


class Pass:
    """One pass over the inputs: latencies, failures, digest, wall time and
    the reference-kernel times taken between ops."""

    def __init__(self, inputs, caches, tracer=None):
        from workloads import OPS

        for fn in caches:
            fn.cache_clear()
        self.latencies: list[float] = []
        self.kernel = [speed.time_kernel()]
        self.failed = 0
        digest = hashlib.sha256()
        start = perf_counter()
        since_kernel = 0.0
        for i, (kind, arg) in enumerate(inputs):
            op = OPS[kind]
            t0 = perf_counter()
            try:
                text, check = tracer.run_op(op, arg) if tracer else op(arg)
            except Exception:
                self.latencies.append(perf_counter() - t0)
                self.failed += 1
                digest.update(f"{i}: raised\0".encode())
                print(f"op {i} ({kind} {arg!r}) raised:", file=sys.stderr)
                traceback.print_exc()
                continue
            self.latencies.append(perf_counter() - t0)
            try:
                ok = check()
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                self.failed += 1
                print(f"op {i} ({kind} {arg!r}) failed its check", file=sys.stderr)
            digest.update(text.encode() + b"\0")
            since_kernel += self.latencies[-1]
            if since_kernel >= KERNEL_EVERY_S:
                self.kernel.append(speed.time_kernel())
                since_kernel = 0.0
        self.kernel.append(speed.time_kernel())
        self.wall = perf_counter() - start
        self.digest = digest.hexdigest()
        self.cache_info = [fn.cache_info() for fn in caches]


def speed_factor(kernel_times: list[float]) -> float:
    """NOMINAL_S over the mean kernel time, leaving out hiccups longer than
    three times the median.  A mean, not a median: the host switches between
    speed states, and op time grows with the share of time spent in each."""
    cut = 3 * statistics.median(kernel_times)
    return speed.NOMINAL_S / statistics.fmean(t for t in kernel_times if t <= cut)


def end_to_end(passes: list[Pass], setup_times: list[float], failed: int) -> dict:
    """The end-to-end metrics; every time is scaled to nominal host speed."""
    f = speed_factor([k for p in passes for k in p.kernel])
    lat = [x * f for p in passes for x in p.latencies]
    attempted = len(lat)
    pct = statistics.quantiles(lat, n=20) if len(lat) > 1 else [lat[0]] * 19
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (attempted / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_p95_ms": (1000 * pct[18], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }


def per_layer(tracer: tr.Tracer, plain: Pass, traced: Pass) -> dict:
    """The per-layer metrics of the traced pass; times at nominal host speed."""
    f = speed_factor(traced.kernel)
    out = {}
    rows = tracer.summary()
    modules: dict[str, float] = {}
    for name in tracer.names[1:]:
        row = rows[name]
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.self_s"] = (f * row["self_s"], "s")
        mod = name.split(".")[0]
        modules[mod] = modules.get(mod, 0.0) + f * row["self_s"]
    for mod, s in modules.items():
        out[f"{mod}.self_s"] = (s, "s")
    for name in tr.ACCEPTS:
        calls = rows[name]["calls"]
        out[f"{name}.accept_ratio"] = (rows[name]["accepts"] / calls if calls else 0.0, "ratio")
    for (mod, fn), info in zip(tr.CACHED, traced.cache_info):
        lookups = info.hits + info.misses
        out[f"{mod}.{fn}.hit_ratio"] = (info.hits / lookups if lookups else 0.0, "ratio")
    plain_s = speed_factor(plain.kernel) * sum(plain.latencies)
    out["trace.overhead_ratio"] = (f * sum(traced.latencies) / plain_s, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    budget = args.seconds * (TRACE_SHARE if args.trace else 1)

    own, inputs = setup(args.workload, args.seed, budget)
    own = scaled_setup(own)
    if args.setup_probe:
        print(own)
        return 0

    caches = tr.cached_functions()
    if args.trace:
        plain = Pass(inputs, caches)
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced = Pass(inputs, caches, tracer)
        finally:
            tracer.uninstall()
        passes = [plain, traced]
    else:
        passes = []
        start = perf_counter()
        while True:
            passes.append(Pass(inputs, caches))
            if perf_counter() - start + passes[-1].wall > args.seconds:
                break

    failed = sum(p.failed for p in passes)
    if len({p.digest for p in passes}) != 1:
        print("error: passes over the same inputs gave different outputs", file=sys.stderr)
        failed += 1
    attempted = sum(len(p.latencies) for p in passes)
    if args.trace:
        metrics = per_layer(tracer, plain, traced)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = end_to_end(passes, setup_samples(args, own), failed)
    print(f"digest {args.workload} seed={args.seed} ops={len(inputs)} sha256={passes[0].digest}")
    walls = " ".join(f"{p.wall:.2f}" for p in passes)
    print(f"passes={len(passes)} wall_s=[{walls}] attempted={attempted} failed={failed}")
    f = speed_factor([k for p in passes for k in p.kernel])
    wall = [x for p in passes for x in p.latencies]
    print(
        f"speed_factor={f:.4f}; wall clock: ops_per_s={len(wall) / sum(wall):.6g} "
        f"latency_p50_ms={1000 * statistics.median(wall):.6g}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
