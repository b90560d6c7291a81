"""Benchmark of zakharov4d: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload blowup_trip --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One workload runs in one process, closed loop: set up at least
``SETUP_REPS`` times and for at least ``SETUP_SECONDS`` (``setup_s`` is the
median), then repeat the workload body and its correctness gate until the
next repetition would end after ``--seconds`` (at least one).  ``wall_s``
is the median repetition.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones (see
``tracing.py``) and the tracing overhead.
``--workload all`` runs every workload in its own process, one after the
other, and prints a table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.  The full record (environment,
every repetition, gate figures) goes to ``.bench_out/``, and the traced run
also writes its spans there.

BLAS runs on min(2, nproc) threads; the count is pinned before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 5          # at least this many set-ups per run,
SETUP_SECONDS = 1.0     # and more until this much time is spent on them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    threads = max(1, min(2, os.cpu_count() or 1))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """Commit of the checkout, read from .git without calling git (the
    benchmark may run in an exported tree that has no .git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, threads: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {"cpu": cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": threads, "commit": git_commit(), "seed": seed}


def declared_metrics(spec: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def attempt(workload, inputs, record: list) -> dict:
    """One repetition: body and gate, appended to record and returned.  An
    exception is a failed repetition, reported and counted."""
    t0 = time.perf_counter()
    try:
        failures, figures = workload.check(workload.body(inputs))
    except Exception:  # a raised error is a failure, never a crash
        failures, figures = [traceback.format_exc()], {}
    wall = time.perf_counter() - t0
    for msg in failures:
        print(f"{workload.name}: gate failed: {msg}", file=sys.stderr)
    record.append({"wall_s": wall, "failures": failures, "figures": figures})
    return record[-1]


def timed_setups(workload, seed: int):
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return inputs, times


def measure(workload, seed: int, seconds: float) -> dict:
    inputs, setup_times = timed_setups(workload, seed)
    reps: list = []
    begin = time.perf_counter()
    while True:
        attempt(workload, inputs, reps)
        walls = [r["wall_s"] for r in reps]
        if time.perf_counter() - begin + statistics.median(walls) > seconds:
            break
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setup_times),
               "peak_rss_mb": peak_rss_mb()}
    return {"metrics": metrics, "reps": reps, "setup_times": setup_times}


def measure_traced(workload, seed: int, seconds: float, spans_path) -> dict:
    from tracing import COUNT_METRICS, Tracer, median_figures

    inputs, _ = timed_setups(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        first = tracer.mark()
        workload.setup(seed)
        build_s = tracer.build_s(first)
    finally:
        tracer.uninstall()

    plain, traced, layer = [], [], []
    begin = time.perf_counter()
    while True:
        attempt(workload, inputs, plain)
        tracer.install()
        try:
            first = tracer.mark()
            figures = attempt(workload, inputs, traced)["figures"]
            layer.append(tracer.figures(first))
        finally:
            tracer.uninstall()
        layer[-1]["virial.max_mismatch_R"] = figures.get("max_mismatch_R", 0.0)
        pair = (statistics.median(r["wall_s"] for r in plain)
                + statistics.median(r["wall_s"] for r in traced))
        if time.perf_counter() - begin + pair > seconds:
            break
    tracer.save(spans_path)

    repeat = all(rep[k] == layer[0][k] for rep in layer for k in COUNT_METRICS)
    if not repeat:
        print(f"{workload.name}: counts differ between traced repetitions",
              file=sys.stderr)
    metrics = median_figures(layer)
    metrics["grid.build_s"] = build_s
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0)
    return {"metrics": metrics, "reps": plain + traced,
            "plain_reps": len(plain), "counts_repeat": repeat,
            "per_rep": layer, "spans": tracer.summary()}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(args, spec: dict) -> int:
    if not (ROOT / "src" / "zakharov4d").is_dir():
        print(f"no zakharov4d package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    declared = declared_metrics(spec, args.trace)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        out = measure_traced(workload, args.seed, args.seconds,
                             stem.with_suffix(".spans.npz"))
    else:
        out = measure(workload, args.seed, args.seconds)

    missing = set(declared) - set(out["metrics"])
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    attempted = len(out["reps"])
    failed = sum(1 for r in out["reps"] if r["failures"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": out["metrics"][name], "unit": unit}
                          for name, unit in declared.items()}}
    env = environment(args.seed, threads)
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": args.workload, "seconds": args.seconds,
         "environment": env, **out, "result": result}, indent=1,
        default=float))
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    results, status = {}, 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{w['name']}: exited with {proc.returncode}")
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[w["name"]] = res
        print(f"{w['name']}:")
        for name, m in res["metrics"].items():
            print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'fail_frac':40s} {res['failed'] / res['attempted']:>14.6g}"
              f" ({res['failed']} of {res['attempted']} failed)")
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
