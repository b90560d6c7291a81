"""Compare two checkouts of zakharov4d on the benchmark and on a kernel sweep.

    python3 scripts/compare_bench.py --base ../base-checkout --head . \
        --pairs 10 --out BENCH.json

Runs ``bench/run.py`` (untraced) of each checkout on every workload of
``BENCHMARK.json`` for ``--pairs`` pairs, one process at a time, alternating
which side runs first (pair i uses seed ``--seed + i`` on both sides).  Then
times one ``normal_form.apply_bilinear`` call per kernel kind and one
``normal_form.normal_transform`` call at each n of ``SWEEP_N`` in each
checkout, ``SWEEP_PAIRS`` times alternating, and writes
every run, the per-side medians and quartiles, the pair wins and the host
description as one JSON file.  Each checkout's benchmark code runs on its
own sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = "2"
SWEEP_N = [128, 256, 512, 1024, 2048]
SWEEP_PAIRS = 3

# one apply_bilinear call per kind and one normal_transform call (u, N = 0.9 u)
# on the nf_round_trip data family (spectrum a / (1 + rho^2), r_max = 12,
# iota = 1/8, 16 angles); prints {n: {kind or "normal_transform": seconds}}
# as JSON
SWEEP_CODE = """
import json, sys, time
from zakharov4d import grid, normal_form as nf
out = {}
for n in json.loads(sys.argv[1]):
    g = grid.make_grid(n, 12.0)
    spec = (0.5 / (1.0 + g.rho_nodes**2)).astype(complex)
    u = grid.to_physical(grid.RadialField(g, spec, grid.SPECTRAL))
    quad = nf.AngularQuadrature(16)
    nf.apply_bilinear(nf.BilinearKernelSpec(nf.OMEGA_PLUS, 0.125), u, u, quad)
    out[n] = {}
    for kind in (nf.OMEGA_PLUS, nf.OMEGA_MINUS, nf.OMEGA_TILDE):
        t0 = time.perf_counter()
        nf.apply_bilinear(nf.BilinearKernelSpec(kind, 0.125), u, u.conj(), quad)
        out[n][kind] = time.perf_counter() - t0
    t0 = time.perf_counter()
    nf.normal_transform(u, 0.9 * u, 0.125, 0.125, quad)
    out[n]["normal_transform"] = time.perf_counter() - t0
print(json.dumps(out))
"""


def blas_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{root}: bench/run.py {workload} exited "
                           f"{proc.returncode}\n{proc.stderr}")
    res = last_json(proc.stdout)
    return {"seed": seed, "correct": res["correct"],
            "attempted": res["attempted"], "failed": res["failed"],
            **{k: v["value"] for k, v in res["metrics"].items()}}


def sweep_run(root: Path, sizes: list) -> dict:
    proc = subprocess.run([sys.executable, "-c", SWEEP_CODE, json.dumps(sizes)],
                          cwd=root, env=blas_env(root), capture_output=True,
                          text=True, check=True)
    return last_json(proc.stdout)


def quartiles(xs: list) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def compare(base: list, head: list, better: str) -> dict:
    """Per-side quartiles, pair wins of head (ties count for neither) and
    whether the gain rule holds: >= 9/10 wins and a median gap wider than
    the base's interquartile range."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    b, h = quartiles(base), quartiles(head)
    gap = sign * (b["median"] - h["median"])
    return {"base": b, "head": h, "head_wins": wins,
            "pairs": len(base), "median_gap": gap,
            "gain_rule_met": wins >= 0.9 * len(base) and gap > b["q3"] - b["q1"]}


def commit_of(root: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown (not a git checkout)"


def host() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": int(BLAS_THREADS)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, default=Path("."))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    spec = json.loads((sides["head"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    def alternate(i):
        return ("base", "head") if i % 2 == 0 else ("head", "base")

    runs = {w: {"base": [], "head": []} for w in workloads}
    for w in workloads:
        for i in range(args.pairs):
            for side in alternate(i):
                res = bench_run(sides[side], w, args.seed + i, seconds)
                runs[w][side].append(res)
                print(f"{w} pair {i} {side}: wall_s {res['wall_s']:.3f}",
                      file=sys.stderr, flush=True)

    sweep = {"base": [], "head": []}
    for i in range(SWEEP_PAIRS):
        for side in alternate(i):
            sweep[side].append(sweep_run(sides[side], SWEEP_N))
            print(f"sweep {i} {side} done", file=sys.stderr, flush=True)

    summary = {}
    for w in workloads:
        summary[w] = {"failed": {s: sum(r["failed"] for r in runs[w][s])
                                 for s in sides},
                      "attempted": {s: sum(r["attempted"] for r in runs[w][s])
                                    for s in sides}}
        for m in spec["end_to_end"]:
            summary[w][m["name"]] = compare(
                [r[m["name"]] for r in runs[w]["base"]],
                [r[m["name"]] for r in runs[w]["head"]], m["better"])
    sweep_summary = {
        str(n): {kind: {s: statistics.median(r[str(n)][kind] for r in sweep[s])
                        for s in sides}
                 for kind in sweep["head"][0][str(n)]}
        for n in SWEEP_N}

    record = {"host": host(), "run_seconds": seconds,
              "commits": {s: commit_of(p) for s, p in sides.items()},
              "order": "pair i runs base first when i is even, head first "
                       "when i is odd; one process at a time",
              "summary": summary, "runs": runs,
              "normal_form_sweep": {"data": "spectrum 0.5 / (1 + rho^2), "
                                            "r_max 12, iota 1/8, 16 angles; "
                                            "apply_bilinear f = u, g = conj "
                                            "u; normal_transform (u, 0.9 u)",
                                    "median_s": sweep_summary,
                                    "runs": sweep}}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
