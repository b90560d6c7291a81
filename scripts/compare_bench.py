"""Compare two checkouts of zakharov4d on the benchmark and on a kernel sweep.

    python3 scripts/compare_bench.py --base ../base-checkout --head . \
        --pairs 10 --out BENCH.json

Runs ``bench/run.py`` (untraced) of each checkout on every workload of
``BENCHMARK.json`` for ``--pairs`` pairs, one process at a time, alternating
which side runs first (pair i uses seed ``--seed + i`` on both sides).  Then
times one ``normal_form.apply_bilinear`` call per kernel kind, one
``normal_form.normal_transform`` call and one transform + inverse round trip
(with its count of ``normal_form._corrections`` calls) at each n of
``SWEEP_N``, one ``dynamics.decompose_N`` of a 21-sample run, and one
``virial.rate_check`` of a stored full-mode run (with its count of kernel
passes) at each n of ``VIRIAL_N``, and one adaptive full-mode
``dynamics.run`` of fixed length (with its count of kernel passes) at each
n of ``STEP_N``, and one cold ``RadialGrid`` with its three finite-difference
matrices at each n of ``SWEEP_N``, in each checkout, ``SWEEP_PAIRS`` times
alternating.  Each sweep point is the least of ``SWEEP_REPS`` timed calls.
Writes every run, the per-side medians and quartiles, the pair wins and the
host description as one JSON file.  Each checkout's
benchmark code runs on its own sources.
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
VIRIAL_N = [256, 512, 1024]
STEP_N = [128, 256, 512, 1024]
SWEEP_PAIRS = 3
SWEEP_REPS = 3

# one apply_bilinear call per kind, one normal_transform call (u, N = 0.9 u)
# and one transform + normal_inverse round trip on the nf_round_trip data
# family (spectrum a / (1 + rho^2), r_max = 12, iota = 1/8, 16 angles), the
# round trip's _corrections calls counted; then one decompose_N of the
# small-data run (n 256, r_max 20, 21 stored samples, iota 1/4, 12 angles);
# then, per n of the second argument, one rate_check of the whole stored
# run of the virial_rate settings (r_max 50, dt 5e-4, 51 samples to t 0.5,
# R 10), its RadialGrid._kernel_apply calls counted; then, per n of the third
# argument, one adaptive full-mode run of the blowup_trip data (1.3 times
# the truncated W, r_max 40) from dt = 0.1 to t = 2.4, short of the
# gradient trip, its RadialGrid._kernel_apply calls counted (kernel passes
# compare across step controllers; step_values calls need not); then, per
# n of the first argument, one cold RadialGrid(n, 40) and its three FD
# matrices.  Every time is the least of the fourth argument's count of
# calls, and every count is per call.
# Prints {n: {kind, "normal_transform" or "round_trip": seconds,
# "corrections_calls": count}, "decompose_N": seconds,
# "rate_check": {n: {"seconds", "kernel_passes"}},
# "step_sweep": {n: {"seconds", "kernel_passes"}},
# "build_sweep": {n: seconds}} as JSON
SWEEP_CODE = """
import json, sys, time
import numpy as np
from zakharov4d import dynamics, grid, normal_form as nf, variational, virial
reps = json.loads(sys.argv[4])
def best(call):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times)
calls = [0]
corrections = nf._corrections
def counted(*args):
    calls[0] += 1
    return corrections(*args)
nf._corrections = counted
out = {}
for n in json.loads(sys.argv[1]):
    g = grid.make_grid(n, 12.0)
    spec = (0.5 / (1.0 + g.rho_nodes**2)).astype(complex)
    u = grid.to_physical(grid.RadialField(g, spec, grid.SPECTRAL))
    quad = nf.AngularQuadrature(16)
    nf.apply_bilinear(nf.BilinearKernelSpec(nf.OMEGA_PLUS, 0.125), u, u, quad)
    out[n] = {}
    for kind in (nf.OMEGA_PLUS, nf.OMEGA_MINUS, nf.OMEGA_TILDE):
        spec_k = nf.BilinearKernelSpec(kind, 0.125)
        out[n][kind] = best(lambda: nf.apply_bilinear(spec_k, u, u.conj(),
                                                      quad))
    out[n]["normal_transform"] = best(
        lambda: nf.normal_transform(u, 0.9 * u, 0.125, 0.125, quad))
    def round_trip():
        tu, tN = nf.normal_transform(u, 0.9 * u, 0.125, 0.125, quad)
        nf.normal_inverse(tu, tN, 0.125, 0.125, quad=quad)
    calls[0] = 0
    out[n]["round_trip"] = best(round_trip)
    out[n]["corrections_calls"] = calls[0] // reps
g = grid.make_grid(256, 20.0)
u0 = 0.1 * dynamics.band_limited_unit_field(g, np.random.default_rng(7),
                                            band=(0.05, 0.3))
state = dynamics.ZakharovState(u0, variational.gaussian_field(g, 0.4, 2.0))
cfg = dynamics.IntegratorConfig(dt=2e-3, mode=dynamics.FULL, store_every=10,
                                monitor_every=10)
log = dynamics.run(state, cfg, 0.4)
out["decompose_N"] = best(
    lambda: dynamics.decompose_N(log, 0.25, nf.AngularQuadrature(12)))
passes = [0]
kernel = grid.RadialGrid._kernel_apply
def counted_kernel(self, columns):
    passes[0] += 1
    return kernel(self, columns)
out["rate_check"] = {}
for n in json.loads(sys.argv[2]):
    g = grid.make_grid(n, 50.0)
    state = dynamics.ZakharovState(
        variational.gaussian_field(g, 0.4, 1.5, chirp=0.15),
        variational.gaussian_field(g, 0.3, 2.0))
    cfg = dynamics.IntegratorConfig(dt=5e-4, mode=dynamics.FULL,
                                    store_every=20, monitor_every=200)
    log = dynamics.run(state, cfg, 0.5)
    weights = virial.VirialWeights(g, 10.0)
    grid.RadialGrid._kernel_apply = counted_kernel
    passes[0] = 0
    seconds = best(lambda: virial.rate_check(log.traj_u, log.traj_N, weights))
    grid.RadialGrid._kernel_apply = kernel
    out["rate_check"][n] = {"seconds": seconds,
                            "kernel_passes": passes[0] // reps}
grid.RadialGrid._kernel_apply = counted_kernel
out["step_sweep"] = {}
for n in json.loads(sys.argv[3]):
    g = grid.make_grid(n, 40.0)
    wt = variational.w_field(g, truncated=True)
    state = dynamics.ZakharovState(1.3 * wt,
                                   grid.RadialField(g, (1.3 * wt.values) ** 2))
    cfg = dynamics.IntegratorConfig(dt=0.1, mode=dynamics.FULL,
                                    adaptive=True, dt_floor=1e-6,
                                    grad_ceiling_factor=7.0, monitor_every=5)
    passes[0] = 0
    seconds = best(lambda: dynamics.run(state, cfg, 2.4))
    out["step_sweep"][n] = {"seconds": seconds,
                            "kernel_passes": passes[0] // reps}
grid.RadialGrid._kernel_apply = kernel
def build(n):
    g = grid.RadialGrid(n, 40.0)
    g.derivative_matrix()
    g.second_derivative_matrix()
    g.wide_derivative_matrix()
out["build_sweep"] = {n: best(lambda: build(n))
                      for n in json.loads(sys.argv[1])}
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


def sweep_run(root: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", SWEEP_CODE,
                           json.dumps(SWEEP_N), json.dumps(VIRIAL_N),
                           json.dumps(STEP_N), json.dumps(SWEEP_REPS)],
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
            sweep[side].append(sweep_run(sides[side]))
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
    sweep_summary["decompose_N"] = {
        s: statistics.median(r["decompose_N"] for r in sweep[s])
        for s in sides}
    virial_summary = {
        str(n): {key: {s: statistics.median(r["rate_check"][str(n)][key]
                                            for r in sweep[s])
                       for s in sides}
                 for key in ("seconds", "kernel_passes")}
        for n in VIRIAL_N}
    step_summary = {
        str(n): {key: {s: statistics.median(r["step_sweep"][str(n)][key]
                                            for r in sweep[s])
                       for s in sides}
                 for key in ("seconds", "kernel_passes")}
        for n in STEP_N}
    build_summary = {
        str(n): {s: statistics.median(r["build_sweep"][str(n)]
                                      for r in sweep[s])
                 for s in sides}
        for n in SWEEP_N}

    record = {"host": host(), "run_seconds": seconds,
              "commits": {s: commit_of(p) for s, p in sides.items()},
              "order": "pair i runs base first when i is even, head first "
                       "when i is odd; one process at a time",
              "summary": summary, "runs": runs,
              "normal_form_sweep": {"data": "spectrum 0.5 / (1 + rho^2), "
                                            "r_max 12, iota 1/8, 16 angles; "
                                            "apply_bilinear f = u, g = conj "
                                            "u; normal_transform and the "
                                            "round trip (u, 0.9 u); "
                                            "decompose_N n 256, 21 "
                                            "samples, iota 1/4, 12 angles",
                                    "median_s": sweep_summary,
                                    "runs": sweep},
              "virial_sweep": {"data": "one rate_check of the whole stored "
                                       "run of the virial_rate settings "
                                       "(r_max 50, dt 5e-4, 51 samples to "
                                       "t 0.5, R 10); raw runs under "
                                       "normal_form_sweep.runs, key "
                                       "rate_check",
                               "median": virial_summary},
              "step_sweep": {"data": "one adaptive full-mode run of the "
                                     "blowup_trip data (1.3 times the "
                                     "truncated W, r_max 40) from dt "
                                     "0.1 to t 2.4, its "
                                     "RadialGrid._kernel_apply calls "
                                     "counted; raw runs under "
                                     "normal_form_sweep.runs, key "
                                     "step_sweep",
                             "median": step_summary},
              "build_sweep": {"data": "one cold RadialGrid(n, 40) and its "
                                      "derivative_matrix, "
                                      "second_derivative_matrix and "
                                      "wide_derivative_matrix; raw runs "
                                      "under normal_form_sweep.runs, key "
                                      "build_sweep",
                              "median_s": build_summary},
              "sweep_reps": f"each sweep point is the least of "
                            f"{SWEEP_REPS} timed calls"}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
