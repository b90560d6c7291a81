"""Compare two checkouts of zakharov4d on the benchmark and on a kernel sweep.

    python3 scripts/compare_bench.py --base ../base-checkout --head . \
        --pairs 10 --out BENCH.json

Runs ``bench/run.py`` (untraced) of each checkout on every workload of
``BENCHMARK.json`` for ``--pairs`` pairs, one process at a time, alternating
which side runs first (pair i uses seed ``--seed + i`` on both sides).  Each
checkout's benchmark code runs on its own sources.

Then the import floor: ``--pairs`` rounds, each starting one fresh
interpreter per side (the side that goes first swapped each round), which
imports every module of that side's package and reports its ``ru_maxrss``
in MB and the wall time of the imports, the resident floor under every
workload's ``peak_rss_mb``.

Then one sweep process loads both checkouts' packages, each under its own
name (the package imports only relatively), and times every sweep point on
the two sides alternately, ``SWEEP_ROUNDS`` rounds per point with the side
that goes first swapped each round, so host drift between processes does
not enter a comparison.  The points: one ``normal_form.apply_bilinear`` call
per kernel kind, one ``normal_form.normal_transform`` call and one transform
+ inverse round trip (with its count of ``normal_form._corrections`` calls)
at each n of ``SWEEP_N``; one ``dynamics.decompose_N`` of a 21-sample run;
one ``virial.rate_check`` of a stored full-mode run (with its count of
kernel passes) at each n of ``VIRIAL_N``; one adaptive full-mode
``dynamics.run`` of fixed length (with its count of kernel passes) at each
n of ``STEP_N``; one cold ``RadialGrid`` with its three
finite-difference matrices at each n of ``SWEEP_N``; and one
``dyadic.dyadic_profile`` of eight spectral columns (with its count of
kernel passes) at each n of ``SWEEP_N``.  Writes every run,
the per-side medians and quartiles, the pair wins, every sweep round with
each side's best and the head's round wins, and the host description as
one JSON file.
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
SWEEP_ROUNDS = 5

# Arguments: the base and head source directories, then the three n lists
# and the round count as JSON.  Each side's package is imported as zk_base
# or zk_head, with normal_form._corrections and RadialGrid._kernel_apply
# wrapped to count calls.  The data: apply_bilinear per kind, one
# normal_transform (u, N = 0.9 u) and one transform + normal_inverse round
# trip on the nf_round_trip data family (spectrum 0.5 / (1 + rho^2),
# r_max = 12, iota = 1/8, 16 angles); one decompose_N of the small-data run
# (n 256, r_max 20, 21 stored samples, iota 1/4, 12 angles); per n of the
# second list one rate_check of the whole stored run of the virial_rate
# settings (r_max 50, dt 5e-4, 51 samples to t 0.5, R 10); per n of the
# third list one adaptive full-mode run of the blowup_trip data (1.3 times
# the truncated W, r_max 40) from dt = 0.1 to t = 2.4, short of the
# gradient trip (kernel passes compare across step controllers;
# step_values calls need not); per n of the first list one cold
# RadialGrid(n, 40) and its three FD matrices, and one dyadic_profile of
# (n, 8) complex normal spectral columns on make_grid(n, 40) at the probe's
# exponents (delta 0.2).  Every point prints as
# {"seconds": {side: [one time per round]}} plus, where counted,
# {count: {side: calls per call}}; the whole is
# {"normal_form": {n: {kind, "normal_transform", "round_trip"}},
# "decompose_N", "rate_check": {n}, "step_sweep": {n}, "build_sweep": {n},
# "dyadic_sweep": {n}} as JSON.
SWEEP_CODE = """
import importlib, importlib.util, json, sys, time
import numpy as np
SIDES = ("base", "head")
rounds = json.loads(sys.argv[6])
counts = {s: {"corrections_calls": 0, "kernel_passes": 0} for s in SIDES}
def load(side, src):
    name = "zk_" + side
    spec = importlib.util.spec_from_file_location(
        name, src + "/zakharov4d/__init__.py",
        submodule_search_locations=[src + "/zakharov4d"])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    m = {k: importlib.import_module(name + "." + k) for k in
         ("dyadic", "dynamics", "grid", "normal_form", "variational",
          "virial")}
    corrections = m["normal_form"]._corrections
    def counted(*args):
        counts[side]["corrections_calls"] += 1
        return corrections(*args)
    m["normal_form"]._corrections = counted
    kernel = m["grid"].RadialGrid._kernel_apply
    def counted_kernel(self, columns):
        counts[side]["kernel_passes"] += 1
        return kernel(self, columns)
    m["grid"].RadialGrid._kernel_apply = counted_kernel
    return m
pkgs = {s: load(s, src) for s, src in zip(SIDES, sys.argv[1:3])}
def alternate(calls, count=None):
    times = {s: [] for s in SIDES}
    before = {s: counts[s].get(count, 0) for s in SIDES}
    for i in range(rounds):
        for s in (SIDES if i % 2 == 0 else SIDES[::-1]):
            t0 = time.perf_counter()
            calls[s]()
            times[s].append(time.perf_counter() - t0)
    point = {"seconds": times}
    if count:
        point[count] = {s: (counts[s][count] - before[s]) // rounds
                        for s in SIDES}
    return point
def nf_calls(m, n):
    grid, nf = m["grid"], m["normal_form"]
    g = grid.make_grid(n, 12.0)
    spec = (0.5 / (1.0 + g.rho_nodes**2)).astype(complex)
    u = grid.to_physical(grid.RadialField(g, spec, grid.SPECTRAL))
    quad = nf.AngularQuadrature(16)
    nf.apply_bilinear(nf.BilinearKernelSpec(nf.OMEGA_PLUS, 0.125), u, u, quad)
    def kernel(kind):
        spec_k = nf.BilinearKernelSpec(kind, 0.125)
        return lambda: nf.apply_bilinear(spec_k, u, u.conj(), quad)
    def round_trip():
        tu, tN = nf.normal_transform(u, 0.9 * u, 0.125, 0.125, quad)
        nf.normal_inverse(tu, tN, 0.125, 0.125, quad=quad)
    calls = {kind: kernel(kind) for kind in
             (nf.OMEGA_PLUS, nf.OMEGA_MINUS, nf.OMEGA_TILDE)}
    calls["normal_transform"] = lambda: nf.normal_transform(
        u, 0.9 * u, 0.125, 0.125, quad)
    calls["round_trip"] = round_trip
    return calls
def decompose_call(m):
    dynamics, grid, nf = m["dynamics"], m["grid"], m["normal_form"]
    g = grid.make_grid(256, 20.0)
    u0 = 0.1 * dynamics.band_limited_unit_field(
        g, np.random.default_rng(7), band=(0.05, 0.3))
    state = dynamics.ZakharovState(
        u0, m["variational"].gaussian_field(g, 0.4, 2.0))
    cfg = dynamics.IntegratorConfig(dt=2e-3, mode=dynamics.FULL,
                                    store_every=10, monitor_every=10)
    log = dynamics.run(state, cfg, 0.4)
    return lambda: dynamics.decompose_N(log, 0.25, nf.AngularQuadrature(12))
def rate_call(m, n):
    dynamics, variational, virial = (m["dynamics"], m["variational"],
                                     m["virial"])
    g = m["grid"].make_grid(n, 50.0)
    state = dynamics.ZakharovState(
        variational.gaussian_field(g, 0.4, 1.5, chirp=0.15),
        variational.gaussian_field(g, 0.3, 2.0))
    cfg = dynamics.IntegratorConfig(dt=5e-4, mode=dynamics.FULL,
                                    store_every=20, monitor_every=200)
    log = dynamics.run(state, cfg, 0.5)
    weights = virial.VirialWeights(g, 10.0)
    return lambda: virial.rate_check(log.traj_u, log.traj_N, weights)
def step_call(m, n):
    dynamics, grid = m["dynamics"], m["grid"]
    g = grid.make_grid(n, 40.0)
    wt = m["variational"].w_field(g, truncated=True)
    state = dynamics.ZakharovState(
        1.3 * wt, grid.RadialField(g, (1.3 * wt.values) ** 2))
    cfg = dynamics.IntegratorConfig(dt=0.1, mode=dynamics.FULL,
                                    adaptive=True, dt_floor=1e-6,
                                    grad_ceiling_factor=7.0, monitor_every=5)
    return lambda: dynamics.run(state, cfg, 2.4)
def build_call(m, n):
    def build():
        g = m["grid"].RadialGrid(n, 40.0)
        g.derivative_matrix()
        g.second_derivative_matrix()
        g.wide_derivative_matrix()
    return build
def dyadic_call(m, n):
    dyadic = m["dyadic"]
    g = m["grid"].make_grid(n, 40.0)
    rng = np.random.default_rng(n)
    spec = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    s, p = dyadic.xdelta_exponents(0.2)
    return lambda: dyadic.dyadic_profile(spec, g, s, p)
out = {"normal_form": {}}
for n in json.loads(sys.argv[3]):
    calls = {s: nf_calls(m, n) for s, m in pkgs.items()}
    out["normal_form"][n] = {
        key: alternate({s: calls[s][key] for s in SIDES},
                       "corrections_calls" if key == "round_trip" else None)
        for key in calls["head"]}
out["decompose_N"] = alternate({s: decompose_call(m) for s, m in pkgs.items()})
out["rate_check"] = {
    n: alternate({s: rate_call(m, n) for s, m in pkgs.items()},
                 "kernel_passes")
    for n in json.loads(sys.argv[4])}
out["step_sweep"] = {
    n: alternate({s: step_call(m, n) for s, m in pkgs.items()},
                 "kernel_passes")
    for n in json.loads(sys.argv[5])}
out["build_sweep"] = {
    n: alternate({s: build_call(m, n) for s, m in pkgs.items()})
    for n in json.loads(sys.argv[3])}
out["dyadic_sweep"] = {
    n: alternate({s: dyadic_call(m, n) for s, m in pkgs.items()},
                 "kernel_passes")
    for n in json.loads(sys.argv[3])}
print(json.dumps(out))
"""


# Arguments: the package's module names.  Prints the peak RSS in MB and
# the seconds spent importing them (numpy and scipy included) as JSON.
IMPORT_CODE = """
import importlib, json, resource, sys, time
t0 = time.perf_counter()
for name in sys.argv[1:]:
    importlib.import_module(name)
seconds = time.perf_counter() - t0
print(json.dumps({"maxrss_mb": resource.getrusage(
    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "import_s": seconds}))
"""


def blas_env() -> dict:
    env = dict(os.environ)
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


def import_run(root: Path) -> dict:
    package = root / "src" / "zakharov4d"
    names = ["zakharov4d" if path.stem == "__init__"
             else f"zakharov4d.{path.stem}"
             for path in sorted(package.glob("*.py"))]
    env = blas_env()
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, *names],
                          cwd=root, env=env, capture_output=True, text=True,
                          check=True)
    return last_json(proc.stdout)


def sweep_run(sides: dict) -> dict:
    proc = subprocess.run([sys.executable, "-c", SWEEP_CODE,
                           str(sides["base"] / "src"),
                           str(sides["head"] / "src"),
                           json.dumps(SWEEP_N), json.dumps(VIRIAL_N),
                           json.dumps(STEP_N), json.dumps(SWEEP_ROUNDS)],
                          env=blas_env(), capture_output=True, text=True,
                          check=True)
    return last_json(proc.stdout)


def sweep_summary(node: dict) -> dict:
    """Each sweep point's best time per side, the rounds the head won
    (ties count for neither) and its counts; the nesting is kept."""
    if "seconds" not in node:
        return {key: sweep_summary(sub) for key, sub in node.items()}
    times = node["seconds"]
    point = {"best_s": {s: min(ts) for s, ts in times.items()},
             "head_wins": sum(h < b for b, h in zip(times["base"],
                                                     times["head"])),
             "rounds": len(times["head"])}
    point.update({key: val for key, val in node.items() if key != "seconds"})
    return point


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

    imports = {"base": [], "head": []}
    for i in range(args.pairs):
        for side in alternate(i):
            imports[side].append(import_run(sides[side]))
    print("import floor done", file=sys.stderr, flush=True)

    sweep = sweep_run(sides)
    print("sweep done", file=sys.stderr, flush=True)

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

    record = {"host": host(), "run_seconds": seconds,
              "commits": {s: commit_of(p) for s, p in sides.items()},
              "order": "pair i runs base first when i is even, head first "
                       "when i is odd; one process at a time",
              "summary": summary, "runs": runs,
              "import_floor": {
                  "what": "one fresh interpreter per side and round imports "
                          "every module of its package; ru_maxrss in MB "
                          "and the imports' wall time",
                  "summary": {key: compare([r[key] for r in imports["base"]],
                                           [r[key] for r in imports["head"]],
                                           "lower")
                              for key in ("maxrss_mb", "import_s")},
                  "rounds": imports},
              "sweep": {"data": "normal_form: spectrum 0.5 / (1 + rho^2), "
                                "r_max 12, iota 1/8, 16 angles, "
                                "apply_bilinear f = u, g = conj u, "
                                "normal_transform and the round trip "
                                "(u, 0.9 u); decompose_N: n 256, 21 "
                                "samples, iota 1/4, 12 angles; rate_check: "
                                "the whole stored run of the virial_rate "
                                "settings (r_max 50, dt 5e-4, 51 samples "
                                "to t 0.5, R 10); step_sweep: one adaptive "
                                "full-mode run of the blowup_trip data "
                                "(1.3 times the truncated W, r_max 40) "
                                "from dt 0.1 to t 2.4; build_sweep: one "
                                "cold RadialGrid(n, 40) and its three FD "
                                "matrices; dyadic_sweep: one dyadic_profile "
                                "of (n, 8) complex normal spectral columns "
                                "on make_grid(n, 40), delta 0.2",
                        "order": f"one process holds both sides; each "
                                 f"point runs {SWEEP_ROUNDS} rounds, base "
                                 f"first in even rounds and head first in "
                                 f"odd ones",
                        "summary": sweep_summary(sweep), "rounds": sweep}}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
