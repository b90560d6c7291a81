"""The four benchmark workloads, driven through zakharov4d's public API.

Each workload has three parts:

* ``setup(seed)`` builds the grid (with ``make_grid``'s cache cleared), any
  lazily built matrix the body needs, and the input data.  It is timed as
  ``setup_s``.
* ``body(inputs)`` is the work a user waits for.  It is timed as ``wall_s``.
* ``check(result)`` is the correctness gate.  It returns the list of failed
  conditions (empty when the result is correct) and the figures it looked at.

Inputs depend only on the seed.  The seed moves each input by a few per cent
at most, inside a range where the work done stays the same: blow-up still
trips after the same dt collapse, the normal-form inverse still takes four
iterations, and fixed-dt runs take the same number of steps.

Functions of the program are looked up on their modules at call time
(``dynamics.run``, not an imported ``run``) so that the traced run, which
wraps those module attributes, sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from zakharov4d import dynamics, grid, normal_form, variational, virial


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]
    body: Callable[[dict], dict]
    check: Callable[[dict], tuple]


def _fresh_grid(n: int, r_max: float) -> grid.RadialGrid:
    grid.make_grid.cache_clear()
    return grid.make_grid(n, r_max)


# -- blowup_trip ---------------------------------------------------------------
# Truncated ground state scaled by lambda = 1.3 (above the threshold), full
# mode, adaptive Strang.  A 7x |grad u| ceiling reaches the same dt collapse
# as the 8x ceiling of the tier-1 test in about a third of the time.

BLOWUP_T_END = 40.0


def blowup_setup(seed: int) -> dict:
    g = _fresh_grid(256, 40.0)
    lam = 1.3 * (1.0 + 1e-4 * np.random.default_rng(seed).uniform(-1.0, 1.0))
    wt = variational.w_field(g, truncated=True)
    state = dynamics.ZakharovState(lam * wt,
                                   grid.RadialField(g, (lam * wt.values) ** 2))
    cfg = dynamics.IntegratorConfig(dt=2e-3, mode=dynamics.FULL, adaptive=True,
                                    dt_floor=1e-6, grad_ceiling_factor=7.0,
                                    monitor_every=5)
    return {"state": state, "cfg": cfg}


def blowup_body(inp: dict) -> dict:
    log = dynamics.run(inp["state"], inp["cfg"], BLOWUP_T_END)
    return {"log": log, "verdict": dynamics.scattering_diagnostics(log)}


def blowup_check(res: dict) -> tuple:
    log, verdict = res["log"], res["verdict"]
    failures = []
    if not log.has_event("blowup"):
        failures.append("no blowup event logged")
    if verdict.verdict != dynamics.BLOWUP_LIKE:
        failures.append(f"verdict {verdict.verdict!r}, expected blowup_like")
    return failures, {"t_trip": float(log.final_state.t),
                      "grad_growth": float(log.grad_u[-1] / log.grad_u[0])}


# -- strichartz_probe ----------------------------------------------------------
# linear_potential stepping at fixed dt and the dyadic X^delta norm in
# roughly equal shares; the step controller is idle.

PROBE_HORIZONS = (2.0, 6.0, 12.0)


def probe_setup(seed: int) -> dict:
    return {"grid": _fresh_grid(512, 40.0), "seed": seed}


def probe_body(inp: dict) -> dict:
    est = dynamics.strichartz_probe(
        inp["grid"], {"kind": "gaussian_mass", "mass": 3.0, "width": 2.0},
        0.2, 8, PROBE_HORIZONS, np.random.default_rng(inp["seed"]), dt=0.02)
    return {"estimate": est}


def probe_check(res: dict) -> tuple:
    ratios = np.asarray(res["estimate"].max_ratio, dtype=float)
    failures = []
    if not np.all(np.isfinite(ratios)):
        failures.append(f"non-finite ratios {ratios.tolist()}")
    elif not np.all(ratios > 0):
        failures.append(f"non-positive ratios {ratios.tolist()}")
    # the windows are nested, so the worst ratio cannot fall (the slack is
    # summation roundoff only)
    elif np.any(np.diff(ratios) < -1e-12 * ratios.max()):
        failures.append(f"ratios fall with the horizon {ratios.tolist()}")
    return failures, {"max_ratio": ratios.tolist()}


# -- nf_round_trip -------------------------------------------------------------
# Normal-form transform and its fixed-point inverse on broadband spectra.
# The tier-1 round-trip data makes every correction exactly zero, so the
# inverse would stop after one iteration; broadband data needs four.

NF_IOTA = 1.0 / 8.0


def nf_setup(seed: int) -> dict:
    g = _fresh_grid(512, 12.0)
    amp_u, amp_N = 0.5 * (1.0 + 0.05 * np.random.default_rng(seed)
                          .uniform(-1.0, 1.0, size=2))
    profile = 1.0 / (1.0 + g.rho_nodes**2)

    def from_spectrum(amp):
        spec = grid.RadialField(g, (amp * profile).astype(complex),
                                grid.SPECTRAL)
        return grid.to_physical(spec)

    return {"u": from_spectrum(amp_u), "N": from_spectrum(amp_N),
            "quad": normal_form.AngularQuadrature(16)}


def nf_body(inp: dict) -> dict:
    u, N, quad = inp["u"], inp["N"], inp["quad"]
    tu, tN = normal_form.normal_transform(u, N, NF_IOTA, NF_IOTA, quad)
    ru, rN = normal_form.normal_inverse(tu, tN, NF_IOTA, NF_IOTA, quad=quad)
    return {"u": u, "N": N, "tu": tu, "tN": tN, "ru": ru, "rN": rN}


def nf_check(res: dict) -> tuple:
    norm = lambda f: grid.lp_norm(f, 2)
    scale = norm(res["u"]) + norm(res["N"])
    err = (norm(res["ru"] - res["u"]) + norm(res["rN"] - res["N"])) / scale
    corr = (norm(res["tu"] - res["u"]) + norm(res["tN"] - res["N"])) / scale
    failures = []
    if not err < 1e-8:
        failures.append(f"round-trip error {err:.3g} >= 1e-8")
    if not corr > 1e-4:
        failures.append(f"relative correction {corr:.3g} <= 1e-4 (trivial)")
    return failures, {"round_trip_error": float(err),
                      "relative_correction": float(corr)}


# -- virial_rate ---------------------------------------------------------------
# Large-n full-mode stepping at fixed dt, then the localized virial identity
# checked along the stored trajectory.  The only workload that loads the
# virial layer and the dense finite-difference stencils.

VIRIAL_T_END = 0.5
VIRIAL_WINDOW = 0.2
VIRIAL_R = 10.0


def virial_setup(seed: int) -> dict:
    g = _fresh_grid(1024, 50.0)
    for build in (g.derivative_matrix, g.second_derivative_matrix,
                  g.wide_derivative_matrix):
        build()
    amp_u, amp_N, chirp = np.array([0.4, 0.3, 0.15]) * (
        1.0 + 0.02 * np.random.default_rng(seed).uniform(-1.0, 1.0, size=3))
    state = dynamics.ZakharovState(
        variational.gaussian_field(g, amp_u, 1.5, chirp=chirp),
        variational.gaussian_field(g, amp_N, 2.0))
    cfg = dynamics.IntegratorConfig(dt=5e-4, mode=dynamics.FULL,
                                    store_every=20, monitor_every=200)
    return {"state": state, "cfg": cfg,
            "weights": virial.VirialWeights(g, VIRIAL_R)}


def virial_body(inp: dict) -> dict:
    log = dynamics.run(inp["state"], inp["cfg"], VIRIAL_T_END)
    weights = inp["weights"]
    window = virial.rate_check(log.traj_u.restricted(0.0, VIRIAL_WINDOW),
                               log.traj_N.restricted(0.0, VIRIAL_WINDOW),
                               weights)
    whole = virial.rate_check(log.traj_u, log.traj_N, weights)
    return {"window": window, "whole": whole}


def virial_check(res: dict) -> tuple:
    window = res["window"].max_mismatch_R
    failures = []
    if not window < 0.01:
        failures.append(f"virial mismatch on [0, {VIRIAL_WINDOW}] "
                        f"{window:.3g} >= 0.01")
    # the whole-run mismatch grows with the horizon; it is reported, not gated
    return failures, {"max_mismatch_R": float(window),
                      "max_mismatch_R_whole": float(res["whole"].max_mismatch_R)}


WORKLOADS = {w.name: w for w in (
    Workload("blowup_trip", blowup_setup, blowup_body, blowup_check),
    Workload("strichartz_probe", probe_setup, probe_body, probe_check),
    Workload("nf_round_trip", nf_setup, nf_body, nf_check),
    Workload("virial_rate", virial_setup, virial_body, virial_check),
)}
