"""Littlewood-Paley calculus, Besov norms, the adapted frequency weight,
and the endpoint space-time norms used by the Strichartz probes.

The dyadic cutoff chi0 is built from a C^1 cosine-squared bump so the
partition of unity telescopes exactly; the dyadic range is clamped to the
grid's resolvable frequencies [rho_min, rho_max] and mass outside the
covered band is reported, never silently dropped.

A sampled trajectory is one (n, S) block of physical columns
(`TrajectorySamples`); its space-time norm transforms the block in one
kernel pass and takes every sample's dyadic profile in `dyadic_profile`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (
    GridError,
    RadialField,
    RadialGrid,
    apply_multiplier,
    to_spectral,
)

DELTA_STAR = 3.0 / 7.0  # (d-1)/(2d-1) at d = 4


def bump_profile(t: np.ndarray) -> np.ndarray:
    """C^1 bump: 1 on t <= 1, cos^2(pi (t-1)/2) on 1 < t < 2, 0 beyond.

    A float (numpy float64 included) takes a scalar path and returns a
    float, which keeps pointwise integrands free of 0-d array overhead.
    """
    if isinstance(t, float):
        if t <= 1.0:
            return 1.0
        return math.cos(math.pi * (t - 1.0) / 2.0) ** 2 if t < 2.0 else 0.0
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t <= 1.0] = 1.0
    mid = (t > 1.0) & (t < 2.0)
    out[mid] = np.cos(np.pi * (t[mid] - 1.0) / 2.0) ** 2
    return out


def chi0(x: np.ndarray) -> np.ndarray:
    """Annulus cutoff chi0 = bump(x) - bump(2x), supported in (1/2, 2).

    On (1/2, 1] bump(x) = 1 and on (1, 2) bump(2x) = 0, so an array takes
    one cosine, of t = 2x or x, as val = cos^2(pi (t-1)/2): chi0 is 1 - val
    for x <= 1, val above, and 0 off (1/2, 2), NaN and +-inf included.
    That is bump(x) - bump(2x) bit for bit, with no gather or scatter.  x
    is replaced by 1 off the support before any arithmetic, so no x raises
    a warning (the two-bump form overflows 2x for |x| > 9e307).
    A float takes bump_profile's scalar path.
    """
    if isinstance(x, float):
        return bump_profile(x) - bump_profile(2.0 * x)
    x = np.asarray(x, dtype=float)
    low = x <= 1.0
    on = (x > 0.5) & (x < 2.0)
    val = np.where(on, x, 1.0)
    val *= 1.0 + low  # t: 2x on (1/2, 1], x on (1, 2), finite off them
    val -= 1.0
    val *= np.pi
    val /= 2.0
    np.cos(val, out=val)
    np.square(val, out=val)
    val = np.where(low, 1.0 - val, val)
    val *= on
    return val


def block_sum(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Sum of chi0(x/j) over the dyadic blocks lo <= j <= hi (lo <= hi),
    telescoped to bump(x/hi) - bump(2x/lo); supported in (lo/2, 2 hi)."""
    x = np.asarray(x, dtype=float)
    return bump_profile(x / hi) - bump_profile(2.0 * x / lo)


def dyadic_blocks(grid: RadialGrid) -> np.ndarray:
    """Blocks 2^k whose annulus (j/2, 2j) meets [rho_min, rho_max]."""
    kmin = int(np.floor(np.log2(grid.rho_nodes[0])))
    kmax = int(np.ceil(np.log2(grid.rho_nodes[-1])))
    return 2.0 ** np.arange(kmin, kmax + 1)


def lp_project(f: RadialField, j: float) -> RadialField:
    """P_j f = F^{-1}[chi0(rho/j) F f]; returns f's incoming space."""
    return apply_multiplier(f, chi0(f.grid.rho_nodes / j))


def coverage_defect(f: RadialField) -> float:
    """Relative spectral mass of f outside the grid's dyadic range."""
    grid, spec = f.grid, to_spectral(f).values
    out = grid.spectral_integral(
        np.abs(spec * (1.0 - chi_partition_sum(grid))) ** 2)
    tot = grid.spectral_integral(np.abs(spec) ** 2)
    return float(np.sqrt(out / tot)) if tot > 0 else 0.0


def chi_partition_sum(grid: RadialGrid) -> np.ndarray:
    """Sum of chi0(rho/j) over the grid's dyadic range."""
    blocks = dyadic_blocks(grid)
    return block_sum(grid.rho_nodes, blocks[0], blocks[-1])


def besov_norm(f: RadialField, s: float, p: float, q: float) -> float:
    """Homogeneous Besov norm (sum over the grid's dyadic range).

    (sum_j (j^s |P_j f|_p)^q)^{1/q}, with q = inf taking the sup.
    """
    return besov_from_spectrum(to_spectral(f).values, f.grid, s, p, q)


# -- frequency weight ---------------------------------------------------------


class SeparationError(ValueError):
    """Scale set too dense for the requested flatness beta."""


@dataclass(frozen=True)
class FrequencyWeight:
    """Piecewise log-linear frequency weight adapted to (beta, S).

    Flat plateaus w = sigma on [sigma/beta^2, beta^2 sigma] around each
    scale sigma in S, w = 1 below the lowest plateau, w = r/beta^2 beyond
    the highest, log-linear with exponent 1 + p(r) in between.
    """

    beta: float
    scales: tuple

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if np.any(r <= 0):
            raise ValueError("frequency weight is defined for r > 0")
        out = np.empty_like(r)
        b2 = self.beta**2
        S = np.array(self.scales)
        smax = S[-1]

        done = np.zeros(r.shape, dtype=bool)
        for sigma in S:
            on = (r >= sigma / b2) & (r <= b2 * sigma)
            out[on] = sigma
            done |= on

        rest = ~done
        low = rest & (r < S[0])
        out[low] = 1.0
        high = rest & (r > smax)
        out[high] = r[high] / b2
        mid = rest & ~low & ~high
        if np.any(mid):
            rm = r[mid]
            i = np.searchsorted(S, rm)
            s_lo = S[i - 1]
            s_hi = S[i]
            p = np.log(b2) / np.log(np.sqrt(s_hi / (self.beta**4 * s_lo)))
            out[mid] = rm * (rm / np.sqrt(s_hi * s_lo)) ** p
        return out[0] if scalar else out


def build_weight(beta: float, scales) -> FrequencyWeight:
    """Validate (beta, S) and build the adapted weight.

    Requires beta > 1, 1 in S, S subset of [1, inf), and separation
    S-tilde > beta^4; violations name the offending pair.
    """
    if not beta > 1:
        raise ValueError(f"beta must exceed 1, got {beta}")
    S = np.array(sorted(set(float(s) for s in scales)))
    if len(S) == 0 or S[0] != 1.0:
        raise ValueError("scale set must contain 1 as its minimum")
    if np.any(S < 1.0):
        raise ValueError("scales must lie in [1, inf)")
    if len(S) > 1:
        ratios = S[1:] / S[:-1]
        worst = int(np.argmin(ratios))
        if ratios[worst] <= beta**4:
            raise SeparationError(
                f"scales {S[worst]:g} and {S[worst + 1]:g} have ratio "
                f"{ratios[worst]:g} <= beta^4 = {beta**4:g}")
    return FrequencyWeight(beta=float(beta), scales=tuple(S))


def weight_multiplier(f: RadialField, w: FrequencyWeight, s: float) -> RadialField:
    """sum_j w(j)^s P_j f over the grid's dyadic range."""
    rho = f.grid.rho_nodes
    return apply_multiplier(f, sum(w(j) ** s * chi0(rho / j)
                                   for j in dyadic_blocks(f.grid)))


# -- trajectories and space-time norms ---------------------------------------


@dataclass
class TrajectorySamples:
    """Physical samples of one radial field along a run, as one block.

    values (n, S) holds the sample at times[k] in its column k; role names
    the field ("u", "N", or a wave piece "N_F", "N_N", "N_D").  Consumers
    take the whole block: the X^delta norm transforms it in one pass, and
    the virial rate check evaluates it in one `virial_values` call.
    """

    grid: RadialGrid
    times: np.ndarray
    values: np.ndarray
    role: str = "u"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.n, len(self.times)):
            raise ValueError(
                f"sample block has shape {self.values.shape}, expected "
                f"{(self.grid.n, len(self.times))} (grid.n, sample times)")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")

    def restricted(self, t0: float, t1: float) -> "TrajectorySamples":
        keep = (self.times >= t0) & (self.times <= t1)
        return TrajectorySamples(self.grid, self.times[keep],
                                 self.values[:, keep], self.role)


def _sobolev_p(inv_half_shift: float) -> float:
    # 1/p = 1/2 + shift/4 on R^4
    inv = 0.5 + inv_half_shift / 4.0
    if inv <= 0:
        return np.inf
    return 1.0 / inv


def xdelta_exponents(delta: float, dual: bool = False) -> tuple:
    """(s, p) of the Besov factor of X^delta, or of X^delta_* when dual:
    Besov(delta, 2(delta-1), 2) and Besov(-delta, 2(1-delta), 2)."""
    if not 0 <= delta < DELTA_STAR:
        raise ValueError(f"delta must lie in [0, {DELTA_STAR:.4f}), got {delta}")
    if dual:
        return -delta, _sobolev_p(1.0 - delta)
    return delta, _sobolev_p(delta - 1.0)


def spacetime_norm_X(traj: TrajectorySamples, delta: float,
                     dual: bool = False) -> float:
    """Endpoint space-time norm of a sampled trajectory.

    dual=False: max( cL^inf_t L^2 , X^delta ) with
    X^delta = L^2_t Besov(delta, 2(delta-1), 2); the cL^inf norm square-sums
    per-dyadic-block sups (a lower bound of the continuum norm on discrete
    samples).  dual=True evaluates X^delta_* = L^2_t Besov(-delta, 2(1-delta), 2).
    Time integrals by trapezoid over the samples.
    """
    if traj.times.size == 0:
        raise ValueError("space-time norm of an empty trajectory "
                         "(no sample times)")
    s, p = xdelta_exponents(delta, dual)
    grid = traj.grid
    terms, block_l2 = dyadic_profile(grid.to_spectral_values(traj.values),
                                     grid, s, p)
    besov = np.sqrt(np.sum(terms**2, axis=1))
    if dual:
        return float(_l2_time(traj.times, besov))
    return float(xdelta_from_profile(traj.times, besov[:, None],
                                     block_l2[:, None])[0])


def xdelta_from_profile(times: np.ndarray, besov: np.ndarray,
                        block_l2: np.ndarray) -> np.ndarray:
    """max(cL^inf_t L^2, X^delta) per column from sampled dyadic profiles:
    besov (S, m) and block_l2 (S, m, B) at the S sample times."""
    sup = np.sqrt(np.sum(block_l2.max(axis=0) ** 2, axis=-1))
    return np.maximum(_l2_time(times, besov), sup)


@lru_cache(maxsize=8)
def _block_table(grid: RadialGrid) -> tuple:
    """(js, runs): the blocks js of dyadic_blocks(grid) whose cutoff meets
    the grid, and per block (rows, cut): chi0(rho/j) is nonzero on the
    slice rows only, with values cut (rows, 1) there."""
    js = dyadic_blocks(grid)
    cuts = chi0(grid.rho_nodes / js[:, None])
    live = np.any(cuts, axis=1)
    js, cuts = js[live], cuts[live]
    js.setflags(write=False)
    cuts.setflags(write=False)
    rows = [slice(nz[0], nz[-1] + 1) for nz in map(np.flatnonzero, cuts)]
    return js, tuple((r, cut[r, None]) for r, cut in zip(rows, cuts))


def dyadic_profile(spec: np.ndarray, grid: RadialGrid, s: float,
                   p: float) -> tuple:
    """Dyadic profile of the spectral columns spec (n, m), for p >= 1.

    Returns (terms, block_l2), both (m, B) over the B blocks of
    dyadic_blocks(grid) whose cutoff meets the grid: terms[k, b] =
    j_b^s |P_{j_b} f_k|_p and block_l2[k, b] = |P_{j_b} f_k|_2 by
    Plancherel.  Each block is synthesised from its own rows (the support
    of chi0(rho/j_b)) through M's columns on those rows alone; the roots
    and the weights j_b^s are taken once, over the whole (m, B) result.
    """
    if not p >= 1:   # refuses NaN too
        raise ValueError(f"Lebesgue exponent needs p >= 1, got p={p}")
    spec = spec.reshape(grid.n, -1)
    if not np.all(np.isfinite(spec)):
        raise GridError("dyadic synthesis of non-finite values")
    js, runs = _block_table(grid)
    reduced, block_l2 = np.zeros((2, spec.shape[1], len(js)))
    for b, (rows, cut) in enumerate(runs):
        piece = spec[rows] * cut
        block_l2[:, b] = grid.spectral_integral(np.abs(piece)**2, rows)
        a = np.abs(grid.rows_to_physical(piece, rows))
        reduced[:, b] = a.max(axis=0) if np.isinf(p) else grid.integral(a**p)
    norms = reduced if np.isinf(p) else reduced ** (1 / p)
    return js**s * norms, np.sqrt(block_l2)


def besov_from_spectrum(spec_values: np.ndarray, grid: RadialGrid, s: float,
                        p: float, q: float) -> float:
    if np.shape(spec_values) != (grid.n,) or not q >= 1:  # refuses NaN q
        raise ValueError(f"Besov norm of one ({grid.n},) column with q >= 1, "
                         f"got shape {np.shape(spec_values)}, q={q}")
    t = dyadic_profile(spec_values, grid, s, p)[0][0]
    if np.isinf(q):
        return float(t.max(initial=0.0))
    return float((t**q).sum() ** (1.0 / q))


def _l2_time(times: np.ndarray, values: np.ndarray):
    """L^2_t of the samples along axis 0, by the trapezoid rule."""
    if len(times) == 1:
        return values[0]
    return np.sqrt(np.trapezoid(values**2, times, axis=0))
