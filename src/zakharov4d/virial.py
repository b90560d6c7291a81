"""Localized virial machinery: weights, operators, commutators, and the
decomposition dV_R/dt = NS + QN + CC.

The weight is psi_R = <r/R>^{-1}; the companion weights f_0..f_5 are
evaluated from closed forms (analytic differentiation of <x>^{-1}), and the
defining relations then double as independent cross-checks of the numeric
A_s and Laplacian operators:

    f0^2 = (1 + x d/dx) psi        f1 = -x psi'
    f2 = -A_{d+4} Lap psi + 4 f0 Lap f0
    f3 = A_d psi - d f0^4          4 f4 = -A_{d+2} Lap psi
    f5 = A_{d-2} psi - (d-1) f0^3

with A_s = x d/dx + (d+s)/2 and d = D = 4.  All identities below use the real
pairing <f|g> = Re integral conj(f) g dx.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    PHYSICAL,
    RadialField,
    RadialGrid,
    SPHERE_S3,
    lp_norm,
    low_frequency_fraction,
    op_D,
    op_D_inverse,
    radial_derivative,
    radial_laplacian_fd,
    to_physical,
)
from .variational import nehari_K

D = 4  # the grid (SPHERE_S3, order-1 kernel, FOURIER_NORM) is R^4-only
RICHARDSON_TOL = 0.1  # rate_check: 1- vs 2-stride disagreement allowed


def _psi_powers(x: np.ndarray):
    psi = 1.0 / np.sqrt(1.0 + x**2)
    return psi, psi**3, psi**5, psi**7


class VirialWeights:
    """psi_R = <r/R>^{-1} and its companion weights sampled on a grid.

    Scaled quantities follow f_{j,R}(r) = f_j(r/R); the Laplacian-bearing
    combinations carry the extra R^{-2} where they enter the identities.
    """

    def __init__(self, grid: RadialGrid, R: float):
        if R <= 0:
            raise ValueError("virial scale R must be positive")
        self.grid = grid
        self.R = float(R)
        x = grid.r_nodes / R
        self.x = x
        psi, psi3, psi5, psi7 = _psi_powers(x)
        self.psi = psi
        self.f0 = psi**1.5
        self.f1 = x**2 * psi3
        self.f2 = (D - 3) * (D - 1) * psi3 + 3 * psi5 - 6 * psi7
        self.f3 = (D - 1) * psi + psi3 - D * psi**6
        self.f4 = ((D - 3) * (D - 2) * psi3 + 3 * (2 * D - 7) * psi5
                   + 15 * psi7) / 4.0
        self.f5 = (D - 1) * (psi - psi**4.5) - x**2 * psi3
        # h = A_{D-1} psi and the radial-stretch weight
        self.h = (2 * D - 1) / 2.0 * psi - x**2 * psi3
        self.La = x**2 / (1.0 + x) ** 4
        # closed-form ingredients of the identities
        self.r_dpsi = -(x**2) * psi3                 # r d/dr of psi_R
        self.A_d_psi = D * psi - x**2 * psi3
        self.A_dm2_psi = (D - 1) * psi - x**2 * psi3
        lap_psi = -(D - 3) * psi3 - 3 * psi5         # Lap psi (unscaled x)
        x_dlap = x**2 * (3 * (D - 3) * psi5 + 15 * psi7)
        self.lap_psi = lap_psi
        self.A_dp4_lap_psi = x_dlap + (D + 2) * lap_psi
        self.A_dp2_lap_psi = x_dlap + (D + 1) * lap_psi
        self.lap_f0 = (-1.5 * D) * psi**3.5 + 5.25 * x**2 * psi**5.5

    def defining_relation_residuals(self) -> dict:
        """Closed-form vs closed-form residuals (exact up to roundoff)."""
        res = {
            "f0": self.f0**2 - (self.psi + self.r_dpsi),
            "f1": self.f1 + self.r_dpsi,
            "f2": self.f2 - (-self.A_dp4_lap_psi + 4 * self.f0 * self.lap_f0),
            "f3": self.f3 - (self.A_d_psi - D * self.f0**4),
            "f4": 4 * self.f4 + self.A_dp2_lap_psi,
            "f5": self.f5 - (self.A_dm2_psi - (D - 1) * self.f0**3),
        }
        return {k: float(np.abs(v).max()) for k, v in res.items()}

    def numeric_relation_residuals(self) -> dict:
        """Same relations with the numeric A_s and FD-Laplacian operators.

        psi_R has a 1/r tail, so the local FD Laplacian is used here (the
        spectral one would see the Dirichlet wall); residuals are taken on
        the grid interior (r < r_max/2).
        """
        grid, R = self.grid, self.R
        mask = grid.interior_mask()
        lap_psi_num = radial_laplacian_fd(
            RadialField(grid, self.psi)).values.real * R**2
        lap_f0_num = radial_laplacian_fd(
            RadialField(grid, self.f0)).values.real * R**2
        As_psi = lambda s: apply_As(RadialField(grid, self.psi), s).values.real
        x_dlap = ((grid.wide_derivative_matrix() @ lap_psi_num)
                  * grid.r_nodes)
        res = {
            "f0_num": self.f0**2 - (self.psi + grid.r_nodes
                                    * radial_derivative(
                                        RadialField(grid, self.psi)).values.real),
            "f2_num": self.f2 - (-(x_dlap + (D + 2) * lap_psi_num)
                                 + 4 * self.f0 * lap_f0_num),
            "f3_num": self.f3 - (As_psi(D) - D * self.f0**4),
            "f4_num": 4 * self.f4 + (x_dlap + (D + 1) * lap_psi_num),
            "f5_num": self.f5 - (As_psi(D - 2) - (D - 1) * self.f0**3),
        }
        return {k: float(np.abs(v[mask]).max()) for k, v in res.items()}

    def positivity_margins(self) -> dict:
        """min over nodes of the weights required positive for d >= 4."""
        out = {name: float(getattr(self, name).min())
               for name in ("f1", "f2", "f3", "f4", "f5")}
        # 0 < f5 <~ x^2/<x>^3 on every node
        bound = self.x**2 / (1.0 + self.x**2) ** 1.5
        out["f5_upper_ratio"] = float((self.f5 / bound).max())
        return out


def apply_As(f: RadialField, s: float) -> RadialField:
    """A_s f = r f_r + ((D + s)/2) f with the grid's FD derivative."""
    g = to_physical(f)
    df = radial_derivative(g)
    vals = g.grid.r_nodes * df.values + 0.5 * (D + s) * g.values
    return RadialField(g.grid, vals, PHYSICAL)


def commutator_brace(weight_vals: np.ndarray, g: RadialField) -> RadialField:
    """{f} g = D(f * D^{-1} g) - f g for a real radial weight f."""
    gg = to_physical(g)
    eta = op_D_inverse(gg)
    inner_field = RadialField(gg.grid, weight_vals * eta.values)
    return RadialField(gg.grid,
                       op_D(inner_field).values - weight_vals * gg.values)


def bilinear_commutator_beta(f: RadialField, g: RadialField,
                             weights: VirialWeights) -> float:
    """beta_R(f, g) = <h_R D f | D g> - <h_R grad f | grad g>."""
    ff, gg = to_physical(f), to_physical(g)
    grid = ff.grid
    Df, Dg = op_D(ff), op_D(gg)
    fr, gr = radial_derivative(ff), radial_derivative(gg)
    w = grid.quad_weights_r
    term1 = SPHERE_S3 * np.sum(
        w * weights.h * np.real(np.conj(Df.values) * Dg.values))
    term2 = SPHERE_S3 * np.sum(
        w * weights.h * np.real(np.conj(fr.values) * gr.values))
    return float(term1 - term2)


@dataclass
class VirialBreakdown:
    V_R: float
    NS: float
    QN: float
    CC: float
    CC3p: float
    V_inf: float
    rate_inf: float
    nu_L2: float
    eta_low_fraction: float

    @property
    def rate_R(self) -> float:
        return self.NS + self.QN + self.CC


def _pair_i_sym(a: RadialField, weight: np.ndarray, b: RadialField,
                s: float) -> float:
    """<a | i (A_s w + w A_s) b> with the real pairing."""
    grid = a.grid
    first = apply_As(RadialField(grid, weight * b.values), s)
    second = weight * apply_As(b, s).values
    integrand = np.real(np.conj(a.values) * 1j * (first.values + second))
    return float(SPHERE_S3 * np.sum(grid.quad_weights_r * integrand))


def virial_values(u: RadialField, N: RadialField,
                  weights: VirialWeights) -> VirialBreakdown:
    """Evaluate V_R, its rate terms NS/QN/CC, V_inf and the flat-space rate."""
    grid = weights.grid
    u = to_physical(u)
    N = to_physical(N)
    if u.grid != grid or N.grid != grid:
        raise ValueError("state and weights live on different grids")
    R = weights.R
    w = grid.quad_weights_r
    ones = np.ones(grid.n)

    eta_N = op_D_inverse(N)
    V_R = (_pair_i_sym(u, weights.psi, u, 0.0)
           + 0.5 * _pair_i_sym(eta_N, weights.psi, N, 1.0))
    V_inf = (_pair_i_sym(u, ones, u, 0.0)
             + 0.5 * _pair_i_sym(eta_N, ones, N, 1.0))

    nu = np.real(N.values) - np.abs(u.values) ** 2
    nu_field = RadialField(grid, nu)
    eta = op_D_inverse(nu_field)
    eta_r = radial_derivative(eta).values.real
    u_r = radial_derivative(u).values

    # NS per the general-psi identity (angular term absent for radial u)
    lap_term = weights.A_dp4_lap_psi / R**2
    NS = float(SPHERE_S3 * np.sum(w * (
        4.0 * weights.psi * np.abs(u_r) ** 2
        + 4.0 * weights.r_dpsi * np.abs(u_r) ** 2
        - weights.A_d_psi * np.abs(u.values) ** 4
        - lap_term * np.abs(u.values) ** 2)))

    QN = float(SPHERE_S3 * np.sum(w * (
        0.5 * weights.psi * nu**2
        + 0.5 * weights.psi * eta_r**2
        + weights.r_dpsi * eta_r**2
        - 0.25 * (weights.A_dp2_lap_psi / R**2) * eta.values.real**2)))

    u_sq = RadialField(grid, np.abs(u.values) ** 2)
    brace_psi = commutator_brace(weights.psi, apply_As(u_sq, 1.0))
    brace_rdp = commutator_brace(weights.r_dpsi, u_sq)
    CC3p = float(SPHERE_S3 * np.sum(w * nu * np.real(
        brace_psi.values + 0.5 * brace_rdp.values)))
    CC = float(-SPHERE_S3 * np.sum(
        w * nu * np.abs(u.values) ** 2 * weights.A_dm2_psi)) + CC3p

    rate_inf = (4.0 * nehari_K(u) + lp_norm(nu_field, 2) ** 2
                - (D - 1) * SPHERE_S3 * np.sum(w * nu * np.abs(u.values) ** 2))

    low_frac, _ = low_frequency_fraction(nu_field)
    return VirialBreakdown(V_R=V_R, NS=NS, QN=QN, CC=CC, CC3p=CC3p,
                           V_inf=V_inf, rate_inf=float(rate_inf),
                           nu_L2=lp_norm(nu_field, 2),
                           eta_low_fraction=float(low_frac))


class StrideError(RuntimeError):
    """Trajectory stride too coarse for the requested finite difference."""


@dataclass
class RateCheckReport:
    times: np.ndarray
    fd_V_R: np.ndarray
    rate_R: np.ndarray
    fd_V_inf: np.ndarray
    rate_inf: np.ndarray
    max_mismatch_R: float
    max_mismatch_inf: float


def rate_check(traj_u, traj_N, weights: VirialWeights) -> RateCheckReport:
    """Compare centered-difference dV_R/dt with NS + QN + CC along a stored
    trajectory (and dV_inf/dt with the flat-space rate).

    traj_u and traj_N are TrajectorySamples on the same sample times; each
    pair of columns is one virial_values evaluation.  Requires a uniform
    stride; a stride too coarse for O(dt^2) accuracy is detected by
    comparing the 1-stride and 2-stride centered differences (Richardson
    disagreement above RICHARDSON_TOL raises StrideError).
    """
    times = traj_u.times
    if not np.array_equal(times, traj_N.times):
        raise ValueError("u and N trajectories must share sample times")
    if len(times) < 5:
        raise ValueError("rate check needs at least 5 stored samples")
    dt = np.diff(times)
    if not np.allclose(dt, dt[0], rtol=1e-8):
        raise ValueError("rate check needs a uniform trajectory stride")
    h = dt[0]

    breakdown = [virial_values(RadialField(traj_u.grid, uu),
                               RadialField(traj_N.grid, NN), weights)
                 for uu, NN in zip(traj_u.values.T, traj_N.values.T)]
    V_R = np.array([b.V_R for b in breakdown])
    V_inf = np.array([b.V_inf for b in breakdown])
    rate_R = np.array([b.rate_R for b in breakdown])
    rate_inf = np.array([b.rate_inf for b in breakdown])

    fd1_R = (V_R[2:] - V_R[:-2]) / (2 * h)
    fd1_inf = (V_inf[2:] - V_inf[:-2]) / (2 * h)
    # 2-stride centered difference on the interior where both exist
    fd2_R = (V_R[4:] - V_R[:-4]) / (4 * h)
    scale = np.abs(fd1_R[1:-1]).max() + 1e-300
    if np.abs(fd2_R - fd1_R[1:-1]).max() / scale > RICHARDSON_TOL:
        raise StrideError("centered differences disagree: stride too coarse")

    mid = slice(1, -1)
    def mismatch(fd, rate):
        # relative to the larger of the two sides' window maxima, so zero
        # crossings of the rate do not inflate the measure
        denom = max(np.abs(fd).max(), np.abs(rate).max(), 1e-300)
        return np.abs(fd - rate) / denom

    mm_R = mismatch(fd1_R, rate_R[mid])
    mm_inf = mismatch(fd1_inf, rate_inf[mid])
    return RateCheckReport(times=times[mid], fd_V_R=fd1_R, rate_R=rate_R[mid],
                           fd_V_inf=fd1_inf, rate_inf=rate_inf[mid],
                           max_mismatch_R=float(mm_R.max()),
                           max_mismatch_inf=float(mm_inf.max()))
