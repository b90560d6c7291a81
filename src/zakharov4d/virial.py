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

The operators act on physical values, one column (n,) or a block (n, S) of
samples; `virial_values` evaluates a whole block in six shared kernel
passes, so `rate_check` reads a stored trajectory in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    GridError,
    RadialField,
    RadialGrid,
    inner,
    low_mode_share,
    op_D,
    radial_derivative,
    radial_laplacian_fd,
    to_physical,
)
from .variational import energy_report

D = 4  # the grid (S^3 measure, order-1 kernel) is R^4-only
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
        As_psi = lambda s: apply_As(grid, self.psi, s)
        x_dlap = ((grid.wide_derivative_matrix() @ lap_psi_num)
                  * grid.r_nodes)
        res = {
            "f0_num": self.f0**2 - (self.psi + As_psi(-D)),
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


def apply_As(grid: RadialGrid, f: np.ndarray, s: float) -> np.ndarray:
    """A_s f = r f_r + ((D + s)/2) f with the grid's FD derivative, on
    physical values: one column (n,) or a block (n, S)."""
    r = grid.r_nodes.reshape((-1,) + (1,) * (f.ndim - 1))
    return r * (grid.derivative_matrix() @ f) + 0.5 * (D + s) * f


def commutator_brace(grid: RadialGrid, weight: np.ndarray,
                     g: np.ndarray) -> np.ndarray:
    """{f} g = D(f D^{-1} g) - f g on physical values g, (n,) or (n, S), for
    real radial weights f of g's shape: four kernel passes whatever S is."""
    rho = grid.rho_nodes.reshape((-1,) + (1,) * (g.ndim - 1))
    eta = grid.to_physical_values(grid.to_spectral_values(g) * (1.0 / rho))
    d_weighted = grid.to_spectral_values(weight * eta) * rho
    return grid.to_physical_values(d_weighted) - weight * g


def bilinear_commutator_beta(f: RadialField, g: RadialField,
                             weights: VirialWeights) -> float:
    """beta_R(f, g) = <h_R D f | D g> - <h_R grad f | grad g>."""
    ff, gg = to_physical(f), to_physical(g)
    return (inner(op_D(ff) * weights.h, op_D(gg))
            - inner(radial_derivative(ff) * weights.h, radial_derivative(gg)))


@dataclass
class VirialBreakdown:
    V_R: np.ndarray
    NS: np.ndarray
    QN: np.ndarray
    CC: np.ndarray
    CC3p: np.ndarray
    V_inf: np.ndarray
    rate_inf: np.ndarray
    nu_L2: np.ndarray
    eta_low_fraction: np.ndarray

    @property
    def rate_R(self) -> np.ndarray:
        return self.NS + self.QN + self.CC


def virial_values(u: np.ndarray, N: np.ndarray,
                  weights: VirialWeights) -> VirialBreakdown:
    """V_R, its rate terms NS/QN/CC, V_inf and the flat-space rate per column
    of the physical samples u, N ((n,) or (n, S)), in six shared kernel
    passes: [N, nu, u] forward, [D^-1 N, D^-1 nu] back, a commutator_brace.

    nu = N - |u|^2 is complex.  The first-order wave N = n - i D^{-1} d_t n
    of d_t^2 n - Lap n = -Lap |u|^2 (the signs of `dynamics`) solves
    d_t N = i D nu, so the wave part W = <D^{-1} N | i B N> / 2 of V, with
    B = A_1 psi + psi A_1, has dW/dt = <nu | T N>, T = (B - D B* D^{-1}) / 2.
    D, D^{-1}, A_s and psi map real functions to real ones, so T does, and
    with the real pairing, Re N = Re nu + |u|^2 and Im N = Im nu,

        dW/dt = <Re nu | T Re nu> + <Im nu | T Im nu> + <Re nu | T |u|^2>.

    The quadratic part is the real-data form taken on both parts of nu: its
    squares nu^2, eta_r^2, eta^2 become |nu|^2, |eta_r|^2, |eta|^2 with the
    complex eta = D^{-1} nu (QN; at psi = 1 it is |nu|_2^2 = 2 <nu | A_1 nu>
    in rate_inf).  The cross term, and the Schrodinger part, which sees
    Re N only, keep Re nu (CC and the nu |u|^2 pairing of rate_inf).
    """
    grid = weights.grid
    if np.shape(u)[0] != grid.n or np.shape(N) != np.shape(u):
        raise ValueError("state and weights live on different grids")
    u, N = np.reshape(u, (grid.n, -1)), np.reshape(N, (grid.n, -1))
    S, R = u.shape[1], weights.R
    psi, r_dpsi = weights.psi[:, None], weights.r_dpsi[:, None]
    u_sq = np.abs(u) ** 2
    nu = N - u_sq

    spec = grid.to_spectral_values(np.hstack([N, nu, u]))
    if not np.all(np.isfinite(spec)):
        raise GridError("virial values of non-finite samples")
    eta_hat = spec[:, :2 * S] * (1.0 / grid.rho_nodes[:, None])
    eta_N, eta = np.hsplit(grid.to_physical_values(eta_hat), 2)

    # V = <u|i(A_0 w + w A_0)u> + <D^-1 N|i(A_1 w + w A_1)N>/2 at w = psi_R, 1
    A0u, A1N = apply_As(grid, u, 0.0), apply_As(grid, N, 1.0)
    V_R = (grid.integral(np.real(np.conj(u) * 1j * (
               apply_As(grid, psi * u, 0.0) + psi * A0u)))
           + 0.5 * grid.integral(np.real(np.conj(eta_N) * 1j * (
               apply_As(grid, psi * N, 1.0) + psi * A1N))))
    V_inf = (grid.integral(np.real(np.conj(u) * 1j * (A0u + A0u)))
             + 0.5 * grid.integral(np.real(np.conj(eta_N) * 1j * (A1N + A1N))))

    eta_r = grid.derivative_matrix() @ eta
    u_r = grid.derivative_matrix() @ u

    # NS per the general-psi identity (angular term absent for radial u)
    NS = grid.integral((
        4.0 * psi * np.abs(u_r) ** 2
        + 4.0 * r_dpsi * np.abs(u_r) ** 2
        - weights.A_d_psi[:, None] * np.abs(u) ** 4
        - (weights.A_dp4_lap_psi[:, None] / R**2) * u_sq))

    QN = grid.integral((
        0.5 * psi * np.abs(nu) ** 2
        + 0.5 * psi * np.abs(eta_r) ** 2
        + r_dpsi * np.abs(eta_r) ** 2
        - 0.25 * (weights.A_dp2_lap_psi[:, None] / R**2) * np.abs(eta) ** 2))

    brace_psi, brace_rdp = np.hsplit(commutator_brace(
        grid, np.repeat(np.hstack([psi, r_dpsi]), S, axis=1),
        np.hstack([apply_As(grid, u_sq, 1.0), u_sq])), 2)
    CC3p = grid.integral(nu.real * np.real(brace_psi + 0.5 * brace_rdp))
    CC = -grid.integral(nu.real * u_sq * weights.A_dm2_psi[:, None]) + CC3p

    energies = energy_report(grid, spec[:, 2 * S:], u, N)
    nu_L2 = energies.nu_L2
    rate_inf = (4.0 * energies.K + nu_L2**2
                - (D - 1) * grid.integral(nu.real * u_sq))

    return VirialBreakdown(V_R=V_R, NS=NS, QN=QN, CC=CC, CC3p=CC3p,
                           V_inf=V_inf, rate_inf=rate_inf, nu_L2=nu_L2,
                           eta_low_fraction=low_mode_share(grid,
                                                           eta_hat[:, S:]))


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

    traj_u and traj_N are TrajectorySamples on the weights' grid and the
    same sample times, evaluated by one virial_values call.  Requires a
    uniform stride; a stride too coarse for O(dt^2) accuracy is detected
    by comparing the 1-stride and 2-stride centered differences
    (Richardson disagreement above RICHARDSON_TOL raises StrideError).
    """
    times = traj_u.times
    if traj_u.grid != weights.grid or traj_N.grid != weights.grid:
        raise ValueError("trajectories and weights live on different grids")
    if not np.array_equal(times, traj_N.times):
        raise ValueError("u and N trajectories must share sample times")
    if len(times) < 5:
        raise ValueError("rate check needs at least 5 stored samples")
    dt = np.diff(times)
    if not np.allclose(dt, dt[0], rtol=1e-8):
        raise ValueError("rate check needs a uniform trajectory stride")
    h = dt[0]

    b = virial_values(traj_u.values, traj_N.values, weights)
    fd1_R = (b.V_R[2:] - b.V_R[:-2]) / (2 * h)
    fd1_inf = (b.V_inf[2:] - b.V_inf[:-2]) / (2 * h)
    # 2-stride centered difference on the interior where both exist
    fd2_R = (b.V_R[4:] - b.V_R[:-4]) / (4 * h)
    scale = np.abs(fd1_R[1:-1]).max() + 1e-300
    if np.abs(fd2_R - fd1_R[1:-1]).max() / scale > RICHARDSON_TOL:
        raise StrideError("centered differences disagree: stride too coarse")

    mid = slice(1, -1)
    def mismatch(fd, rate):
        # relative to the larger of the two sides' window maxima, so zero
        # crossings of the rate do not inflate the measure
        denom = max(np.abs(fd).max(), np.abs(rate).max(), 1e-300)
        return np.abs(fd - rate) / denom

    rate_R, rate_inf = b.rate_R[mid], b.rate_inf[mid]
    mm_R = mismatch(fd1_R, rate_R)
    mm_inf = mismatch(fd1_inf, rate_inf)
    return RateCheckReport(times=times[mid], fd_V_R=fd1_R, rate_R=rate_R,
                           fd_V_inf=fd1_inf, rate_inf=rate_inf,
                           max_mismatch_R=float(mm_R.max()),
                           max_mismatch_inf=float(mm_inf.max()))
