"""Ground state, sharp constants, energy functionals, and the sign
classifiers that separate the scattering side from the blow-up side.

Closed forms used throughout (forced by -Lap W = W^3 and the sharp Sobolev
constant): |grad W|_2^2 = |W|_4^4 = 32 pi^2/3, E_S(W) = 8 pi^2/3, and the
wave-mass threshold |W^2|_2 = sqrt(32 pi^2/3).

E_Z = (|grad u|_2^2 + |N|_2^2/2 - integral Re N |u|^2)/2 = E_S + |nu|_2^2/4,
nu = N - |u|^2, so that E_Z(W, W^2) = E_S(W).  `energy_report` takes the
expanded form: near a blow-up trip the nu form cancels as much (E_S = -3.06e4
against |nu|_2^2/4 = 3.06e4 for E_Z = 18.5), so neither is more accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .grid import (
    GridError,
    RadialField,
    RadialGrid,
    SPHERE_S3,
    field,
    lp_norm,
    to_physical,
    to_spectral,
    truncation_profile,
    zero_field,
)

W4_4_EXACT = 32.0 * np.pi**2 / 3.0
ES_W_EXACT = W4_4_EXACT / 4.0
MASS_THRESHOLD_EXACT = np.sqrt(W4_4_EXACT)

SCATTERING_SIDE = "scattering_side"
BLOWUP_SIDE = "blowup_side"
ABOVE_THRESHOLD = "above_threshold_energy"
INDETERMINATE = "indeterminate"

THRESHOLD_BAND = 1e-9  # relative band where the mass comparison is a toss-up
_SIDES = np.array([BLOWUP_SIDE, SCATTERING_SIDE, INDETERMINATE,  # by code
                   ABOVE_THRESHOLD])


def w_profile(r: np.ndarray) -> np.ndarray:
    """The Aubin-Talenti profile W(r) = [1 + r^2/8]^{-1} on R^4."""
    return 1.0 / (1.0 + np.asarray(r, dtype=float) ** 2 / 8.0)


def w_field(grid: RadialGrid, truncated: bool = False) -> RadialField:
    vals = w_profile(grid.r_nodes)
    if truncated:
        vals = vals * truncation_profile(grid)
    return field(grid, vals)


@dataclass(frozen=True)
class GroundState:
    """W sampled on a grid plus its sharp constants."""

    field: RadialField
    grad_W_sq: float
    W4_4: float
    C_S: float
    E_S_W: float
    mass_threshold: float


def ground_state(grid: RadialGrid) -> GroundState:
    """Sample W and compute its constants by quadrature.

    W4_4 comes from the grid quadrature (fast-decaying integrand);
    grad_W_sq from untruncated quadrature of the closed-form integrand
    |W'(r)|^2 = r^2 W^4/16 on [0, inf), since the grid's finite window
    misses a ~r_max^{-2} share of the gradient tail.
    """
    w = w_field(grid)
    W4_4 = lp_norm(w, 4) ** 4
    integrand = lambda r: (r * r / 16.0) * w_profile(r) ** 4 * r**3
    tail, _ = quad(integrand, 0.0, np.inf, limit=200)
    grad_sq = SPHERE_S3 * tail
    C_S = grad_sq ** -0.25
    return GroundState(
        field=w,
        grad_W_sq=grad_sq,
        W4_4=W4_4,
        C_S=C_S,
        E_S_W=0.5 * grad_sq - 0.25 * W4_4,
        mass_threshold=np.sqrt(W4_4),
    )


@dataclass
class EnergyReport:
    """Floats and a side for one column; (S,) arrays for S columns."""

    mass: float
    grad_sq: float             # |grad u|_2^2
    u4_4: float                # |u|_4^4
    K: float
    energy_S: float
    energy_Z: float
    N_L2: float
    nu_L2: float
    classification: str


def energy_report(grid: RadialGrid, u_spec: np.ndarray, u: np.ndarray,
                  N: np.ndarray) -> EnergyReport:
    """The report of physical u and N, one column (n,) or a block (n, S),
    and the spectral u: no kernel pass, and a block equals its one-column
    calls bit for bit.  Above the ground-state energy no side is guessed.
    Non-finite samples (or integrals) raise GridError."""
    if not np.shape(u_spec) == np.shape(u) == np.shape(N) or len(u) != grid.n:
        raise GridError("energy samples do not match each other or the grid")
    a_u = np.abs(u)
    u_sq = a_u**2
    mass, u4_4 = grid.integral(u_sq), grid.integral(a_u**4)
    grad_sq = grid.gradient_sq(u_spec)
    N_sq, cross = grid.integral(np.abs(N) ** 2), grid.integral(np.real(N) * u_sq)
    nu_sq = grid.integral(np.abs(N - u_sq) ** 2)
    e_z = 0.5 * (grad_sq + 0.5 * N_sq - cross)
    # a non-finite sample, or an overflow, leaves some term, so this sum,
    # non-finite (the terms other than the cross term are not negative)
    if not np.isfinite(mass + u4_4 + nu_sq + e_z).all():
        raise GridError("energies of non-finite samples")
    # the scalar pow of a one-column float ** 0.5 (array ** 0.5 is sqrt)
    n_l2, nu_l2 = np.float_power(N_sq, 0.5), np.float_power(nu_sq, 0.5)
    band = THRESHOLD_BAND * MASS_THRESHOLD_EXACT
    side = _SIDES[np.where(e_z >= ES_W_EXACT, 3, np.where(
        np.abs(n_l2 - MASS_THRESHOLD_EXACT) <= band, 2,
        n_l2 < MASS_THRESHOLD_EXACT))]
    columns = (mass, grad_sq, u4_4, grad_sq - u4_4,
               0.5 * grad_sq - 0.25 * u4_4, e_z, n_l2, nu_l2)
    if np.ndim(u) == 1:
        return EnergyReport(*map(float, columns), str(side))
    return EnergyReport(*columns, side)


def functionals(u: RadialField, N: RadialField) -> EnergyReport:
    """`energy_report` of u and N: one kernel pass if N is physical."""
    if u.grid != N.grid:
        raise GridError("u and N live on different grids")
    return energy_report(u.grid, to_spectral(u).values, to_physical(u).values,
                         to_physical(N).values)


def nls_energy(u: RadialField) -> float:
    return functionals(u, zero_field(u.grid)).energy_S


def nehari_K(u: RadialField) -> float:
    return functionals(u, zero_field(u.grid)).K


def zakharov_energy(u: RadialField, N: RadialField) -> float:
    return functionals(u, N).energy_Z


def _stacked_report(us, Ns) -> EnergyReport:
    """`energy_report` of same-grid fields as the columns of one block."""
    grid = us[0].grid
    if any(f.grid != grid for f in (*us, *Ns)):
        raise GridError("samples live on different grids")
    u, N = (np.column_stack([to_physical(f).values for f in fields])
            for fields in (us, Ns))
    return energy_report(grid, grid.to_spectral_values(u), u, N)


# -- equivalence and monotonicity check harnesses -----------------------------


@dataclass
class EquivalenceReport:
    checked: int
    skipped: int
    agreements: int
    indeterminate: int
    counterexamples: list

    @property
    def all_agree(self) -> bool:
        return self.agreements == self.checked - self.indeterminate


def check_dichotomy_equivalence(samples) -> EquivalenceReport:
    """Verify the three-way sign agreement on every below-threshold pair:

        K(u) >= 0  <=>  |N|_2 < |W|_4^2  <=>  |N|_2^2 <= 4 E_Z(u, N)

    and the mirrored equivalence on the complement.  Pairs with
    E_Z >= E_S(W) are skipped and counted; mass within the relative
    tolerance band of the threshold is reported indeterminate.  The pairs
    share a grid and one `energy_report`; a counterexample is
    (sample index, (c1, c2, c3)).
    """
    samples = list(samples)
    if not samples:
        return EquivalenceReport(0, 0, 0, 0, [])
    us, Ns = zip(*samples)
    rep = _stacked_report(us, Ns)
    skipped = rep.classification == ABOVE_THRESHOLD
    indet = rep.classification == INDETERMINATE
    c1 = rep.K >= 0
    c2 = rep.N_L2 < MASS_THRESHOLD_EXACT
    c3 = rep.N_L2**2 <= 4.0 * rep.energy_Z
    decided = ~skipped & ~indet
    agree = decided & (c1 == c2) & (c2 == c3)
    bad = [(int(j), (bool(c1[j]), bool(c2[j]), bool(c3[j])))
           for j in np.flatnonzero(decided & ~agree)]
    return EquivalenceReport(int((~skipped).sum()), int(skipped.sum()),
                             int(agree.sum()), int(indet.sum()), bad)


@dataclass
class MonotonicityReport:
    checked: int
    skipped: int
    violations: list
    worst_margin: float

    @property
    def clean(self) -> bool:
        return not self.violations


def check_estK(samples, slack: float = 1e-8) -> MonotonicityReport:
    """Check the K-monotonicity bounds on admissible pairs (phi, a):

        K >= 0  =>  K >= a |phi|_4^2  and  |W|_4^2 > |phi|_4^2 + a,
        K <= 0  =>  4K + a^2 <= -3 a |phi|_4^2,

    requiring E_S(phi) + a^2/4 <= E_S(W) and a >= 0 (violators skipped).
    The phi share a grid and one `energy_report`.
    """
    samples = list(samples)
    if not samples:
        return MonotonicityReport(0, 0, [], np.inf)
    phis, a = zip(*samples)
    a = np.asarray(a, dtype=float)
    rep = _stacked_report(phis, [zero_field(phis[0].grid)] * len(a))
    skipped = (a < 0) | (rep.energy_S + a * a / 4.0 > ES_W_EXACT * (1 + 1e-12))
    k, phi4_sq = rep.K, np.sqrt(rep.u4_4)
    margin = np.minimum(
        np.where(k >= 0, np.minimum(k - a * phi4_sq,
                                    MASS_THRESHOLD_EXACT - phi4_sq - a), np.inf),
        np.where(k <= 0, -(4.0 * k + a * a) - 3.0 * a * phi4_sq, np.inf))
    margin[skipped] = np.inf
    violations = [(float(a[j]), float(k[j]), float(phi4_sq[j]),
                   float(margin[j])) for j in np.flatnonzero(margin < -slack)]
    return MonotonicityReport(int((~skipped).sum()), int(skipped.sum()),
                              violations, float(margin.min()))


# -- sample generators ---------------------------------------------------------


def gaussian_field(grid: RadialGrid, amplitude=1.0, width=1.0,
                   chirp=0.0) -> RadialField:
    r = grid.r_nodes
    vals = amplitude * np.exp(-(r**2) / (2.0 * width**2))
    if chirp:
        vals = vals * np.exp(1j * chirp * r**2)
    return field(grid, vals)


def gaussian_mass(amplitude: float, width: float) -> float:
    """Closed form M(a e^{-r^2/(2 s^2)}) = pi^2 a^2 s^4 on R^4."""
    return np.pi**2 * abs(amplitude) ** 2 * width**4


def dilated_w(grid: RadialGrid, scale: float = 1.0,
              mu: float = 1.0) -> RadialField:
    """Truncated scale*W under the L^2 dilation u_mu = mu^2 u(mu x)."""
    r = grid.r_nodes
    vals = scale * mu**2 * w_profile(mu * r) * truncation_profile(grid)
    return field(grid, vals)


def deformation_curve_scaling(u: RadialField, N: RadialField, lam: float):
    """(u, N) -> (lam u, lam^2 N), the first Lemma-6.1 proof curve."""
    return lam * u, lam**2 * N


def deformation_curve_nu(u: RadialField, N: RadialField, lam: float):
    """(u, N) -> (lam u, N - |u|^2 + |lam u|^2): nu is invariant in lam."""
    uu = to_physical(u)
    NN = to_physical(N)
    new_N = NN.values - np.abs(uu.values) ** 2 + np.abs(lam * uu.values) ** 2
    return lam * u, RadialField(uu.grid, new_N)


def sample_generator(kind: str, grid: RadialGrid, rng: np.random.Generator,
                     **params):
    """Produce (u, N) pairs of the named family.

    Kinds: "scaled_w" (lam W_t, lam^2 W_t^2), "gaussian", "mixture",
    "curve_scaling", "curve_nu".
    """
    if kind == "scaled_w":
        lam = params.get("lam", rng.uniform(0.3, 1.3))
        w = w_field(grid, truncated=True)
        wsq = RadialField(grid, w.values**2)
        return deformation_curve_scaling(w, wsq, lam)
    if kind == "gaussian":
        a = params.get("amplitude", rng.uniform(0.05, 0.8))
        s = params.get("width", rng.uniform(0.8, 3.0))
        chirp = params.get("chirp", rng.uniform(-0.2, 0.2))
        aN = params.get("amplitude_N", rng.uniform(-0.8, 0.8))
        sN = params.get("width_N", rng.uniform(0.8, 3.0))
        u = gaussian_field(grid, a, s, chirp)
        N = gaussian_field(grid, aN, sN)
        return u, N
    if kind == "mixture":
        u = sum((gaussian_field(grid, rng.uniform(0.05, 0.4),
                                rng.uniform(0.8, 3.0), rng.uniform(-0.2, 0.2))
                 for _ in range(3)), start=field(grid, np.zeros(grid.n)))
        N = sum((gaussian_field(grid, rng.uniform(-0.4, 0.4),
                                rng.uniform(0.8, 3.0))
                 for _ in range(2)), start=field(grid, np.zeros(grid.n)))
        return u, N
    if kind in ("curve_scaling", "curve_nu"):
        lam = params.get("lam", rng.uniform(0.2, 2.0))
        base_u, base_N = sample_generator(params.get("base", "gaussian"),
                                          grid, rng)
        curve = (deformation_curve_scaling if kind == "curve_scaling"
                 else deformation_curve_nu)
        return curve(base_u, base_N, lam)
    raise ValueError(f"unknown sample kind {kind!r}")
