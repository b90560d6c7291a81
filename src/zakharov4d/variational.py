"""Ground state, sharp constants, energy functionals, and the sign
classifiers that separate the scattering side from the blow-up side.

Closed forms used throughout (forced by -Lap W = W^3 and the sharp Sobolev
constant): |grad W|_2^2 = |W|_4^4 = 32 pi^2/3, E_S(W) = 8 pi^2/3, and the
wave-mass threshold |W^2|_2 = sqrt(32 pi^2/3).

The Zakharov energy is normalized so that E_Z = E_S + |N - |u|^2|_2^2/4,
making E_Z(W, W^2) = E_S(W); conserved quantities scale accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .grid import (
    RadialField,
    RadialGrid,
    SPHERE_S3,
    field,
    gradient_norm_sq,
    lp_norm,
    to_physical,
    truncation_profile,
)

W4_4_EXACT = 32.0 * np.pi**2 / 3.0
ES_W_EXACT = W4_4_EXACT / 4.0
MASS_THRESHOLD_EXACT = np.sqrt(W4_4_EXACT)

SCATTERING_SIDE = "scattering_side"
BLOWUP_SIDE = "blowup_side"
ABOVE_THRESHOLD = "above_threshold_energy"
INDETERMINATE = "indeterminate"

THRESHOLD_BAND = 1e-9  # relative band where the mass comparison is a toss-up


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
    mass: float
    energy_S: float
    energy_Z: float
    K: float
    N_L2: float
    nu_L2: float
    classification: str


def nls_energy(u: RadialField) -> float:
    return 0.5 * gradient_norm_sq(u) - 0.25 * lp_norm(u, 4) ** 4


def nehari_K(u: RadialField, grad_sq: float | None = None) -> float:
    """K(u) = |grad u|_2^2 - |u|_4^4; `grad_sq` is |grad u|_2^2 if known."""
    if grad_sq is None:
        grad_sq = gradient_norm_sq(u)
    return grad_sq - lp_norm(u, 4) ** 4


def zakharov_energy(u: RadialField, N: RadialField,
                    grad_sq: float | None = None) -> float:
    """E_Z = (|grad u|^2 + |N|^2/2 - Re N |u|^2) dx, halved so that
    E_Z = E_S + |N - |u|^2|_2^2 / 4 holds identically.  `grad_sq` is
    |grad u|_2^2 if known (it saves the transform of u)."""
    if grad_sq is None:
        grad_sq = gradient_norm_sq(u)
    uu = to_physical(u)
    return zakharov_energy_values(uu.grid, grad_sq, np.abs(uu.values) ** 2,
                                  to_physical(N).values)


def zakharov_energy_values(grid: RadialGrid, grad_sq: float, u_sq: np.ndarray,
                           N: np.ndarray) -> float:
    """E_Z from arrays: |grad u|_2^2, and |u|^2 and N at the r nodes."""
    N_sq = grid.integral(np.abs(N) ** 2)
    cross = grid.integral(np.real(N) * u_sq)
    return float(0.5 * (grad_sq + 0.5 * N_sq - cross))


def functionals(u: RadialField, N: RadialField) -> EnergyReport:
    """Evaluate M, E_S, E_Z, K, and classify per the below-threshold
    trichotomy; above the ground-state energy no side is guessed."""
    uu = to_physical(u)
    NN = to_physical(N)
    mass = lp_norm(uu, 2) ** 2
    e_s = nls_energy(uu)
    k = nehari_K(uu)
    n_l2 = lp_norm(NN, 2)
    nu_vals = NN.values - np.abs(uu.values) ** 2
    nu_l2 = lp_norm(RadialField(uu.grid, nu_vals), 2)
    e_z = e_s + 0.25 * nu_l2**2

    if e_z >= ES_W_EXACT:
        side = ABOVE_THRESHOLD
    elif abs(n_l2 - MASS_THRESHOLD_EXACT) <= THRESHOLD_BAND * MASS_THRESHOLD_EXACT:
        side = INDETERMINATE
    elif n_l2 < MASS_THRESHOLD_EXACT:
        side = SCATTERING_SIDE
    else:
        side = BLOWUP_SIDE
    return EnergyReport(mass=mass, energy_S=e_s, energy_Z=e_z, K=k,
                        N_L2=n_l2, nu_L2=nu_l2, classification=side)


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
    tolerance band of the threshold is reported indeterminate.
    """
    checked = skipped = agree = indet = 0
    bad = []
    for u, N in samples:
        rep = functionals(u, N)
        if rep.classification == ABOVE_THRESHOLD:
            skipped += 1
            continue
        checked += 1
        if rep.classification == INDETERMINATE:
            indet += 1
            continue
        c1 = rep.K >= 0
        c2 = rep.N_L2 < MASS_THRESHOLD_EXACT
        c3 = rep.N_L2**2 <= 4.0 * rep.energy_Z
        if c1 == c2 == c3:
            agree += 1
        else:
            bad.append((rep, (c1, c2, c3)))
    return EquivalenceReport(checked=checked, skipped=skipped,
                             agreements=agree, indeterminate=indet,
                             counterexamples=bad)


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
    """
    checked = skipped = 0
    violations = []
    worst = np.inf
    for phi, a in samples:
        e_s = nls_energy(phi)
        if a < 0 or e_s + a * a / 4.0 > ES_W_EXACT * (1 + 1e-12):
            skipped += 1
            continue
        checked += 1
        k = nehari_K(phi)
        phi4_sq = lp_norm(phi, 4) ** 2
        margins = []
        if k >= 0:
            margins.append(k - a * phi4_sq)
            margins.append(MASS_THRESHOLD_EXACT - phi4_sq - a)
        if k <= 0:
            margins.append(-(4.0 * k + a * a) - 3.0 * a * phi4_sq)
        m = min(margins)
        worst = min(worst, m)
        if m < -slack:
            violations.append((a, k, phi4_sq, m))
    return MonotonicityReport(checked=checked, skipped=skipped,
                              violations=violations, worst_margin=worst)


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
