"""Bilinear frequency splittings and the normal-form kernel operators.

The high-low region HL_iota = {(j,k) dyadic : iota*j >= max(k, 2)} keeps the
resonant denominators

    omega_pm:    |xi|^2 -+ |xi - eta| - |eta|^2   ~  j^2,
    omega_tilde: |xi| - |xi - eta|^2 + |eta|^2    ~  1 + j^2 + k^2,

bounded away from zero, which is what buys the two-derivative gain.  `_hl`
is the one test of HL membership.  The blocks k paired with a block j, in HL
and in the high-high rest HH alike, form one contiguous run lo <= k <= hi;
`_block_ranges` lists these (j, lo, hi), and the products and the kernels
cut the k side with the telescoped `dyadic.block_sum(rho, lo, hi)`.

Kernels are evaluated by direct quadrature (grid nodes in |eta| times a
Chebyshev rule in the angle), preserving radial exactness at O(n^2 n_theta)
cost; only the angles where the cutoff on |xi - eta| can be nonzero are
evaluated.  Each chunk of output rows is one (angle, row, sigma) box with
sigma innermost: np.interp walks its points in memory order and tries the
last point's bracket first, and tau moves by about one node between
neighbouring sigma nodes but by many between neighbouring angles.  The
resonance check sets each denominator to 1 off the cutoff's support and
takes one minimum of |den| over the box, with no gather.  One evaluator,
`_sweep`, takes a list of kernel terms and groups them by HL range
(j, lo, hi): each group is one pass that builds tau = |xi - eta| with the
cutoff on block j, the angle runs and one interpolation per distinct
high-block spectrum, and each term adds only its denominator and weights.  Omega_tilde also pairs f's low blocks with g's
high block j; these mirrored pairs are read after eta -> xi - eta, so g is
the factor interpolated at tau and f's lows sit on the sigma grid, and
they join the direct group of the same range as one more term, with the
denominator's tau and sigma swapped.  `apply_bilinear` is one kernel;
`omega` is the Omega^+ / Omega^- pair, where Omega^-(conj f, g) reuses f's
interpolation and takes the conjugate angular sum; the normal-form
corrections pass all three kernels, so at iota1 == iota2 each HL range is
swept once for all of them, and the mirrored Omega_tilde(u, conj u) term
reads conj u off u's interpolation the same way.

The convolution carries the (2 pi)^{-4} normalization of this package's
Fourier convention so the operators compose consistently with pointwise
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import (
    FOURIER_NORM,
    PHYSICAL,
    RadialField,
    RadialGrid,
    SPECTRAL,
    _same_grid,
    lp_norm,
    op_D,
    to_physical,
    to_spectral,
    transform,
    zero_field,
)
from .dyadic import block_sum, chi0, dyadic_blocks

OMEGA_PLUS = "omega_plus"
OMEGA_MINUS = "omega_minus"
OMEGA_TILDE = "omega_tilde"

DENOMINATOR_FLOOR = 1e-12
INVERSE_TOL = 1e-10   # normal_inverse stops at this relative increment

# blocks carrying less than this share of a factor's peak are transform
# round-trip noise (~1e-13) and are skipped by the kernel loops
LIVE_BLOCK_RTOL = 1e-12


class KernelError(RuntimeError):
    """Resonant denominator inside a restricted support: restriction bug."""


def _check_iota(iota: float):
    if not 0.0 < iota < 1.0:
        raise ValueError(f"iota must lie in (0, 1), got {iota}")


@dataclass(frozen=True)
class AngularQuadrature:
    """Gauss-Chebyshev (second kind) rule for the S^3 angular reduction.

    integral_{S^3} F(cos theta) dOmega = 4 pi * integral_{-1}^{1} F(c)
    sqrt(1 - c^2) dc; the rule is exact for polynomials in c up to degree
    2 n_theta - 1.
    """

    n_theta: int = 64

    def __post_init__(self):
        # a count that is not an int (16.5, True, NaN) builds another
        # number of nodes or fails only at first use; no nodes would make
        # every kernel exactly zero
        if (isinstance(self.n_theta, bool)
                or not isinstance(self.n_theta, (int, np.integer))):
            raise ValueError(
                f"n_theta must be an integer, got {self.n_theta!r}")
        if self.n_theta < 1:
            raise ValueError(f"n_theta {self.n_theta} < 1")

    @property
    def nodes(self) -> np.ndarray:
        i = np.arange(1, self.n_theta + 1)
        return np.cos(i * np.pi / (self.n_theta + 1))

    @property
    def weights(self) -> np.ndarray:
        i = np.arange(1, self.n_theta + 1)
        return (np.pi / (self.n_theta + 1)) * np.sin(i * np.pi / (self.n_theta + 1)) ** 2


# -- dyadic pair restrictions -------------------------------------------------


def _hl(j: float, k: float, iota: float) -> bool:
    """(j, k) lies in HL_iota."""
    return iota * j >= max(k, 2.0)


def _block_ranges(grid: RadialGrid, keep) -> list:
    """(j, lo, hi) for each grid block j with a partner block k, keep(j, k);
    the partners are the contiguous run of blocks lo <= k <= hi."""
    blocks = dyadic_blocks(grid)
    out = []
    for j in blocks:
        ks = [k for k in blocks if keep(j, k)]
        if ks:
            out.append((float(j), float(ks[0]), float(ks[-1])))
    return out


def _block_product(f: RadialField, g: RadialField, ranges) -> RadialField:
    """sum over (j, lo, hi) in ranges of P_j f * P_[lo,hi] g (pointwise).

    Pieces carrying at most LIVE_BLOCK_RTOL of their factor's peak are
    skipped; the live ones go to physical space in one kernel pass.
    """
    grid = f.grid
    fs = to_spectral(f).values
    gs = to_spectral(g).values
    rho = grid.rho_nodes
    f_scale = np.abs(fs).max() or 1.0
    g_scale = np.abs(gs).max() or 1.0
    pieces = []
    for j, lo, hi in ranges:
        fj = fs * chi0(rho / j)
        gk = gs * block_sum(rho, lo, hi)
        if (np.abs(fj).max() > LIVE_BLOCK_RTOL * f_scale
                and np.abs(gk).max() > LIVE_BLOCK_RTOL * g_scale):
            pieces += [fj, gk]
    if not pieces:
        return zero_field(grid)
    phys = grid.to_physical_values(np.column_stack(pieces))
    return RadialField(grid, np.sum(phys[:, 0::2] * phys[:, 1::2], axis=1),
                       PHYSICAL)


def hl_product(f: RadialField, g: RadialField, iota: float) -> RadialField:
    """(f, g)_{HL_iota} = sum over HL pairs of P_j f * P_k g (pointwise)."""
    _check_iota(iota)
    return _block_product(f, g, _block_ranges(
        f.grid, lambda j, k: _hl(j, k, iota)))


def lh_product(f: RadialField, g: RadialField, iota: float) -> RadialField:
    """(f, g)_{LH_iota} = f g - (f, g)_{HL_iota}."""
    prod = to_physical(f).values * to_physical(g).values
    hl = hl_product(f, g, iota)
    return RadialField(f.grid, prod - hl.values, PHYSICAL)


def hh_product(f: RadialField, g: RadialField, iota: float) -> RadialField:
    """Pairs with neither (j,k) nor (k,j) in HL_iota."""
    _check_iota(iota)
    return _block_product(f, g, _block_ranges(
        f.grid, lambda j, k: not (_hl(j, k, iota) or _hl(k, j, iota))))


# -- kernel specifications ----------------------------------------------------


@dataclass(frozen=True)
class BilinearKernelSpec:
    """One of the three resonant-denominator kernels at separation iota."""

    kind: str
    iota: float

    def __post_init__(self):
        if self.kind not in (OMEGA_PLUS, OMEGA_MINUS, OMEGA_TILDE):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        _check_iota(self.iota)

    def denominator(self, rho, tau, sigma):
        """rho = |xi|, tau = |xi - eta|, sigma = |eta|."""
        if self.kind == OMEGA_PLUS:
            return rho**2 - tau - sigma**2
        if self.kind == OMEGA_MINUS:
            return rho**2 + tau - sigma**2
        return rho - tau**2 + sigma**2


# rows of xi evaluated per dense (rows, sigma, angle) block
_ROW_CHUNK = 32


class _Term(NamedTuple):
    """One kernel term for _sweep: spec applied to the spectra fs (read as
    conj(fs) when conj_f) and gs, added into the spectral accumulator out.
    fs is interpolated at tau = |xi - eta| on the high block, gs weights
    the lows on the sigma = |eta| grid.  A mirrored term is an Omega_tilde
    pair read after eta -> xi - eta: fs then carries the kernel's second
    factor, gs its first, and the denominator takes tau and sigma
    swapped."""

    spec: BilinearKernelSpec
    fs: np.ndarray
    gs: np.ndarray
    out: np.ndarray
    conj_f: bool = False
    mirrored: bool = False


def _tilde_terms(fs, gs, iota, out):
    """Omega_tilde(f, g) on spectra fs, gs into out: the direct pairs (f on
    the high block) and the mirrored ones (g on the high block)."""
    spec = BilinearKernelSpec(OMEGA_TILDE, iota)
    return [_Term(spec, fs, gs, out), _Term(spec, gs, fs, out, mirrored=True)]


def _tilde_self_terms(us, iota, out):
    """Omega_tilde(u, conj u) on u's spectrum us into out; the mirrored
    term interpolates conj u as the conjugate of u's interpolation."""
    spec = BilinearKernelSpec(OMEGA_TILDE, iota)
    return [_Term(spec, us, us.conj(), out),
            _Term(spec, us, us, out, conj_f=True, mirrored=True)]


def apply_bilinear(spec: BilinearKernelSpec, f: RadialField, g: RadialField,
                   quad: AngularQuadrature | None = None) -> RadialField:
    """Evaluate the bilinear kernel operator, returning a physical field.

    Output spectrum at rho_m:
        (2 pi)^{-4} sum_{(k,l)} int f_k(|xi-eta|) g_l(|eta|) / den  d eta
    with the eta integral reduced to grid quadrature in sigma = |eta| and a
    Chebyshev rule in cos(theta).  The denominator is pair-independent, so
    the low-frequency side is telescoped into one block_sum cutoff per high
    block instead of looping over individual (k, l) pairs.  Omega_tilde
    also sums the mirrored pairs (f low, g high), substituted
    eta -> xi - eta so that g is the factor read at |xi - eta|.  This is
    _sweep on the kernel's terms; omega and the normal-form corrections
    hand _sweep several kernels at once so they share its geometry.
    f and g must live on one grid (GridError otherwise).
    """
    _same_grid(f, g)
    grid = f.grid
    fs, gs = to_spectral(f).values, to_spectral(g).values
    out_spec = np.zeros(grid.n, dtype=np.complex128)
    if spec.kind == OMEGA_TILDE:
        terms = _tilde_terms(fs, gs, spec.iota, out_spec)
    else:
        terms = [_Term(spec, fs, gs, out_spec)]
    _sweep(grid, quad or AngularQuadrature(), terms)
    return _to_field(grid, out_spec)


def _to_field(grid: RadialGrid, out_spec: np.ndarray) -> RadialField:
    """Physical field of an accumulated kernel spectrum, (2 pi)^{-4} applied."""
    return transform(RadialField(grid, out_spec * FOURIER_NORM**-2, SPECTRAL))


def _angle_runs(rho, sigma, nodes, t_lo, t_hi):
    """For each pair (rho_m, sigma_s), the index run [k0, k1) of the
    decreasing angle nodes whose tau = |xi - eta| lies in (t_lo, t_hi),
    widened by one node on each side against rounding; k0 and k1 are
    (n_rho, n_sigma) arrays, and k0 >= k1 marks an empty run."""
    rr, ss = rho[:, None], sigma[None, :]
    cos_bound = lambda t: (rr**2 + ss**2 - t**2) / (2.0 * rr * ss)
    # tau > t_lo <=> c < cos_bound(t_lo); tau < t_hi <=> c > cos_bound(t_hi)
    k0 = np.searchsorted(-nodes, -cos_bound(t_lo), side="right") - 1
    k1 = np.searchsorted(-nodes, -cos_bound(t_hi), side="left") + 1
    return np.maximum(k0, 0), np.minimum(k1, nodes.size)


def _sweep(grid, quad, terms):
    """Add every term's kernel sums to its accumulator.

    A term has one side per HL range (j, lo, hi) of its iota, mirrored
    Omega_tilde terms included; the terms are grouped by HL range, and each
    group is one geometry pass (_sweep_side), whatever its kernel kinds.
    """
    groups = {}
    for term in terms:
        iota = term.spec.iota
        for hl_range in _block_ranges(grid, lambda j, k: _hl(j, k, iota)):
            groups.setdefault(hl_range, []).append(term)
    for hl_range, group in groups.items():
        _sweep_side(grid, quad, hl_range, group)


def _sweep_side(grid, quad, hl_range, terms):
    """Add the pairs of the interpolated factor's block j with the sigma
    factor's blocks lo..hi, hl_range = (j, lo, hi), for every term,
    skipping a term whose side is below LIVE_BLOCK_RTOL.

    The sigma columns are the union of the terms' live columns; a term's g
    weights are zero on the columns dead for it.  The cutoff chi0(tau / j)
    vanishes off tau in (j/2, 2 j), so each chunk of output rows is
    evaluated only over the bounding box of its angle runs (see
    _angle_runs); every element left out has cut == 0.
    The box is laid out (angle, row, sigma), sigma innermost, so that
    np.interp, which tries the previous point's bracket first, finds it at
    once: neighbouring sigma nodes move tau by about one node, while
    neighbouring angles move it by many, which in a (row, sigma, angle)
    layout sends nearly every point to a binary search.  The angular sum
    contracts the leading axis.
    tau, the cutoff, the runs and one interpolation per distinct f
    spectrum are built once per chunk, and the terms on one spectrum run
    right after its interpolation, so one interpolated box is held at a
    time.  The real weights cut w_c / den depend on the term through its
    (spec, mirrored) key alone (tau and sigma swapped in the denominator
    for a mirrored term), so each key is divided once per chunk and the
    terms that share it, as the columns of omega_tilde_self_spectra do,
    reuse its weights.  The off-support mask (cut == 0) is formed once per
    chunk; each key's den is set to 1 there in place, so the KernelError
    test is one minimum of |den| over the whole box, with no gather: off
    the support |den| = 1 is above DENOMINATOR_FLOOR, which leaves exactly
    the support's elements to decide it.
    A term with conj_f takes the conjugate angular sum, as
    interp(conj fs) = conj(interp fs).
    """
    j, lo, hi = hl_range
    rho = grid.rho_nodes
    f_cut = chi0(rho / j)
    g_cut = block_sum(rho, lo, hi)
    # live terms with their g weights, keyed by their f spectrum
    by_f, live = {}, np.zeros(grid.n, dtype=bool)
    for term in terms:
        if (np.abs(term.fs * f_cut).max()
                <= LIVE_BLOCK_RTOL * np.abs(term.fs).max()):
            continue
        g_vals = term.gs * g_cut
        term_live = np.abs(g_vals) > LIVE_BLOCK_RTOL * np.abs(term.gs).max()
        if term_live.any():
            g_w = np.where(term_live, g_vals * grid.quad_weights_rho, 0.0)
            by_f.setdefault(id(term.fs), (term.fs, []))[1].append((term, g_w))
            live |= term_live
    if not by_f:
        return
    cols_live = np.nonzero(live)[0]
    sigma = rho[cols_live]
    c = quad.nodes
    wc = quad.weights
    k0, k1 = _angle_runs(rho, sigma, c, j / 2.0, 2.0 * j)
    runs = k1 > k0
    rows = np.nonzero(runs.any(axis=1))[0]
    for start in range(0, rows.size, _ROW_CHUNK):
        idx = rows[start:start + _ROW_CHUNK]
        chunk_runs = runs[idx]
        cols = np.nonzero(chunk_runs.any(axis=0))[0]
        ka = np.where(chunk_runs, k0[idx], c.size).min()
        kb = np.where(chunk_runs, k1[idx], 0).max()
        rr = rho[idx][None, :, None]
        ss = sigma[cols][None, None, :]
        tau = np.sqrt(np.maximum(
            rr**2 + ss**2 - 2.0 * rr * ss * c[ka:kb, None, None], 0.0))
        cut = chi0(tau / j)
        off = cut == 0.0
        cut *= wc[ka:kb, None, None]
        # weights per key, divided in place into the fresh den; off the
        # support cut is 0 (chi0 >= 0) and den is set to 1, so weights are 0
        weights = {}
        for fs, f_terms in by_f.values():
            f_tau = np.interp(tau, rho, fs, left=0.0, right=0.0)
            for term, g_w in f_terms:
                key = (term.spec, term.mirrored)
                weight = weights.get(key)
                if weight is None:
                    den = (term.spec.denominator(rr, ss, tau) if term.mirrored
                           else term.spec.denominator(rr, tau, ss))
                    np.copyto(den, 1.0, where=off)
                    if np.abs(den).min() < DENOMINATOR_FLOOR:
                        raise KernelError(
                            f"{term.spec.kind} denominator vanished on "
                            f"restricted support (f block {j:g}, g blocks "
                            f"{lo:g}..{hi:g})")
                    weight = weights[key] = np.divide(cut, den, out=den)
                angular = np.einsum("krc,krc->rc", weight, f_tau)
                if term.conj_f:
                    angular = angular.conj()
                term.out[idx] += 4.0 * np.pi * (angular
                                                @ g_w[cols_live[cols]])


def _omega_terms(fs, gs, iota, out):
    """The Omega_iota(f, g) pair on spectra fs, gs, both into out (unhalved):
    Omega^+(f, g) and Omega^-(conj f, g), the latter reusing fs."""
    return [_Term(BilinearKernelSpec(OMEGA_PLUS, iota), fs, gs, out),
            _Term(BilinearKernelSpec(OMEGA_MINUS, iota), fs, gs, out, True)]


def omega(f: RadialField, g: RadialField, iota: float,
          quad: AngularQuadrature | None = None) -> RadialField:
    """Omega_iota(f, g) = (1/2) Omega^+(f, g) + (1/2) Omega^-(conj f, g).

    Both kernels run in one _sweep over f's spectrum: they share every
    side's geometry and f's interpolation, Omega^- taking the conjugate of
    its angular sums instead of a second transform of conj f.
    """
    _same_grid(f, g)
    grid = f.grid
    out_spec = np.zeros(grid.n, dtype=np.complex128)
    _sweep(grid, quad or AngularQuadrature(), _omega_terms(
        to_spectral(f).values, to_spectral(g).values, iota, out_spec))
    return _to_field(grid, 0.5 * out_spec)


def omega_tilde(f: RadialField, g: RadialField, iota: float,
                quad: AngularQuadrature | None = None) -> RadialField:
    return apply_bilinear(BilinearKernelSpec(OMEGA_TILDE, iota), f, g, quad)


def omega_tilde_self_spectra(grid: RadialGrid, us: np.ndarray, iota: float,
                             quad: AngularQuadrature | None = None
                             ) -> np.ndarray:
    """Spectra of Omega_tilde_iota(u, conj u), (2 pi)^{-4} applied, for
    every column u of the (n, S) spectral block us.  All columns' terms go
    to one _sweep, so each HL range's geometry is built once for all."""
    if np.ndim(us) != 2 or np.shape(us)[0] != grid.n:
        raise ValueError(f"us must be an (n, S) = ({grid.n}, S) block of "
                         f"spectral columns, got shape {np.shape(us)}")
    rows = np.ascontiguousarray(us.T, dtype=np.complex128)
    out = np.zeros(rows.shape, dtype=np.complex128)
    terms = [term for u_s, out_s in zip(rows, out)
             for term in _tilde_self_terms(u_s, iota, out_s)]
    _sweep(grid, quad or AngularQuadrature(), terms)
    return out.T * FOURIER_NORM**-2


def _corrections(u, N, iota1, iota2, quad):
    """(Omega_{iota1}(N, u), D Omega_tilde_{iota2}(u, conj u)), all three
    kernels in one _sweep: with iota1 == iota2 the three share one geometry
    pass per HL range, mirrored Omega_tilde pairs included.  u and N
    must live on one grid (GridError otherwise)."""
    _same_grid(u, N)
    grid = u.grid
    us = to_spectral(u).values
    omega_spec = np.zeros(grid.n, dtype=np.complex128)
    tilde_spec = np.zeros(grid.n, dtype=np.complex128)
    terms = (_omega_terms(to_spectral(N).values, us, iota1, omega_spec)
             + _tilde_self_terms(us, iota2, tilde_spec))
    _sweep(grid, quad or AngularQuadrature(), terms)
    return (_to_field(grid, 0.5 * omega_spec),
            op_D(_to_field(grid, tilde_spec)))


def normal_transform(u: RadialField, N: RadialField, iota1: float,
                     iota2: float, quad: AngularQuadrature | None = None):
    """Psi_{iota1,iota2}(u, N) = (u - Omega_{iota1}(N, u),
                                  N - D Omega_tilde_{iota2}(u, conj u))."""
    u_p, N_p = to_physical(u), to_physical(N)
    corr_u, corr_N = _corrections(u_p, N_p, iota1, iota2, quad)
    return (RadialField(u.grid, u_p.values - corr_u.values, PHYSICAL),
            RadialField(u.grid, N_p.values - corr_N.values, PHYSICAL))


class NonContractionError(RuntimeError):
    """normal_inverse gave up: the contraction factor stayed >= 1, or, when
    budget is given, max_iter = budget iterations ran out first; factor is
    the last one measured (inf if none was)."""

    def __init__(self, factor, budget=None):
        if budget is None:
            msg = ("normal-form inversion is not contracting "
                   f"(factor {factor:.3g})")
        else:
            msg = (f"normal-form inversion exhausted its budget of {budget} "
                   f"iterations (last contraction factor {factor:.3g})")
        super().__init__(msg)
        self.factor = factor


def normal_inverse(u_t: RadialField, N_t: RadialField, iota1: float,
                   iota2: float, max_iter: int = 30,
                   quad: AngularQuadrature | None = None):
    """Invert Psi by fixed point (phi, psi) <- (u', N') + OmegaVec(phi, psi).

    Raises NonContractionError once the measured per-iteration contraction
    factor stays >= 1 for three consecutive iterations, and with the last
    measured factor once max_iter iterations pass without convergence.
    """
    u_t, N_t = to_physical(u_t), to_physical(N_t)
    phi, psi = u_t.copy(), N_t.copy()
    scale = max(lp_norm(u_t, 2) + lp_norm(N_t, 2), 1e-300)
    prev_inc = None
    factor = np.inf
    bad_streak = 0
    for iteration in range(max_iter):
        corr_u, corr_N = _corrections(phi, psi, iota1, iota2, quad)
        new_phi = RadialField(u_t.grid, u_t.values + corr_u.values)
        new_psi = RadialField(u_t.grid, N_t.values + corr_N.values)
        inc = (lp_norm(new_phi - phi, 2) + lp_norm(new_psi - psi, 2))
        phi, psi = new_phi, new_psi
        if inc / scale < INVERSE_TOL:
            return phi, psi
        if prev_inc is not None and prev_inc > 0:
            factor = inc / prev_inc
            bad_streak = bad_streak + 1 if factor >= 1.0 else 0
            if bad_streak >= 3:
                raise NonContractionError(factor)
        prev_inc = inc
    raise NonContractionError(factor, budget=max_iter)


def angular_convergence_defect(spec: BilinearKernelSpec, f: RadialField,
                               g: RadialField, n_theta: int = 64) -> float:
    """Relative change of the kernel output when the angle count doubles."""
    coarse = apply_bilinear(spec, f, g, AngularQuadrature(n_theta))
    fine = apply_bilinear(spec, f, g, AngularQuadrature(2 * n_theta))
    ref = lp_norm(fine, 2)
    if ref == 0:
        return 0.0
    return lp_norm(coarse - fine, 2) / ref
