"""Discrete radial Fourier calculus on a Fourier-Bessel (order-1 Hankel) grid.

The Fourier transform of a radial function on R^4 reduces to a Hankel
transform of order d/2 - 1 = 1,

    F phi(rho) = (2 pi)^2 rho^{-1} integral_0^inf phi(r) J_1(r rho) r^2 dr,

so a collocation grid on the scaled zeros of J_1 diagonalizes D = sqrt(-Lap),
its inverse, and the Laplacian exactly (no angular error).  The zeros
j_{1,k} come from McMahon's expansion (DLMF 10.21.19) and two vectorised
Newton steps on J_1 (`_j1_zeros`).  They sit within 1 ulp of
scipy.special.jn_zeros(1, .) and differ from it only on 35 zeros with
k <= 93, where scipy's Bessel recurrences and J_1 round differently.

The discrete pair follows the quasi-discrete Hankel transform normalization
(Guizar-Sicairos & Gutierrez-Vega, JOSA A 21, 2004) as one matrix M and one
scalar: physical -> spectral is c M and back is M / c, with
c = (2 pi)^2 r_max^4 / j_{1,n+1}^2.  M depends on n only (r_max enters
through c alone) and is nearly its own inverse: max|M^2 - I| is 5.6e-9 at
n = 64, 7.2e-10 at 128, 9.1e-11 at 256, 8.7e-11 at 512, 3.2e-10 at 1024,
9.4e-10 at 2048 and 5.3e-9 at 4096, a property of the quasi-discrete
kernel, not roundoff, and every round trip carries (M^2 - I) f.  M is built
from the symmetric J_1(j_i j_k / j_{1,n+1}): J_1 is evaluated on the upper
block triangle only, mirrored into the lower blocks, and scaled in place,
which gives the full-matrix formula bit for bit with no n x n temporary.

Every integral over R^4 of radial samples is one of two grid methods:
`integral` is SPHERE_S3 sum_k w_k values_k with the Dini weights
quad_weights_r, `spectral_integral` the same sum with quad_weights_rho
times the Plancherel factor (2 pi)^{-4}.  Both map (n,) to a float and
(n, S) to (S,), each column summed pairwise as np.sum sums it alone, so a
block equals its one-column calls bit for bit.

Fields carry a space tag ("physical" or "spectral"); all operations below are
pure and grids are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse, special

# Surface measure of the unit sphere S^3; integrals over R^4 of radial
# functions are 2 pi^2 * integral f(r) r^3 dr.
SPHERE_S3 = 2.0 * np.pi**2

# Normalization of the forward transform, (2 pi)^{d/2} for d = 4.
FOURIER_NORM = (2.0 * np.pi) ** 2

PHYSICAL = "physical"
SPECTRAL = "spectral"

INTERIOR_FRACTION = 0.5
LOW_MODES = 3
TRUNCATION_INNER, TRUNCATION_OUTER = 0.6, 0.9

# rows per block of the kernel's upper block triangle (J_1 evaluations)
_KERNEL_ROWS = 64
# the highest derivative order each finite-difference stencil width serves;
# one Fornberg recursion per width builds all of its orders
_FD_ORDERS = {5: 1, 9: 2}


class GridError(ValueError):
    """Invalid grid construction or mismatched grid usage."""


class RadialGrid:
    """Bessel-zero collocation grid on [0, r_max] with its transform kernel.

    Attributes
    ----------
    n : int
        Number of collocation nodes.
    r_max : float
        Truncation radius (Dirichlet wall of the Fourier-Bessel basis).
    r_nodes, rho_nodes : ndarray
        Radii r_k = j_{1,k} r_max / j_{1,n+1} and paired frequencies
        rho_k = j_{1,k} / r_max, both strictly increasing; the zeros are
        `_j1_zeros`'s, within 1 ulp of scipy's jn_zeros (equal for k > 93).
    quad_weights_r, quad_weights_rho : ndarray
        Positive weights realizing integral f r^3 dr on each side.
    rho_sq : ndarray
        rho_nodes**2, formed on first use (the spectral Laplacian symbol).
    transform_kernel : ndarray, shape (n, n)
        Order-1 Fourier-Bessel matrix M = S^{-1} K S, with K the symmetric
        quasi-discrete Hankel kernel and S = diag(j_{1,k} / |J_0(j_{1,k})|);
        it depends on n only, J_1 is evaluated on its upper block triangle,
        and M^2 = I only to 5.6e-9 (n = 64), 8.7e-11 (n = 512) and 5.3e-9
        (n = 4096), see above.
    """

    def __init__(self, n: int, r_max: float):
        if not isinstance(n, (int, np.integer)):
            raise GridError(f"node count must be an integer, got {n!r}")
        if n < 8:
            raise GridError(f"node count must be >= 8, got {n}")
        if not np.isfinite(r_max) or r_max <= 0:
            raise GridError(f"r_max must be positive and finite, got {r_max!r}")

        n = int(n)
        zeros = _j1_zeros(n + 1)
        j_edge = zeros[n]          # j_{1,n+1}, sets the band limit
        j = zeros[:n]

        self.n = n
        self.r_max = float(r_max)
        self.rho_max = j_edge / r_max
        self.r_nodes = j * r_max / j_edge
        self.rho_nodes = j / r_max

        # |J_2(j_{1,k})| = |J_0(j_{1,k})| at zeros of J_1; K_ik is
        # 2 J_1(j_i j_k / j_edge) / (j_edge |J_0(j_i)| |J_0(j_k)|).  j_i j_k
        # is exactly symmetric, so J_1 is evaluated on the row blocks of the
        # upper block triangle and mirrored into the strictly lower blocks;
        # the scalings then apply in place, column and row.
        absJ0 = np.abs(special.j0(j))
        kernel = np.empty((n, n))
        for i0 in range(0, n, _KERNEL_ROWS):
            i1 = min(i0 + _KERNEL_ROWS, n)
            kernel[i0:i1, i0:] = special.j1(np.outer(j[i0:i1], j[i0:]) / j_edge)
            kernel[i1:, i0:i1] = kernel[i0:i1, i1:].T
        kernel *= 2.0
        kernel *= j / absJ0**2
        kernel /= j_edge * j[:, None]
        self.transform_kernel = kernel
        self._spectral_scale = FOURIER_NORM * r_max**4 / j_edge**2

        # Dini-series quadrature for integral g(r) r dr, restated for the
        # R^4 radial measure r^3 dr via g = r^2 * f.
        self.quad_weights_r = 2.0 * r_max**2 * self.r_nodes**2 / (j_edge**2 * absJ0**2)
        self.quad_weights_rho = (
            2.0 * self.rho_max**2 * self.rho_nodes**2 / (j_edge**2 * absJ0**2)
        )

        self._fd_matrices = {}
        for arr in (self.r_nodes, self.rho_nodes, self.transform_kernel,
                    self.quad_weights_r, self.quad_weights_rho):
            arr.setflags(write=False)

    def __repr__(self):
        return f"RadialGrid(n={self.n}, r_max={self.r_max})"

    def __eq__(self, other):
        return (isinstance(other, RadialGrid)
                and self.n == other.n and self.r_max == other.r_max)

    def __hash__(self):
        return hash((self.n, self.r_max))

    def integral(self, values: np.ndarray):
        """integral over R^4 of samples at the r nodes, (n,) -> float or
        (n, S) -> (S,); a block equals its one-column calls bit for bit."""
        return SPHERE_S3 * _column_sums(self.quad_weights_r, values)

    def spectral_integral(self, values: np.ndarray, rows: slice = slice(None)):
        """`integral` of samples at the rho nodes times (2 pi)^{-4}, so that
        |F f|^2 gives |f|_2^2 (Plancherel).  Given a slice `rows`, values
        holds only those rows of samples that vanish off them."""
        return (SPHERE_S3 * FOURIER_NORM ** -2
                * _column_sums(self.quad_weights_rho[rows], values))

    def gradient_sq(self, spec: np.ndarray):
        """|grad f|_2^2 = spectral_integral(rho^2 |f_hat|^2) of spectral
        samples, (n,) -> float or (n, S) -> (S,) as the integrals map."""
        rho_sq = self.rho_sq if spec.ndim == 1 else self.rho_sq[:, None]
        return self.spectral_integral(rho_sq * np.abs(spec) ** 2)

    @cached_property
    def rho_sq(self) -> np.ndarray:
        """rho_nodes**2, formed on first use."""
        rho_sq = self.rho_nodes**2
        rho_sq.setflags(write=False)
        return rho_sq

    # -- transforms ---------------------------------------------------------

    def _kernel_apply(self, columns: np.ndarray) -> np.ndarray:
        """M times one or many columns (complex; real input is promoted),
        as interleaved real pairs so BLAS sees a single real GEMM."""
        cols = np.ascontiguousarray(columns, np.complex128)
        out = self.transform_kernel @ cols.reshape(self.n, -1).view(np.float64)
        return out.view(np.complex128).reshape(cols.shape)

    def to_spectral_values(self, values: np.ndarray) -> np.ndarray:
        return self._kernel_apply(values) * self._spectral_scale

    def to_physical_values(self, values: np.ndarray) -> np.ndarray:
        return self._kernel_apply(values) / self._spectral_scale

    def rows_to_physical(self, block: np.ndarray, rows: slice) -> np.ndarray:
        """to_physical_values of spectral columns that vanish off the slice
        rows, given as their (rows, m) block: only M's columns rows enter,
        and the real and imaginary parts of the product are divided by c."""
        cols = np.ascontiguousarray(block, np.complex128)
        out = self.transform_kernel[:, rows] @ cols.view(np.float64)
        out /= self._spectral_scale
        return out.view(np.complex128)

    # -- radial derivative --------------------------------------------------

    def derivative_matrix(self) -> sparse.csr_array:
        """4th-order finite-difference d/dr on the (nearly uniform) r nodes.

        Built lazily from 5-point Fornberg stencils; used by the virial
        machinery, where FD beats term-by-term J_1-series differentiation
        at the target accuracy.
        """
        return self._fd_matrix(order=1, width=5)

    def second_derivative_matrix(self) -> sparse.csr_array:
        """Finite-difference d^2/dr^2 from 9-point stencils (even-folded at
        the origin).  Local alternative to the spectral Laplacian for
        weights with slowly decaying tails."""
        return self._fd_matrix(order=2, width=9)

    def wide_derivative_matrix(self) -> sparse.csr_array:
        """9-point d/dr companion of second_derivative_matrix."""
        return self._fd_matrix(order=1, width=9)

    def _fd_matrix(self, order: int, width: int) -> sparse.csr_array:
        """Read-only banded Fornberg matrix, cached by (order, width); the
        first call for a width builds every order that width serves."""
        if (order, width) not in self._fd_matrices:
            built = _fornberg_matrix(self.r_nodes, _FD_ORDERS[width], width)
            for k, D in enumerate(built, start=1):
                for arr in (D.data, D.indices, D.indptr):
                    arr.setflags(write=False)
                self._fd_matrices[(k, width)] = D
        return self._fd_matrices[(order, width)]

    def interior_mask(self) -> np.ndarray:
        """Nodes with r < INTERIOR_FRACTION * r_max, clear of the wall."""
        return self.r_nodes < INTERIOR_FRACTION * self.r_max


def _j1_zeros(count: int) -> np.ndarray:
    """The first `count` positive zeros j_{1,1} < ... < j_{1,count} of J_1.

    McMahon's expansion in beta = (k + 1/4) pi to the beta^-5 term (DLMF
    10.21.19) starts every zero within 7e-5 (k = 1) and closer as k grows;
    Newton on J_1 with J_1' = J_0 - J_1 / x squares the error times
    1 / (2 j_{1,k}), so two steps reach roundoff.  The result is within
    1 ulp of scipy.special.jn_zeros(1, count), equal to it for k > 93.
    """
    beta = (np.arange(1, count + 1) + 0.25) * np.pi
    # beta - 3 / (8 beta) + 3 / (128 beta^3) - 1179 / (5120 beta^5)
    inv_sq = beta**-2
    x = beta - (0.375 + (1179.0 / 5120.0 * inv_sq - 3.0 / 128.0) * inv_sq) / beta
    for _ in range(2):
        j1 = special.j1(x)
        x -= j1 / (special.j0(x) - j1 / x)
    return x


def _column_sums(w: np.ndarray, values: np.ndarray):
    """sum_k w_k values_k per column, pairwise as np.sum sums one column."""
    if values.ndim == 1:
        return (w * values).sum()
    return np.multiply(w[:, None], values, order="F").sum(axis=0)


@lru_cache(maxsize=8)
def make_grid(n: int, r_max: float) -> RadialGrid:
    """Build (or fetch a cached) RadialGrid with n nodes on [0, r_max]."""
    return RadialGrid(n, r_max)


def _fornberg_weights(x0: np.ndarray, nodes: np.ndarray, order: int) -> np.ndarray:
    """Fornberg weights for every derivative order 0..`order` at each x0[i]
    from the stencil nodes[i]: x0 (n,), nodes (n, m) -> weights
    (order + 1, n, m).  Order k's weights never read a higher order's, so
    they do not depend on `order`."""
    n, m = nodes.shape
    c = np.zeros((m, order + 1, n))
    c1, c4 = 1.0, nodes[:, 0] - x0
    c[0, 0] = 1.0
    for i in range(1, m):
        mn = min(i, order)
        c2, c5, c4 = 1.0, c4, nodes[:, i] - x0
        for j in range(i):
            c3 = nodes[:, i] - nodes[:, j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c.transpose(1, 2, 0)


def _fornberg_matrix(x: np.ndarray, order: int, width: int) -> tuple:
    """Banded derivative matrices of orders 1..`order` from sliding Fornberg
    stencils, one recursion for all of them.

    Row i's stencil is the signed index run k = start + arange(width), with
    start = min(i - width // 2, n - width); the wall rows are one-sided.
    Smooth radial fields are even in r, so k < 0 is the ghost node -x_{-k-1}:
    csr sums its weight into column -k-1, keeping the rows near r = 0 centered.
    """
    n = len(x)
    width = min(width, n)
    i = np.arange(n)
    k = np.minimum(i - width // 2, n - width)[:, None] + np.arange(width)
    cols = np.where(k < 0, -k - 1, k)
    nodes = np.where(k < 0, -x[cols], x[cols])
    rows, cols = np.repeat(i, width), cols.ravel()
    return tuple(sparse.csr_array((w.ravel(), (rows, cols)), shape=(n, n))
                 for w in _fornberg_weights(x, nodes, order)[1:])


# -- fields -----------------------------------------------------------------


@dataclass
class RadialField:
    """Complex samples of a radial function on a RadialGrid.

    `space` records whether `values` are phi(r_k) or the transform
    phi_hat(rho_k) under the (2 pi)^2 order-1 Hankel convention.
    """

    grid: RadialGrid
    values: np.ndarray
    space: str = PHYSICAL

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.n,):
            raise GridError(
                f"field has {self.values.shape} values for grid n={self.grid.n}")
        if self.space not in (PHYSICAL, SPECTRAL):
            raise GridError(f"unknown space tag {self.space!r}")

    def copy(self) -> "RadialField":
        return RadialField(self.grid, self.values.copy(), self.space)

    def conj(self) -> "RadialField":
        return RadialField(self.grid, np.conj(self.values), self.space)

    def __add__(self, other):
        _same_grid(self, other)
        if self.space != other.space:
            raise GridError("cannot add fields in different spaces")
        return RadialField(self.grid, self.values + other.values, self.space)

    def __sub__(self, other):
        _same_grid(self, other)
        if self.space != other.space:
            raise GridError("cannot subtract fields in different spaces")
        return RadialField(self.grid, self.values - other.values, self.space)

    def __mul__(self, scalar):
        return RadialField(self.grid, self.values * scalar, self.space)

    __rmul__ = __mul__


def field(grid: RadialGrid, values, space: str = PHYSICAL) -> RadialField:
    return RadialField(grid, np.asarray(values), space)


def zero_field(grid: RadialGrid) -> RadialField:
    return RadialField(grid, np.zeros(grid.n, dtype=np.complex128))


def _same_grid(f: RadialField, g: RadialField):
    if f.grid is not g.grid and f.grid != g.grid:
        raise GridError("fields live on different grids")


# -- operations -------------------------------------------------------------


def transform(f: RadialField) -> RadialField:
    """Toggle physical <-> spectral via the order-1 Fourier-Bessel pair."""
    if not np.all(np.isfinite(f.values)):
        raise GridError("transform of a field with non-finite values")
    if f.space == PHYSICAL:
        return RadialField(f.grid, f.grid.to_spectral_values(f.values), SPECTRAL)
    return RadialField(f.grid, f.grid.to_physical_values(f.values), PHYSICAL)


def to_physical(f: RadialField) -> RadialField:
    return transform(f) if f.space == SPECTRAL else f


def to_spectral(f: RadialField) -> RadialField:
    return transform(f) if f.space == PHYSICAL else f


def apply_multiplier(f: RadialField, m) -> RadialField:
    """Return F^{-1}[m(rho) * F f] in the space f came in.

    `m` is a scalar function of rho (vectorized) or a precomputed array on
    rho_nodes.  Realizes D (m = rho), the Laplacian (m = -rho^2), half-wave
    and Schrodinger propagators, and Bessel potentials <D>^s.
    """
    grid = f.grid
    mvals = np.asarray(m(grid.rho_nodes) if callable(m) else m)
    mvals = np.broadcast_to(mvals, (grid.n,))
    if not np.all(np.isfinite(mvals)):
        raise GridError("multiplier produced non-finite values at a rho node")
    spec = to_spectral(f)
    out = RadialField(grid, spec.values * mvals, SPECTRAL)
    return out if f.space == SPECTRAL else transform(out)


def op_D(f: RadialField) -> RadialField:
    return apply_multiplier(f, f.grid.rho_nodes)


def op_D_inverse(f: RadialField) -> RadialField:
    """Spectral division by rho; all rho nodes are strictly positive.

    The continuum D^{-1} of generic L^2 data is grid-sensitive at low
    frequency; callers that care should inspect low_frequency_fraction.
    """
    return apply_multiplier(f, 1.0 / f.grid.rho_nodes)


def op_laplacian(f: RadialField) -> RadialField:
    return apply_multiplier(f, -f.grid.rho_nodes**2)


def low_frequency_fraction(f: RadialField):
    """Spectral-mass share and values of the lowest LOW_MODES coefficients."""
    spec = to_spectral(f).values
    return float(low_mode_share(f.grid, spec)), spec[:LOW_MODES].copy()


def low_mode_share(grid: RadialGrid, spec: np.ndarray):
    """Share of the lowest LOW_MODES coefficients in the spectral mass of
    spec, per column of an (n, S) block; 0 for a zero column."""
    mass = np.abs(spec) ** 2
    total = grid.spectral_integral(mass)
    mass[LOW_MODES:] = 0.0
    return np.divide(grid.spectral_integral(mass), total,
                     out=np.zeros(np.shape(total)), where=total != 0)


def lp_norm(f: RadialField, p: float) -> float:
    """L^p norm over R^4 by radial quadrature; p = inf returns max |f|."""
    if not p >= 1:   # refuses NaN too
        raise ValueError(f"p must be >= 1, got {p}")
    g = to_physical(f)
    a = np.abs(g.values)
    if np.isinf(p):
        return float(a.max(initial=0.0))
    return float(g.grid.integral(a**p) ** (1.0 / p))


def inner(f: RadialField, g: RadialField) -> float:
    """Real pairing <f|g> = Re integral conj(f) g dx by quadrature."""
    _same_grid(f, g)
    ff, gg = to_physical(f), to_physical(g)
    return float(ff.grid.integral(np.real(np.conj(ff.values) * gg.values)))


def gradient_norm_sq(f: RadialField) -> float:
    """|grad f|_2^2 = -Re<f|Lap f>, evaluated spectrally."""
    return float(f.grid.gradient_sq(to_spectral(f).values))


def radial_derivative(f: RadialField) -> RadialField:
    """d/dr of a physical field by 4th-order finite differences."""
    g = to_physical(f)
    D = g.grid.derivative_matrix()
    return RadialField(g.grid, D @ g.values, PHYSICAL)


def radial_laplacian_fd(f: RadialField) -> RadialField:
    """Lap f = f_rr + 3 f_r / r on R^4 by local finite differences.

    Preferred over the spectral Laplacian for fields with slowly decaying
    tails (the Dirichlet wall does not enter local stencils)."""
    g = to_physical(f)
    grid = g.grid
    d2 = grid.second_derivative_matrix() @ g.values
    d1 = grid.wide_derivative_matrix() @ g.values
    return RadialField(grid, d2 + 3.0 * d1 / grid.r_nodes, PHYSICAL)


# -- smooth cutoffs ---------------------------------------------------------


def smooth_transition(x: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for x <= 0, 1 for x >= 1."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    def bump(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out
    a = bump(x)
    b = bump(1.0 - x)
    return a / (a + b)


def truncation_profile(grid: RadialGrid) -> np.ndarray:
    """Smooth cutoff equal to 1 on r <= TRUNCATION_INNER * r_max and 0 beyond
    TRUNCATION_OUTER * r_max; keeps slowly decaying profiles in L^2 while
    preserving interior identities."""
    x = ((grid.r_nodes / grid.r_max - TRUNCATION_INNER)
         / (TRUNCATION_OUTER - TRUNCATION_INNER))
    return 1.0 - smooth_transition(x)
