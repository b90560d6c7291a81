import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.integrate import quad

from zakharov4d import grid as grid_module
from zakharov4d.grid import (
    GridError,
    RadialField,
    RadialGrid,
    apply_multiplier,
    field,
    gradient_norm_sq,
    inner,
    lp_norm,
    make_grid,
    op_D,
    op_D_inverse,
    op_laplacian,
    low_frequency_fraction,
    radial_derivative,
    to_spectral,
    transform,
    truncation_profile,
    zero_field,
    FOURIER_NORM,
    PHYSICAL,
    SPHERE_S3,
    SPECTRAL,
)

W4_4_EXACT = 32.0 * np.pi**2 / 3.0


def sample_w(grid):
    return 1.0 / (1.0 + grid.r_nodes**2 / 8.0)


def band_limited(grid, rng, frac=0.75):
    spec = np.zeros(grid.n, dtype=complex)
    k = int(frac * grid.n)
    spec[:k] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return transform(RadialField(grid, spec, SPECTRAL))


class TestMakeGrid:
    def test_first_bessel_zero_placement(self):
        # j_{1,1} from an independent root bracket on J_1
        from scipy.optimize import brentq
        j11 = brentq(special.j1, 3.0, 4.5, xtol=1e-14)
        assert abs(j11 - 3.8317059702) < 1e-9
        g = make_grid(8, 10.0)
        j19 = special.jn_zeros(1, 9)[-1]
        assert g.r_nodes[0] == pytest.approx(10.0 * j11 / j19, rel=1e-12)
        assert g.rho_nodes[0] == pytest.approx(j11 / 10.0, rel=1e-12)
        assert abs(g.rho_nodes[0] - 0.38317) < 1e-5

    def test_nodes_increasing_and_bounded(self):
        g = make_grid(64, 25.0)
        assert np.all(np.diff(g.r_nodes) > 0)
        assert np.all(np.diff(g.rho_nodes) > 0)
        assert g.r_nodes[0] > 0 and g.r_nodes[-1] < g.r_max
        assert np.all(g.quad_weights_r > 0) and np.all(g.quad_weights_rho > 0)

    @pytest.mark.parametrize("count", [9, 65, 257, 1025, 4097, 8193])
    def test_j1_zeros_within_one_ulp_of_scipy(self, count):
        zeros = grid_module._j1_zeros(count)
        ref = special.jn_zeros(1, count)
        assert zeros.shape == (count,)
        assert np.all(np.abs(zeros - ref) <= np.spacing(ref))
        assert np.all(np.diff(zeros) > 0)

    def test_build_does_not_call_jn_zeros(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("RadialGrid called special.jn_zeros")
        monkeypatch.setattr(special, "jn_zeros", refuse)
        g = RadialGrid(64, 10.0)
        assert np.abs(special.j1(g.rho_nodes * 10.0)).max() < 1e-12

    def test_zero_accuracy(self):
        g = make_grid(32, 10.0)
        zeros = g.rho_nodes * 10.0
        assert np.abs(special.j1(zeros)).max() < 1e-12

    @pytest.mark.parametrize("bad", [4, 7, 0, -3])
    def test_rejects_small_n(self, bad):
        with pytest.raises(GridError):
            make_grid(bad, 10.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_rmax(self, bad):
        with pytest.raises(GridError):
            make_grid(16, bad)


def relative_l2(weights, values, exact):
    return np.sqrt(np.sum(weights * np.abs(values - exact) ** 2)
                   / np.sum(weights * np.abs(exact) ** 2))


class TestKernel:
    @pytest.mark.parametrize("n", [8, 9, 63, 64, 65, 127, 128, 129, 257])
    def test_kernel_equals_full_matrix_formula(self, n):
        # the upper block triangle and its mirror give the full-matrix
        # formula bit for bit, also where n ends inside or on a row block
        zeros = grid_module._j1_zeros(n + 1)
        j_edge, j = zeros[n], zeros[:n]
        absJ0 = np.abs(special.j0(j))
        full = (2.0 * special.j1(np.outer(j, j) / j_edge)
                * (j / absJ0**2) / (j_edge * j[:, None]))
        kernel = RadialGrid(n, 20.0).transform_kernel
        assert kernel.tobytes() == full.tobytes()

    @pytest.mark.parametrize("n", [8, 9, 64, 257])
    def test_symmetric_after_node_scaling(self, n):
        # S M S^{-1} is the symmetric quasi-discrete kernel, S = diag(j_k /
        # |J_0(j_k)|); M and this product carry about ten roundings between
        # them, so entries agree with their transposes to a few ulps
        g = RadialGrid(n, 20.0)
        j = grid_module._j1_zeros(n + 1)[:n]
        s = j / np.abs(special.j0(j))
        K = g.transform_kernel * s[:, None] / s
        eps = np.finfo(float).eps
        assert np.all(np.abs(K - K.T) <= 16 * eps * np.abs(K))

    def test_kernel_depends_on_n_only(self):
        # r_max enters the transform through the scalar c alone
        a, b = RadialGrid(64, 10.0), RadialGrid(64, 30.0)
        assert np.array_equal(a.transform_kernel, b.transform_kernel)
        assert a._spectral_scale != b._spectral_scale


class TestTransform:
    @pytest.mark.parametrize("n, r_max", [(64, 12.0), (512, 40.0),
                                          (1024, 200.0)])
    def test_gaussian_pair(self, n, r_max):
        # both directions against the analytic pair; the transform's scalar
        # depends on r_max and n, so the grids vary both
        g = make_grid(n, r_max)
        phys = np.exp(-g.r_nodes**2 / 2)
        spec = FOURIER_NORM * np.exp(-g.rho_nodes**2 / 2)
        forward = transform(field(g, phys))
        backward = transform(RadialField(g, spec, SPECTRAL))
        assert relative_l2(g.quad_weights_rho, forward.values, spec) < 1e-8
        assert relative_l2(g.quad_weights_r, backward.values, phys) < 1e-8

    def test_column_block_matches_columns(self, grid_small):
        # a generator of its own keeps the session rng's draws for later tests
        g, rng = grid_small, np.random.default_rng(7)
        block = rng.standard_normal((g.n, 6)) + 1j * rng.standard_normal((g.n, 6))
        for values in (block, block[:, ::2], block[:, 1]):
            for apply, space in ((g.to_spectral_values, PHYSICAL),
                                 (g.to_physical_values, SPECTRAL)):
                out = apply(values)
                assert out.shape == values.shape
                cols = out.reshape(g.n, -1)
                for k, col in enumerate(values.reshape(g.n, -1).T):
                    ref = transform(RadialField(g, col, space)).values
                    err = np.abs(cols[:, k] - ref).max() / np.abs(ref).max()
                    assert err < 1e-14

    @pytest.mark.parametrize("lo, hi", [(0, 128), (0, 1), (37, 38),
                                        (20, 83), (100, 128)])
    def test_row_run_matches_padded_block(self, grid_small, lo, hi):
        # spectral columns that vanish off rows lo:hi synthesise from M's
        # columns lo:hi alone (dividing by c where to_physical_values
        # multiplies by 1/c, so agreement is to roundoff, not bitwise)
        g, rng = grid_small, np.random.default_rng(9)
        run = rng.standard_normal((hi - lo, 4)) + 1j * rng.standard_normal(
            (hi - lo, 4))
        for block in (run, np.asfortranarray(run), run.real):
            padded = np.zeros((g.n, 4), dtype=block.dtype)
            padded[lo:hi] = block
            ref = g.to_physical_values(padded)
            out = g.rows_to_physical(block, slice(lo, hi))
            assert out.shape == (g.n, 4) and out.dtype == complex
            assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_zero_field(self, grid_small):
        z = transform(zero_field(grid_small))
        assert np.all(z.values == 0)
        assert z.space == SPECTRAL

    def test_round_trip_band_limited(self, grid_medium, rng):
        f = band_limited(grid_medium, rng)
        back = transform(transform(f))
        err = lp_norm(back - f, 2) / lp_norm(f, 2)
        assert err < 1e-10

    def test_plancherel(self, grid_medium, rng):
        f = band_limited(grid_medium, rng)
        spec = transform(f)
        phys_sq = lp_norm(f, 2) ** 2
        spec_sq = SPHERE_S3 * np.sum(
            grid_medium.quad_weights_rho * np.abs(spec.values) ** 2)
        assert abs(phys_sq - FOURIER_NORM**-2 * spec_sq) / phys_sq < 1e-8

    def test_rejects_non_finite(self, grid_small):
        vals = np.ones(grid_small.n, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(GridError):
            transform(field(grid_small, vals))


class TestMultipliers:
    def test_D_inverse_pair_on_w_squared(self, grid_w):
        w2 = field(grid_w, sample_w(grid_w) ** 2 * truncation_profile(grid_w))
        back = op_D_inverse(op_D(w2))
        assert lp_norm(back - w2, 2) / lp_norm(w2, 2) < 1e-8

    def test_laplacian_of_w_is_minus_w_cubed(self, grid_w):
        g = grid_w
        w = sample_w(g)
        wt = field(g, w * truncation_profile(g))
        lap = op_laplacian(wt)
        mask = g.interior_mask()
        err = np.abs(lap.values + w**3)[mask].max()
        assert err < 1e-6

    def test_half_wave_at_zero_time_is_identity(self, grid_small):
        # out - f = (M^2 - I) f exactly, M the transform matrix: M is not an
        # exact involution (its defect peaks at 7.2e-10 at n = 128, and
        # extended precision reproduces the error), so the bound scales with
        # max|f|; 40 seeds gave at most 3.7e-12 of it
        f = band_limited(grid_small, np.random.default_rng(20260810))
        out = apply_multiplier(f, np.exp(1j * 0.0 * grid_small.rho_nodes))
        scale = np.abs(f.values).max()
        assert np.allclose(out.values, f.values, rtol=0, atol=1e-11 * scale)

    def test_composition_is_product(self, grid_small, rng):
        f = to_spectral(band_limited(grid_small, rng))
        m1 = lambda rho: np.exp(0.3j * rho**2)
        m2 = lambda rho: 1.0 / (1.0 + rho**2)
        one = apply_multiplier(apply_multiplier(f, m1), m2)
        both = apply_multiplier(f, lambda rho: m1(rho) * m2(rho))
        # same spectral representation: no transform round-trip, only fp
        # reassociation of the pointwise products
        scale = np.abs(both.values).max()
        assert np.allclose(one.values, both.values, rtol=0, atol=1e-14 * scale)

    def test_rejects_non_finite_multiplier(self, grid_small):
        f = zero_field(grid_small)
        with pytest.raises(GridError):
            apply_multiplier(f, lambda rho: 1.0 / (rho - rho[3]))

    def test_low_frequency_fraction(self, grid_small):
        spec = np.zeros(grid_small.n, dtype=complex)
        spec[0] = 1.0
        f = RadialField(grid_small, spec, SPECTRAL)
        frac, coeffs = low_frequency_fraction(f)
        assert frac == pytest.approx(1.0)
        assert coeffs[0] == 1.0


class TestNorms:
    def test_w4_norm_closed_form(self):
        g = make_grid(4096, 400.0)
        w = field(g, sample_w(g))
        val = lp_norm(w, 4) ** 4
        # oracle: substitution r^2 = 8t gives 2 pi^2 * 32 * B(2,2) = 32 pi^2/3
        oracle, _ = quad(lambda r: (1 + r * r / 8.0) ** -4 * r**3, 0, np.inf)
        assert abs(SPHERE_S3 * oracle - W4_4_EXACT) < 1e-10
        assert abs(val - W4_4_EXACT) / W4_4_EXACT < 1e-6

    def test_w_squared_l2(self):
        g = make_grid(4096, 400.0)
        w2 = field(g, sample_w(g) ** 2)
        assert lp_norm(w2, 2) == pytest.approx(np.sqrt(W4_4_EXACT), rel=1e-6)
        assert abs(np.sqrt(W4_4_EXACT) - 10.2604) < 1e-3

    def test_zero_norm(self, grid_small):
        for p in (1, 2, 4, np.inf):
            assert lp_norm(zero_field(grid_small), p) == 0.0

    def test_rejects_p_below_one(self, grid_small):
        with pytest.raises(ValueError):
            lp_norm(zero_field(grid_small), 0.5)

    def test_rejects_nan_p(self, grid_small):
        with pytest.raises(ValueError):
            lp_norm(zero_field(grid_small), np.nan)

    @given(lam=st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, lam):
        g = make_grid(64, 12.0)
        f = field(g, np.exp(-g.r_nodes**2))
        assert lp_norm(lam * f, 3) == pytest.approx(abs(lam) * lp_norm(f, 3), abs=1e-13)


class TestQuadrature:
    def test_block_matches_one_column_calls(self, grid_small):
        # each column of a block is summed as np.sum sums it alone, so the
        # block integrals equal the one-column calls bit for bit
        g, rng = grid_small, np.random.default_rng(8)
        block = rng.standard_normal((g.n, 7)) * np.exp(
            4.0 * rng.standard_normal((g.n, 7)))
        for values in (block, np.asfortranarray(block), block[:, ::2]):
            for integrate in (g.integral, g.spectral_integral):
                out = integrate(values)
                assert out.shape == (values.shape[1],)
                assert np.array_equal(
                    out, [integrate(col) for col in values.T])
        assert isinstance(g.integral(block[:, 0]), float)

    @pytest.mark.parametrize("rows", [slice(0, 1), slice(37, 38),
                                      slice(20, 83), slice(0, 128)])
    def test_row_run_integral(self, grid_small, rows):
        # given a run, spectral_integral sums those rows' weights only: the
        # integral of samples that vanish off the run
        g, rng = grid_small, np.random.default_rng(10)
        padded = np.zeros((g.n, 3))
        padded[rows] = rng.standard_normal((rows.stop - rows.start, 3))
        for values, full in ((padded[rows], padded),
                             (padded[rows, 0], padded[:, 0])):
            got, ref = g.spectral_integral(values, rows), g.spectral_integral(full)
            assert np.shape(got) == np.shape(ref)
            assert np.allclose(got, ref, rtol=1e-14, atol=0)

    def test_gaussian_integral(self, grid_medium):
        # integral over R^4 of e^{-r^2} is pi^2
        g = grid_medium
        assert g.integral(np.exp(-g.r_nodes**2)) == pytest.approx(
            np.pi**2, rel=1e-12)
        assert g.spectral_integral(FOURIER_NORM**2 * np.exp(-g.rho_nodes**2)
                                   ) == pytest.approx(np.pi**2, rel=1e-12)

    def test_field_functions_are_integrals(self, grid_medium, rng):
        g = grid_medium
        f, h = band_limited(g, rng), band_limited(g, rng)
        a = np.abs(f.values)
        for p in (1, 2, 2.5, 4):
            assert lp_norm(f, p) == g.integral(a**p) ** (1.0 / p)
        assert inner(f, h) == g.integral(
            np.real(np.conj(f.values) * h.values))
        assert gradient_norm_sq(f) == g.spectral_integral(
            g.rho_nodes**2 * np.abs(to_spectral(f).values) ** 2)

    def test_gradient_sq_block_equals_columns(self, grid_medium):
        # |grad f|_2^2 of a spectral block equals its one-column calls and
        # gradient_norm_sq bit for bit
        g, rng = grid_medium, np.random.default_rng(12)
        spec = np.column_stack([to_spectral(band_limited(g, rng)).values
                                for _ in range(3)])
        out = g.gradient_sq(spec)
        assert out.shape == (3,)
        assert np.array_equal(out, [g.gradient_sq(col) for col in spec.T])
        assert out[0] == gradient_norm_sq(RadialField(g, spec[:, 0],
                                                      SPECTRAL))


class TestInnerAndGradient:
    def test_inner_w_w3(self):
        g = make_grid(4096, 400.0)
        w = sample_w(g)
        val = inner(field(g, w), field(g, w**3))
        assert val == pytest.approx(W4_4_EXACT, rel=1e-6)

    def test_inner_of_if_vanishes(self, grid_small):
        f = field(grid_small, np.exp(-grid_small.r_nodes**2))
        assert abs(inner(f, RadialField(f.grid, 1j * f.values))) < 1e-14

    def test_inner_w_lap_w(self, grid_w):
        g = grid_w
        w = sample_w(g)
        wt = field(g, w * truncation_profile(g))
        lhs = inner(wt, op_laplacian(wt))
        assert lhs == pytest.approx(-gradient_norm_sq(wt), rel=1e-10)

    def test_gradient_norm_gaussian(self, grid_medium):
        # |grad e^{-r^2/2}|^2 = integral r^2 e^{-r^2} -> 2 pi^2 * Gamma(3)/2 = 2 pi^2
        f = field(grid_medium, np.exp(-grid_medium.r_nodes**2 / 2))
        oracle, _ = quad(lambda r: r**2 * np.exp(-(r**2)) * r**3, 0, np.inf)
        assert gradient_norm_sq(f) == pytest.approx(SPHERE_S3 * oracle, rel=1e-10)

    def test_gradient_of_zero(self, grid_small):
        assert gradient_norm_sq(zero_field(grid_small)) == 0.0

    def test_gradient_scaling(self, grid_medium):
        f = field(grid_medium, np.exp(-grid_medium.r_nodes**2 / 2))
        assert gradient_norm_sq(2.5 * f) == pytest.approx(
            2.5**2 * gradient_norm_sq(f), rel=1e-12)

    def test_grid_mismatch_rejected(self, grid_small, grid_medium):
        with pytest.raises(GridError):
            inner(zero_field(grid_small), zero_field(grid_medium))


class TestDerivative:
    def test_derivative_of_gaussian(self, grid_medium):
        g = grid_medium
        f = field(g, np.exp(-g.r_nodes**2 / 4))
        df = radial_derivative(f)
        exact = -0.5 * g.r_nodes * np.exp(-g.r_nodes**2 / 4)
        assert np.abs(df.values - exact).max() < 5e-6

    def test_derivative_fourth_order(self):
        # halving h cuts the error by ~2^4
        errs = []
        for n in (256, 512):
            g = make_grid(n, 40.0)
            f = field(g, np.exp(-g.r_nodes**2 / 4))
            exact = -0.5 * g.r_nodes * np.exp(-g.r_nodes**2 / 4)
            errs.append(np.abs(radial_derivative(f).values - exact).max())
        assert errs[0] / errs[1] > 10

    @pytest.mark.parametrize("n", [8, 64, 1024])
    @pytest.mark.parametrize("order, width, name", [
        (1, 5, "derivative_matrix"),
        (2, 9, "second_derivative_matrix"),
        (1, 9, "wide_derivative_matrix"),
    ])
    def test_stencils_exact_on_even_monomials(self, n, order, width, name):
        # (r/r_max)^2 and (r/r_max)^4 are even and within every stencil's
        # degree, so each row is exact up to roundoff: the rows folded across
        # r = 0 and the one-sided rows at the wall included
        g = make_grid(n, 10.0)
        D = getattr(g, name)()
        assert D.nnz <= n * width
        x = g.r_nodes / g.r_max
        for p in (2, 4):
            exact = (p * x ** (p - 1) if order == 1
                     else p * (p - 1) * x ** (p - 2)) / g.r_max**order
            assert np.all(np.abs(D @ x**p - exact) <= 1e-6 * np.abs(exact))

    @pytest.mark.parametrize("n", [8, 9, 64, 1024])
    def test_fd_matrices_equal_per_order_builds(self, n):
        # one recursion serves both width-9 orders; each order's weights
        # never read a higher order's, so every matrix equals the build
        # that stops at its own order
        g = RadialGrid(n, 10.0)
        for order, width, name in ((1, 5, "derivative_matrix"),
                                   (2, 9, "second_derivative_matrix"),
                                   (1, 9, "wide_derivative_matrix")):
            D = getattr(g, name)()
            ref = grid_module._fornberg_matrix(g.r_nodes, order, width)[-1]
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(D, part), getattr(ref, part))
                assert not getattr(D, part).flags.writeable

    def test_one_recursion_per_width(self, monkeypatch):
        widths = []
        weights = grid_module._fornberg_weights

        def counted(x0, nodes, order):
            widths.append((nodes.shape[1], order))
            return weights(x0, nodes, order)

        monkeypatch.setattr(grid_module, "_fornberg_weights", counted)
        g = RadialGrid(64, 10.0)
        for _ in range(2):
            g.wide_derivative_matrix()
            g.derivative_matrix()
            g.second_derivative_matrix()
        assert widths == [(9, 2), (5, 1)]
