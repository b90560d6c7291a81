import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zakharov4d.grid import (
    RadialField,
    RadialGrid,
    SPECTRAL,
    field,
    lp_norm,
    make_grid,
    to_spectral,
    transform,
    zero_field,
)
from zakharov4d.dyadic import (
    DELTA_STAR,
    SeparationError,
    TrajectorySamples,
    _block_table,
    besov_from_spectrum,
    besov_norm,
    build_weight,
    bump_profile,
    chi0,
    chi_partition_sum,
    coverage_defect,
    dyadic_blocks,
    dyadic_profile,
    lp_project,
    spacetime_norm_X,
    weight_multiplier,
    xdelta_exponents,
)


def band_limited(grid, rng, lo=0.1, hi=0.6):
    spec = np.zeros(grid.n, dtype=complex)
    i0, i1 = int(lo * grid.n), int(hi * grid.n)
    spec[i0:i1] = rng.standard_normal(i1 - i0) + 1j * rng.standard_normal(i1 - i0)
    return transform(RadialField(grid, spec, SPECTRAL))


class TestCutoff:
    def test_chi0_support(self):
        x = np.linspace(0.01, 4, 1000)
        vals = chi0(x)
        assert np.all(vals[x <= 0.5] == 0)
        assert np.all(vals[x >= 2.0] == 0)
        assert np.all(vals[(x > 0.55) & (x < 1.9)] >= 0)

    @pytest.mark.parametrize("scalar", [float, np.float64])
    def test_scalar_path_matches_array(self, scalar):
        # floats take the math.cos path; it agrees with the array path on
        # both sides of each kink and inside the cosine ramp
        t = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        bump, ann = bump_profile(t), chi0(t)
        for i, ti in enumerate(t):
            assert isinstance(bump_profile(scalar(ti)), float)
            assert bump_profile(scalar(ti)) == pytest.approx(bump[i], abs=1e-15)
            assert chi0(scalar(ti)) == pytest.approx(ann[i], abs=1e-15)

    def test_array_path_is_two_bumps_bit_for_bit(self):
        # the one-cosine array path equals bump(x) - bump(2x) bit for bit,
        # kinks, their neighbours, zeros, negatives, NaN and +-inf included,
        # and raises no warning where the two-bump form overflows 2x
        rng = np.random.default_rng(25)
        kinks = np.array([0.5, 1.0, 2.0, 0.25, 4.0])
        x = np.concatenate([
            rng.uniform(-1.0, 3.0, 20000), rng.uniform(0.49, 2.01, 20000),
            kinks, np.nextafter(kinks, 0.0), np.nextafter(kinks, np.inf),
            [0.0, -0.0, -0.5, -3.0, 5e-324, np.nan, np.inf, -np.inf,
             1e308, -1e308]])
        with np.errstate(over="ignore"):
            ref = bump_profile(x) - bump_profile(2.0 * x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = chi0(x)
            block = chi0(x[:40000].reshape(200, 10, 20))
        assert got.dtype == np.float64 and got.shape == x.shape
        assert got.tobytes() == ref.tobytes()
        assert block.tobytes() == ref[:40000].tobytes()
        assert np.all(got[-8:] == 0.0)

    def test_exact_telescoping(self):
        # partial sums telescope exactly: sum over 2^Z of chi0(x/j) = 1
        x = np.array([0.3, 0.7, 1.0, 3.7, 11.0, 130.0])
        js = 2.0 ** np.arange(-8, 14)
        total = sum(chi0(x / j) for j in js)
        assert np.allclose(total, 1.0, atol=1e-15)

    def test_partition_on_grid_interior(self, grid_medium):
        total = chi_partition_sum(grid_medium)
        rho = grid_medium.rho_nodes
        interior = (rho > 2 * rho[0]) & (rho < rho[-1] / 2)
        assert np.allclose(total[interior], 1.0, atol=1e-15)


class TestProjection:
    def test_partition_of_unity(self, grid_medium, rng):
        f = band_limited(grid_medium, rng)
        acc = zero_field(grid_medium)
        for j in dyadic_blocks(grid_medium):
            acc = acc + lp_project(f, j)
        assert lp_norm(acc - f, 2) / lp_norm(f, 2) < 1e-9
        assert coverage_defect(f) < 1e-12

    def test_out_of_range_block_is_zero(self, grid_small, rng):
        f = band_limited(grid_small, rng)
        far = 8.0 * grid_small.rho_nodes[-1]
        assert np.all(lp_project(f, far).values == 0)

    def test_smooth_field_block_decay(self, grid_medium):
        # spectral tail of (truncated) W decays faster than any fixed
        # polynomial rate; check blocks against direct spectral evaluation
        from zakharov4d.grid import truncation_profile
        g = grid_medium
        w = field(g, (1.0 / (1.0 + g.r_nodes**2 / 8.0)) * truncation_profile(g))
        spec = to_spectral(w)
        floor = 1e-10 * lp_norm(w, 2)
        js = [j for j in dyadic_blocks(g) if 1.0 <= j <= g.rho_nodes[-1] / 4]
        norms = []
        for j in js:
            proj = lp_project(w, j)
            norms.append(lp_norm(proj, 2))
            direct = np.sqrt(
                2 * np.pi**2 * (2 * np.pi) ** -4
                * np.sum(g.quad_weights_rho
                         * np.abs(spec.values * chi0(g.rho_nodes / j)) ** 2))
            assert norms[-1] == pytest.approx(direct, rel=1e-9)
        norms = np.array(norms)
        rates = np.diff(np.log(norms)) / np.log(2)
        resolved = norms[1:] > floor
        assert np.all(rates[resolved] < 0)
        # beyond the knee (j >> 1) the observed rate beats any low polynomial
        assert np.all(rates[1:][resolved[1:]] < -4)


class TestBesov:
    def test_zero(self, grid_small):
        assert besov_norm(zero_field(grid_small), 0.5, 2, 2) == 0.0

    def test_single_piece_identity(self, grid_medium, rng):
        f = band_limited(grid_medium, rng)
        j = 4.0
        piece = lp_project(f, j)
        s = 0.7
        val = besov_norm(piece, s, 2, 2)
        ref = j**s * lp_norm(piece, 2)
        # re-projection touches only the adjacent blocks; bracket the ratio
        lo = 2.0**-s / np.sqrt(2.0)
        hi = 2.0**s
        assert lo <= val / ref <= hi
        # blocks beyond the adjacent ones carry only transform round-trip
        # noise (exact zeros in the continuum: supports are disjoint)
        for jj in (j / 4, 4 * j):
            assert lp_norm(lp_project(piece, jj), 2) < 1e-10 * lp_norm(piece, 2)

    def test_b022_squares_to_chi_squared_plancherel(self, grid_w):
        # for the C^1 cosine bump, sum_j chi0^2 = cos^4 + sin^4 in overlaps,
        # so B^0_{2,2} equals the chi^2-weighted Plancherel sum exactly and
        # is equivalent to (not equal to) the L^2 norm: bounds [1/sqrt2, 1]
        g = grid_w
        w = 1.0 / (1.0 + g.r_nodes**2 / 8.0)
        from zakharov4d.grid import truncation_profile
        wt = field(g, w * truncation_profile(g))
        got = besov_norm(wt, 0.0, 2, 2)
        spec = to_spectral(wt)
        chi_sq = sum(chi0(g.rho_nodes / j) ** 2 for j in dyadic_blocks(g))
        oracle = np.sqrt(2 * np.pi**2 * (2 * np.pi) ** -4
                         * np.sum(g.quad_weights_rho
                                  * chi_sq * np.abs(spec.values) ** 2))
        assert got == pytest.approx(oracle, rel=1e-6)
        ratio = got / lp_norm(wt, 2)
        assert 1.0 / np.sqrt(2.0) <= ratio <= 1.0 + 1e-12

    def test_rejects_bad_exponents(self, grid_small):
        with pytest.raises(ValueError):
            besov_norm(zero_field(grid_small), 0.0, 0.5, 2)

    @pytest.mark.parametrize("p, q", [(np.nan, 2), (2, np.nan)])
    def test_rejects_nan_exponents(self, grid_small, p, q):
        with pytest.raises(ValueError):
            besov_norm(zero_field(grid_small), 0.5, p, q)


def dense_profile(spec, grid, s, p):
    """Reference profile: every live block's cut on all n rows, and one
    to_physical_values pass over the columns x blocks."""
    spec = spec.reshape(grid.n, -1)
    js = dyadic_blocks(grid)
    cuts = chi0(grid.rho_nodes[:, None] / js[None, :])
    live = np.any(cuts, axis=0)
    cuts, js = cuts[:, live], js[live]
    m, nb = spec.shape[1], len(js)
    pieces = (spec[:, :, None] * cuts[:, None, :]).reshape(grid.n, -1)
    block_l2 = np.sqrt(grid.spectral_integral(np.abs(pieces) ** 2))
    a = np.abs(grid.to_physical_values(pieces))
    norms = (a.max(axis=0) if np.isinf(p)
             else grid.integral(a**p) ** (1.0 / p))
    return js**s * norms.reshape(m, nb), block_l2.reshape(m, nb)


class TestSynthesis:
    GRIDS = [(64, 40.0), (65, 40.0), (129, 40.0), (512, 40.0), (128, 30.0),
             (64, 3.0)]

    @pytest.mark.parametrize("n", [64, 65, 129, 512])
    @pytest.mark.parametrize("m", [1, 8])
    @pytest.mark.parametrize("delta, dual, p_inf", [
        (0.2, False, False), (0.2, True, False), (0.0, False, True)])
    def test_matches_dense_formula(self, n, m, delta, dual, p_inf):
        # each block synthesised from its own rows gives the dense pass's
        # terms to roundoff; block_l2 is the Plancherel sum of the block
        g = make_grid(n, 40.0)
        rng = np.random.default_rng(n + m)
        spec = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        s, p = xdelta_exponents(delta, dual)
        p = np.inf if p_inf else p
        terms, block_l2 = dyadic_profile(spec, g, s, p)
        ref_terms, ref_l2 = dense_profile(spec, g, s, p)
        assert terms.shape == block_l2.shape == ref_terms.shape
        # the r_max = 40 grids start with a one-row block
        assert min(r.stop - r.start for r, _ in _block_table(g)[1]) == 1
        np.testing.assert_allclose(terms, ref_terms, rtol=1e-14, atol=0)
        np.testing.assert_allclose(block_l2, ref_l2, rtol=1e-14, atol=0)
        for b, j in enumerate(_block_table(g)[0]):
            plancherel = np.sqrt(g.spectral_integral(
                np.abs(spec * chi0(g.rho_nodes / j)[:, None]) ** 2))
            np.testing.assert_allclose(block_l2[:, b], plancherel,
                                       rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n, r_max", GRIDS)
    def test_block_runs_are_cutoff_support(self, n, r_max):
        g = make_grid(n, r_max)
        table = js, runs = _block_table(g)
        live = [j for j in dyadic_blocks(g) if np.any(chi0(g.rho_nodes / j))]
        assert js.tolist() == live and len(runs) == len(live)
        for j, (rows, cut) in zip(js, runs):
            full = chi0(g.rho_nodes / j)
            assert np.array_equal(np.flatnonzero(full),
                                  np.arange(rows.start, rows.stop))
            assert np.array_equal(cut[:, 0], full[rows])
        # built once per grid: an equal grid reads the same table
        assert _block_table(RadialGrid(n, r_max)) is table

    def test_no_kernel_apply(self, grid_medium, monkeypatch):
        # the profile synthesises block by block from row runs; the space-
        # time norm's one pass is the transform of its sample block
        g, rng = grid_medium, np.random.default_rng(5)
        calls = {"_kernel_apply": 0, "rows_to_physical": 0}
        for name in calls:
            original = getattr(RadialGrid, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(RadialGrid, name, counted)
        spec = rng.standard_normal((g.n, 8)) + 0j
        dyadic_profile(spec, g, 0.2, 3.0)
        assert calls == {"_kernel_apply": 0,
                         "rows_to_physical": len(_block_table(g)[0])}
        traj = TrajectorySamples(g, [0.0, 1.0],
                                 g.to_physical_values(spec[:, :2]))
        calls.update(_kernel_apply=0, rows_to_physical=0)
        spacetime_norm_X(traj, 0.2)
        assert calls["_kernel_apply"] == 1

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, np.nan])
    def test_rejects_p_below_one(self, grid_small, p):
        spec = np.ones(grid_small.n, dtype=complex)
        with pytest.raises(ValueError, match="p >= 1"):
            dyadic_profile(spec, grid_small, 0.0, p)
        with pytest.raises(ValueError, match="p >= 1"):
            besov_from_spectrum(spec, grid_small, 0.0, p, 2.0)

    @pytest.mark.parametrize("q", [0.5, 0.0, np.nan])
    def test_besov_rejects_q_below_one(self, grid_small, q):
        spec = np.ones(grid_small.n, dtype=complex)
        with pytest.raises(ValueError, match="q >= 1"):
            besov_from_spectrum(spec, grid_small, 0.0, 2.0, q)

    def test_besov_takes_one_column(self, grid_small, rng):
        g = grid_small
        f = band_limited(g, rng)
        spec = to_spectral(f).values
        assert besov_from_spectrum(spec, g, 0.3, 2.0, 2.0) == besov_norm(
            f, 0.3, 2.0, 2.0)
        assert besov_from_spectrum(spec, g, 0.3, np.inf, np.inf) > 0
        for bad in (np.column_stack([spec] * 3), spec[:, None], spec[1:]):
            with pytest.raises(ValueError, match="one"):
                besov_from_spectrum(bad, g, 0.3, 2.0, 2.0)


class TestWeight:
    def test_hand_table(self):
        w = build_weight(2.0, {1.0, 1024.0})
        # plateau, interpolation and continuity values derived by hand from
        # the defining rules: p = log4/log8 = 2/3 on [4, 256]
        assert w(4.0) == pytest.approx(1.0, rel=1e-12)
        assert w(32.0) == pytest.approx(32.0, rel=1e-12)
        assert w(256.0) == pytest.approx(1024.0, rel=1e-12)
        assert w(100.0) == pytest.approx(100.0 * (100.0 / 32.0) ** (2.0 / 3.0),
                                         rel=1e-12)
        # plateau law
        assert w(1024.0) == 1024.0
        assert w(2048.0) == 1024.0
        assert w(0.5) == 1.0
        # tail law beyond the largest plateau
        assert w(8192.0) == pytest.approx(8192.0 / 4.0, rel=1e-12)

    def test_below_one(self):
        w = build_weight(2.0, {1.0, 1024.0})
        r = np.array([1e-6, 0.01, 0.3, 1.0])
        assert np.all(w(r) == 1.0)

    def test_continuity_and_monotonicity(self):
        w = build_weight(2.0, {1.0, 300.0, 90000.0})
        r = np.logspace(-2, 7, 40001)
        vals = w(r)
        assert np.all(np.diff(vals) >= -1e-12)
        jumps = np.abs(np.diff(np.log(vals)))
        assert jumps.max() < 2e-3  # no discontinuity on a fine sweep

    def test_equivalence_bounds(self):
        w = build_weight(1.5, {1.0, 50.0, 5000.0})
        r = np.logspace(0.001, 5, 200)
        vals = w(r)
        assert np.all(vals <= 1.5**2 * r + 1e-12)
        assert np.all(vals >= r / 1.5**2 - 1e-12)

    def test_separation_rejected(self):
        with pytest.raises(SeparationError) as ei:
            build_weight(2.0, {1.0, 8.0})
        assert "8" in str(ei.value) and "16" in str(ei.value)

    def test_requires_one(self):
        with pytest.raises(ValueError):
            build_weight(2.0, {2.0, 64.0})

    def test_requires_beta_above_one(self):
        with pytest.raises(ValueError):
            build_weight(1.0, {1.0})

    @given(st.floats(1.1, 3.0), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_weight_bounds_property(self, beta, nscales):
        sep = beta**4 * 10
        scales = [sep**k for k in range(nscales)]
        w = build_weight(beta, scales)
        r = np.logspace(0.01, np.log10(scales[-1] * 100), 300)
        vals = w(r)
        assert np.all(vals <= beta**2 * r * (1 + 1e-12))
        assert np.all(vals >= r / beta**2 * (1 - 1e-12))
        assert np.all(np.diff(vals) >= -1e-9 * vals[:-1])

    def test_lemma_monotonicity(self):
        # r^{s'} w^{-s} strictly increasing for large separation
        s, sp = 0.5, 0.8
        power = int(np.ceil(2 * sp / (sp - s)))
        beta = 2.0
        sep = beta ** (4 * power)
        w = build_weight(beta, [1.0, sep, sep**2])
        r = np.logspace(-1, np.log10(sep**2 * 100), 200)
        vals = r**sp * w(r) ** (-s)
        assert np.all(np.diff(vals) > 0)

    def test_dyadic_sum_bound(self):
        s, sp = 0.5, 0.8
        beta = 2.0
        sep = beta ** (4 * int(np.ceil(2 * sp / (sp - s))))
        w = build_weight(beta, [1.0, sep])
        js = 2.0 ** np.arange(0, 24)
        terms = js**sp * w(js) ** (-s)
        assert terms.sum() <= 10.0 / (sp - s) * terms.max()


class TestWeightMultiplier:
    def test_s_zero_identity(self, grid_medium, rng):
        f = band_limited(grid_medium, rng)
        w = build_weight(2.0, {1.0, 1024.0})
        out = weight_multiplier(f, w, 0.0)
        assert lp_norm(out - f, 2) / lp_norm(f, 2) < 1e-9

    def test_single_piece_plateau(self, grid_medium, rng):
        # a block inside a plateau just gets scaled by sigma^s
        f = band_limited(grid_medium, rng)
        w = build_weight(2.0, {1.0, 1024.0})
        piece = lp_project(f, 1.0)   # annulus (1/2, 2) sits in the 1-plateau
        out = weight_multiplier(piece, w, 0.7)
        assert lp_norm(out - piece, 2) / lp_norm(piece, 2) < 1e-9


class TestSpacetimeNorm:
    def make_const_traj(self, grid, rng, duration=2.0, samples=21):
        f = band_limited(grid, rng)
        times = np.linspace(0.0, duration, samples)
        block = np.repeat(f.values[:, None], samples, axis=1)
        return f, TrajectorySamples(grid, times, block)

    def test_constant_trajectory_factorizes(self, grid_small, rng):
        delta = 0.2
        f, traj = self.make_const_traj(grid_small, rng)
        got = spacetime_norm_X(traj, delta)
        p = 1.0 / (0.5 + (delta - 1.0) / 4.0)
        x_part = np.sqrt(2.0) * besov_norm(f, delta, p, 2)
        assert got == pytest.approx(max(x_part, _cl_inf(f)), rel=1e-10)

    def test_zero_trajectory(self, grid_small):
        times = np.linspace(0, 1, 5)
        traj = TrajectorySamples(grid_small, times,
                                 np.zeros((grid_small.n, 5)))
        assert spacetime_norm_X(traj, 0.0) == 0.0

    def test_time_restriction_monotone(self, grid_small, rng):
        f, traj = self.make_const_traj(grid_small, rng)
        full = spacetime_norm_X(traj, 0.1)
        half = spacetime_norm_X(traj.restricted(0.0, 1.0), 0.1)
        assert half <= full + 1e-12

    def test_rejects_empty_trajectory(self, grid_small):
        traj = TrajectorySamples(grid_small, [0.0, 0.1],
                                 np.zeros((grid_small.n, 2)))
        with pytest.raises(ValueError, match="empty trajectory"):
            spacetime_norm_X(traj.restricted(0.5, 0.6), 0.1)

    def test_homogeneous(self, grid_small, rng):
        f, traj = self.make_const_traj(grid_small, rng)
        scaled = TrajectorySamples(grid_small, traj.times, 3.0 * traj.values)
        assert spacetime_norm_X(scaled, 0.1) == pytest.approx(
            3.0 * spacetime_norm_X(traj, 0.1), rel=1e-12)

    def test_delta_range_enforced(self, grid_small):
        traj = TrajectorySamples(grid_small, [0.0],
                                 np.zeros((grid_small.n, 1)))
        for bad in (-0.1, DELTA_STAR, 0.9):
            with pytest.raises(ValueError):
                spacetime_norm_X(traj, bad)

    def test_dual_norm_runs(self, grid_small, rng):
        f, traj = self.make_const_traj(grid_small, rng)
        val = spacetime_norm_X(traj, 0.2, dual=True)
        p = 1.0 / (0.5 + (1.0 - 0.2) / 4.0)
        assert val == pytest.approx(np.sqrt(2.0) * besov_norm(f, -0.2, p, 2),
                                    rel=1e-10)

    def test_rejects_unsorted_times(self, grid_small):
        n = grid_small.n
        for times in ([0.0, 0.0], [0.0, np.nan]):
            with pytest.raises(ValueError):
                TrajectorySamples(grid_small, times, np.zeros((n, 2)))
        # the block must be (grid.n, len(times))
        for shape in ((n, 3), (n - 1, 2), (2, n), (n,)):
            with pytest.raises(ValueError):
                TrajectorySamples(grid_small, [0.0, 1.0], np.zeros(shape))


def _cl_inf(f):
    # cL^inf_t L^2 of a constant-in-time trajectory: block-diagonal l^2 sum
    total = 0.0
    for j in dyadic_blocks(f.grid):
        total += lp_norm(lp_project(f, j), 2) ** 2
    return np.sqrt(total)
