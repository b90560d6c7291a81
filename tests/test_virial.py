from dataclasses import fields

import numpy as np
import pytest

from zakharov4d.grid import (
    RadialField,
    RadialGrid,
    SPECTRAL,
    field,
    inner,
    low_frequency_fraction,
    lp_norm,
    make_grid,
    op_D_inverse,
    transform,
)
from zakharov4d.dyadic import TrajectorySamples, chi0
from zakharov4d.dynamics import FULL, FREE, IntegratorConfig, ZakharovState, run
from zakharov4d.variational import (
    W4_4_EXACT,
    gaussian_field,
    nehari_K,
    w_field,
)
from zakharov4d.virial import (
    StrideError,
    VirialWeights,
    apply_As,
    bilinear_commutator_beta,
    commutator_brace,
    rate_check,
    virial_values,
)


@pytest.fixture(scope="module")
def wgrid():
    return make_grid(1024, 100.0)


@pytest.fixture(scope="module")
def weights10(wgrid):
    return VirialWeights(wgrid, 10.0)


@pytest.fixture(scope="module")
def smooth_run():
    g = make_grid(512, 50.0)
    u0 = gaussian_field(g, 0.4, 1.5, chirp=0.15)
    N0 = gaussian_field(g, 0.3, 2.0)
    cfg = IntegratorConfig(dt=5e-4, mode=FULL, store_every=20,
                           monitor_every=200)
    return g, run(ZakharovState(u0, N0), cfg, 0.2)


class TestWeights:
    def test_defining_relations_analytic(self, weights10):
        for name, res in weights10.defining_relation_residuals().items():
            assert res < 1e-10, name

    def test_defining_relations_numeric_operators(self, weights10):
        for name, res in weights10.numeric_relation_residuals().items():
            assert res < 1e-8, name

    def test_positivity(self, weights10):
        margins = weights10.positivity_margins()
        for name in ("f1", "f2", "f3", "f4", "f5"):
            assert margins[name] > 0, name
        assert margins["f5_upper_ratio"] < 5.0

    def test_h_closed_form(self, wgrid, weights10):
        # h = A_{d-1} psi_R computed by the numeric operator matches
        # (3.5 psi - x^2 psi^3)(r/R)
        h_num = apply_As(wgrid, weights10.psi, 3.0)
        mask = wgrid.interior_mask()
        assert np.abs(h_num - weights10.h)[mask].max() < 1e-8

    def test_rejects_bad_scale(self, wgrid):
        with pytest.raises(ValueError):
            VirialWeights(wgrid, 0.0)


class TestApplyAs:
    def test_monomial(self, grid_medium):
        # A_0 r^2 = r (2 r) + 2 r^2 = 4 r^2; 5-point stencils are exact on
        # polynomials of degree <= 4
        out = apply_As(grid_medium, grid_medium.r_nodes**2, 0.0)
        assert np.abs(out - 4.0 * grid_medium.r_nodes**2).max() < 1e-8

    def test_constant(self, grid_medium):
        c = 2.5
        f = np.full(grid_medium.n, c)
        for s in (-2.0, 0.0, 1.0):
            out = apply_As(grid_medium, f, s)
            assert np.allclose(out, (4.0 + s) / 2.0 * c, atol=1e-10)


class TestCommutatorBrace:
    def test_unit_weight_vanishes(self, grid_medium, rng):
        spec = np.zeros(grid_medium.n, dtype=complex)
        spec[20:200] = rng.standard_normal(180)
        g = transform(RadialField(grid_medium, spec, SPECTRAL))
        out = commutator_brace(grid_medium, np.ones(grid_medium.n), g.values)
        assert lp_norm(field(grid_medium, out), 2) < 1e-10 * lp_norm(g, 2)

    def test_constant_weight_vanishes(self, grid_medium, rng):
        spec = np.zeros(grid_medium.n, dtype=complex)
        spec[20:200] = rng.standard_normal(180)
        g = transform(RadialField(grid_medium, spec, SPECTRAL))
        out = commutator_brace(grid_medium, np.full(grid_medium.n, 3.7),
                               g.values)
        assert lp_norm(field(grid_medium, out), 2) < 1e-10 * lp_norm(g, 2)

    def test_smallness_improves_with_R(self, grid_medium):
        g = gaussian_field(grid_medium, 0.5, 2.0)
        norms = []
        for R in (5.0, 10.0, 20.0):
            w = VirialWeights(grid_medium, R)
            out = commutator_brace(grid_medium, w.psi, g.values)
            norms.append(lp_norm(field(grid_medium, out), 2))
        assert norms[0] > norms[1] > norms[2]


class TestBeta:
    @pytest.fixture(scope="class")
    def bgrid(self):
        return make_grid(512, 40.0)

    def single_block(self, g, j=2.0):
        spec = (chi0(g.rho_nodes / j)
                * np.exp(-((g.rho_nodes - j) ** 2))).astype(complex)
        return transform(RadialField(g, spec, SPECTRAL))

    def test_symmetry(self, bgrid):
        f = self.single_block(bgrid, 2.0)
        g2 = self.single_block(bgrid, 4.0)
        w = VirialWeights(bgrid, 10.0)
        assert bilinear_commutator_beta(f, g2, w) == pytest.approx(
            bilinear_commutator_beta(g2, f, w), abs=1e-12)

    def test_constant_weight_kills_beta(self, bgrid):
        f = self.single_block(bgrid)
        w = VirialWeights(bgrid, 10.0)
        const_h = VirialWeights(bgrid, 10.0)
        const_h.h = np.full(bgrid.n, 3.5)
        base = abs(bilinear_commutator_beta(f, f, w))
        flat = abs(bilinear_commutator_beta(f, f, const_h))
        # <D f | D g> = <grad f | grad g> up to FD/quadrature error
        assert flat < 1e-4 * lp_norm(f, 2) * np.sqrt(
            np.abs(inner(f, f)))
        assert flat < 0.05 * base

    def test_R_decay_trend(self, bgrid):
        # |beta_R| <= C R^{-1} |f|_2 |grad f|_2 with the measured decay at
        # least as fast as R^{-0.7}; concentrated smooth packets do not
        # saturate the R^{-1} bound (they see only the second-order
        # variation of h_R and decay ~R^{-2})
        from zakharov4d.grid import gradient_norm_sq
        f = self.single_block(bgrid, 2.0)
        n2 = lp_norm(f, 2)
        gn = np.sqrt(gradient_norm_sq(f))
        Rs = np.array([5.0, 10.0, 20.0, 40.0])
        vals = np.array([abs(bilinear_commutator_beta(f, f, VirialWeights(bgrid, R)))
                         for R in Rs])
        assert np.all(vals * Rs / (n2 * gn) < 2.0)
        slope = np.polyfit(np.log(Rs), np.log(vals), 1)[0]
        assert slope <= -0.7


class TestVirialValues:
    def test_real_data_zero_wave_has_no_flux(self, wgrid, weights10):
        u = w_field(wgrid, truncated=True)   # real-valued
        N = field(wgrid, np.zeros(wgrid.n))
        b = virial_values(u.values, N.values, weights10)
        scale = W4_4_EXACT
        assert abs(b.V_R) < 1e-10 * scale
        assert abs(b.V_inf) < 1e-10 * scale

    def test_static_ground_state_rates_vanish(self, wgrid, weights10):
        wt = w_field(wgrid, truncated=True)
        b = virial_values(wt.values, wt.values**2, weights10)
        # K(W) = 0 and nu = 0: both rates vanish within truncation tolerance
        assert abs(b.rate_inf) < 0.01 * 4.0 * W4_4_EXACT
        assert abs(b.rate_R) < 0.01 * 4.0 * W4_4_EXACT
        assert b.nu_L2 < 1e-12

    def test_rate_inf_formula(self, wgrid, weights10, rng):
        u = gaussian_field(wgrid, 0.5, 1.5, chirp=0.1)
        N = gaussian_field(wgrid, 0.4, 2.0)
        b = virial_values(u.values, N.values, weights10)
        nu = np.real(N.values) - np.abs(u.values) ** 2
        pairing = 2 * np.pi**2 * np.sum(
            wgrid.quad_weights_r * nu * np.abs(u.values) ** 2)
        expected = (4 * nehari_K(u)
                    + lp_norm(RadialField(wgrid, nu), 2) ** 2 - 3 * pairing)
        assert b.rate_inf == pytest.approx(expected, rel=1e-10)

    def test_eta_low_fraction_is_etas(self, wgrid, weights10):
        # the low-mode share of eta = D^{-1} nu (0.055 here), not of nu
        u = gaussian_field(wgrid, 0.5, 1.5, chirp=0.1)
        N = gaussian_field(wgrid, 0.4, 2.0)
        b = virial_values(u.values, N.values, weights10)
        nu = RadialField(wgrid, N.values - np.abs(u.values) ** 2)
        expected, _ = low_frequency_fraction(op_D_inverse(nu))
        assert b.eta_low_fraction == pytest.approx(expected, rel=1e-10)

    def test_ns_cross_check_identity(self, wgrid, weights10):
        # NS = 4 K(f0_R u) + int |u/R|^2 f2_R - |u|^4 f3_R for radial u
        for amp, width in ((0.5, 1.5), (0.3, 3.0)):
            u = gaussian_field(wgrid, amp, width, chirp=0.05)
            b = virial_values(u.values, np.zeros(wgrid.n), weights10)
            f0u = RadialField(wgrid, weights10.f0 * u.values)
            alt = (4.0 * nehari_K(f0u)
                   + 2 * np.pi**2 * np.sum(wgrid.quad_weights_r * (
                       np.abs(u.values / weights10.R) ** 2 * weights10.f2
                       - np.abs(u.values) ** 4 * weights10.f3)))
            assert b.NS == pytest.approx(alt, rel=1e-4)

    def test_grid_mismatch(self, wgrid, grid_small, weights10):
        u = gaussian_field(grid_small, 0.1, 1.0)
        with pytest.raises(ValueError):
            virial_values(u.values, u.values, weights10)


class TestBlockEvaluation:
    def test_block_matches_one_column_calls(self, smooth_run):
        g, log = smooth_run
        w = VirialWeights(g, 10.0)
        u, N = log.traj_u.values, log.traj_N.values
        block = virial_values(u, N, w)
        columns = [virial_values(u[:, k], N[:, k], w)
                   for k in range(u.shape[1])]
        for f in fields(block):
            got = getattr(block, f.name)
            ref = np.concatenate([getattr(c, f.name) for c in columns])
            assert got.shape == ref.shape == (u.shape[1],), f.name
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), f.name

    def test_rate_check_passes_do_not_grow_with_samples(self, smooth_run,
                                                        monkeypatch):
        g, log = smooth_run
        w = VirialWeights(g, 10.0)
        calls = []
        original = RadialGrid._kernel_apply

        def counted(grid, columns):
            calls.append(columns.shape)
            return original(grid, columns)

        monkeypatch.setattr(RadialGrid, "_kernel_apply", counted)
        counts = []
        for S in (5, 11):
            head = [TrajectorySamples(g, t.times[:S], t.values[:, :S], t.role)
                    for t in (log.traj_u, log.traj_N)]
            calls.clear()
            rate_check(*head, w)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 6


class TestRateCheck:
    def test_smooth_full_mode_run(self, smooth_run):
        g, log = smooth_run
        rep = rate_check(log.traj_u, log.traj_N, VirialWeights(g, 10.0))
        assert rep.max_mismatch_R < 1e-4
        assert rep.max_mismatch_inf < 1e-4

    def test_imaginary_wave_part(self):
        # N(0) = G + iG: Im N = -D^{-1} d_t n enters V_R and both rates
        g = make_grid(512, 50.0)
        u0 = gaussian_field(g, 0.4, 1.5, chirp=0.15)
        G = gaussian_field(g, 0.3, 2.0).values
        cfg = IntegratorConfig(dt=5e-4, mode=FULL, store_every=20,
                               monitor_every=200)
        log = run(ZakharovState(u0, RadialField(g, G + 1j * G)), cfg, 0.2)
        rep = rate_check(log.traj_u, log.traj_N, VirialWeights(g, 10.0))
        assert rep.max_mismatch_R < 1e-3
        assert rep.max_mismatch_inf < 1e-3

    def test_free_mode_reduced_identity(self):
        # N = 0 free flow: dV_inf/dt = 4 K(u)
        g = make_grid(384, 50.0)
        u0 = gaussian_field(g, 0.4, 1.5, chirp=-0.1)
        cfg = IntegratorConfig(dt=5e-4, mode=FREE, store_every=20,
                               monitor_every=400)
        log = run(ZakharovState(u0, field(g, np.zeros(g.n))), cfg, 0.2)
        rep = rate_check(log.traj_u, log.traj_N, VirialWeights(g, 10.0))
        assert rep.max_mismatch_inf < 0.01
        # with N = 0 the nu-terms cancel the quartic part of K exactly:
        # rate_inf = 4 K + |u|_4^4 + 3 |u|_4^4 = 4 |grad u|_2^2
        from zakharov4d.grid import gradient_norm_sq
        grads = np.array([4 * gradient_norm_sq(RadialField(g, uu))
                          for uu in log.traj_u.values.T[1:-1]])
        assert np.allclose(rep.rate_inf, grads, rtol=1e-8)

    def test_static_state_rates_near_zero(self, wgrid, weights10):
        wt = w_field(wgrid, truncated=True).values
        times = np.linspace(0, 0.04, 6)
        tu = TrajectorySamples(wgrid, times, np.repeat(wt[:, None], 6, 1), "u")
        tN = TrajectorySamples(wgrid, times, np.repeat(wt[:, None] ** 2, 6, 1),
                               "N")
        rep = rate_check(tu, tN, weights10)
        assert np.abs(rep.fd_V_R).max() < 1e-10
        assert np.abs(rep.rate_R).max() < 0.01 * 4 * W4_4_EXACT

    def test_grid_mismatch_rejected(self, smooth_run):
        # same n, other r_max: the columns would be read on the wrong radii
        g, log = smooth_run
        other = VirialWeights(make_grid(g.n, 25.0), 10.0)
        with pytest.raises(ValueError, match="different grids"):
            rate_check(log.traj_u, log.traj_N, other)

    def test_coarse_stride_detected(self):
        # strongly chirped data sampled once per unit time: the centered
        # differences at strides h and 2h disagree and the guard fires
        g = make_grid(256, 40.0)
        u0 = gaussian_field(g, 0.7, 1.0, chirp=1.5)
        N0 = gaussian_field(g, 0.5, 1.5)
        cfg = IntegratorConfig(dt=1e-3, mode=FULL, store_every=1000,
                               monitor_every=2000)
        log = run(ZakharovState(u0, N0), cfg, 10.0)
        with pytest.raises(StrideError):
            rate_check(log.traj_u, log.traj_N, VirialWeights(g, 10.0))

    def test_too_few_samples(self, wgrid, weights10):
        wt = w_field(wgrid, truncated=True).values
        tu = TrajectorySamples(wgrid, [0.0, 0.1], np.repeat(wt[:, None], 2, 1),
                               "u")
        with pytest.raises(ValueError):
            rate_check(tu, tu, weights10)

    def test_mismatched_times_rejected(self, smooth_run):
        # same columns, N's times shifted by a quarter stride: the pairs
        # would be matched at the wrong instants
        g, log = smooth_run
        tN = log.traj_N
        shifted = TrajectorySamples(g, tN.times + 0.25 * np.diff(tN.times)[0],
                                    tN.values, "N")
        with pytest.raises(ValueError, match="share sample times"):
            rate_check(log.traj_u, shifted, VirialWeights(g, 10.0))


class TestLeadingTermBound:
    def test_below_threshold_monotonicity(self, smooth_run):
        # V-dot_inf(u f0_R, nu f0_R) >= 2 C_S^2 eps |u f0_R|_4^2
        #                                + |nu f0_R|_2^2 - tolerance
        from zakharov4d.variational import ES_W_EXACT, functionals
        g, log = smooth_run
        w = VirialWeights(g, 10.0)
        cs_sq = 1.0 / np.sqrt(W4_4_EXACT)
        for uu, NN in zip(log.traj_u.values.T, log.traj_N.values.T):
            uu, NN = RadialField(g, uu), RadialField(g, NN)
            rep = functionals(uu, NN)
            eps = ES_W_EXACT - rep.energy_Z
            if eps <= 0 or rep.K < 0:
                continue
            uf = RadialField(g, w.f0 * uu.values)
            nu = np.real(NN.values) - np.abs(uu.values) ** 2
            nuf = RadialField(g, w.f0 * nu)
            pairing = 2 * np.pi**2 * np.sum(
                g.quad_weights_r * w.f0**2 * nu * np.abs(uu.values) ** 2)
            vdot = (4 * nehari_K(uf) + lp_norm(nuf, 2) ** 2 - 3 * pairing)
            bound = 2 * cs_sq * eps * lp_norm(uf, 4) ** 2 + lp_norm(nuf, 2) ** 2
            assert vdot >= bound - 0.05 * abs(bound)


class TestL4Tail:
    def test_propagation_bound(self):
        g = make_grid(256, 40.0)
        u0 = gaussian_field(g, 0.6, 1.5)
        N0 = gaussian_field(g, 0.3, 2.0)
        cfg = IntegratorConfig(dt=2e-3, mode=FULL, store_every=50,
                               monitor_every=50)
        T = 2.0
        log = run(ZakharovState(u0, N0), cfg, T)
        R = 10.0
        w = VirialWeights(g, R)
        tail = [2 * np.pi**2 * np.sum(g.quad_weights_r * np.abs(uu) ** 4
                                      * w.La)
                for uu in log.traj_u.values.T]
        grad_max = max(np.asarray(log.grad_u))
        slope = (max(tail) - tail[0]) * R**2 / T
        assert slope <= 10.0 * grad_max**4
