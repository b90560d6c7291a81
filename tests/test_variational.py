from dataclasses import fields

import numpy as np
import pytest
from scipy.integrate import quad

from zakharov4d.grid import (SPHERE_S3, GridError, RadialField, RadialGrid,
                             field, lp_norm, make_grid)
from zakharov4d.variational import (
    ABOVE_THRESHOLD,
    BLOWUP_SIDE,
    ES_W_EXACT,
    MASS_THRESHOLD_EXACT,
    SCATTERING_SIDE,
    W4_4_EXACT,
    check_dichotomy_equivalence,
    check_estK,
    deformation_curve_nu,
    deformation_curve_scaling,
    dilated_w,
    energy_report,
    functionals,
    gaussian_field,
    gaussian_mass,
    ground_state,
    nehari_K,
    nls_energy,
    sample_generator,
    w_field,
    w_profile,
    zakharov_energy,
)


@pytest.fixture(scope="module")
def gs(grid_w):
    return ground_state(grid_w)


def es_lambda_w(lam):
    # closed form E_S(lam W) = (32 pi^2/3)(lam^2/2 - lam^4/4)
    return W4_4_EXACT * (lam**2 / 2.0 - lam**4 / 4.0)


class TestGroundState:
    def test_pointwise_values(self):
        assert w_profile(0.0) == 1.0
        assert w_profile(np.sqrt(8.0)) == pytest.approx(0.5, rel=1e-14)
        assert w_profile(4.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_constants(self, gs):
        assert gs.W4_4 == pytest.approx(W4_4_EXACT, rel=1e-6)
        assert gs.grad_W_sq == pytest.approx(W4_4_EXACT, rel=1e-10)
        assert gs.mass_threshold == pytest.approx(MASS_THRESHOLD_EXACT, rel=1e-6)
        assert gs.E_S_W == pytest.approx(ES_W_EXACT, rel=1e-5)
        assert gs.C_S == pytest.approx(W4_4_EXACT**-0.25, rel=1e-8)
        # numeric anchors
        assert abs(W4_4_EXACT - 105.2758) < 1e-3
        assert abs(MASS_THRESHOLD_EXACT - 10.2604) < 1e-3
        assert abs(ES_W_EXACT - 26.3190) < 1e-3

    def test_invariant_chain(self, gs):
        assert gs.grad_W_sq == pytest.approx(gs.W4_4, rel=1e-5)
        assert gs.grad_W_sq == pytest.approx(gs.C_S**-4, rel=1e-5)
        assert gs.grad_W_sq == pytest.approx(4 * gs.E_S_W, rel=1e-5)
        assert gs.mass_threshold**2 == pytest.approx(gs.W4_4, rel=1e-5)

    def test_gradient_identity_by_quadrature(self):
        # ground_state takes |grad W|_2^2 as the closed form |W|_4^4; check
        # it against quadrature of |W'(r)|^2 = r^2 W^4 / 16 on [0, inf)
        tail, _ = quad(lambda r: (r * r / 16.0) * w_profile(r) ** 4 * r**3,
                       0.0, np.inf, limit=200)
        assert SPHERE_S3 * tail == pytest.approx(W4_4_EXACT, rel=1e-10)

    def test_grad_w_is_the_closed_form(self, gs):
        assert gs.grad_W_sq == W4_4_EXACT

    def test_static_equation_interior(self, grid_w):
        from zakharov4d.grid import op_laplacian
        wt = w_field(grid_w, truncated=True)
        lap = op_laplacian(wt)
        mask = grid_w.interior_mask()
        w = w_profile(grid_w.r_nodes)
        assert np.abs(lap.values + w**3)[mask].max() < 1e-6


class TestFunctionals:
    def test_ground_state_pair(self, grid_w):
        wt = w_field(grid_w, truncated=True)
        wsq = RadialField(grid_w, wt.values**2)
        rep = functionals(wt, wsq)
        assert rep.energy_Z == pytest.approx(ES_W_EXACT, rel=0.01)
        assert rep.energy_S == pytest.approx(ES_W_EXACT, rel=0.01)
        assert abs(rep.K) < 0.01 * W4_4_EXACT
        assert rep.nu_L2 < 1e-12

    def test_zero_u(self, grid_small):
        N = gaussian_field(grid_small, 0.7, 1.5)
        u = field(grid_small, np.zeros(grid_small.n))
        rep = functionals(u, N)
        assert rep.energy_S == 0.0
        assert rep.nu_L2 == pytest.approx(rep.N_L2, rel=1e-12)
        assert rep.energy_Z == pytest.approx(rep.nu_L2**2 / 4.0, rel=1e-10)

    def test_energy_identity_random(self, grid_small, rng):
        for _ in range(25):
            u, N = sample_generator("gaussian", grid_small, rng)
            rep = functionals(u, N)
            assert rep.energy_Z == pytest.approx(
                rep.energy_S + rep.nu_L2**2 / 4.0, rel=1e-10)

    def test_direct_energy_evaluation_matches(self, grid_small, rng):
        # E_Z = (1/2) * integral (|grad u|^2 + |N|^2/2 - Re N |u|^2)
        u, N = sample_generator("gaussian", grid_small, rng)
        rep = functionals(u, N)
        assert zakharov_energy(u, N) == pytest.approx(rep.energy_Z, rel=1e-10)

    def test_scaled_w_K(self, grid_w):
        # truncation biases |grad W_t|^2 by ~2e-3 on this grid; the closed
        # form holds to that accuracy
        lam = 0.5
        wt = w_field(grid_w, truncated=True)
        k = nehari_K(lam * wt)
        assert k == pytest.approx(W4_4_EXACT * (lam**2 - lam**4), rel=5e-3)
        assert k == pytest.approx(2 * np.pi**2, rel=5e-3)

    def test_mass_scaling(self, grid_small):
        u = gaussian_field(grid_small, 0.5, 1.3)
        m1 = functionals(u, field(grid_small, np.zeros(grid_small.n))).mass
        m2 = functionals(2.0 * u, field(grid_small, np.zeros(grid_small.n))).mass
        assert m2 == pytest.approx(4.0 * m1, rel=1e-12)
        assert m1 == pytest.approx(gaussian_mass(0.5, 1.3), rel=1e-8)

    def test_K_dilation_scaling(self, grid_medium):
        # L^2 dilation u_mu = mu^2 u(mu x): K = mu^2 |grad u|^2 - mu^4 |u|_4^4,
        # verified by resampling a profile the grid represents exactly
        from zakharov4d.grid import gradient_norm_sq
        g = grid_medium
        base = gaussian_field(g, 0.6, 1.4)
        g2, w4 = gradient_norm_sq(base), lp_norm(base, 4) ** 4
        for mu in (0.8, 1.25, 2.0):
            resampled = field(g, mu**2 * 0.6
                              * np.exp(-((mu * g.r_nodes) ** 2) / (2 * 1.4**2)))
            expected = mu**2 * g2 - mu**4 * w4
            assert nehari_K(resampled) == pytest.approx(expected, rel=1e-4)

    def test_classification_sides(self, grid_w):
        wt = w_field(grid_w, truncated=True)
        wsq = RadialField(grid_w, wt.values**2)
        lo = functionals(*deformation_curve_scaling(wt, wsq, 0.5))
        hi = functionals(*deformation_curve_scaling(wt, wsq, 1.1))
        assert lo.classification == SCATTERING_SIDE
        assert hi.classification == BLOWUP_SIDE
        at = functionals(*deformation_curve_scaling(wt, wsq, 1.0))
        assert at.classification == ABOVE_THRESHOLD


class TestEnergyReport:
    def test_block_equals_one_column_calls(self, grid_small, rng):
        g = grid_small
        pairs = [sample_generator(kind, g, rng) for kind in
                 ("gaussian", "mixture", "scaled_w", "curve_nu", "gaussian")]
        u = np.column_stack([p[0].values for p in pairs])
        N = np.column_stack([p[1].values for p in pairs])
        spec = g.to_spectral_values(u)
        block = energy_report(g, spec, u, N)
        for j in range(u.shape[1]):
            one = energy_report(g, spec[:, j], u[:, j], N[:, j])
            for f in fields(one):
                assert getattr(block, f.name)[j] == getattr(one, f.name), f.name

    def test_refuses_non_finite_samples(self, grid_small):
        u = gaussian_field(grid_small, 0.4, 1.2)
        N = gaussian_field(grid_small, 0.3, 1.5)
        bad_N = N.copy()
        bad_N.values[5] = np.nan
        with pytest.raises(GridError):
            functionals(u, bad_N)
        with pytest.raises(GridError):
            check_dichotomy_equivalence([(u, N), (u, bad_N)])

    def test_refuses_mixed_grids(self):
        near, far = make_grid(64, 20.0), make_grid(64, 30.0)
        u_near, u_far = gaussian_field(near, 0.4, 1.2), gaussian_field(far, 0.4, 1.2)
        N_far = gaussian_field(far, 0.3, 1.5)
        with pytest.raises(GridError):
            functionals(u_near, N_far)
        with pytest.raises(GridError):
            check_dichotomy_equivalence([(u_far, N_far), (u_near, N_far)])
        with pytest.raises(GridError):
            check_estK([(u_far, 0.0), (u_near, 0.0)])
        empty = check_dichotomy_equivalence([])
        assert (empty.checked, empty.skipped, empty.agreements,
                empty.indeterminate, empty.counterexamples) == (0, 0, 0, 0, [])
        est = check_estK([])
        assert (est.checked, est.skipped, est.violations) == (0, 0, [])

    def test_one_kernel_pass_per_call(self, grid_small, rng, monkeypatch):
        # a physical pair takes one forward pass of u, and a harness one
        # pass of its whole u block, whatever the sample count
        calls = []
        original = RadialGrid._kernel_apply

        def counted(grid, columns):
            calls.append(columns.shape)
            return original(grid, columns)

        monkeypatch.setattr(RadialGrid, "_kernel_apply", counted)
        pairs = [sample_generator("gaussian", grid_small, rng)
                 for _ in range(40)]
        functionals(*pairs[0])
        assert len(calls) == 1
        for harness, samples in (
                (check_dichotomy_equivalence, pairs),
                (check_estK, [(u, 0.0) for u, _ in pairs])):
            calls.clear()
            harness(samples)
            assert calls == [(grid_small.n, len(pairs))], harness.__name__


class TestPositivity:
    def test_schrodinger_operator_positivity(self, grid_small, rng):
        # <(-Lap - Re N) phi | phi> >= (1 - |N|_2/threshold) |grad phi|^2
        from zakharov4d.grid import gradient_norm_sq, SPHERE_S3
        for _ in range(40):
            phi, N = sample_generator("gaussian", grid_small, rng)
            n2 = lp_norm(N, 2)
            if n2 >= MASS_THRESHOLD_EXACT:
                N = (0.9 * MASS_THRESHOLD_EXACT / n2) * N
                n2 = lp_norm(N, 2)
            w = grid_small.quad_weights_r
            cross = SPHERE_S3 * np.sum(
                w * np.real(N.values) * np.abs(phi.values) ** 2)
            quad_form = gradient_norm_sq(phi) - cross
            bound = (1 - n2 / MASS_THRESHOLD_EXACT) * gradient_norm_sq(phi)
            assert quad_form >= bound - 1e-8 * max(1.0, abs(bound))


class TestDichotomyEquivalence:
    def make_samples(self, grid, rng, count):
        samples = []
        while len(samples) < count:
            kind = rng.choice(["gaussian", "mixture", "scaled_w",
                               "curve_scaling", "curve_nu"])
            u, N = sample_generator(str(kind), grid, rng)
            samples.append((u, N))
        return samples

    def test_thousand_samples_agree(self, grid_small, rng):
        report = check_dichotomy_equivalence(
            self.make_samples(grid_small, rng, 1000))
        assert report.checked > 400  # enough survive the energy constraint
        assert report.all_agree, report.counterexamples[:3]

    def test_half_w_consistent(self, grid_w):
        wt = w_field(grid_w, truncated=True)
        wsq = RadialField(grid_w, wt.values**2)
        pair = deformation_curve_scaling(wt, wsq, 0.5)
        rep = functionals(*pair)
        assert rep.K > 0 and rep.N_L2 < MASS_THRESHOLD_EXACT
        assert rep.N_L2 == pytest.approx(0.25 * MASS_THRESHOLD_EXACT, rel=1e-3)
        out = check_dichotomy_equivalence([pair])
        assert out.agreements == 1

    def test_above_one_consistent(self, grid_w):
        wt = w_field(grid_w, truncated=True)
        wsq = RadialField(grid_w, wt.values**2)
        pair = deformation_curve_scaling(wt, wsq, 1.1)
        rep = functionals(*pair)
        # E_S(lam W) < E_S(W) for lam != 1 and nu = 0 keeps E_Z below
        assert rep.energy_Z < ES_W_EXACT
        assert rep.K < 0 and rep.N_L2 > MASS_THRESHOLD_EXACT
        out = check_dichotomy_equivalence([pair])
        assert out.agreements == 1

    def test_classifier_invariant_along_curves(self, grid_small, rng):
        # sign of K stays put along both deformation curves while E_Z < E_S(W)
        for _ in range(10):
            u, N = sample_generator("gaussian", grid_small, rng)
            for curve in (deformation_curve_scaling, deformation_curve_nu):
                signs = set()
                for lam in np.linspace(0.4, 1.0, 7):
                    uu, NN = curve(u, N, lam)
                    rep = functionals(uu, NN)
                    if rep.energy_Z < ES_W_EXACT and rep.classification in (
                            SCATTERING_SIDE, BLOWUP_SIDE):
                        signs.add(rep.classification)
                assert len(signs) <= 1

    def test_nu_invariant_along_nu_curve(self, grid_small, rng):
        u, N = sample_generator("gaussian", grid_small, rng)
        base = functionals(u, N).nu_L2
        for lam in (0.3, 0.7, 1.6):
            rep = functionals(*deformation_curve_nu(u, N, lam))
            assert rep.nu_L2 == pytest.approx(base, rel=1e-12)

    def test_scaling_curve_identity_at_one(self, grid_small, rng):
        u, N = sample_generator("gaussian", grid_small, rng)
        uu, NN = deformation_curve_scaling(u, N, 1.0)
        assert np.array_equal(uu.values, u.values)
        assert np.array_equal(NN.values, N.values)


class TestEstK:
    def test_a_zero_trivial(self, grid_small, rng):
        samples = []
        for _ in range(20):
            phi = sample_generator("gaussian", grid_small, rng)[0]
            while nls_energy(phi) > ES_W_EXACT:
                phi = 0.5 * phi
            samples.append((phi, 0.0))
        rep = check_estK(samples)
        assert rep.clean and rep.checked == 20

    def test_lambda_w_extremal(self, grid_w):
        # a at the admissible boundary: margins collapse to zero exactly
        wt = w_field(grid_w, truncated=True)
        samples = []
        for lam in (0.3, 0.5, 0.7, 0.9):
            phi = lam * wt
            a_max = np.sqrt(max(4.0 * (ES_W_EXACT - nls_energy(phi)), 0.0))
            samples.append((phi, a_max))
        rep = check_estK(samples, slack=1e-4)
        assert rep.checked == 4
        assert rep.clean, rep.violations
        # closed-form anchor: a_max = threshold * (1 - lam^2) for truncated W
        lam = 0.5
        a_exact = MASS_THRESHOLD_EXACT * (1 - lam**2)
        a_grid = np.sqrt(4.0 * (ES_W_EXACT - nls_energy(lam * wt)))
        assert a_grid == pytest.approx(a_exact, rel=2e-3)

    def test_500_random_admissible(self, grid_small, rng):
        samples = []
        while len(samples) < 500:
            if rng.uniform() < 0.5:
                phi = sample_generator("gaussian", grid_small, rng)[0]
            else:
                phi = dilated_w(grid_small, scale=rng.uniform(0.2, 1.0),
                                mu=rng.uniform(0.6, 1.6))
            room = ES_W_EXACT - nls_energy(phi)
            if room <= 0:
                continue
            a = rng.uniform(0.0, 1.0) * np.sqrt(4.0 * room)
            samples.append((phi, a))
        rep = check_estK(samples)
        assert rep.checked == 500
        assert rep.clean, rep.violations[:3]


class TestSampleGenerator:
    def test_unknown_kind(self, grid_small, rng):
        with pytest.raises(ValueError):
            sample_generator("nope", grid_small, rng)

    def test_gaussian_mass_oracle(self, grid_small, rng):
        u = gaussian_field(grid_small, 0.4, 1.2)
        assert lp_norm(u, 2) ** 2 == pytest.approx(gaussian_mass(0.4, 1.2),
                                                   rel=1e-8)
