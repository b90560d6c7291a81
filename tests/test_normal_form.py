import numpy as np
import pytest
from scipy import integrate

from zakharov4d.grid import (
    FOURIER_NORM,
    GridError,
    RadialField,
    RadialGrid,
    SPECTRAL,
    lp_norm,
    make_grid,
    op_D,
    to_physical,
    to_spectral,
    transform,
    zero_field,
)
from zakharov4d import normal_form
from zakharov4d.dyadic import block_sum, chi0, dyadic_blocks
from zakharov4d.normal_form import (
    LIVE_BLOCK_RTOL,
    AngularQuadrature,
    BilinearKernelSpec,
    KernelError,
    NonContractionError,
    OMEGA_MINUS,
    OMEGA_PLUS,
    OMEGA_TILDE,
    angular_convergence_defect,
    apply_bilinear,
    _block_ranges,
    _corrections,
    _hl,
    hh_product,
    hl_product,
    lh_product,
    normal_inverse,
    normal_transform,
    omega,
    omega_tilde,
    omega_tilde_self_spectra,
)


@pytest.fixture(scope="module")
def kgrid():
    # resolves dyadic blocks up to 128 for the gain sweep
    return make_grid(1024, 12.0)


@pytest.fixture(scope="module")
def ogrid():
    # finer low-frequency spacing for quadrature-oracle comparisons
    return make_grid(512, 25.0)


def block_field(grid, center, width=0.25, amp=1.0):
    """Field with smooth closed-form spectrum amp*exp(-((rho-c)/w)^2/2)."""
    spec = amp * np.exp(-((grid.rho_nodes - center) ** 2) / (2 * width**2))
    return transform(RadialField(grid, spec.astype(complex), SPECTRAL))


def rel_l2(a, b):
    return lp_norm(a - b, 2) / max(lp_norm(b, 2), 1e-300)


def dense_bilinear(spec, f, g, quad):
    """Reference for apply_bilinear: every (rho, live sigma, angle) element
    of every HL range, the cutoff masking the ones off the high block's
    support.  The mirrored Omega_tilde pairs (f low, g high) are written
    after eta -> xi - eta: g is read at tau = |xi - eta| on the high block,
    f's lows sit on the sigma grid, and the denominator takes tau and sigma
    swapped."""
    grid = f.grid
    rho = grid.rho_nodes
    fs, gs = to_spectral(f).values, to_spectral(g).values
    out = np.zeros(grid.n, dtype=complex)
    for j, lo, hi in _block_ranges(grid, lambda j, k: _hl(j, k, spec.iota)):
        sides = [(fs, gs, spec.denominator)]
        if spec.kind == OMEGA_TILDE:
            sides.append((gs, fs, lambda r, t, s: spec.denominator(r, s, t)))
        for high_s, low_s, den_of in sides:
            if (np.abs(high_s * block_sum(rho, j, j)).max()
                    <= LIVE_BLOCK_RTOL * np.abs(high_s).max()):
                continue
            low_vals = low_s * block_sum(rho, lo, hi)
            live = np.abs(low_vals) > LIVE_BLOCK_RTOL * np.abs(low_s).max()
            sigma = rho[live][None, :, None]
            low_w = low_vals[live] * grid.quad_weights_rho[live]
            for rows in np.array_split(np.arange(grid.n), grid.n // 32):
                rr = rho[rows][:, None, None]
                tau = np.sqrt(np.maximum(
                    rr**2 + sigma**2 - 2.0 * rr * sigma * quad.nodes, 0.0))
                cut = block_sum(tau, j, j)
                high = cut * (np.interp(tau, rho, high_s.real, left=0.0,
                                        right=0.0)
                              + 1j * np.interp(tau, rho, high_s.imag,
                                               left=0.0, right=0.0))
                den = den_of(rr, tau, sigma)
                integrand = np.where(cut > 0,
                                     high / np.where(cut > 0, den, 1.0), 0.0)
                out[rows] += 4.0 * np.pi * ((integrand @ quad.weights)
                                            @ low_w)
    spectrum = out * FOURIER_NORM**-2
    return transform(RadialField(grid, spectrum, SPECTRAL))


class TestAngularQuadrature:
    def test_polynomial_exactness(self):
        q = AngularQuadrature(8)
        # exact for degree <= 2*8 - 1; integral c^{2m} sqrt(1-c^2) dc
        for m, exact in ((0, np.pi / 2), (1, np.pi / 8), (2, np.pi / 16),
                         (3, 5 * np.pi / 128)):
            got = np.sum(q.weights * q.nodes ** (2 * m))
            assert got == pytest.approx(exact, rel=1e-13)
        odd = np.sum(q.weights * q.nodes**3)
        assert abs(odd) < 1e-15

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_empty_rule(self, bad):
        # an empty rule made every kernel exactly zero
        with pytest.raises(ValueError, match="n_theta"):
            AngularQuadrature(bad)
        assert AngularQuadrature(1).nodes.shape == (1,)

    @pytest.mark.parametrize("bad", [16.5, 8.0, True, np.bool_(True),
                                     np.nan, "8"])
    def test_rejects_non_integer_count(self, bad):
        # 16.5 built 17 nodes under the name 16.5, True built one node, and
        # NaN failed only at first use
        with pytest.raises(ValueError, match="n_theta"):
            AngularQuadrature(bad)
        assert AngularQuadrature(np.int64(8)).nodes.shape == (8,)


class TestPairRestrictions:
    @pytest.mark.parametrize("iota", [1 / 2, 1 / 4, 1 / 8, 1 / 16])
    @pytest.mark.parametrize("region", ["hl", "hh"])
    @pytest.mark.parametrize("grid_name", ["grid_small", "kgrid"])
    def test_block_ranges_are_exact_runs(self, request, grid_name, region,
                                         iota):
        # each listed (j, lo, hi) covers exactly the partners k with
        # keep(j, k), and every block with a partner is listed once
        g = request.getfixturevalue(grid_name)
        if region == "hl":
            keep = lambda j, k: _hl(j, k, iota)
        else:
            keep = lambda j, k: not (_hl(j, k, iota) or _hl(k, j, iota))
        blocks = dyadic_blocks(g)
        ranges = _block_ranges(g, keep)
        listed = [j for j, _, _ in ranges]
        assert listed == [j for j in blocks if any(keep(j, k) for k in blocks)]
        for j, lo, hi in ranges:
            for k in blocks:
                assert (lo <= k <= hi) == keep(j, k)

    def test_hl_plus_lh_is_product(self, grid_small, rng):
        g = grid_small
        spec = np.zeros(g.n, dtype=complex)
        spec[5:100] = rng.standard_normal(95) + 1j * rng.standard_normal(95)
        f1 = transform(RadialField(g, spec, SPECTRAL))
        spec2 = np.zeros(g.n, dtype=complex)
        spec2[2:60] = rng.standard_normal(58)
        f2 = transform(RadialField(g, spec2, SPECTRAL))
        prod = RadialField(g, to_physical(f1).values * to_physical(f2).values)
        total = hl_product(f1, f2, 1 / 8) + lh_product(f1, f2, 1 / 8)
        assert rel_l2(total, prod) < 1e-9
        # HL, its mirror and HH partition all block pairs
        for iota in (1 / 2, 1 / 4, 1 / 8):
            parts = (hl_product(f1, f2, iota) + hl_product(f2, f1, iota)
                     + hh_product(f1, f2, iota))
            assert rel_l2(parts, prod) < 1e-10

    def test_empty_restriction(self, kgrid):
        # both factors in [1,2]: no pair satisfies iota*j >= max(k,2)
        f = block_field(kgrid, 1.5)
        out = hl_product(f, f, 1 / 8)
        assert lp_norm(out, 2) < 1e-12 * lp_norm(f, 2) ** 2

    def test_pair_enumeration_high_low(self, kgrid):
        # f near 64, g near 2: iota*64 = 8 >= 2, so hl captures the product
        f = block_field(kgrid, 64.0, width=2.0)
        g2 = block_field(kgrid, 2.0, width=0.4)
        hl = hl_product(f, g2, 1 / 8)
        prod = RadialField(kgrid,
                           to_physical(f).values * to_physical(g2).values)
        assert rel_l2(hl, prod) < 1e-6

    def test_hh_excludes_hl(self, kgrid):
        f = block_field(kgrid, 64.0, width=2.0)
        g2 = block_field(kgrid, 2.0, width=0.4)
        hh = hh_product(f, g2, 1 / 8)
        prod = RadialField(kgrid,
                           to_physical(f).values * to_physical(g2).values)
        assert lp_norm(hh, 2) < 1e-6 * lp_norm(prod, 2)


class TestKernelSpec:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            BilinearKernelSpec("omega", 0.1)

    def test_rejects_bad_iota(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                BilinearKernelSpec(OMEGA_PLUS, bad)

    def test_denominator_bounds_on_support(self, rng):
        # sampled (xi, eta) on the (64, 1) support: den in [0.2 k^2, 5 k^2]
        k, l = 64.0, 1.0
        spec = BilinearKernelSpec(OMEGA_PLUS, 1 / 8)
        tau = rng.uniform(k / 2, 2 * k, 4000)
        sigma = rng.uniform(l / 2, 2 * l, 4000)
        c = rng.uniform(-1, 1, 4000)
        rho = np.sqrt(tau**2 + sigma**2 + 2 * tau * sigma * c)
        den = spec.denominator(rho, tau, sigma)
        assert den.min() >= 0.2 * k**2
        assert den.max() <= 5.0 * k**2

    def test_tilde_denominator_scale(self, rng):
        k, l = 32.0, 1.0
        spec = BilinearKernelSpec(OMEGA_TILDE, 1 / 8)
        tau = rng.uniform(k / 2, 2 * k, 4000)
        sigma = rng.uniform(l / 2, 2 * l, 4000)
        c = rng.uniform(-1, 1, 4000)
        rho = np.sqrt(tau**2 + sigma**2 + 2 * tau * sigma * c)
        den = np.abs(spec.denominator(rho, tau, sigma))
        scale = 1 + k**2 + l**2
        assert den.min() > 0.05 * scale
        assert den.max() < 5.0 * scale


class TestApplyBilinear:
    def test_bilinearity_zero(self, kgrid):
        g2 = block_field(kgrid, 2.0)
        out = apply_bilinear(BilinearKernelSpec(OMEGA_PLUS, 1 / 8),
                             zero_field(kgrid), g2)
        assert lp_norm(out, 2) == 0.0

    def test_r_bilinearity(self, kgrid):
        f = block_field(kgrid, 64.0, width=2.0)
        g2 = block_field(kgrid, 1.0, width=0.4)
        quad = AngularQuadrature(24)
        base = omega(f, g2, 1 / 8, quad)
        doubled = omega(2.0 * f, g2, 1 / 8, quad)
        assert rel_l2(doubled, 2.0 * base) < 1e-12
        f2 = block_field(kgrid, 32.0, width=1.0)
        sum_out = omega(RadialField(kgrid, f.values + f2.values), g2, 1 / 8, quad)
        sep = omega(f, g2, 1 / 8, quad)
        sep2 = omega(f2, g2, 1 / 8, quad)
        assert rel_l2(sum_out, RadialField(kgrid, sep.values + sep2.values)) < 1e-12

    def test_real_first_slot_collapses(self, kgrid):
        f = block_field(kgrid, 64.0, width=2.0)  # real-valued physical field
        assert np.abs(to_physical(f).values.imag).max() < 1e-12
        g2 = block_field(kgrid, 1.0, width=0.4)
        quad = AngularQuadrature(24)
        om = omega(f, g2, 1 / 8, quad)
        plus = apply_bilinear(BilinearKernelSpec(OMEGA_PLUS, 1 / 8), f, g2, quad)
        minus = apply_bilinear(BilinearKernelSpec(OMEGA_MINUS, 1 / 8), f, g2, quad)
        half = RadialField(kgrid, 0.5 * (plus.values + minus.values))
        assert rel_l2(om, half) < 1e-12

    @pytest.mark.parametrize("n_theta", [16, 64])
    @pytest.mark.parametrize("kind", [OMEGA_PLUS, OMEGA_MINUS, OMEGA_TILDE])
    @pytest.mark.parametrize("grid_name", ["ogrid", "kgrid"])
    def test_matches_dense_reference(self, request, grid_name, kind, n_theta):
        # each factor holds a high and a low block, so the mirrored
        # omega_tilde sides are live too; on ogrid f is broadband, so the
        # cutoff is live up to the edges of every angle run
        g = request.getfixturevalue(grid_name)
        if grid_name == "ogrid":
            broadband = 0.5 / (1 + g.rho_nodes**2) * (1 + 0.5j)
            f = transform(RadialField(g, broadband, SPECTRAL))
        else:
            f = block_field(g, 40.0, 3.0) + block_field(g, 1.0, 0.4, 0.5j)
        h = block_field(g, 24.0, 2.0, 1j) + block_field(g, 1.5, 0.4)
        spec = BilinearKernelSpec(kind, 1 / 8)
        quad = AngularQuadrature(n_theta)
        out = apply_bilinear(spec, f, h, quad)
        ref = dense_bilinear(spec, f, h, quad)
        assert lp_norm(ref, 2) > 0
        assert rel_l2(out, ref) < 1e-13

    def test_vanishing_denominator_raises(self, ogrid, monkeypatch):
        # f near 8 leaves j = 16 the only live high block, whose cutoff ends
        # at tau = 32; a denominator that vanishes only on tau > 31.99 hits
        # only the last live node of some angle runs
        f = block_field(ogrid, 8.0, 0.8)
        h = block_field(ogrid, 1.0, 0.4)
        spec = BilinearKernelSpec(OMEGA_PLUS, 1 / 8)
        quad = AngularQuadrature(16)
        apply_bilinear(spec, f, h, quad)
        true_den = BilinearKernelSpec.denominator
        monkeypatch.setattr(
            BilinearKernelSpec, "denominator",
            lambda self, rho, tau, sigma: np.where(
                tau > 31.99, 0.0, true_den(self, rho, tau, sigma)))
        with pytest.raises(KernelError):
            apply_bilinear(spec, f, h, quad)
        with pytest.raises(KernelError):
            normal_transform(h, f, 1 / 8, 1 / 8, quad)
        monkeypatch.setattr(BilinearKernelSpec, "denominator",
                            lambda self, rho, tau, sigma: np.zeros(tau.shape))
        for kind in (OMEGA_MINUS, OMEGA_TILDE):
            with pytest.raises(KernelError):
                apply_bilinear(BilinearKernelSpec(kind, 1 / 8), f, h, quad)
        with pytest.raises(KernelError):
            normal_transform(h, f, 1 / 8, 1 / 8, quad)

    def test_vanishing_denominator_off_support_is_ignored(self, ogrid,
                                                          monkeypatch):
        # j = 16's cutoff lives on tau in (8, 32); the boxes also hold
        # elements off that support, where a zero denominator is no
        # resonance and must neither raise nor reach the output
        f = block_field(ogrid, 8.0, 0.8)
        h = block_field(ogrid, 1.0, 0.4)
        quad = AngularQuadrature(16)
        true_den = BilinearKernelSpec.denominator
        outs = {}
        for kind in (OMEGA_PLUS, OMEGA_TILDE):
            spec = BilinearKernelSpec(kind, 1 / 8)
            outs[kind] = apply_bilinear(spec, f, h, quad).values
        monkeypatch.setattr(
            BilinearKernelSpec, "denominator",
            lambda self, rho, tau, sigma: np.where(
                (tau <= 8.0) | (tau >= 32.0), 0.0,
                true_den(self, rho, tau, sigma)))
        for kind, ref in outs.items():
            out = apply_bilinear(BilinearKernelSpec(kind, 1 / 8), f, h, quad)
            assert np.array_equal(out.values, ref)

    def test_rejects_factors_on_different_grids(self):
        # u and N on two grids used to give a correction of norm 0.09
        g1, g2 = RadialGrid(64, 10.0), RadialGrid(64, 20.0)
        f = transform(RadialField(
            g1, (1.0 / (1 + g1.rho_nodes**2)).astype(complex), SPECTRAL))
        h = transform(RadialField(
            g2, (1.0 / (1 + g2.rho_nodes**2)).astype(complex), SPECTRAL))
        quad = AngularQuadrature(8)
        for kind in (OMEGA_PLUS, OMEGA_MINUS, OMEGA_TILDE):
            with pytest.raises(GridError):
                apply_bilinear(BilinearKernelSpec(kind, 1 / 8), f, h, quad)
        with pytest.raises(GridError):
            omega(h, f, 1 / 8, quad)
        with pytest.raises(GridError):
            _corrections(f, h, 1 / 8, 1 / 8, quad)
        with pytest.raises(GridError):
            normal_transform(f, h, 1 / 8, 1 / 8, quad)
        with pytest.raises(GridError):
            normal_inverse(f, h, 1 / 8, 1 / 8, quad=quad)
        # an equal grid built twice is the same grid
        same = RadialField(RadialGrid(64, 10.0), f.values, f.space)
        spec = BilinearKernelSpec(OMEGA_PLUS, 1 / 8)
        assert np.array_equal(apply_bilinear(spec, f, same, quad).values,
                              apply_bilinear(spec, f, f, quad).values)

    def test_adaptive_quadrature_oracle(self, ogrid):
        # one output node checked against an adaptive (sigma, c) integration
        # of the same closed-form spectra
        g = ogrid
        k, l = 16.0, 1.0
        fc, fw = 16.0, 1.5
        gc, gw = 1.0, 0.4
        f = block_field(g, fc, fw)
        gl = block_field(g, gc, gw)
        spec = BilinearKernelSpec(OMEGA_PLUS, 1 / 4)
        out = apply_bilinear(spec, f, gl, AngularQuadrature(96))
        out_spec = to_spectral(out).values

        m = np.argmin(np.abs(g.rho_nodes - 17.0))
        rho_m = g.rho_nodes[m]
        fhat = lambda t: np.exp(-((t - fc) ** 2) / (2 * fw**2))
        ghat = lambda s: np.exp(-((s - gc) ** 2) / (2 * gw**2))

        # HL_{1/4} pairs that can touch these spectra (others are cut off
        # by chi0)
        blocks = dyadic_blocks(g)
        live = [(kk, ll) for kk in blocks for ll in blocks
                if kk / 4 >= max(ll, 2.0)
                and 4 <= kk <= 64 and 0.25 <= ll <= 4]

        def integrand(c, s):
            tau = np.sqrt(rho_m**2 + s**2 - 2 * rho_m * s * c)
            acc = 0.0
            for (kk, ll) in live:
                acc += (chi0(tau / kk) * fhat(tau) * chi0(s / ll) * ghat(s)
                        / spec.denominator(rho_m, tau, s))
            return acc * np.sqrt(1 - c**2) * s**3

        val, _ = integrate.dblquad(integrand, l / 4, 4 * l, -1, 1,
                                   epsabs=1e-13, epsrel=1e-8)
        oracle = (2 * np.pi) ** -4 * 4 * np.pi * val
        assert out_spec[m].real == pytest.approx(oracle, rel=1e-2)
        assert abs(out_spec[m].imag) < 1e-12 * abs(oracle)

    def test_mirrored_side_oracle(self, ogrid):
        # f holds only low blocks and g only high ones, so Omega_tilde(f, g)
        # is its mirrored side alone; one output node at the 16-angle rule
        # is checked against an adaptive (sigma, c) integration in the
        # original variables (f read at tau = |xi - eta|, g on sigma = |eta|)
        g = ogrid
        fc, fw = 1.0, 0.4
        hc, hw = 16.0, 1.5
        f = block_field(g, fc, fw)
        h = block_field(g, hc, hw)
        spec = BilinearKernelSpec(OMEGA_TILDE, 1 / 8)
        out = apply_bilinear(spec, f, h, AngularQuadrature(16))
        out_spec = to_spectral(out).values

        m = np.argmin(np.abs(g.rho_nodes - 17.0))
        rho_m = g.rho_nodes[m]
        fhat = lambda t: np.exp(-((t - fc) ** 2) / (2 * fw**2))
        hhat = lambda s: np.exp(-((s - hc) ** 2) / (2 * hw**2))
        # fhat is below 1e-12 past tau = 4, so the cutoff is live only on
        # |rho_m - sigma| <= tau < 4: sigma within 4 of rho_m, c above
        # c_lo(sigma); the pairs (k, j) with (j, k) in HL_{1/8} whose
        # blocks reach those tau and sigma
        t_hi = 4.0
        blocks = dyadic_blocks(g)
        live = [(kk, jj) for kk in blocks for jj in blocks
                if jj / 8 >= max(kk, 2.0) and kk <= 4 and 8 <= jj <= 32]

        def integrand(c, s):
            tau = np.sqrt(max(rho_m**2 + s**2 - 2 * rho_m * s * c, 0.0))
            acc = 0.0
            for (kk, jj) in live:
                acc += (chi0(tau / kk) * fhat(tau) * chi0(s / jj) * hhat(s)
                        / spec.denominator(rho_m, tau, s))
            return acc * np.sqrt(1 - c**2) * s**3

        c_lo = lambda s: min(max((rho_m**2 + s**2 - t_hi**2)
                                 / (2 * rho_m * s), -1.0), 1.0)
        val, _ = integrate.dblquad(integrand, rho_m - t_hi, rho_m + t_hi,
                                   c_lo, 1.0, epsabs=1e-12, epsrel=1e-6)
        oracle = (2 * np.pi) ** -4 * 4 * np.pi * val
        assert out_spec[m].real == pytest.approx(oracle, rel=1e-2)
        assert abs(out_spec[m].imag) < 1e-12 * abs(oracle)

    def test_gain_ratio_sweep(self, kgrid):
        # two-derivative gain: |Omega^+(f_j, g_k)|_2 (1+j+k)^2 normalized by
        # |f_j|_4 |g_k|_4 varies by < factor 4 across four octaves; fixed
        # spectral width keeps the physical envelopes (and the Hoelder
        # pairing) comparable across j
        quad = AngularQuadrature(32)
        g1 = block_field(kgrid, 1.0, width=0.4)
        ratios = []
        for j in (16.0, 32.0, 64.0, 128.0):
            fj = block_field(kgrid, j, width=1.0)
            out = apply_bilinear(BilinearKernelSpec(OMEGA_PLUS, 1 / 8),
                                 fj, g1, quad)
            ratios.append(lp_norm(out, 2) * (1 + j + 1.0) ** 2
                          / (lp_norm(fj, 4) * lp_norm(g1, 4)))
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() < 4.0

    def test_angular_convergence(self, kgrid):
        # chi0 is C^1, so its interior second-derivative jumps cap the
        # Chebyshev rule at algebraic convergence: the defect at the default
        # 64 angles sits near 1e-4 and keeps shrinking as angles double
        f = block_field(kgrid, 32.0, width=1.0)
        g2 = block_field(kgrid, 1.0, width=0.4)
        spec = BilinearKernelSpec(OMEGA_PLUS, 1 / 8)
        defect64 = angular_convergence_defect(spec, f, g2, n_theta=64)
        defect16 = angular_convergence_defect(spec, f, g2, n_theta=16)
        assert defect64 < 2e-4
        assert defect64 < defect16 / 3

    def test_mirrored_sides_converge(self, ogrid):
        # f holds a high and a low block, so Omega_tilde(f, conj f) has its
        # direct and its mirrored sides live; the 16-angle rule must agree
        # with 256 angles on both
        f = block_field(ogrid, 16.0, 1.5) + block_field(ogrid, 1.0, 0.4)
        coarse = omega_tilde(f, f.conj(), 1 / 8, AngularQuadrature(16))
        fine = omega_tilde(f, f.conj(), 1 / 8, AngularQuadrature(256))
        assert lp_norm(fine, 2) > 0
        assert rel_l2(coarse, fine) < 1e-3


class TestNormalTransform:
    @pytest.mark.parametrize("iotas", [(1 / 8, 1 / 8), (1 / 8, 1 / 4)],
                             ids=["equal", "unequal"])
    @pytest.mark.parametrize("grid_name", ["ogrid", "kgrid"])
    def test_corrections_match_dense_composition(self, request, grid_name,
                                                 iotas):
        # one _corrections call sweeps Omega^+, Omega^- and Omega_tilde
        # together: at equal iotas all direct sides share their geometry, at
        # unequal ones the Omega_tilde sides form groups of their own.  N's
        # high blocks are complex, so Omega^-'s conjugate reuse of N's
        # spectrum shows; u has high and low blocks, so the mirrored
        # Omega_tilde sides are live too.
        g = request.getfixturevalue(grid_name)
        if grid_name == "ogrid":
            profile = 1.0 / (1 + g.rho_nodes**2)
            N = transform(RadialField(g, 0.5 * (1 + 0.5j) * profile,
                                      SPECTRAL))
            u = transform(RadialField(g, 0.45 * (1 - 0.3j) * profile,
                                      SPECTRAL))
        else:
            N = block_field(g, 40.0, 3.0, 1 + 0.5j) + block_field(
                g, 1.0, 0.4, 0.5j)
            u = block_field(g, 24.0, 2.0, 1j) + block_field(g, 1.5, 0.4)
        iota1, iota2 = iotas
        quad = AngularQuadrature(16)
        corr_u, corr_N = _corrections(u, N, iota1, iota2, quad)
        plus = dense_bilinear(BilinearKernelSpec(OMEGA_PLUS, iota1), N, u,
                              quad)
        minus = dense_bilinear(BilinearKernelSpec(OMEGA_MINUS, iota1),
                               N.conj(), u, quad)
        ref_u = RadialField(g, 0.5 * (plus.values + minus.values))
        ref_N = op_D(dense_bilinear(BilinearKernelSpec(OMEGA_TILDE, iota2),
                                    u, u.conj(), quad))
        assert lp_norm(ref_u, 2) > 0 and lp_norm(ref_N, 2) > 0
        assert rel_l2(corr_u, ref_u) < 1e-13
        assert rel_l2(corr_N, ref_N) < 1e-13

    def test_corrections_one_sweep_per_hl_range(self, ogrid, monkeypatch):
        # at iota1 == iota2 the Omega^+, Omega^- and Omega_tilde terms of
        # every HL range, mirrored Omega_tilde pairs included, share one
        # geometry pass; broadband data keeps every side live
        g = ogrid
        profile = (1.0 / (1 + g.rho_nodes**2)).astype(complex)
        u = transform(RadialField(g, 0.45 * profile, SPECTRAL))
        N = transform(RadialField(g, 0.5 * profile, SPECTRAL))
        calls = []
        sweep_side = normal_form._sweep_side

        def counted(grid, quad, hl_range, terms):
            calls.append(hl_range)
            sweep_side(grid, quad, hl_range, terms)

        monkeypatch.setattr(normal_form, "_sweep_side", counted)
        _corrections(u, N, 1 / 8, 1 / 8, AngularQuadrature(8))
        ranges = _block_ranges(g, lambda j, k: _hl(j, k, 1 / 8))
        assert sorted(calls) == sorted(ranges)

    @pytest.mark.parametrize("shape", [(64,), (32, 2), (64, 2, 1)])
    def test_self_spectra_reject_bad_block(self, shape):
        # a 1-D column and a short block used to fail inside numpy
        g = make_grid(64, 10.0)
        with pytest.raises(ValueError, match=r"\(64, S\)"):
            omega_tilde_self_spectra(g, np.ones(shape, complex), 1 / 8,
                                     AngularQuadrature(8))
        out = omega_tilde_self_spectra(g, np.ones((64, 2), complex), 1 / 8,
                                       AngularQuadrature(8))
        assert out.shape == (64, 2)

    def test_zero_wave_leaves_u(self, kgrid):
        u = block_field(kgrid, 8.0, width=0.5, amp=0.3)
        N = zero_field(kgrid)
        tu, tN = normal_transform(u, N, 1 / 8, 1 / 8, AngularQuadrature(24))
        assert rel_l2(tu, u) < 1e-12
        # second slot picks up -D omega_tilde(u, conj u)
        corr = op_D(omega_tilde(u, u.conj(), 1 / 8, AngularQuadrature(24)))
        assert rel_l2(tN, RadialField(kgrid, -corr.values)) < 1e-12

    def test_omega_vanishing_second_slot(self, kgrid):
        f = block_field(kgrid, 32.0)
        out = omega(f, zero_field(kgrid), 1 / 8, AngularQuadrature(16))
        assert lp_norm(out, 2) == 0.0

    def test_small_iota_limit_exponent(self, kgrid):
        # the u-correction Omega_iota(N, u) shrinks like iota^{2-s} (s = 0
        # in L^2); broadband data with flat per-block mass saturates the
        # count.  The N-correction obeys a different (weaker) power and is
        # only required to shrink.
        quad = AngularQuadrature(16)
        g = kgrid
        broadband = (0.5 / (1 + g.rho_nodes**2)).astype(complex)
        u = transform(RadialField(g, broadband, SPECTRAL))
        N = transform(RadialField(g, broadband.copy(), SPECTRAL))
        iotas = np.array([1 / 4, 1 / 8, 1 / 16])
        u_dev, n_dev = [], []
        for io in iotas:
            tu, tN = normal_transform(u, N, io, io, quad)
            u_dev.append(lp_norm(tu - u, 2))
            n_dev.append(lp_norm(tN - N, 2))
        slope = np.polyfit(np.log(iotas), np.log(u_dev), 1)[0]
        assert abs(slope - 2.0) <= 0.5
        # N-correction decays on a weaker power (and non-monotonically at
        # coarse iota where few high blocks survive); require a net decrease
        assert n_dev[2] < n_dev[0]

    def test_round_trip_inverse(self, kgrid):
        quad = AngularQuadrature(24)
        u = block_field(kgrid, 32.0, width=1.5, amp=0.2)
        N = block_field(kgrid, 2.0, width=0.2, amp=0.2)
        tu, tN = normal_transform(u, N, 1 / 8, 1 / 8, quad)
        ru, rN = normal_inverse(tu, tN, 1 / 8, 1 / 8, quad=quad)
        scale = lp_norm(u, 2) + lp_norm(N, 2)
        assert (lp_norm(ru - u, 2) + lp_norm(rN - N, 2)) / scale < 1e-8

    def test_zero_data_one_iteration(self, kgrid):
        ru, rN = normal_inverse(zero_field(kgrid), zero_field(kgrid),
                                1 / 8, 1 / 8, quad=AngularQuadrature(8))
        assert lp_norm(ru, 2) == 0.0 and lp_norm(rN, 2) == 0.0

    def test_exhausted_budget_reports_contraction(self, ogrid):
        # broadband data that contracts but needs more than two iterations:
        # the error carries the factor measured, not a stand-in of 1
        g = ogrid
        spec = (0.5 / (1 + g.rho_nodes**2)).astype(complex)
        u = transform(RadialField(g, spec, SPECTRAL))
        N = transform(RadialField(g, 0.9 * spec, SPECTRAL))
        with pytest.raises(NonContractionError, match="budget of 2") as ei:
            normal_inverse(u, N, 1 / 8, 1 / 8, max_iter=2,
                           quad=AngularQuadrature(16))
        assert 0.0 < ei.value.factor < 1.0

    def test_non_contraction_detected(self, kgrid):
        # large data at coarse separation: fixed point diverges
        quad = AngularQuadrature(16)
        u = block_field(kgrid, 16.0, width=1.0, amp=400.0)
        N = block_field(kgrid, 2.0, width=0.2, amp=400.0)
        with pytest.raises(NonContractionError) as ei:
            normal_inverse(u, N, 1 / 2, 1 / 2, max_iter=25, quad=quad)
        assert ei.value.factor >= 1.0 or np.isinf(ei.value.factor)
