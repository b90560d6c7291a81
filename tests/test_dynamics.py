import numpy as np
import pytest

from zakharov4d.grid import (
    SPECTRAL,
    SPHERE_S3,
    RadialField,
    RadialGrid,
    apply_multiplier,
    field,
    gradient_norm_sq,
    lp_norm,
    make_grid,
    op_D,
)
from zakharov4d.dyadic import spacetime_norm_X
from zakharov4d.dynamics import (
    BLOWUP_LIKE,
    BlowupError,
    CSV_COLUMNS,
    ERR_TOL,
    FREE,
    FULL,
    INCONCLUSIVE,
    IntegratorConfig,
    LINEAR_POTENTIAL,
    R_LOCAL,
    RunLog,
    SCATTERING_LIKE,
    S_DECAY,
    ZakharovState,
    _Propagator,
    _accepted_steps,
    band_limited_unit_field,
    decompose_N,
    potential_from_family,
    run,
    scattering_diagnostics,
    strichartz_probe,
)
from zakharov4d.normal_form import AngularQuadrature, omega_tilde
from zakharov4d.variational import (
    ES_W_EXACT,
    gaussian_field,
    nehari_K,
    w_field,
    zakharov_energy,
)


def gaussian_state(grid, au=0.4, aN=0.3, wu=1.4, wN=1.8):
    u = gaussian_field(grid, au, wu)
    N = gaussian_field(grid, aN, wN)
    return ZakharovState(u, N, 0.0)


def strang_steps(state, cfg, dts):
    """state after one Strang step by each of dts, on the propagator's
    kernel: loaded once, stepped spectrally, brought back once."""
    g = state.grid
    prop = _Propagator(g, cfg)
    u, N = prop.load(state.u.values, state.N.values)
    for dt in dts:
        u, N = prop.step_values(u, N, dt)
    phys = prop.physical(u, N)
    return ZakharovState(RadialField(g, phys[:, 0].copy()),
                         RadialField(g, phys[:, 1].copy()),
                         state.t + sum(dts))


class TestStep:
    def test_free_mode_matches_one_shot(self, grid_small):
        state = gaussian_state(grid_small)
        cfg = IntegratorConfig(dt=0.05, mode=FREE)
        s = strang_steps(state, cfg, [cfg.dt] * 20)
        exact_u = apply_multiplier(state.u,
                                   np.exp(1.0j * grid_small.rho_nodes**2))
        exact_N = apply_multiplier(state.N,
                                   np.exp(1.0j * grid_small.rho_nodes))
        assert lp_norm(s.u - exact_u, 2) / lp_norm(exact_u, 2) < 1e-10
        assert lp_norm(s.N - exact_N, 2) / lp_norm(exact_N, 2) < 1e-10
        assert s.t == pytest.approx(1.0)

    def test_mass_conserved_over_many_steps(self, grid_small):
        state = gaussian_state(grid_small)
        cfg = IntegratorConfig(dt=5e-4, mode=FULL)
        m0 = lp_norm(state.u, 2) ** 2
        s = strang_steps(state, cfg, [cfg.dt] * 2000)
        m = lp_norm(s.u, 2) ** 2
        assert abs(m - m0) / m0 < 1e-11

    def test_wave_mass_conserved_free_modes(self, grid_small):
        for mode in (FREE, LINEAR_POTENTIAL):
            state = gaussian_state(grid_small)
            cfg = IntegratorConfig(dt=1e-3, mode=mode)
            n0 = lp_norm(state.N, 2)
            s = strang_steps(state, cfg, [cfg.dt] * 200)
            assert abs(lp_norm(s.N, 2) - n0) / n0 < 1e-11

    def test_reversibility_free(self, grid_small):
        state = gaussian_state(grid_small)
        cfg = IntegratorConfig(dt=0.02, mode=FREE)
        s = strang_steps(state, cfg, [0.02] * 50 + [-0.02] * 50)
        assert lp_norm(s.u - state.u, 2) / lp_norm(state.u, 2) < 1e-10
        assert lp_norm(s.N - state.N, 2) / lp_norm(state.N, 2) < 1e-10

    def test_reversibility_with_sponge(self, grid_small):
        # the sponge damps on both sides of the nonlinear substep, so a
        # step with -dt undoes a step with dt
        state = gaussian_state(grid_small)
        cfg = IntegratorConfig(dt=0.02, mode=LINEAR_POTENTIAL, sponge=True)
        s = strang_steps(state, cfg, [0.02] * 20 + [-0.02] * 20)
        assert lp_norm(s.u - state.u, 2) / lp_norm(state.u, 2) < 1e-10
        assert lp_norm(s.N - state.N, 2) / lp_norm(state.N, 2) < 1e-10

    def test_rejects_mismatched_grids(self, grid_small, grid_medium):
        with pytest.raises(ValueError):
            ZakharovState(gaussian_field(grid_small, 1, 1),
                          gaussian_field(grid_medium, 1, 1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(mode="fancy")
        # only full and free modes without the sponge are run adaptively
        # in these tests, so the other cases stay refused
        for kwargs in ({"mode": LINEAR_POTENTIAL}, {"sponge": True},
                       {"mode": FREE, "sponge": True}):
            with pytest.raises(ValueError, match="tested only in full"):
                IntegratorConfig(adaptive=True, **kwargs)
        IntegratorConfig(adaptive=True, mode=FREE)
        # refused up front instead of failing or misleading inside run: a
        # zero monitor stride divides by zero, a negative store stride keeps
        # nothing, and a ceiling at or below 1x trips on the first row
        for kwargs, name in (({"monitor_every": 0}, "monitor_every"),
                             ({"store_every": -1}, "store_every"),
                             ({"grad_ceiling_factor": 1.0},
                              "grad_ceiling_factor")):
            with pytest.raises(ValueError, match=name):
                IntegratorConfig(**kwargs)
        IntegratorConfig(monitor_every=1, store_every=0,
                         grad_ceiling_factor=7.0)
        # non-finite settings are configuration errors, not a blow-up: a NaN
        # dt logged a "blowup" at t = 0 and a NaN ceiling never tripped
        for name in ("dt", "dt_floor", "grad_ceiling_factor"):
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match=f"{name} .* not finite"):
                    IntegratorConfig(**{name: bad})


class TestStepBuffers:
    @pytest.mark.parametrize("mode, m, sponge", [
        (FULL, 1, False), (LINEAR_POTENTIAL, 3, False), (FULL, 1, True),
        (FREE, 2, True)])
    def test_outputs_own_their_memory(self, grid_small, mode, m, sponge):
        # the half-steps go through reused work blocks; what step_values
        # returns must be new arrays, and the inputs must stay as they were
        g = grid_small
        rng = np.random.default_rng(11)
        prop = _Propagator(g, IntegratorConfig(dt=0.01, mode=mode,
                                               sponge=sponge))
        members = [band_limited_unit_field(g, rng).values for _ in range(m)]
        u, N = prop.load(np.column_stack(members),
                         gaussian_field(g, 0.3, 2.0).values)
        u0, N0 = u.copy(), N.copy()
        first = prop.step_values(u, N, 0.01)
        second = prop.step_values(u, N, 0.01)
        assert np.array_equal(u, u0) and np.array_equal(N, N0)
        assert first[0].shape == (g.n, m) and first[1].shape == (g.n, 1)
        for a, b in zip(first, second):
            assert np.array_equal(a.view(np.float64), b.view(np.float64))
        blocks = list(prop._blocks.values())
        assert len(blocks) == 2
        outputs = first + second
        for i, out in enumerate(outputs):
            for other in blocks + [u, N] + list(outputs[i + 1:]):
                assert not np.shares_memory(out, other)

    @pytest.mark.parametrize("mode, sponge", [
        (FULL, False), (FREE, False), (LINEAR_POTENTIAL, True)])
    def test_paired_columns_match_one_column_calls(self, grid_small, mode,
                                                   sponge):
        # one paired call on [u, u] / [N, N] at steps (h, h/2) gives each
        # column's one-column step up to GEMM roundoff; a doubled step is
        # that call and a half step from its second column, in new arrays,
        # and leaves its inputs as they were
        g = grid_small
        prop = _Propagator(g, IntegratorConfig(dt=0.01, mode=mode,
                                               sponge=sponge))
        u, N = prop.load(gaussian_field(g, 0.8, 1.4).values,
                         gaussian_field(g, 0.6, 1.8).values)
        u0, N0 = u.copy(), N.copy()
        h = 0.03
        pu, pN = prop._strang(u, N, h, paired=True)
        assert pu.shape == pN.shape == (g.n, 2)
        for j, step in enumerate((h, h / 2)):
            for paired, single in zip((pu[:, j:j + 1], pN[:, j:j + 1]),
                                      prop.step_values(u, N, step)):
                assert np.abs(paired - single).max() <= 1e-13 * np.abs(
                    single).max()
        nu, nN, err = prop.step_values(u, N, h, doubled=True)
        assert np.array_equal(u, u0) and np.array_equal(N, N0)
        fu, fN = prop.step_values(pu[:, 1:], pN[:, 1:], h / 2)
        assert np.array_equal(nu, fu) and np.array_equal(nN, fN)
        diff = np.abs(pu[:, 0] - fu[:, 0]) ** 2 + np.abs(pN[:, 0]
                                                         - fN[:, 0]) ** 2
        norm = np.abs(fu[:, 0]) ** 2 + np.abs(fN[:, 0]) ** 2
        assert err == np.sqrt(g.spectral_integral(diff)
                              / g.spectral_integral(norm)) / 3
        for out in (pu, pN, nu, nN):
            for block in prop._blocks.values():
                assert not np.shares_memory(out, block)

    def feeds_back(self, monkeypatch, go, doubled=False):
        # an accepted step's u is the next call's input object (the traced
        # benchmark counts accepted steps by this identity, and its attempts
        # by the calls: one per attempt, a doubled step when adaptive).
        # Returns the number of calls and go()'s result
        calls = []
        original = _Propagator.step_values

        def recorded(self, u, N, dt, **kwargs):
            out = original(self, u, N, dt, **kwargs)
            calls.append((u, out[0], kwargs))
            return out

        monkeypatch.setattr(_Propagator, "step_values", recorded)
        result = go()
        for (_, previous, _), (u_in, _, kwargs) in zip(calls, calls[1:]):
            assert u_in is previous
            assert kwargs == ({"doubled": True} if doubled else {})
        return len(calls), result

    def run_feeds_back(self, grid, monkeypatch, adaptive):
        calls, log = self.feeds_back(monkeypatch, lambda: run(
            gaussian_state(grid),
            IntegratorConfig(dt=1e-2, mode=FULL, monitor_every=3,
                             adaptive=adaptive), 0.1), adaptive)
        assert log.rejected == 0 and calls == log.attempts
        return log

    def test_run_feeds_each_output_back(self, grid_small, monkeypatch):
        assert self.run_feeds_back(grid_small, monkeypatch,
                                   False).attempts == 10

    def test_adaptive_run_feeds_each_output_back(self, grid_small,
                                                 monkeypatch):
        self.run_feeds_back(grid_small, monkeypatch, True)

    def test_probe_feeds_each_output_back(self, grid_small, monkeypatch):
        # one fixed step per call, 12 steps to the last horizon
        calls, est = self.feeds_back(monkeypatch, lambda: strichartz_probe(
            grid_small, {"kind": "gaussian_mass", "mass": 1.0}, 0.0, 2,
            [0.3, 0.6], np.random.default_rng(2), dt=0.05))
        assert calls == 12 and est.max_ratio.shape == (2,)


class TestRun:
    def test_free_energy_drift_roundoff(self, grid_small):
        state = gaussian_state(grid_small)
        cfg = IntegratorConfig(dt=1e-3, mode=FREE, monitor_every=100)
        log = run(state, cfg, 0.5)
        e = np.asarray(log.energy_Z)
        assert np.abs(e - e[0]).max() / abs(e[0]) < 1e-10

    def test_strang_second_order_energy_drift(self, grid_small):
        drifts = []
        for dt in (2e-3, 1e-3):
            state = gaussian_state(grid_small, au=0.8, aN=0.6)
            cfg = IntegratorConfig(dt=dt, mode=FULL, monitor_every=50)
            log = run(state, cfg, 0.5)
            drifts.append(abs(log.energy_Z[-1] - log.energy_Z[0]))
        ratio = drifts[0] / drifts[1]
        assert 3.0 <= ratio <= 5.0

    def test_blowup_trip_supercritical(self):
        g = make_grid(256, 40.0)
        lam = 1.3
        wt = w_field(g, truncated=True)
        state = ZakharovState(lam * wt, RadialField(g, (lam * wt.values) ** 2))
        cfg = IntegratorConfig(dt=2e-3, mode=FULL, adaptive=True,
                               dt_floor=1e-6, grad_ceiling_factor=8.0,
                               monitor_every=5)
        log = run(state, cfg, 40.0)
        assert log.has_event("blowup")
        verdict = scattering_diagnostics(log)
        assert verdict.verdict == BLOWUP_LIKE

    def test_adaptive_run_matches_stepwise_reference(self, grid_small):
        # run()'s step doubling against a stepwise reference that writes
        # the controller out on the propagator's kernel: S_h and S_{h/2}
        # from one paired call, the second half step, err and the step
        # factor.  dt starts too large, so attempts are rejected.  That a
        # paired call's columns are their one-column steps is
        # test_paired_columns_match_one_column_calls
        g = grid_small
        state = ZakharovState(gaussian_field(g, 0.8, 1.4),
                              gaussian_field(g, 0.6, 1.8))
        cfg = IntegratorConfig(dt=0.2, mode=FULL, adaptive=True,
                               monitor_every=1, store_every=3)
        t_end = 2.0
        log = run(state, cfg, t_end)

        prop = _Propagator(g, cfg)
        w, inside = g.quad_weights_r, g.r_nodes < R_LOCAL

        def row(u, N, t, dt):
            phys = prop.physical(u, N)
            s = ZakharovState(RadialField(g, phys[:, 0].copy()),
                              RadialField(g, phys[:, 1].copy()), t)
            grad_sq = gradient_norm_sq(RadialField(g, u[:, 0], SPECTRAL))
            local = np.sqrt(SPHERE_S3 * np.sum(
                (w * np.abs(s.u.values) ** 2)[inside]))
            return s, (t, lp_norm(s.u, 2) ** 2,
                       zakharov_energy(s.u, s.N), np.sqrt(grad_sq),
                       lp_norm(s.N, 2), lp_norm(s.u, 4),
                       nehari_K(s.u), local,
                       lp_norm(s.u, 1.0 / (0.5 - S_DECAY / 4.0)), dt)

        def sq_norm(a, b):       # |[a, b]|_2^2, as run sums it
            return g.spectral_integral(np.abs(a[:, 0]) ** 2
                                       + np.abs(b[:, 0]) ** 2)

        u, N = prop.load(state.u.values, state.N.values)
        t, dt, rejected, errs = state.t, cfg.dt, 0, []
        s, first = row(u, N, t, dt)
        rows, states = [first], [s]
        while t < t_end - 1e-12:
            h = min(dt, t_end - t)
            pu, pN = prop._strang(u, N, h, paired=True)
            cu, cN = pu[:, :1], pN[:, :1]
            fu, fN = prop._strang(pu[:, 1:], pN[:, 1:], h / 2)
            err = np.sqrt(sq_norm(cu - fu, cN - fN) / sq_norm(fu, fN)) / 3
            dt = h * min(2.0, max(0.2, 0.9 * (ERR_TOL / err) ** (1 / 3)))
            if err > ERR_TOL:
                rejected += 1
                continue
            u, N, t = fu, fN, t + h
            errs.append(err)
            s, r = row(u, N, t, h)
            rows.append(r)
            states.append(s)

        ref = np.array(rows)
        got = np.array(log.as_rows())[:, :-1]
        assert got.shape == ref.shape and len(ref) > 30
        assert rejected >= 1 and log.rejected == rejected
        assert log.attempts == len(ref) - 1 + rejected
        assert log.err_max == max(errs)
        for col in (0, -1):                       # accepted times, dt_hist
            assert np.abs(got[:, col] - ref[:, col]).max() <= 1e-12 * np.abs(
                ref[:, col]).max()
        assert np.diff(log.dt_hist[1:-1]).max() > 0     # dt grows again
        rel = np.abs(got[:, 1:-1] - ref[:, 1:-1]) / np.abs(ref[:, 1:-1])
        assert rel.max() < 1e-12
        final = log.final_state
        assert final.t == s.t
        assert lp_norm(final.u - s.u, 2) < 1e-13 * lp_norm(s.u, 2)
        assert lp_norm(final.N - s.N, 2) < 1e-13 * lp_norm(s.N, 2)
        stored = states[::cfg.store_every]
        assert np.array_equal(log.traj_u.times, [x.t for x in stored])
        ref_u = np.column_stack([x.u.values for x in stored])
        assert np.abs(log.traj_u.values - ref_u).max() < 1e-13 * np.abs(
            ref_u).max()

    def test_rejections_recorded(self, grid_small):
        # a run that starts at too large a dt rejects, shrinks and says so;
        # a fixed-dt run accepts every attempt and estimates no error
        state = gaussian_state(grid_small, au=0.8, aN=0.6)
        log = run(state, IntegratorConfig(dt=0.5, mode=FULL, adaptive=True,
                                          monitor_every=1), 1.0)
        assert log.rejected >= 1
        assert log.attempts == len(log.times) - 1 + log.rejected
        assert 0.0 < log.err_max <= ERR_TOL
        assert max(log.dt_hist[1:]) < 0.5
        fixed = run(state, IntegratorConfig(dt=2.0**-4, mode=FULL), 0.5)
        assert (fixed.attempts, fixed.rejected, fixed.err_max) == (8, 0, None)

    @pytest.mark.parametrize("t_end", [np.nan, np.inf])
    def test_rejects_non_finite_t_end(self, grid_small, t_end):
        # a NaN horizon used to log one row and stop, an infinite one to
        # step until blow-up
        with pytest.raises(ValueError, match=f"t_end {t_end} is not finite"):
            run(gaussian_state(grid_small), IntegratorConfig(dt=0.1), t_end)

    def test_stepper_raises_blowup_with_time_and_reason(self, grid_small):
        # a non-finite fixed step, and an adaptive step pushed below its
        # floor, stop the stepper after the last accepted time
        g = grid_small
        state = gaussian_state(g, au=0.8, aN=0.6)
        for cfg, reason in (
                (IntegratorConfig(dt=0.1), "non-finite values"),
                (IntegratorConfig(dt=0.5, adaptive=True, dt_floor=0.3),
                 "dt underflow")):
            prop = _Propagator(g, cfg)
            u, N = prop.load(state.u.values, state.N.values)
            if not cfg.adaptive:
                u[3] = np.nan
            log = RunLog(err_max=0.0)
            with pytest.raises(BlowupError) as info:
                list(_accepted_steps(prop, u, N, 0.25, 2.0, log))
            assert (info.value.t, info.value.reason) == (0.25, reason)
            assert log.attempts == log.rejected == 1
        log = run(state, IntegratorConfig(dt=0.5, adaptive=True,
                                          dt_floor=0.3), 2.0)
        assert log.events == [{"t": 0.0, "kind": "blowup",
                               "detail": "dt underflow"}]
        assert len(log.times) == 1 and log.final_state.t == 0.0

    def test_early_exit_hook(self, grid_small):
        state = gaussian_state(grid_small)
        cfg = IntegratorConfig(dt=1e-3, mode=FREE, monitor_every=10)
        log = run(state, cfg, 1.0, stop_when=lambda lg: len(lg.times) >= 3)
        assert log.has_event("early_exit")
        assert log.times[-1] < 1.0

    def test_rows_match_schema(self, grid_small):
        state = gaussian_state(grid_small)
        cfg = IntegratorConfig(dt=1e-3, mode=FREE, monitor_every=50)
        log = run(state, cfg, 0.1)
        rows = log.as_rows()
        assert all(len(r) == len(CSV_COLUMNS) for r in rows)
        assert all(np.isfinite(r[:-1]).all() for r in np.asarray(rows))

    def test_threshold_persistence(self, grid_small):
        # below the ground-state energy, the classifier side never flips
        # while the energy drift stays small
        from zakharov4d.variational import functionals
        state = gaussian_state(grid_small, au=0.5, aN=0.4)
        rep0 = functionals(state.u, state.N)
        assert rep0.energy_Z < ES_W_EXACT
        cfg = IntegratorConfig(dt=1e-3, mode=FULL, monitor_every=20,
                               store_every=100)
        log = run(state, cfg, 1.0)
        drift = max(abs(e - log.energy_Z[0]) for e in log.energy_Z)
        assert drift / abs(log.energy_Z[0]) < 1e-3
        sides = set()
        g = grid_small
        for uu, NN in zip(log.traj_u.values.T, log.traj_N.values.T):
            rep = functionals(RadialField(g, uu), RadialField(g, NN))
            if rep.energy_Z < ES_W_EXACT:
                sides.add(rep.classification)
        assert len(sides) == 1


def strang_reference(state, dt, steps):
    """Strang steps built from apply_multiplier substeps, physical between."""
    grid = state.grid
    half_u = np.exp(0.5j * dt * grid.rho_nodes**2)
    half_N = np.exp(0.5j * dt * grid.rho_nodes)
    u, N = state.u, state.N
    for _ in range(steps):
        u, N = apply_multiplier(u, half_u), apply_multiplier(N, half_N)
        phase = np.exp(-1j * dt * N.values.real)
        N = N - (1j * dt) * op_D(RadialField(grid, np.abs(u.values) ** 2))
        u = RadialField(grid, u.values * phase)
        u, N = apply_multiplier(u, half_u), apply_multiplier(N, half_N)
    return u, N


class TestKernelPasses:
    def count_passes(self, monkeypatch):
        calls = []
        original = RadialGrid._kernel_apply

        def counted(grid, columns):
            calls.append(columns.shape)
            return original(grid, columns)

        monkeypatch.setattr(RadialGrid, "_kernel_apply", counted)
        return calls

    def test_passes_per_step_and_reference(self, grid_small, monkeypatch):
        dt, steps = 2.0**-6, 50          # dt * steps is exact in binary
        calls = self.count_passes(monkeypatch)
        limits = {FULL: 2, LINEAR_POTENTIAL: 2, FREE: 0}
        for mode, limit in limits.items():
            state = gaussian_state(grid_small, au=0.8, aN=0.6)
            cfg = IntegratorConfig(dt=dt, mode=mode, monitor_every=10**6)
            calls.clear()
            log = run(state, cfg, dt * steps)
            # one pass loads the state, one brings it back for the final
            # monitor; the steps in between stay spectral
            assert len(log.times) == 2
            assert len(calls) - 2 <= limit * steps, mode
            if mode == FULL:
                final = log.final_state
        monkeypatch.undo()
        ref_u, ref_N = strang_reference(
            gaussian_state(grid_small, au=0.8, aN=0.6), dt, steps)
        assert lp_norm(final.u - ref_u, 2) / lp_norm(ref_u, 2) < 1e-10
        assert lp_norm(final.N - ref_N, 2) / lp_norm(ref_N, 2) < 1e-10
        assert final.t == dt * steps


class TestGroundStateOrbit:
    def test_interior_stationarity_quick(self):
        # coarse, fast variant of the stationarity acceptance check
        g = make_grid(512, 100.0)
        wt = w_field(g, truncated=True)
        state = ZakharovState(wt, RadialField(g, wt.values**2))
        cfg = IntegratorConfig(dt=2e-3, mode=FULL, monitor_every=100)
        log = run(state, cfg, 0.5)
        final = log.final_state
        mask = g.interior_mask()
        w = g.quad_weights_r

        def inorm(vals):
            return np.sqrt(np.sum((w * np.abs(vals) ** 2)[mask]))

        du = inorm(final.u.values - wt.values) / inorm(wt.values)
        dN = inorm(final.N.values - wt.values**2) / inorm(wt.values**2)
        assert du < 0.01 and dN < 0.01


@pytest.fixture(scope="module")
def small_data_log():
    g = make_grid(256, 20.0)
    rng = np.random.default_rng(7)
    u0 = 0.1 * band_limited_unit_field(g, rng, band=(0.05, 0.3))
    N0 = gaussian_field(g, 0.4, 2.0)
    state = ZakharovState(u0, N0)
    cfg = IntegratorConfig(dt=2e-3, mode=FULL, store_every=50,
                           monitor_every=50)
    return run(state, cfg, 0.4)


class TestDecomposeN:
    def test_zero_u_pure_free_wave(self, grid_small):
        g = grid_small
        N0 = gaussian_field(g, 0.5, 2.0)
        state = ZakharovState(field(g, np.zeros(g.n)), N0)
        cfg = IntegratorConfig(dt=5e-3, mode=FULL, store_every=10,
                               monitor_every=10)
        log = run(state, cfg, 0.5)
        dec = decompose_N(log, 1 / 8, AngularQuadrature(8))
        assert dec.sup_L2_bilinear < 1e-12
        assert dec.sup_L2_duhamel < 1e-9
        # free-wave flow is unitary: |N_F(t)|_2 constant
        norms = [lp_norm(RadialField(g, f), 2) for f in dec.free.values.T]
        assert max(norms) - min(norms) < 1e-10 * max(norms)

    def test_small_data_hierarchy_and_iota_trend(self, small_data_log):
        log = small_data_log
        quad = AngularQuadrature(12)
        dec_coarse = decompose_N(log, 1 / 4, quad)
        dec_fine = decompose_N(log, 1 / 16, quad)
        for dec in (dec_coarse, dec_fine):
            assert (dec.sup_L2_bilinear + dec.sup_L2_duhamel
                    < 0.2 * dec.sup_L2_free)
        assert dec_fine.sup_L2_bilinear < dec_coarse.sup_L2_bilinear + 1e-12

    def test_decompose_matches_per_sample_reference(self, small_data_log):
        # per-sample formulas: N_N = D Omega_tilde(u, conj u), N_F by the
        # half-wave multiplier on each sample, N_D the remainder
        log = small_data_log
        quad = AngularQuadrature(12)
        dec = decompose_N(log, 1 / 4, quad)
        g, times = log.traj_u.grid, log.traj_u.times
        us = [RadialField(g, c) for c in log.traj_u.values.T]
        Ns = [RadialField(g, c) for c in log.traj_N.values.T]
        nn = [op_D(omega_tilde(u, u.conj(), 1 / 4, quad)) for u in us]
        seed = Ns[0] - nn[0]
        nf = [apply_multiplier(seed, np.exp(1j * (t - times[0]) * g.rho_nodes))
              for t in times]
        nd = [N - f - b for N, f, b in zip(Ns, nf, nn)]
        for traj, ref in ((dec.free, nf), (dec.bilinear, nn),
                          (dec.duhamel, nd)):
            ref = np.column_stack([f.values for f in ref])
            assert np.array_equal(traj.times, times)
            err = np.abs(traj.values - ref).max() / np.abs(ref).max()
            assert err < 1e-12, traj.role
        assert dec.sup_L2_free == pytest.approx(
            max(lp_norm(f, 2) for f in nf), rel=1e-12)

    def test_refuses_sponge_and_unstored_runs(self, grid_small):
        state = gaussian_state(grid_small)
        for cfg, reason in (
                (IntegratorConfig(dt=1e-2, sponge=True, store_every=5),
                 "sponge"),
                (IntegratorConfig(dt=1e-2, store_every=0), "no trajectory")):
            log = run(state, cfg, 0.1)
            with pytest.raises(ValueError, match=reason):
                decompose_N(log, 1 / 8, AngularQuadrature(8))


class TestScatteringDiagnostics:
    def test_free_gaussian_scatters(self):
        g = make_grid(192, 40.0)
        state = ZakharovState(gaussian_field(g, 0.5, 1.5),
                              field(g, np.zeros(g.n)))
        cfg = IntegratorConfig(dt=5e-3, mode=FREE, monitor_every=40,
                               sponge=True)
        log = run(state, cfg, 25.0)
        verdict = scattering_diagnostics(log)
        assert verdict.verdict == SCATTERING_LIKE
        assert verdict.detail["local_ratio"] < 0.5

    @pytest.mark.parametrize("name", ["monitor_every", "store_every"])
    @pytest.mark.parametrize("bad", [2.5, 1.5, True, np.float64(2.0)])
    def test_config_refuses_non_integer_strides(self, name, bad):
        # 2.5 wrote a row every 5 steps, 1.5 stored every 3rd, True meant 1
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            IntegratorConfig(**{name: bad})

    def test_config_accepts_numpy_integer_strides(self):
        cfg = IntegratorConfig(monitor_every=np.int64(3),
                               store_every=np.int32(2))
        assert (cfg.monitor_every, cfg.store_every) == (3, 2)

    def test_short_run_inconclusive(self, grid_small):
        state = gaussian_state(grid_small)
        cfg = IntegratorConfig(dt=1e-3, mode=FREE, monitor_every=10)
        log = run(state, cfg, 0.05)
        assert scattering_diagnostics(log).verdict == INCONCLUSIVE


class TestStrichartzProbe:
    def test_free_baseline_plateaus(self):
        g = make_grid(192, 40.0)
        rng = np.random.default_rng(3)
        est = strichartz_probe(g, {"kind": "zero"}, 0.0, 2,
                               [2.0, 6.0, 12.0], rng, dt=0.05)
        assert est.potential_mass == 0.0
        assert np.all(np.diff(est.max_ratio) >= -1e-12)
        # endpoint Strichartz: the ratio has already plateaued
        assert est.max_ratio[2] < 1.01 * est.max_ratio[1]
        assert est.max_ratio[2] < 3.0

    def test_rejects_negative_horizon(self, grid_small):
        with pytest.raises(ValueError, match=r"horizons \[-1\.0, 2\.0\]"):
            strichartz_probe(grid_small, {"kind": "zero"}, 0.0, 1,
                             [-1.0, 2.0], np.random.default_rng(0), dt=0.05)

    @pytest.mark.parametrize("bad", [[], 2.0, [[1.0, 2.0]]])
    def test_rejects_horizons_that_are_not_one_list(self, grid_small, bad):
        # [] raised IndexError at horizons[-1], and a scalar or nested list
        # failed inside numpy
        with pytest.raises(ValueError, match="one list of at least one"):
            strichartz_probe(grid_small, {"kind": "zero"}, 0.0, 1, bad,
                             np.random.default_rng(0), dt=0.05)

    @pytest.mark.parametrize("bad", [0, -2, 1.5, True, np.float64(2.0)])
    def test_rejects_bad_ensemble_size(self, grid_small, bad):
        # 0 failed in np.column_stack, 1.5 in range
        with pytest.raises(ValueError,
                           match="ensemble_size must be a positive integer"):
            strichartz_probe(grid_small, {"kind": "zero"}, 0.0, bad, [1.0],
                             np.random.default_rng(0), dt=0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_horizon(self, grid_small, bad):
        # NaN sorts last and t >= NaN never holds: this used to loop forever
        with pytest.raises(ValueError, match=f"t_end {bad} is not finite"):
            strichartz_probe(grid_small, {"kind": "zero"}, 0.0, 1,
                             [1.0, bad], np.random.default_rng(0))

    def test_matches_per_member_reference(self, grid_small):
        family = {"kind": "gaussian_mass", "mass": 2.0, "width": 2.0}
        delta, members, horizons, dt = 0.2, 3, [1.0, 2.0, 4.0], 0.05
        est = strichartz_probe(grid_small, family, delta, members, horizons,
                               np.random.default_rng(5), dt=dt)

        rng = np.random.default_rng(5)
        V0 = potential_from_family(grid_small, family, rng)
        cfg = IntegratorConfig(dt=dt, mode=LINEAR_POTENTIAL, store_every=5)
        worst = np.zeros(len(horizons))
        for _ in range(members):
            u0 = band_limited_unit_field(grid_small, rng)
            traj = run(ZakharovState(u0, V0), cfg, horizons[-1]).traj_u
            for i, T in enumerate(horizons):
                worst[i] = max(worst[i], spacetime_norm_X(
                    traj.restricted(0.0, T), delta))
        # t accumulates as t += dt: the samples nearest T = 1 and T = 2 land
        # just past them and are left out, the one nearest T = 4 is kept
        times = traj.times
        for T, kept in ((1.0, False), (2.0, False), (4.0, True)):
            near = times[np.abs(times - T) < 1e-9]
            assert len(near) == 1 and near[0] != T
            assert (near[0] <= T) == kept
        np.testing.assert_allclose(est.max_ratio, worst, rtol=1e-9)

    def test_potential_families(self, grid_small):
        V = potential_from_family(grid_small, {"kind": "gaussian_mass",
                                               "mass": 3.0})
        assert lp_norm(V, 2) == pytest.approx(3.0, rel=1e-12)
        V2 = potential_from_family(grid_small,
                                   {"kind": "ground_state_squared", "lam": 2.0})
        from zakharov4d.variational import w_profile
        assert V2.values[0] == pytest.approx(
            (2.0 * w_profile(2.0 * grid_small.r_nodes[0])) ** 2, rel=1e-12)
        with pytest.raises(ValueError):
            potential_from_family(grid_small, {"kind": "nope"})
