"""Time evolution of the first-order Zakharov system on the radial grid.

One Strang step is

    half linear:  u <- e^{-i (dt/2) Lap} u,   N <- e^{i (dt/2) D} N
    nonlinear:    N <- N - i dt D|u|^2,       u <- e^{-i dt Re N} u
    half linear again,

at unit wave speed, as `decompose_N` and the Omega_tilde denominator assume.
The nonlinear substep is exact: |u| is constant during it, so D|u|^2 is a
constant real field and Re N never changes while the source is added.
Every substep is a unitary spectral multiplier or a pointwise phase
rotation, which is what keeps the mass drift at transform roundoff over
10^4 steps.

The stepping kernel `_Propagator` keeps the state spectral, as column
blocks u (n, m) and N (n, k): the half-steps are pointwise phase
multiplies, and each kernel pass (a dense n x n product) carries every
column at once.  N is one column shared by the u columns (the probe's
potential) or paired with u column by column, as when an adaptive attempt
advances [u, u] / [N, N] by the steps (dt, dt/2) in one call.  Per step,
by mode:

    full              2 passes: [u, N] backward for the nonlinear substep,
                      [u, |u|^2] forward (the source enters as -i dt rho
                      times the transform of |u|^2; spectral N is kept)
    linear_potential  2 passes: [u..., N] backward, [u...] forward
    free              no pass

The sponge damps u and N by e^{-sigma dt / 2} on each side of the
nonlinear substep, so a step stays symmetric and costs no extra pass
(free mode then makes the two passes too); the damped N joins the
forward pass.  In full mode the source is taken from the damped |u|^2
between the two dampings and is not damped again.  `step_values` writes
the blocks each pass reads into the propagator's reused work blocks and
returns new arrays, never views of those blocks.

One generator, `_accepted_steps`, holds the only attempt loop; `run` and
`strichartz_probe` consume it.  Adaptive mode controls dt by step doubling
with Richardson's error estimate (Hairer, Norsett & Wanner, Solving ODEs
I, II.4): an attempt is one doubled `step_values` call of 4 passes, and it
needs no conserved quantity.  Adaptive stepping is still refused in
linear_potential mode and with the sponge, which are not tested
adaptively.  `run` returns to physical space only at monitor and store
instants, one backward pass each, and builds RadialFields only for its
final state.  `strichartz_probe` steps its whole ensemble as the u columns
of one state that shares the free-wave column.

Modes: "full" (everything on), "linear_potential" (wave source dropped: N
evolves freely, u still sees Re N), "free" (all nonlinearities off).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import chain

import numpy as np

from .grid import (
    RadialField,
    RadialGrid,
    SPECTRAL,
    lp_norm,
    smooth_transition,
    to_physical,
    transform,
)
from .dyadic import (
    TrajectorySamples,
    dyadic_profile,
    spacetime_norm_X,  # noqa: F401  (kept in this namespace for bench/tracing.py)
    xdelta_exponents,
    xdelta_from_profile,
)
from .normal_form import omega_tilde_self_spectra
from .variational import (
    EnergyReport,
    energy_report,
    nehari_K,  # noqa: F401  (kept in this namespace for bench/tracing.py)
    w_profile,
    zakharov_energy,  # noqa: F401  (kept in this namespace for bench/tracing.py)
)

FULL = "full"
LINEAR_POTENTIAL = "linear_potential"
FREE = "free"

SCATTERING_LIKE = "scattering_like"
BLOWUP_LIKE = "blowup_like"
INCONCLUSIVE = "inconclusive"

ERR_TOL = 3e-8             # largest relative Richardson error accepted: the
                           # loosest measured that keeps blowup_trip's trip
                           # time within 1e-4 and its E_Z drift below 2.3e-3
STEP_SAFETY, STEP_SHRINK, STEP_GROW = 0.9, 0.2, 2.0  # see _step_factor
SPONGE_STRENGTH, SPONGE_START_FRACTION = 5.0, 0.8  # start: share of r_max
S_DECAY = 0.5              # s in the L^{2(-s)} scattering monitor
R_LOCAL = 10.0             # radius of the local-mass monitor
PROBE_STORE_EVERY = 5      # probe steps between X^delta samples
DECAY_FRACTION = 0.5       # scattering_like: decay below this share of the max
GRAD_GROWTH_FACTOR = 5.0   # blowup_like, and run()'s grad_growth_5x event


@dataclass
class ZakharovState:
    """(u, N) fields in physical space plus the current time."""

    u: RadialField
    N: RadialField
    t: float = 0.0

    def __post_init__(self):
        if self.u.grid != self.N.grid:
            raise ValueError("u and N must share one grid")
        self.u = to_physical(self.u)
        self.N = to_physical(self.N)

    @property
    def grid(self) -> RadialGrid:
        return self.u.grid


@dataclass
class IntegratorConfig:
    dt: float = 1e-3                 # adaptive: the first step, not a cap
    mode: str = FULL
    adaptive: bool = False
    dt_floor: float = 1e-7
    grad_ceiling_factor: float = 20.0
    sponge: bool = False
    monitor_every: int = 10
    store_every: int = 0             # 0: no trajectory kept

    def __post_init__(self):
        # a NaN dt would log a "blowup" at t = 0, an infinite one cross the
        # horizon in one step, and a NaN ceiling never trip
        for name in ("dt", "dt_floor", "grad_ceiling_factor"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} {getattr(self, name)} is not finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.mode not in (FULL, LINEAR_POTENTIAL, FREE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.adaptive and self.dt_floor <= 0:
            raise ValueError("adaptive stepping needs a positive dt floor")
        if self.monitor_every < 1:
            raise ValueError(f"monitor_every {self.monitor_every} < 1")
        if self.store_every < 0:
            raise ValueError(f"store_every {self.store_every} < 0")
        if self.grad_ceiling_factor <= 1:  # would trip on the first row
            raise ValueError(
                f"grad_ceiling_factor {self.grad_ceiling_factor} <= 1")
        # the step-doubling controller needs no invariant, but only full and
        # free modes without the sponge are tested adaptively; the refusal
        # stays until the other cases are
        if self.adaptive and (self.mode == LINEAR_POTENTIAL or self.sponge):
            raise ValueError("adaptive stepping is tested only in full and "
                             "free modes without the sponge")


@dataclass
class RunLog:
    times: list = dc_field(default_factory=list)
    mass: list = dc_field(default_factory=list)
    energy_Z: list = dc_field(default_factory=list)
    grad_u: list = dc_field(default_factory=list)
    N_L2: list = dc_field(default_factory=list)
    u_L4: list = dc_field(default_factory=list)
    K_u: list = dc_field(default_factory=list)
    local_mass: list = dc_field(default_factory=list)
    u_decay_norm: list = dc_field(default_factory=list)
    dt_hist: list = dc_field(default_factory=list)
    sponge_active: bool = False
    attempts: int = 0              # accepted steps = attempts - rejected
    rejected: int = 0              # error rejections and non-finite attempts
    err_max: float | None = None   # largest accepted err (adaptive runs)
    events: list = dc_field(default_factory=list)
    traj_u: TrajectorySamples | None = None
    traj_N: TrajectorySamples | None = None
    final_state: ZakharovState | None = None

    def add_event(self, t: float, kind: str, detail: str = ""):
        self.events.append({"t": t, "kind": kind, "detail": detail})

    def has_event(self, kind: str) -> bool:
        return any(e["kind"] == kind for e in self.events)

    def as_rows(self):
        cols = zip(self.times, self.mass, self.energy_Z, self.grad_u,
                   self.N_L2, self.u_L4, self.K_u, self.local_mass,
                   self.u_decay_norm, self.dt_hist)
        return [row + (int(self.sponge_active),) for row in cols]


CSV_COLUMNS = ("t", "mass", "energy_Z", "grad_u_L2", "N_L2", "u_L4", "K_u",
               "local_mass", "u_L2ms", "dt_current", "sponge_active")


class _Propagator:
    """The Strang stepping kernel for one (grid, cfg).

    The state is spectral: u (n, m) and N (n, k) column blocks.  N is
    either one column shared by every u column (k = 1, as the probe's
    potential) or paired with u column by column (k = m, full mode), and a
    paired call advances [u, u] / [N, N] by the steps (dt, dt/2).  The
    phases and sponge factor of the last step taken are kept.  Each kernel
    pass reads one of the propagator's work blocks, kept per width and
    memory order and reused from call to call; no array the propagator
    returns is a view of one.
    """

    def __init__(self, grid: RadialGrid, cfg: IntegratorConfig):
        self.grid = grid
        self.cfg = cfg
        self._cached_step, self._cached_phases = None, None
        self._blocks = {}
        if cfg.sponge:
            x = (grid.r_nodes / grid.r_max - SPONGE_START_FRACTION) / (
                1.0 - SPONGE_START_FRACTION)
            self.sponge_profile = SPONGE_STRENGTH * smooth_transition(x)
        else:
            self.sponge_profile = None

    def _phases(self, dt: float):
        """(u phase, N phase, source factor, sponge half-damping or None) of
        the step dt as (n, 1) columns.  Those of the last step asked for are
        kept, so a fixed-dt run forms them once."""
        if dt != self._cached_step:
            rho = self.grid.rho_nodes[:, None]
            self._cached_phases = (
                np.exp(0.5j * dt * self.grid.rho_sq[:, None]),
                np.exp(0.5j * dt * rho), 1j * dt * rho,
                None if self.sponge_profile is None else
                np.exp(-0.5 * dt * self.sponge_profile)[:, None])
            self._cached_step = dt
        return self._cached_phases

    def _paired_phases(self, dt: float):
        """`_phases` of the column steps (dt, dt/2) as column-major (n, 2)
        blocks.  Only the dt/2 columns are exponentiated (and kept for the
        second half step); those of dt are their squares, and twice the
        source factor."""
        half = self._phases(0.5 * dt)
        whole = (half[0] ** 2, half[1] ** 2, 2.0 * half[2],
                 None if half[3] is None else half[3] ** 2)
        return tuple(None if w is None else np.concatenate((w.T, h.T)).T
                     for w, h in zip(whole, half))

    def _work(self, name: str, cols: int, order: str) -> np.ndarray:
        """The (n, cols) complex work block `name` in memory order `order`,
        allocated once per width and order."""
        block = self._blocks.get((name, cols, order))
        if block is None:
            block = np.empty((self.grid.n, cols), np.complex128, order=order)
            self._blocks[name, cols, order] = block
        return block

    def load(self, u: np.ndarray, N: np.ndarray):
        """Spectral state of physical u (n,) or (n, m) and N (n,): one pass."""
        u = u.reshape(self.grid.n, -1)
        spec = self.grid.to_spectral_values(np.column_stack([u, N]))
        return spec[:, :-1], spec[:, -1:]

    def step_values(self, u: np.ndarray, N: np.ndarray, dt: float,
                    doubled: bool = False):
        """One Strang step by dt of the spectral blocks u (n, m) and
        N (n, k): (u, N) as new arrays.

        With `doubled` (one-column u and N), the step is taken as two half
        steps and once whole, and the return is (u, N, err): the state
        after the two half steps and `_richardson_error` of the whole step
        against it.  The whole step and the first half step are one paired
        `_strang` call on [u, u] / [N, N] at steps (dt, dt/2), the second
        half step a one-column call: 4 passes.
        """
        if not doubled:
            return self._strang(u, N, dt)
        pu, pN = self._strang(u, N, dt, paired=True)
        nu, nN = self._strang(pu[:, 1:], pN[:, 1:], 0.5 * dt)
        return nu, nN, _richardson_error(self.grid, pu[:, 0], pN[:, 0],
                                         nu[:, 0], nN[:, 0])

    def _strang(self, u: np.ndarray, N: np.ndarray, dt: float,
                paired: bool = False):
        """One Strang step by dt of u (n, m) and N (n, k); `paired` takes a
        one-column u and N by the column steps (dt, dt/2) at once, as the
        (n, 2) blocks [u, u] and [N, N].

        The half-step products are written into the work blocks the two
        passes read; the returned (u, N) are new arrays.  A paired call
        keeps its blocks column-major, so that the elementwise work on a
        few columns runs over contiguous memory (numpy steps a row-major
        (n, 2) view two elements at a time); its kernel passes copy them
        to rows.
        """
        if paired:
            ph_u, ph_N, source, damp = self._paired_phases(dt)
            dt = np.array((dt, 0.5 * dt))
        else:
            ph_u, ph_N, source, damp = self._phases(dt)
        mode = self.cfg.mode
        if mode == FREE and damp is None:
            return ph_u * (ph_u * u), ph_N * (ph_N * N)
        m = max(ph_u.shape[1], u.shape[1])
        k = max(ph_N.shape[1], N.shape[1])
        order = "F" if paired else "C"
        back = self._work("back", m + k, order)
        np.multiply(ph_u, u, out=back[:, :m])
        np.multiply(ph_N, N, out=back[:, m:])
        phys = np.asarray(self.grid.to_physical_values(back), order=order)
        up, Np = phys[:, :m], phys[:, m:]
        if damp is not None:
            up *= damp
            Np *= damp
        # exact nonlinear substep: |u| and Re N stay constant in it.  The
        # forward block is [u..., damped N if a sponge is on, |u|^2 in full
        # mode]
        kd = 0 if damp is None else k
        forward = self._work("forward", m + kd + (m if mode == FULL else 0),
                             order)
        if mode == FULL:
            forward[:, m + kd:] = np.abs(up) ** 2
        if mode == FREE:
            forward[:, :m] = up
        else:
            np.multiply(up, np.exp(-1j * dt * Np.real), out=forward[:, :m])
        if damp is not None:
            forward[:, :m] *= damp
            np.multiply(damp, Np, out=forward[:, m:m + k])
        spec = np.asarray(self.grid.to_spectral_values(forward), order=order)
        N = back[:, m:] if damp is None else spec[:, m:m + k]
        if mode == FULL:
            N = N - source * spec[:, m + kd:]
        return ph_u * spec[:, :m], ph_N * N

    def physical(self, u: np.ndarray, N: np.ndarray) -> np.ndarray:
        """Physical block [u, N] (n, 2) of a one-column state: one pass."""
        return self.grid.to_physical_values(
            np.concatenate((u, N), axis=1, out=self._work("check", 2, "C")))


def _richardson_error(grid: RadialGrid, coarse_u, coarse_N, fine_u,
                      fine_N) -> float:
    """|S_h - S_{h/2}^2|_2 / 3 over u and N, relative to |S_{h/2}^2|_2, from
    spectral columns (n,): the Richardson estimate of the local error of
    two Strang half steps, whose error is O(h^3).  Non-finite when either
    state is."""
    diff = grid.spectral_integral(np.abs(coarse_u - fine_u) ** 2
                                  + np.abs(coarse_N - fine_N) ** 2)
    norm = grid.spectral_integral(np.abs(fine_u) ** 2 + np.abs(fine_N) ** 2)
    return float(np.sqrt(diff / max(norm, np.finfo(float).tiny)) / 3.0)


def _step_factor(err: float) -> float:
    """The next step over this one: STEP_SAFETY (ERR_TOL / err)^(1/3),
    clipped to [STEP_SHRINK, STEP_GROW]."""
    if err <= 0.0:
        return STEP_GROW
    return min(STEP_GROW, max(STEP_SHRINK,
                              STEP_SAFETY * (ERR_TOL / err) ** (1.0 / 3.0)))


class BlowupError(RuntimeError):
    """Stepping stopped after the accepted time t, for `reason`: "non-finite
    values", or "dt underflow" (an adaptive step below dt_floor)."""

    def __init__(self, t: float, reason: str):
        super().__init__(f"{reason} after t={t:g}")
        self.t, self.reason = t, reason


def _accepted_steps(prop: _Propagator, u: np.ndarray, N: np.ndarray,
                    t: float, t_end: float, log: RunLog):
    """Advance the spectral state (u, N) from t to t_end (finite, or a
    ValueError): (k, t, h, u, N) after the k-th accepted step, h its step.

    An attempt takes h = min(dt, t_end - t) by one `step_values` call, and
    an accepted u is the next call's input.  Adaptive, the call is doubled:
    a paired Strang call takes [u, u] / [N, N] by (h, h/2) to S_h and
    S_{h/2} (2 passes of 4 columns), and a one-column call takes the second
    half step, S_{h/2}^2 (2 passes of 2 columns).  err = |S_h - S_{h/2}^2|_2
    / 3 relative to the state (`_richardson_error`) rejects the attempt
    above ERR_TOL, and either way the next step is h times
    `_step_factor(err)`, so dt may grow past cfg.dt, the initial step.  The
    accepted state is S_{h/2}^2, never the extrapolation (which is not
    unitary).  A non-finite attempt halves the step when adaptive; a
    non-finite fixed step, or a next step below dt_floor, raises
    BlowupError.  log counts the attempts and rejections (both kinds) and
    keeps the largest accepted err.
    """
    if not np.isfinite(t_end):
        raise ValueError(f"t_end {t_end} is not finite")
    cfg = prop.cfg
    dt, k = cfg.dt, 0
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        log.attempts += 1
        if cfg.adaptive:
            nu, nN, err = prop.step_values(u, N, h, doubled=True)
            finite = np.isfinite(err)
        else:
            nu, nN = prop.step_values(u, N, h)
            finite = np.isfinite(nu).all() and np.isfinite(nN).all()
        if not finite:
            log.rejected += 1
            if cfg.adaptive and h / 2.0 >= cfg.dt_floor:
                dt = h / 2.0
                continue
            raise BlowupError(t, "non-finite values")
        if cfg.adaptive:
            dt = h * _step_factor(err)
            if err > ERR_TOL:
                log.rejected += 1
                if dt < cfg.dt_floor:
                    raise BlowupError(t, "dt underflow")
                continue
            log.err_max = max(log.err_max, err)
        u, N, t, k = nu, nN, t + h, k + 1
        yield k, t, h, u, N


def flow_energy(report: EnergyReport, mode: str) -> float:
    """Conserved energy of the selected flow, read from a one-column
    `energy_report`: E_Z in full mode, its quadratic part
    (|grad u|_2^2 + |N|_2^2 / 2) / 2 when the coupling is off, since the
    cross term is not an invariant of the free flows."""
    if mode == FULL:
        return report.energy_Z
    return 0.5 * (report.grad_sq + 0.5 * report.N_L2**2)


def _monitor(log: RunLog, grid: RadialGrid, mode: str, u: np.ndarray,
             phys: np.ndarray, t: float, dt: float):
    """Append one row for a one-column state, spectral u and physical block
    phys = [u, N], from its `energy_report` and `flow_energy`: no kernel
    pass."""
    report = energy_report(grid, u[:, 0], phys[:, 0], phys[:, 1])
    a_u = np.abs(phys[:, 0])
    log.times.append(t)
    log.mass.append(report.mass)
    log.energy_Z.append(flow_energy(report, mode))
    log.grad_u.append(np.sqrt(report.grad_sq))
    log.N_L2.append(report.N_L2)
    log.u_L4.append(report.u4_4 ** 0.25)
    log.K_u.append(report.K)
    log.local_mass.append(
        np.sqrt(grid.integral(np.where(grid.r_nodes < R_LOCAL, a_u**2, 0.0))))
    p = 1.0 / (0.5 - S_DECAY / 4.0)
    log.u_decay_norm.append(float(grid.integral(a_u**p) ** (1.0 / p)))
    log.dt_hist.append(dt)


def run(state0: ZakharovState, cfg: IntegratorConfig, t_end: float,
        stop_when=None) -> RunLog:
    """Step to t_end (or a blow-up trip), logging every monitor_every steps.

    The steps come from `_accepted_steps`, which counts them on the log.
    Blow-up trips when the stepper raises BlowupError (non-finite values,
    or a step below dt_floor) or |grad u| exceeds the configured ceiling
    (past GRAD_GROWTH_FACTOR times its initial value it logs
    grad_growth_5x);
    stepping errors become events, never raise, but a t_end that is not
    finite or not past the initial time is a ValueError.  A monitor or
    store instant costs one backward pass.  `stop_when(log) -> bool`,
    checked at monitor instants, allows early exit (verdict already
    established).  With store_every > 0, u and N at t0 and every
    store_every accepted steps are kept as physical columns and stacked
    once, at the end, into the (n, S) blocks log.traj_u and log.traj_N.
    """
    if t_end <= state0.t:
        raise ValueError("t_end must exceed the initial time")
    grid = state0.grid
    prop = _Propagator(grid, cfg)
    log = RunLog(sponge_active=cfg.sponge,
                 err_max=0.0 if cfg.adaptive else None)
    u, N = prop.load(state0.u.values, state0.N.values)
    t = state0.t

    # phys: the physical block [u, N] of the accepted state, None if unknown
    phys = np.column_stack([state0.u.values, state0.N.values])
    _monitor(log, grid, cfg.mode, u, phys, t, cfg.dt)
    grad_ceiling = cfg.grad_ceiling_factor * max(log.grad_u[0], 1e-12)

    store = cfg.store_every > 0
    if store:            # physical columns of u and N at the store instants
        times_s, cols_u, cols_N = [t], [phys[:, 0]], [phys[:, 1]]

    try:
        for k, t, h, u, N in _accepted_steps(prop, u, N, t, t_end, log):
            store_now = store and k % cfg.store_every == 0
            monitor_now = k % cfg.monitor_every == 0 or t >= t_end - 1e-12
            phys = prop.physical(u, N) if monitor_now or store_now else None
            if store_now:
                times_s.append(t)
                cols_u.append(phys[:, 0])
                cols_N.append(phys[:, 1])
            if monitor_now:
                _monitor(log, grid, cfg.mode, u, phys, t, h)
                if log.grad_u[-1] > grad_ceiling:
                    log.add_event(t, "blowup",
                                  f"grad ceiling {grad_ceiling:.3g} exceeded")
                    break
                if log.grad_u[-1] > GRAD_GROWTH_FACTOR * log.grad_u[0]:
                    if not log.has_event("grad_growth_5x"):
                        log.add_event(t, "grad_growth_5x",
                                      f"grad {log.grad_u[-1]:.3g}")
                if stop_when is not None and stop_when(log):
                    log.add_event(t, "early_exit", "stop condition met")
                    break
    except BlowupError as err:
        log.add_event(err.t, "blowup", err.reason)

    if store:
        log.traj_u = TrajectorySamples(grid, times_s, np.column_stack(cols_u),
                                       "u")
        log.traj_N = TrajectorySamples(grid, times_s, np.column_stack(cols_N),
                                       "N")
    if phys is None:
        phys = prop.physical(u, N)
    log.final_state = ZakharovState(RadialField(grid, phys[:, 0].copy()),
                                    RadialField(grid, phys[:, 1].copy()), t)
    return log


# -- decomposition of the wave component --------------------------------------


@dataclass
class WaveDecomposition:
    free: TrajectorySamples
    bilinear: TrajectorySamples
    duhamel: TrajectorySamples
    sup_L2_free: float
    sup_L2_bilinear: float
    sup_L2_duhamel: float


def decompose_N(log: RunLog, iota: float, quad=None) -> WaveDecomposition:
    """Split N = N_F + N_N + N_D along the trajectory a run stored.

    N_N(t) = D Omega_tilde_iota(u, conj u), all samples in one kernel
    sweep and one spectral -> physical pass; N_F propagates N(0) - N_N(0)
    by the free half-wave flow, all samples as one phase block and one
    kernel pass; N_D is the remainder (the Duhamel content).  A run
    without a stored trajectory, or with the sponge on (the free flow would
    put its damping into N_D), is refused.
    """
    if log.traj_u is None:
        raise ValueError("the run stored no trajectory (store_every = 0)")
    if log.sponge_active:
        raise ValueError("the run had the sponge on, which the free "
                         "half-wave flow of N_F does not model")
    grid, times = log.traj_u.grid, log.traj_u.times
    nn = grid.to_physical_values(grid.rho_nodes[:, None] * (
        omega_tilde_self_spectra(
            grid, grid.to_spectral_values(log.traj_u.values), iota, quad)))
    N = log.traj_N.values
    seed = grid.to_spectral_values(N[:, 0] - nn[:, 0])
    phases = np.exp(1j * np.outer(grid.rho_nodes, times - times[0]))
    nf = grid.to_physical_values(seed[:, None] * phases)
    nd = N - nf - nn
    sup_f, sup_b, sup_d = (float(grid.integral(np.abs(v) ** 2).max() ** 0.5)
                           for v in (nf, nn, nd))
    return WaveDecomposition(
        free=TrajectorySamples(grid, times, nf, "N_F"),
        bilinear=TrajectorySamples(grid, times, nn, "N_N"),
        duhamel=TrajectorySamples(grid, times, nd, "N_D"),
        sup_L2_free=sup_f, sup_L2_bilinear=sup_b, sup_L2_duhamel=sup_d)


# -- Strichartz probe ----------------------------------------------------------


def band_limited_unit_field(grid: RadialGrid, rng: np.random.Generator,
                            band=(0.2, 0.55)) -> RadialField:
    """Random band-limited field normalized to unit L^2."""
    spec = np.zeros(grid.n, dtype=complex)
    i0, i1 = int(band[0] * grid.n), int(band[1] * grid.n)
    spec[i0:i1] = (rng.standard_normal(i1 - i0)
                   + 1j * rng.standard_normal(i1 - i0))
    f = transform(RadialField(grid, spec, SPECTRAL))
    return (1.0 / lp_norm(f, 2)) * f


def potential_from_family(grid: RadialGrid, family: dict,
                          rng: np.random.Generator | None = None) -> RadialField:
    """Initial wave datum V(0) for the probe families.

    kinds: "zero"; "gaussian_mass" (mass = target |V(0)|_2, width);
    "ground_state_squared" (lam: V = W_lam^2 with W_lam = lam W(lam x)).
    """
    kind = family.get("kind", "zero")
    if kind == "zero":
        return RadialField(grid, np.zeros(grid.n, dtype=complex))
    if kind == "gaussian_mass":
        width = family.get("width", 2.0)
        target = family["mass"]
        vals = np.exp(-grid.r_nodes**2 / (2 * width**2)).astype(complex)
        f = RadialField(grid, vals)
        return (target / lp_norm(f, 2)) * f
    if kind == "ground_state_squared":
        lam = family.get("lam", 1.0)
        vals = (lam * w_profile(lam * grid.r_nodes)) ** 2
        return RadialField(grid, vals.astype(complex))
    raise ValueError(f"unknown potential family {kind!r}")


@dataclass
class ProbeEstimate:
    horizons: np.ndarray
    max_ratio: np.ndarray            # max over the ensemble at each horizon
    potential_mass: float


def strichartz_probe(grid: RadialGrid, family: dict, delta: float,
                     ensemble_size: int, horizons, rng: np.random.Generator,
                     dt: float = 0.02) -> ProbeEstimate:
    """Empirical X~^delta / L^2 ratio growth profile.

    Evolves random unit-L^2 band-limited data under
    (i d/dt - Lap - Re V) u = 0 with V carried by the free wave flow
    (linear_potential mode), and reports the worst ratio at each horizon.

    The members step together, by `_accepted_steps`, as the u columns of
    one state that shares the V column.  At t = 0 and at every store
    instant (each PROBE_STORE_EVERY-th step, the rule of `run`),
    `dyadic_profile` gives every member's X^delta profile, each dyadic
    block synthesised from its own rows for all members at once; each
    horizon T is reduced from the samples at t <= T.  A non-finite step
    raises BlowupError, and a horizon that is not finite a ValueError.
    """
    horizons = np.sort(np.asarray(horizons, dtype=float))
    t_end = float(horizons[-1])
    if horizons[0] < 0.0 or t_end <= 0.0:   # each horizon T is a window [0, T]
        raise ValueError(f"probe horizons {horizons.tolist()} must be >= 0 "
                         "and reach past t = 0")
    s, p = xdelta_exponents(delta)
    V0 = potential_from_family(grid, family, rng)
    members = [band_limited_unit_field(grid, rng).values
               for _ in range(ensemble_size)]
    prop = _Propagator(grid, IntegratorConfig(
        dt=dt, mode=LINEAR_POTENTIAL, store_every=PROBE_STORE_EVERY))
    u, V = prop.load(np.column_stack(members), V0.values)

    # the samples are those run() stores, so each horizon keeps a
    # restriction of run()'s stored trajectory
    stored = ((t, u) for k, t, _, u, _ in
              _accepted_steps(prop, u, V, 0.0, t_end, RunLog())
              if k % prop.cfg.store_every == 0)
    times, besov, block_l2 = [], [], []
    for t, u in chain([(0.0, u)], stored):
        terms, l2 = dyadic_profile(u, grid, s, p)
        times.append(t)
        besov.append(np.sqrt(np.sum(terms**2, axis=1)))
        block_l2.append(l2)

    times = np.array(times)
    besov, block_l2 = np.array(besov), np.array(block_l2)
    worst = np.array([
        xdelta_from_profile(times[keep], besov[keep], block_l2[keep]).max()
        for keep in (times <= T for T in horizons)])  # |u(0)|_2 = 1
    return ProbeEstimate(horizons=horizons, max_ratio=worst,
                         potential_mass=lp_norm(V0, 2))


# -- scattering diagnostics ----------------------------------------------------


@dataclass
class ScatteringVerdict:
    verdict: str
    detail: dict


def scattering_diagnostics(log: RunLog) -> ScatteringVerdict:
    """Heuristic verdict from a completed run.

    scattering_like: the L^{2(-s)} norm and the local mass both fall below
    DECAY_FRACTION of their run maxima over the final quarter while |grad u|
    and |N|_2 stay bounded.  blowup_like: a blow-up event fired or |grad u|
    grew past GRAD_GROWTH_FACTOR times its initial value.  Otherwise
    inconclusive.  Infinite-time scattering is not decidable at desk scale;
    the thresholds are module constants and the measured ratios are reported.
    """
    t = np.asarray(log.times)
    grad = np.asarray(log.grad_u)
    detail = {"events": list(log.events)}
    if log.has_event("blowup") or (len(grad) and
                                   grad.max() >= GRAD_GROWTH_FACTOR * grad[0]):
        detail["grad_growth"] = float(grad.max() / max(grad[0], 1e-300))
        return ScatteringVerdict(BLOWUP_LIKE, detail)
    if len(t) < 8:
        return ScatteringVerdict(INCONCLUSIVE, detail)
    last_quarter = t >= t[0] + 0.75 * (t[-1] - t[0])
    decay = np.asarray(log.u_decay_norm)
    local = np.asarray(log.local_mass)
    decay_ratio = decay[last_quarter].max() / max(decay.max(), 1e-300)
    local_ratio = local[last_quarter].max() / max(local.max(), 1e-300)
    detail.update(decay_ratio=float(decay_ratio),
                  local_ratio=float(local_ratio),
                  grad_growth=float(grad.max() / max(grad[0], 1e-300)))
    bounded = grad.max() < GRAD_GROWTH_FACTOR * max(grad[0], 1e-300)
    if bounded and decay_ratio < DECAY_FRACTION and local_ratio < DECAY_FRACTION:
        return ScatteringVerdict(SCATTERING_LIKE, detail)
    return ScatteringVerdict(INCONCLUSIVE, detail)
