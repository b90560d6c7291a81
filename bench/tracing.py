"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: while a ``Tracer`` is
installed, the public functions of each layer (and the step boundary
``_Propagator.step_values``) are replaced on their modules by wrappers that
open and close a span around the call and update counters.  Nothing under
``src/`` is edited, and ``uninstall`` puts every original back.

A span is (name, start, end, parent).  Spans whose name starts with
``grid.`` belong to the grid layer; for every other span the tracer also
accumulates the time spent in its outermost nested grid spans, so a layer's
time can be reported with kernel passes and finite differences taken out.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array
from collections import Counter

import numpy as np

from zakharov4d import dynamics, dyadic, grid, normal_form, virial

KERNEL = "grid.kernel"
FD = "grid.fd"
BUILD = "grid.build"
STEP = "dynamics.step"
RUN = "dynamics.run"
ENERGY = "variational.energy"
NORM = "dyadic.norm"
BESOV = "dyadic.besov"
BILINEAR = "normal_form.bilinear."          # + kernel kind
OMEGA = "normal_form.omega"
INVERSE = "normal_form.inverse"
TRANSFORM = "normal_form.transform"
VALUES = "virial.values"
RATE_CHECK = "virial.rate_check"

# (module, attribute, span name).  Only the namespace the caller looks the
# function up in is patched: the energies are traced as called from run, not
# as called from the virial layer.
FUNCTION_SPANS = (
    (grid, "radial_derivative", FD),
    (grid, "radial_laplacian_fd", FD),
    (virial, "radial_derivative", FD),
    (grid, "_fornberg_matrix", BUILD),
    (dynamics, "run", RUN),
    (dynamics, "flow_energy", ENERGY),
    (dynamics, "zakharov_energy", ENERGY),
    (dynamics, "nehari_K", ENERGY),
    (dynamics, "spacetime_norm_X", NORM),
    (dyadic, "besov_from_spectrum", BESOV),
    (normal_form, "normal_transform", TRANSFORM),
    (normal_form, "normal_inverse", INVERSE),
    (normal_form, "omega", OMEGA),
    (virial, "virial_values", VALUES),
    (virial, "rate_check", RATE_CHECK),
)


class Tracer:
    """Spans and counters of one traced run, kept in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.grid_inside = array("d")   # time in outermost nested grid spans
        self.passes_inside = array("i")  # kernel passes nested at any depth
        self._open: list[int] = []
        self.counters: Counter = Counter()
        self.dt_min = np.inf
        self._last_step_u = None
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self.grid_inside.append(0.0)
        self.passes_inside.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = t = time.perf_counter()
        self._open.pop()
        name = self.names[self.name_id[idx]]
        if name == KERNEL:
            self.passes_inside[idx] += 1
        p = self.parent[idx]
        if p < 0:
            return
        self.passes_inside[p] += self.passes_inside[idx]
        parent_is_grid = self.names[self.name_id[p]].startswith("grid.")
        if not name.startswith("grid."):
            self.grid_inside[p] += self.grid_inside[idx]
        elif not parent_is_grid:
            self.grid_inside[p] += t - self.start[idx]

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            if before is not None:
                before(args)
            idx = tracer.open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    # -- counters at the boundaries ------------------------------------------

    def _kernel_before(self, args):
        grid_obj, values = args[0], args[1]
        cols = values.size // grid_obj.n
        # complex columns reach BLAS as interleaved real pairs
        cols *= 2 if np.iscomplexobj(values) else 1
        n = grid_obj.n
        self.counters["kernel_columns"] += cols
        self.counters["kernel_flop"] += 2 * n * n * cols
        self.counters["kernel_bytes"] += 8 * (n * n + 2 * n * cols)

    def _step_before(self, args):
        # run() feeds an accepted step's output into the next call and
        # re-feeds the old state after a rejection, so an input that is the
        # previous call's output object marks that call as accepted
        _, u, _, dt = args[:4]
        self.counters["step_attempts"] += 1
        if u is self._last_step_u:
            self.counters["steps_accepted"] += 1
        self.dt_min = min(self.dt_min, float(dt))

    def _step_after(self, args, out):
        self._last_step_u = out[0]

    def _run_after(self, args, log):
        if log.final_state.u.values is self._last_step_u:
            self.counters["steps_accepted"] += 1
        self._last_step_u = None

    def _norm_before(self, args):
        self.counters["norm_samples"] += len(args[0].times)

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        cls = grid.RadialGrid
        for attr in ("to_spectral_values", "to_physical_values"):
            self._patch(cls, attr, self._wrap(getattr(cls, attr), KERNEL,
                                              before=self._kernel_before))
        self._patch(cls, "__init__", self._wrap(cls.__init__, BUILD))
        prop = dynamics._Propagator
        self._patch(prop, "step_values",
                    self._wrap(prop.step_values, STEP,
                               before=self._step_before,
                               after=self._step_after))
        self._patch(normal_form, "apply_bilinear",
                    self._wrap(normal_form.apply_bilinear,
                               lambda args: BILINEAR + args[0].kind))
        hooks = {RUN: {"after": self._run_after},
                 NORM: {"before": self._norm_before}}
        for module, attr, name in FUNCTION_SPANS:
            self._patch(module, attr, self._wrap(getattr(module, attr), name,
                                                 **hooks.get(name, {})))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def mark(self) -> int:
        """Start a repetition: reset the counters, return the next span."""
        self.counters = Counter()
        self.dt_min = np.inf
        return len(self.start)

    def figures(self, first: int) -> dict:
        """Per-layer metrics of the spans opened since ``mark`` gave first."""
        names = self.names
        spans = ((names[self.name_id[i]], self.end[i] - self.start[i],
                  self.grid_inside[i], self.passes_inside[i],
                  names[self.name_id[self.parent[i]]]
                  if self.parent[i] >= 0 else None)
                 for i in range(first, len(self.start)))
        return layer_figures(spans, self.counters, self.dt_min)

    def build_s(self, first: int) -> float:
        """Time in grid construction and lazy matrix builds since first."""
        build = self._ids.get(BUILD)
        return sum(self.end[i] - self.start[i]
                   for i in range(first, len(self.start))
                   if self.name_id[i] == build)

    def summary(self) -> dict:
        """Per span name: count, inclusive seconds, and self seconds (the
        span minus its direct children), over every span recorded."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=dur.size)
        ids = np.asarray(self.name_id)
        k = len(self.names)
        count = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - children, minlength=k)
        return {name: {"count": int(count[i]), "total_s": float(incl[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent),
            grid_inside=np.asarray(self.grid_inside),
            passes_inside=np.asarray(self.passes_inside))


def layer_figures(spans, counters: Counter, dt_min: float) -> dict:
    """Per-layer metrics of one traced repetition.

    Times named ``*_s`` other than the grid's own are self times: the time
    of the layer's spans minus the kernel passes and finite differences
    nested in them.  ``dynamics.run_s`` is inclusive.
    """
    count = Counter()
    incl = Counter()
    self_s = Counter()
    passes = Counter()
    for name, dur, grid_in, passes_in, parent in spans:
        if name == ENERGY and parent == ENERGY:
            continue                      # flow_energy -> zakharov_energy
        if name == OMEGA and parent != INVERSE:
            continue                      # omega calls of the forward map
        count[name] += 1
        incl[name] += dur
        self_s[name] += dur - grid_in
        passes[name] += passes_in

    steps_acc = counters["steps_accepted"]
    attempts = counters["step_attempts"]
    samples = counters["norm_samples"]
    kernel_bytes = counters["kernel_bytes"]
    bilinear = {k: BILINEAR + k for k in (normal_form.OMEGA_PLUS,
                                          normal_form.OMEGA_MINUS,
                                          normal_form.OMEGA_TILDE)}
    out = {
        "grid.kernel_passes": count[KERNEL],
        "grid.kernel_columns": counters["kernel_columns"],
        "grid.kernel_s": incl[KERNEL],
        "grid.kernel_bytes": kernel_bytes,
        "grid.kernel_flop_per_byte": (counters["kernel_flop"] / kernel_bytes
                                      if kernel_bytes else 0.0),
        "grid.fd_calls": count[FD],
        "grid.fd_s": incl[FD],
        "dynamics.step_attempts": attempts,
        "dynamics.steps_accepted": steps_acc,
        "dynamics.accept_ratio": steps_acc / attempts if attempts else 0.0,
        "dynamics.dt_min": dt_min if np.isfinite(dt_min) else 0.0,
        "dynamics.passes_per_step": (passes[RUN] / steps_acc
                                     if steps_acc else 0.0),
        "dynamics.step_self_s": self_s[STEP],
        "dynamics.run_s": incl[RUN],
        "variational.energy_calls": count[ENERGY],
        "variational.energy_s": self_s[ENERGY],
        "dyadic.norm_calls": count[NORM],
        "dyadic.norm_s": self_s[NORM],
        "dyadic.besov_calls": count[BESOV],
        "dyadic.passes_per_sample": passes[NORM] / samples if samples else 0.0,
        "normal_form.bilinear_calls": sum(count[s] for s in bilinear.values()),
        "normal_form.inverse_iters": count[OMEGA],
        "virial.values_calls": count[VALUES],
        "virial.values_s": self_s[VALUES],
    }
    for kind, span in bilinear.items():
        out[f"normal_form.bilinear_s.{kind}"] = self_s[span]
    return out


COUNT_METRICS = (
    "grid.kernel_passes", "grid.kernel_columns", "grid.fd_calls",
    "dynamics.step_attempts", "dynamics.steps_accepted",
    "variational.energy_calls", "dyadic.norm_calls", "dyadic.besov_calls",
    "normal_form.bilinear_calls", "normal_form.inverse_iters",
    "virial.values_calls",
)


def median_figures(per_rep: list) -> dict:
    """Counts from the first repetition, everything else as the median."""
    first = per_rep[0]
    return {k: (first[k] if k in COUNT_METRICS
                else statistics.median(r[k] for r in per_rep))
            for k in first}
