"""Spans around sedsim's public functions, recorded from outside the program.

The tracer replaces a function with a timing wrapper in the namespace where
its callers look it up: ``sedsim.harness.estimate_v`` for the pipelines,
``sedsim.kinematics.estimate_v`` for the calls the estimators make to each
other, ``sedsim.dynamics.cache_grid`` for the integrator. Wrapping a name in
every namespace that calls it catches nested calls once each; the wrapper
calls the original function, never another wrapper. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import time

# (module, attribute, layer). Layers are sedsim's modules.
TARGETS = [
    ("harness", "load_config", "config"),
    ("config", "load_config", "config"),
    ("dynamics", "make_field", "field"),
    ("dynamics", "cache_grid", "field"),
    ("harness", "make_field", "field"),
    ("harness", "autocorrelation_check", "field"),
    ("harness", "integrate_ensemble", "dynamics"),
    ("harness", "dump_ensemble", "dynamics"),
    ("harness", "energy_balance", "dynamics"),
    ("harness", "relaxation_curve", "dynamics"),
    ("dynamics", "integrate_ensemble", "dynamics"),
    ("dynamics", "dump_ensemble", "dynamics"),
    ("dynamics", "energy_balance", "dynamics"),
    ("dynamics", "relaxation_curve", "dynamics"),
    ("harness", "ou_ensemble", "reference"),
    ("harness", "solve_stationary", "schrodinger"),
    ("harness", "velocity_fields", "schrodinger"),
    ("schrodinger", "solve_stationary", "schrodinger"),
] + [(mod, name, "kinematics")
     for mod in ("harness", "kinematics")
     for name in ("estimate_v", "estimate_u", "estimate_va", "density_estimate",
                  "estimate_D", "diffusion_sweep", "classify_branch")] + [
    ("kinematics", "dynamics_residuals", "kinematics"),
]


class Tracer:
    """Records (name, layer, parent, wall, cpu) per call. Targets missing
    from the program are listed in ``missing`` rather than failing the run,
    so a renamed function shows up as a zero layer plus a named gap."""

    def __init__(self):
        self.spans = []
        self.missing = set()
        self._stack = []
        self._saved = []

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "layer": layer, "parent": parent,
                           "t0": time.perf_counter(),
                           "c0": time.process_time()})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span["wall"] = time.perf_counter() - span.pop("t0")
        span["cpu"] = time.process_time() - span.pop("c0")
        self._stack.pop()

    def install(self, modules: dict) -> None:
        for mod_name, attr, layer in TARGETS:
            module = modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, attr, layer))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name == "ou_ensemble":
                tracer.spans[idx]["samples"] = int(result.positions.size)
            return result

        return traced


def layer_metrics(spans: list, context: dict) -> dict:
    """Layer metrics of one traced execution, whose root span is named
    'pipeline'. context holds what spans do not: trajectory-steps, the
    field table size and the dump size."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)

    def total(name, direct=False):
        """Wall time in calls of name; direct=True keeps only the calls the
        pipeline makes itself, not those nested in another traced call."""
        return sum(s["wall"] for s in spans if s["name"] == name and (
            not direct or spans[s["parent"]]["name"] == "pipeline"))

    def count(*names):
        return sum(1 for s in spans if s["name"] in names)

    self_cpu, self_wall = {}, 0.0
    for i, s in enumerate(spans):
        kids = children.get(i, [])
        own = s["cpu"] - sum(spans[j]["cpu"] for j in kids)
        self_cpu[s["layer"]] = self_cpu.get(s["layer"], 0.0) + own
        if s["name"] == "pipeline":
            self_wall += s["wall"] - sum(spans[j]["wall"] for j in kids)

    synth = total("cache_grid")
    calls = count("cache_grid")
    integrate = total("integrate_ensemble")
    in_integration = [j for i, s in enumerate(spans)
                      if s["name"] == "integrate_ensemble"
                      for j in children.get(i, [])]
    integrate_self = integrate - sum(spans[j]["wall"] for j in in_integration)
    traj_steps = context.get("traj_steps", 0)
    ou_s = total("ou_ensemble")
    ou_samples = sum(s.get("samples", 0) for s in spans)

    m = {
        "field.cache_grid_calls": (calls, "count"),
        "field.synth_s": (synth, "s"),
        "field.synth_ms_per_traj": (1e3 * synth / calls if calls else 0.0, "ms"),
        "field.table_mb": (context.get("table_mb", 0.0), "MB"),
        "field.autocorr_check_s": (total("autocorrelation_check"), "s"),
        "dynamics.integrate_self_s": (integrate_self, "s"),
        "dynamics.rk4_ns_per_traj_step": (
            1e9 * integrate_self / traj_steps if traj_steps else 0.0, "ns"),
        "dynamics.energy_balance_s": (total("energy_balance"), "s"),
        "dynamics.relaxation_s": (total("relaxation_curve"), "s"),
        "dynamics.dump_s": (total("dump_ensemble"), "s"),
        "dynamics.dump_mb": (context.get("dump_mb", 0.0), "MB"),
        "kinematics.estimate_v_s": (total("estimate_v", direct=True), "s"),
        "kinematics.estimate_u_s": (total("estimate_u", direct=True), "s"),
        "kinematics.estimate_va_s": (total("estimate_va", direct=True), "s"),
        "kinematics.density_s": (total("density_estimate", direct=True), "s"),
        "kinematics.diffusion_sweep_s": (total("diffusion_sweep"), "s"),
        "kinematics.classify_branch_s": (total("classify_branch"), "s"),
        "kinematics.estimator_calls": (
            count("estimate_v", "estimate_u", "density_estimate", "estimate_D"),
            "count"),
        "reference.ou_sample_s": (ou_s, "s"),
        "reference.ou_samples_per_s": (ou_samples / ou_s if ou_s else 0.0, "1/s"),
        "schrodinger.eigensolve_s": (total("solve_stationary"), "s"),
        "config.load_s": (total("load_config"), "s"),
        "harness.self_s": (self_wall, "s"),
    }
    for layer in ("field", "dynamics", "kinematics", "reference",
                  "schrodinger", "config", "harness"):
        m[f"{layer}.cpu_s"] = (self_cpu.get(layer, 0.0), "s")
    return m
