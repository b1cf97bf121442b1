"""Workload inputs and pipeline executions.

Each workload turns the benchmark seed into the program's inputs, a JSON
config written into the execution's run directory, and executes one
pipeline on it. Execution k of a run with seed s uses master_seed
1000 s + k, so successive executions of one run use successive seeds and
two runs with different seeds share none.

Every call into sedsim goes through a module attribute (``harness.x``,
``dynamics.x``), so the tracer can wrap those attributes from outside.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

from sedsim import config as sconfig
from sedsim import dynamics, field, harness, kinematics, schrodinger

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def master_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, columns) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


class ShippedConfig:
    """A shipped config run through ``harness.run_experiment``; only
    ``seeds.master_seed`` is changed."""

    def __init__(self, config_file: str):
        self.base = json.loads((CONFIGS / config_file).read_text())

    def config(self, seed: int, k: int) -> dict:
        cfg = copy.deepcopy(self.base)
        cfg["seeds"]["master_seed"] = master_seed(seed, k)
        return cfg

    def execute(self, cfg_path: Path, out_root: Path) -> dict:
        result = harness.run_experiment(cfg_path, output_root=out_root)
        return {"run_dir": result.run_dir, "exit_code": result.exit_code,
                "failed_rows": [r.observable for r in result.report.rows
                                if not r.passed]}


# The quartic workload. harness accepts only harmonic potentials, so the
# same stages run here through the public library calls. The config is
# schema-valid and goes through sedsim.config.load_config like the others.
# Size: the run (3,000) stays inside the comb period 2 pi 768/1.5 = 3,217,
# so n_fft is about 2 n_steps, and the window [1000, 3000] starts ~25
# energy-relaxation times in. dt is 0.13, a third of the field's bound
# 2 pi/(10 omega_cutoff): the local frequency sqrt(3 k4) |x| reaches 3.5 at
# |x| = 2, where RK4 at dt 0.39 strays from DOP853 by up to 37 % of sigma_x
# within 9 time units; at 0.13 it stays below 0.3 %.
QUARTIC_CONFIG = {
    "schema_version": 1,
    "experiment": "sed_harmonic_ground",
    "seeds": {"master_seed": 0},
    "field": {"hbar": 1.0, "c": 1.0, "omega_cutoff": 1.6, "omega_min": 0.1,
              "n_modes": 768},
    "particle": {"mass": 1.0, "tau": 0.02,
                 "potential": {"kind": "quartic", "k4": 1.0}},
    "time": {"dt": 0.13, "t_final": 3000.0, "record_stride": 9},
    "ensemble": {"n_traj": 512, "n_workers": 1, "store_field": True,
                 "initial_conditions": {"sampler": "delta", "x0": 0.0,
                                        "v0": 0.0}},
    "coarse_grain": {"delta_t": 2.34, "x_bins": {"min": -2.4, "max": 2.4,
                                                 "n": 31},
                     "t_window": [1000.0, 3000.0], "min_count": 25,
                     "delta_t_sweep": [1.17, 2.34, 3.51, 4.68, 7.02, 11.7],
                     "thin_time": 6.0},
    "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 1001},
    "outputs": {"directory": "runs/sed_quartic", "ensemble_dump": "binary"},
    "tolerances": {"energy_balance": 0.10},
}


def comb_time_grid(fspec, t0: float, dt_cfg: float, t_final: float):
    """(dt, n_steps) with the half-step grid on the comb's FFT grid and
    n_fft covering the run, as the harness resolves its grid."""
    h, n_fft = field.comb_cache_params(fspec, h_target=dt_cfg / 2.0)
    for _ in range(8):
        n_steps = max(1, math.ceil((t_final - t0) / (2.0 * h) - 1e-9))
        if n_fft >= 2 * n_steps + 1:
            return 2.0 * h, n_steps
        h, n_fft = field.comb_cache_params(fspec, h_target=dt_cfg / 2.0,
                                           min_points=2 * n_steps + 1)
    raise RuntimeError("comb grid did not converge")


def snap_lag(rec_dt: float, lag: float) -> float:
    return max(1, int(round(lag / rec_dt))) * rec_dt


def window_refs(times, window, lag: float, thin_steps: int):
    lo = max(window[0], times[0] + lag)
    hi = min(window[1], times[-1] - lag)
    sel = np.nonzero((times >= lo - 1e-9) & (times <= hi + 1e-9))[0]
    return tuple(float(t) for t in times[sel[::max(1, thin_steps)]])


def field_spec(cfg: dict):
    f = cfg["field"]
    return field.FieldSpec(hbar=f["hbar"], c=f["c"],
                           omega_cutoff=f["omega_cutoff"],
                           omega_min=f["omega_min"], n_modes=f["n_modes"])


def quartic_specs(cfg: dict):
    fspec, p = field_spec(cfg), cfg["particle"]
    particle = dynamics.ParticleSpec.from_tau(
        p["mass"], p["tau"], dynamics.quartic_potential(p["potential"]["k4"]),
        c=fspec.c)
    return fspec, particle


class Quartic:
    def config(self, seed: int, k: int) -> dict:
        cfg = copy.deepcopy(QUARTIC_CONFIG)
        cfg["seeds"]["master_seed"] = master_seed(seed, k)
        return cfg

    def execute(self, cfg_path: Path, out_root: Path) -> dict:
        cfg = sconfig.load_config(cfg_path)
        run_dir = out_root / cfg["outputs"]["directory"]
        run_dir.mkdir(parents=True)
        fspec, particle = quartic_specs(cfg)
        tcfg, ecfg, cg = cfg["time"], cfg["ensemble"], cfg["coarse_grain"]
        dt, n_steps = comb_time_grid(fspec, 0.0, tcfg["dt"], tcfg["t_final"])
        ic = ecfg["initial_conditions"]
        ens = dynamics.integrate_ensemble(
            particle, fspec, dynamics.DeltaIC(ic["x0"], ic["v0"]), 0.0, dt,
            n_steps, ecfg["n_traj"], cfg["seeds"]["master_seed"],
            record_stride=tcfg["record_stride"], n_workers=ecfg["n_workers"],
            store_field=ecfg["store_field"])
        dynamics.dump_ensemble(ens, run_dir / "ensemble", "binary")

        window = tuple(cg["t_window"])
        balance = dynamics.energy_balance(ens, particle, window)
        _write_json(run_dir / "balance.json", balance.to_dict())
        rtimes, rcurve = dynamics.relaxation_curve(ens, particle)
        _write_csv(run_dir / "relaxation.csv", "t,mean_energy",
                   (rtimes, rcurve))

        thin = max(1, int(round(cg["thin_time"] / ens.rec_dt)))
        bins = cg["x_bins"]

        def spec(lag):
            return kinematics.CoarseGrainSpec(
                delta_t=lag, x_bins=bins["n"], x_range=(bins["min"], bins["max"]),
                reference_times=window_refs(ens.times, window, lag, thin),
                min_count=cg["min_count"])

        spec0 = spec(snap_lag(ens.rec_dt, cg["delta_t"]))
        fields_dir = run_dir / "fields"
        fields_dir.mkdir()
        kinematics.estimate_v(ens, spec0).to_csv(fields_dir / "v.csv")
        kinematics.estimate_u(ens, spec0).to_csv(fields_dir / "u.csv")
        va = kinematics.estimate_va(ens, spec0)
        va.backward_difference.to_csv(fields_dir / "va_direct.csv")
        va.v_minus_u.to_csv(fields_dir / "va_combo.csv")
        rho = kinematics.density_estimate(ens, spec0)
        rho.to_csv(fields_dir / "rho.csv")

        lags = list(dict.fromkeys(snap_lag(ens.rec_dt, x)
                                  for x in cg["delta_t_sweep"]))
        sweep = kinematics.diffusion_sweep(ens, spec(max(lags)), lags)
        _write_json(run_dir / "dsweep.json", sweep.to_dict())
        branch = kinematics.classify_branch(ens, spec0, particle.mass,
                                            particle.potential.f)
        _write_json(run_dir / "branch.json", branch.to_dict())

        g = cfg["grid"]
        grid = schrodinger.GridSpec(g["x_min"], g["x_max"], g["n_points"])
        energies, states = schrodinger.solve_stationary(
            grid, particle.potential.V, particle.mass,
            fspec.hbar / (2.0 * particle.mass), 1)
        _write_csv(run_dir / "density_qm.csv", "x,rho_qm",
                   (rho.x_centers, np.interp(rho.x_centers, grid.x,
                                             states[0].density())))
        _write_json(run_dir / "run.json", {
            "ground_energy": float(energies[0]),
            "balance_stationary": bool(balance.stationary),
            "non_finite": int(np.count_nonzero(ens.status)),
            "dt": dt, "n_steps": n_steps})
        return {"run_dir": run_dir, "exit_code": 0, "failed_rows": []}


WORKLOADS = {
    "sed-ground": lambda: ShippedConfig("sed_harmonic_ground.json"),
    "sed-quartic": Quartic,
    "ou-calibration": lambda: ShippedConfig("ou_calibration.json"),
}
