"""Experiment orchestration: registered pipelines, artifacts, comparison reports.

A run takes a validated config and plans one of the registered pipelines:
the plan builds every object the run derives from the config (specs, time
grid, lags, windows, reference grid) and refuses what joins several keys
badly. Each key's own rule is in config._SCHEMA. Only then does the run
create its directory, persist every stage's outputs there, and produce a
ComparisonReport: one row per observable with a simulation-side value, a
reference-side value, both provenances, and a pass/fail against a tolerance
read from the config. The report's exit code is the process exit code:
0 all rows pass, 1 any tolerance failure, 2 config/IO errors (raised as
ConfigError by validation or the plan, before any output is written).

Registered pipelines:

sed_harmonic_ground
    Charged particle in a harmonic trap driven by the synthesized zero-point
    band. Stationary-window statistics are compared against the ground state
    of the corresponding wave equation (tridiagonal eigensolve) and the
    energy-balance condition is checked. Coarse-grained estimators and the
    branch classifier run on the stationary window with time derivatives
    omitted.

ou_calibration
    Overdamped Langevin (Ornstein-Uhlenbeck) ensembles sampled with the
    exact transition kernel. Equilibrium ensembles calibrate the v, u and
    diffusion estimators against closed forms; a separate cold-start
    ensemble, analyzed on an early relaxing window with measured time
    derivatives, feeds the branch classifier, which must select the
    classical branch there.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import tempfile
import time as _time
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import (ConfigError, config_hash, dumps_config, load_config,
                     validate_config)
from .dynamics import (STATUS_OK, BalanceSums, ColumnStore, EnergySums,
                       EnsembleWriter, ParticleSpec, DeltaIC, GaussianIC,
                       comb_time_grid, harmonic_potential, integrate_stream,
                       load_blocks, record_times, stationary_guess_ic,
                       window_columns)
from .field import FieldSpec, autocorrelation_check, conv_length, make_field
from .kinematics import CoarseGrainSpec, KinematicsError, SampleSet
from .reference import (gaussian_density, ou_stationary_variance, ou_stream,
                        ou_u_slope_equilibrium)
from .schrodinger import GridSpec, solve_stationary, velocity_fields


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


# ---------------------------------------------------------------------------
# comparison report

@dataclass
class ReportRow:
    """One observable compared across the two routes.

    tolerance_kind semantics: rtol passes when |sed - ref| <= tol |ref|;
    pulls when |pull| <= tol; max-abs when sed_value <= tol (sed_value is
    already a normalized magnitude such as a max |z|); min-ratio when
    sed_value >= tol; exact when sed_value == ref_value.
    """

    observable: str
    sed_value: float
    sed_error: float
    ref_value: float
    pull: float
    tolerance: float
    tolerance_kind: str
    passed: bool
    sed_provenance: str
    ref_provenance: str
    note: str = ""


@dataclass
class ComparisonReport:
    pipeline: str
    config_hash: str
    code_version: str
    rows: list = dc_field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_pass else 1

    def to_dict(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "config_hash": self.config_hash,
            "code_version": self.code_version,
            "rows": [vars(r).copy() for r in self.rows],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ComparisonReport":
        rep = cls(pipeline=d["pipeline"], config_hash=d["config_hash"],
                  code_version=d["code_version"])
        rep.rows = [ReportRow(**r) for r in d["rows"]]
        return rep

    def to_text(self) -> str:
        head = (f"pipeline: {self.pipeline}\n"
                f"config:   sha256 {self.config_hash}\n"
                f"code:     sedsim {self.code_version}\n")
        cols = ("observable", "sim value", "sim err", "reference", "pull",
                "tol", "kind", "result")
        widths = [26, 14, 11, 14, 9, 9, 10, 6]
        lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for r in self.rows:
            cells = [r.observable, _fmt(r.sed_value), _fmt(r.sed_error),
                     _fmt(r.ref_value), _fmt(r.pull), _fmt(r.tolerance),
                     r.tolerance_kind, "pass" if r.passed else "FAIL"]
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
            if r.note:
                lines.append(f"    note: {r.note}")
        return head + "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return "-" if math.isnan(x) else f"{x:.6g}"


def _make_row(observable, kind, sed, ref, tol, err=math.nan,
              sed_prov="", ref_prov="", note="") -> ReportRow:
    pull = math.nan
    if not math.isnan(err) and err > 0:
        pull = (sed - ref) / err
    if kind == "rtol":
        passed = abs(sed - ref) <= tol * abs(ref)
    elif kind == "pulls":
        passed = not math.isnan(pull) and abs(pull) <= tol
    elif kind == "max-abs":
        passed = abs(sed) <= tol
    elif kind == "min-ratio":
        passed = sed >= tol
    elif kind == "exact":
        passed = sed == ref
    else:
        raise ValueError(f"unknown tolerance kind {kind!r}")
    return ReportRow(observable=observable, sed_value=float(sed),
                     sed_error=float(err), ref_value=float(ref), pull=float(pull),
                     tolerance=float(tol), tolerance_kind=kind, passed=bool(passed),
                     sed_provenance=sed_prov, ref_provenance=ref_prov, note=note)


# ---------------------------------------------------------------------------
# config -> domain objects. Each config key's own rule is in config._SCHEMA;
# what joins several keys is refused here, while a pipeline plans its run.

def _tol(cfg: dict, key: str, default: float) -> float:
    return float(cfg.get("tolerances", {}).get(key, default))


def _built(key: str, build, *args, **kwargs):
    """build(*args, **kwargs); a ValueError it raises, or an OverflowError
    of a value too large or small for its arithmetic, is a config error
    naming the config block or key `key`."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _build_field_spec(cfg: dict) -> FieldSpec:
    f = cfg["field"]
    return _built(
        "field", FieldSpec, hbar=float(f.get("hbar", 1.0)),
        c=float(f.get("c", 1.0)), omega_cutoff=float(f["omega_cutoff"]),
        omega_min=float(f.get("omega_min", 0.0)), n_modes=int(f["n_modes"]))


def _build_particle(cfg: dict, c: float = 1.0) -> ParticleSpec:
    """The particle in a harmonic trap, whose closed forms both pipelines
    compare against; any other potential is refused. Without tau or
    charge it is uncharged. c is field.c, 1 without a field."""
    p = cfg["particle"]
    pot = p["potential"]
    if pot["kind"] != "harmonic" or "omega0" not in pot:
        raise ConfigError('both pipelines need particle.potential.kind '
                          '"harmonic" with omega0')
    if "tau" in p and "charge" in p:
        raise ConfigError("particle: give tau or charge, not both")

    def build(mass, omega0):
        potential = harmonic_potential(omega0, mass)
        if "tau" in p:
            return ParticleSpec.from_tau(mass, float(p["tau"]), potential, c=c)
        return ParticleSpec.from_charge(mass, float(p.get("charge", 0.0)),
                                        potential, c=c)

    return _built("particle" if c == 1.0 else "particle and field.c",
                  build, float(p["mass"]), float(pot["omega0"]))


def _build_ic(cfg: dict, particle: ParticleSpec, hbar: float):
    ic = cfg["ensemble"]["initial_conditions"]
    if ic["sampler"] == "delta":
        return DeltaIC(float(ic.get("x0", 0.0)), float(ic.get("v0", 0.0)))
    if ic["sampler"] == "gaussian":
        return GaussianIC(x_std=float(ic.get("x_std", 0.0)),
                          v_std=float(ic.get("v_std", 0.0)),
                          x_mean=float(ic.get("x0", 0.0)),
                          v_mean=float(ic.get("v0", 0.0)))
    return stationary_guess_ic(hbar, particle.mass,
                               particle.potential.params["omega0"])


def _window(cfg: dict, times) -> tuple:
    """coarse_grain.t_window, refused unless it is two increasing times
    inside the run [time.t0, time.t_final] that hold a recorded time."""
    t0, t_final = cfg["time"].get("t0", 0.0), cfg["time"]["t_final"]
    window = tuple(float(t) for t in cfg["coarse_grain"]["t_window"])
    cols = window_columns(times, window)
    if not (t0 <= window[0] < window[1] <= t_final and cols.stop > cols.start):
        raise ConfigError(
            f"coarse_grain.t_window must be two increasing times inside the "
            f"run [{t0:g}, {t_final:g}] holding one of its {times.size} "
            f"recorded times on [{times[0]:g}, {times[-1]:g}], not "
            f"{list(window)}")
    return window


def _refs_in_window(times, window, lag: float, thin_steps: int):
    """Recorded times inside the window with room for +/- lag, thinned;
    a window without one is refused."""
    lo = max(window[0], times[0] + lag)
    hi = min(window[1], times[-1] - lag)
    refs = times[window_columns(times, (lo - 1e-9, hi + 1e-9))]
    refs = refs[::max(1, thin_steps)]
    if refs.size == 0:
        raise ConfigError(
            f"coarse_grain.t_window {list(window)} holds no recorded time "
            f"with room for the lag {lag:g} on either side inside the run "
            f"[{times[0]:g}, {times[-1]:g}]")
    return tuple(float(t) for t in refs)


def _snap_lag(rec_dt: float, lag) -> float:
    """Nearest positive multiple of the recorded step, as the exact float
    product so downstream multiple-of-grid checks see a zero remainder."""
    return max(1, int(round(float(lag) / rec_dt))) * rec_dt


def _rss_mb():
    """The process's resident set size in MiB, from /proc/self/statm, or
    None where that file does not exist."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except FileNotFoundError:
        return None
    return pages * resource.getpagesize() / 2**20


def _stage(info: dict, name: str, fn, *args, **kwargs):
    """Run one pipeline stage. Appends its wall time, its CPU time, the
    process's peak RSS after it, the minor page faults taken during it
    (pages first touched) and its RSS then (which shows what a stage
    freed) to info["stages"], which run.json carries.
    A stage that raises (other than a ConfigError, which only the plan
    raises) sets info["failed_stage"] and becomes a PipelineError naming
    the stage and, once integration has flagged trajectories, their
    count."""
    wall0, cpu0 = _time.perf_counter(), _time.process_time()
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        result = fn(*args, **kwargs)
    except ConfigError:
        raise
    except Exception as exc:
        info["failed_stage"] = name
        bad = info.get("non_finite_trajectories", 0)
        note = (f" ({bad} of {info['n_traj']} trajectories non-finite)"
                if bad else "")
        raise PipelineError(f"stage {name!r} failed: {exc}{note}") from exc
    usage = resource.getrusage(resource.RUSAGE_SELF)
    info.setdefault("stages", []).append({
        "name": name,
        "wall_s": _time.perf_counter() - wall0,
        "cpu_s": _time.process_time() - cpu0,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "minor_faults": usage.ru_minflt - faults0,
        "rss_mb": _rss_mb(),
    })
    return result


class _ChunkCount:
    """A stream consumer: counts its chunks in info["n_chunks"] and calls
    progress(done, total), if given, with the trajectories so far."""

    def __init__(self, info: dict, total: int, progress):
        self.info, self.total, self.progress = info, total, progress
        self.done = 0

    def take(self, chunk):
        self.info["n_chunks"] += 1
        self.done += chunk.n_traj
        if self.progress is not None:
            self.progress(self.done, self.total)


def _write_xy_csv(path: Path, header: str, columns) -> None:
    arrays = [np.asarray(c) for c in columns]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*arrays):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _coarse_grain_specs(cfg: dict, times, rec_dt: float, window,
                        thin_time: float, sweep_steps):
    """The spec at coarse_grain.delta_t, the spec at the largest sweep lag
    and the sweep lags, on the window's reference times of the record grid
    times (step rec_dt). thin_time and sweep_steps
    (multiples of the recorded step) are the defaults of
    coarse_grain.thin_time and .delta_t_sweep. A window without reference
    times for a lag and an x_bins range that CoarseGrainSpec refuses are
    config errors."""
    cg = cfg["coarse_grain"]
    bins = cg["x_bins"]
    thin_steps = max(1, int(round(cg.get("thin_time", thin_time) / rec_dt)))

    def est_spec(lag):
        return _built(
            "coarse_grain.x_bins", CoarseGrainSpec, delta_t=lag,
            x_bins=int(bins["n"]),
            x_range=(float(bins["min"]), float(bins["max"])),
            reference_times=_refs_in_window(times, window, lag, thin_steps),
            min_count=int(cg.get("min_count", 25)))

    sweep_lags = cg.get("delta_t_sweep", [rec_dt * k for k in sweep_steps])
    sweep_lags = list(dict.fromkeys(_snap_lag(rec_dt, x) for x in sweep_lags))
    return (est_spec(_snap_lag(rec_dt, cg["delta_t"])),
            est_spec(max(sweep_lags)), sweep_lags)


def _field_stages(info: dict, samples: SampleSet, run_dir: Path):
    """v, u, v_a and density from one sample set, written to fields/."""
    v_field = _stage(info, "estimate-v", samples.field, "v")
    u_field = _stage(info, "estimate-u", samples.field, "u")
    va_est = _stage(info, "estimate-va", samples.va)
    rho_field = _stage(info, "density", samples.density)
    fields_dir = run_dir / "fields"
    fields_dir.mkdir(parents=True, exist_ok=True)
    v_field.to_csv(fields_dir / "v.csv")
    u_field.to_csv(fields_dir / "u.csv")
    va_est.backward_difference.to_csv(fields_dir / "va_direct.csv")
    va_est.v_minus_u.to_csv(fields_dir / "va_combo.csv")
    rho_field.to_csv(fields_dir / "rho.csv")
    return v_field, u_field, va_est, rho_field


# ---------------------------------------------------------------------------
# sed_harmonic_ground pipeline

def _plan_sed_harmonic_ground(cfg: dict, info: dict):
    """The sed run of cfg, planned: refused, or returned as run(run_dir,
    progress) with every object it derives from cfg built."""
    fspec = _build_field_spec(cfg)
    particle = _build_particle(cfg, c=fspec.c)
    omega0 = particle.potential.params["omega0"]
    tcfg, ecf = cfg["time"], cfg["ensemble"]
    stride, t0 = tcfg.get("record_stride", 1), float(tcfg.get("t0", 0.0))
    dt, n_steps, n_fft = _built("time", comb_time_grid, fspec,
                                float(tcfg["dt"]), float(tcfg["t_final"]) - t0)
    times = record_times(t0, dt, n_steps, stride)
    window = _window(cfg, times)
    rec_dt = dt * stride
    spec0, sweep_spec, sweep_lags = _coarse_grain_specs(
        cfg, times, rec_dt, window, rec_dt, (1, 2, 3, 4, 6, 10))
    ic = _build_ic(cfg, particle, fspec.hbar)
    # the quantum reference's grid, by default +/- 8 ground-state widths
    d_ref = fspec.hbar / (2.0 * particle.mass)
    sigma0 = math.sqrt(fspec.hbar / (2.0 * particle.mass * omega0))
    g = cfg.get("grid", {"x_min": -8.0 * sigma0, "x_max": 8.0 * sigma0,
                         "n_points": 1001})
    grid = _built("grid", GridSpec, float(g["x_min"]), float(g["x_max"]),
                  int(g["n_points"]))
    n_traj, n_workers = ecf["n_traj"], ecf.get("n_workers", 1)
    _built("ensemble.n_traj", EnergySums.enough_rows, n_traj)
    dump_fmt = cfg["outputs"].get("ensemble_dump", "binary")
    master_seed = int(cfg["seeds"]["master_seed"])
    n_ac = 200      # field realizations the autocorrelation check draws
    info.update(dt=dt, n_steps=n_steps, n_fft=n_fft, n_workers=n_workers,
                n_conv=conv_length(fspec.n_modes, times.size), n_chunks=0)

    def run(run_dir: Path, progress) -> list:
        # each chunk goes to the dump, the energy balance (with the window
        # statistics), the relaxation curve and the estimators' two sample
        # sets on the stationary window, one for the fields and the
        # classifier, one for the sweep, is counted, and is dropped
        balance_sums = BalanceSums(particle, window, times)
        energy_sums = EnergySums(particle, times.size)
        samples = SampleSet(times, rec_dt, spec0)
        sweep_set = SampleSet(times, rec_dt, sweep_spec, lags=sweep_lags,
                              cells=None)
        consumers = [balance_sums, energy_sums, samples, sweep_set]
        if dump_fmt != "none":
            writer = EnsembleWriter(run_dir / "ensemble", n_traj, times.size,
                                    ("positions", "velocities", "field_values"))
            consumers.append(writer)
        consumers.append(_ChunkCount(info, n_traj, progress))
        head = _stage(info, "integrate", integrate_stream,
                      particle, fspec, ic, t0, dt, n_steps,
                      n_traj, master_seed, consumers, record_stride=stride,
                      n_workers=n_workers)
        info.update(n_traj=n_traj, non_finite_trajectories=int(
            np.count_nonzero(head.status != STATUS_OK)))

        if dump_fmt != "none":
            _stage(info, "dump", writer.close, head)

        balance = _stage(info, "energy-balance", balance_sums.report, head)
        (run_dir / "balance.json").write_text(dumps_config(balance.to_dict()))
        _write_xy_csv(run_dir / "balance_trace.csv", "t,absorbed,radiated",
                      balance_sums.trace())

        rtimes, rcurve = _stage(info, "relaxation", energy_sums.curve, head)
        _write_xy_csv(run_dir / "relaxation.csv", "t,mean_energy", (rtimes, rcurve))

        # coarse-grained estimators on the stationary window
        rho_field = _field_stages(info, samples, run_dir)[3]
        branch = _stage(info, "branch-classifier", samples.classify_branch,
                        particle.mass, particle.potential.f,
                        D=None, time_derivative="omitted")
        (run_dir / "branch.json").write_text(dumps_config({
            **branch.to_dict(),
            "time_derivative": "omitted",
            "warnings": branch.reports[+1].warnings,
        }))
        sweep = _stage(info, "diffusion-sweep", sweep_set.sweep)
        (run_dir / "dsweep.json").write_text(dumps_config(sweep.to_dict()))

        # field-synthesis cross-check: fresh realizations, never the
        # driving ones
        ac_reals = [make_field(fspec, (master_seed, i, 2)) for i in range(n_ac)]
        ac_lags = [0.0, 0.5 * math.pi / fspec.omega_cutoff,
                   2.0 * math.pi / fspec.omega_cutoff]
        ac = _stage(info, "field-autocorrelation", autocorrelation_check,
                    ac_reals, ac_lags)
        (run_dir / "field_autocorr.json").write_text(dumps_config(ac))

        # quantum reference: eigensolve of the wave equation on the grid
        energies, states = _stage(
            info, "reference-eigensolve", solve_stationary, grid,
            particle.potential.V, particle.mass, d_ref, 1)
        return _stage(info, "report-rows", rows, run_dir, head, balance,
                      balance_sums, rho_field, branch, sweep, ac, energies,
                      states)

    def rows(run_dir, head, balance, balance_sums, rho_field, branch, sweep,
             ac, energies, states):
        psi0 = states[0]
        e0 = float(energies[0])
        x_var_ref = psi0.position_var()
        rho_ref = np.interp(rho_field.x_centers, grid.x, psi0.density(),
                            left=0.0, right=0.0)
        v_ref, u_ref, msk = velocity_fields(psi0)
        u_ref_bins = np.interp(rho_field.x_centers, grid.x[msk], u_ref[msk])
        _write_xy_csv(run_dir / "density_qm.csv", "x,rho_qm",
                      (rho_field.x_centers, rho_ref))
        _write_xy_csv(run_dir / "velocity_qm.csv", "x,v_qm,u_qm",
                      (rho_field.x_centers, np.zeros_like(u_ref_bins), u_ref_bins))

        x_var_sed, x_var_se = balance_sums.position_variance()

        if sweep.plateau_found:
            d_sed = sweep.value
            d_err = min(e.std_error for e in sweep.estimates)
            d_note = "plateau value"
        else:
            best = int(np.argmax([e.value for e in sweep.estimates]))
            d_sed = sweep.estimates[best].value
            d_err = sweep.estimates[best].std_error
            d_note = (f"{sweep.flag}; quoting the sweep maximum at "
                      f"delta_t={sweep.estimates[best].delta_t:g}")

        imbalance = (abs(balance.mean_absorbed_power - balance.mean_radiated_power)
                     / balance.mean_radiated_power)
        max_z = max(abs(float(z)) for z in ac["z_score"])

        relax_scale = 1.0 / max(particle.tau * omega0**2, 1e-300)
        notes = []
        if float(tcfg["t_final"]) - t0 < 5.0 * relax_scale:
            notes.append("run shorter than 5 energy relaxation times")
        if not balance.stationary:
            notes.append("window not stationary by energy-trend test")
        notes.extend(balance.warnings)
        notes.extend(head.meta.get("warnings", []))

        ens_prov = (f"trajectory ensemble, window {list(window)} "
                    "(ensemble/, balance.json)")
        eig_prov = "wave-equation eigensolve on grid (density_qm.csv)"
        return [
            _make_row("mean_energy", "rtol", balance.mean_energy, e0,
                      _tol(cfg, "mean_energy", 0.05), err=balance.se_energy,
                      sed_prov=ens_prov, ref_prov=eig_prov,
                      note="; ".join(notes)),
            _make_row("position_variance", "rtol", x_var_sed, x_var_ref,
                      _tol(cfg, "position_variance", 0.05), err=x_var_se,
                      sed_prov=ens_prov, ref_prov=eig_prov),
            _make_row("pooled_D", "rtol", d_sed, d_ref,
                      _tol(cfg, "pooled_D", 0.10), err=d_err,
                      sed_prov="diffusion sweep over recorded lags (dsweep.json)",
                      ref_prov="hbar / (2 m) from config constants",
                      note=d_note),
            _make_row("energy_balance", "max-abs", imbalance, 0.0,
                      _tol(cfg, "energy_balance", 0.10),
                      sed_prov="absorbed vs radiated power on window (balance.json)",
                      ref_prov="stationarity condition: means compensate exactly"),
            _make_row("branch_selected", "exact", branch.selected_lam, +1,
                      0.0,
                      sed_prov="residual classifier on window fields (branch.json)",
                      ref_prov="wave-equation branch sign"),
            _make_row("branch_margin", "min-ratio", branch.ratio,
                      math.nan, _tol(cfg, "classifier_margin", 5.0),
                      sed_prov="rejected/accepted residual ratio (branch.json)",
                      ref_prov="discrimination margin required by config"),
            _make_row("field_autocorr_max_z", "max-abs", max_z, 0.0,
                      _tol(cfg, "autocorr_z", 3.0),
                      sed_prov=f"{n_ac} fresh field realizations (field_autocorr.json)",
                      ref_prov="band-limited spectral integral, closed form"),
            _make_row("non_finite_trajectories", "exact",
                      info["non_finite_trajectories"], 0, 0.0,
                      sed_prov="status flags of the integrated trajectories "
                               "(ensemble/)",
                      ref_prov="every trajectory stays finite"),
        ]

    return run


# ---------------------------------------------------------------------------
# ou_calibration pipeline

def _plan_ou_calibration(cfg: dict, info: dict):
    """The ou run of cfg, planned: refused, or returned as run(run_dir,
    progress) with every object it derives from cfg built. The run keeps
    one column per relaxing trajectory: the branch classifier reads the
    relaxing dump back in whole rows, on the run's record grid; the dump
    is temporary with outputs.ensemble_dump "none"."""
    particle = _build_particle(cfg)
    stiffness = particle.potential.params["stiffness"]
    lv, tcfg, cg = cfg["langevin"], cfg["time"], cfg["coarse_grain"]
    friction, d0 = float(lv["friction"]), float(lv["D0"])
    theta = stiffness / (particle.mass * friction)
    t0, dt = float(tcfg.get("t0", 0.0)), float(tcfg["dt"])
    n_steps = int(round((float(tcfg["t_final"]) - t0) / dt))
    if n_steps < 1:
        raise ConfigError(f"time.t_final {tcfg['t_final']} leaves no step of "
                          f"dt {dt:g} after time.t0 {t0:g}")
    times = record_times(t0, dt, n_steps)
    window = _window(cfg, times)
    spec0, sweep_spec, sweep_lags = _coarse_grain_specs(
        cfg, times, dt, window, 1e30, (1, 2, 4, 10))
    delta_t = spec0.delta_t
    # branch classification on the early relaxing window, time derivatives
    # measured across three reference times
    t_star = 2.0 / friction
    rw = lv.get("t_relax_window",
                [t_star - 2.0 * delta_t, t_star + 2.0 * delta_t])
    first, last = (int(round((t - t0) / dt)) for t in rw)
    k = int(round(delta_t / dt))
    if not k <= first < last <= n_steps - k:
        raise ConfigError(
            f"langevin.t_relax_window {list(rw)} needs two increasing "
            f"reference times with room for the lag {delta_t:g} on either "
            f"side inside the run [{t0:g}, {times[-1]:g}]")
    lo, hi = dt * first + t0, dt * last + t0
    refs = (lo, (lo + hi) / 2.0, hi)
    if (last - first) % 2:
        raise ConfigError(
            f"langevin.t_relax_window {list(rw)} puts its middle reference "
            f"time {refs[1]:g} off the recorded grid of step {dt:g}: its "
            f"ends must lie an even number of steps apart")
    mid_col = (first + last) // 2
    # coarser bins than the estimator grid: the classifier needs smooth
    # second derivatives over the occupied span more than x resolution.
    # The span comes from the relaxing sample's variance at the middle
    # reference time
    relax_spec = CoarseGrainSpec(
        delta_t=delta_t, x_range=spec0.x_range, reference_times=refs,
        x_bins=int(cg.get("classifier_bins", 16)), min_count=spec0.min_count)
    n_traj = cfg["ensemble"]["n_traj"]
    n_relax = lv.get("n_traj_relax", 500_000)
    # the sweep estimates D on the equilibrium sample, the classifier on
    # the relaxing one
    _built("ensemble.n_traj", SampleSet.enough_rows, n_traj)
    _built("langevin.n_traj_relax", SampleSet.enough_rows, n_relax)
    _built(f"langevin.n_traj_relax {n_relax} against coarse_grain.min_count "
           f"{relax_spec.min_count}", SampleSet.enough_rows_per_time, n_relax,
           relax_spec.min_count)
    x_start = float(lv.get("x_start", 0.0))
    dump_fmt = cfg["outputs"].get("ensemble_dump", "binary")
    master_seed = int(cfg["seeds"]["master_seed"])
    info.update(dt=dt, n_steps=n_steps)

    def run(run_dir: Path, progress) -> list:
        def sample(stage, dump_stage, dump_dir, n, seed, x0, consumers):
            """Sample n trajectories; each block goes to the consumers and,
            unless dump_dir is None, to the dump there, and is dropped."""
            if dump_dir is not None:
                writer = EnsembleWriter(dump_dir, n, times.size, ("positions",))
                consumers = [*consumers, writer]
            head = _stage(info, stage, ou_stream, theta, d0, n, dt, n_steps,
                          seed, consumers, x0=x0, t0=t0)
            if dump_dir is not None:
                _stage(info, dump_stage, writer.close, head)
            return head

        # the equilibrium sample goes to the estimators' two sample sets
        # (the fields' without D, which no row reads) and to the store of
        # the first reference time's column, which the variance row reads;
        # the relaxing one to its dump, a temporary one with ensemble_dump
        # "none", and to the store of the middle reference time's
        # column, whose variance fixes the classifier's bins. The
        # classifier then reads that dump back in whole rows
        samples = SampleSet(times, dt, spec0, lags=())
        sweep_set = SampleSet(times, dt, sweep_spec, lags=sweep_lags,
                              cells=None)
        col = int(samples.ridx[0])
        ref_column = ColumnStore(n_traj, col)
        eq = sample("sample-equilibrium", "dump",
                    None if dump_fmt == "none" else run_dir / "ensemble",
                    n_traj, (master_seed, 0), "stationary",
                    [samples, sweep_set, ref_column])
        with (tempfile.TemporaryDirectory(dir=run_dir) if dump_fmt == "none"
              else contextlib.nullcontext(run_dir / "ensemble_relaxing")
              ) as relax_dir:
            mid_column = ColumnStore(n_relax, mid_col)
            sample("sample-relaxing", "dump-relaxing", relax_dir, n_relax,
                   (master_seed, 1), x_start, [mid_column])
            s_star = float(np.var(mid_column.values))
            del mid_column

            v_field, u_field, va_est, _ = _field_stages(info, samples, run_dir)
            x_ref2 = np.square(ref_column.values[eq.ok_mask()])
            sweep = _stage(info, "diffusion-sweep", sweep_set.sweep)
            (run_dir / "dsweep.json").write_text(dumps_config(sweep.to_dict()))

            span = 3.2 * math.sqrt(s_star)
            branch = _stage(info, "branch-classifier", classify, relax_dir,
                            replace(relax_spec, x_range=(-span, span)))
        (run_dir / "branch.json").write_text(dumps_config({
            **branch.to_dict(),
            "time_derivative": "measured",
            "reference_times": list(refs),
            "relaxing_variance_at_mid": s_star,
            "warnings": branch.reports[+1].warnings,
        }))

        return _stage(info, "report-rows", rows, run_dir, v_field, u_field,
                      va_est, sweep, branch, x_ref2)

    def classify(relax_dir, spec):
        """The measured-derivative branch classifier on the relaxing dump,
        read back in blocks of the sample set's block_rows whole rows, so
        its sums are those of the whole dump bit for bit."""
        relax_set = SampleSet(times, dt, spec, cells="per_time")
        for chunk in load_blocks(relax_dir, relax_set.block_rows):
            relax_set.take(chunk)
        return relax_set.classify_branch(particle.mass, particle.potential.f,
                                         D=None, time_derivative="measured")

    def rows(run_dir, v_field, u_field, va_est, sweep, branch, x_ref2):
        # closed-form references
        sigma2 = ou_stationary_variance(theta, d0)
        u_slope_ref = -d0 / sigma2          # u(x) = -D0 x / sigma^2 = -theta x
        u_slope_finite = ou_u_slope_equilibrium(theta, delta_t)
        centers = u_field.x_centers
        _write_xy_csv(run_dir / "density_qm.csv", "x,rho_qm",
                      (centers, gaussian_density(centers, math.sqrt(sigma2))))
        _write_xy_csv(run_dir / "velocity_qm.csv", "x,v_qm,u_qm",
                      (centers, np.zeros_like(centers), u_slope_ref * centers))

        vv, uu = v_field.valid, u_field.valid
        if not vv.any():
            raise KinematicsError(
                f"no valid bin for v and u: every bin holds fewer than "
                f"min_count {spec0.min_count} samples")
        pulls_v = np.abs(v_field.values[vv]) / v_field.std_error[vv]
        pulls_u = (np.abs(u_field.values[uu] - u_slope_ref * u_field.x_centers[uu])
                   / u_field.std_error[uu])
        pulls_d = [abs(e.value - d0) / e.std_error for e in sweep.estimates]

        var_sed = float(np.mean(x_ref2))
        var_se = float(np.std(x_ref2, ddof=1) / math.sqrt(x_ref2.size))

        eq_prov = "equilibrium-start exact sampler (ensemble/)"
        relax_prov = "cold-start exact sampler, relaxing window (ensemble_relaxing/)"
        return [
            _make_row("position_variance", "pulls", var_sed, sigma2,
                      _tol(cfg, "variance_pulls", 3.0), err=var_se,
                      sed_prov=eq_prov, ref_prov="closed form D0/theta"),
            _make_row("flow_velocity_max_pull", "max-abs", float(np.max(pulls_v)),
                      0.0, _tol(cfg, "flow_velocity_pulls", 3.0),
                      sed_prov=f"binned v estimator, {int(vv.sum())} valid bins "
                               "(fields/v.csv)",
                      ref_prov="stationary state: v = 0 exactly"),
            _make_row("osmotic_velocity_max_pull", "max-abs", float(np.max(pulls_u)),
                      0.0, _tol(cfg, "osmotic_velocity_pulls", 3.0),
                      sed_prov=f"binned u estimator, {int(uu.sum())} valid bins "
                               "(fields/u.csv)",
                      ref_prov="closed form u = -D0 x / sigma^2",
                      note=f"finite-lag expectation slope {u_slope_finite!r}"),
            _make_row("diffusion_sweep_max_pull", "max-abs", float(max(pulls_d)),
                      0.0, _tol(cfg, "diffusion_pulls", 3.0),
                      sed_prov=f"subtracted increment variance at "
                               f"{len(pulls_d)} lags (dsweep.json)",
                      ref_prov="closed form D0 at every lag"),
            _make_row("diffusion_plateau_found", "exact",
                      int(sweep.plateau_found), 1, 0.0,
                      sed_prov="plateau search over the lag ladder (dsweep.json)",
                      ref_prov="scale separation expected for an exact OU",
                      note=sweep.flag or ""),
            _make_row("va_consistent_fraction", "min-ratio",
                      va_est.consistent_fraction, math.nan,
                      _tol(cfg, "va_consistent_fraction", 0.9),
                      sed_prov="backward-difference route vs v-u route "
                               "(fields/va_direct.csv, fields/va_combo.csv)",
                      ref_prov="identity v_a = v - u, bin by bin within 2 SE;"
                               " it holds per sample, so the row checks the"
                               " estimators' arithmetic, not the physics"),
            _make_row("branch_selected", "exact", branch.selected_lam, -1, 0.0,
                      sed_prov=relax_prov + " (branch.json)",
                      ref_prov="classical diffusion branch sign"),
            _make_row("branch_margin", "min-ratio", branch.ratio, math.nan,
                      _tol(cfg, "classifier_margin", 5.0),
                      sed_prov="rejected/accepted residual ratio (branch.json)",
                      ref_prov="discrimination margin required by config"),
        ]

    return run


# plan(cfg, info) -> run: a pipeline's plan builds every object its run
# derives from the config, refuses (ConfigError) what the schema cannot see,
# records the time grid it resolved into the dict `info`, which run.json
# carries, and returns run(run_dir, progress) -> rows, which runs the
# stages, records their ledger into `info` through _stage, reports progress
# through a _ChunkCount among integrate_stream's consumers (the exact OU
# sampler has no chunks to report) and returns the report's rows;
# run_experiment makes them the report.
PIPELINES = {
    "sed_harmonic_ground": _plan_sed_harmonic_ground,
    "ou_calibration": _plan_ou_calibration,
}


# ---------------------------------------------------------------------------
# run orchestration

@dataclass
class RunResult:
    run_dir: Path
    report: ComparisonReport
    exit_code: int


def run_experiment(config, output_root=None, progress=None) -> RunResult:
    """Execute a registered pipeline from a config dict or file path.

    The config is validated and the pipeline planned (the ledger's first
    stage, "plan") before the run directory exists, so a config that
    either refuses (ConfigError) leaves nothing behind. The run directory
    (outputs.directory, resolved under output_root or the current
    directory, and refused if it is not empty) then receives a verbatim
    copy of the config, every stage artifact, report.json/report.txt, and
    last run.json, written once however the run ends: the wall time, the
    time grid the plan resolved (dt, n_steps; for SED also n_fft, n_conv
    the record grid's convolution length, n_workers, and n_chunks, the
    chunks integrate_stream handed over) and the stage ledger "stages":
    per stage its name, wall_s, cpu_s, the process's peak_rss_mb when it
    ended, minor_faults (the minor page faults taken during the stage) and
    rss_mb (None without /proc/self/statm) when it ended, with the exit
    code, or with the failed_stage and the error of a run that fails; such
    a run keeps its partial artifacts, writes no report and raises the
    error again. A dump cut off that way has no meta.json, which
    load_ensemble and load_blocks refuse. progress(done, n_traj), when
    given, is called after each chunk the SED stream hands over; by
    default nothing is printed. Exit code 0 means every report row passed.
    """
    if isinstance(config, (str, Path)):
        cfg = load_config(config)
    else:
        cfg = validate_config(config)
    pipeline = cfg["experiment"]
    start = _time.monotonic()
    info = {}
    run = _stage(info, "plan", PIPELINES[pipeline], cfg, info)

    root = Path(output_root) if output_root else Path.cwd()
    run_dir = root / cfg["outputs"]["directory"]
    if run_dir.exists() and any(run_dir.iterdir()):
        raise ConfigError(f"output directory {run_dir} exists and is not empty")
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(dumps_config(cfg))
    record = {"pipeline": pipeline, "config_hash": config_hash(cfg),
              "code_version": __version__}
    try:
        report = ComparisonReport(**record, rows=run(run_dir, progress))
        (run_dir / "report.json").write_text(dumps_config(report.to_dict()))
        (run_dir / "report.txt").write_text(report.to_text())
        info["exit_code"] = report.exit_code
    except BaseException as exc:
        # the partial artifacts stay; run.json says the run failed, where,
        # and what the stages before it cost
        info.setdefault("failed_stage", None)
        info["error"] = str(exc)
        raise
    finally:
        (run_dir / "run.json").write_text(dumps_config(
            {**record, "wall_seconds": _time.monotonic() - start, **info}))
    return RunResult(run_dir=run_dir, report=report,
                     exit_code=report.exit_code)


def load_report(run_dir) -> ComparisonReport:
    path = Path(run_dir) / "report.json"
    if not path.exists():
        raise ConfigError(f"no report.json under {run_dir}")
    return ComparisonReport.from_dict(json.loads(path.read_text()))


def stage_ledger_text(run_dir) -> str:
    """run.json's stage ledger as a table, closed by the share of the run's
    wall_seconds that its stages cover; empty for a run without one."""
    path = Path(run_dir) / "run.json"
    run = json.loads(path.read_text()) if path.exists() else {}
    stages = run.get("stages")
    if not stages:
        return ""
    lines = [f"{'stage':<24}{'wall_s':>10}{'cpu_s':>10}{'peak_rss_mb':>13}"
             f"{'rss_mb':>9}"]
    for st in stages:
        rss = st.get("rss_mb")
        lines.append(f"{st['name']:<24}{st['wall_s']:>10.3f}"
                     f"{st['cpu_s']:>10.3f}{st['peak_rss_mb']:>13.1f}"
                     + (f"{rss:>9.1f}" if rss is not None else f"{'-':>9}"))
    covered = sum(st["wall_s"] for st in stages)
    lines.append(f"stages cover {100.0 * covered / run['wall_seconds']:.1f} % "
                 f"of wall_seconds {run['wall_seconds']:.3f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# plot-data emission

def _read_csv_columns(path: Path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return dict(zip(header, table.T))


_GP_TEMPLATE = """set terminal pngcairo size 900,600
set output "{name}.png"
set title "{title}"
set xlabel "{xlabel}"
set ylabel "{ylabel}"
{extra}plot {plots}
"""


def _write_figure(plot_dir: Path, name: str, title: str, xlabel: str,
                  ylabel: str, header: str, columns, plots: str,
                  extra: str = "") -> list:
    dat = plot_dir / f"{name}.dat"
    # gnuplot reads whitespace-separated columns
    with open(dat, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    gp = plot_dir / f"{name}.gp"
    gp.write_text(_GP_TEMPLATE.format(name=name, title=title, xlabel=xlabel,
                                      ylabel=ylabel, plots=plots, extra=extra))
    return [dat, gp]


def emit_plot_data(run_dir) -> list:
    """Write gnuplot-ready .dat + .gp pairs for a completed run.

    Figures depend on the pipeline: density overlay, velocity overlays and
    the diffusion sweep always; relaxation curve and the energy-balance
    window trace (balance_trace.csv) for field-driven runs. The ensemble
    dump is never read. Missing inputs raise with the absent artifact
    named. Every input is read before plots/ is created, so a plot that
    fails writes nothing.
    """
    run_dir = Path(run_dir)
    cfg_path = run_dir / "config.json"
    if not cfg_path.exists():
        raise PipelineError(f"missing artifact: {cfg_path}")
    cfg = load_config(cfg_path)
    pipeline = cfg["experiment"]

    def need(rel: str) -> Path:
        p = run_dir / rel
        if not p.exists():
            raise PipelineError(f"missing artifact: {p}")
        return p

    # _write_figure's arguments after plot_dir, one tuple per figure
    figures = []
    rho = _read_csv_columns(need("fields/rho.csv"))
    rho_qm = _read_csv_columns(need("density_qm.csv"))
    figures.append((
        "density_overlay", "Stationary density: ensemble vs reference",
        "x", "rho", "x rho_sed rho_sed_err rho_qm",
        (rho["x"], rho["value"], rho["std_error"], rho_qm["rho_qm"]),
        'u 1:2:3 w yerrorbars t "ensemble", "density_overlay.dat" u 1:4 w l t "reference"',
        'set style data points\n'))

    v = _read_csv_columns(need("fields/v.csv"))
    u = _read_csv_columns(need("fields/u.csv"))
    vqm = _read_csv_columns(need("velocity_qm.csv"))
    figures.append((
        "velocity_overlay", "Drift fields: ensemble vs reference",
        "x", "velocity", "x v_sed v_err u_sed u_err v_qm u_qm",
        (v["x"], v["value"], v["std_error"], u["value"], u["std_error"],
         vqm["v_qm"], vqm["u_qm"]),
        'u 1:2:3 w yerrorbars t "v", "velocity_overlay.dat" u 1:4:5 w yerrorbars t "u", '
        '"velocity_overlay.dat" u 1:6 w l t "v ref", '
        '"velocity_overlay.dat" u 1:7 w l t "u ref"'))

    dsweep = json.loads(need("dsweep.json").read_text())
    order = np.argsort(np.asarray(dsweep["delta_ts"]))
    figures.append((
        "dsweep", "Diffusion estimate vs lag", "delta_t", "D",
        "delta_t D D_err",
        (np.asarray(dsweep["delta_ts"])[order],
         np.asarray(dsweep["values"])[order],
         np.asarray(dsweep["std_errors"])[order]),
        'u 1:2:3 w yerrorlines t "D(delta_t)"',
        "set logscale x\n"))

    if pipeline == "sed_harmonic_ground":
        relax = _read_csv_columns(need("relaxation.csv"))
        figures.append((
            "relaxation", "Ensemble mean energy", "t", "E",
            "t mean_energy", (relax["t"], relax["mean_energy"]),
            'u 1:2 w l t "mean energy"'))

        trace = _read_csv_columns(need("balance_trace.csv"))
        figures.append((
            "balance_trace", "Energy balance across the window",
            "t", "power", "t absorbed radiated",
            (trace["t"], trace["absorbed"], trace["radiated"]),
            'u 1:2 w l t "absorbed", "balance_trace.dat" u 1:3 w l t "radiated"'))

    plot_dir = run_dir / "plots"
    plot_dir.mkdir(exist_ok=True)
    written = []
    for figure in figures:
        written += _write_figure(plot_dir, *figure)
    return written
