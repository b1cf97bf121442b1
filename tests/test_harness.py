"""Pipeline orchestration, run-directory layout, and CLI exit codes.

A shrunken field-driven configuration exercises the full artifact layout in
under a second; its physics rows are allowed to fail (tiny ensemble), which
is exactly what the exit-code plumbing needs. The committed calibration
configuration runs at full size and must pass everything.
"""

import copy
import json
import math
import operator
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from sedsim import dynamics, harness, kinematics
from sedsim.cli import _Progress, main
from sedsim.config import ConfigError, dumps_config, load_config, validate_config
from sedsim.dynamics import IntegrationError, load_ensemble
from sedsim.harness import (
    ComparisonReport,
    PipelineError,
    emit_plot_data,
    load_report,
    run_experiment,
)

SED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "sed_harmonic_ground.json"
OU_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ou_calibration.json"

SED_ROWS = ["mean_energy", "position_variance", "pooled_D", "energy_balance",
            "branch_selected", "branch_margin", "field_autocorr_max_z",
            "non_finite_trajectories"]
OU_ROWS = ["position_variance", "flow_velocity_max_pull",
           "osmotic_velocity_max_pull", "diffusion_sweep_max_pull",
           "diffusion_plateau_found", "va_consistent_fraction",
           "branch_selected", "branch_margin"]


def mini_sed_config() -> dict:
    """The committed driven-oscillator config, shrunk for smoke runs."""
    cfg = json.loads(SED_CONFIG.read_text())
    cfg["field"]["n_modes"] = 128
    cfg["time"]["t_final"] = 1500.0
    cfg["ensemble"]["n_traj"] = 120
    cfg["coarse_grain"]["t_window"] = [900.0, 1500.0]
    cfg["coarse_grain"]["delta_t_sweep"] = [1.2, 2.4, 4.8]
    cfg["coarse_grain"]["x_bins"]["n"] = 31
    cfg["grid"]["n_points"] = 301
    cfg["outputs"]["directory"] = "mini_sed"
    return cfg


def mini_ou_config(n_relax: int = 50_000) -> dict:
    """The committed calibration config, shrunk, with no dump."""
    cfg = json.loads(OU_CONFIG.read_text())
    cfg["ensemble"]["n_traj"] = 20_000
    cfg["langevin"]["n_traj_relax"] = n_relax
    cfg["outputs"]["ensemble_dump"] = "none"
    return cfg


@pytest.fixture(scope="module")
def sed_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("sed")
    return run_experiment(mini_sed_config(), output_root=root)


@pytest.fixture(scope="module")
def ou_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("ou")
    return run_experiment(OU_CONFIG, output_root=root)


# ---------------------------------------------------------------------------
# run directory contract

def test_run_directory_layout(sed_run):
    d = sed_run.run_dir
    assert d.name == "mini_sed"
    for rel in ("config.json", "report.json", "report.txt", "run.json",
                "balance.json", "branch.json", "dsweep.json",
                "field_autocorr.json", "relaxation.csv", "balance_trace.csv",
                "density_qm.csv",
                "velocity_qm.csv", "ensemble/positions.npy",
                "fields/v.csv", "fields/u.csv", "fields/rho.csv",
                "fields/va_direct.csv", "fields/va_combo.csv"):
        assert (d / rel).is_file(), rel


def test_config_copy_is_verbatim(sed_run):
    stored = (sed_run.run_dir / "config.json").read_text()
    assert stored == dumps_config(validate_config(mini_sed_config()))


def test_run_json_mirrors_the_report(sed_run):
    run_meta = json.loads((sed_run.run_dir / "run.json").read_text())
    assert run_meta["pipeline"] == "sed_harmonic_ground"
    assert run_meta["exit_code"] == sed_run.exit_code
    assert run_meta["config_hash"] == sed_run.report.config_hash
    assert run_meta["wall_seconds"] > 0
    assert "failed_stage" not in run_meta
    assert (run_meta["non_finite_trajectories"], run_meta["n_traj"]) == (0, 120)


def test_run_json_records_the_resolved_grid(sed_run, ou_run):
    run_meta = json.loads((sed_run.run_dir / "run.json").read_text())
    ens_meta = json.loads((sed_run.run_dir / "ensemble" / "meta.json").read_text())
    assert run_meta["dt"] == ens_meta["dt"]
    assert run_meta["n_steps"] == ens_meta["n_steps"]
    assert run_meta["n_fft"] >= 2 * run_meta["n_steps"] + 1
    # the chunks integrate handed over: 120 trajectories in 64 and 56
    assert run_meta["n_chunks"] == 2
    assert run_meta["n_workers"] == 1
    ou_meta = json.loads((ou_run.run_dir / "run.json").read_text())
    ou_ens = json.loads((ou_run.run_dir / "ensemble" / "meta.json").read_text())
    assert (ou_meta["dt"], ou_meta["n_steps"]) == (ou_ens["dt"], ou_ens["n_steps"])


@pytest.mark.parametrize("n_workers", [1, 4])
def test_progress_counts_the_chunks_of_a_sed_run(n_workers, tmp_path,
                                                 capsys):
    # the sed stream's last consumer counts its chunks, 120 trajectories in
    # 64 and 56, and reports the trajectories so far after each; run.json's
    # n_chunks counts the same calls. Without progress nothing is printed
    cfg = mini_sed_config()
    cfg["ensemble"]["n_workers"] = n_workers
    calls = []
    result = run_experiment(
        cfg, output_root=tmp_path / "progress",
        progress=lambda done, total: calls.append((done, total)))
    assert calls == [(64, 120), (120, 120)]
    run = json.loads((result.run_dir / "run.json").read_text())
    assert run["n_chunks"] == len(calls)
    run_experiment(cfg, output_root=tmp_path / "quiet")
    assert capsys.readouterr() == ("", "")


def test_run_json_records_the_stage_ledger(sed_run, ou_run):
    # the sample sets and the window statistics take their sums inside
    # integrate and sample-equilibrium, so no stage gathers samples
    for run, names in ((sed_run, {"integrate", "diffusion-sweep"}),
                       (ou_run, {"sample-relaxing", "diffusion-sweep"})):
        run_meta = json.loads((run.run_dir / "run.json").read_text())
        stages = run_meta["stages"]
        assert names <= {s["name"] for s in stages}
        assert not {"gather-samples", "window-statistics"} & {
            s["name"] for s in stages}
        assert all(set(s) == {"name", "wall_s", "cpu_s", "peak_rss_mb", "rss_mb"}
                   for s in stages)
        assert all(s["wall_s"] >= 0 and s["cpu_s"] >= 0 for s in stages)
        assert sum(s["wall_s"] for s in stages) <= run_meta["wall_seconds"]
        peaks = [s["peak_rss_mb"] for s in stages]
        assert peaks[0] > 0 and peaks == sorted(peaks)
        # the current RSS, which can fall, never passes the high-water mark
        assert all(0 < s["rss_mb"] <= s["peak_rss_mb"] + 1.0 for s in stages)
    ens_meta = json.loads((sed_run.run_dir / "ensemble" / "meta.json").read_text())
    assert ens_meta["meta"]["integrator"] == "rk4-response"


def test_report_round_trips_and_renders(sed_run):
    report = load_report(sed_run.run_dir)
    assert isinstance(report, ComparisonReport)
    # serialized comparison treats the NaN placeholders as equal
    assert (json.dumps(report.to_dict(), sort_keys=True)
            == json.dumps(sed_run.report.to_dict(), sort_keys=True))
    assert [r.observable for r in report.rows] == SED_ROWS
    text = report.to_text()
    assert "pipeline: sed_harmonic_ground" in text
    assert "observable" in text and ("pass" in text or "FAIL" in text)
    stored_text = (sed_run.run_dir / "report.txt").read_text()
    assert stored_text == text
    for row in report.rows:
        assert row.sed_provenance and row.ref_provenance


def test_exit_code_tracks_row_outcomes(sed_run):
    # the shrunken ensemble cannot meet the stationary tolerances
    assert sed_run.exit_code == 1
    assert not sed_run.report.all_pass
    failed = {r.observable for r in sed_run.report.rows if not r.passed}
    assert failed  # at least one statistical row flags the tiny ensemble


def test_non_finite_row_counts_flagged_trajectories(sed_run):
    row = {r.observable: r for r in sed_run.report.rows}["non_finite_trajectories"]
    assert (row.sed_value, row.ref_value, row.tolerance_kind) == (0, 0, "exact")
    assert row.passed


def test_rk4_unstable_run_fails_on_the_non_finite_row(tmp_path):
    # omega0 dt = 14.25 x 0.19947 = 2.842 lies past RK4's stability limit
    # 2 sqrt(2) = 2.828 on the imaginary axis: every trajectory grows by
    # 3.6 % a step and overflows near t = 4040, a few time units earlier or
    # later with its start and its field. At t_final 4040, 13 of 200 have
    # overflowed, and the intact rows, still of order one in the early
    # window, carry the pipeline to its report (from t_final 4044 on, too
    # few are left and the branch classifier raises first)
    cfg = mini_sed_config()
    cfg["field"]["n_modes"] = 256          # comb period 8,042 holds the run
    cfg["particle"]["potential"]["omega0"] = 14.25
    cfg["particle"]["tau"] = 1e-6
    cfg["ensemble"]["n_traj"] = 200
    cfg["time"]["t_final"] = 4040.0
    cfg["coarse_grain"].update(
        t_window=[0.0, 12.0], x_bins={"min": -3.0, "max": 3.0, "n": 15},
        min_count=5, delta_t_sweep=[1.2, 2.4])
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_experiment(cfg, output_root=tmp_path)
    status = np.load(result.run_dir / "ensemble" / "status.npy")
    row = {r.observable: r for r in result.report.rows}["non_finite_trajectories"]
    assert row.sed_value == np.count_nonzero(status) > 0
    assert not row.passed
    assert result.exit_code == 1


def test_failed_stage_names_the_non_finite_count(tmp_path, monkeypatch, capsys):
    # omega0 dt = 14.5 x 0.19947 = 2.89, past RK4's limit 2.828: by t_final
    # 1137 all 120 trajectories have overflowed, and the energy balance has
    # no trajectory left to work on. The partial directory says that it failed
    cfg = mini_sed_config()
    cfg["field"]["n_modes"] = 256
    cfg["particle"]["potential"]["omega0"] = 14.5
    cfg["particle"]["tau"] = 1e-6
    cfg["time"]["t_final"] = 1137.0
    cfg["coarse_grain"].update(
        t_window=[0.0, 12.0], x_bins={"min": -3.0, "max": 3.0, "n": 15},
        min_count=5, delta_t_sweep=[1.2, 2.4])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PipelineError,
                           match=r"\(120 of 120 trajectories non-finite\)$") as err:
            run_experiment(cfg, output_root=tmp_path)
    run_dir = tmp_path / "mini_sed"
    run = json.loads((run_dir / "run.json").read_text())
    assert run["error"] == str(err.value)
    assert run["error"].startswith(f"stage {run['failed_stage']!r} failed: ")
    names = [st["name"] for st in run["stages"]]
    assert names[:2] == ["plan", "integrate"]
    assert run["failed_stage"] == "energy-balance" not in names
    assert (run["non_finite_trajectories"], run["n_traj"]) == (120, 120)
    assert not (run_dir / "report.json").exists()
    assert "exit_code" not in run

    cfg_path = tmp_path / "unstable.json"
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setenv("SEDSIM_OUTPUT_ROOT", str(tmp_path / "cli"))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(cfg_path)]) == 1
    assert "(120 of 120 trajectories non-finite)" in capsys.readouterr().err


def test_failed_stage_without_flagged_trajectories(tmp_path, monkeypatch):
    # the balance's sums are added during integrate; its stage finishes them
    def broken(*args, **kwargs):
        raise ValueError("no balance today")

    monkeypatch.setattr(harness.BalanceSums, "report", broken)
    with pytest.raises(PipelineError) as err:
        run_experiment(mini_sed_config(), output_root=tmp_path)
    assert str(err.value) == "stage 'energy-balance' failed: no balance today"
    run = json.loads((tmp_path / "mini_sed" / "run.json").read_text())
    assert run["failed_stage"] == "energy-balance"
    assert run["non_finite_trajectories"] == 0
    assert [st["name"] for st in run["stages"]] == ["plan", "integrate",
                                                   "dump"]


def test_calibration_run_passes_everything(ou_run):
    assert ou_run.exit_code == 0
    report = load_report(ou_run.run_dir)
    assert [r.observable for r in report.rows] == OU_ROWS
    assert report.all_pass
    by_name = {r.observable: r for r in report.rows}
    assert by_name["branch_selected"].sed_value == -1
    assert by_name["branch_margin"].sed_value >= by_name["branch_margin"].tolerance
    assert by_name["diffusion_plateau_found"].passed


def test_each_estimate_walks_its_sample_set_once(tmp_path, monkeypatch):
    # every sample set walks each chunk once, as the stream hands it over,
    # and its estimates walk nothing: v, u, va and D at every lag come from
    # the sums of that walk. sed: two sets, one at the lag (fields and
    # classifier) and one for the sweep, over 2 chunks of integrate. ou:
    # the equilibrium sample's two sets over its 10 blocks of 2,048 rows,
    # and the relaxing classifier's set, made from its store once the
    # sample's variance sets its bins, over that one chunk after the
    # stream. Each binned mean (v, u, va) is finished once per set.
    counts = {"walk": 0, "binned_mean": 0, "after_stream": 0}
    streaming = []
    walk = kinematics.SampleSet._blocks
    binned_mean = kinematics._binned_mean

    def counting_walk(samples, chunk):
        counts["walk"] += 1         # when the walk starts
        counts["after_stream"] += not streaming
        yield from walk(samples, chunk)

    def counting_binned_mean(*args):
        counts["binned_mean"] += 1
        return binned_mean(*args)

    def marked(stream):
        def marked_stream(*args, **kwargs):
            streaming.append(stream)
            try:
                return stream(*args, **kwargs)
            finally:
                streaming.pop()
        return marked_stream

    monkeypatch.setattr(kinematics.SampleSet, "_blocks", counting_walk)
    monkeypatch.setattr(kinematics, "_binned_mean", counting_binned_mean)
    for name in ("integrate_stream", "ou_stream"):
        monkeypatch.setattr(harness, name, marked(getattr(harness, name)))
    run_experiment(mini_sed_config(), output_root=tmp_path / "sed")
    assert counts == {"walk": 2 * 2, "binned_mean": 3, "after_stream": 0}

    counts.update(walk=0, binned_mean=0, after_stream=0)
    run_experiment(mini_ou_config(), output_root=tmp_path / "ou")
    assert counts == {"walk": 2 * 10 + 1, "binned_mean": 3, "after_stream": 1}


def test_existing_run_directory_is_refused(tmp_path):
    cfg = mini_sed_config()
    (tmp_path / "mini_sed").mkdir()
    (tmp_path / "mini_sed" / "stale.txt").write_text("leftover")
    with pytest.raises(ConfigError, match="not empty"):
        run_experiment(cfg, output_root=tmp_path)


def test_invalid_config_writes_nothing(tmp_path):
    cfg = mini_sed_config()
    cfg["ensemble"]["n_trajectoriez"] = 10
    with pytest.raises(ConfigError):
        run_experiment(cfg, output_root=tmp_path)
    assert not (tmp_path / "mini_sed").exists()


def test_run_past_the_comb_period_is_refused_and_leaves_nothing(
        tmp_path, monkeypatch, capsys):
    # 128 modes on [0.9, 1.1]: the field repeats after 2 pi 128/0.2 = 4021.24;
    # 4021.2 ends so close to it that the step would fall below dt/2; the
    # field key with a single usable value (one component) is not part of
    # the schema
    cfg = mini_sed_config()
    cfg_path = tmp_path / "long.json"
    root = tmp_path / "out"
    monkeypatch.setenv("SEDSIM_OUTPUT_ROOT", str(root))
    for section, key, value, message in (
            ("time", "t_final", 5000.0, "comb period 2 pi n_modes/(omega_cutoff"
                                        " - omega_min) = 4021.24"),
            ("time", "t_final", 4021.2, "comb period 4021.24; holding it "
                                        "would take the step below dt/2 = 0.1"),
            ("field", "components", 3, "unknown key 'components' in field")):
        bad = copy.deepcopy(cfg)
        bad[section][key] = value
        cfg_path.write_text(json.dumps(bad))
        assert main(["run", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (root / "mini_sed").exists()

    # the corrected config runs to completion in the same output root
    cfg["time"]["t_final"] = 300.0
    cfg["coarse_grain"]["t_window"] = [150.0, 300.0]
    cfg["coarse_grain"]["delta_t_sweep"] = [1.2, 2.4]
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path)]) in (0, 1)
    assert (root / "mini_sed" / "report.json").is_file()


def test_ou_calibration_refuses_a_nonlinear_potential(
        tmp_path, monkeypatch, capsys):
    # no OU process has the drift of V = x^4/4; refused before anything is
    # written
    cfg = json.loads(OU_CONFIG.read_text())
    cfg["particle"]["potential"] = {"kind": "quartic", "k4": 1.0}
    # small ensembles, so that a run that is not refused fails fast
    cfg["ensemble"]["n_traj"] = 2000
    cfg["langevin"]["n_traj_relax"] = 2000
    cfg_path = tmp_path / "quartic_ou.json"
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setenv("SEDSIM_OUTPUT_ROOT", str(tmp_path))
    assert main(["run", str(cfg_path)]) == 2
    assert 'kind "harmonic"' in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def refuse_to_integrate(monkeypatch):
    """Make integrating or sampling an ensemble fail the test."""
    def integrate(*args, **kwargs):
        raise AssertionError("integrated a run that is refused anyway")

    monkeypatch.setattr(harness, "integrate_stream", integrate)
    monkeypatch.setattr(harness, "ou_stream", integrate)


def refused_run(cfg, tmp_path, monkeypatch, capsys) -> str:
    """Run cfg through the command line; assert exit code 2 within a
    second and no directory left behind; return stderr."""
    cfg_path = tmp_path / "refused.json"
    cfg_path.write_text(json.dumps(cfg))
    root = tmp_path / "out"
    monkeypatch.setenv("SEDSIM_OUTPUT_ROOT", str(root))
    start = time.perf_counter()
    assert main(["run", str(cfg_path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert not root.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("pipeline", ["sed", "ou"])
@pytest.mark.parametrize("potential", [
    {"kind": "free"}, {"kind": "quartic", "k4": 1.0}, {"kind": "tabulated"},
    {"kind": "harmonic"}])
def test_both_pipelines_refuse_every_potential_but_the_harmonic(
        pipeline, potential, tmp_path, monkeypatch, capsys):
    refuse_to_integrate(monkeypatch)
    cfg = mini_sed_config() if pipeline == "sed" else json.loads(
        OU_CONFIG.read_text())
    cfg["particle"]["potential"] = potential
    err = refused_run(cfg, tmp_path, monkeypatch, capsys)
    assert 'kind "harmonic" with omega0' in err


@pytest.mark.parametrize("pipeline,block,key,value,message", [
    ("sed", "outputs", "ensemble_dump", "binray", "outputs.ensemble_dump"),
    ("sed", "outputs", "ensemble_dump", "csv", "outputs.ensemble_dump"),
    ("ou", "outputs", "ensemble_dump", "npz", "outputs.ensemble_dump"),
    ("sed", "time", "record_stride", 0, "time.record_stride must be at least 1"),
    ("sed", "time", "record_stride", -6, "time.record_stride must be at least 1"),
    ("sed", "ensemble", "n_traj", 0, "ensemble.n_traj must be at least 1"),
    ("sed", "ensemble", "n_workers", 0, "ensemble.n_workers must be at least 1"),
    ("sed", "ensemble", "n_workers", -2,
     "ensemble.n_workers must be at least 1"),
    ("ou", "ensemble", "n_traj", -1, "ensemble.n_traj must be at least 1"),
    ("ou", "langevin", "n_traj_relax", 0,
     "langevin.n_traj_relax must be at least 1"),
    ("sed", "coarse_grain", "t_window", [1500.0, 900.0], "t_window"),
    ("sed", "coarse_grain", "t_window", [900.0, 900.0], "t_window"),
    ("sed", "coarse_grain", "t_window", [900.0], "t_window"),
    ("sed", "coarse_grain", "t_window", [900.0, 1200.0, 1500.0], "t_window"),
    ("sed", "coarse_grain", "t_window", [900.0, 1600.0], "t_window"),
    ("sed", "coarse_grain", "t_window", [-1.0, 900.0], "t_window"),
    ("sed", "coarse_grain", "t_window", ["900", 1500.0], "t_window"),
    ("ou", "coarse_grain", "t_window", [0.2, 0.5], "t_window"),
    # inside the run but between two records (sed about 1.2 apart on the
    # resolved comb grid, ou 0.2 and 0.21): refused once the grid is known
    ("sed", "coarse_grain", "t_window", [150.1, 150.5],
     "coarse_grain.t_window must be two increasing times inside the run "
     "[0, 1500] holding one of its 1254 recorded times on [0, 1499.59], "
     "not [150.1, 150.5]"),
    ("ou", "coarse_grain", "t_window", [0.201, 0.205],
     "holding one of its 41 recorded times on [0, 0.4], not [0.201, 0.205]"),
    # records, but none with room for the lags: sed one record at the
    # run's end, ou the last two records
    ("sed", "coarse_grain", "t_window", [1499.0, 1500.0],
     "[1499.0, 1500.0] holds no recorded time with room for the lag 2.39"),
    ("ou", "coarse_grain", "t_window", [0.39, 0.4],
     "[0.39, 0.4] holds no recorded time with room for the lag 0.02"),
    ("ou", "langevin", "t_relax_window", [0.01, 0.05],
     "t_relax_window [0.01, 0.05] needs two increasing reference times"),
    ("ou", "langevin", "t_relax_window", [0.2, 0.1],
     "t_relax_window [0.2, 0.1] needs two increasing reference times"),
    # bin counts below the estimators' 5, and what CoarseGrainSpec refuses,
    # named by its config key
    ("sed", "coarse_grain.x_bins", "n", 3,
     "coarse_grain.x_bins.n must be at least 5, not 3"),
    ("ou", "coarse_grain.x_bins", "n", 3,
     "coarse_grain.x_bins.n must be at least 5, not 3"),
    ("ou", "coarse_grain.x_bins", "min", 3.0,
     "coarse_grain.x_bins: x_range (3.0, 3.0) is not a finite, non-empty"),
    ("sed", "coarse_grain.x_bins", "max", math.inf,
     "coarse_grain.x_bins.max must be a finite number, not Infinity"),
    ("ou", "coarse_grain", "classifier_bins", 3,
     "coarse_grain.classifier_bins must be at least 5, not 3"),
    ("sed", "coarse_grain", "delta_t", 0.0,
     "coarse_grain.delta_t must be greater than 0, not 0.0"),
    ("ou", "coarse_grain", "delta_t", -0.02,
     "coarse_grain.delta_t must be greater than 0, not -0.02"),
    ("ou", "coarse_grain", "delta_t_sweep", [0.01, -0.01],
     "coarse_grain.delta_t_sweep must be a list of numbers greater than 0, "
     "not [0.01, -0.01]"),
    # list entries that are not finite numbers
    ("ou", "coarse_grain", "delta_t_sweep", [0.01, "x"],
     'coarse_grain.delta_t_sweep must be a list of finite numbers, '
     'not [0.01, "x"]'),
    ("ou", "coarse_grain", "delta_t_sweep", [0.01, math.inf],
     "coarse_grain.delta_t_sweep must be a list of finite numbers, "
     "not [0.01, Infinity]"),
    ("ou", "coarse_grain", "delta_t_sweep", [0.01, True],
     "coarse_grain.delta_t_sweep must be a list of finite numbers, "
     "not [0.01, true]"),
    ("sed", "coarse_grain", "delta_t_sweep", [],
     "coarse_grain.delta_t_sweep must be a list of 1 or more numbers, not []"),
    ("sed", "coarse_grain", "t_window", [900.0, math.nan],
     "coarse_grain.t_window must be a list of finite numbers, "
     "not [900.0, NaN]"),
    ("ou", "langevin", "t_relax_window", ["x", 0.3],
     'langevin.t_relax_window must be a list of finite numbers, '
     'not ["x", 0.3]'),
    ("ou", "langevin", "t_relax_window", [0.1, 0.2, 0.3],
     "langevin.t_relax_window must be a list of 2 or fewer numbers, "
     "not [0.1, 0.2, 0.3]"),
    ("ou", "langevin", "t_relax_window", [0.1, math.inf],
     "langevin.t_relax_window must be a list of finite numbers, "
     "not [0.1, Infinity]"),
    # a thinning step that is not a finite positive time, an occupancy
    # threshold below one sample
    ("ou", "coarse_grain", "thin_time", -1.0,
     "coarse_grain.thin_time must be greater than 0, not -1.0"),
    ("sed", "coarse_grain", "thin_time", 0.0,
     "coarse_grain.thin_time must be greater than 0, not 0.0"),
    ("ou", "coarse_grain", "thin_time", math.inf,
     "coarse_grain.thin_time must be a finite number, not Infinity"),
    ("ou", "coarse_grain", "min_count", -5,
     "coarse_grain.min_count must be at least 1, not -5"),
    ("sed", "coarse_grain", "min_count", 0,
     "coarse_grain.min_count must be at least 1, not 0"),
    # null is no value of any key
    *[(pipeline, block, key, None, f"{block}.{key} must be {kind}, not null")
      for pipeline in ("sed", "ou")
      for block, key, kind in (
          ("coarse_grain", "min_count", "an integer"),
          ("coarse_grain", "delta_t", "a finite number"),
          ("time", "dt", "a finite number"),
          ("ensemble", "n_traj", "an integer"))],
    ("sed", "field", "n_modes", None, "field.n_modes must be an integer, not null"),
    # values outside a key's range, and NaN
    ("sed", "particle", "mass", -1.0,
     "particle.mass must be greater than 0, not -1.0"),
    ("ou", "particle", "mass", -1, "particle.mass must be greater than 0, not -1"),
    ("sed", "field", "hbar", -1.0, "field.hbar must be greater than 0, not -1.0"),
    ("sed", "particle", "tau", -0.001,
     "particle.tau must be at least 0, not -0.001"),
    ("ou", "particle", "tau", -0.001,
     "particle.tau must be at least 0, not -0.001"),
    ("ou", "langevin", "x_start", math.nan,
     "langevin.x_start must be a finite number, not NaN"),
    ("sed", "tolerances", "pooled_D", math.nan,
     "tolerances.pooled_D must be a finite number, not NaN"),
    ("ou", "tolerances", "variance_pulls", math.nan,
     "tolerances.variance_pulls must be a finite number, not NaN"),
    ("ou", "time", "dt", -0.01, "time.dt must be greater than 0, not -0.01"),
    # what the library's specs refuse across keys, named by the block
    ("sed", "field", "omega_min", 1.2,
     "field: need 0 <= omega_min < omega_cutoff"),
    ("sed", "grid", "x_max", -7.0, "grid: x_max must exceed x_min"),
    ("sed", "grid", "n_points", 3, "grid.n_points must be at least 16, not 3"),
    ("sed", "time", "t_final", -1.0,
     "time: need a positive run length and dt"),
    ("ou", "time", "t_final", -1.0,
     "time.t_final -1.0 leaves no step of dt 0.01 after time.t0 0"),
    # values whose arithmetic overflows, named by the keys they join
    ("sed", "field", "c", 1e200,
     "particle and field.c: (34, 'Numerical result out of range')"),
    ("sed", "time", "dt", 1e-300,
     "time: an FFT length of 1010 bits is past the largest array index"),
    # keys and blocks the pipeline never reads ("" is the top level)
    *[("ou", block, key, value,
       f"{block}{'.' if block else ''}{key} is not read by experiment "
       f"'ou_calibration'")
      for block, key, value in (
          ("", "field", {"omega_cutoff": 1.1, "n_modes": 8}),
          ("", "grid", {"x_min": -6.0, "x_max": 6.0, "n_points": 101}),
          ("time", "record_stride", 7),
          ("ensemble", "n_workers", 2),
          ("ensemble", "store_field", True),
          ("tolerances", "pooled_D", 0.1),
          ("tolerances", "autocorr_z", 3.0))],
    *[("sed", block, key, value,
       f"{block}{'.' if block else ''}{key} is not read by experiment "
       f"'sed_harmonic_ground'")
      for block, key, value in (
          ("", "langevin", {"friction": 10.0, "D0": 0.1}),
          ("coarse_grain", "classifier_bins", 16),
          ("tolerances", "variance_pulls", 3.0),
          ("tolerances", "va_consistent_fraction", 0.9))],
])
def test_bad_inputs_are_refused_before_anything_is_written(
        pipeline, block, key, value, message, tmp_path, monkeypatch, capsys):
    refuse_to_integrate(monkeypatch)
    cfg = mini_sed_config() if pipeline == "sed" else json.loads(
        OU_CONFIG.read_text())
    reduce(operator.getitem, filter(None, block.split(".")), cfg)[key] = value
    assert message in refused_run(cfg, tmp_path, monkeypatch, capsys)


def test_unread_keys_are_refused_with_their_line(tmp_path, monkeypatch,
                                                 capsys):
    # the OU run reads neither key, so the config is refused; the message
    # names the first and its line in the file
    refuse_to_integrate(monkeypatch)
    cfg = json.loads(OU_CONFIG.read_text())
    cfg["time"]["record_stride"] = 7
    cfg["ensemble"]["n_workers"] = 2
    text = json.dumps(cfg, indent=2)
    line = next(i for i, s in enumerate(text.splitlines(), 1)
                if '"record_stride"' in s)
    cfg_path = tmp_path / "unread.json"
    cfg_path.write_text(text)
    monkeypatch.setenv("SEDSIM_OUTPUT_ROOT", str(tmp_path / "out"))
    assert main(["run", str(cfg_path)]) == 2
    assert (f"unread.json:{line}: time.record_stride is not read by "
            f"experiment 'ou_calibration'") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_store_field_false_is_refused_before_integrating(
        tmp_path, monkeypatch, capsys):
    refuse_to_integrate(monkeypatch)
    cfg = mini_sed_config()
    cfg["ensemble"]["store_field"] = False
    cfg_path = tmp_path / "nofield.json"
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setenv("SEDSIM_OUTPUT_ROOT", str(tmp_path))
    start = time.perf_counter()
    assert main(["run", str(cfg_path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "store_field" in capsys.readouterr().err
    assert not (tmp_path / "mini_sed").exists()


def test_unknown_experiment_is_a_config_error(tmp_path):
    cfg = mini_sed_config()
    cfg["experiment"] = "sed_quartic_ground"
    with pytest.raises(ConfigError):
        run_experiment(cfg, output_root=tmp_path)


# ---------------------------------------------------------------------------
# plot emission

def test_plot_data_files(sed_run, tmp_path):
    work = tmp_path / "copy"
    shutil.copytree(sed_run.run_dir, work)
    written = emit_plot_data(work)
    names = sorted(p.name for p in written)
    for stem in ("density_overlay", "velocity_overlay", "dsweep",
                 "relaxation", "balance_trace"):
        assert f"{stem}.dat" in names and f"{stem}.gp" in names
    # .dat files are whitespace-separated numeric tables
    first = (work / "plots" / "density_overlay.dat").read_text().splitlines()
    assert "," not in first[1]
    assert len(first[1].split()) == 4


def test_plot_data_names_the_missing_artifact(sed_run, tmp_path):
    work = tmp_path / "copy"
    shutil.copytree(sed_run.run_dir, work)
    (work / "fields" / "rho.csv").unlink()
    with pytest.raises(PipelineError, match="missing artifact.*rho.csv"):
        emit_plot_data(work)


def test_plot_reads_the_balance_trace_not_the_dump(sed_run, tmp_path,
                                                  monkeypatch):
    # the trace the plot once computed from the dump, block by block over
    # the intact rows: the figure keeps those bytes without reading it
    work = tmp_path / "copy"
    shutil.copytree(sed_run.run_dir, work)
    cfg = load_config(work / "config.json")
    ens = load_ensemble(work / "ensemble")
    particle = harness._build_particle(cfg)
    cols = dynamics.window_columns(ens.times, cfg["coarse_grain"]["t_window"])
    absorbed, radiated = np.zeros((2, cols.stop - cols.start))
    for x, v, ef in ens.intact_blocks(
            ("positions", "velocities", "field_values"), cols):
        absorbed += np.sum(particle.charge * ef * v, axis=0)
        radiated += np.sum(particle.mass * particle.tau
                           * particle.acceleration(x, v, ef)**2, axis=0)
    n_ok = np.count_nonzero(ens.ok_mask())
    expected = "t absorbed radiated\n" + "".join(
        " ".join(repr(float(c)) for c in row) + "\n"
        for row in zip(ens.times[cols], absorbed / n_ok, radiated / n_ok))

    def no_load(*args, **kwargs):
        raise AssertionError("the plot loaded an array")

    monkeypatch.setattr(np, "load", no_load)
    emit_plot_data(work)
    assert (work / "plots" / "balance_trace.dat").read_text() == expected

    # without the trace the plot names it and writes nothing
    shutil.rmtree(work / "plots")
    (work / "balance_trace.csv").unlink()
    with pytest.raises(PipelineError, match="missing artifact.*balance_trace.csv"):
        emit_plot_data(work)
    assert not (work / "plots").exists()


# ---------------------------------------------------------------------------
# the streamed ensemble

def run_files(run_dir):
    """Relative path -> bytes of every file but run.json, which alone holds
    timings."""
    return {p.relative_to(run_dir): p.read_bytes()
            for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.name != "run.json"}


def test_chunks_finishing_out_of_order_keep_every_byte(tmp_path, monkeypatch):
    # 4 chunks of at most 32 trajectories on 2 workers; chunk 0 waits until
    # chunk 1 has finished, and is still handed over first
    monkeypatch.setattr(dynamics, "RESPONSE_CHUNK", 32)
    serial = run_experiment(mini_sed_config(), output_root=tmp_path / "serial")

    cfg = mini_sed_config()
    cfg["ensemble"]["n_workers"] = 2
    seed = cfg["seeds"]["master_seed"]
    chunk_1_done = threading.Event()
    field_phases, add_transient = dynamics.field_phases, dynamics._add_transient
    waited = []

    def late_chunk_0(fspec, key):
        if key == (seed, 0, 0):
            waited.append(chunk_1_done.wait(timeout=60))
        return field_phases(fspec, key)

    def signalling_transient(*args):
        add_transient(*args)
        chunk_1_done.set()

    monkeypatch.setattr(dynamics, "field_phases", late_chunk_0)
    monkeypatch.setattr(dynamics, "_add_transient", signalling_transient)
    threaded = run_experiment(cfg, output_root=tmp_path / "threaded")
    assert waited == [True]
    assert json.loads((threaded.run_dir / "run.json").read_text())[
        "n_workers"] == 2
    a, b = run_files(serial.run_dir), run_files(threaded.run_dir)
    assert Path("ensemble/field_values.npy") in a
    assert a.keys() == b.keys()
    # the configs differ in n_workers, and the report carries their hash
    differ = {rel for rel in a if a[rel] != b[rel]}
    assert differ == {Path("config.json"), Path("report.json"),
                      Path("report.txt")}
    assert (serial.report.to_dict()["rows"]
            == threaded.report.to_dict()["rows"])


def test_a_failed_chunk_leaves_a_dump_that_does_not_load(tmp_path,
                                                         monkeypatch):
    # the third of 4 chunks raises: the two before it are in the dump,
    # whose meta.json, written last, is missing, and run.json counts them
    monkeypatch.setattr(dynamics, "RESPONSE_CHUNK", 32)
    add_transient = dynamics._add_transient
    calls = []

    def third_fails(*args):
        calls.append(1)
        if len(calls) == 3:
            raise FloatingPointError("chunk 2 blew up")
        add_transient(*args)

    monkeypatch.setattr(dynamics, "_add_transient", third_fails)
    with pytest.raises(PipelineError,
                       match="stage 'integrate' failed: chunk 2 blew up"):
        run_experiment(mini_sed_config(), output_root=tmp_path)
    run_dir = tmp_path / "mini_sed"
    run = json.loads((run_dir / "run.json").read_text())
    assert run["failed_stage"] == "integrate"
    assert [st["name"] for st in run["stages"]] == ["plan"]
    assert run["n_chunks"] == 2
    assert not (run_dir / "ensemble" / "meta.json").exists()
    assert not (run_dir / "balance.json").exists()
    positions = run_dir / "ensemble" / "positions.npy"
    with open(positions, "rb") as fh:
        np.lib.format.read_magic(fh)
        shape = np.lib.format.read_array_header_1_0(fh)[0]
        header = fh.tell()
    assert positions.stat().st_size == header + 2 * 32 * shape[1] * 8
    with pytest.raises(IntegrationError, match="cut off"):
        load_ensemble(run_dir / "ensemble")


def test_sed_run_holds_a_few_chunks_and_the_sample_sums(tmp_path,
                                                        monkeypatch):
    # the response path's chunks of 64: integrate's peak is about one chunk
    # (positions, velocities and field values) with its transforms, plus
    # the two sample sets' sums: per bin, and for D per lag (4 here) the
    # rows' mean and scatter of (2 bins + 1) numbers, whatever n_traj. The
    # stages after it finish those sums, and the run stays below them and
    # 4 chunks, far below the 3 whole arrays. 4,800 trajectories, 3,600
    # more than 1,200, raise the peak by less than one chunk: the sample
    # sets keep nothing per trajectory
    stream, peaks = harness.integrate_stream, {}

    def measured_stream(*args, **kwargs):
        tracemalloc.reset_peak()
        head = stream(*args, **kwargs)
        peaks[head.n_traj] = [tracemalloc.get_traced_memory()[1]]
        return head

    monkeypatch.setattr(harness, "integrate_stream", measured_stream)
    cfg = mini_sed_config()
    for n_traj in (1200, 4800):
        cfg["ensemble"]["n_traj"] = n_traj
        tracemalloc.start()
        try:
            result = run_experiment(cfg, output_root=tmp_path / str(n_traj))
            peaks[n_traj].append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    n_rec = np.load(result.run_dir / "ensemble" / "times.npy").size
    cg = cfg["coarse_grain"]
    lags, bins = 1 + len(cg["delta_t_sweep"]), cg["x_bins"]["n"]
    sums = (lags * (2 * bins + 1) ** 2 * 8
            + 2 * (1 + 2 * 3 + lags) * (bins + 1) * 8)
    chunk = 3 * dynamics.RESPONSE_CHUNK * n_rec * 8
    for n_traj, (integrate, peak) in peaks.items():
        assert integrate < sums + 2 * chunk
        assert peak < sums + 4 * chunk < 3 * n_traj * n_rec * 8 / 2
    assert peaks[4800][1] - peaks[1200][1] < chunk


def test_sed_run_keeps_no_positions_for_the_estimators(tmp_path,
                                                       monkeypatch):
    # no column store, and no sample set walks anything once integrate
    # has handed over the last chunk
    def no_store(*args, **kwargs):
        raise AssertionError("the sed run built a ColumnStore")

    stream, walk, late = harness.integrate_stream, kinematics.SampleSet._blocks, []

    def finished_stream(*args, **kwargs):
        head = stream(*args, **kwargs)
        late.append(0)
        return head

    def counting_walk(samples, chunk):
        if late:
            late.append(1)
        yield from walk(samples, chunk)

    monkeypatch.setattr(harness, "ColumnStore", no_store)
    monkeypatch.setattr(dynamics, "ColumnStore", no_store)
    monkeypatch.setattr(harness, "integrate_stream", finished_stream)
    monkeypatch.setattr(kinematics.SampleSet, "_blocks", counting_walk)
    result = run_experiment(mini_sed_config(), output_root=tmp_path)
    assert (result.run_dir / "dsweep.json").is_file()
    assert late == [0]


@pytest.mark.parametrize("window, lag, start, step, n_cols, n_read", [
    (None, None, 14, 2, 7, 7),
    ([0.16, 0.22], None, 14, 1, 11, 9),
    ([0.15, 0.25], 0.15, 0, 1, 41, 9),
])
def test_relaxing_store_keeps_the_columns_the_classifier_reads(
        tmp_path, monkeypatch, window, lag, start, step, n_cols, n_read):
    # the classifier reads its three reference columns, each +- the lag.
    # On the shipped window (16, 20 and 24, lag 2 steps) the store keeps
    # every second column from 14 to 26, each of which the relaxing
    # classifier's set reads. On a window of 6 steps (16, 19 and 22) a step
    # of 2 would put the middle column off its grid; at a lag of 15 steps
    # on 15, 20 and 25, 3 steps of 5 dt round apart from 15 dt. So those
    # stores keep every column from the first to the last, some unread.
    # Each way a store of every such column gives the same branch.json bit
    # for bit
    cfg = mini_ou_config()
    if window is not None:
        cfg["langevin"]["t_relax_window"] = window
    if lag is not None:
        cfg["coarse_grain"]["delta_t"] = lag
    stores, sets = [], []
    store_class, of = harness.ColumnStore, kinematics.SampleSet.of

    def recorded_store(n_traj, cols):
        stores.append(store_class(n_traj, cols))
        return stores[-1]

    def recorded_of(ens, spec, **kwargs):
        sets.append(of(ens, spec, **kwargs))
        return sets[-1]

    monkeypatch.setattr(harness, "ColumnStore", recorded_store)
    monkeypatch.setattr(kinematics.SampleSet, "of", staticmethod(recorded_of))
    result = run_experiment(cfg, output_root=tmp_path / "stepped")
    store, (samples,) = stores[-1], sets
    assert (store.cols.start, store.cols.step) == (start, step)
    assert store.positions.shape == (50_000, n_cols)
    read = {int(r) + s for r in samples.ridx for s in samples.offsets}
    assert read <= set(range(n_cols)) and {0, n_cols - 1} <= read
    assert len(read) == n_read

    monkeypatch.setattr(harness, "ColumnStore", lambda n_traj, cols: (
        store_class(n_traj, slice(cols.start, cols.stop))))
    every = run_experiment(cfg, output_root=tmp_path / "every")
    assert ((result.run_dir / "branch.json").read_bytes()
            == (every.run_dir / "branch.json").read_bytes())


def test_ou_run_holds_the_classifier_columns_per_relaxing_trajectory(
        tmp_path):
    # per relaxing trajectory the run keeps the 7 stored columns (56 B),
    # its status (1 B) and the classifier's per-sample D state (3 x 9 B),
    # and no array of seeds or starts past the sampling: the traced peak
    # grows by at most 90 B per added relaxing trajectory (149 B with all
    # 13 columns, the seeds and the starts)
    peaks = {}
    for n_relax in (50_000, 200_000):
        tracemalloc.start()
        try:
            run_experiment(mini_ou_config(n_relax),
                           output_root=tmp_path / str(n_relax))
            peaks[n_relax] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[200_000] - peaks[50_000]) / 150_000 <= 90


# ---------------------------------------------------------------------------
# command line

def test_cli_run_report_plot_cycle(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(mini_sed_config()))
    monkeypatch.setenv("SEDSIM_OUTPUT_ROOT", str(tmp_path))

    assert main(["run", str(cfg_path)]) == 1  # tolerance failures, not errors
    out, err = capsys.readouterr()
    assert "run directory:" in out
    # a line per 512 trajectories and one at the last: 120 trajectories in
    # 2 chunks print one
    assert err == "integrate: 120/120 trajectories\n"
    run_dir = tmp_path / "mini_sed"

    report_txt = (run_dir / "report.txt").read_bytes()
    assert main(["report", str(run_dir)]) == 1
    out = capsys.readouterr().out
    assert "pipeline: sed_harmonic_ground" in out
    # the stage ledger follows the report text
    stages = json.loads((run_dir / "run.json").read_text())["stages"]
    integrate = next(s for s in stages if s["name"] == "integrate")
    row = next(line for line in out.splitlines()
               if line.split()[:1] == ["integrate"])
    assert [float(x) for x in row.split()[1:]] == pytest.approx(
        [integrate["wall_s"], integrate["cpu_s"], integrate["peak_rss_mb"],
         integrate["rss_mb"]],
        abs=1e-3, rel=1e-3)
    assert out.index("pipeline:") < out.index(row)
    assert "% of wall_seconds" in out.splitlines()[-1]
    assert (run_dir / "report.txt").read_bytes() == report_txt

    assert main(["plot", str(run_dir)]) == 0
    assert (run_dir / "plots" / "dsweep.gp").is_file()


def test_cli_progress_prints_a_line_per_512_trajectories(capsys):
    # the shipped sed run hands over 25 chunks of 64 and prints 4 lines;
    # the step loop's chunks of 512 print one line each
    progress = _Progress()
    for done in [*range(64, 1600, 64), 1600]:
        progress(done, 1600)
    assert capsys.readouterr().err == "".join(
        f"integrate: {done}/1600 trajectories\n"
        for done in (512, 1024, 1536, 1600))
    progress = _Progress()
    for done in (512, 1024, 1068):
        progress(done, 1068)
    assert capsys.readouterr().err.count("\n") == 3


def test_cli_config_errors_exit_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SEDSIM_OUTPUT_ROOT", str(tmp_path))
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    assert main(["report", str(tmp_path / "nowhere")]) == 2
    assert main(["plot", str(tmp_path / "nowhere")]) == 2
    capsys.readouterr()


def test_cli_constants_calculator(capsys):
    assert main(["constants", "transition-time", "--particle", "electron"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert 1e-19 <= value < 1e-18


def test_cli_constants_unknown_particle(capsys):
    assert main(["constants", "transition-time", "--particle", "tau"]) == 2
    assert "constants error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism across reruns

def test_same_config_reproduces_ensemble_bytes(tmp_path):
    cfg = mini_sed_config()
    cfg["time"]["t_final"] = 300.0
    cfg["coarse_grain"]["t_window"] = [150.0, 300.0]
    cfg["coarse_grain"]["delta_t_sweep"] = [1.2, 2.4]
    a = run_experiment(cfg, output_root=tmp_path / "a")
    b = run_experiment(cfg, output_root=tmp_path / "b")

    def files(run_dir):
        # run.json alone holds the wall time
        return sorted(p.relative_to(run_dir) for p in run_dir.rglob("*")
                      if p.is_file() and p != run_dir / "run.json")

    rels = files(a.run_dir)
    assert rels == files(b.run_dir)
    assert Path("ensemble/field_values.npy") in rels
    assert Path("fields/va_combo.csv") in rels
    for rel in rels:
        assert (a.run_dir / rel).read_bytes() == (b.run_dir / rel).read_bytes(), rel


def test_import_leaves_scipy_signal_and_interpolate_out():
    # the three subpackages were most of the package's import time: one
    # filter and one spline that no shipped config needs, and the quad of
    # two reference checks, which import scipy.integrate when called
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, sedsim.harness; print(sorted(m for m in sys.modules"
             " if m.split('.')[:2] in (['scipy', 'signal'],"
             " ['scipy', 'interpolate'], ['scipy', 'integrate'])))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def modules_after_a_run(cfg: dict, tmp_path, which: str) -> str:
    """The sorted names m of sys.modules for which the expression which
    holds, after cfg's run in a fresh process."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; from sedsim.harness import run_experiment;"
             " run_experiment(sys.argv[1], output_root=sys.argv[2]);"
             f" print(sorted(m for m in sys.modules if {which}))")
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", probe, str(cfg_path), str(tmp_path / "out")],
        env=env, check=True, capture_output=True, text=True,
        timeout=120).stdout.strip()


def test_a_sed_run_leaves_scipy_integrate_out(tmp_path):
    # the field-autocorrelation stage compares against the closed-form
    # autocovariance; the quadrature (and its import) is the tests' oracle.
    # The comb's lengths come from an integer search, not scipy.fft; only
    # the reference eigensolve imports scipy.linalg
    assert modules_after_a_run(
        mini_sed_config(), tmp_path,
        "m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'fft'],"
        " ['scipy', 'special'])") == "[]"


def test_an_ou_run_loads_no_scipy(tmp_path):
    assert modules_after_a_run(mini_ou_config(), tmp_path,
                               "m.split('.')[0] == 'scipy'") == "[]"
