"""Pipeline orchestration, run-directory layout, and CLI exit codes.

A shrunken field-driven configuration exercises the full artifact layout in
under a second; its physics rows are allowed to fail (tiny ensemble), which
is exactly what the exit-code plumbing needs. The committed calibration
configuration runs at full size and must pass everything.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sedsim import harness
from sedsim.cli import main
from sedsim.config import ConfigError, dumps_config, load_config, validate_config
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
                "field_autocorr.json", "relaxation.csv", "density_qm.csv",
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
    assert run_meta["n_chunks"] == 1          # 120 trajectories, one chunk
    assert run_meta["n_workers"] == 1
    ou_meta = json.loads((ou_run.run_dir / "run.json").read_text())
    ou_ens = json.loads((ou_run.run_dir / "ensemble" / "meta.json").read_text())
    assert (ou_meta["dt"], ou_meta["n_steps"]) == (ou_ens["dt"], ou_ens["n_steps"])


def test_run_json_records_the_stage_ledger(sed_run, ou_run):
    for run, stage in ((sed_run, "integrate"), (ou_run, "sample-relaxing")):
        run_meta = json.loads((run.run_dir / "run.json").read_text())
        stages = run_meta["stages"]
        assert stage in [s["name"] for s in stages]
        assert all(set(s) == {"name", "wall_s", "cpu_s", "peak_rss_mb"}
                   for s in stages)
        assert all(s["wall_s"] >= 0 and s["cpu_s"] >= 0 for s in stages)
        assert sum(s["wall_s"] for s in stages) <= run_meta["wall_seconds"]
        peaks = [s["peak_rss_mb"] for s in stages]
        assert peaks[0] > 0 and peaks == sorted(peaks)
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_stage_names_the_non_finite_count(tmp_path, monkeypatch, capsys):
    # omega0 dt = 14.5 x 0.19947 = 2.89, past RK4's limit 2.828: by t_final
    # 1137 all 120 trajectories have overflowed, and a later stage has
    # nothing left to work on. The partial directory says that it failed
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
    assert names[:2] == ["time-grid", "integrate"]
    assert run["failed_stage"] not in names
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
    def broken(*args, **kwargs):
        raise ValueError("no balance today")

    monkeypatch.setattr(harness, "energy_balance", broken)
    with pytest.raises(PipelineError) as err:
        run_experiment(mini_sed_config(), output_root=tmp_path)
    assert str(err.value) == "stage 'energy-balance' failed: no balance today"
    run = json.loads((tmp_path / "mini_sed" / "run.json").read_text())
    assert run["failed_stage"] == "energy-balance"
    assert run["non_finite_trajectories"] == 0
    assert [st["name"] for st in run["stages"]] == ["time-grid", "integrate",
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
    # 4021.2 ends so close to it that the step would fall below dt/2; a
    # comb uniform in omega^4 has no FFT-exact grid at all
    cfg = mini_sed_config()
    cfg_path = tmp_path / "long.json"
    root = tmp_path / "out"
    monkeypatch.setenv("SEDSIM_OUTPUT_ROOT", str(root))
    for section, key, value, message in (
            ("time", "t_final", 5000.0, "comb period 2 pi n_modes/(omega_cutoff"
                                        " - omega_min) = 4021.24"),
            ("time", "t_final", 4021.2, "comb period 4021.24; holding it "
                                        "would take the step below dt/2 = 0.1"),
            ("field", "mode_spacing", "uniform-in-omega^4",
             "needs uniform mode spacing")):
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
    # a tabulated V = x^2/2 + x^4 has a positive curvature at its minimum,
    # but no OU process has this drift; refused before anything is written
    cfg = json.loads(OU_CONFIG.read_text())
    x = [-4.0 + 0.1 * i for i in range(81)]
    cfg["particle"]["potential"] = {"kind": "tabulated", "x": x,
                                    "V": [0.5 * v**2 + v**4 for v in x]}
    # small ensembles, so that a run that is not refused fails fast
    cfg["ensemble"]["n_traj"] = 2000
    cfg["langevin"]["n_traj_relax"] = 2000
    cfg_path = tmp_path / "quartic_ou.json"
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setenv("SEDSIM_OUTPUT_ROOT", str(tmp_path))
    assert main(["run", str(cfg_path)]) == 2
    assert "requires a harmonic potential" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_store_field_false_is_refused_before_integrating(
        tmp_path, monkeypatch, capsys):
    def integrate(*args, **kwargs):
        raise AssertionError("integrated a run that is refused anyway")

    monkeypatch.setattr(harness, "integrate_ensemble", integrate)
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


# ---------------------------------------------------------------------------
# command line

def test_cli_run_report_plot_cycle(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(mini_sed_config()))
    monkeypatch.setenv("SEDSIM_OUTPUT_ROOT", str(tmp_path))

    assert main(["run", str(cfg_path)]) == 1  # tolerance failures, not errors
    out, err = capsys.readouterr()
    assert "run directory:" in out
    # one progress line per finished chunk of integrate_ensemble
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
        [integrate["wall_s"], integrate["cpu_s"], integrate["peak_rss_mb"]],
        abs=1e-3, rel=1e-3)
    assert out.index("pipeline:") < out.index(row)
    assert "% of wall_seconds" in out.splitlines()[-1]
    assert (run_dir / "report.txt").read_bytes() == report_txt

    assert main(["plot", str(run_dir)]) == 0
    assert (run_dir / "plots" / "dsweep.gp").is_file()


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
    # the two subpackages were most of the package's import time, for one
    # filter and one spline that no shipped config needs
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, sedsim.harness; print(sorted(m for m in sys.modules"
             " if m.split('.')[:2] in (['scipy', 'signal'],"
             " ['scipy', 'interpolate'])))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"
