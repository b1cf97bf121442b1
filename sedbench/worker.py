"""One pipeline execution in a fresh process: set up, execute, check, report.

    python3 sedbench/worker.py --workload W --seed S --execution K
                               --trace 0|1 --tmp DIR [--setup-only]

Prints ``READY`` once sedsim is imported and the execution's input config
is written; run.py times set-up up to that line. With --setup-only it
exits there. Otherwise it executes the pipeline (traced with --trace 1),
reads its peak RSS, checks its artifacts, deletes its run directory and
prints one JSON line. A fresh process per execution pays what a user's
`sedsim run` pays: a cold heap in this process takes ~4 M page faults on
sed-ground that a second pipeline in the same process would not.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import sedsim  # noqa: E402
from sedsim import config, dynamics, field, harness, kinematics, schrodinger  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = {"config": config, "dynamics": dynamics, "harness": harness,
           "kinematics": kinematics, "schrodinger": schrodinger}
MB = 1e6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def run_checks(name: str, cfg: dict, info: dict, seed_k) -> list:
    run_dir = Path(info["run_dir"])
    d = checks.Dump(run_dir / "ensemble")
    out = [checks.check_finite(d)]
    if name == "ou-calibration":
        return out + checks.check_ou(d, cfg)
    out.append(checks.check_field_variance(d, cfg))
    out.append(checks.check_energy_balance(d, cfg, run_dir))
    # the driven quartic is chaotic: restart from the recorded state every
    # 8 records (~9 time units) so only the step error is compared
    out.extend(checks.check_reintegration(
        d, cfg, seed_k, field.make_field, workloads.field_spec(cfg),
        segment=8 if name == "sed-quartic" else None))
    if name == "sed-ground":
        out.extend(checks.check_linear_response(d, cfg))
    else:
        cg = cfg["coarse_grain"]
        rec_dt = float(d.times[1] - d.times[0])
        lag = workloads.snap_lag(rec_dt, cg["delta_t"])
        thin = max(1, int(round(cg["thin_time"] / rec_dt)))
        refs = workloads.window_refs(d.times, tuple(cg["t_window"]), lag, thin)
        out.append(checks.check_flow_velocity(d, cfg, run_dir, refs,
                                              int(round(lag / rec_dt))))
    return out


def layer_context(info: dict) -> dict:
    run_dir = Path(info["run_dir"])
    meta = json.loads((run_dir / "ensemble" / "meta.json").read_text())
    dumps = [p for p in run_dir.iterdir()
             if p.is_dir() and p.name.startswith("ensemble")]
    ctx = {"dump_mb": sum(tree_bytes(p) for p in dumps) / MB}
    if "field_spec" in meta["meta"]:
        ctx["traj_steps"] = meta["n_traj"] * meta["n_steps"]
        ctx["table_mb"] = (min(dynamics.CHUNK, meta["n_traj"])
                           * (2 * meta["n_steps"] + 1) * 8 / MB)
    return ctx


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--execution", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]()
    cfg = wl.config(args.seed, args.execution)
    cfg_path = Path(args.tmp) / f"config-{os.getpid()}.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    print("READY", flush=True)
    if args.setup_only:
        cfg_path.unlink()
        return 0

    out_root = Path(args.tmp) / f"exec-{os.getpid()}"
    out_root.mkdir()
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install(MODULES)
        root = tracer.open("pipeline", "harness")
    ru0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    try:
        info, error = wl.execute(cfg_path, out_root), None
    except Exception as exc:  # a failed operation, counted and reported
        info, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if args.trace:
        tracer.close(root)
        tracer.uninstall()
    rss = peak_rss_mb()

    record = {"execution": args.execution,
              "master_seed": cfg["seeds"]["master_seed"],
              "traced": bool(args.trace), "wall_s": wall, "peak_rss_mb": rss,
              "user_s": ru1.ru_utime - ru0.ru_utime,
              "sys_s": ru1.ru_stime - ru0.ru_stime,
              "minor_faults": ru1.ru_minflt - ru0.ru_minflt,
              "involuntary_switches": ru1.ru_nivcsw - ru0.ru_nivcsw,
              "threads": {v: os.environ.get(v) for v in THREAD_VARS},
              "versions": {"sedsim": sedsim.__version__, "numpy": np.__version__,
                           "python": sys.version.split()[0]}}
    if info is None:
        record["checks"] = [checks.check_result("raised", 1, 0, False, error=error)]
    else:
        record["artifact_mb"] = tree_bytes(out_root) / MB
        record["exit_code"] = info["exit_code"]
        record["report_rows_failed"] = info["failed_rows"]
        try:
            if args.trace:
                record["layers"] = tracing.layer_metrics(tracer.spans,
                                                         layer_context(info))
                record["spans"] = tracer.spans
                record["untraced_targets"] = sorted(tracer.missing)
            record["checks"] = run_checks(args.workload, cfg, info,
                                          (args.seed, args.execution))
        except Exception as exc:  # artifacts missing or malformed
            record["checks"] = [checks.check_result(
                "artifacts_readable", 1, 0, False,
                error=f"{type(exc).__name__}: {exc}")]
    record["passed"] = all(c["passed"] for c in record["checks"])
    shutil.rmtree(out_root)
    cfg_path.unlink()
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
