"""sedsim benchmark: one workload, one run, one JSON line.

    python3 sedbench/run.py --workload sed-ground --seed 1 --seconds 10 --trace 0

Run from the root of a sedsim source tree. A run executes whole pipelines,
each in a fresh worker process (worker.py) with OpenBLAS, OpenMP and MKL
held to one thread, one after the other, until their summed wall time
reaches --seconds; at least one. Execution k uses master_seed 1000 seed + k.
Outputs go under .sedbench/ in the tree and are deleted after each
execution's checks. Set-up time runs from spawning a worker to its READY
line; setup-only probes top the samples up to SETUP_SAMPLES and the median
is reported. --trace 1 alternates untraced and traced executions and
reports the per-layer metrics instead of the end-to-end ones. The last
line of standard output is {"correct", "attempted", "failed", "metrics"};
the full record, with every check and span, goes to .sedbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".sedbench"
WORKLOADS = ("sed-ground", "sed-quartic", "ou-calibration")
SETUP_SAMPLES = 5
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
RUN_TIMEOUT = 170.0


def spawn(args, tmp: Path, k: int, traced: bool, setup_only: bool):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--execution", str(k), "--trace", str(int(traced)),
           "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **THREADS}
    env.pop("PYTHONPATH", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    return proc, t0


def finish(proc, t0: float, deadline: float):
    """(set-up seconds, last stdout line) of a worker; kills it on timeout."""
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if first.strip() != "READY":
            raise RuntimeError(f"worker did not get ready: {first.strip()!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, (lines[-1] if lines else "")


def median(records, key):
    """Median over the executions that report key; 0 if none did (every
    one of them failed, and the run says so)."""
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    missing = [p for p in ("src/sedsim/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a sedsim source tree (missing "
              f"{', '.join(missing)})", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    deadline = time.perf_counter() + RUN_TIMEOUT
    execs, setups = [], []
    try:
        while True:
            k = len(execs)
            traced = bool(args.trace) and k % 2 == 1
            setup, line = finish(*spawn(args, tmp, k, traced, False), deadline)
            setups.append(setup)
            execs.append(json.loads(line))
            if (sum(e["wall_s"] for e in execs) >= args.seconds
                    and (not args.trace or traced)):
                break
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(finish(*spawn(args, tmp, 0, False, True), deadline)[0])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [e for e in execs if not e["traced"]]
    if args.trace:
        traced = [e for e in execs if e["traced"]]
        layers = [e["layers"] for e in traced if "layers" in e]
        metrics = {name: (statistics.mean(lay[name][0] for lay in layers), unit)
                   for name, (_, unit) in (layers[0].items() if layers else ())}
        metrics["trace.overhead_s"] = (median(traced, "wall_s")
                                       - median(plain, "wall_s"), "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (median(plain, "wall_s"), "s"),
            "peak_rss_mb": (median(plain, "peak_rss_mb"), "MB"),
            "artifact_mb": (median(plain, "artifact_mb"), "MB"),
        }
    failed = sum(not e["passed"] for e in execs)

    results = SCRATCH / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"setup_s": setups, "executions": execs},
                              indent=1) + "\n")

    for ex in execs:
        print(f"execution {ex['execution']} (master_seed {ex['master_seed']}"
              f"{', traced' if ex['traced'] else ''}): {ex['wall_s']:.3f} s, "
              f"{'ok' if ex['passed'] else 'FAILED'}")
        for c in ex["checks"]:
            print(f"  {'pass' if c['passed'] else 'FAIL'}  {c['check']}: "
                  f"{c['value']:.4g} (limit {c['limit']:.4g})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"threads: {execs[0]['threads']}; full record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(execs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
