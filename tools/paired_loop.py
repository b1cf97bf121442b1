"""Paired timings of the RK4 step loop in two source trees.

    python3 tools/paired_loop.py TREE_A TREE_B [N] [--traj T] [--chunk W]

Runs integrate_ensemble on sedbench's quartic parameters (QUARTIC_CONFIG in
sedbench/workloads.py: 512 trajectories of V = x^4/4 over 3,000 time
units at record stride 9) N times (default 5) in each tree, alternating
which tree goes first, each run in a fresh process with PYTHONPATH=TREE/src
and OpenBLAS, OpenMP and MKL at one thread. --traj sets the trajectory
count and --chunk the step loop's width (dynamics.CHUNK) in both trees.
Prints, per tree, the median, min and max over its runs of the ns per
trajectory-step of the integrate_ensemble call (field synthesis included)
and of the process's maxrss (MiB), and whether the two trees' positions,
velocities, field values and status hashed the same. Last, for each of
the two metrics, each tree's interquartile range as a percentage of its
median and in how many alternating pairs (run k of each tree) TREE_B read
lower than TREE_A, ties counting for neither.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}

CHILD = """
import hashlib, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from sedbench.workloads import QUARTIC_CONFIG as cfg, quartic_specs
from sedsim import dynamics
n_traj, chunk = int(sys.argv[2]), int(sys.argv[3])
if chunk:
    dynamics.CHUNK = chunk
fspec, particle = quartic_specs(cfg)
t, ic = cfg["time"], cfg["ensemble"]["initial_conditions"]
dt, n_steps, _ = dynamics.comb_time_grid(fspec, t["dt"], t["t_final"])
start = time.perf_counter()
ens = dynamics.integrate_ensemble(
    particle, fspec, dynamics.DeltaIC(ic["x0"], ic["v0"]), 0.0, dt, n_steps,
    n_traj, 1, record_stride=t["record_stride"])
elapsed = time.perf_counter() - start
digest = hashlib.sha256()
for a in (ens.positions, ens.velocities, ens.field_values, ens.status):
    digest.update(a.tobytes())
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"ns": 1e9 * elapsed / (n_traj * n_steps),
                  "maxrss_mib": maxrss / 1024, "sha256": digest.hexdigest()}))
"""


def run_once(tree: Path, n_traj: int, chunk: int) -> dict:
    env = {**os.environ, **THREADS, "PYTHONPATH": str(tree / "src")}
    run = subprocess.run([sys.executable, "-c", CHILD, str(tree), str(n_traj),
                          str(chunk)], env=env, capture_output=True, text=True)
    if run.returncode:
        raise RuntimeError(f"{tree}: exit status {run.returncode}\n"
                           f"{run.stderr}")
    return json.loads(run.stdout)


def pair_lines(runs: list, keys) -> list:
    """For each key the runs of both trees hold, a line with each tree's
    interquartile range as a percentage of its median (linear quartiles,
    as numpy's percentile) and the pairs, run k of each tree, in which the
    second tree read lower and in which the two tied. runs holds (tree,
    runs) for the first tree and then the second."""
    (a, ra), (b, rb) = runs
    lines = [f"second tree {b} against first tree {a}:"]
    for key in keys:
        pairs = [(x[key], y[key]) for x, y in zip(ra, rb) if key in x and key in y]
        if len(pairs) < 2:              # no quartiles of one run
            continue
        iqr = []
        for values in zip(*pairs):
            q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
            iqr.append(f"{100 * (q3 - q1) / q2:.1f} %")
        lower = sum(y < x for x, y in pairs)
        tied = sum(y == x for x, y in pairs)
        lines.append(f"  {key:<16}iqr/median {iqr[0]} first, {iqr[1]} second;"
                     f" second lower in {lower}, tied in {tied} of "
                     f"{len(pairs)} pairs")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs=2, type=Path)
    ap.add_argument("n", nargs="?", type=int, default=5)
    ap.add_argument("--traj", type=int, default=512)
    ap.add_argument("--chunk", type=int, default=0)
    args = ap.parse_args()
    trees = [t.resolve() for t in args.trees]
    runs = [(tree, []) for tree in trees]     # by position: a tree may repeat
    for k in range(args.n):
        for tree, rs in (runs if k % 2 == 0 else runs[::-1]):
            rs.append(run_once(tree, args.traj, args.chunk))
    for tree, rs in runs:
        print(f"{tree}: {args.n} runs, {args.traj} trajectories, "
              f"chunk {args.chunk or 'default'}")
        for key in ("ns", "maxrss_mib"):
            values = [r[key] for r in rs]
            print(f"  {key:<12}median {statistics.median(values):.4g}"
                  f"  (min {min(values):.4g}, max {max(values):.4g})")
    hashes = {r["sha256"] for _, rs in runs for r in rs}
    print(f"outputs identical across trees and runs: {len(hashes) == 1}")
    print("\n".join(pair_lines(runs, ("ns", "maxrss_mib"))))


if __name__ == "__main__":
    main()
