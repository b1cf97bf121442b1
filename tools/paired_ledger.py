"""Paired stage ledgers of one config's `sedsim run` in two source trees.

    python3 tools/paired_ledger.py CONFIG TREE_A TREE_B [N]

Runs the config N times (default 5) in each tree, alternating which tree
goes first, each run in a fresh process with PYTHONPATH=TREE/src and
OpenBLAS, OpenMP and MKL at one thread. Prints, per tree, the median over
its runs of each stage's wall_s, peak_rss_mb, rss_mb and minor_faults from
run.json ("-" where a tree's run.json has no minor_faults), the stage whose
median peak rise is largest, with that rise: its median peak_rss_mb less
the median rss_mb of the stage before it, the RSS it started from. Only a
stage that raised the median peak_rss_mb counts, since the high-water mark
hides the rise of one that did not. Then the median, min and max of
wall_seconds, of the process's wall time from spawn to exit
(process_wall_s, which adds the imports and the writes that wall_seconds
does not time), and of its maxrss (MiB) and minor page faults.
Last, for each of those whole-run metrics, each tree's interquartile range
as a percentage of its median and in how many alternating pairs (run k of
each tree) TREE_B read lower than TREE_A, ties counting for neither.
Run directories go to a temporary directory, deleted after each run.
"""

import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from paired_loop import pair_lines

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
SUMMARY = ("wall_seconds", "process_wall_s", "maxrss_mib", "minflt", "n_chunks")


def run_once(config: Path, tree: Path) -> dict:
    """run.json of one run, with the process's wall time from spawn to
    exit, maxrss and minor faults."""
    out = Path(tempfile.mkdtemp(prefix="paired_ledger_"))
    try:
        env = {**os.environ, **THREADS, "PYTHONPATH": str(tree / "src"),
               "SEDSIM_OUTPUT_ROOT": str(out)}
        quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0)
                 for fd in (1, 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "sedsim.cli",
                                              "run", str(config)],
                             env, file_actions=quiet)
        _, status, usage = os.wait4(pid, 0)
        process_wall_s = time.perf_counter() - start
        run_dir = out / json.loads(config.read_text())["outputs"]["directory"]
        run = json.loads((run_dir / "run.json").read_text())
        if "failed_stage" in run:
            raise RuntimeError(f"{tree}: stage {run['failed_stage']} failed: "
                               f"{run['error']}")
        run.update(process_wall_s=process_wall_s,
                   maxrss_mib=usage.ru_maxrss / 1024, minflt=usage.ru_minflt,
                   exit_status=os.waitstatus_to_exitcode(status))
        return run
    finally:
        shutil.rmtree(out)


def main(argv):
    config, *trees = (Path(a).resolve() for a in argv[1:4])
    n = int(argv[4]) if len(argv) > 4 else 5
    runs = [(tree, []) for tree in trees]     # by position: a tree may repeat
    for k in range(n):
        for tree, rs in (runs if k % 2 == 0 else runs[::-1]):
            rs.append(run_once(config, tree))
    for tree, rs in runs:
        print(f"{tree}: {n} runs, exit statuses {sorted({r['exit_status'] for r in rs})}")
        print(f"  {'stage':<24}{'wall_s':>9}{'peak_rss_mb':>13}{'rss_mb':>9}"
              f"{'minor_faults':>14}")
        rises, rss_before, peak_before = {}, None, 0.0
        for name in [st["name"] for st in rs[0]["stages"]]:
            stages = [next(st for st in r["stages"] if st["name"] == name)
                      for r in rs]
            med = [statistics.median(st[key] for st in stages)
                   for key in ("wall_s", "peak_rss_mb", "rss_mb")]
            faults = [st.get("minor_faults") for st in stages]
            faults = "-" if None in faults else f"{statistics.median(faults):.0f}"
            print(f"  {name:<24}{med[0]:>9.3f}{med[1]:>13.1f}{med[2]:>9.1f}"
                  f"{faults:>14}")
            if rss_before is not None and med[1] > peak_before:
                rises[name] = med[1] - rss_before
            rss_before, peak_before = med[2], med[1]
        top = max(rises, key=rises.get, default=None)
        if top is not None:
            print(f"  largest median peak rise: {rises[top]:.1f} MiB in {top}")
        for key in SUMMARY:
            values = [r[key] for r in rs if key in r]
            if values:
                print(f"  {key:<24}median {statistics.median(values):.4g}"
                      f"  (min {min(values):.4g}, max {max(values):.4g})")
    print("\n".join(pair_lines(runs, SUMMARY)))


if __name__ == "__main__":
    main(sys.argv)
