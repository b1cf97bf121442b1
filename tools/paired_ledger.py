"""Paired stage ledgers of one config's `sedsim run` in two source trees.

    python3 tools/paired_ledger.py CONFIG TREE_A TREE_B [N]

Runs the config N times (default 5) in each tree, alternating which tree
goes first, each run in a fresh process with PYTHONPATH=TREE/src and
OpenBLAS, OpenMP and MKL at one thread. Prints, per tree, the median over
its runs of each stage's wall_s, peak_rss_mb and rss_mb from run.json, and
the median, min and max of wall_seconds, of the process's wall time from
spawn to exit (process_wall_s, which adds the imports and the writes that
wall_seconds does not time), and of its maxrss (MiB) and minor page faults.
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

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}


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
    runs = {tree: [] for tree in trees}
    for k in range(n):
        for tree in (trees if k % 2 == 0 else trees[::-1]):
            runs[tree].append(run_once(config, tree))
    for tree, rs in runs.items():
        print(f"{tree}: {n} runs, exit statuses {sorted({r['exit_status'] for r in rs})}")
        print(f"  {'stage':<24}{'wall_s':>9}{'peak_rss_mb':>13}{'rss_mb':>9}")
        for name in [st["name"] for st in rs[0]["stages"]]:
            stages = [next(st for st in r["stages"] if st["name"] == name)
                      for r in rs]
            med = [statistics.median(st[key] for st in stages)
                   for key in ("wall_s", "peak_rss_mb", "rss_mb")]
            print(f"  {name:<24}{med[0]:>9.3f}{med[1]:>13.1f}{med[2]:>9.1f}")
        for key in ("wall_seconds", "process_wall_s", "maxrss_mib", "minflt",
                    "n_chunks"):
            values = [r[key] for r in rs if key in r]
            if values:
                print(f"  {key:<24}median {statistics.median(values):.4g}"
                      f"  (min {min(values):.4g}, max {max(values):.4g})")


if __name__ == "__main__":
    main(sys.argv)
