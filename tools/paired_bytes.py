"""Byte-for-byte comparison of the shipped configs' artifacts in two trees.

    python3 tools/paired_bytes.py TREE_A TREE_B

For every config under TREE_A/configs, runs `sedsim run` on that config
and then `sedsim plot` on its run directory, once in each tree: each in a
fresh process with PYTHONPATH=TREE/src and OpenBLAS, OpenMP and MKL at one
thread. Each tree runs its own copy of the config, at the master_seed it
ships with. Then runs sedbench's sed-quartic execution
(workloads.Quartic().execute, the library route through estimate_v ...
classify_branch) at master_seed QUARTIC_SEED the same way, each tree with
its own sedbench. Lists, per config and for that execution, the artifacts
whose bytes differ or that only one tree wrote, and the exit statuses.
run.json, which holds wall times, is left out. Exits 1 on any difference,
including a differing exit status, and 0 when every artifact matches. Run
directories go to a temporary directory, deleted after each comparison.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
QUARTIC_SEED = 2201


def run(tree: Path, config: Path, root: Path):
    """(exit statuses of run and plot, run directory) of one config."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(tree / "src"),
           "SEDSIM_OUTPUT_ROOT": str(root)}
    cli = [sys.executable, "-m", "sedsim.cli"]
    run_dir = root / json.loads(config.read_text())["outputs"]["directory"]
    statuses = tuple(
        subprocess.run(cli + args, env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL).returncode
        for args in (["run", str(config)], ["plot", str(run_dir)]))
    return statuses, run_dir


def artifacts(run_dir: Path) -> set:
    """Every file under run_dir but its run.json, relative to run_dir."""
    return {p.relative_to(run_dir) for p in run_dir.rglob("*")
            if p.is_file() and p != run_dir / "run.json"}


def same(a: Path, b: Path) -> bool:
    return a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)


def run_quartic(tree: Path, root: Path):
    """(exit status, run directory) of the sed-quartic execution."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(tree / "src")}
    code = ("import json, sys; from pathlib import Path;"
            " sys.path.insert(0, sys.argv[1]); import workloads;"
            " w = workloads.Quartic(); cfg = w.config(0, 0);"
            " cfg['seeds']['master_seed'] = int(sys.argv[3]);"
            " root = Path(sys.argv[2]); root.mkdir(parents=True);"
            " path = root / 'quartic.json'; path.write_text(json.dumps(cfg));"
            " w.execute(path, root)")
    status = subprocess.run(
        [sys.executable, "-c", code, str(tree / "sedbench"), str(root),
         str(QUARTIC_SEED)], env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode
    return (status,), root / "runs" / "sed_quartic"


def compare(label: str, results) -> int:
    """Print and count the differences of two (statuses, run directory)
    results; delete the run directories."""
    (status_a, dir_a), (status_b, dir_b) = results
    names = artifacts(dir_a) | artifacts(dir_b)
    differ = sorted(rel for rel in names if not same(dir_a / rel, dir_b / rel))
    print(f"{label}: {len(names)} artifacts, {len(differ)} differ; exit "
          f"statuses {status_a} and {status_b}")
    for rel in differ:
        print(f"  differs: {rel}")
    for run_dir in (dir_a, dir_b):
        shutil.rmtree(run_dir, ignore_errors=True)
    return len(differ) + (status_a != status_b)


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv[1:]]
    n_differ = 0
    with tempfile.TemporaryDirectory(prefix="paired_bytes_") as tmp:
        for config in sorted((trees[0] / "configs").glob("*.json")):
            roots = [Path(tmp) / name / config.stem for name in ("a", "b")]
            n_differ += compare(f"{config.name} (run, plot)", [
                run(tree, tree / "configs" / config.name, root)
                for tree, root in zip(trees, roots)])
        n_differ += compare("sed-quartic execution", [
            run_quartic(tree, Path(tmp) / name / "quartic")
            for tree, name in zip(trees, ("a", "b"))])
    return 1 if n_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
