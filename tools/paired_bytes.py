"""Byte-for-byte comparison of the shipped configs' artifacts in two trees.

    python3 tools/paired_bytes.py TREE_A TREE_B

For every config under TREE_A/configs, runs `sedsim run` on that config
and then `sedsim plot` on its run directory, once in each tree: each in a
fresh process with PYTHONPATH=TREE/src and OpenBLAS, OpenMP and MKL at one
thread. Each tree runs its own copy of the config, at the master_seed it
ships with. Then runs configs/ou_calibration.json with
outputs.ensemble_dump "none" the same way, whose relaxing dump is
temporary, and counts as a difference any directory its run directory
holds but fields/ and plots/. Then runs sedbench's sed-quartic execution
(workloads.Quartic().execute, the library route through estimate_v ...
classify_branch) at master_seed QUARTIC_SEED the same way, each tree with
its own sedbench. Lists, per config and for that execution, the artifacts
whose bytes differ or that only one tree wrote, and the exit statuses;
for a differing JSON artifact of the same structure in both trees, whose
strings, booleans and nulls agree, the largest relative deviation among
its numbers and, one line each, every number that moved: its key path,
its value in each tree and its relative deviation. run.json, which holds
wall times, is left out. Last, prints the source size of each tree as
`wc -l src/sedsim/*.py` counts it: the newlines of each file and their
total. Exits 1 on any difference, including a
differing exit status, and 0 when every artifact matches. Run directories
go to a temporary directory, deleted after each comparison.
"""

import filecmp
import json
import math
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


def json_moves(a: Path, b: Path):
    """The numbers that differ between the JSON files a and b, as (key
    path, value in a, value in b, relative deviation |x - y| / max(|x|,
    |y|)) in document order (NaN against NaN counts as equal), or None
    unless both exist and are JSON of the same structure whose other values
    agree."""
    try:
        docs = [json.loads(p.read_text()) for p in (a, b)]
    except (OSError, ValueError):       # ValueError: UnicodeDecodeError too
        return None
    moves = []

    def walk(x, y, path):
        if isinstance(x, dict) and isinstance(y, dict):
            return x.keys() == y.keys() and all(
                walk(x[k], y[k], f"{path}.{k}" if path else k) for k in x)
        if isinstance(x, list) and isinstance(y, list):
            return len(x) == len(y) and all(
                walk(u, v, f"{path}[{i}]") for i, (u, v) in enumerate(zip(x, y)))
        numbers = [isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (x, y)]
        if not all(numbers):
            return not any(numbers) and x == y
        both_nan = all(isinstance(v, float) and math.isnan(v) for v in (x, y))
        if not (x == y or both_nan):
            moves.append((path, x, y, abs(x - y) / max(abs(x), abs(y))))
        return True

    return moves if walk(*docs, "") else None


def run_without_dump(tree: Path, root: Path):
    """(exit statuses, run directory) of the tree's ou_calibration.json
    with outputs.ensemble_dump "none", its copy written under root."""
    cfg = json.loads((tree / "configs" / "ou_calibration.json").read_text())
    cfg["outputs"]["ensemble_dump"] = "none"
    root.mkdir(parents=True)
    config = root / "ou_calibration_none.json"
    config.write_text(json.dumps(cfg))
    return run(tree, config, root)


def leftover_directories(run_dir: Path) -> int:
    """Print and count the directories under run_dir but fields/ and
    plots/."""
    extra = sorted(p.name for p in run_dir.glob("*")
                   if p.is_dir() and p.name not in ("fields", "plots"))
    if extra:
        print(f"  leftover directories in {run_dir.name}: {extra}")
    return len(extra)


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
        moves = (json_moves(dir_a / rel, dir_b / rel)
                 if rel.suffix == ".json" else None)
        dev = "" if moves is None else (
            f", numbers by at most "
            f"{max((m[3] for m in moves), default=0.0):.2g} relative")
        print(f"  differs: {rel}{dev}")
        for path, x, y, d in moves or ():
            print(f"    moved: {path}: {x!r} -> {y!r} ({d:.2g} relative)")
    for run_dir in (dir_a, dir_b):
        shutil.rmtree(run_dir, ignore_errors=True)
    return len(differ) + (status_a != status_b)


def print_line_counts(trees) -> None:
    """Print wc -l src/sedsim/*.py of each tree, file by file."""
    counts = [{p.name: p.read_bytes().count(b"\n")
               for p in sorted((tree / "src" / "sedsim").glob("*.py"))}
              for tree in trees]
    print("wc -l src/sedsim/*.py:")
    for name in sorted(set(counts[0]) | set(counts[1])):
        print(f"  {name:<16} " + "  ".join(f"{c.get(name, 0):>6}"
                                           for c in counts))
    print(f"  {'total':<16} " + "  ".join(f"{sum(c.values()):>6}"
                                         for c in counts))


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
        results = [run_without_dump(tree, Path(tmp) / name / "ou_none")
                   for tree, name in zip(trees, ("a", "b"))]
        n_differ += sum(leftover_directories(d) for _, d in results)
        n_differ += compare("ou_calibration.json, ensemble_dump none "
                            "(run, plot)", results)
        n_differ += compare("sed-quartic execution", [
            run_quartic(tree, Path(tmp) / name / "quartic")
            for tree, name in zip(trees, ("a", "b"))])
    print_line_counts(trees)
    return 1 if n_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
