"""Show that the benchmark's checks can fail.

    python3 sedbench/negative.py [--seed 1] [--workload sed-quartic ...]

For each workload, executes one pipeline, runs the checks on its artifacts
(they must pass), then feeds the same checks perturbed copies of the dumped
ensemble: positions scaled by 1.05, and on the SED workloads the stored
field shifted by one recorded step. Each perturbation must be rejected.
Prints every check's value against its limit; exits 1 if a perturbation
passes or the unperturbed execution fails. Writes only under .sedbench/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import worker
import workloads

SCRATCH = worker.ROOT / ".sedbench"


def scale_positions(ens_dir):
    x = np.load(ens_dir / "positions.npy")
    np.save(ens_dir / "positions.npy", 1.05 * x)


def shift_field(ens_dir):
    e = np.load(ens_dir / "field_values.npy")
    shifted = np.empty_like(e)
    shifted[:, 1:] = e[:, :-1]
    shifted[:, 0] = e[:, 0]
    np.save(ens_dir / "field_values.npy", shifted)


PERTURBATIONS = {"positions x 1.05": scale_positions,
                 "field shifted one step": shift_field}


def report(label, results) -> bool:
    ok = all(r["passed"] for r in results)
    print(f"  {label}: {'accepted' if ok else 'rejected'}")
    for r in results:
        print(f"    {'pass' if r['passed'] else 'FAIL'}  {r['check']}: "
              f"{r['value']:.4g} (limit {r['limit']:.4g})")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS),
                    choices=list(workloads.WORKLOADS))
    args = ap.parse_args()
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="negative-", dir=SCRATCH))
    bad = []
    try:
        for name in args.workload:
            wl = workloads.WORKLOADS[name]()
            cfg = wl.config(args.seed, 0)
            cfg_path = tmp / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            info = wl.execute(cfg_path, tmp / name)
            ens_dir = Path(info["run_dir"]) / "ensemble"
            backup = tmp / f"{name}-ensemble"
            shutil.copytree(ens_dir, backup)
            print(f"{name} (master_seed {cfg['seeds']['master_seed']})")
            seed_k = (args.seed, 0)
            if not report("unperturbed", worker.run_checks(name, cfg, info, seed_k)):
                bad.append(f"{name}: unperturbed execution rejected")
            for label, perturb in PERTURBATIONS.items():
                if label.startswith("field") and name == "ou-calibration":
                    continue
                perturb(ens_dir)
                if report(label, worker.run_checks(name, cfg, info, seed_k)):
                    bad.append(f"{name}: {label} accepted")
                shutil.rmtree(ens_dir)
                shutil.copytree(backup, ens_dir)
            shutil.rmtree(tmp / name)
            shutil.rmtree(backup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in bad:
        print(f"error: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
