"""The lines of src/sedsim that the shipped workloads never reach.

    python3 tools/reach.py

Runs every shipped config under configs/ through harness.run_experiment
and sedbench's sed-quartic execution (workloads.Quartic().execute, the
library route) at master_seed QUARTIC_SEED, each in its own temporary
directory, in this process under the standard library's trace module with
counting only. sedsim is first imported under the trace, so its
module-level lines count as reached. Then prints, for each
src/sedsim/*.py, the executable lines (those python -m trace --missing
would list) that no run reached, as ranges of line numbers, and last a
count per module. Writes nothing under the repository. Takes about 12 s
on a 2-core x86_64 host.
"""

import json
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "sedsim"
QUARTIC_SEED = 2201


def run_workloads() -> None:
    """Both shipped configs and the sed-quartic execution, each in a
    temporary directory."""
    from sedsim import harness
    import workloads

    for config in sorted((ROOT / "configs").glob("*.json")):
        with tempfile.TemporaryDirectory() as tmp:
            result = harness.run_experiment(config, output_root=tmp)
            print(f"{config.name}: exit code {result.exit_code}",
                  file=sys.stderr)
    quartic = workloads.Quartic()
    cfg = quartic.config(0, 0)
    cfg["seeds"]["master_seed"] = QUARTIC_SEED
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "quartic.json"
        path.write_text(json.dumps(cfg))
        quartic.execute(path, Path(tmp))
        print("sed-quartic: done", file=sys.stderr)


def ranges(lines) -> str:
    """Sorted line numbers as comma-separated ranges, e.g. 3-5, 9."""
    spans = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "sedbench")]
    # every frame is traced: trace's ignoredirs caches its verdict by bare
    # module name, so an ignored stdlib __init__ would hide sedsim's
    tracer = trace.Trace(count=1, trace=0)
    tracer.runctx("run_workloads()", globals())
    reached = {}
    for (filename, line) in tracer.results().counts:
        reached.setdefault(str(Path(filename).resolve()), set()).add(line)
    totals = []
    for path in sorted(SOURCES.glob("*.py")):
        # line 0 is the module's entry, which no line event reports
        executable = set(trace._find_executable_linenos(str(path))) - {0}
        missed = sorted(executable - reached.get(str(path.resolve()), set()))
        totals.append((path.name, len(missed), len(executable)))
        print(f"{path.name}: {ranges(missed) or 'none'}")
    print("unreached / executable lines per module:")
    for name, missed, executable in totals:
        print(f"  {name:<16} {missed:>5} / {executable}")
    print(f"  {'total':<16} {sum(t[1] for t in totals):>5} / "
          f"{sum(t[2] for t in totals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
