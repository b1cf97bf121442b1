"""Command-line entry point.

Subcommands:
    run <config-path>                     execute a pipeline from a config
    report <run-dir>                      re-render a stored comparison report
                                          and print its stage ledger
    plot <run-dir>                        emit gnuplot data/script pairs
    constants transition-time             (alpha * omega_C)^-1 for a particle

Exit codes: 0 all tolerances pass, 1 tolerance failure or pipeline failure,
2 config/IO errors. SEDSIM_OUTPUT_ROOT overrides the parent directory under
which outputs.directory is created. `run` writes a progress line to stderr
each time the finished trajectories reach or pass a multiple of 512, and
when the last one is done: on the step loop, whose chunks are 512 wide,
one line per chunk; on the response path, whose chunks are 64 wide, one
line per 8 chunks.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError
from .constants import ConstantsError, load_constants, transition_time
from .harness import (PipelineError, emit_plot_data, load_report,
                      run_experiment, stage_ledger_text)

OUTPUT_ROOT_ENV = "SEDSIM_OUTPUT_ROOT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sedsim",
        description="Ensemble simulations of field-driven particle motion "
                    "with coarse-grained estimators and wave-equation "
                    "references.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a pipeline from a config file")
    p_run.add_argument("config", help="path to a JSON config")

    p_rep = sub.add_parser("report", help="print the report of a finished run")
    p_rep.add_argument("run_dir", help="run directory")

    p_plot = sub.add_parser("plot", help="emit plot data for a finished run")
    p_plot.add_argument("run_dir", help="run directory")

    p_const = sub.add_parser("constants", help="physical-constants calculator")
    const_sub = p_const.add_subparsers(dest="calculation", required=True)
    p_tt = const_sub.add_parser(
        "transition-time",
        help="(alpha * omega_Compton)^-1 in seconds for a named particle")
    p_tt.add_argument("--particle", default="electron")
    p_tt.add_argument("--constants", default=None,
                      help="alternative constants JSON file")
    return parser


# finished trajectories per progress line of `run`
_PROGRESS_EVERY = 512


class _Progress:
    """run_experiment's per-chunk progress for one run: a line each time
    the finished trajectories reach or pass a multiple of _PROGRESS_EVERY,
    and one when the last is done."""

    def __init__(self):
        self.shown = 0

    def __call__(self, done: int, total: int) -> None:
        passed = done // _PROGRESS_EVERY > self.shown // _PROGRESS_EVERY
        if passed or done == total:
            self.shown = done
            sys.stderr.write(f"integrate: {done}/{total} trajectories\n")
            sys.stderr.flush()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            result = run_experiment(args.config,
                                    output_root=os.environ.get(OUTPUT_ROOT_ENV),
                                    progress=_Progress())
            sys.stdout.write(result.report.to_text())
            sys.stdout.write(f"run directory: {result.run_dir}\n")
            return result.exit_code
        if args.command == "report":
            report = load_report(args.run_dir)
            sys.stdout.write(report.to_text())
            sys.stdout.write(stage_ledger_text(args.run_dir))
            return report.exit_code
        if args.command == "plot":
            for path in emit_plot_data(args.run_dir):
                sys.stdout.write(f"{path}\n")
            return 0
        if args.command == "constants":
            pc = load_constants(args.constants)
            value = transition_time(args.particle, pc)
            sys.stdout.write(f"{value!r}\n")
            return 0
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except ConstantsError as exc:
        sys.stderr.write(f"constants error: {exc}\n")
        return 2
    except PipelineError as exc:
        msg = str(exc)
        if msg.startswith("missing artifact"):
            sys.stderr.write(f"{msg}\n")
            return 2
        sys.stderr.write(f"pipeline error: {msg}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
