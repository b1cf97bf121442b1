"""Fixtures shared across test modules."""

from pathlib import Path

import pytest

from sedsim.harness import run_experiment

OU_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ou_calibration.json"


@pytest.fixture(scope="session")
def ou_run(tmp_path_factory):
    """The shipped calibration config at full size, run once per session;
    its tests read the run directory and change nothing in it."""
    return run_experiment(OU_CONFIG, output_root=tmp_path_factory.mktemp("ou"))
