"""Ensemble simulations of charged particles in a fluctuating vacuum field,
coarse-grained kinematic estimators, and wave-equation reference solutions.

Layers, bottom up:

- field: band-limited spectral synthesis of the random driving field.
- dynamics: reduced-order trajectory integration, energy bookkeeping.
- kinematics: binned conditional-expectation estimators (v, u, v_a, D) and
  the branch-sign residual classifier.
- schrodinger: stationary and time-dependent grid reference solutions.
- reference: exact samplers and closed-form expectations for validation.
- harness / cli: declarative configs, registered pipelines, comparison
  reports, plot-data emission, physical-constants calculator.
"""

from ._version import __version__
from .config import ConfigError, load_config, validate_config
from .constants import (ConstantsError, PhysicalConstants, load_constants,
                        transition_time, transition_time_from)
from .dynamics import (DeltaIC, EnergyBalanceReport, GaussianIC,
                       IntegrationError, ParticleSpec, Potential,
                       TrajectoryEnsemble, comb_time_grid, dump_ensemble,
                       energy_balance, free_potential, harmonic_potential,
                       integrate_ensemble, load_blocks, load_ensemble,
                       quartic_potential, relaxation_curve,
                       stationary_guess_ic)
from .field import (FieldRealization, FieldSpec, autocorrelation_check,
                    autocovariance, autocovariance_quad, eval_field,
                    make_field, mode_table, spectral_density)
from .harness import (ComparisonReport, PipelineError, ReportRow, RunResult,
                      emit_plot_data, load_report, run_experiment)
from .kinematics import (BinnedField, BranchReport, CoarseGrainSpec,
                         DiffusionEstimate, DiffusionSweep, KinematicsError,
                         ResidualReport, SampleSet, VaEstimate, classify_branch,
                         density_estimate, diffusion_sweep, estimate_u,
                         estimate_v, estimate_va)
from .schrodinger import (GridError, GridSpec, WaveFunctionState,
                          energy_expectation, evolve, gaussian_packet,
                          navier_stokes_residual, plane_wave,
                          quantum_potential, residual_norms,
                          solve_stationary, velocity_fields)

__all__ = [name for name in dir() if not name.startswith("_")]
