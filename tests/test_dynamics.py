"""Trajectory integrator tests.

Deterministic checks run with a zero-amplitude field (hbar=0) where the
equation of motion has closed-form solutions; the driven run is compared
against the discrete linear-response prediction frozen below.
"""

import json
import math
import threading
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sedsim.dynamics import (
    CHUNK,
    RESPONSE_CHUNK,
    ROW_BLOCK,
    STATUS_NONFINITE,
    STATUS_OK,
    BalanceSums,
    ColumnStore,
    DeltaIC,
    EnergySums,
    EnsembleWriter,
    GaussianIC,
    IntegrationError,
    ParticleSpec,
    TrajectoryEnsemble,
    comb_time_grid,
    dump_ensemble,
    energy_balance,
    free_potential,
    harmonic_potential,
    integrate_ensemble,
    integrate_stream,
    load_blocks,
    load_ensemble,
    quartic_potential,
    relaxation_curve,
    stationary_guess_ic,
    window_columns,
)
import sedsim.dynamics
import sedsim.field
import sedsim.reference
from sedsim.config import dumps_config
from sedsim.field import (CombPlan, FieldSpec, comb_cache_params,
                          comb_sum_slabs, conv_length, eval_field, make_field,
                          mode_table)
from sedsim.reference import harmonic_response, harmonic_trajectory

SED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "sed_harmonic_ground.json"

# Stationary moments of the driven harmonic oscillator for the exact comb
# below (omega in [0.02, 2], 512 modes, uniform spacing, hbar = m = c = 1,
# tau = 1e-2), summed mode by mode from the linear response amplitudes with
# mpmath at 30 digits.
X_VAR_ORACLE = 0.499860594579482048622
E_ORACLE = 0.503881299611904221101

ZERO_FIELD = FieldSpec(omega_cutoff=2.0, n_modes=4, hbar=0.0)


def shipped_field_and_step():
    """Field spec and configured dt, t0 and t_final of the shipped harmonic
    config."""
    cfg = json.loads(SED_CONFIG.read_text())
    f, t = cfg["field"], cfg["time"]
    fspec = FieldSpec(hbar=f["hbar"], c=f["c"], omega_cutoff=f["omega_cutoff"],
                      omega_min=f["omega_min"], n_modes=f["n_modes"])
    return fspec, t["dt"], t.get("t0", 0.0), t["t_final"]


def harmonic_particle(tau: float = 0.0) -> ParticleSpec:
    return ParticleSpec(mass=1.0, charge=0.0, tau=tau,
                        potential=harmonic_potential(1.0, 1.0))


def shipped_run_parameters(tau=None):
    """Field, particle, initial conditions and resolved step of the shipped
    harmonic config, optionally at another tau."""
    cfg = json.loads(SED_CONFIG.read_text())
    p = cfg["particle"]
    fspec, dt, t0, t_final = shipped_field_and_step()
    omega0 = p["potential"]["omega0"]
    particle = ParticleSpec.from_tau(p["mass"], p["tau"] if tau is None else tau,
                                     harmonic_potential(omega0, p["mass"]))
    dt, _, _ = comb_time_grid(fspec, dt, t_final - t0)
    ic = stationary_guess_ic(fspec.hbar, p["mass"], omega0)
    return fspec, particle, ic, dt, cfg["time"]["record_stride"]


def on_the_loop(particle: ParticleSpec) -> ParticleSpec:
    """The same forces under a potential kind the response path does not
    claim, so integrate_ensemble steps them through the RK4 loop."""
    return replace(particle, potential=replace(particle.potential,
                                               kind="harmonic-on-the-loop"))


def shipped_sigma_x(fspec, particle) -> float:
    omega0 = particle.potential.params["omega0"]
    return math.sqrt(harmonic_response(fspec, particle.mass, particle.charge,
                                       particle.tau, omega0).x_var)


@pytest.fixture(scope="module")
def sed_run():
    """Driven oscillator ensemble, started near the stationary state."""
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.02, n_modes=512)
    particle = ParticleSpec.from_tau(1.0, 1e-2, harmonic_potential(1.0, 1.0))
    ic = stationary_guess_ic(1.0, 1.0, 1.0)
    ens = integrate_ensemble(particle, fspec, ic, 0.0, 0.15, 334, 1200, 2024,
                             record_stride=2)
    return ens, particle


# ---------------------------------------------------------------------------
# closed-form trajectories

def test_free_particle_moves_linearly():
    particle = ParticleSpec(mass=1.0, charge=0.0, tau=0.0,
                            potential=free_potential())
    ens = integrate_ensemble(particle, ZERO_FIELD, DeltaIC(0.5, 0.3),
                             0.0, 0.1, 40, 1, 1)
    assert ens.meta["integrator"] == "rk4-loop"
    np.testing.assert_allclose(ens.positions[0], 0.5 + 0.3 * ens.times,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(ens.velocities[0], 0.3, rtol=0, atol=1e-12)


def test_undamped_oscillator_matches_cosine():
    ens = integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(1.0, 0.0),
                             0.0, 0.01, 1000, 1, 1)
    assert np.max(np.abs(ens.positions[0] - np.cos(ens.times))) <= 1e-8
    assert np.max(np.abs(ens.velocities[0] + np.sin(ens.times))) <= 1e-8


def test_energy_drift_shrinks_at_fourth_order():
    # classical fourth-order scheme: halving dt must cut the energy error
    # by 2^4 at least; the measured exponent on this problem is close to 5
    def drift(dt):
        ens = integrate_ensemble(harmonic_particle(), ZERO_FIELD,
                                 DeltaIC(1.0, 0.0), 0.0, dt,
                                 int(round(10.0 / dt)), 1, 1)
        energy = 0.5 * ens.velocities[0] ** 2 + 0.5 * ens.positions[0] ** 2
        return abs(float(energy[-1]) - 0.5)

    coarse, fine = drift(0.1), drift(0.05)
    assert fine <= 1e-6
    assert 16.0 <= coarse / fine <= 64.0


def test_radiation_damping_envelope():
    # with a quiet field the reduced-order equation is the classically
    # damped oscillator x'' + gamma x' + x = 0, gamma = tau * omega0^2
    tau = 0.01
    ens = integrate_ensemble(harmonic_particle(tau), ZERO_FIELD,
                             DeltaIC(1.0, 0.0), 0.0, 0.01, 1000, 1, 1)
    gamma = tau
    omega_d = math.sqrt(1.0 - gamma * gamma / 4.0)
    t = ens.times
    exact = np.exp(-gamma * t / 2.0) * (
        np.cos(omega_d * t) + (gamma / (2.0 * omega_d)) * np.sin(omega_d * t)
    )
    assert np.max(np.abs(ens.positions[0] - exact)) <= 1e-8


def test_rk4_follows_the_exact_comb_response():
    # the integrator's independent check: the closed-form trajectory of the
    # same field realization from the same start, at the shipped dt, tau and
    # band; RK4's phase drift reaches about 2.3 % of sigma_x by t = 2000
    fspec, particle, ic, dt, stride = shipped_run_parameters()
    n_steps = int(math.ceil(2000.0 / dt))
    ens = integrate_ensemble(particle, fspec, ic, 0.0, dt, n_steps, 4, 7,
                             record_stride=stride)
    sigma_x = shipped_sigma_x(fspec, particle)
    for i in range(4):
        x, v = harmonic_trajectory(make_field(fspec, (7, i, 0)), particle,
                                   ens.times, ens.positions[i, 0],
                                   ens.velocities[i, 0])
        assert np.max(np.abs(ens.positions[i] - x)) <= 0.05 * sigma_x
        assert np.max(np.abs(ens.velocities[i] - v)) <= 0.05 * sigma_x


def quartic_loop_deviation(dt_cfg: float, span: float):
    """RK4-loop quartic trajectories (k4 = 1, tau = 0.02, 96 modes on
    [0.1, 1.6], four trajectories from x = 1.5 at rest) against DOP853 at
    rtol 1e-11 driven by the direct mode sum eval_field, with the force
    written out here. Returns (max |dx| / sigma_x, the RK4 error estimate in
    the same unit, the resolved dt); sigma_x is the rms recorded position."""
    fspec = FieldSpec(omega_cutoff=1.6, omega_min=0.1, n_modes=96)
    k4, tau = 1.0, 0.02
    particle = ParticleSpec.from_tau(1.0, tau, quartic_potential(k4))
    dt, n_steps, _ = comb_time_grid(fspec, dt_cfg, span)
    ens = integrate_ensemble(particle, fspec, DeltaIC(1.5, 0.0), 0.0, dt,
                             n_steps, 4, 11)
    assert ens.meta["integrator"] == "rk4-loop"
    frs = [make_field(fspec, (11, i, 0)) for i in range(4)]
    charge = particle.charge

    def rhs(t, y):
        x, v = y[:4], y[4:]
        e = np.array([eval_field(fr, t)[0] for fr in frs])
        return np.concatenate((v, -k4 * x**3 - tau * 3.0 * k4 * x**2 * v
                               + charge * e))

    sol = solve_ivp(rhs, (0.0, ens.times[-1]),
                    np.concatenate((ens.positions[:, 0], ens.velocities[:, 0])),
                    method="DOP853", t_eval=ens.times, rtol=1e-11, atol=1e-12)
    assert sol.success
    sigma_x = math.sqrt(float(np.mean(np.square(ens.positions))))
    # RK4 advances x' = i w x with phase error (w dt)^5/120 per step, so an
    # orbit of amplitude A drifts by A T w^5 dt^4/120 over a span T; w is
    # the local frequency sqrt(3 k4) A at the largest |x| reached
    amp = float(np.max(np.abs(ens.positions)))
    w = math.sqrt(3.0 * k4) * amp
    estimate = amp * ens.times[-1] * w**5 * dt**4 / 120.0
    dev = float(np.max(np.abs(ens.positions - sol.y[:4])))
    return dev / sigma_x, estimate / sigma_x, dt


def test_rk4_loop_follows_dop853_on_the_quartic():
    # the loop path's independent check, at sedbench's quartic dt, tau and
    # band over 30 time units (about ten local periods), short enough that
    # the driven quartic's sensitivity to the start has not amplified the
    # truncation error: measured 0.0149 sigma_x against an estimate of
    # 0.030, and 0.00067 at half the step, a 22x drop for 1.98^4 = 15.5
    coarse, bound, dt = quartic_loop_deviation(0.13, 30.0)
    fine, fine_bound, dt_fine = quartic_loop_deviation(0.065, 30.0)
    assert coarse <= bound
    assert fine <= fine_bound
    # fourth order: the deviation is RK4's truncation, not a misplaced
    # field sample or force term, which would shrink at most linearly
    assert coarse / fine >= 0.5 * (dt / dt_fine) ** 4


@pytest.mark.parametrize("tau", [None, 1e-5])
def test_recurrence_matches_the_step_loop(tau):
    # shipped parameters, and tau 1e-5 with the filter's poles at radius
    # 1 - 1.4e-6, where direct-form rounding grows the most
    fspec, particle, ic, dt, stride = shipped_run_parameters(tau)
    args = (fspec, ic, 0.0, dt, 6000, 10, 5)
    fast = integrate_ensemble(particle, *args, record_stride=stride)
    loop = integrate_ensemble(on_the_loop(particle), *args, record_stride=stride)
    assert fast.meta["integrator"] == "rk4-response"
    assert loop.meta["integrator"] == "rk4-loop"
    sigma_x = shipped_sigma_x(fspec, particle)
    assert np.max(np.abs(fast.positions - loop.positions)) <= 1e-9 * sigma_x
    assert np.max(np.abs(fast.velocities - loop.velocities)) <= 1e-9 * sigma_x
    assert np.array_equal(fast.field_values, loop.field_values)
    assert np.array_equal(fast.status, loop.status)


def test_response_matches_the_step_loop_over_the_shipped_run():
    # all 50,063 steps of the shipped grid: the loop and the response
    # differ by rounding only, measured at most 3.2e-12 sigma_x
    fspec, particle, ic, dt, stride = shipped_run_parameters()
    _, n_steps, _ = comb_time_grid(fspec, dt, 10000.0)
    args = (fspec, ic, 0.0, dt, n_steps, 2, 5)
    fast = integrate_ensemble(particle, *args, record_stride=stride)
    loop = integrate_ensemble(on_the_loop(particle), *args, record_stride=stride)
    assert fast.n_steps == loop.n_steps == 50063
    sigma_x = shipped_sigma_x(fspec, particle)
    assert np.max(np.abs(fast.positions - loop.positions)) <= 1e-9 * sigma_x
    assert np.max(np.abs(fast.velocities - loop.velocities)) <= 1e-9 * sigma_x
    assert np.array_equal(fast.field_values, loop.field_values)


def held_beyond_output(particle, n_steps):
    """tracemalloc peak of integrate_ensemble on 64 trajectories of a
    64-mode comb at the shipped step, less its output arrays; the bound
    that peak keeps without a field table of the run; and the size of that
    table. The bound is a (64, n_points + 1) field array, a CombPlan's
    work array three times (a margin over the work array and the buffers
    of numpy's in-place products) and four copies of the chunk's mode
    coefficients, n_points the longest grid one plan fills: a
    slab on the step loop, the record grid on the response path."""
    fspec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=64)
    _, _, ic, dt, stride = shipped_run_parameters()
    tracemalloc.start()
    try:
        ens = integrate_ensemble(particle, fspec, ic, 0.0, dt, n_steps, 64, 5,
                                 record_stride=stride)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = ens.positions.nbytes + ens.velocities.nbytes + ens.field_values.nbytes
    n_points = (ens.times.size if ens.meta["integrator"] == "rk4-response"
                else min(sedsim.dynamics._slab_width(fspec.n_modes),
                         2 * n_steps))
    work = sedsim.field._SUM_BLOCK * 16 * conv_length(fspec.n_modes, n_points)
    bound = 64 * (n_points + 1) * 8 + 3 * work + 4 * 64 * fspec.n_modes * 16
    return peak - output, bound, 64 * (2 * n_steps + 1) * 8


def test_response_path_builds_no_field_table():
    # the longer run's bound holds at both run lengths, and the longer
    # run's half-step table would not fit under it: measured 0.37 and
    # 0.82 MB against a bound of 1.73 MB and a 4.10 MB table
    _, particle, _, _, _ = shipped_run_parameters()
    short, _, _ = held_beyond_output(particle, 1000)
    held, bound, table = held_beyond_output(particle, 4000)
    assert max(short, held) <= bound < table / 2


def test_step_loop_builds_no_field_table():
    # 64 modes give slabs of 96 half steps, 42 of them in the longer run,
    # two buffers of them held at a time: measured 0.41 and 0.44 MB against
    # a bound of 0.56 MB and a 2.05 MB table
    _, particle, _, _, _ = shipped_run_parameters()
    short, _, _ = held_beyond_output(on_the_loop(particle), 500)
    held, bound, table = held_beyond_output(on_the_loop(particle), 2000)
    assert max(short, held) <= bound < table / 2


@pytest.mark.parametrize("n_modes", [64, 512, 768, 4096])
def test_slab_width_fills_a_power_of_two_convolution(n_modes):
    # even, so a step's three half steps lie in one slab, and the widest
    # such slab whose double's convolution is the power of two at or above
    # 4 n_modes: the two slabs comb_sum_slabs keeps hold no more than one
    # slab of that double width plus one row
    width = sedsim.dynamics._slab_width(n_modes)
    power = 1 << (4 * n_modes - 1).bit_length()
    assert width >= 2 and width % 2 == 0
    assert conv_length(n_modes, 2 * width) == power
    assert conv_length(n_modes, 2 * (width + 2)) > power


def test_rule_slabs_are_the_mode_sum_across_seams():
    # sedbench's quartic comb in slabs of the rule's 1,664 half steps: two
    # whole slabs and a short last one of 344, streamed as the step loop
    # reads them, are eval_field's direct sum to the tolerance of
    # test_field.test_cached_grid_matches_direct_evaluation
    spec = FieldSpec(omega_cutoff=1.6, omega_min=0.1, n_modes=768)
    h, n_fft = comb_cache_params(spec, h_target=0.065)
    width = sedsim.dynamics._slab_width(768)
    assert width == 1664
    n_points = 2 * width + 345
    fr = make_field(spec, (11, 0, 0))
    slabs = [s.copy() for s in comb_sum_slabs(
        fr.amps * np.exp(1j * fr.phases), spec, n_fft, 2.5, n_points, width)]
    assert [len(s) for s in slabs] == [width + 1, width + 1, 345]
    streamed = np.concatenate([slabs[0]] + [s[1:] for s in slabs[1:]]).T
    direct = eval_field(fr, 2.5 + h * np.arange(n_points))
    assert np.max(np.abs(streamed - direct)) / np.max(np.abs(direct)) < 1e-12


def rk4_radius(omega0: float, tau: float, dt: float) -> float:
    """max |R(lambda dt)| over the eigenvalues lambda of x'' = -omega0^2 x
    - tau omega0^2 x', R the RK4 stability polynomial."""
    gamma = tau * omega0**2
    root = np.sqrt(complex(gamma**2 - 4.0 * omega0**2))
    z = np.array([-gamma + root, -gamma - root]) / 2.0 * dt
    return float(np.max(np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)))


def test_rk4_spectral_radius_is_recorded_and_instability_warned():
    fspec, particle, ic, dt, stride = shipped_run_parameters()
    ens = integrate_ensemble(particle, fspec, ic, 0.0, dt, 60, 2, 5)
    radius = ens.meta["rk4_spectral_radius"]
    assert radius == pytest.approx(rk4_radius(1.0, particle.tau, ens.dt),
                                   rel=0, abs=1e-14)
    assert radius < 1.0
    assert ens.meta["warnings"] == []
    # omega0 dt = 5 lies outside RK4's stability region
    quiet = FieldSpec(omega_cutoff=math.pi / 6.4, n_modes=4, hbar=0.0)
    unstable = ParticleSpec(mass=1.0, charge=0.0, tau=0.0,
                            potential=harmonic_potential(100.0, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        ens = integrate_ensemble(unstable, quiet, DeltaIC(1.0, 0.0),
                                 0.0, 0.05, 100, 1, 1)
    assert ens.meta["rk4_spectral_radius"] == pytest.approx(
        rk4_radius(100.0, 0.0, ens.dt), rel=1e-13)
    assert any("spectral radius" in w and ">= 1" in w
               for w in ens.meta["warnings"])
    loop = integrate_ensemble(on_the_loop(particle), fspec, ic, 0.0, dt, 60, 2, 5)
    assert "rk4_spectral_radius" not in loop.meta


class ListedStarts:
    """Initial positions taken in order from a list, at rest."""

    def __init__(self, x0):
        self.x0 = iter(x0)

    def sample(self, rng):
        return next(self.x0), 0.0


def test_unstable_rows_overflow_one_by_one():
    # a row that starts at rest in a quiet field stays at rest, while the
    # others overflow at records set by their own starts: 46, 23 and 1 of
    # 100 on both paths
    quiet = FieldSpec(omega_cutoff=math.pi / 6.4, n_modes=4, hbar=0.0)
    particle = ParticleSpec(mass=1.0, charge=0.0, tau=0.0,
                            potential=harmonic_potential(100.0, 1.0))
    starts = [0.0, 1e-300, 1.0, 1e300]
    firsts = []
    for p in (particle, on_the_loop(particle)):
        with np.errstate(over="ignore", invalid="ignore"):
            ens = integrate_ensemble(p, quiet, ListedStarts(starts), 0.0, 0.05,
                                     1000, 4, 1, record_stride=10)
        assert list(ens.status) == [STATUS_OK] + [STATUS_NONFINITE] * 3
        assert np.all(ens.positions[0] == 0.0)
        first = [int(np.argmin(np.isfinite(ens.positions[i]))) for i in (1, 2, 3)]
        assert 0 < first[2] < first[1] < first[0]
        for i, j in zip((1, 2, 3), first):
            assert not np.any(np.isfinite(ens.positions[i, j:]))
            assert np.all(np.isfinite(ens.positions[i, :j]))
        firsts.append(first)
    assert firsts[0] == firsts[1]


def test_overflowed_rows_stay_non_finite():
    # omega0 dt = 2.84 lies just past RK4's limit 2 sqrt(2): the state grows
    # by a few percent a step while it turns, so its records cross the
    # overflow threshold back and forth; a flagged row keeps no finite
    # record after its first non-finite one, on either path
    quiet = FieldSpec(omega_cutoff=2.0, n_modes=256, hbar=0.0)
    particle = ParticleSpec(mass=1.0, charge=0.0, tau=0.0,
                            potential=harmonic_potential(14.25, 1.0))
    for p in (particle, on_the_loop(particle)):
        with np.errstate(over="ignore", invalid="ignore"):
            ens = integrate_ensemble(p, quiet, ListedStarts([1e300, 1e298, 1e296]),
                                     0.0, 0.2, 3000, 3, 1, record_stride=6)
        assert 2.83 < 14.25 * ens.dt < 2.85
        assert np.all(ens.status == STATUS_NONFINITE)
        finite = np.isfinite(ens.positions) & np.isfinite(ens.velocities)
        for row in finite:
            first = int(np.argmin(row))
            assert first > 0 and not row[first:].any()


def reference_loop(particle, fspec, ic, dt, n_steps, n_traj, seed, stride):
    """integrate_ensemble's step loop written out plainly: the acceleration
    evaluated four times a step, x and v updated separately, charge * e at
    every stage, the field read from one array of the whole run joined from
    the integrator's slabs. Returns (positions, velocities, status)."""
    dt, n_steps, n_fft = comb_time_grid(fspec, dt, n_steps * dt)
    pot, h2 = particle.potential, 0.5 * dt
    amps = mode_table(fspec)[2]
    coefs = amps * np.exp(1j * np.array(
        [make_field(fspec, (seed, i, 0)).phases[0] for i in range(n_traj)]))
    slabs = [s.copy() for s in comb_sum_slabs(
        coefs, fspec, n_fft, 0.0, 2 * n_steps + 1,
        sedsim.dynamics._slab_width(fspec.n_modes))]
    e = np.concatenate([slabs[0]] + [s[1:] for s in slabs[1:]]).T
    x, v = np.array([ic.sample(np.random.Generator(np.random.Philox(
        np.random.SeedSequence((seed, i, 1))))) for i in range(n_traj)]).T

    def acc(x, v, e):
        return (pot.f(x) + particle.tau * pot.fprime(x) * v
                + particle.charge * e) / particle.mass

    n_rec = n_steps // stride + 1
    xs, vs = np.empty((n_traj, n_rec)), np.empty((n_traj, n_rec))
    xs[:, 0], vs[:, 0] = x, v
    status = np.zeros(n_traj, dtype=np.int8)
    for k in range(n_steps):
        e0, eh, e1 = e[:, 2 * k], e[:, 2 * k + 1], e[:, 2 * k + 2]
        a1 = acc(x, v, e0)
        x2 = x + h2 * v
        v2 = v + h2 * a1
        a2 = acc(x2, v2, eh)
        x3 = x + h2 * v2
        v3 = v + h2 * a2
        a3 = acc(x3, v3, eh)
        x4 = x + dt * v3
        v4 = v + dt * a3
        a4 = acc(x4, v4, e1)
        x, v = (x + dt / 6.0 * (v + 2.0 * (v2 + v3) + v4),
                v + dt / 6.0 * (a1 + 2.0 * (a2 + a3) + a4))
        if (k + 1) % stride == 0:
            j = (k + 1) // stride
            xs[:, j], vs[:, j] = x, v
            status[~(np.isfinite(x) & np.isfinite(v))] = STATUS_NONFINITE
    return xs, vs, status


@pytest.mark.parametrize("case", ["quartic", "free", "harmonic"])
def test_step_loop_is_the_plain_rk4_bit_for_bit(case):
    # the stage-buffer kernel reorders no operation of the plain loop, also
    # across the seams of the run's four slabs (three of 104 half steps and
    # one of 94): on the quartic at mass 2 and record stride 3, the row
    # that starts at x = 30 overflows in its first records and is NaN from
    # there on
    fspec = FieldSpec(omega_cutoff=1.6, omega_min=0.1, n_modes=48)
    ic, stride = (lambda: ListedStarts([0.3, -0.5, 30.0, 0.8, 0.0])), 3
    if case == "quartic":
        particle = ParticleSpec.from_tau(2.0, 0.02, quartic_potential(1.0))
    elif case == "free":
        particle = ParticleSpec.from_tau(1.0, 0.02, free_potential())
        ic, stride = (lambda: GaussianIC(0.5, 0.5)), 1
    else:
        particle = on_the_loop(ParticleSpec.from_tau(
            1.0, 0.02, harmonic_potential(1.3, 1.0)))
        ic = lambda: GaussianIC(0.5, 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        ens = integrate_ensemble(particle, fspec, ic(), 0.0, 0.13, 200, 5, 11,
                                 record_stride=stride)
        xs, vs, status = reference_loop(particle, fspec, ic(), 0.13, 200, 5,
                                        11, stride)
    assert ens.meta["integrator"] == "rk4-loop"
    np.testing.assert_array_equal(ens.status, status)
    assert np.array_equal(ens.positions, xs, equal_nan=True)
    assert np.array_equal(ens.velocities, vs, equal_nan=True)
    if case == "quartic":
        assert list(status) == [STATUS_OK, STATUS_OK, STATUS_NONFINITE,
                                STATUS_OK, STATUS_OK]
        assert np.isfinite(xs[2, :2]).all() and np.isnan(xs[2, 2:]).all()
        assert np.isnan(vs[2, 2:]).all()


@pytest.mark.parametrize("pot", [free_potential(),
                                 harmonic_potential(1.3, 2.0),
                                 quartic_potential(0.7)], ids=lambda p: p.kind)
def test_drift_is_f_plus_tau_fprime_v_bit_for_bit(pot):
    rng = np.random.default_rng(5)
    x, v = (rng.standard_normal((2, 1000))
            * 10.0 ** rng.uniform(-3.0, 3.0, (2, 1000)))
    expected = pot.f(x) + 0.02 * pot.fprime(x) * v
    out = np.empty_like(x)
    assert pot.drift(x, v, 0.02, out) is out
    assert out.tobytes() == expected.tobytes()
    assert pot.drift(x, v, 0.02).tobytes() == expected.tobytes()
    particle = ParticleSpec.from_tau(2.0, 0.02, pot)
    e = rng.standard_normal(1000)
    assert particle.acceleration(x, v, e).tobytes() == (
        (expected + particle.charge * e) / 2.0).tobytes()


@pytest.mark.parametrize("n_steps,stride", [(1, 1), (2, 1), (5, 7), (14, 2),
                                            (13, 3)])
def test_recurrence_matches_the_step_loop_on_short_runs(n_steps, stride):
    fspec, particle, ic, dt, _ = shipped_run_parameters()
    args = (fspec, ic, 0.0, dt, n_steps, 3, 5)
    fast = integrate_ensemble(particle, *args, record_stride=stride)
    loop = integrate_ensemble(on_the_loop(particle), *args, record_stride=stride)
    assert fast.positions.shape == loop.positions.shape
    assert fast.velocities.shape == loop.velocities.shape
    np.testing.assert_allclose(fast.positions, loop.positions, rtol=0, atol=1e-14)
    np.testing.assert_allclose(fast.velocities, loop.velocities,
                               rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# the comb-exact time grid

def test_shipped_grid_is_its_own_fixed_point():
    fspec, dt_cfg, t0, t_final = shipped_field_and_step()
    dt, n_steps, n_fft = comb_time_grid(fspec, dt_cfg, t_final - t0)
    assert (dt, n_steps, n_fft) == (0.19974982317874132, 50063, 161051)
    assert comb_time_grid(fspec, dt, n_steps * dt) == (dt, n_steps, n_fft)


def test_grid_widened_to_hold_the_run_is_its_own_fixed_point():
    # 812.27 sits within one half step of the comb period 812.37, so the
    # first FFT length (10,890) cannot hold the run and the step shrinks
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.02, n_modes=256)
    _, first_n_fft = comb_cache_params(fspec, h_target=0.15 / 2.0)
    dt, n_steps, n_fft = comb_time_grid(fspec, 0.15, 812.27)
    assert first_n_fft < 2 * n_steps + 1 <= n_fft
    assert n_steps * dt >= 812.27
    assert comb_time_grid(fspec, dt, n_steps * dt) == (dt, n_steps, n_fft)


def test_grid_widening_runs_until_the_run_fits():
    # 812.315 ends 0.056 before the comb period 812.371: each widening
    # re-grows n_steps, and the grid fits only after 64 widenings
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.02, n_modes=256)
    dt, n_steps, n_fft = comb_time_grid(fspec, 0.15, 812.315)
    assert 2 * n_steps + 1 <= n_fft
    assert 812.315 <= n_steps * dt < dt * n_fft / 2.0
    assert comb_time_grid(fspec, dt, n_steps * dt) == (dt, n_steps, n_fft)
    dt, n_steps, n_fft = comb_time_grid(fspec, 0.15, 812.297)
    assert (round(dt, 6), n_steps, n_fft) == (0.148582, 5467, 10935)
    period = 2.0 * math.pi * 256 / 1.98
    for span in (period, period + 1e-9, 900.0):
        with pytest.raises(IntegrationError, match="comb period"):
            comb_time_grid(fspec, 0.15, span)


def test_span_just_inside_the_comb_period_is_refused_before_any_table():
    # within P (1 - 1e-6) or P (1 - 1e-9) of the comb period P the widening
    # would shrink dt from 0.15 to 0.0016 (501,187 steps, a 2 GB table per
    # chunk) or to 5e8 steps; it stops once the step falls below dt/2
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.02, n_modes=256)
    period = 2.0 * math.pi * 256 / 1.98
    for span in (period * (1 - 1e-6), period * (1 - 1e-9)):
        with pytest.raises(IntegrationError, match="below dt/2 = 0.075"):
            comb_time_grid(fspec, 0.15, span)
    particle = ParticleSpec.from_tau(1.0, 1e-2, harmonic_potential(1.0, 1.0))
    with pytest.raises(IntegrationError, match="below dt/2"):
        integrate_ensemble(particle, fspec, DeltaIC(0.0, 0.0), 0.0,
                           period * (1 - 1e-6) / 5416, 5416, 1, 1)
    # 812.315 still resolves: its widened step 0.1116 is above 0.075
    dt, _, _ = comb_time_grid(fspec, 0.15, 812.315)
    assert dt == pytest.approx(0.111643, abs=1e-6)


def test_sedbench_quartic_grid_is_its_own_fixed_point():
    fspec = FieldSpec(omega_cutoff=1.6, omega_min=0.1, n_modes=768)
    grid = comb_time_grid(fspec, 0.13, 3000.0)
    assert grid == (0.1299794293848868, 23081, 49500)
    dt, n_steps, _ = grid
    assert comb_time_grid(fspec, dt, n_steps * dt) == grid


@pytest.mark.parametrize("loop", [False, True])
def test_round_dt_runs_on_the_resolved_grid_bitwise(loop):
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.02, n_modes=256)
    particle = ParticleSpec.from_tau(1.0, 1e-2, harmonic_potential(1.0, 1.0))
    if loop:
        particle = on_the_loop(particle)
    dt, n_steps, _ = comb_time_grid(fspec, 0.15, 300 * 0.15)
    ic = stationary_guess_ic(1.0, 1.0, 1.0)
    a = integrate_ensemble(particle, fspec, ic, 0.0, 0.15, 300, 4, 3,
                           record_stride=2)
    b = integrate_ensemble(particle, fspec, ic, 0.0, dt, n_steps, 4, 3,
                           record_stride=2)
    assert (a.dt, a.n_steps) == (b.dt, b.n_steps) == (dt, n_steps)
    assert dt < 0.15
    for name in ("times", "positions", "velocities", "field_values", "status"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_run_past_the_comb_period_is_refused():
    # 8 modes on [0.9, 1.1]: the field repeats after 2 pi 8/0.2 = 251.3
    fspec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=8)
    particle = ParticleSpec.from_tau(1.0, 1e-3, harmonic_potential(1.0, 1.0))
    with pytest.raises(IntegrationError, match="comb period .* = 251.327"):
        integrate_ensemble(particle, fspec, DeltaIC(0.0, 0.0),
                           0.0, 0.5, 600, 1, 1)
    with pytest.raises(IntegrationError, match="positive run length"):
        integrate_ensemble(particle, fspec, DeltaIC(0.0, 0.0),
                           0.0, 0.5, 0, 1, 1)


# ---------------------------------------------------------------------------
# driven ensemble vs linear response

def test_driven_moments_match_linear_response(sed_run):
    ens, _ = sed_run
    window = ens.times >= 15.0
    x = ens.positions[:, window]
    v = ens.velocities[:, window]
    per_traj_var = np.mean(x ** 2, axis=1)
    per_traj_energy = np.mean(0.5 * v ** 2 + 0.5 * x ** 2, axis=1)
    for sample, oracle in ((per_traj_var, X_VAR_ORACLE),
                           (per_traj_energy, E_ORACLE)):
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - oracle) <= 3.5 * se


def test_energy_balance_near_unity(sed_run):
    ens, particle = sed_run
    report = energy_balance(ens, particle, (15.0, float(ens.times[-1])))
    assert abs(report.balance_ratio - 1.0) <= 0.10
    assert report.stationary
    assert report.mean_absorbed_power > 0
    # 35 time units is under ten oscillation periods; the report says so
    assert any("10 periods" in w for w in report.warnings)


def test_relaxation_curve_rises_from_cold_start():
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.02, n_modes=128)
    particle = ParticleSpec.from_tau(1.0, 0.05, harmonic_potential(1.0, 1.0))
    ens = integrate_ensemble(particle, fspec, DeltaIC(0.0, 0.0),
                             0.0, 0.3, 200, 150, 5)
    times, energy = relaxation_curve(ens, particle)
    assert energy[0] == 0.0
    assert np.mean(energy[:10]) < np.mean(energy[-10:])
    assert np.mean(energy[-10:]) > 0.3


def test_relaxation_curve_needs_a_real_ensemble():
    ens = integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(1.0, 0.0),
                             0.0, 0.1, 10, 3, 1)
    with pytest.raises(IntegrationError, match="100"):
        relaxation_curve(ens, harmonic_particle())
    # the mean is over the intact rows, so they are what counts
    ens = integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(1.0, 0.0),
                             0.0, 0.1, 10, 120, 1)
    ens.status[:20] = STATUS_NONFINITE
    ens.positions[:20] = np.nan
    curve = relaxation_curve(ens, harmonic_particle())[1]
    np.testing.assert_allclose(curve, np.mean(harmonic_particle().energy(
        ens.positions[20:], ens.velocities[20:]), axis=0), rtol=1e-13)
    ens.status[20] = STATUS_NONFINITE
    with pytest.raises(IntegrationError, match="100 intact trajectories, has 99"):
        relaxation_curve(ens, harmonic_particle())


# ---------------------------------------------------------------------------
# reproducibility

def test_same_seed_reproduces_bitwise():
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.9, n_modes=16)
    ic = stationary_guess_ic(1.0, 1.0, 1.0)
    particle = ParticleSpec.from_tau(1.0, 1e-3, harmonic_potential(1.0, 1.0))
    a = integrate_ensemble(particle, fspec, ic, 0.0, 0.2, 50, 4, 123)
    b = integrate_ensemble(particle, fspec, ic, 0.0, 0.2, 50, 4, 123)
    c = integrate_ensemble(particle, fspec, ic, 0.0, 0.2, 50, 4, 124)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)
    assert np.array_equal(a.field_values, b.field_values)
    assert not np.array_equal(a.positions, c.positions)


def test_trajectory_seeding_is_independent_of_ensemble_size():
    # trajectory i is seeded by (master_seed, i), so a smaller ensemble is a
    # strict prefix of a larger one
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.9, n_modes=16)
    ic = stationary_guess_ic(1.0, 1.0, 1.0)
    particle = ParticleSpec.from_tau(1.0, 1e-3, harmonic_potential(1.0, 1.0))
    big = integrate_ensemble(particle, fspec, ic, 0.0, 0.2, 50, 5, 77)
    small = integrate_ensemble(particle, fspec, ic, 0.0, 0.2, 50, 3, 77)
    assert np.array_equal(big.positions[:3], small.positions)
    assert np.array_equal(big.velocities[:3], small.velocities)
    assert np.array_equal(big.field_values[:3], small.field_values)


def test_trajectory_seeding_is_independent_of_ensemble_size_on_the_loop():
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.9, n_modes=16)
    particle = ParticleSpec.from_tau(1.0, 1e-3, quartic_potential(1.0))
    big = integrate_ensemble(particle, fspec, DeltaIC(0.5, 0.0),
                             0.0, 0.2, 50, 5, 77)
    small = integrate_ensemble(particle, fspec, DeltaIC(0.5, 0.0),
                               0.0, 0.2, 50, 3, 77)
    assert big.meta["integrator"] == "rk4-loop"
    assert np.array_equal(big.positions[:3], small.positions)
    assert np.array_equal(big.velocities[:3], small.velocities)
    assert np.array_equal(big.field_values[:3], small.field_values)


def test_worker_count_does_not_change_bits():
    # three scheduling chunks, the last one short, so threads actually split
    n_traj = 2 * RESPONSE_CHUNK + 20
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.9, n_modes=8)
    ic = stationary_guess_ic(1.0, 1.0, 1.0)
    particle = ParticleSpec.from_tau(1.0, 1e-3, harmonic_potential(1.0, 1.0))
    serial = integrate_ensemble(particle, fspec, ic, 0.0, 0.2, 20, n_traj, 9)
    threaded = integrate_ensemble(particle, fspec, ic, 0.0, 0.2, 20, n_traj, 9,
                                  n_workers=3)
    assert serial.meta["integrator"] == "rk4-response"
    assert np.array_equal(serial.positions, threaded.positions)
    assert np.array_equal(serial.velocities, threaded.velocities)
    assert np.array_equal(serial.field_values, threaded.field_values)


def test_worker_count_does_not_change_bits_on_the_loop():
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.9, n_modes=8)
    particle = ParticleSpec.from_tau(1.0, 1e-3, quartic_potential(1.0))
    n_traj = 2 * CHUNK + 44
    serial = integrate_ensemble(particle, fspec, DeltaIC(0.5, 0.0),
                                0.0, 0.2, 20, n_traj, 9)
    threaded = integrate_ensemble(particle, fspec, DeltaIC(0.5, 0.0),
                                  0.0, 0.2, 20, n_traj, 9, n_workers=3)
    assert serial.meta["integrator"] == "rk4-loop"
    assert np.array_equal(serial.positions, threaded.positions)
    assert np.array_equal(serial.velocities, threaded.velocities)
    assert np.array_equal(serial.field_values, threaded.field_values)


def test_worker_count_does_not_change_bits_across_slabs(tmp_path):
    # criterion 9 on the step loop's slabs: 64 modes give slabs of 96 half
    # steps, and the run's 602 are six of them and a short last one of 26;
    # two chunks, the last short. The dumps at 1 and 2 workers hold the
    # same bytes
    fspec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=64)
    particle = ParticleSpec.from_tau(1.0, 1e-3, quartic_potential(1.0))
    dt, n_steps, _ = comb_time_grid(fspec, 0.2, 60.0)
    assert (2 * n_steps, sedsim.dynamics._slab_width(64)) == (602, 96)
    dumps = []
    for n_workers in (1, 2):
        ens = integrate_ensemble(particle, fspec, DeltaIC(0.5, 0.0), 0.0, dt,
                                 n_steps, CHUNK + 20, 9, record_stride=3,
                                 n_workers=n_workers)
        assert ens.meta["integrator"] == "rk4-loop" and ens.ok_mask().all()
        dumps.append(dump_ensemble(ens, tmp_path / str(n_workers)))
    names = sorted(p.name for p in dumps[0].iterdir())
    assert names == sorted(p.name for p in dumps[1].iterdir())
    for name in names:
        assert (dumps[0] / name).read_bytes() == (dumps[1] / name).read_bytes()


class DriftFailure(ArithmeticError):
    """Raised by a drift partway through a run."""


@pytest.mark.parametrize("n_workers", [1, 2])
def test_step_loop_leaves_no_helper_thread(n_workers):
    # each chunk's slab stream runs a helper thread; after a run, and after
    # a run whose drift raises in its fourth slab of 96 half steps while the
    # next slab's fill is under way, the thread count is where it started,
    # and the drift's exception reaches the caller as raised
    fspec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=64)
    particle = ParticleSpec.from_tau(1.0, 1e-3, quartic_potential(1.0))
    dt, n_steps, _ = comb_time_grid(fspec, 0.2, 60.0)
    args = (fspec, DeltaIC(0.5, 0.0), 0.0, dt, n_steps, CHUNK + 20, 9)
    before = threading.active_count()
    ens = integrate_ensemble(particle, *args, n_workers=n_workers)
    assert ens.meta["integrator"] == "rk4-loop" and ens.ok_mask().all()
    assert threading.active_count() == before
    quartic, calls = particle.potential, []

    def drift(*a):
        calls.append(None)
        if len(calls) == 4 * 150:
            raise DriftFailure("drift failed at step 150")
        return quartic.drift(*a)

    failing = replace(particle, potential=replace(quartic, drift=drift))
    with pytest.raises(DriftFailure, match="step 150"):
        integrate_ensemble(failing, *args, n_workers=n_workers)
    assert threading.active_count() == before


def test_step_loop_at_one_worker_computes_on_the_calling_thread():
    # its slab helper already runs beside the steps; from a pool thread its
    # slabs would land in another malloc arena
    fspec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=64)
    particle = ParticleSpec.from_tau(1.0, 1e-3, quartic_potential(1.0))
    dt, n_steps, _ = comb_time_grid(fspec, 0.2, 60.0)
    quartic, threads = particle.potential, set()

    def drift(*a):
        threads.add(threading.current_thread())
        return quartic.drift(*a)

    recording = replace(particle, potential=replace(quartic, drift=drift))
    ens = integrate_ensemble(recording, fspec, DeltaIC(0.5, 0.0), 0.0, dt,
                             n_steps, CHUNK + 20, 9)
    assert ens.meta["integrator"] == "rk4-loop"
    assert threads == {threading.current_thread()}


class ConsumerFailure(RuntimeError):
    """Raised by a consumer as it takes a chunk."""


class SamplerFailure(LookupError):
    """Raised by an initial-condition sampler inside a chunk."""


def test_response_path_leaves_no_helper_thread():
    # at one worker a helper thread computes the next chunk while the
    # consumers take this one. After a run, after a consumer that raises on
    # chunk 3 while chunk 4 is computing, and after a sampler that raises
    # inside the helper, the thread count is where it started, and each
    # exception reaches the caller as raised
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.9, n_modes=8)
    particle = ParticleSpec.from_tau(1.0, 1e-3, harmonic_potential(1.0, 1.0))
    guess = stationary_guess_ic(1.0, 1.0, 1.0)
    n_traj = 6 * RESPONSE_CHUNK + 3

    class Sampler:
        """guess's draws, counted, on the threads that make them; the draw
        of row fail raises."""

        def __init__(self, fail=None):
            self.rows, self.fail, self.threads = 0, fail, set()
            self.chunk_4 = threading.Event()

        def sample(self, rng):
            self.threads.add(threading.current_thread())
            if self.rows == self.fail:
                raise SamplerFailure(f"row {self.rows} has no start")
            self.rows += 1
            if self.rows > 3 * RESPONSE_CHUNK:
                self.chunk_4.set()
            return guess.sample(rng)

    def run(ic, consumers):
        return integrate_stream(particle, fspec, ic, 0.0, 0.2, 20, n_traj,
                                9, consumers)

    before = threading.active_count()
    ic, chunks = Sampler(), Chunks()
    head = run(ic, [chunks])
    assert head.meta["integrator"] == "rk4-response"
    assert len(chunks.chunks) == 7 and ic.rows == n_traj
    assert threading.current_thread() not in ic.threads
    assert threading.active_count() == before

    class FailsOnChunk3:
        def __init__(self):
            self.taken, self.waited = 0, None

        def take(self, chunk):
            self.taken += 1
            if self.taken == 3:
                self.waited = ic.chunk_4.wait(timeout=60)
                raise ConsumerFailure("chunk 3 refused")

    ic, consumer = Sampler(), FailsOnChunk3()
    with pytest.raises(ConsumerFailure, match="chunk 3 refused"):
        run(ic, [consumer])
    assert consumer.waited is True
    assert threading.active_count() == before

    chunks = Chunks()
    with pytest.raises(SamplerFailure, match=f"row {2 * RESPONSE_CHUNK + 1}"):
        run(Sampler(fail=2 * RESPONSE_CHUNK + 1), [chunks])
    assert len(chunks.chunks) == 2
    assert threading.active_count() == before


@pytest.mark.parametrize("n_workers", [1, 3])
def test_response_chunks_compute_under_the_callers_errstate(n_workers):
    # the pool threads take the caller's floating-point error handling, as
    # a chunk computed on the calling thread would: an overflow raises
    # where the caller asked it to
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.9, n_modes=8)
    particle = ParticleSpec.from_tau(1.0, 1e-3, harmonic_potential(1.0, 1.0))
    seen = []

    class Sampler:
        def sample(self, rng):
            seen.append(np.geterr()["over"])
            return 0.0, 0.0

    with np.errstate(over="raise"):
        integrate_stream(particle, fspec, Sampler(), 0.0, 0.2, 20,
                         3 * RESPONSE_CHUNK, 9, n_workers=n_workers)
    assert seen == ["raise"] * (3 * RESPONSE_CHUNK)


@pytest.mark.parametrize("route", ["out", "stream"])
def test_step_loop_writes_the_record_field_after_its_slabs_are_freed(
        monkeypatch, route):
    # the record-grid field is written after a chunk's last slab is stepped
    # and its buffers released, so the two are never resident together:
    # when the record plan writes, the base buffer of every slab of the
    # chunk is dead. Two chunks of six 96-half-step slabs and a short one,
    # into integrate_ensemble's arrays and into a stream's own chunks
    fspec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=64)
    particle = ParticleSpec.from_tau(1.0, 1e-3, quartic_potential(1.0))
    dt, n_steps, _ = comb_time_grid(fspec, 0.2, 60.0)
    slabs, writes = [], []

    def tracked(*args):
        for slab in comb_sum_slabs(*args):
            slabs.append(weakref.ref(slab.base))
            yield slab

    class RecordPlan(CombPlan):
        def __call__(self, coefs, out=None):
            writes.append([ref() is None for ref in slabs])
            slabs.clear()
            return super().__call__(coefs, out)

    monkeypatch.setattr(sedsim.dynamics, "comb_sum_slabs", tracked)
    monkeypatch.setattr(sedsim.dynamics, "CombPlan", RecordPlan)
    integrate = integrate_ensemble if route == "out" else integrate_stream
    ens = integrate(particle, fspec, DeltaIC(0.5, 0.0), 0.0, dt, n_steps,
                    CHUNK + 20, 9, record_stride=3)
    assert ens.meta["integrator"] == "rk4-loop"
    assert writes == [[True] * 7] * 2


class Chunks:
    """A consumer that keeps a copy of every chunk it takes."""

    def __init__(self):
        self.chunks = []

    def take(self, chunk):
        self.chunks.append(replace(
            chunk, positions=chunk.positions.copy(),
            velocities=chunk.velocities.copy(),
            field_values=chunk.field_values.copy(),
            status=chunk.status.copy()))


@pytest.mark.parametrize("loop", [False, True])
def test_stream_hands_over_the_chunks_in_row_order(loop):
    # the chunks, handed over in row order also with 3 workers, are the
    # rows of integrate_ensemble's arrays; the stream returns the ensemble
    # without them, and a ColumnStore keeps the column it was given. Each
    # path has its own chunk width
    width = CHUNK if loop else RESPONSE_CHUNK
    n_traj = 2 * width + 10
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.9, n_modes=8)
    particle = ParticleSpec.from_tau(1.0, 1e-3, harmonic_potential(1.0, 1.0))
    if loop:
        particle = on_the_loop(particle)
    ic = stationary_guess_ic(1.0, 1.0, 1.0)
    whole = integrate_ensemble(particle, fspec, ic, 0.0, 0.2, 20, n_traj, 9)
    for n_workers in (1, 3):
        chunks, store = Chunks(), ColumnStore(n_traj, 5)
        head = integrate_stream(particle, fspec, ic, 0.0, 0.2, 20, n_traj, 9,
                                [chunks, store], n_workers=n_workers)
        assert [c.n_traj for c in chunks.chunks] == [width, width, 10]
        for name in ("positions", "velocities", "field_values", "status"):
            assert np.array_equal(
                np.concatenate([getattr(c, name) for c in chunks.chunks]),
                getattr(whole, name))
        assert head.positions is head.velocities is head.field_values is None
        assert np.array_equal(head.status, whole.status)
        assert np.array_equal(head.times, whole.times)
        assert head.meta == whole.meta and head.dt == whole.dt
        assert store.values.shape == (n_traj,)
        assert np.array_equal(store.values, whole.positions[:, 5])


def test_response_rows_do_not_depend_on_the_chunk_width(monkeypatch):
    # 70 trajectories of a 96-mode comb, record stride 3: chunks of 1, 5 and
    # 64 rows (one row, fewer rows than a transform block, more), on 1 and
    # 3 workers, give the rows of the whole-array integrate_ensemble at the
    # shipped width, bit for bit
    fspec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=96)
    particle = ParticleSpec.from_tau(1.0, 1e-3, harmonic_potential(1.0, 1.0))
    ic = stationary_guess_ic(1.0, 1.0, 1.0)
    args = (particle, fspec, ic, 0.0, 0.5, 120, 70, 21)
    whole = integrate_ensemble(*args, record_stride=3)
    assert whole.meta["integrator"] == "rk4-response"
    names = ("positions", "velocities", "field_values", "status")
    for width in (1, 5, 64):
        monkeypatch.setattr(sedsim.dynamics, "RESPONSE_CHUNK", width)
        for n_workers in (1, 3):
            chunks = Chunks()
            integrate_stream(*args, [chunks], record_stride=3,
                             n_workers=n_workers)
            assert {c.n_traj for c in chunks.chunks[:-1]} == {width}
            assert len(chunks.chunks) == -(-70 // width)
            ens = integrate_ensemble(*args, record_stride=3,
                                     n_workers=n_workers)
            for name in names:
                assert np.array_equal(np.concatenate(
                    [getattr(c, name) for c in chunks.chunks]),
                    getattr(whole, name))
                assert np.array_equal(getattr(ens, name), getattr(whole, name))


def test_chunk_widths_are_whole_row_blocks():
    # every producer's chunks start at a multiple of ROW_BLOCK rows, so no
    # chunk boundary cuts a block of intact_blocks
    for width in (CHUNK, RESPONSE_CHUNK, sedsim.reference._ROW_BLOCK):
        assert width % ROW_BLOCK == 0, width


def test_a_response_chunk_is_one_row_block():
    # the response path hands its consumers ROW_BLOCK rows at a time (the
    # last chunk fewer), so a chunk's intact_blocks walk yields one block,
    # views of the chunk's own rows: a consumer works on one block of
    # records at a time, on 1 worker and on 3
    n_traj = 3 * ROW_BLOCK + 5
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.9, n_modes=8)
    particle = ParticleSpec.from_tau(1.0, 1e-3, harmonic_potential(1.0, 1.0))
    ic = stationary_guess_ic(1.0, 1.0, 1.0)
    names = ("positions", "velocities", "field_values")

    class Walks:
        def __init__(self):
            self.seen = []

        def take(self, chunk):
            blocks = list(chunk.intact_blocks(names))
            self.seen.append((chunk.n_traj, len(blocks), all(
                np.shares_memory(b, getattr(chunk, name))
                and b.shape[0] == chunk.n_traj
                for b, name in zip(blocks[0], names))))

    for n_workers in (1, 3):
        walks = Walks()
        head = integrate_stream(particle, fspec, ic, 0.0, 0.2, 20, n_traj, 9,
                                [walks], n_workers=n_workers)
        assert head.meta["integrator"] == "rk4-response"
        assert walks.seen == [(ROW_BLOCK, 1, True)] * 3 + [(5, 1, True)]


@pytest.mark.parametrize("sizes", [[64, 32, 256, 48], [ROW_BLOCK] * 25])
def test_stream_reductions_add_the_whole_ensembles_blocks(sizes):
    # chunks of whole blocks, with flagged rows on both sides of every
    # boundary and one block (with ROW_BLOCK-row chunks, one chunk) all
    # flagged: the stream's reductions add the whole-array walk's blocks
    # in its order and agree with it bit for bit
    particle = ParticleSpec.from_tau(1.0, 1e-2, harmonic_potential(1.0, 1.0))
    window = (50.0, 200.0)
    ens = noise_ensemble(400)
    cuts = np.cumsum([0, *sizes])
    assert cuts[-1] == ens.n_traj
    assert all(cut % ROW_BLOCK == 0 for cut in cuts[:-1])
    flagged = [0, 399, *range(5 * ROW_BLOCK, 6 * ROW_BLOCK)]
    for cut in cuts[1:-1]:
        flagged += [cut - 1, cut]
    ens.status[flagged] = STATUS_NONFINITE
    balance = BalanceSums(particle, window, ens.times)
    energy = EnergySums(particle, ens.times.size)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        chunk = replace(ens, **{name: getattr(ens, name)[lo:hi] for name in (
            "positions", "velocities", "field_values", "status")})
        balance.take(chunk)
        energy.take(chunk)
    assert balance.report(ens) == energy_balance(ens, particle, window)
    whole = BalanceSums(particle, window, ens.times)
    whole.take(ens)
    for a, b in zip(balance.trace(), whole.trace()):
        assert np.array_equal(a, b)
    assert balance.position_variance() == whole.position_variance()
    times, curve = relaxation_curve(ens, particle)
    assert np.array_equal(energy.curve(ens)[1], curve)


def test_field_values_are_the_single_call_grid():
    # 7 trajectories, fewer than a transform block; both paths store the
    # record-grid mode sum of one CombPlan call per trajectory, which is
    # every 6th point of the half-step grid up to rounding
    fspec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=64)
    h, n_fft = comb_cache_params(fspec, h_target=0.1, min_points=401)
    particle = ParticleSpec.from_tau(1.0, 1e-3, harmonic_potential(1.0, 1.0))
    for p in (particle, on_the_loop(particle)):
        ens = integrate_ensemble(p, fspec, stationary_guess_ic(1.0, 1.0, 1.0),
                                 7.5, 2.0 * h, 200, 7, 31, record_stride=3)
        for i in range(7):
            fr = make_field(fspec, (31, i, 0))
            coefs = fr.amps * np.exp(1j * fr.phases[0])
            single = CombPlan(fspec, n_fft, 7.5, 6, 67)(coefs)
            assert np.array_equal(ens.field_values[i], single)
            grid = CombPlan(fspec, n_fft, 7.5, 1, 401)(coefs)
            assert np.max(np.abs(single - grid[::6])) <= 1e-13 * np.std(grid)


# ---------------------------------------------------------------------------
# guards and status flags

def test_unstable_quartic_is_flagged_not_raised():
    particle = ParticleSpec(mass=1.0, charge=0.0, tau=0.0,
                            potential=quartic_potential(-1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        ens = integrate_ensemble(particle, ZERO_FIELD, DeltaIC(2.0, 0.0),
                                 0.0, 0.05, 100, 1, 1)
    assert ens.status[0] == STATUS_NONFINITE
    assert not ens.ok_mask()[0]


@pytest.mark.parametrize("loop", [False, True])
def test_unstable_harmonic_is_flagged_on_both_paths(loop):
    # omega0 dt = 5 lies outside RK4's stability region: the state overflows.
    # A quiet 4-mode comb with dOmega = pi/25.6 repeats after 51.2, past the
    # run's 50, and holds dt 0.05 exactly (N = 2048)
    quiet = FieldSpec(omega_cutoff=math.pi / 6.4, n_modes=4, hbar=0.0)
    particle = ParticleSpec(mass=1.0, charge=0.0, tau=0.0,
                            potential=harmonic_potential(100.0, 1.0))
    if loop:
        particle = on_the_loop(particle)
    with np.errstate(over="ignore", invalid="ignore"):
        ens = integrate_ensemble(particle, quiet, DeltaIC(1.0, 0.0),
                                 0.0, 0.05, 1000, 2, 1, record_stride=10)
    assert ens.dt == pytest.approx(0.05, rel=1e-14)
    assert ens.n_steps == 1000
    assert np.all(ens.status == STATUS_NONFINITE)
    assert not np.all(np.isfinite(ens.positions[:, -1]))


def test_stable_run_reports_ok_status():
    ens = integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(1.0, 0.0),
                             0.0, 0.1, 10, 2, 1)
    assert np.all(ens.status == STATUS_OK)
    assert np.all(ens.ok_mask())


def test_intact_blocks_select_rows_and_columns():
    ens = integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(1.0, 0.0),
                             0.0, 0.1, 10, 4, 1)
    cols = window_columns(ens.times, (0.5, ens.times[-1]))
    (v,) = ens.intact_blocks(("velocities",), cols)
    np.testing.assert_array_equal(v[0], ens.velocities[:, ens.times >= 0.5])
    ens.status[1] = STATUS_NONFINITE
    ok = ens.ok_mask()
    (e,) = ens.intact_blocks(("field_values",), cols)
    np.testing.assert_array_equal(e[0], ens.field_values[ok][:, cols])


def test_intact_blocks_walk_the_intact_rows():
    ens = noise_ensemble(2 * ROW_BLOCK + 5, n_rec=11, dt=0.25)
    for window in ((0.5, 1.5), (0.4, 1.6), (0.0, 2.5), (1.6, 1.7), (1.5, 0.5)):
        inside = (ens.times >= window[0]) & (ens.times <= window[1])
        cols = window_columns(ens.times, window)
        assert np.array_equal(np.arange(11)[cols], np.flatnonzero(inside))
    cols = window_columns(ens.times, (0.5, 1.5))
    assert cols == slice(2, 7)
    # blocks are the rows [lo, lo + rows) less the flagged ones; a block
    # with no intact row is skipped. Per case: the flagged rows, the block
    # lengths at ROW_BLOCK rows, which blocks are views of the stored rows
    # (those without a flagged row), and the block lengths at 7 rows
    cases = (
        ([], [ROW_BLOCK, ROW_BLOCK, 5], [True, True, True], [7] * 5 + [2]),
        ([0, 2 * ROW_BLOCK + 4], [ROW_BLOCK - 1, ROW_BLOCK, 4],
         [False, True, False], [6] + [7] * 4 + [1]),
        (list(range(2 * ROW_BLOCK, 2 * ROW_BLOCK + 5)), [ROW_BLOCK, ROW_BLOCK],
         [True, True], [7] * 4 + [4]),
    )
    for flagged, lengths, views, lengths_7 in cases:
        ens.status[:] = STATUS_OK
        ens.status[flagged] = STATUS_NONFINITE
        ok = ens.ok_mask()
        blocks = list(ens.intact_blocks(("positions", "field_values"), cols))
        assert [len(x) for x, _ in blocks] == lengths
        for i, name in enumerate(("positions", "field_values")):
            walked = np.concatenate([b[i] for b in blocks])
            np.testing.assert_array_equal(walked, getattr(ens, name)[ok, 2:7])
        shared = [np.shares_memory(x, ens.positions) for x, _ in blocks]
        assert shared == views
        # 7 rows at a time
        blocks = list(ens.intact_blocks(("positions",), cols, 7))
        assert [len(x) for (x,) in blocks] == lengths_7
        np.testing.assert_array_equal(np.concatenate([x for (x,) in blocks]),
                                      ens.positions[ok, 2:7])
    ens.status[:] = STATUS_NONFINITE
    assert [x.shape for (x,) in ens.intact_blocks(("positions",), cols)] == [
        (0, 5)]


def test_step_size_guard():
    with pytest.raises(IntegrationError, match="step-size"):
        integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(0.0, 0.0),
                           0.0, 0.4, 10, 1, 1)


def test_empty_ensemble_rejected():
    with pytest.raises(IntegrationError, match="at least 1"):
        integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(0.0, 0.0),
                           0.0, 0.1, 10, 0, 1)


def test_vector_field_rejected():
    fspec = FieldSpec(omega_cutoff=2.0, n_modes=4, components=3)
    with pytest.raises(IntegrationError, match="one-dimensional"):
        integrate_ensemble(harmonic_particle(), fspec, DeltaIC(0.0, 0.0),
                           0.0, 0.1, 10, 1, 1)


def test_order_reduction_warning():
    ens = integrate_ensemble(harmonic_particle(tau=0.2), ZERO_FIELD,
                             DeltaIC(0.0, 0.0), 0.0, 0.1, 10, 1, 1)
    assert any("order reduction" in w for w in ens.meta["warnings"])


def test_step_size_warning_follows_the_local_frequency():
    # V = x^4/4 from x0 = 3: omega_loc = sqrt(3) 3 = 5.2, so dt 0.2 takes
    # about 6 steps per local period; the field band alone allows 0.57
    fspec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=8)
    particle = ParticleSpec.from_tau(1.0, 1e-3, quartic_potential(1.0))
    ens = integrate_ensemble(particle, fspec, DeltaIC(3.0, 0.0),
                             0.0, 0.2, 100, 2, 1)
    assert np.all(ens.status == STATUS_OK)
    assert any("omega_loc" in w for w in ens.meta["warnings"])
    fine = integrate_ensemble(particle, fspec, DeltaIC(3.0, 0.0),
                              0.0, 0.05, 400, 2, 1)
    assert fine.meta["warnings"] == []


def test_shipped_harmonic_parameters_do_not_warn():
    fspec, particle, ic, dt, stride = shipped_run_parameters()
    ens = integrate_ensemble(particle, fspec, ic, 0.0, dt, 2000, 4, 7,
                             record_stride=stride)
    assert ens.meta["warnings"] == []


# ---------------------------------------------------------------------------
# energy balance edge cases

def noise_ensemble(n_traj: int, n_rec: int = 2001, dt: float = 0.1):
    """Ensemble of standard normal records, for reductions that do not
    care where the numbers came from."""
    rng = np.random.default_rng(n_traj)
    return TrajectoryEnsemble(
        t0=0.0, dt=dt, n_steps=n_rec - 1, record_stride=1,
        times=dt * np.arange(n_rec),
        positions=rng.standard_normal((n_traj, n_rec)),
        velocities=rng.standard_normal((n_traj, n_rec)),
        status=np.zeros(n_traj, dtype=np.int8),
        field_values=rng.standard_normal((n_traj, n_rec)))


@pytest.mark.parametrize("flagged", [[], [3, 4, 399]])
def test_window_reductions_go_block_by_block(flagged):
    # each reduction holds a few ROW_BLOCK-row blocks of the columns it
    # walks and never a whole-window copy: at 400 and 1,600 trajectories
    # (6.4 and 25.6 MB per array) its peak stays under one bound that does
    # not depend on n_traj
    particle = ParticleSpec.from_tau(1.0, 1e-2, harmonic_potential(1.0, 1.0))
    window = (50.0, 200.0)
    for n_traj in (400, 1600):
        ens = noise_ensemble(n_traj)
        ens.status[flagged] = STATUS_NONFINITE
        # each reduction with the number of records its blocks span; the
        # balance's sums include the window statistics'
        walks = ((energy_balance, (ens, particle, window), 1501),
                 (relaxation_curve, (ens, particle), ens.times.size))
        tracemalloc.start()
        try:
            for fn, args, width in walks:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                fn(*args)
                peak = tracemalloc.get_traced_memory()[1] - base
                assert peak < 12 * ROW_BLOCK * width * 8, (fn.__name__, n_traj)
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("flagged", [[], [1, 40, 299]])
def test_window_reductions_sum_row_major_blocks(flagged):
    # each intact trajectory sums its window pairwise, as a row-major array
    # does along a row; each time adds the intact rows of a block of
    # ROW_BLOCK row indices in order and then the block sums in order
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.02, n_modes=64)
    particle = ParticleSpec.from_tau(1.0, 1e-2, harmonic_potential(1.0, 1.0))
    ens = integrate_ensemble(particle, fspec, stationary_guess_ic(1.0, 1.0, 1.0),
                             0.0, 0.1, 2000, 300, 3)
    ens.status[flagged] = STATUS_NONFINITE
    ok = ens.ok_mask()
    n_ok = int(np.count_nonzero(ok))
    sel = (ens.times >= 50.0) & (ens.times <= 200.0)
    x, v, e = (np.ascontiguousarray(a[ok][:, sel]) for a in
               (ens.positions, ens.velocities, ens.field_values))
    assert x.flags.c_contiguous
    energy = particle.energy(x, v)

    def block_column_sums(a):
        # a holds every row; a block is the rows [lo, lo + ROW_BLOCK)
        # less the flagged ones
        total = np.zeros(a.shape[1])
        for lo in range(0, len(a), ROW_BLOCK):
            rows = a[lo:lo + ROW_BLOCK][ok[lo:lo + ROW_BLOCK]]
            part = rows[0].copy()
            for row in rows[1:]:
                part += row
            total += part
        return total

    report = energy_balance(ens, particle, (50.0, 200.0))
    absorbed = np.mean(particle.charge * e * v, axis=1)
    radiated = np.mean(particle.mass * particle.tau
                       * particle.acceleration(x, v, e)**2, axis=1)
    assert report.mean_absorbed_power == float(np.mean(absorbed))
    assert report.se_radiated == float(np.std(radiated, ddof=1)
                                       / math.sqrt(n_ok))
    assert report.se_energy == float(np.std(np.mean(energy, axis=1), ddof=1)
                                     / math.sqrt(n_ok))
    every = particle.energy(ens.positions[:, sel], ens.velocities[:, sel])
    fit = np.polyfit(ens.times[sel], block_column_sums(every) / n_ok, 1)
    assert report.energy_trend == float(fit[0]) * 150.0
    whole = particle.energy(ens.positions, ens.velocities)
    assert np.array_equal(relaxation_curve(ens, particle)[1],
                          block_column_sums(whole) / n_ok)
    per_traj_x, per_traj_x2 = np.mean(x, axis=1), np.mean(x**2, axis=1)
    sums = BalanceSums(particle, (50.0, 200.0), ens.times)
    sums.take(ens)
    assert sums.position_variance() == (
        float(np.mean(per_traj_x2) - np.mean(per_traj_x)**2),
        float(np.std(per_traj_x2, ddof=1) / math.sqrt(n_ok)))


def test_energy_trend_fits_the_relaxation_curve(sed_run):
    # one number for the mean energy at a time: the balance's trend is the
    # linear fit of the relaxation curve over the window, to the bit
    ens, particle = sed_run
    ens = replace(ens, status=ens.status.copy())
    for flagged in ([], [0, 500, 1199]):
        ens.status[flagged] = STATUS_NONFINITE
        window = (15.0, 45.0)
        times, curve = relaxation_curve(ens, particle)
        cols = window_columns(ens.times, window)
        fit = np.polyfit(times[cols], curve[cols], 1)
        report = energy_balance(ens, particle, window)
        assert report.energy_trend == float(fit[0]) * (window[1] - window[0])


def test_energy_balance_zero_charge():
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.9, n_modes=8)
    particle = harmonic_particle()  # charge 0, tau 0
    ens = integrate_ensemble(particle, fspec, DeltaIC(1.0, 0.0),
                             0.0, 0.1, 100, 2, 1)
    report = energy_balance(ens, particle, (0.0, 10.0))
    assert report.mean_absorbed_power == 0.0
    assert report.mean_radiated_power == 0.0
    assert math.isinf(report.balance_ratio)


def test_energy_balance_requires_stored_field():
    ens = integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(1.0, 0.0),
                             0.0, 0.1, 10, 2, 1, store_field=False)
    with pytest.raises(IntegrationError, match="stored field"):
        energy_balance(ens, harmonic_particle(), (0.0, 1.0))


def test_energy_balance_needs_an_intact_trajectory():
    ens = integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(1.0, 0.0),
                             0.0, 0.1, 10, 2, 1)
    ens.status[:] = STATUS_NONFINITE
    with pytest.raises(IntegrationError, match="no intact trajectory"):
        energy_balance(ens, harmonic_particle(), (0.0, 1.0))


def test_energy_balance_empty_window():
    ens = integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(1.0, 0.0),
                             0.0, 0.1, 10, 2, 1)
    with pytest.raises(IntegrationError, match="empty window"):
        energy_balance(ens, harmonic_particle(), (5.0, 6.0))


# ---------------------------------------------------------------------------
# persistence

def test_binary_dump_round_trips(tmp_path):
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.9, n_modes=8)
    particle = ParticleSpec.from_tau(1.0, 1e-3, harmonic_potential(1.0, 1.0))
    ens = integrate_ensemble(particle, fspec, DeltaIC(0.3, -0.1),
                             0.0, 0.2, 30, 4, 11, record_stride=3)
    dump_ensemble(ens, tmp_path / "dump")
    back = load_ensemble(tmp_path / "dump")
    assert np.array_equal(back.times, ens.times)
    assert np.array_equal(back.positions, ens.positions)
    assert np.array_equal(back.velocities, ens.velocities)
    assert np.array_equal(back.field_values, ens.field_values)
    assert np.array_equal(back.status, ens.status)
    assert back.record_stride == 3
    assert back.meta["master_seed"] == 11


def test_only_binary_dumps_are_written(tmp_path):
    ens = integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(1.0, 0.0),
                             0.0, 0.1, 5, 1, 1)
    for fmt in ("csv", "parquet"):
        with pytest.raises(ValueError, match="unknown dump format"):
            dump_ensemble(ens, tmp_path / fmt, fmt=fmt)
        # refused before the directory or its meta.json is written
        assert not (tmp_path / fmt).exists()


def test_streamed_dump_holds_np_save_bytes(tmp_path):
    # three chunks, the last one short; the streamed files, the whole-array
    # dump and np.save of the whole arrays agree byte for byte, the dump
    # holds those files and meta.json only, and the stream writes meta.json
    # only when it is closed
    n_traj = 2 * RESPONSE_CHUNK + 20
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.9, n_modes=8)
    particle = ParticleSpec.from_tau(1.0, 1e-3, harmonic_potential(1.0, 1.0))
    ic = stationary_guess_ic(1.0, 1.0, 1.0)
    ens = integrate_ensemble(particle, fspec, ic, 0.0, 0.2, 20, n_traj, 9,
                             record_stride=3)
    names = ("positions", "velocities", "field_values")
    writer = EnsembleWriter(tmp_path / "stream", n_traj, ens.times.size, names)
    head = integrate_stream(particle, fspec, ic, 0.0, 0.2, 20, n_traj, 9,
                            [writer], record_stride=3)
    assert not (tmp_path / "stream" / "meta.json").exists()
    writer.close(head)
    dump_ensemble(ens, tmp_path / "whole")
    arrays = {name: getattr(ens, name) for name in (*names, "times", "status")}
    for name, array in arrays.items():
        np.save(tmp_path / f"{name}.npy", array)
        saved = (tmp_path / f"{name}.npy").read_bytes()
        assert (tmp_path / "stream" / f"{name}.npy").read_bytes() == saved
        assert (tmp_path / "whole" / f"{name}.npy").read_bytes() == saved
    assert ((tmp_path / "stream" / "meta.json").read_bytes()
            == (tmp_path / "whole" / "meta.json").read_bytes())
    for dump in ("stream", "whole"):
        assert (sorted(p.name for p in (tmp_path / dump).iterdir())
                == sorted([f"{name}.npy" for name in arrays] + ["meta.json"]))
    # a dump without its meta.json does not load
    (tmp_path / "whole" / "meta.json").unlink()
    with pytest.raises(IntegrationError, match="cut off"):
        load_ensemble(tmp_path / "whole")


def test_a_streamed_dump_rebuilds_from_its_recorded_master_seed(tmp_path):
    # the dump holds no seeds: the master seed its meta.json records and
    # integrate_stream's rule rebuild each row, in every chunk, of a run
    # made across two chunks; row i starts at the draw keyed
    # (master_seed, i, 1) and stores the field of (master_seed, i, 0)
    n_traj = RESPONSE_CHUNK + 3
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.9, n_modes=8)
    particle = ParticleSpec.from_tau(1.0, 1e-3, harmonic_potential(1.0, 1.0))
    ic = stationary_guess_ic(1.0, 1.0, 1.0)
    _, n_steps, _ = comb_time_grid(fspec, 0.2, 20 * 0.2)
    writer = EnsembleWriter(tmp_path / "dump", n_traj, n_steps + 1,
                            ("positions", "velocities", "field_values"))
    writer.close(integrate_stream(particle, fspec, ic, 0.0, 0.2, 20, n_traj,
                                  13, [writer]))
    back = load_ensemble(tmp_path / "dump")
    seed = back.meta["master_seed"]
    assert seed == 13
    for i in (0, RESPONSE_CHUNK - 1, RESPONSE_CHUNK, n_traj - 1):
        x0, v0 = ic.sample(np.random.Generator(np.random.Philox(
            np.random.SeedSequence((seed, i, 1)))))
        assert back.positions[i, 0] == x0
        assert back.velocities[i, 0] == v0
        direct = eval_field(make_field(fspec, (seed, i, 0)), back.times)[0]
        assert (np.max(np.abs(back.field_values[i] - direct))
                < 1e-12 * np.max(np.abs(direct)))


def test_dump_meta_is_dumps_config_of_its_python_values(tmp_path):
    # numpy scalars, a tuple and an array in the ensemble's meta are
    # written as the Python values they hold
    ens = integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(1.0, 0.0),
                             0.0, 0.1, 5, 2, 1)
    python = {"count": 7, "scale": float(np.float32(0.1)), "pair": [1, 2.5],
              "grid": [[0.5, 1.0], [1.5, 2.0]]}
    ens.meta.update(count=np.int64(7), scale=np.float32(0.1), pair=(1, 2.5),
                    grid=np.array([[0.5, 1.0], [1.5, 2.0]]))
    dump_ensemble(ens, tmp_path / "d")
    expected = dumps_config({
        "schema_version": 1, "format": "binary", "t0": ens.t0, "dt": ens.dt,
        "n_steps": ens.n_steps, "record_stride": 1, "n_traj": 2,
        "has_field_values": True, "has_velocities": True,
        "meta": {**ens.meta, **python}})
    assert (tmp_path / "d" / "meta.json").read_text() == expected


def test_writer_peak_does_not_grow_with_the_rows(tmp_path):
    # the writer keeps nothing of the rows it appends: 200,000 rows peak
    # within 1 MB of 50,000 (an index of the rows, built at once, would add
    # 1.2 MB)
    peaks = []
    for n_traj in (50_000, 200_000):
        status = np.zeros(n_traj, dtype=np.int8)
        head = TrajectoryEnsemble(
            t0=0.0, dt=1.0, n_steps=1, record_stride=1, times=np.arange(2.0),
            positions=None, velocities=None, status=status,
            meta={})
        rows = np.ones((2048, 2))
        tracemalloc.start()
        try:
            writer = EnsembleWriter(tmp_path / str(n_traj), n_traj, 2,
                                    ("positions",))
            for lo in range(0, n_traj, 2048):
                hi = min(lo + 2048, n_traj)
                writer.take(replace(head, positions=rows[:hi - lo],
                                    status=status[lo:hi]))
            writer.close(head)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1e6
    assert np.array_equal(np.load(tmp_path / "200000" / "positions.npy"),
                          np.ones((200_000, 2)))


def test_dump_blocks_are_the_whole_arrays_rows(tmp_path):
    # a dump of integrate_ensemble (record stride 2, one row flagged), read
    # back 7 rows at a time: 3 blocks, the last short, whose positions and
    # status, concatenated, are load_ensemble's, each block on the dump's
    # own record grid
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.9, n_modes=8)
    particle = ParticleSpec.from_tau(1.0, 1e-3, harmonic_potential(1.0, 1.0))
    ens = integrate_ensemble(particle, fspec, stationary_guess_ic(1.0, 1.0, 1.0),
                             0.0, 0.2, 30, 17, 9, record_stride=2)
    ens.status[10] = STATUS_NONFINITE
    dump_ensemble(ens, tmp_path / "d")
    whole = load_ensemble(tmp_path / "d")
    blocks = [replace(b, positions=b.positions.copy())
              for b in load_blocks(tmp_path / "d", 7)]
    assert [b.n_traj for b in blocks] == [7, 7, 3]
    assert np.array_equal(np.concatenate([b.positions for b in blocks]),
                          whole.positions)
    assert np.array_equal(np.concatenate([b.status for b in blocks]),
                          whole.status)
    assert whole.status[10] == STATUS_NONFINITE
    for b in blocks:
        assert np.array_equal(b.times, whole.times)
        assert (b.t0, b.dt, b.n_steps, b.record_stride) == (
            whole.t0, whole.dt, whole.n_steps, whole.record_stride)
        assert b.record_stride == 2
        assert b.velocities is b.field_values is None
        assert b.meta == whole.meta


def test_dump_blocks_refuse_a_dump_without_meta(tmp_path):
    ens = integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(1.0, 0.0),
                             0.0, 0.1, 5, 3, 1)
    dump_ensemble(ens, tmp_path / "d")
    (tmp_path / "d" / "meta.json").unlink()
    with pytest.raises(IntegrationError, match="cut off") as err:
        next(load_blocks(tmp_path / "d", 2))
    assert str(tmp_path / "d") in str(err.value)


@pytest.mark.parametrize("array", [
    np.zeros((3, 6), dtype=np.float32),
    np.asfortranarray(np.zeros((3, 6))),
    np.zeros((4, 6)),
    np.zeros((3, 5)),
    np.zeros(18),
])
def test_dump_blocks_refuse_positions_of_another_layout(tmp_path, array):
    # positions.npy must be C-order float64 of meta.json's n_traj rows by
    # the recorded times; a file cut short is refused at its first missing
    # row
    ens = integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(1.0, 0.0),
                             0.0, 0.1, 5, 3, 1)
    dump_ensemble(ens, tmp_path / "d")
    path = tmp_path / "d" / "positions.npy"
    saved = path.read_bytes()
    np.save(path, array)
    with pytest.raises(IntegrationError, match="C-order float64") as err:
        next(load_blocks(tmp_path / "d", 2))
    assert str(path) in str(err.value)
    path.write_bytes(saved[:-8])
    with pytest.raises(IntegrationError, match="ends before row 3"):
        list(load_blocks(tmp_path / "d", 2))


def test_dump_schema_version_guard(tmp_path):
    ens = integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(1.0, 0.0),
                             0.0, 0.1, 5, 1, 1)
    dump_ensemble(ens, tmp_path / "d")
    meta_path = tmp_path / "d" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["schema_version"] = 999
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(IntegrationError, match="schema_version"):
        load_ensemble(tmp_path / "d")


# ---------------------------------------------------------------------------
# small pieces

def test_record_stride_and_time_grid():
    ens = integrate_ensemble(harmonic_particle(), ZERO_FIELD, DeltaIC(1.0, 0.0),
                             2.5, 0.1, 10, 2, 1, record_stride=3)
    # dt shrinks to the comb-exact step, which records every 3 steps
    assert ens.dt <= 0.1
    assert ens.rec_dt == 3 * ens.dt
    assert ens.positions.shape == (2, ens.n_steps // 3 + 1)
    np.testing.assert_allclose(ens.times,
                               2.5 + ens.rec_dt * np.arange(ens.times.size),
                               rtol=0, atol=1e-15)


def test_stationary_guess_widths():
    ic = stationary_guess_ic(hbar=0.7, mass=1.3, omega0=2.1)
    assert ic.x_std == pytest.approx(math.sqrt(0.7 / (2 * 1.3 * 2.1)), rel=1e-15)
    assert ic.v_std == pytest.approx(math.sqrt(0.7 * 2.1 / (2 * 1.3)), rel=1e-15)


def test_charge_tau_round_trip():
    pot = harmonic_potential(1.0, 1.0)
    a = ParticleSpec.from_tau(mass=2.0, tau=3e-4, potential=pot, c=2.5)
    assert a.tau == pytest.approx(2.0 * a.charge ** 2 / (3.0 * 2.0 * 2.5 ** 3),
                                  rel=1e-15)
    b = ParticleSpec.from_charge(mass=2.0, charge=a.charge, potential=pot, c=2.5)
    assert b.tau == pytest.approx(3e-4, rel=1e-15)


def test_particle_validation():
    pot = free_potential()
    with pytest.raises(ValueError, match="mass"):
        ParticleSpec(mass=0.0, charge=0.0, tau=0.0, potential=pot)
    with pytest.raises(ValueError, match="tau"):
        ParticleSpec(mass=1.0, charge=0.0, tau=-1e-3, potential=pot)


def test_potential_evaluators():
    x = np.array([-1.5, 0.0, 0.4, 2.0])
    harm = harmonic_potential(omega0=2.0, mass=0.5)  # stiffness 2
    np.testing.assert_allclose(harm.V(x), x ** 2, rtol=1e-15)
    np.testing.assert_allclose(harm.f(x), -2.0 * x, rtol=1e-15)
    np.testing.assert_allclose(harm.fprime(x), -2.0, rtol=1e-15)
    assert harm.omega_char(0.5) == pytest.approx(2.0, rel=1e-15)

    quart = quartic_potential(3.0)
    np.testing.assert_allclose(quart.V(x), 0.75 * x ** 4, rtol=1e-15)
    np.testing.assert_allclose(quart.f(x), -3.0 * x ** 3, rtol=1e-15)
    np.testing.assert_allclose(quart.fprime(x), -9.0 * x ** 2, rtol=1e-15)

    assert free_potential().omega_char(1.0) is None


@pytest.mark.parametrize("k4", [1.0, 3.0, 0.7, 1.3e-3])
def test_quartic_evaluators_are_pow_to_a_few_ulp(k4):
    # f and V multiply squares instead of calling pow; 10^4 values of x
    # over six decades, both signs: measured at most 2 ulp (f), 3 ulp (V)
    rng = np.random.default_rng(17)
    x = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-3.0, 3.0, 10_000)
    quart = quartic_potential(k4)
    np.testing.assert_array_max_ulp(quart.f(x), -k4 * x**3, maxulp=4)
    np.testing.assert_array_max_ulp(quart.fprime(x), -3.0 * k4 * x**2, maxulp=4)
    np.testing.assert_array_max_ulp(quart.V(x), k4 * x**4 / 4.0, maxulp=4)


def test_particle_acceleration_and_energy():
    particle = ParticleSpec.from_tau(2.0, 0.01, quartic_potential(3.0))
    x = np.array([0.5, -1.0, 1.5])
    v = np.array([0.2, 0.3, -0.7])
    e = np.array([1.0, -2.0, 0.4])
    expected = (-3.0 * x**3 - 0.01 * 9.0 * x**2 * v + particle.charge * e) / 2.0
    np.testing.assert_allclose(particle.acceleration(x, v, e), expected,
                               rtol=1e-14)
    np.testing.assert_allclose(particle.energy(x, v), v**2 + 0.75 * x**4,
                               rtol=1e-15)

