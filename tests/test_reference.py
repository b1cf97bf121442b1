"""Closed-form reference sampler and prediction tests.

The exact-kernel samplers are checked against their own moments
statistically; the finite-difference estimator predictions are checked
against conditional regressions on exact samples, so no estimator code from
the main pipeline is involved on either route.
"""

import math
import tracemalloc

import numpy as np
import pytest

from sedsim import reference
from sedsim.dynamics import (ParticleSpec, comb_time_grid, harmonic_potential,
                             quartic_potential)
from sedsim.field import FieldSpec, eval_field, make_field
from sedsim.reference import (
    gaussian_density,
    harmonic_response,
    harmonic_response_continuum,
    harmonic_trajectory,
    ou_autocorrelation,
    ou_diffusion_estimate,
    ou_ensemble,
    ou_relaxing_coefficients,
    ou_relaxing_slopes,
    ou_residual_coefficients,
    ou_stationary_variance,
    ou_u_slope_equilibrium,
    ou_variance_at,
    wiener_ensemble,
)

# Mode-by-mode response sums for the comb omega in [0.02, 2] with 512
# uniform cells, tau = 1e-2, hbar = m = omega0 = c = 1, evaluated with
# mpmath at 30 digits; and the corresponding continuum integrals.
X_VAR_512 = 0.499860594579482048622
E_512 = 0.503881299611904221101
X_VAR_CONT = 0.499607805283446073139
E_CONT = 0.503627742279384910479
# Same sum for the narrow calibration band omega in [0.9, 1.1], tau = 1e-3.
X_VAR_BAND = 0.498098811226096672022
E_BAND = 0.498138232909003136803


# ---------------------------------------------------------------------------
# exact samplers

def test_point_start_relaxes_with_the_exact_kernel():
    theta, d0 = 0.7, 0.3
    ens = ou_ensemble(theta, d0, 40000, 0.5, 5, 31, x0=2.0)
    for j in (1, 3, 5):
        col = ens.positions[:, j]
        t = float(ens.times[j])
        mean_se = col.std(ddof=1) / math.sqrt(col.size)
        assert abs(col.mean() - 2.0 * math.exp(-theta * t)) <= 3.5 * mean_se
        var = ou_variance_at(theta, d0, t)
        var_se = var * math.sqrt(2.0 / (col.size - 1))
        assert abs(col.var(ddof=1) - var) <= 3.5 * var_se


def test_stationary_start_stays_stationary():
    theta, d0 = 0.7, 0.3
    s_inf = ou_stationary_variance(theta, d0)
    ens = ou_ensemble(theta, d0, 40000, 0.5, 4, 32, x0="stationary")
    n = ens.positions.shape[0]
    for j in range(5):
        col = ens.positions[:, j]
        assert abs(col.var(ddof=1) - s_inf) <= 3.5 * s_inf * math.sqrt(2.0 / (n - 1))
    # lag-1 correlation is exp(-theta dt) by construction of the kernel
    r = np.corrcoef(ens.positions[:, 0], ens.positions[:, 1])[0, 1]
    rho = ou_autocorrelation(theta, 0.5)
    assert abs(r - rho) <= 3.5 * (1.0 - rho ** 2) / math.sqrt(n)


def test_wiener_increments():
    d0, dt = 0.4, 0.05
    ens = wiener_ensemble(d0, 30000, dt, 6, 33, x0=1.0)
    inc = np.diff(ens.positions, axis=1).ravel()
    target = 2.0 * d0 * dt
    assert abs(inc.mean()) <= 3.5 * inc.std(ddof=1) / math.sqrt(inc.size)
    assert abs(inc.var(ddof=1) - target) <= 3.5 * target * math.sqrt(2.0 / inc.size)
    assert ens.meta["process"] == "wiener"
    assert ou_variance_at(0.0, d0, 2.0, s0=0.1) == pytest.approx(0.1 + 1.6)
    assert ou_diffusion_estimate(0.0, d0, 0.3) == d0


def test_sampler_input_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        ou_ensemble(-1.0, 0.3, 10, 0.1, 2, 1)
    with pytest.raises(ValueError, match="stationary"):
        ou_ensemble(0.0, 0.3, 10, 0.1, 2, 1, x0="stationary")



def whole_array_oracle(theta, D0, n_traj, dt, n_steps, seed, x0=0.0):
    """The sampler as one whole-array noise draw and a loop over columns:
    the stationary starts, then every increment in row-major order."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = np.empty((n_traj, n_steps + 1))
    if x0 == "stationary":
        x[:, 0] = math.sqrt(D0 / theta) * rng.standard_normal(n_traj)
    else:
        x[:, 0] = float(x0)
    if theta > 0:
        rho = math.exp(-theta * dt)
        step_std = math.sqrt(D0 / theta * (1.0 - rho * rho))
    else:
        rho, step_std = 1.0, math.sqrt(2.0 * D0 * dt)
    noise = rng.standard_normal((n_traj, n_steps))
    for j in range(n_steps):
        x[:, j + 1] = rho * x[:, j] + step_std * noise[:, j]
    return x


BLOCK = reference._ROW_BLOCK


@pytest.mark.parametrize("theta, n_traj, n_steps, x0", [
    (0.8, 1, 6, 0.7),
    (0.8, 1, 6, "stationary"),
    (0.8, BLOCK, 6, 0.7),
    (0.8, BLOCK, 6, "stationary"),
    (0.8, BLOCK + 1, 6, 0.7),                 # ragged last block
    (0.8, 2 * BLOCK + 1, 6, "stationary"),
    (0.0, BLOCK + 1, 6, 0.7),                 # Wiener, through wiener_ensemble
    (0.8, BLOCK + 1, 0, "stationary"),        # starts only
    (0.8, 0, 6, "stationary"),                # no trajectories
])
def test_row_blocks_reproduce_the_whole_array_draw(theta, n_traj, n_steps, x0):
    args = (0.3, n_traj, 0.05, n_steps, (5, 2))
    ens = (wiener_ensemble(*args, x0=x0) if theta == 0
           else ou_ensemble(theta, *args, x0=x0))
    assert np.array_equal(ens.positions,
                          whole_array_oracle(theta, *args, x0=x0))
    assert ens.positions.shape == (n_traj, n_steps + 1)
    assert ens.status.shape == (n_traj,)


def test_sampler_memory_is_the_output_plus_one_block():
    # one block of noise plus a few block-long columns of temporaries (one
    # column step, one block of stationary starts); the whole-array draw
    # held n_traj x n_steps doubles of noise on top of the output
    n_steps = 40
    bound = 8 * BLOCK * (n_steps + 6)
    for n_traj in (3 * BLOCK, 12 * BLOCK):
        tracemalloc.start()
        try:
            ens = ou_ensemble(0.8, 0.3, n_traj, 0.05, n_steps, 7,
                              x0="stationary")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(a.nbytes for a in (ens.positions, ens.status,
                                        ens.times))
        assert peak - output < bound


@pytest.mark.parametrize("x0, per_row", [(0.7, 2.0), ("stationary", 10.0)])
def test_a_stream_without_consumers_holds_status_and_starts_per_row(x0,
                                                                   per_row):
    # the stream holds per row its status (1 B) and, for the stationary
    # start, the starts (8 B); no seed rows, since every row comes from
    # the one stream its seed keys
    def peak(n_traj):
        tracemalloc.start()
        try:
            reference.ou_stream(0.8, 0.3, n_traj, 0.05, 40, 7, x0=x0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(BLOCK)                       # one-time allocations out of the way
    assert peak(400_000) - peak(100_000) <= per_row * 300_000


# ---------------------------------------------------------------------------
# equilibrium estimator expectations

def test_u_slope_closed_form_and_limit():
    theta = 1.3
    for delta in (0.5, 0.1, 0.01):
        expected = (math.exp(-theta * delta) - 1.0) / delta
        assert ou_u_slope_equilibrium(theta, delta) == pytest.approx(
            expected, rel=1e-14)
    assert ou_u_slope_equilibrium(theta, 1e-8) == pytest.approx(-theta, rel=1e-6)


def test_diffusion_estimate_forms():
    theta, d0 = 1.3, 0.7
    for delta in (0.5, 0.1, 0.01):
        z = theta * delta
        subtracted = d0 * (1.0 - math.exp(-2.0 * z)) / (2.0 * z)
        assert ou_diffusion_estimate(theta, d0, delta) == pytest.approx(
            subtracted, rel=1e-14)
    assert ou_diffusion_estimate(theta, d0, 1e-9) == pytest.approx(d0, rel=1e-8)


# ---------------------------------------------------------------------------
# relaxing-ensemble fields

def test_relaxing_coefficient_identity():
    # point start: adot + a^2 + b^2 = theta^2 at all times, including the
    # free case theta = 0
    for theta, d0, t in ((0.1, 0.1, 0.2), (2.0, 0.5, 0.03), (0.0, 0.5, 1.7)):
        c = ou_relaxing_coefficients(theta, d0, t)
        assert c["adot"] + c["a"] ** 2 + c["b"] ** 2 == pytest.approx(
            theta ** 2, abs=1e-12)
        assert c["s"] == pytest.approx(ou_variance_at(theta, d0, t), rel=1e-14)


def test_relaxing_slopes_match_conditional_regression():
    # two routes: closed-form slopes vs linear regression of the symmetric
    # differences on x(t) over exact-kernel samples
    theta, d0, dt = 1.0, 0.5, 0.05
    ens = ou_ensemble(theta, d0, 300000, dt, 4, 33, x0=0.0)
    j = 3
    xm, x0, xp = (ens.positions[:, j - 1], ens.positions[:, j],
                  ens.positions[:, j + 1])
    var = x0.var()
    v_hat = float(np.mean((xp - xm) / (2 * dt) * x0) / var)
    u_hat = float(np.mean((xp + xm - 2 * x0) / (2 * dt) * x0) / var)
    pred = ou_relaxing_slopes(theta, d0, float(ens.times[j]), dt)
    assert v_hat == pytest.approx(pred["v_slope"], rel=0.03)
    assert u_hat == pytest.approx(pred["u_slope"], rel=0.03)


def test_relaxing_slopes_approach_instantaneous_fields():
    theta, d0, t = 0.8, 0.4, 0.25
    c = ou_relaxing_coefficients(theta, d0, t)
    s = ou_relaxing_slopes(theta, d0, t, 1e-6)
    assert s["v_slope"] == pytest.approx(c["a"], rel=1e-4)
    assert s["u_slope"] == pytest.approx(-c["b"], rel=1e-4)


def test_residual_coefficients_separate_early():
    # theta = 0.1, D0 = 0.1, unit mass and stiffness, t = 0.2: one branch
    # cancels down to m theta^2 + k, the other picks up 2 m b^2
    coeff = ou_residual_coefficients(0.1, 0.1, 0.2, mass=1.0, stiffness=1.0)
    assert coeff[-1] == pytest.approx(1.0 * 0.1 ** 2 + 1.0, rel=1e-12)
    assert coeff[+1] == pytest.approx(11.998400131547138, rel=1e-12)
    assert coeff[+1] / coeff[-1] > 10.0


def test_residual_minus_branch_is_time_independent():
    for t in (0.05, 0.2, 1.0, 5.0):
        coeff = ou_residual_coefficients(0.1, 0.1, t, mass=2.0, stiffness=3.0)
        assert coeff[-1] == pytest.approx(2.0 * 0.01 + 3.0, rel=1e-10)


# ---------------------------------------------------------------------------
# driven-oscillator response

def test_response_sum_matches_frozen_digits():
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.02, n_modes=512)
    resp = harmonic_response(fspec, mass=1.0, charge=math.sqrt(1.5e-2),
                             tau=1e-2, omega0=1.0)
    assert resp.x_var == pytest.approx(X_VAR_512, rel=1e-12)
    assert resp.mean_energy(1.0) == pytest.approx(E_512, rel=1e-12)


def test_narrow_band_sum_matches_frozen_digits():
    fspec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=512)
    resp = harmonic_response(fspec, mass=1.0, charge=math.sqrt(1.5e-3),
                             tau=1e-3, omega0=1.0)
    assert resp.x_var == pytest.approx(X_VAR_BAND, rel=1e-12)
    assert resp.mean_energy(1.0) == pytest.approx(E_BAND, rel=1e-12)


def test_mode_sum_converges_to_continuum():
    charge = math.sqrt(1.5e-2)
    cont = harmonic_response_continuum(
        FieldSpec(omega_cutoff=2.0, omega_min=0.02, n_modes=512),
        mass=1.0, charge=charge, tau=1e-2, omega0=1.0)
    assert cont["x_var"] == pytest.approx(X_VAR_CONT, rel=1e-9)
    assert cont["mean_energy"] == pytest.approx(E_CONT, rel=1e-9)
    errs = []
    for n in (512, 4096):
        fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.02, n_modes=n)
        resp = harmonic_response(fspec, mass=1.0, charge=charge,
                                 tau=1e-2, omega0=1.0)
        errs.append(abs(resp.x_var - cont["x_var"]))
    # 512 cells leave the resonance peak undersampled; 4096 resolve it
    assert errs[1] < errs[0] / 10.0


def test_response_autocorrelation_and_smooth_lag_limits():
    fspec = FieldSpec(omega_cutoff=2.0, omega_min=0.02, n_modes=512)
    resp = harmonic_response(fspec, mass=1.0, charge=math.sqrt(1.5e-2),
                             tau=1e-2, omega0=1.0)
    assert float(resp.autocorrelation(0.0)) == pytest.approx(1.0, rel=1e-14)
    # differentiable paths: both the osmotic slope and the finite-lag
    # diffusion estimate vanish with the lag instead of plateauing
    lags = (0.8, 0.4, 0.2, 0.1)
    d_vals = [resp.diffusion_estimate(lag) for lag in lags]
    u_vals = [abs(resp.u_slope(lag)) for lag in lags]
    assert all(a > b for a, b in zip(d_vals, d_vals[1:]))
    assert all(a > b for a, b in zip(u_vals, u_vals[1:]))
    assert resp.diffusion_estimate(0.01) < 0.05 * resp.x_var


def test_shipped_band_closed_forms_fall_short_of_criteria_1_and_3():
    # the shipped sed run's field and particle: the finite-lag closed forms
    # that its measured D sweep, u slope and driven margin follow. No lag
    # in [0.05, 30] brings D to criterion 1's lower edge 0.45 or u's slope
    # to the wave equation's -1, and at the classifier's lag (two records
    # of the resolved grid, 2.397) the margin bound is under criterion 3's 5
    fspec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=512)
    particle = ParticleSpec.from_tau(1.0, 1e-3, harmonic_potential(1.0, 1.0))
    resp = harmonic_response(fspec, particle.mass, particle.charge,
                             particle.tau, omega0=1.0)
    lags = np.arange(0.05, 30.0, 0.01)
    d_pred = np.array([resp.diffusion_estimate(lag) for lag in lags])
    u_slope = np.array([resp.u_slope(lag) for lag in lags])
    assert d_pred.max() == pytest.approx(0.1805, abs=5e-5)
    assert d_pred.max() < 0.45
    assert lags[d_pred.argmax()] == pytest.approx(1.17, abs=0.01)
    assert u_slope.min() == pytest.approx(-0.7246, abs=5e-5)
    assert u_slope.min() > -1.0
    assert lags[u_slope.argmin()] == pytest.approx(2.33, abs=0.01)
    dt, _, _ = comb_time_grid(fspec, 0.2, 1e4)
    lag = 2 * 6 * dt
    assert lag == pytest.approx(2.397, abs=5e-4)
    rho_lag = float(resp.autocorrelation(lag))
    assert rho_lag == pytest.approx(-0.7354, abs=5e-5)
    bound = (1.0 + rho_lag**2) / (1.0 - rho_lag**2)
    assert bound == pytest.approx(3.3555, abs=5e-5)
    assert bound < 5.0


def test_harmonic_trajectory_solves_the_driven_equation():
    fspec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=64)
    particle = ParticleSpec.from_tau(2.0, 1e-2, harmonic_potential(0.8, 2.0))
    fr = make_field(fspec, (3, 0, 0))
    t = np.linspace(5.0, 25.0, 4001)
    x, v = harmonic_trajectory(fr, particle, t, 0.3, -0.2)
    assert x[0] == pytest.approx(0.3, abs=1e-14)
    assert v[0] == pytest.approx(-0.2, abs=1e-14)
    # x'' + gamma x' + omega0^2 x = (e/m) E by central differences, whose
    # own error here is ~1e-6 of x''
    h = t[1] - t[0]
    xdd = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / h**2
    gamma = particle.tau * 0.8**2
    drive = particle.charge / particle.mass * eval_field(fr, t[1:-1])[0]
    resid = xdd + gamma * v[1:-1] + 0.8**2 * x[1:-1] - drive
    assert np.max(np.abs(resid)) <= 1e-5 * np.max(np.abs(xdd))
    vdiff = (x[2:] - x[:-2]) / (2.0 * h)
    assert np.max(np.abs(vdiff - v[1:-1])) <= 1e-5 * np.max(np.abs(v))


def test_harmonic_trajectory_without_a_field_is_the_damped_cosine():
    quiet = FieldSpec(omega_cutoff=2.0, n_modes=4, hbar=0.0)
    particle = ParticleSpec.from_tau(1.0, 0.01, harmonic_potential(1.0, 1.0))
    t = np.linspace(0.0, 50.0, 501)
    x, v = harmonic_trajectory(make_field(quiet, 1), particle, t, 1.0, 0.0)
    gamma = 0.01
    wd = math.sqrt(1.0 - gamma**2 / 4.0)
    exact = np.exp(-gamma * t / 2.0) * (np.cos(wd * t)
                                        + gamma / (2.0 * wd) * np.sin(wd * t))
    np.testing.assert_allclose(x, exact, rtol=0, atol=1e-13)
    with pytest.raises(ValueError, match="harmonic"):
        harmonic_trajectory(make_field(quiet, 1),
                            ParticleSpec.from_tau(1.0, 0.01, quartic_potential(1.0)),
                            t, 1.0, 0.0)


def test_gaussian_density_is_normalized():
    x = np.linspace(-12.0, 12.0, 4001)
    rho = gaussian_density(x, 1.7)
    assert np.trapezoid(rho, x) == pytest.approx(1.0, rel=1e-10)
    assert float(gaussian_density(0.0, 2.0)) == pytest.approx(
        1.0 / (2.0 * math.sqrt(2.0 * math.pi)), rel=1e-14)
