"""Closed-form reference processes and predictions.

Everything here is independent of the trajectory integrator: exact
transition-kernel samplers for Ornstein-Uhlenbeck and Wiener processes, and
analytic expectations (stationary moments, finite-difference estimator
values, residual coefficients, discrete linear-response sums). Validation
always runs two routes, simulation output on one side and a function from
this module on the other.

Conventions: the position process is dx = -theta x dt + sqrt(2 D0) dW, so
the stationary variance is D0/theta and the short-time diffusion constant
(dx)^2 / (2 dt) is D0. Estimated fields use v = (x(t+dt) - x(t-dt))/(2 dt)
and u = (x(t+dt) + x(t-dt) - 2 x(t))/(2 dt), conditioned on x(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad

from .dynamics import ParticleSpec, TrajectoryEnsemble
from .field import (FieldRealization, FieldSpec, eval_field, mode_table,
                    spectral_density)


# ---------------------------------------------------------------------------
# exact samplers

def ou_ensemble(theta: float, D0: float, n_traj: int, dt: float,
                n_steps: int, seed: int, x0=0.0,
                t0: float = 0.0) -> TrajectoryEnsemble:
    """Sample an Ornstein-Uhlenbeck ensemble with the exact transition kernel.

    There is no discretization error: x(t+dt) | x(t) is Gaussian with mean
    exp(-theta dt) x(t) and variance (D0/theta)(1 - exp(-2 theta dt)).
    theta = 0 degenerates to a Wiener process with increment variance
    2 D0 dt. x0 may be a float (all trajectories start there) or
    "stationary" (equilibrium draw, theta > 0 only).
    """
    if theta < 0 or D0 < 0:
        raise ValueError("theta and D0 must be nonnegative")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = np.empty((n_traj, n_steps + 1))
    if x0 == "stationary":
        if theta <= 0:
            raise ValueError("stationary start requires theta > 0")
        x[:, 0] = math.sqrt(D0 / theta) * rng.standard_normal(n_traj)
    else:
        x[:, 0] = float(x0)
    if theta > 0:
        rho = math.exp(-theta * dt)
        step_std = math.sqrt(D0 / theta * (1.0 - rho * rho))
    else:
        rho = 1.0
        step_std = math.sqrt(2.0 * D0 * dt)
    noise = rng.standard_normal((n_traj, n_steps))
    for j in range(n_steps):
        x[:, j + 1] = rho * x[:, j] + step_std * noise[:, j]

    seed_key = seed if isinstance(seed, int) else (seed[0] if len(seed) else 0)
    seeds = np.empty((n_traj, 2), dtype=np.int64)
    seeds[:, 0] = int(seed_key)
    seeds[:, 1] = np.arange(n_traj)
    times = t0 + dt * np.arange(n_steps + 1)
    return TrajectoryEnsemble(
        t0=t0, dt=dt, n_steps=n_steps, record_stride=1, times=times,
        positions=x, velocities=None, seeds=seeds,
        status=np.zeros(n_traj, dtype=np.int8),
        meta={"process": "ou", "theta": theta, "D0": D0,
              "x0": x0 if isinstance(x0, str) else float(x0),
              "master_seed": list(seed) if isinstance(seed, tuple) else int(seed)},
    )


def wiener_ensemble(D0: float, n_traj: int, dt: float, n_steps: int,
                    seed: int, x0: float = 0.0,
                    t0: float = 0.0) -> TrajectoryEnsemble:
    """Wiener process from a point start; exact increments."""
    ens = ou_ensemble(0.0, D0, n_traj, dt, n_steps, seed, x0=x0, t0=t0)
    ens.meta["process"] = "wiener"
    return ens


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck expectations

def ou_stationary_variance(theta: float, D0: float) -> float:
    return D0 / theta


def ou_autocorrelation(theta: float, delta: float) -> float:
    return math.exp(-theta * abs(delta))


def ou_variance_at(theta: float, D0: float, t: float, s0: float = 0.0) -> float:
    """Variance of a point/Gaussian start after time t."""
    if theta == 0:
        return s0 + 2.0 * D0 * t
    s_inf = D0 / theta
    return s_inf + (s0 - s_inf) * math.exp(-2.0 * theta * t)


def ou_u_slope_equilibrium(theta: float, delta: float) -> float:
    """Slope of the osmotic estimate u(x) in equilibrium: u = slope * x.

    E[x(t +/- delta) | x] = exp(-theta delta) x in the stationary state, so
    u = (exp(-theta delta) - 1) x / delta; the delta -> 0 limit is -theta,
    matching u = D grad(log rho) = -(theta/D0) D0 x / (D0/theta) ... = -theta x.
    """
    return math.expm1(-theta * delta) / delta


def ou_diffusion_estimate(theta: float, D0: float, delta: float,
                          subtract_mean: bool = True) -> float:
    """Expected finite-difference diffusion estimate in equilibrium.

    Raw: E[(x(t+delta) - x(t))^2] / (2 delta) = D0 (1 - exp(-theta delta)) /
    (theta delta). With the conditional mean removed the residual variance is
    s (1 - rho^2), giving D0 (1 - exp(-2 theta delta)) / (2 theta delta).
    Both converge to D0 as delta -> 0.
    """
    if theta == 0:
        return D0
    z = theta * delta
    if subtract_mean:
        return D0 * -math.expm1(-2.0 * z) / (2.0 * z)
    return D0 * -math.expm1(-z) / z


def ou_relaxing_coefficients(theta: float, D0: float, t: float,
                             s0: float = 0.0) -> dict:
    """Instantaneous linear coefficients of the relaxing ensemble at time t.

    The density is Gaussian with variance s(t); the current velocity is
    v = a x with a = sdot/(2 s) and the osmotic velocity is u = -b x with
    b = D0/s. For a point start these satisfy adot + a^2 + b^2 = theta^2
    identically.
    """
    s = ou_variance_at(theta, D0, t, s0)
    if s <= 0:
        raise ValueError("variance not positive at the requested time")
    sdot = 2.0 * (D0 - theta * s)
    a = sdot / (2.0 * s)
    b = D0 / s
    # sdot = 2(D0 - theta s) implies sddot = -2 theta sdot, valid for theta = 0 too
    adot = (-2.0 * theta * sdot * s - sdot * sdot) / (2.0 * s * s)
    return {"s": s, "a": a, "b": b, "adot": adot}


def ou_relaxing_slopes(theta: float, D0: float, t: float, delta: float,
                       s0: float = 0.0) -> dict:
    """Exact finite-delta estimator slopes on a relaxing ensemble.

    E[x(t+delta)|x] = rho x and E[x(t-delta)|x] = rho (s(t-delta)/s(t)) x
    with rho = exp(-theta delta), so the measured v and u fields are linear
    with the returned slopes; they approach a and -b from
    ou_relaxing_coefficients as delta -> 0.
    """
    rho = math.exp(-theta * delta)
    s_now = ou_variance_at(theta, D0, t, s0)
    s_back = ou_variance_at(theta, D0, t - delta, s0)
    ratio = s_back / s_now
    v_slope = rho * (1.0 - ratio) / (2.0 * delta)
    u_slope = (rho * (1.0 + ratio) - 2.0) / (2.0 * delta)
    return {"v_slope": v_slope, "u_slope": u_slope}


def ou_residual_coefficients(theta: float, D0: float, t: float,
                             mass: float, stiffness: float,
                             s0: float = 0.0) -> dict:
    """Predicted momentum-balance residual coefficients per unit |x|.

    For linear fields v = a x, u = -b x the residual of
    m (D_c v - lam D_s u) = f with f = -k x is
    R(lam) = [m (adot + a^2 - lam b^2) + k] x. For a point start
    adot + a^2 + b^2 = theta^2, so R(-1) = (m theta^2 + k) |x| at all times
    while R(+1) grows like 2 m b^2 early in the relaxation; the branch
    classifier separates the two on a window where s(t) is still far from
    equilibrium.
    """
    c = ou_relaxing_coefficients(theta, D0, t, s0)
    base = c["adot"] + c["a"] ** 2
    return {
        -1: abs(mass * (base + c["b"] ** 2) + stiffness),
        +1: abs(mass * (base - c["b"] ** 2) + stiffness),
    }


# ---------------------------------------------------------------------------
# driven harmonic oscillator: discrete linear response

@dataclass(frozen=True)
class HarmonicResponse:
    """Stationary linear response of a damped oscillator to the mode comb.

    weights[n] is the variance contributed by mode n, computed directly from
    the synthesized amplitudes: 0.5 (e amp_n / m)^2 |H(omega_n)|^2 with
    H = 1/(omega0^2 - omega^2 + i gamma omega) and gamma = tau omega0^2.
    This predicts what the discretized simulation converges to; the
    continuum integral (quadrature) is the mode-count limit.
    """

    omegas: np.ndarray
    weights: np.ndarray
    omega0: float
    gamma: float

    @property
    def x_var(self) -> float:
        return float(np.sum(self.weights))

    @property
    def v_var(self) -> float:
        return float(np.sum(self.weights * self.omegas**2))

    def mean_energy(self, mass: float) -> float:
        return 0.5 * mass * (self.v_var + self.omega0**2 * self.x_var)

    def autocorrelation(self, delta):
        """Normalized position autocorrelation rho(delta)."""
        delta = np.asarray(delta, dtype=float)
        num = np.tensordot(self.weights,
                           np.cos(np.multiply.outer(self.omegas, delta)), axes=1)
        return num / self.x_var

    def u_slope(self, delta: float) -> float:
        """Expected osmotic-estimate slope -(1 - rho(delta))/delta."""
        return -(1.0 - float(self.autocorrelation(delta))) / delta

    def va_slope(self, delta: float) -> float:
        """Expected slope of v - u; the current velocity estimate averages
        to zero in the stationary state, so this is -u_slope."""
        return -self.u_slope(delta)

    def diffusion_estimate(self, delta: float, subtract_mean: bool = True) -> float:
        rho = float(self.autocorrelation(delta))
        if subtract_mean:
            return self.x_var * (1.0 - rho * rho) / (2.0 * delta)
        return self.x_var * (1.0 - rho) / delta


def susceptibility(omega, omega0: float, gamma: float):
    """H(omega) = 1/(omega0^2 - omega^2 + i gamma omega): the steady
    response of x'' + gamma x' + omega0^2 x to the drive e^{i omega t}."""
    return 1.0 / (omega0**2 - np.square(omega) + 1j * gamma * np.asarray(omega))


def harmonic_response(fspec: FieldSpec, mass: float, charge: float,
                      tau: float, omega0: float) -> HarmonicResponse:
    omegas, dws, _amps = mode_table(fspec)
    s_vals = spectral_density(fspec, omegas)
    gamma = tau * omega0**2
    h2 = np.abs(susceptibility(omegas, omega0, gamma)) ** 2
    weights = (charge / mass) ** 2 * s_vals * dws * h2
    return HarmonicResponse(omegas=omegas, weights=weights,
                            omega0=omega0, gamma=gamma)


def harmonic_trajectory(fr: FieldRealization, particle: ParticleSpec, t,
                        x0: float, v0: float):
    """Exact trajectory of the reduced-order harmonic equation driven by one
    field realization (Boyer, Phys. Rev. D 11, 790 (1975)):

        x'' + gamma x' + omega0^2 x = (e/m) E(t),
        omega0^2 = k/m, gamma = tau omega0^2.

    The steady response to E = Re sum_n c_n e^{i omega_n t} is the mode sum
    Re sum_n (e/m) c_n H(omega_n) e^{i omega_n t}, evaluated directly; the
    homogeneous solution, which decays as exp(-gamma t/2), is added so that
    x = x0 and x' = v0 at t[0]. No time stepping is involved, so this checks
    the integrator independently. Returns (x, v) at the times t.
    """
    if particle.potential.kind != "harmonic":
        raise ValueError("harmonic_trajectory needs a harmonic potential")
    if fr.phases.shape[0] != 1:
        raise ValueError("harmonic_trajectory needs a one-component field")
    w0sq = particle.potential.params["stiffness"] / particle.mass
    gamma = particle.tau * w0sq
    if gamma >= 2.0 * math.sqrt(w0sq):
        raise ValueError("harmonic_trajectory needs an underdamped oscillator")
    t = np.asarray(t, dtype=float)
    resp = (particle.charge / particle.mass) * fr.amps * susceptibility(
        fr.omegas, math.sqrt(w0sq), gamma)
    # the steady x and v are mode sums like the field itself
    phases = fr.phases + np.angle(resp)
    x = eval_field(replace(fr, amps=np.abs(resp), phases=phases), t)[0]
    v = eval_field(replace(fr, amps=np.abs(resp) * fr.omegas,
                           phases=phases + 0.5 * math.pi), t)[0]
    wd = math.sqrt(w0sq - 0.25 * gamma**2)
    a = x0 - x[0]
    b = (v0 - v[0] + 0.5 * gamma * a) / wd
    s = t - t[0]
    decay, cos, sin = np.exp(-0.5 * gamma * s), np.cos(wd * s), np.sin(wd * s)
    x += decay * (a * cos + b * sin)
    v += decay * ((wd * b - 0.5 * gamma * a) * cos - (wd * a + 0.5 * gamma * b) * sin)
    return x, v


def harmonic_response_continuum(fspec: FieldSpec, mass: float, charge: float,
                                tau: float, omega0: float) -> dict:
    """Continuum (infinite mode count) limit of the band response."""
    gamma = tau * omega0**2
    coef = (charge / mass) ** 2 * 2.0 * fspec.hbar / (3.0 * math.pi * fspec.c**3)

    def integrand(w, power):
        return coef * w**3 * w**power / ((omega0**2 - w**2) ** 2 + (gamma * w) ** 2)

    pieces = []
    # split at the resonance; quad handles the sharp peak far better that way
    edges = sorted({fspec.omega_min, fspec.omega_cutoff,
                    min(max(omega0, fspec.omega_min), fspec.omega_cutoff)})
    for power in (0, 2):
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            val, _ = quad(integrand, a, b, args=(power,), limit=400,
                          epsabs=1e-13, epsrel=1e-11)
            total += val
        pieces.append(total)
    x_var, v_var = pieces
    return {"x_var": x_var, "v_var": v_var,
            "mean_energy": 0.5 * mass * (v_var + omega0**2 * x_var)}


def ground_state_reference(hbar: float, mass: float, omega0: float) -> dict:
    """Moments of the oscillator ground state.

    The narrow-band weak-coupling fixed point of the driven oscillator
    matches these: var(x) = hbar/(2 m omega0), var(v) = hbar omega0/(2 m),
    mean energy hbar omega0 / 2, Gaussian density.
    """
    x_var = hbar / (2.0 * mass * omega0)
    return {
        "x_var": x_var,
        "v_var": hbar * omega0 / (2.0 * mass),
        "mean_energy": 0.5 * hbar * omega0,
        "density_sigma": math.sqrt(x_var),
        "diffusion": hbar / (2.0 * mass),
    }


def gaussian_density(x, sigma: float):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
