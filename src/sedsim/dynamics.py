"""Ensemble integration of charged-particle motion in the zero-point field.

The equation of motion is the radiation-reaction form

    m x'' = f(x) + m tau x''' + e E(t),     tau = 2 e^2 / (3 m c^3),

integrated after order reduction: the third-derivative term admits runaway
solutions, so m tau x''' is replaced by tau f'(x) x' (substituting
m x'' ~ f on the small term), exact to O(tau^2). The synthesized field is a
smooth function of time once its phases are drawn, so each trajectory is an
ordinary (non-stochastic) ODE integrated with classical RK4; field values at
substage times come from the mode sum on the half-step grid, one slab of
_SLAB half steps at a time, just ahead of the steps that read it
(field.comb_sum_slabs).

For the harmonic potential the force is linear in x, so one RK4 step is an
affine map s_{k+1} = M s_k + G u_k of the state s = (x, v), with u_k the
field at the start, the midpoint and the end of step k and M the RK4
stability polynomial of the system matrix times dt. M and G are read off
by applying the RK4 step itself to unit inputs. The field is a sum of comb
modes, so the RK4 trajectory is known exactly at every step, the discrete
form of Boyer's mode-sum response (Phys. Rev. D 11, 790 (1975)): a steady
part Re sum_n c_n K_n e^{i omega_n t_k} with
K_n = (z_n I - M)^{-1} G (1, zeta_n, zeta_n^2), zeta_n = e^{i omega_n dt/2},
z_n = zeta_n^2, plus the transient P^j (s_0 - s_p(0)), P = M^record_stride,
at record j. field.comb_sum_grid evaluates the steady x and v and the
stored field on the record grid only, so this response path builds no
field table and takes no step. It and the step loop used for every other
potential compute the same RK4 trajectory and differ by rounding only: at
most 3.2e-12 sigma_x over the shipped run, 1.2e-11 at tau = 1e-5. Both
paths store the field from comb_sum_grid. ens.meta["integrator"] names the
path that ran; on the response path ens.meta["rk4_spectral_radius"] holds
max|lambda(M)|, and a warning is recorded when it is at least 1.
"""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .field import (FieldSpec, comb_cache_params, comb_sum_grid,
                    comb_sum_slabs, make_field, mode_table)

# Trajectories are integrated in fixed-size chunks regardless of worker
# count, so results are bit-identical across schedules. On sedbench's
# quartic comb (1,024 trajectories, 6,000 steps, 3 alternating runs) the
# step loop took 243-350 ns per trajectory-step, synthesis included, at
# 512 wide, 359-468 at 256, and 239-252 at 1,024 for twice the slab.
CHUNK = 512

# Half steps per field slab of the step loop; a chunk's slab is
# CHUNK x (_SLAB + 1) doubles, 33.6 MB. Each slab is one Bluestein
# convolution of length n_modes + _SLAB per row, so shorter slabs cost
# more per point: 512 rows of sedbench's quartic run took 0.47-0.51 s at
# 8,192 and 0.57-0.62 s at 4,096.
_SLAB = 8192

# Rows of a chunk that take their transient together on the response path;
# each temporary is ROW_BLOCK x n_rec doubles, 2.1 MB on the shipped grid.
ROW_BLOCK = 32

# Records per block of the transient on the response path; see _add_transient.
_TRANSIENT_BLOCK = 64

# Values per block of the window reductions in energy_balance and
# relaxation_curve, 2 MB of doubles per copied array.
_REDUCE_BLOCK = 1 << 18

DUMP_SCHEMA_VERSION = 1


class IntegrationError(ValueError):
    """Raised for precondition violations (step size, empty windows, ...)."""


# ---------------------------------------------------------------------------
# potentials

@dataclass(frozen=True)
class Potential:
    """External conservative potential with force and force-gradient
    evaluators; a constant gradient (harmonic, free) is a scalar."""

    kind: str
    V: callable
    f: callable
    fprime: callable
    params: dict = dc_field(default_factory=dict)

    @property
    def linear(self) -> bool:
        """Force -k x with a constant k, so that one RK4 step is an affine
        map and the integrator takes the response path. Only the harmonic
        kind qualifies; the free particle, whose step map has the double
        eigenvalue 1, stays on the step loop."""
        return self.kind == "harmonic"

    def omega_char(self, mass: float) -> float | None:
        """Characteristic angular frequency from curvature at the minimum."""
        k = self.params.get("stiffness")
        if k is not None and k > 0:
            return math.sqrt(k / mass)
        return None


def free_potential() -> Potential:
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return Potential(kind="free", V=zero, f=zero, fprime=lambda x: 0.0)


def harmonic_potential(omega0: float, mass: float) -> Potential:
    """V = (1/2) m omega0^2 x^2."""
    k = mass * omega0**2
    return Potential(
        kind="harmonic",
        V=lambda x: 0.5 * k * np.square(x),
        f=lambda x: -k * np.asarray(x, dtype=float),
        fprime=lambda x: -k,
        params={"omega0": omega0, "stiffness": k},
    )


def quartic_potential(k4: float) -> Potential:
    """V = (1/4) k4 x^4. The powers are products of squares: an array ** 3
    or ** 4 goes through libm pow, 15x slower than a multiply, and the RK4
    loop evaluates the force four times per step."""
    return Potential(
        kind="quartic",
        V=lambda x: 0.25 * k4 * np.square(np.square(x)),
        f=lambda x: -k4 * (x * np.square(x)),
        fprime=lambda x: -3.0 * k4 * np.square(x),
        params={"k4": k4},
    )


def tabulated_potential(x_table, V_table) -> Potential:
    """Cubic-spline potential; force is the exact spline derivative."""
    # imported here: scipy.interpolate doubles the package's import time,
    # and no shipped config tabulates its potential
    from scipy.interpolate import CubicSpline

    x_table = np.asarray(x_table, dtype=float)
    V_table = np.asarray(V_table, dtype=float)
    spline = CubicSpline(x_table, V_table)
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)
    imin = int(np.argmin(V_table))
    # local stiffness estimate for the characteristic frequency
    k_est = float(d2(x_table[imin]))
    return Potential(
        kind="tabulated",
        V=spline,
        f=lambda x: -d1(x),
        fprime=lambda x: -d2(x),
        params={"stiffness": k_est if k_est > 0 else None,
                "x_min": float(x_table[0]), "x_max": float(x_table[-1])},
    )


# ---------------------------------------------------------------------------
# particle

@dataclass(frozen=True)
class ParticleSpec:
    """Mass, charge, radiation-reaction time and the external potential.

    charge and tau are linked by tau = 2 e^2 / (3 m c^3); use the from_tau /
    from_charge constructors to keep them consistent. Order reduction is
    valid for tau * omega_char << 1; above 0.1 the integrator records a
    warning.
    """

    mass: float
    charge: float
    tau: float
    potential: Potential
    c: float = 1.0

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")

    @classmethod
    def from_tau(cls, mass: float, tau: float, potential: Potential,
                 c: float = 1.0) -> "ParticleSpec":
        charge = math.sqrt(1.5 * mass * c**3 * tau)
        return cls(mass=mass, charge=charge, tau=tau, potential=potential, c=c)

    @classmethod
    def from_charge(cls, mass: float, charge: float, potential: Potential,
                    c: float = 1.0) -> "ParticleSpec":
        tau = 2.0 * charge**2 / (3.0 * mass * c**3)
        return cls(mass=mass, charge=charge, tau=tau, potential=potential, c=c)

    def acceleration(self, x, v, e):
        """x'' of the reduced-order equation at position x, velocity v and
        field value e: (f(x) + tau f'(x) v + charge e) / m."""
        pot = self.potential
        return (pot.f(x) + self.tau * pot.fprime(x) * v + self.charge * e) / self.mass

    def energy(self, x, v):
        """Mechanical energy m v^2 / 2 + V(x)."""
        return 0.5 * self.mass * v**2 + self.potential.V(x)


# ---------------------------------------------------------------------------
# initial-condition samplers

class DeltaIC:
    """All trajectories start at exactly (x0, v0)."""

    def __init__(self, x0: float = 0.0, v0: float = 0.0):
        self.x0, self.v0 = float(x0), float(v0)

    def sample(self, rng):
        return self.x0, self.v0


class GaussianIC:
    """Independent Gaussian draws in position and velocity."""

    def __init__(self, x_std: float, v_std: float,
                 x_mean: float = 0.0, v_mean: float = 0.0):
        self.x_std, self.v_std = float(x_std), float(v_std)
        self.x_mean, self.v_mean = float(x_mean), float(v_mean)

    def sample(self, rng):
        return (self.x_mean + self.x_std * rng.standard_normal(),
                self.v_mean + self.v_std * rng.standard_normal())


def stationary_guess_ic(hbar: float, mass: float, omega0: float) -> GaussianIC:
    """Gaussian phase-space guess with the stationary widths of a driven
    harmonic oscillator: var(x) = hbar/(2 m omega0), var(v) = hbar omega0/(2 m)."""
    return GaussianIC(x_std=math.sqrt(hbar / (2 * mass * omega0)),
                      v_std=math.sqrt(hbar * omega0 / (2 * mass)))


# ---------------------------------------------------------------------------
# ensembles

STATUS_OK = 0
STATUS_NONFINITE = 1


@dataclass
class TrajectoryEnsemble:
    """Recorded trajectories on a shared uniform time grid.

    positions/velocities have shape (n_traj, n_rec); times is the recorded
    grid (thinned by record_stride from the integration grid). A trajectory
    that develops non-finite state keeps NaN records from that point on and
    carries STATUS_NONFINITE, never silently.
    """

    t0: float
    dt: float
    n_steps: int
    record_stride: int
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray | None
    seeds: np.ndarray          # (n_traj, 2): rows (master_seed, trajectory index)
    status: np.ndarray         # (n_traj,) int8
    field_values: np.ndarray | None = None
    meta: dict = dc_field(default_factory=dict)

    @property
    def n_traj(self) -> int:
        return self.positions.shape[0]

    @property
    def rec_dt(self) -> float:
        return self.dt * self.record_stride

    def ok_mask(self) -> np.ndarray:
        return self.status == STATUS_OK

    def intact(self, name: str, cols=None) -> np.ndarray:
        """STATUS_OK rows of positions, velocities or field_values, limited
        to the recorded columns cols (mask or indices) when given. Copies only
        the selection; returns the stored array when nothing is excluded."""
        arr = getattr(self, name)
        ok = self.ok_mask()
        if ok.all():
            return arr if cols is None else arr[:, cols]
        return arr[ok] if cols is None else arr[np.ix_(ok, cols)]


def _step_response(step, omegas, h2: float, stride: int):
    """RK4's step map for a force linear in x, and its exact response to
    each comb mode.

    With s = (x, v) and u_k the field at the start, the midpoint and the
    end of step k, one step is s_{k+1} = M s_k + G u_k; M and G are read off
    by applying step to unit states and unit field values, so the map is
    RK4's own. A mode e^{i omega t}, with zeta = e^{i omega h2} and
    z = zeta^2, gives u_k = e^{i omega t_k} (1, zeta, zeta^2), so the steady
    state it drives is s_k = e^{i omega t_k} K with
    K = (z I - M)^{-1} G (1, zeta, zeta^2). Returns (rho, K, P): rho the
    spectral radius max|lambda(M)|, K of shape (2, n_modes), and
    P = M^stride, the map from one record to the next.
    """
    M = np.column_stack([step(1.0, 0.0, 0.0, 0.0, 0.0),
                         step(0.0, 1.0, 0.0, 0.0, 0.0)])
    G = np.column_stack([step(0.0, 0.0, *u) for u in np.eye(3)])
    zeta = np.exp(1j * omegas * h2)
    z = zeta * zeta
    g = G[:, :1] + G[:, 1:2] * zeta + G[:, 2:] * z
    det = (z - M[0, 0]) * (z - M[1, 1]) - M[0, 1] * M[1, 0]
    K = np.array([(z - M[1, 1]) * g[0] + M[0, 1] * g[1],
                  M[1, 0] * g[0] + (z - M[0, 0]) * g[1]]) / det
    rho = float(np.max(np.abs(np.linalg.eigvals(M))))
    return rho, K, np.linalg.matrix_power(M, stride)


def _add_transient(x, v, x0, v0, P, growth: float):
    """Add the homogeneous part P^j (s_0 - s_p(0)) to the steady records
    x, v (rows, n_rec) in place, so that each row starts at (x0, v0).

    Records go in blocks of B: each row's block starts Q^b d, Q = P^B, come
    from a loop over blocks, and inside a block the shared powers P^r,
    r < B, follow. growth is the log of P's spectral radius where it
    exceeds 1, else 0; B keeps the growth within a block below 2^64, so
    the shared powers stay finite also when RK4 is unstable, and a row
    overflows when its own state does, as on the step loop.
    """
    n_rec = x.shape[1]
    block = max(1, min(_TRANSIENT_BLOCK, n_rec,
                       int(64 * math.log(2.0) / growth) if growth else n_rec))
    powers = [np.eye(2)]
    for _ in range(block):
        powers.append(powers[-1] @ P)
    Q = powers.pop()
    W = np.array(powers)                       # (block, 2, 2)
    n_blocks = -(-n_rec // block)
    d = np.empty((2, x.shape[0], n_blocks))
    dx, dv = x0 - x[:, 0], v0 - v[:, 0]
    for b in range(n_blocks):
        d[0, :, b], d[1, :, b] = dx, dv
        dx, dv = Q[0, 0] * dx + Q[0, 1] * dv, Q[1, 0] * dx + Q[1, 1] * dv
    for lo in range(0, x.shape[0], ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        for i, rec in enumerate((x[rows], v[rows])):
            h = (d[0, rows, :, None] * W[:, i, 0]
                 + d[1, rows, :, None] * W[:, i, 1])
            rec += h.reshape(len(rec), -1)[:, :n_rec]
    x[:, 0], v[:, 0] = x0, v0


def comb_time_grid(fspec: FieldSpec, dt: float, span: float):
    """(dt, n_steps, n_fft): the step, at most dt, and the step count of a
    run of length span whose 2 n_steps + 1 half-step field points lie on
    the uniform comb's FFT-exact grid of period n_fft half steps
    (comb_sum_grid). A resolved grid resolves to itself.
    Refuses a non-positive span or dt, a non-uniform comb, and a run that
    does not end inside the comb period, where the field repeats. Inside
    it, each widening grows n_fft strictly, and any n_fft >= 3 period /
    (period - span) holds the run, so the widening ends; but a span just
    short of the period would shrink the step without limit, so a widening
    that takes the step below dt/2 is refused before anything is
    integrated."""
    if span <= 0 or dt <= 0:
        raise IntegrationError("need a positive run length and dt")
    if fspec.mode_spacing != "uniform":
        raise IntegrationError("the integrator needs uniform mode spacing")
    h, n_fft = comb_cache_params(fspec, h_target=dt / 2.0)
    period = h * n_fft       # 2 pi n_modes/(omega_cutoff - omega_min)
    if span >= period:
        raise IntegrationError(
            f"run length {span:g} does not fit inside the comb period "
            f"2 pi n_modes/(omega_cutoff - omega_min) = {period:g}")
    while True:
        n_steps = max(1, int(math.ceil(span / (2.0 * h) - 1e-9)))
        if n_fft >= 2 * n_steps + 1:
            return 2.0 * h, n_steps, n_fft
        h, n_fft = comb_cache_params(fspec, h_target=dt / 2.0,
                                     min_points=2 * n_steps + 1)
        if 2.0 * h < dt / 2.0:
            raise IntegrationError(
                f"run length {span:g} ends {period - span:.3g} before the "
                f"comb period {period:g}; holding it would take the step "
                f"below dt/2 = {dt / 2.0:g}")


def integrate_ensemble(particle: ParticleSpec, fspec: FieldSpec, ic,
                       t0: float, dt: float, n_steps: int, n_traj: int,
                       master_seed: int, record_stride: int = 1,
                       n_workers: int = 1, store_field: bool = True,
                       progress=None) -> TrajectoryEnsemble:
    """Integrate n_traj independent trajectories of the reduced-order equation.

    Each trajectory is driven by its own field realization seeded from
    (master_seed, trajectory index); results are bit-identical across runs
    and across n_workers. dt must resolve the fastest synthesized mode:
    dt <= 2 pi / (10 omega_cutoff); the run goes on the grid
    comb_time_grid(fspec, dt, n_steps dt), whose step and step count are
    ens.dt and ens.n_steps. A warning is recorded in meta when dt
    exceeds 2 pi / (10 omega_loc), omega_loc = sqrt(max |f'(x)| / m) over
    the recorded positions. Potentials whose force is linear in x
    (Potential.linear) take RK4's exact response on the record grid, a
    chunk at a time; the others step RK4 in a loop, reading the field of a
    chunk from slabs of _SLAB half steps (comb_sum_slabs) filled just ahead
    of the steps. Neither path holds a field table of the whole run.
    progress, when given, is called as progress(done, n_traj) each time a
    chunk of CHUNK trajectories finishes, done counting the trajectories
    finished so far; calls never overlap, also with n_workers > 1.
    """
    if n_traj < 1:
        raise IntegrationError("n_traj must be at least 1")
    dt_max = 2.0 * math.pi / (10.0 * fspec.omega_cutoff)
    if dt > dt_max * (1 + 1e-12):
        raise IntegrationError(
            f"step-size violation: dt={dt:g} exceeds 2 pi/(10 omega_cutoff)"
            f"={dt_max:g}"
        )
    dt, n_steps, _ = comb_time_grid(fspec, dt, n_steps * dt)

    warnings = []
    omega_char = particle.potential.omega_char(particle.mass) or fspec.omega_cutoff
    if particle.tau * omega_char > 0.1:
        warnings.append(
            f"order reduction marginal: tau*omega_char = "
            f"{particle.tau * omega_char:.3g} > 0.1"
        )
    if fspec.components != 1:
        raise IntegrationError("integrator is one-dimensional; need components=1")

    n_rec = n_steps // record_stride + 1
    xs = np.empty((n_traj, n_rec))
    vs = np.empty((n_traj, n_rec))
    es = np.empty((n_traj, n_rec)) if store_field else None
    status = np.zeros(n_traj, dtype=np.int8)
    seeds = np.empty((n_traj, 2), dtype=np.int64)
    seeds[:, 0] = master_seed
    seeds[:, 1] = np.arange(n_traj)

    acc = particle.acceleration
    h2 = 0.5 * dt
    w6 = dt / 6.0

    def step(x, v, e0, eh, e1):
        """One classical RK4 step from (x, v) with the field at the start,
        the midpoint and the end of the step."""
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
        return (x + w6 * (v + 2.0 * (v2 + v3) + v4),
                v + w6 * (a1 + 2.0 * (a2 + a3) + a4))

    linear = particle.potential.linear
    omegas, _, amps = mode_table(fspec)
    rec_step = 2 * record_stride          # half steps from record to record
    if linear:
        rho, K, P = _step_response(step, omegas, h2, record_stride)
        if rho >= 1.0:
            warnings.append(
                f"RK4 step map has spectral radius max|lambda(M)| = {rho:.12g}"
                f" >= 1 at dt={dt:g}: deviations from the steady response do"
                f" not decay, and above 1 they grow until they overflow")
        growth = record_stride * math.log(max(rho, 1.0))

    def chunk(span):
        """Integrate trajectories [lo, hi); write records into output slices."""
        lo, hi = span
        n = hi - lo
        coefs = amps * np.exp(1j * np.array(
            [make_field(fspec, (master_seed, i, 0)).phases[0]
             for i in range(lo, hi)]))
        x = np.empty(n)
        v = np.empty(n)
        for i in range(n):
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence((master_seed, lo + i, 1)))
            )
            x[i], v[i] = ic.sample(rng)
        if store_field:
            comb_sum_grid(coefs, omegas, t0, h2, rec_step, n_rec,
                          out=es[lo:hi])

        if linear:
            for rec, k in ((xs, K[0]), (vs, K[1])):
                comb_sum_grid(coefs * k, omegas, t0, h2, rec_step, n_rec,
                              out=rec[lo:hi])
            _add_transient(xs[lo:hi], vs[lo:hi], x, v, P, growth)
            finite = np.isfinite(xs[lo:hi]) & np.isfinite(vs[lo:hi])
            for i in np.flatnonzero(~finite.all(axis=1)):
                # NaN from the first non-finite record on, as a row that
                # overflows on the step loop
                first = int(np.argmin(finite[i]))
                xs[lo + i, first:] = vs[lo + i, first:] = np.nan
                status[lo + i] = STATUS_NONFINITE
            return

        xs[lo:hi, 0] = x
        vs[lo:hi, 0] = v
        # a slab holds an even number of half steps, so each step's three
        # field values lie in one slab
        k = 0
        for slab in comb_sum_slabs(coefs, omegas, t0, h2, 2 * n_steps + 1,
                                   _SLAB):
            for c in range(0, slab.shape[1] - 1, 2):
                x, v = step(x, v, slab[:, c], slab[:, c + 1], slab[:, c + 2])
                k += 1
                if k % record_stride == 0:
                    j = k // record_stride
                    bad = ~(np.isfinite(x) & np.isfinite(v))
                    if bad.any():
                        status[lo:hi][bad] = STATUS_NONFINITE
                    xs[lo:hi, j] = x
                    vs[lo:hi, j] = v

    lock = threading.Lock()
    n_done = 0

    def run_chunk(span):
        nonlocal n_done
        chunk(span)
        if progress is not None:
            with lock:
                n_done += span[1] - span[0]
                progress(n_done, n_traj)

    spans = [(lo, min(lo + CHUNK, n_traj)) for lo in range(0, n_traj, CHUNK)]
    if n_workers <= 1:
        for span in spans:
            run_chunk(span)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(run_chunk, spans))

    times = t0 + dt * record_stride * np.arange(n_rec)
    meta = {
        "master_seed": int(master_seed),
        "integrator": "rk4-response" if linear else "rk4-loop",
        "omega_char": omega_char,
        "warnings": warnings,
        "field_spec": vars(fspec).copy(),
        "particle": {"mass": particle.mass, "charge": particle.charge,
                     "tau": particle.tau, "c": particle.c,
                     "potential_kind": particle.potential.kind},
    }
    if linear:
        meta["rk4_spectral_radius"] = rho
    ens = TrajectoryEnsemble(
        t0=t0, dt=dt, n_steps=n_steps, record_stride=record_stride,
        times=times, positions=xs, velocities=vs, seeds=seeds, status=status,
        field_values=es, meta=meta,
    )
    # the dt bound above knows only the field band; a stiff potential can
    # move faster than the field where the trajectories actually went
    fp_max = np.max(np.abs(particle.potential.fprime(ens.intact("positions"))),
                    initial=0.0)
    omega_loc = math.sqrt(float(fp_max) / particle.mass)
    if 10.0 * omega_loc * dt > 2.0 * math.pi:
        warnings.append(
            f"step size dt={dt:g} exceeds 2 pi/(10 omega_loc)="
            f"{2.0 * math.pi / (10.0 * omega_loc):g}, with omega_loc = "
            f"sqrt(max|f'(x)|/m) = {omega_loc:.4g} over the recorded "
            f"positions; RK4 may not follow the motion"
        )
    return ens


# ---------------------------------------------------------------------------
# diagnostics

@dataclass
class EnergyBalanceReport:
    """Window-averaged power bookkeeping of an ensemble.

    mean_absorbed_power = <e E xdot>, mean_radiated_power = m tau <xddot^2>,
    both ensemble-plus-time means over the stated window only; acceleration
    is reconstructed from the equation of motion, not by differencing.
    """

    mean_absorbed_power: float
    mean_radiated_power: float
    mean_energy: float
    window: tuple
    se_absorbed: float
    se_radiated: float
    se_energy: float
    balance_ratio: float
    energy_trend: float
    stationary: bool
    warnings: list

    def to_dict(self) -> dict:
        d = dict(vars(self))
        d["window"] = list(self.window)
        d["schema_version"] = DUMP_SCHEMA_VERSION
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def energy_balance(ens: TrajectoryEnsemble, particle: ParticleSpec,
                   window: tuple) -> EnergyBalanceReport:
    """Absorbed vs radiated power over a time window.

    In the stationary regime the two means compensate; before stationarity
    the signed imbalance gives the net energy-flow direction, and a linear
    trend of the mean energy across the window sets the `stationary` flag.
    """
    if ens.field_values is None:
        raise IntegrationError("ensemble was integrated without stored field values")
    t_start, t_end = window
    sel = (ens.times >= t_start) & (ens.times <= t_end)
    if not sel.any():
        raise IntegrationError(f"empty window {window} on recorded grid")
    warnings = []
    omega_char = ens.meta.get("omega_char") or 1.0
    if (t_end - t_start) < 10.0 * (2.0 * math.pi / omega_char):
        warnings.append("window shorter than 10 periods of the systematic motion")

    # window sums per trajectory of the absorbed power, the radiated power
    # and the energy, added column by column in time order
    nt, w = int(np.count_nonzero(ens.ok_mask())), int(np.count_nonzero(sel))
    sums = np.zeros((3, nt))
    e_of_t = np.empty(w)
    # the recorded times increase, so the window is one run of columns
    first = int(np.argmax(sel))
    blocks = _column_blocks(ens, ("positions", "velocities", "field_values"),
                            slice(first, first + w), "F")
    for cols, (x, v, efield) in blocks:
        _add_in_order(sums[0], (particle.charge * efield * v).T)
        _add_in_order(sums[1], (particle.mass * particle.tau
                                * particle.acceleration(x, v, efield)**2).T)
        energy_ti = particle.energy(x, v)
        _add_in_order(sums[2], energy_ti.T)
        e_of_t[cols] = np.mean(energy_ti, axis=0)
    absorbed_traj, radiated_traj, energy_traj = sums / w

    absorbed = float(np.mean(absorbed_traj))
    radiated = float(np.mean(radiated_traj))
    energy = float(np.mean(energy_traj))
    se_a = float(np.std(absorbed_traj, ddof=1) / math.sqrt(nt)) if nt > 1 else 0.0
    se_r = float(np.std(radiated_traj, ddof=1) / math.sqrt(nt)) if nt > 1 else 0.0
    se_e = float(np.std(energy_traj, ddof=1) / math.sqrt(nt)) if nt > 1 else 0.0

    # net energy drift across the window, from a linear fit of the
    # ensemble-mean energy
    tw = ens.times[sel]
    slope, se_trend = 0.0, 0.0
    if tw.size > 2:
        fit = np.polyfit(tw, e_of_t, 1)
        slope = float(fit[0])
        se_trend = float(np.std(e_of_t - np.polyval(fit, tw)) * 2.0)
    trend = slope * (t_end - t_start)
    stationary = abs(trend) <= max(0.05 * abs(energy), 3.0 * se_trend)

    ratio = absorbed / radiated if radiated > 0 else math.inf
    return EnergyBalanceReport(
        mean_absorbed_power=absorbed, mean_radiated_power=radiated,
        mean_energy=energy, window=(float(t_start), float(t_end)),
        se_absorbed=se_a, se_radiated=se_r, se_energy=se_e,
        balance_ratio=ratio, energy_trend=trend, stationary=stationary,
        warnings=warnings,
    )


def relaxation_curve(ens: TrajectoryEnsemble, particle: ParticleSpec):
    """Ensemble-mean energy at each recorded time.

    Returns (times, mean_energy). Requires at least 100 trajectories for a
    meaningful mean; the approach to the stationary plateau should be judged
    on window averages, not pointwise.
    """
    if ens.n_traj < 100:
        raise IntegrationError("relaxation curve needs an ensemble of >= 100")
    curve = np.empty(ens.times.size)
    every = slice(0, ens.times.size)
    for cols, (x, v) in _column_blocks(ens, ("positions", "velocities"),
                                       every, "K"):
        curve[cols] = np.mean(particle.energy(x, v), axis=0)
    return ens.times.copy(), curve


def _column_blocks(ens: TrajectoryEnsemble, names, cols: slice, order: str):
    """The STATUS_OK rows of the named arrays over the recorded columns
    cols, in blocks of consecutive columns holding about _REDUCE_BLOCK
    values each. Yields (slice into cols, [one block per name]); order "F"
    copies each block column-major, "K" leaves it as indexed, row-major.

    A block holds every intact row, so a reduction over trajectories sums
    each column as the whole array would: pairwise for "F", in order for
    "K". Sums along time go through _add_in_order. energy_balance uses "F"
    and relaxation_curve "K", the layouts their whole-window arrays had,
    so both keep their bytes while copying one block at a time.
    """
    ok = ens.ok_mask()
    rows = slice(None) if ok.all() else np.flatnonzero(ok)
    width = max(1, _REDUCE_BLOCK // max(1, np.count_nonzero(ok)))
    for lo in range(cols.start, cols.stop, width):
        block = (rows, slice(lo, min(lo + width, cols.stop)))
        yield (slice(lo - cols.start, block[1].stop - cols.start),
               [np.asarray(getattr(ens, name)[block], order=order)
                for name in names])


def _add_in_order(total, rows):
    """Add rows to total one at a time, in order, as numpy sums an array
    along an axis that is not its contiguous one; a running total over
    blocks is then that whole-array sum bit for bit."""
    for row in rows:
        total += row


# ---------------------------------------------------------------------------
# persistence

def dump_ensemble(ens: TrajectoryEnsemble, directory, fmt: str = "binary") -> Path:
    """Persist an ensemble.

    binary: a directory of .npy files plus meta.json (deterministic bytes,
    suitable for bit-identity comparison). csv: rows (traj_id, t, x, v) with
    full round-trip float precision, intended for small/thinned ensembles.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "schema_version": DUMP_SCHEMA_VERSION,
        "format": fmt,
        "t0": ens.t0, "dt": ens.dt, "n_steps": ens.n_steps,
        "record_stride": ens.record_stride, "n_traj": ens.n_traj,
        "has_field_values": ens.field_values is not None,
        "has_velocities": ens.velocities is not None,
        "meta": _jsonable(ens.meta),
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    if fmt == "binary":
        np.save(directory / "times.npy", ens.times)
        np.save(directory / "positions.npy", ens.positions)
        if ens.velocities is not None:
            np.save(directory / "velocities.npy", ens.velocities)
        np.save(directory / "seeds.npy", ens.seeds)
        np.save(directory / "status.npy", ens.status)
        if ens.field_values is not None:
            np.save(directory / "field_values.npy", ens.field_values)
    elif fmt == "csv":
        with open(directory / "trajectories.csv", "w") as fh:
            fh.write("traj_id,t,x,v\n")
            for i in range(ens.n_traj):
                for j, t in enumerate(ens.times):
                    vij = (float(ens.velocities[i, j])
                           if ens.velocities is not None else math.nan)
                    fh.write(f"{i},{float(t)!r},"
                             f"{float(ens.positions[i, j])!r},{vij!r}\n")
    else:
        raise ValueError(f"unknown dump format {fmt!r}")
    return directory


def load_ensemble(directory) -> TrajectoryEnsemble:
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    if meta["schema_version"] != DUMP_SCHEMA_VERSION:
        raise IntegrationError(
            f"unsupported ensemble schema_version {meta['schema_version']}"
        )
    if meta["format"] != "binary":
        raise IntegrationError("only binary dumps can be reloaded")
    times = np.load(directory / "times.npy")
    return TrajectoryEnsemble(
        t0=meta["t0"], dt=meta["dt"], n_steps=meta["n_steps"],
        record_stride=meta["record_stride"], times=times,
        positions=np.load(directory / "positions.npy"),
        velocities=(np.load(directory / "velocities.npy")
                    if meta["has_velocities"] else None),
        seeds=np.load(directory / "seeds.npy"),
        status=np.load(directory / "status.npy"),
        field_values=(np.load(directory / "field_values.npy")
                      if meta["has_field_values"] else None),
        meta=meta.get("meta", {}),
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj
