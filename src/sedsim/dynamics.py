"""Ensemble integration of charged-particle motion in the zero-point field.

The equation of motion is the radiation-reaction form

    m x'' = f(x) + m tau x''' + e E(t),     tau = 2 e^2 / (3 m c^3),

integrated after order reduction: the third-derivative term admits runaway
solutions, so m tau x''' is replaced by tau f'(x) x' (substituting
m x'' ~ f on the small term), exact to O(tau^2). The synthesized field is a
smooth function of time once its phases are drawn, so each trajectory is an
ordinary (non-stochastic) ODE integrated with classical RK4; field values at
substage times come from the mode sum on the half-step grid, one slab of
_slab_width half steps at a time (field.comb_sum_slabs), time-major and
scaled by the charge in place. A helper thread synthesizes the next slab
into a second buffer while the steps read the current one, so synthesis,
whose FFTs release the interpreter lock, runs beside the stepping. The
step loop (_rk4) steps a chunk's rows on (x, v, a) stage buffers written
in place, one slab row per half step; its arithmetic is the plain RK4's.
A chunk's record-grid field is written after its x and v, on the step loop
once the slab buffers are released, so the two are never resident
together.

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
at record j. The steady x and v and the stored field are mode sums on the
record grid only, through one field.CombPlan built per run and shared by
every chunk and worker thread, so this response path builds no field table
and takes no step. It and the step loop used for every other potential
compute the same RK4 trajectory and differ by rounding only: at most
3.2e-12 sigma_x over the shipped run, 1.2e-11 at tau = 1e-5. Both paths
store the field from the record-grid CombPlan. ens.meta["integrator"]
names the path that ran; on the response path
ens.meta["rk4_spectral_radius"] holds max|lambda(M)|, and a warning is
recorded when it is at least 1.

integrate_stream hands each finished chunk of trajectories, in row order,
to a list of consumers and keeps none of it: an EnsembleWriter appends the
chunk's rows to the dump, BalanceSums and EnergySums add its blocks of
ROW_BLOCK rows, less the flagged ones, to the energy balance, the window's
position variance and the relaxation curve, and the estimators' sample
sets (kinematics.SampleSet) add its samples to their bin sums and to
D's. Each trajectory is seeded on its own (Philox keyed by master seed
and trajectory index; Salmon et al., SC'11), so a chunk does not depend
on the others. A chunk is CHUNK rows on the step loop and RESPONSE_CHUNK,
one ROW_BLOCK of 16 rows, on the response path, so a chunk holds whole
blocks, and a response-path chunk exactly one: 100 chunks on the shipped
run. On the response path a helper thread computes the next chunk while
the consumers take the current one, so its transforms, which release the
interpreter lock, run beside the consumers. integrate_ensemble is the
stream whose chunks fill whole arrays in place; energy_balance,
relaxation_curve and dump_ensemble take a whole ensemble as one chunk, so
both routes give the same bytes.
"""

from __future__ import annotations

import json
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from contextvars import copy_context
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from .config import dumps_config
from .field import (CombPlan, FieldSpec, comb_cache_params, comb_sum_slabs,
                    fast_length, field_phases, mode_table)

# Fixed-size chunks, whatever the worker count, keep results bit-identical
# across schedules. CHUNK is the step loop's width, which its per-step numpy
# dispatch needs: 1,024 trajectories of sedbench's quartic run took 140-203
# ns per trajectory-step at 512 wide, synthesis included, 188-213 at 256 and
# 122-143 at 1,024 (tools/paired_loop.py, 3 runs each, 3,328-point slabs).
CHUNK = 512

# Rows taken together wherever whole rows of records are worked on: the
# transient on the response path and the walk of intact_blocks, whose
# blocks are fixed by row index. Every chunk width (CHUNK, RESPONSE_CHUNK,
# reference._ROW_BLOCK) is a multiple of ROW_BLOCK, so a stream's chunks
# cut no block and the reductions over intact_blocks add the whole
# ensemble's blocks. (A SampleSet walks blocks of its own block_rows, 39
# rows on the shipped sed run, of which no chunk width is a multiple; its
# walk restarts at each chunk, so its D sums round with the chunk width.)
# Each temporary is ROW_BLOCK x n_rec doubles, 1.1 MB on the shipped grid.
# On the shipped run the window reductions took about as long at 8 to 64
# rows; at 128 the relaxation curve took 1.6x as long.
ROW_BLOCK = 16

# The response path's width: one row block, so each consumer takes one
# block of records at a time, and one CombPlan work block of 16 rows (half
# of field._SUM_BLOCK). A chunk's positions, velocities and field are
# 3 x RESPONSE_CHUNK x n_rec doubles, 3.2 MB on the shipped record grid.
# The stream computes the next chunk on a helper thread while the
# consumers take this one, so two chunks are resident: what one 32-row
# chunk held. On a 2-core x86_64 host, against serial 32-row chunks,
# sedbench's sed-ground wall_s fell from 0.756 to 0.529 s and its
# peak_rss_mb rose from 101.19 to 101.68 MB (medians of 10 alternating
# pairs). The shipped sed run's maxrss read 52.5-53.4 MiB against 52.4;
# the same helper on 32-row chunks read 62.4 MiB (3 to 6 runs each).
RESPONSE_CHUNK = ROW_BLOCK

# Records per block of the transient on the response path; see _add_transient.
_TRANSIENT_BLOCK = 64

DUMP_SCHEMA_VERSION = 1


class IntegrationError(ValueError):
    """Raised for precondition violations (step size, empty windows, ...)."""


# ---------------------------------------------------------------------------
# potentials

@dataclass(frozen=True)
class Potential:
    """External conservative potential with force and force-gradient
    evaluators; a constant gradient (harmonic, free) is a scalar.
    drift(x, v, tau, out=None, work=None) is the reduced-order force
    f(x) + tau f'(x) v, into out if given; work, an array shaped as x,
    holds its intermediate, so that a drift given both allocates
    nothing."""

    kind: str
    V: callable
    f: callable
    fprime: callable
    drift: callable
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

    def drift(x, v, tau, out=None, work=None):
        # 0 + tau 0 v: the zero that a non-finite v makes NaN
        work = np.multiply(tau * 0.0, v, work)
        return np.add(work, 0.0, out)

    return Potential(kind="free", V=zero, f=zero, fprime=lambda x: 0.0,
                     drift=drift)


def harmonic_potential(omega0: float, mass: float) -> Potential:
    """V = (1/2) m omega0^2 x^2."""
    k = mass * omega0**2

    def drift(x, v, tau, out=None, work=None):
        out = np.multiply(-k, x, out)
        work = np.multiply(tau * -k, v, work)
        return np.add(out, work, out)

    return Potential(
        kind="harmonic",
        V=lambda x: 0.5 * k * np.square(x),
        f=lambda x: -k * np.asarray(x, dtype=float),
        fprime=lambda x: -k,
        drift=drift,
        params={"omega0": omega0, "stiffness": k},
    )


def quartic_potential(k4: float) -> Potential:
    """V = (1/4) k4 x^4. The powers are products of squares: an array ** 3
    or ** 4 goes through libm pow, 15x slower than a multiply, and the RK4
    loop evaluates the drift, in place and with one x^2, four times a step."""
    def drift(x, v, tau, out=None, work=None):
        x2 = np.square(x, work)
        out = np.multiply(x, x2, out)
        out *= -k4
        x2 *= -3.0 * k4
        x2 *= tau
        x2 *= v
        out += x2
        return out

    return Potential(
        kind="quartic",
        V=lambda x: 0.25 * k4 * np.square(np.square(x)),
        f=lambda x: -k4 * (x * np.square(x)),
        fprime=lambda x: -3.0 * k4 * np.square(x),
        drift=drift,
        params={"k4": k4},
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
        return (self.potential.drift(x, v, self.tau) + self.charge * e) / self.mass

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
    carries STATUS_NONFINITE, never silently. A streamed ensemble
    (integrate_stream, reference.ou_stream) comes back without its arrays:
    positions, velocities and field_values are None. No ensemble holds
    seeds: meta["master_seed"] and the producer's rule (integrate_stream,
    reference.ou_stream) draw every row.
    """

    t0: float
    dt: float
    n_steps: int
    record_stride: int
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray | None
    status: np.ndarray         # (n_traj,) int8
    field_values: np.ndarray | None = None
    meta: dict = dc_field(default_factory=dict)

    @property
    def n_traj(self) -> int:
        return self.status.shape[0]

    @property
    def rec_dt(self) -> float:
        return self.dt * self.record_stride

    def ok_mask(self) -> np.ndarray:
        return self.status == STATUS_OK

    def intact_blocks(self, names, cols=slice(None), rows: int = ROW_BLOCK):
        """Walk the STATUS_OK rows of the named arrays over the recorded
        columns cols (a slice), block by block in row order: the rows
        [lo, lo + rows) for lo = 0, rows, 2 rows, ..., less the flagged
        ones. Yields one row-major block per name: views when no row of the
        block is flagged, else copies. A block with no intact row is
        skipped; with no intact row at all the walk yields one empty block.
        A reduction along time is local to a block's rows; one over
        trajectories adds each block's column sums in order (Chan, Golub &
        LeVeque, Am. Stat. 37, 242 (1983))."""
        ok = self.ok_mask()
        parts = []
        for lo in range(0, self.n_traj, rows):
            keep = ok[lo:lo + rows]
            if keep.all():
                parts.append(slice(lo, lo + rows))
            elif keep.any():
                parts.append(lo + np.flatnonzero(keep))
        for part in parts or [np.arange(0)]:
            yield [getattr(self, name)[part, cols] for name in names]


def window_columns(times: np.ndarray, window) -> slice:
    """The recorded columns with window[0] <= t <= window[1]; the recorded
    times increase, so they are one slice."""
    lo = int(np.searchsorted(times, window[0], side="left"))
    hi = int(np.searchsorted(times, window[1], side="right"))
    return slice(lo, max(lo, hi))


def _rk4(particle: ParticleSpec, dt: float, n: int):
    """(y, step): step(e0, eh, e1) advances the states y = (x, v) of n
    trajectories one classical RK4 step in place, e the charge-scaled field
    at the start, the midpoint and the end of the step. Stage k lives in a
    (3, n) buffer of x_k, v_k, a_k: rows 0:2 its state, rows 1:3 its
    derivative, so a stage update is one multiply and one add on (2, n)
    views. Potential.drift writes a_k in place, its intermediate in one
    work row; d1 + 2 (d2 + d3) + d4 sums left to right, as the plain
    loop's arithmetic does. The stages are written out, with every out
    argument positional: the step is numpy dispatch, some 45 calls on rows
    of n for the quartic."""
    drift, tau, m = particle.potential.drift, particle.tau, particle.mass
    h = dt / 2
    S, d, work = np.empty((4, 3, n)), np.empty((2, n)), np.empty(n)
    (x1, v1, a1), (x2, v2, a2), (x3, v3, a3), (x4, v4, a4) = S
    (y1, y2, y3, y4), (d1, d2, d3, d4) = S[:, :2], S[:, 1:]
    scaled = m != 1.0                   # a / 1 is a, bit for bit

    def step(e0, eh, e1):
        drift(x1, v1, tau, a1, work)
        np.add(a1, e0, a1)
        if scaled:
            np.divide(a1, m, a1)
        np.multiply(h, d1, d)
        np.add(y1, d, y2)
        drift(x2, v2, tau, a2, work)
        np.add(a2, eh, a2)
        if scaled:
            np.divide(a2, m, a2)
        np.multiply(h, d2, d)
        np.add(y1, d, y3)
        drift(x3, v3, tau, a3, work)
        np.add(a3, eh, a3)
        if scaled:
            np.divide(a3, m, a3)
        np.multiply(dt, d3, d)
        np.add(y1, d, y4)
        drift(x4, v4, tau, a4, work)
        np.add(a4, e1, a4)
        if scaled:
            np.divide(a4, m, a4)
        np.add(d2, d3, d)
        np.multiply(d, 2.0, d)
        np.add(d, d1, d)
        np.add(d, d4, d)
        np.multiply(d, dt / 6.0, d)
        np.add(y1, d, y1)

    return y1, step


def _step_response(particle: ParticleSpec, dt: float, omegas, stride: int):
    """RK4's step map for a force linear in x, and its exact response to
    each comb mode.

    With s = (x, v) and u_k the field at the start, the midpoint and the
    end of step k, one step is s_{k+1} = M s_k + G u_k; M and G are one step
    of _rk4 from x = 1, from v = 1 and from a unit field at each of the
    three times, so the map is RK4's own. A mode e^{i omega t} (zeta =
    e^{i omega dt/2}, z = zeta^2) gives u_k = e^{i omega t_k} (1, zeta, z), so
    the steady state it drives is s_k = e^{i omega t_k} K with
    K = (z I - M)^{-1} G (1, zeta, z).
    Returns (rho, K, P): rho the spectral radius max|lambda(M)|, K of shape
    (2, n_modes), and P = M^stride, the map from one record to the next.
    """
    y, step = _rk4(particle, dt, 5)
    y[...] = np.eye(2, 5)
    step(*(particle.charge * np.eye(3, 5, 2)))
    M, G = y[:, :2], y[:, 2:]
    zeta = np.exp(1j * omegas * (0.5 * dt))
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
    # d0 W0 + d1 W1 of a row block, in two buffers made once
    h0, h1 = np.empty((2, min(ROW_BLOCK, x.shape[0]), n_blocks, block))
    for lo in range(0, x.shape[0], ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        for i, rec in enumerate((x[rows], v[rows])):
            t0, t1 = h0[:len(rec)], h1[:len(rec)]
            np.multiply(d[0, rows, :, None], W[:, i, 0], t0)
            np.multiply(d[1, rows, :, None], W[:, i, 1], t1)
            np.add(t0, t1, t0)
            rec += t0.reshape(len(rec), -1)[:, :n_rec]
    x[:, 0], v[:, 0] = x0, v0


def comb_time_grid(fspec: FieldSpec, dt: float, span: float):
    """(dt, n_steps, n_fft): the step, at most dt, and the step count of a
    run of length span whose 2 n_steps + 1 half-step field points lie on
    the uniform comb's FFT-exact grid of period n_fft half steps, the
    grid a CombPlan of n_fft sums on. A resolved grid resolves to itself.
    Refuses a non-positive span or dt, a dt that does not resolve the
    fastest synthesized mode (dt > 2 pi / (10 omega_cutoff)) and a run
    that does not end inside the comb period, where the field repeats.
    Inside it, each widening grows n_fft strictly, and any
    n_fft >= 3 period / (period - span) holds the run, so the widening
    ends; but a span just short of the period would shrink the step
    without limit, so a widening that takes the step below dt/2 is refused
    before anything is integrated."""
    if span <= 0 or dt <= 0:
        raise IntegrationError("need a positive run length and dt")
    dt_max = 2.0 * math.pi / (10.0 * fspec.omega_cutoff)
    if dt > dt_max * (1 + 1e-12):
        raise IntegrationError(
            f"step-size violation: dt={dt:g} exceeds 2 pi/(10 omega_cutoff)"
            f"={dt_max:g}"
        )
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


def _slab_width(n_modes: int) -> int:
    """Half steps per field slab of the step loop, the widest even width
    whose double fits a convolution of the power of two at or above
    4 n_modes: 1,664 at 768 modes, where the convolution is 2,450 points.
    comb_sum_slabs keeps two slabs, so a chunk holds CHUNK x 2 (width + 1)
    doubles of field, 13.6 MB at 768 modes: what one slab of the double
    width held. The narrower slab costs more synthesis, about 12 %, but on
    the helper thread, off the steps' path. Slabs of 512 rows of
    sedbench's quartic run took 0.64-0.66 s of synthesis at 1,280 half
    steps, 0.49-0.51 s at 3,328 and 0.50-0.51 s at 8,192."""
    return (fast_length(4 * n_modes, (2,)) - n_modes + 1) // 4 * 2


def record_times(t0: float, dt: float, n_steps: int,
                 record_stride: int = 1) -> np.ndarray:
    """The times an n_steps run from t0 at step dt records: every
    record_stride-th step, from the first."""
    return t0 + dt * record_stride * np.arange(n_steps // record_stride + 1)


def integrate_stream(particle: ParticleSpec, fspec: FieldSpec, ic,
                     t0: float, dt: float, n_steps: int, n_traj: int,
                     master_seed: int, consumers=(), record_stride: int = 1,
                     n_workers: int = 1, store_field: bool = True,
                     out=None) -> TrajectoryEnsemble:
    """Integrate n_traj independent trajectories of the reduced-order
    equation, a chunk at a time, and hand each finished chunk to every
    consumer in turn as consumer.take(chunk), in row order. A chunk is
    RESPONSE_CHUNK trajectories on the response path and CHUNK on the
    step loop; the last one may be shorter.

    Trajectory i draws its field phases from the Philox stream keyed
    (master_seed, i, 0) and its start from the one keyed
    (master_seed, i, 1); results are bit-identical across runs and across
    n_workers. The run goes on the grid comb_time_grid(fspec, dt,
    n_steps dt), which refuses a dt that does not resolve the fastest
    synthesized mode; its step and step count are ens.dt and ens.n_steps.
    A warning is recorded in meta when dt exceeds 2 pi / (10 omega_loc),
    omega_loc = sqrt(max |f'(x)| / m) over the recorded positions. Potential.linear potentials take RK4's exact
    response on the record grid, the others the step loop (module
    docstring); neither path holds a field table of the whole run. A
    chunk's record-grid field is written (and, without out, allocated)
    after its x and v, on the step loop once the slab buffers are released.

    A chunk is the returned ensemble with its rows' arrays (field_values
    None without store_field) and status; a consumer copies what it keeps.
    Chunks are computed on max(1, n_workers) pool threads while the
    calling thread hands over the oldest finished one, so max(1,
    n_workers) + 1 chunks are in flight: two at one worker on the response
    path, where one helper thread computes the next chunk. A chunk that
    finishes early waits until the chunks before it are handed over. The
    step loop at one worker computes its one chunk in flight on the
    calling thread. No pool thread outlives the call, also when a chunk or
    a consumer raises; the exception reaches the caller as it was raised.
    Without out each chunk's arrays are its own and are dropped once
    handed over; out(n_rec), when given, returns whole (n_traj, n_rec)
    arrays (positions, velocities, field_values or None) whose rows the
    chunks fill in place. Returns the ensemble without its arrays: its
    times, status and meta, warnings included.
    """
    if n_traj < 1:
        raise IntegrationError("n_traj must be at least 1")
    dt, n_steps, n_fft = comb_time_grid(fspec, dt, n_steps * dt)

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

    linear, width = particle.potential.linear, _slab_width(fspec.n_modes)
    omegas, _, amps = mode_table(fspec)
    rec_step = 2 * record_stride          # half steps from record to record
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
        rho, K, P = _step_response(particle, dt, omegas, record_stride)
        if rho >= 1.0:
            warnings.append(
                f"RK4 step map has spectral radius max|lambda(M)| = {rho:.12g}"
                f" >= 1 at dt={dt:g}: deviations from the steady response do"
                f" not decay, and above 1 they grow until they overflow")
        growth = record_stride * math.log(max(rho, 1.0))
        meta["rk4_spectral_radius"] = rho
    head = TrajectoryEnsemble(
        t0=t0, dt=dt, n_steps=n_steps, record_stride=record_stride,
        times=record_times(t0, dt, n_steps, record_stride), positions=None,
        velocities=None, status=np.zeros(n_traj, dtype=np.int8), meta=meta)
    whole = out(n_rec) if out is not None else None
    # the record grid's transform setup, shared by every chunk and thread
    records = CombPlan(fspec, n_fft, t0, rec_step, n_rec)

    def chunk(span) -> TrajectoryEnsemble:
        """Integrate trajectories [lo, hi) into the chunk's records."""
        lo, hi = span
        n = hi - lo
        if whole is None:
            xs, vs, es = np.empty((n, n_rec)), np.empty((n, n_rec)), None
        else:
            xs, vs, es = (None if a is None else a[lo:hi] for a in whole)
        st = head.status[lo:hi]
        coefs = amps * np.exp(1j * np.array(
            [field_phases(fspec, (master_seed, i, 0))[0]
             for i in range(lo, hi)]))
        start = np.array([ic.sample(np.random.Generator(np.random.Philox(
            np.random.SeedSequence((master_seed, i, 1)))))
            for i in range(lo, hi)]).T

        if linear:
            for rec, k in ((xs, K[0]), (vs, K[1])):
                records(coefs * k, out=rec)
            _add_transient(xs, vs, *start, P, growth)
            finite = np.isfinite(xs) & np.isfinite(vs)
            for i in np.flatnonzero(~finite.all(axis=1)):
                # NaN from the first non-finite record on, as a row that
                # overflows on the step loop
                first = int(np.argmin(finite[i]))
                xs[i, first:] = vs[i, first:] = np.nan
        else:
            y, step = _rk4(particle, dt, n)
            y[...] = start
            xs[:, 0], vs[:, 0] = start
            # a step's three field values lie in one (even) slab; a later
            # slab's row 0, the one before's last row, is already scaled.
            # Closing the stream ends its helper thread, also when a step
            # raises
            k, fresh = 0, 0
            with closing(comb_sum_slabs(coefs, fspec, n_fft, t0,
                                        2 * n_steps + 1, width)) as slabs:
                for slab in slabs:
                    np.multiply(particle.charge, slab[fresh:], slab[fresh:])
                    fresh = 1
                    for c in range(0, len(slab) - 1, 2):
                        step(slab[c], slab[c + 1], slab[c + 2])
                        k += 1
                        if k % record_stride == 0:
                            j = k // record_stride
                            xs[:, j], vs[:, j] = y
            # the slab buffers go before the record field's pages are
            # first touched, so the two are never resident together
            del slab, slabs
        if store_field:
            es = records(coefs, out=es)
        # a non-finite x or v stays non-finite at every later step (and is
        # NaN from there on, above), so the last record flags every such row
        st[~np.isfinite((xs[:, -1], vs[:, -1])).all(axis=0)] = STATUS_NONFINITE
        return replace(head, positions=xs, velocities=vs, field_values=es,
                       status=st)

    # comb_time_grid's dt bound knows only the field band; a stiff
    # potential can move faster than the field where the trajectories went
    fp_max = 0.0

    def hand_over(piece: TrajectoryEnsemble):
        nonlocal fp_max
        for consumer in consumers:
            consumer.take(piece)
        fp_max = max(fp_max, *(
            float(np.max(np.abs(particle.potential.fprime(x)), initial=0.0))
            for (x,) in piece.intact_blocks(("positions",))))

    rows = RESPONSE_CHUNK if linear else CHUNK
    spans = [(lo, min(lo + rows, n_traj)) for lo in range(0, n_traj, rows)]
    if n_workers <= 1 and not linear:
        # the step loop's slab helper already runs beside its steps, and
        # from a pool thread its slabs would land in another malloc arena
        for span in spans:
            hand_over(chunk(span))
    else:
        # the next chunk is submitted before the oldest is handed over, so
        # the consumers take that one while the pool computes; each chunk
        # computes in a copy of the caller's context, under its np.errstate
        computing = max(1, n_workers)
        with ThreadPoolExecutor(max_workers=computing) as pool:
            pending = deque()
            for span in spans:
                pending.append(pool.submit(copy_context().run, chunk, span))
                if len(pending) > computing:
                    hand_over(pending.popleft().result())
            while pending:
                hand_over(pending.popleft().result())

    omega_loc = math.sqrt(fp_max / particle.mass)
    if 10.0 * omega_loc * dt > 2.0 * math.pi:
        warnings.append(
            f"step size dt={dt:g} exceeds 2 pi/(10 omega_loc)="
            f"{2.0 * math.pi / (10.0 * omega_loc):g}, with omega_loc = "
            f"sqrt(max|f'(x)|/m) = {omega_loc:.4g} over the recorded "
            f"positions; RK4 may not follow the motion"
        )
    return head


def integrate_ensemble(particle: ParticleSpec, fspec: FieldSpec, ic,
                       t0: float, dt: float, n_steps: int, n_traj: int,
                       master_seed: int, record_stride: int = 1,
                       n_workers: int = 1,
                       store_field: bool = True) -> TrajectoryEnsemble:
    """Integrate n_traj trajectories into whole (n_traj, n_rec) arrays of
    positions, velocities and, with store_field, field values: the
    integrate_stream whose chunks fill the rows of those arrays in place.
    See integrate_stream for the grid, the seeding and the warnings."""
    whole = []

    def allocate(n_rec):
        whole.extend(np.empty((n_traj, n_rec)) if keep else None
                     for keep in (True, True, store_field))
        return whole

    ens = integrate_stream(particle, fspec, ic, t0, dt, n_steps, n_traj,
                           master_seed, record_stride=record_stride,
                           n_workers=n_workers, store_field=store_field,
                           out=allocate)
    ens.positions, ens.velocities, ens.field_values = whole
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


class _RowBlockSums:
    """A reduction over blocks of intact rows at the recorded columns
    self.cols: take(chunk) hands add() each block of the chunk's
    intact_blocks walk. Every chunk starts at a multiple of ROW_BLOCK rows
    (see ROW_BLOCK), so its blocks are the whole ensemble's: a stream of
    chunks adds the same blocks in the same order as the whole ensemble
    taken as one chunk, and nothing is kept from one take to the next. A
    chunk with no intact row adds one empty block, whose zero column sums
    leave every total as it was."""

    names = ()

    def __init__(self, cols):
        self.cols = cols
        self.n = 0              # intact rows added so far

    def take(self, chunk: TrajectoryEnsemble):
        for block in chunk.intact_blocks(self.names, self.cols):
            self.n += len(block[0])
            self.add(*block)


class BalanceSums(_RowBlockSums):
    """energy_balance's sums over the window's columns: per intact row the
    window means of the absorbed power, the radiated power, the energy, x
    and x^2; per time the first three summed over the rows. report(ens)
    finishes them for the ensemble ens (its meta and, streamed, without its
    arrays); trace() is the mean absorbed and radiated power at each window
    time, position_variance() the window's position variance."""

    names = ("positions", "velocities", "field_values")

    def __init__(self, particle: ParticleSpec, window: tuple, times):
        cols = window_columns(times, window)
        if cols.stop == cols.start:
            raise IntegrationError(f"empty window {window} on recorded grid")
        super().__init__(cols)
        self.particle, self.window, self.times = particle, window, times[cols]
        self.per_traj = []
        self.sums = np.zeros((3, self.times.size))

    def add(self, x, v, efield):
        p = self.particle
        powers = (p.charge * efield * v,
                  p.mass * p.tau * p.acceleration(x, v, efield)**2,
                  p.energy(x, v))
        self.per_traj.append([np.mean(q, axis=1) for q in (*powers, x, x**2)])
        for total, q in zip(self.sums, powers):
            total += np.sum(q, axis=0)

    def trace(self):
        """(times, absorbed, radiated): the ensemble-mean powers at each
        recorded time of the window."""
        return self.times, self.sums[0] / self.n, self.sums[1] / self.n

    def position_variance(self):
        """(variance, standard error): the position variance over the
        window's records, pooled over the intact rows, and its standard
        error from the per-row means of x^2. Every row has the window's
        records, so the pooled mean is the mean of the per-row means."""
        x, x2 = np.concatenate(self.per_traj, axis=1)[3:]
        xbar = float(np.mean(x))
        return (float(np.mean(x2)) - xbar**2,
                float(np.std(x2, ddof=1) / math.sqrt(x2.size)))

    def report(self, ens: TrajectoryEnsemble) -> "EnergyBalanceReport":
        nt = self.n
        if nt == 0:
            raise IntegrationError("no intact trajectory: every row is non-finite")
        t_start, t_end = self.window
        warnings = []
        omega_char = ens.meta.get("omega_char") or 1.0
        if (t_end - t_start) < 10.0 * (2.0 * math.pi / omega_char):
            warnings.append("window shorter than 10 periods of the systematic motion")

        # per row: the absorbed power, the radiated power, the energy
        per_traj = np.concatenate(self.per_traj, axis=1)[:3]
        e_of_t = self.sums[2] / nt

        absorbed, radiated, energy = (float(np.mean(q)) for q in per_traj)
        se_a, se_r, se_e = (float(np.std(q, ddof=1) / math.sqrt(nt))
                            if nt > 1 else 0.0 for q in per_traj)

        # net energy drift across the window, from a linear fit of the
        # ensemble-mean energy
        tw = self.times
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


class EnergySums(_RowBlockSums):
    """relaxation_curve's sums: the energy summed over the intact rows at
    every recorded time. curve(ens) finishes them."""

    names = ("positions", "velocities")

    def __init__(self, particle: ParticleSpec, n_rec: int):
        super().__init__(slice(None))
        self.particle = particle
        self.total = np.zeros(n_rec)

    def add(self, x, v):
        self.total += np.sum(self.particle.energy(x, v), axis=0)

    @staticmethod
    def enough_rows(n: int):
        """Refuse n intact trajectories, too few for a meaningful mean."""
        if n < 100:
            raise IntegrationError(f"relaxation curve needs >= 100 intact "
                                   f"trajectories, has {n}")

    def curve(self, ens: TrajectoryEnsemble):
        self.enough_rows(self.n)
        return ens.times.copy(), self.total / self.n


def energy_balance(ens: TrajectoryEnsemble, particle: ParticleSpec,
                   window: tuple) -> EnergyBalanceReport:
    """Absorbed vs radiated power over a time window.

    In the stationary regime the two means compensate; before stationarity
    the signed imbalance gives the net energy-flow direction, and a linear
    trend of the mean energy across the window sets the `stationary` flag.
    """
    if ens.field_values is None:
        raise IntegrationError("ensemble was integrated without stored field values")
    sums = BalanceSums(particle, window, ens.times)
    sums.take(ens)
    return sums.report(ens)


def relaxation_curve(ens: TrajectoryEnsemble, particle: ParticleSpec):
    """Ensemble-mean energy at each recorded time.

    Returns (times, mean_energy), the mean over the intact trajectories:
    on its window, the numbers energy_balance fits. Requires at least 100
    intact trajectories for a meaningful mean; the approach to the
    stationary plateau should be judged on window averages, not pointwise.
    """
    sums = EnergySums(particle, ens.times.size)
    sums.take(ens)
    return sums.curve(ens)


# ---------------------------------------------------------------------------
# persistence

class EnsembleWriter:
    """A binary dump written as its rows arrive: a directory of .npy files
    plus meta.json, with deterministic bytes, suitable for bit-identity
    comparison. The constructor writes the header of each named array's
    float64 file, shape (n_traj, n_rec); take(chunk) appends the chunk's
    rows, so chunks must come in row order. close(ens) writes times and
    status, and then meta.json. Every file holds np.save's bytes, and a
    dump cut off before close has no meta.json, which load_ensemble and
    load_blocks refuse. The dump holds no seeds: meta.json records the
    master seed, and the rule that draws each row from it is the
    producer's (integrate_stream, reference.ou_stream). The rows go to the
    files unmapped: mapped pages would count in the process's resident
    set."""

    def __init__(self, directory, n_traj: int, n_rec: int, names):
        self.directory = Path(directory)
        self.names = tuple(names)
        self.directory.mkdir(parents=True, exist_ok=True)
        (self.directory / "meta.json").unlink(missing_ok=True)
        header = {"descr": np.lib.format.dtype_to_descr(np.dtype(float)),
                  "fortran_order": False, "shape": (n_traj, n_rec)}
        for name in self.names:
            with open(self.directory / f"{name}.npy", "wb") as fh:
                np.lib.format.write_array_header_1_0(fh, header)

    def take(self, chunk: TrajectoryEnsemble):
        for name in self.names:
            with open(self.directory / f"{name}.npy", "ab") as fh:
                getattr(chunk, name).tofile(fh)

    def close(self, ens: TrajectoryEnsemble) -> Path:
        np.save(self.directory / "times.npy", ens.times)
        np.save(self.directory / "status.npy", ens.status)
        meta = {
            "schema_version": DUMP_SCHEMA_VERSION,
            "format": "binary",
            "t0": ens.t0, "dt": ens.dt, "n_steps": ens.n_steps,
            "record_stride": ens.record_stride, "n_traj": ens.n_traj,
            "has_field_values": "field_values" in self.names,
            "has_velocities": "velocities" in self.names,
            "meta": ens.meta,
        }
        (self.directory / "meta.json").write_text(dumps_config(meta))
        return self.directory


class ColumnStore:
    """Every row's position at the recorded column col, taken chunk by
    chunk in row order, as an (n_traj,) array values: what a reader that
    can start only after the last chunk reads, without the rest of the run
    (the OU pipeline's equilibrium variance and the relaxing sample's
    variance at the classifier's middle time)."""

    def __init__(self, n_traj: int, col: int):
        self.col = col
        self.values = np.empty(n_traj)
        self._rows = 0

    def take(self, chunk: TrajectoryEnsemble):
        hi = self._rows + chunk.n_traj
        self.values[self._rows:hi] = chunk.positions[:, self.col]
        self._rows = hi


def dump_ensemble(ens: TrajectoryEnsemble, directory, fmt: str = "binary") -> Path:
    """Persist an ensemble as a binary dump (EnsembleWriter, with the whole
    ensemble as its one chunk). Any format but "binary" is refused before
    the directory is created."""
    if fmt != "binary":
        raise ValueError(f"unknown dump format {fmt!r}")
    names = [name for name in ("positions", "velocities", "field_values")
             if getattr(ens, name) is not None]
    writer = EnsembleWriter(directory, ens.n_traj, ens.times.size, names)
    writer.take(ens)
    return writer.close(ens)


def _dump_head(directory: Path):
    """A dump's meta.json and its record grid, status and meta as an
    ensemble without arrays; a dump without meta.json was cut off, and one
    of another schema_version is not read."""
    if not (directory / "meta.json").is_file():
        raise IntegrationError(f"no meta.json under {directory}: the dump is "
                               f"missing or was cut off before it was complete")
    meta = json.loads((directory / "meta.json").read_text())
    if meta["schema_version"] != DUMP_SCHEMA_VERSION:
        raise IntegrationError(
            f"unsupported ensemble schema_version {meta['schema_version']}"
        )
    return meta, TrajectoryEnsemble(
        t0=meta["t0"], dt=meta["dt"], n_steps=meta["n_steps"],
        record_stride=meta["record_stride"],
        times=np.load(directory / "times.npy"), positions=None,
        velocities=None, status=np.load(directory / "status.npy"),
        meta=meta.get("meta", {}))


def load_ensemble(directory) -> TrajectoryEnsemble:
    directory = Path(directory)
    meta, head = _dump_head(directory)
    return replace(
        head, positions=np.load(directory / "positions.npy"),
        velocities=(np.load(directory / "velocities.npy")
                    if meta["has_velocities"] else None),
        field_values=(np.load(directory / "field_values.npy")
                      if meta["has_field_values"] else None))


def load_blocks(directory, rows: int):
    """A dump's positions read back rows at a time, in row order: yields
    one TrajectoryEnsemble per block of rows rows (the last maybe fewer),
    its positions the block's whole rows and its status the block's, on
    the dump's record grid (t0, dt, n_steps, record_stride and times the
    dump's). Each block is read with readinto into one buffer of rows
    whole rows, reused, so a block's positions are a view that the next
    block overwrites: a consumer copies what it keeps. Nothing is mapped:
    mapped pages would count in the process's resident set. A dump without
    meta.json (cut off) and a positions.npy that is not C-order float64 of
    meta.json's n_traj rows and the record grid's columns are refused."""
    directory = Path(directory)
    meta, head = _dump_head(directory)
    n_traj, n_rec = meta["n_traj"], head.times.size
    path = directory / "positions.npy"
    buf = np.empty((min(rows, n_traj), n_rec))
    with open(path, "rb") as fh:
        try:
            header = (np.lib.format.read_array_header_1_0(fh)
                      if np.lib.format.read_magic(fh) == (1, 0) else None)
        except ValueError:
            header = None
        if header != ((n_traj, n_rec), False, np.dtype(float)):
            raise IntegrationError(
                f"{path} is not a C-order float64 array of shape "
                f"({n_traj}, {n_rec}), meta.json's n_traj by the recorded "
                f"times")
        for lo in range(0, n_traj, rows):
            block = buf[:min(rows, n_traj - lo)]
            if fh.readinto(block) != block.nbytes:
                raise IntegrationError(
                    f"{path} ends before row {lo + len(block)}")
            yield replace(head, positions=block,
                          status=head.status[lo:lo + len(block)])
