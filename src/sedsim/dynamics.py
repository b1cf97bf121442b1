"""Ensemble integration of charged-particle motion in the zero-point field.

The equation of motion is the radiation-reaction form

    m x'' = f(x) + m tau x''' + e E(t),     tau = 2 e^2 / (3 m c^3),

integrated after order reduction: the third-derivative term admits runaway
solutions, so m tau x''' is replaced by tau f'(x) x' (substituting
m x'' ~ f on the small term), exact to O(tau^2). The synthesized field is a
smooth function of time once its phases are drawn, so each trajectory is an
ordinary (non-stochastic) ODE integrated with classical RK4; field values at
substage times come from the mode sum via the cached evaluation grid.

For the harmonic potential the force is linear in x, so one RK4 step is an
affine map s_{k+1} = M s_k + G (e_2k, e_2k+1, e_2k+2) of the state
s = (x, v) and the half-step field values, with M the RK4 stability
polynomial of the system matrix times dt. M and G are read off by applying
the RK4 step itself to unit inputs. Eliminating v (Cayley-Hamilton) makes x
a two-pole IIR filter of the field table,

    x_{k+2} = tr(M) x_{k+1} - det(M) x_k + w_k,

with w_k a 5-tap FIR over e_2k..e_2k+4, which scipy.signal.lfilter runs as
one C pass over the even and one over the odd half-step columns. v at each
record follows from x at that step and the one before. This recurrence path
and the step loop used for every other potential compute the same RK4
trajectory and differ by rounding only: at most 3.6e-12 sigma_x over the
shipped run. ens.meta["integrator"] names the path that ran.
"""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.signal import lfilter, lfiltic

from .field import FieldSpec, cache_grid, comb_cache_params, make_field

# Trajectories are integrated in fixed-size chunks regardless of worker
# count, so results are bit-identical across schedules.
CHUNK = 256

# Rows of a chunk filtered together on the recurrence path; each full-length
# temporary is ROW_BLOCK x n_steps doubles, 12.8 MB on the shipped grid.
ROW_BLOCK = 32

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
        map and the integrator takes the recurrence path. Only the harmonic
        kind qualifies. The free particle's recurrence has a double pole at
        z = 1, where the filter's rounding grows fast: on the shipped grid,
        50,063 steps from (0.3, 0.2), it strayed 3e-7 from a long-double RK4,
        against 3e-11 for the step loop."""
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


def _recurrence_records(step, x0, v0, tab, stride: int):
    """RK4 for a force linear in x, run as its own linear recurrence.

    Returns positions and velocities every stride steps of the rows that
    start at (x0, v0) and are driven by the half-step field table tab,
    shape (rows, 2 n_steps + 1). With s = (x, v) and
    u_k = (e_2k, e_2k+1, e_2k+2), one step is s_{k+1} = M s_k + G u_k. M
    and G are read off by applying step to unit states and unit field
    values, so the recurrence is RK4's own map. Since
    M^2 = tr(M) M - det(M) (Cayley-Hamilton),

        x_{k+2} = tr(M) x_{k+1} - det(M) x_k + P_0 u_k + G_0 u_{k+1},

    P = M G - tr(M) G: a two-pole IIR filter over a 5-tap FIR of the
    half-step table. Each row is filtered on its own, so results do not
    depend on how many rows go into one call.
    """
    M = np.column_stack([step(1.0, 0.0, 0.0, 0.0, 0.0),
                         step(0.0, 1.0, 0.0, 0.0, 0.0)])
    G = np.column_stack([step(0.0, 0.0, *u) for u in np.eye(3)])
    tr = M[0, 0] + M[1, 1]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    P = M @ G - tr * G
    a = np.array([1.0, -tr, det])
    # taps of x_n on e_2n, e_2n-2, e_2n-4 and on e_2n-1, e_2n-3
    b_even = np.array([G[0, 2], P[0, 2] + G[0, 0], P[0, 0]])
    b_odd = np.array([G[0, 1], P[0, 1]])

    n_steps = tab.shape[1] // 2
    even, odd = tab[:, 0::2], tab[:, 1::2]
    x1, _ = step(x0, v0, even[:, 0], odd[:, 0], even[:, 1])
    # x = (even-column response continuing from x0, x1 - z_0)
    #   + (odd-column response from rest, one step late)
    z = lfilter(b_odd, a, odd)
    zi = np.array([lfiltic(b_even, a, (p1, p0), (e1, e0))
                   for p1, p0, e1, e0 in zip(x1 - z[:, 0], x0,
                                             even[:, 1], even[:, 0])])
    x = np.empty((tab.shape[0], n_steps + 1))
    x[:, 0] = x0
    x[:, 1] = x1
    np.add(lfilter(b_even, a, even[:, 2:], zi=zi)[0], z[:, 1:], out=x[:, 2:])

    # v_k from x_k, x_{k-1} and u_{k-1}, eliminating v_{k-1} between the two
    # rows of the step, at the records k = stride, 2 stride, ..., last; basic
    # slices, not index arrays, keep these gathers cheap
    vx = np.array([M[1, 1], -det]) / M[0, 1]
    vu = (M[0, 1] * G[1] - M[1, 1] * G[0]) / M[0, 1]
    last = n_steps - n_steps % stride
    prev = slice(stride - 1, last, stride)
    v = np.empty((tab.shape[0], last // stride + 1))
    v[:, 0] = v0
    v[:, 1:] = (vx[0] * x[:, stride::stride] + vx[1] * x[:, prev]
                + vu[0] * even[:, prev] + vu[1] * odd[:, prev]
                + vu[2] * even[:, stride::stride])
    return x[:, ::stride], v


def comb_time_grid(fspec: FieldSpec, dt: float, span: float):
    """(dt, n_steps, n_fft): the step, at most dt, and the step count of a
    run of length span whose half-step field table is one length-n_fft FFT
    of the uniform comb (cache_grid). A resolved grid resolves to itself.
    Refuses a non-positive span or dt, a non-uniform comb, and a run that
    does not end inside the comb period, where the field repeats. Inside
    it, each widening grows n_fft strictly, and any n_fft >= 3 period /
    (period - span) holds the run, so the widening ends; but a span just
    short of the period would shrink the step without limit, so a widening
    that takes the step below dt/2 is refused before any table exists."""
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
    (Potential.linear) run RK4 as a linear recurrence filtered over the
    field table, ROW_BLOCK rows at a time; the others step it in a loop.
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
    nsub = 2 * n_steps + 1
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

    def chunk(span):
        """Integrate trajectories [lo, hi); write records into output slices."""
        lo, hi = span
        n = hi - lo
        tab = np.empty((n, nsub))
        cache_grid([make_field(fspec, (master_seed, i, 0)) for i in range(lo, hi)],
                   t0, h2, nsub, out=tab[:, None, :])
        x = np.empty(n)
        v = np.empty(n)
        for i in range(n):
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence((master_seed, lo + i, 1)))
            )
            x[i], v[i] = ic.sample(rng)

        if linear:
            for b in range(0, n, ROW_BLOCK):
                rows = slice(b, min(b + ROW_BLOCK, n))
                out = slice(lo + b, lo + rows.stop)
                xs[out], vs[out] = _recurrence_records(step, x[rows], v[rows],
                                                       tab[rows], record_stride)
            bad = ~(np.isfinite(xs[lo:hi]).all(axis=1)
                    & np.isfinite(vs[lo:hi]).all(axis=1))
            status[lo:hi][bad] = STATUS_NONFINITE
            if store_field:
                es[lo:hi] = tab[:, ::2 * record_stride]
            return

        xs[lo:hi, 0] = x
        vs[lo:hi, 0] = v
        if store_field:
            es[lo:hi, 0] = tab[:, 0]

        for k in range(n_steps):
            x, v = step(x, v, tab[:, 2 * k], tab[:, 2 * k + 1], tab[:, 2 * k + 2])
            kk = k + 1
            if kk % record_stride == 0:
                j = kk // record_stride
                bad = ~(np.isfinite(x) & np.isfinite(v))
                if bad.any():
                    status[lo:hi][bad] = STATUS_NONFINITE
                xs[lo:hi, j] = x
                vs[lo:hi, j] = v
                if store_field:
                    es[lo:hi, j] = tab[:, 2 * kk]

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
        "integrator": "rk4-recurrence" if linear else "rk4-loop",
        "omega_char": omega_char,
        "warnings": warnings,
        "field_spec": vars(fspec).copy(),
        "particle": {"mass": particle.mass, "charge": particle.charge,
                     "tau": particle.tau, "c": particle.c,
                     "potential_kind": particle.potential.kind},
    }
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

    x = ens.intact("positions", sel)
    v = ens.intact("velocities", sel)
    efield = ens.intact("field_values", sel)
    absorbed_traj = np.mean(particle.charge * efield * v, axis=1)
    radiated_traj = np.mean(particle.mass * particle.tau
                            * particle.acceleration(x, v, efield)**2, axis=1)
    energy_ti = particle.energy(x, v)
    energy_traj = np.mean(energy_ti, axis=1)

    nt = x.shape[0]
    absorbed = float(np.mean(absorbed_traj))
    radiated = float(np.mean(radiated_traj))
    energy = float(np.mean(energy_traj))
    se_a = float(np.std(absorbed_traj, ddof=1) / math.sqrt(nt)) if nt > 1 else 0.0
    se_r = float(np.std(radiated_traj, ddof=1) / math.sqrt(nt)) if nt > 1 else 0.0
    se_e = float(np.std(energy_traj, ddof=1) / math.sqrt(nt)) if nt > 1 else 0.0

    # net energy drift across the window, from a linear fit of the
    # ensemble-mean energy
    e_of_t = np.mean(energy_ti, axis=0)
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
    energy = particle.energy(ens.intact("positions"), ens.intact("velocities"))
    return ens.times.copy(), np.mean(energy, axis=0)


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
