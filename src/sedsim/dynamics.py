"""Ensemble integration of charged-particle motion in the zero-point field.

The equation of motion is the radiation-reaction form

    m x'' = f(x) + m tau x''' + e E(t),     tau = 2 e^2 / (3 m c^3),

integrated after order reduction: the third-derivative term admits runaway
solutions, so m tau x''' is replaced by tau f'(x) x' (substituting
m x'' ~ f on the small term), exact to O(tau^2). The synthesized field is a
smooth function of time once its phases are drawn, so each trajectory is an
ordinary (non-stochastic) ODE integrated with classical RK4; field values at
substage times come from the mode sum via the cached evaluation grid.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from .field import FieldSpec, cache_grid, make_field

# Trajectories are integrated in fixed-size chunks regardless of worker
# count, so results are bit-identical across schedules.
CHUNK = 256

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
    """V = (1/4) k4 x^4."""
    return Potential(
        kind="quartic",
        V=lambda x: 0.25 * k4 * np.asarray(x, dtype=float) ** 4,
        f=lambda x: -k4 * np.asarray(x, dtype=float) ** 3,
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


IC_SAMPLERS = {
    "delta": DeltaIC,
    "gaussian": GaussianIC,
    "stationary-guess": stationary_guess_ic,
}


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


def integrate_ensemble(particle: ParticleSpec, fspec: FieldSpec, ic,
                       t0: float, dt: float, n_steps: int, n_traj: int,
                       master_seed: int, record_stride: int = 1,
                       n_workers: int = 1,
                       store_field: bool = True) -> TrajectoryEnsemble:
    """Integrate n_traj independent trajectories of the reduced-order equation.

    Each trajectory is driven by its own field realization seeded from
    (master_seed, trajectory index); results are bit-identical across runs
    and across n_workers. dt must resolve the fastest synthesized mode:
    dt <= 2 pi / (10 omega_cutoff).
    """
    if n_traj < 1:
        raise IntegrationError("n_traj must be at least 1")
    dt_max = 2.0 * math.pi / (10.0 * fspec.omega_cutoff)
    if dt > dt_max * (1 + 1e-12):
        raise IntegrationError(
            f"step-size violation: dt={dt:g} exceeds 2 pi/(10 omega_cutoff)"
            f"={dt_max:g}"
        )

    warnings = []
    omega_char = particle.potential.omega_char(particle.mass) or fspec.omega_cutoff
    if particle.tau * omega_char > 0.1:
        warnings.append(
            f"order reduction marginal: tau*omega_char = "
            f"{particle.tau * omega_char:.3g} > 0.1"
        )
    if fspec.mode_spacing == "uniform":
        comb_period = 2.0 * math.pi * fspec.n_modes / (
            fspec.omega_cutoff - fspec.omega_min
        )
        if n_steps * dt > comb_period:
            warnings.append(
                f"run length {n_steps * dt:g} exceeds the synthesized comb "
                f"period {comb_period:g}; field values repeat"
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

    def chunk(span):
        """Integrate trajectories [lo, hi); write records into output slices."""
        lo, hi = span
        n = hi - lo
        tab = np.empty((n, nsub))
        x = np.empty(n)
        v = np.empty(n)
        for i in range(n):
            fr = make_field(fspec, (master_seed, lo + i, 0))
            tab[i] = cache_grid(fr, t0, h2, nsub)[0]
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence((master_seed, lo + i, 1)))
            )
            x[i], v[i] = ic.sample(rng)

        xs[lo:hi, 0] = x
        vs[lo:hi, 0] = v
        if store_field:
            es[lo:hi, 0] = tab[:, 0]

        for k in range(n_steps):
            e0 = tab[:, 2 * k]
            eh = tab[:, 2 * k + 1]
            e1 = tab[:, 2 * k + 2]
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
            x = x + w6 * (v + 2.0 * (v2 + v3) + v4)
            v = v + w6 * (a1 + 2.0 * (a2 + a3) + a4)
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

    spans = [(lo, min(lo + CHUNK, n_traj)) for lo in range(0, n_traj, CHUNK)]
    if n_workers <= 1:
        for span in spans:
            chunk(span)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(chunk, spans))

    times = t0 + dt * record_stride * np.arange(n_rec)
    meta = {
        "master_seed": int(master_seed),
        "omega_char": omega_char,
        "warnings": warnings,
        "field_spec": vars(fspec).copy(),
        "particle": {"mass": particle.mass, "charge": particle.charge,
                     "tau": particle.tau, "c": particle.c,
                     "potential_kind": particle.potential.kind},
    }
    return TrajectoryEnsemble(
        t0=t0, dt=dt, n_steps=n_steps, record_stride=record_stride,
        times=times, positions=xs, velocities=vs, seeds=seeds, status=status,
        field_values=es, meta=meta,
    )


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
