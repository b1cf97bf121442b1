"""Correctness checks on one pipeline execution, computed apart from sedsim.

Every check reads the execution's artifacts (the dumped arrays and the
JSON/CSV side files) and compares them with a value this module computes
itself: a closed form, a mode sum, an independent integration or an
estimate redone from the raw positions. None compares with stored output
of an earlier run.

A statistical check passes when |z| <= Z_GATE. Each run draws fresh seeds,
and a run set makes several hundred such comparisons, so a 3-SE gate would
fail correct code now and then; 5 SE keeps that below 1e-4 per set, while
the perturbations in negative.py land far beyond it. Every check also
reports whether it stayed within 3 SE.

Only sedsim.field.make_field is used, for the phases of one trajectory's
field, as the program draws them.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

Z_GATE = 5.0
Z_NOTE = 3.0
ROWS = 256                    # trajectories per block when streaming arrays
REINTEGRATE_SPAN = 500.0      # re-integrated initial span, in time units
REINTEGRATE_TRAJ = 3          # trajectories re-integrated per execution
REINTEGRATE_TOL = 0.05        # max |x_rk4 - x_ref| as a share of sigma_x
FIELD_TOL = 1e-9              # stored field vs mode sum, share of field std
BALANCE_TOL = 0.10            # |absorbed - radiated| / radiated
AGREE_TOL = 1e-6              # program's summary value vs recomputation


def check_result(name, value, limit, passed, **detail):
    return {"check": name, "value": float(value), "limit": float(limit),
            "passed": bool(passed), **detail}


def _z_result(name, z, **detail):
    return check_result(name, abs(z), Z_GATE, abs(z) <= Z_GATE,
                        within_3se=bool(abs(z) <= Z_NOTE), **detail)


def _mean_se(per_unit):
    per_unit = np.asarray(per_unit, dtype=float)
    return (float(per_unit.mean()),
            float(per_unit.std(ddof=1) / math.sqrt(per_unit.size)))


def _blocks(n):
    return (slice(lo, min(lo + ROWS, n)) for lo in range(0, n, ROWS))


# ---------------------------------------------------------------------------
# the physics, written out here rather than taken from sedsim

def comb_modes(f: dict):
    """Frequencies and amplitudes sqrt(2 S(w) dw) of the uniform comb with
    S(w) = 2 hbar w^3 / (3 pi c^3) on [omega_min, omega_cutoff]."""
    dw = (f["omega_cutoff"] - f["omega_min"]) / f["n_modes"]
    w = f["omega_min"] + dw * (np.arange(f["n_modes"]) + 0.5)
    s = 2.0 * f["hbar"] * w**3 / (3.0 * math.pi * f["c"] ** 3)
    return w, np.sqrt(2.0 * s * dw)


def field_variance_closed_form(f: dict) -> float:
    return (f["hbar"] * (f["omega_cutoff"] ** 4 - f["omega_min"] ** 4)
            / (6.0 * math.pi * f["c"] ** 3))


def force_terms(pot: dict, mass: float):
    """f(x) and f'(x) of the config's potential."""
    if pot["kind"] == "harmonic":
        k = mass * pot["omega0"] ** 2
        return (lambda x: -k * x), (lambda x: np.full_like(x, -k))
    if pot["kind"] == "quartic":
        k4 = pot["k4"]
        return (lambda x: -k4 * x**3), (lambda x: -3.0 * k4 * x**2)
    raise ValueError(f"no force terms for potential {pot['kind']!r}")


def particle_constants(cfg: dict):
    p = cfg["particle"]
    m, tau = p["mass"], p["tau"]
    charge = math.sqrt(1.5 * m * cfg["field"]["c"] ** 3 * tau)
    return m, charge, tau


# ---------------------------------------------------------------------------
# artifacts

class Dump:
    """Memory-mapped view of a dumped ensemble."""

    def __init__(self, directory: Path):
        self.dir = Path(directory)
        self.meta = json.loads((self.dir / "meta.json").read_text())
        self.times = np.load(self.dir / "times.npy")
        self.status = np.load(self.dir / "status.npy")
        self.x = np.load(self.dir / "positions.npy", mmap_mode="r")
        self.v = (np.load(self.dir / "velocities.npy", mmap_mode="r")
                  if self.meta["has_velocities"] else None)
        self.e = (np.load(self.dir / "field_values.npy", mmap_mode="r")
                  if self.meta["has_field_values"] else None)

    def window(self, window):
        return (self.times >= window[0]) & (self.times <= window[1])


def check_finite(d: Dump):
    bad = int(np.count_nonzero(d.status))
    for sl in _blocks(d.x.shape[0]):
        bad += int(np.count_nonzero(~np.isfinite(d.x[sl]).all(axis=1)))
    return check_result("finite_trajectories", bad, 0, bad == 0)


# ---------------------------------------------------------------------------
# SED workloads

def check_field_variance(d: Dump, cfg: dict):
    """Lag-0 field variance from field_values.npy against
    hbar (wc^4 - wmin^4)/(6 pi c^3); trajectories are the independent unit."""
    per_traj = np.concatenate([np.mean(np.square(d.e[sl]), axis=1)
                               for sl in _blocks(d.e.shape[0])])
    mean, se = _mean_se(per_traj)
    ref = field_variance_closed_form(cfg["field"])
    return _z_result("field_variance", (mean - ref) / se, measured=mean,
                     reference=ref, std_error=se)


def check_energy_balance(d: Dump, cfg: dict, run_dir: Path):
    """Absorbed <e E xdot> and radiated m tau <xddot^2> recomputed from the
    dumped arrays on the stationary window; they must agree within 10 %,
    and the program's balance.json must hold the same two means."""
    m, e, tau = particle_constants(cfg)
    f, fp = force_terms(cfg["particle"]["potential"], m)
    sel = d.window(cfg["coarse_grain"]["t_window"])
    ok = np.nonzero(d.status == 0)[0]
    absorbed, radiated = [], []
    for sl in _blocks(ok.size):
        rows = ok[sl]
        x, v, ef = d.x[rows][:, sel], d.v[rows][:, sel], d.e[rows][:, sel]
        acc = (f(x) + tau * fp(x) * v + e * ef) / m
        absorbed.append(np.mean(e * ef * v, axis=1))
        radiated.append(np.mean(m * tau * acc**2, axis=1))
    a = float(np.mean(np.concatenate(absorbed)))
    r = float(np.mean(np.concatenate(radiated)))
    gap = abs(a - r) / r
    prog = json.loads((run_dir / "balance.json").read_text())
    agree = max(abs(prog["mean_absorbed_power"] - a) / abs(a),
                abs(prog["mean_radiated_power"] - r) / r)
    return check_result("energy_balance", gap, BALANCE_TOL,
                        gap <= BALANCE_TOL and agree <= AGREE_TOL,
                        absorbed=a, radiated=r, program_disagreement=agree)


def _mode_sum(w, coef, t):
    """E(t) = Re sum_n coef_n exp(i w_n t) for each row of coef; shape
    (rows, len(t)). coef = amps exp(i phases)."""
    return (coef @ np.exp(1j * np.multiply.outer(w, np.atleast_1d(t)))).real


def check_reintegration(d: Dump, cfg: dict, seed_k, make_field, fspec,
                        segment=None):
    """Re-integrate a few seeded trajectories over [t0, t0 + 500] with DOP853
    (rtol 1e-9), driven by a mode sum built here from the phases of
    make_field(fspec, (master_seed, i, 0)). The stored field must lie within
    FIELD_TOL of that mode sum, and the recorded positions within
    REINTEGRATE_TOL sigma_x of the re-integration. segment=None integrates
    the span from the initial state; segment=k restarts from the recorded
    state every k records, for chaotic dynamics where any step error grows
    exponentially."""
    mseed = cfg["seeds"]["master_seed"]
    rng = np.random.default_rng(seed_k)
    idx = np.sort(rng.choice(d.x.shape[0], REINTEGRATE_TRAJ, replace=False))
    w, amps = comb_modes(cfg["field"])
    coef = amps * np.exp(1j * np.stack(
        [make_field(fspec, (mseed, int(i), 0)).phases[0] for i in idx]))
    rec = np.nonzero(d.times <= d.times[0] + REINTEGRATE_SPAN + 1e-9)[0]
    x_rec = np.asarray(d.x[idx][:, rec])
    v_rec = np.asarray(d.v[idx][:, rec])

    stored = np.asarray(d.e[idx][:, rec])
    field_err = float(np.max(np.abs(stored - _mode_sum(w, coef, d.times[rec])))
                      / math.sqrt(field_variance_closed_form(cfg["field"])))

    m, e, tau = particle_constants(cfg)
    f, fp = force_terms(cfg["particle"]["potential"], m)
    n = idx.size

    def rhs(t, y):
        x, v = y[:n], y[n:]
        ef = _mode_sum(w, coef, t)[:, 0]
        return np.concatenate((v, (f(x) + tau * fp(x) * v + e * ef) / m))

    sel = d.window(cfg["coarse_grain"]["t_window"])
    sigma_x = math.sqrt(float(np.mean(np.square(d.x[:, sel][d.status == 0]))))
    step = segment or rec.size - 1
    x_err = 0.0
    for s in range(0, rec.size - 1, step):
        seg = slice(s, min(s + step, rec.size - 1) + 1)
        t_seg = d.times[rec[seg]]
        sol = solve_ivp(rhs, (t_seg[0], t_seg[-1]),
                        np.concatenate((x_rec[:, s], v_rec[:, s])),
                        method="DOP853", t_eval=t_seg, rtol=1e-9,
                        atol=1e-10 * sigma_x)
        if not sol.success:
            return [check_result("reintegration", math.inf, REINTEGRATE_TOL,
                                 False, message=sol.message)]
        x_err = max(x_err, float(np.max(np.abs(x_rec[:, seg] - sol.y[:n]))))
    x_err /= sigma_x
    return [
        check_result("stored_field", field_err, FIELD_TOL,
                     field_err <= FIELD_TOL, trajectories=idx.tolist()),
        check_result("reintegration", x_err, REINTEGRATE_TOL,
                     x_err <= REINTEGRATE_TOL, trajectories=idx.tolist(),
                     segment_records=segment,
                     span=float(d.times[rec[-1]] - d.times[rec[0]])),
    ]


def linear_response(cfg: dict):
    """Discrete linear-response sum over the comb: x_var = sum (e/m)^2
    S(w_n) dw |H(w_n)|^2 with H = 1/(w0^2 - w^2 + i tau w0^2 w); returns
    (position variance, mean energy)."""
    m, e, tau = particle_constants(cfg)
    w0 = cfg["particle"]["potential"]["omega0"]
    w, amps = comb_modes(cfg["field"])
    h2 = 1.0 / ((w0**2 - w**2) ** 2 + (tau * w0**2 * w) ** 2)
    weights = 0.5 * (e / m * amps) ** 2 * h2
    x_var = float(np.sum(weights))
    v_var = float(np.sum(weights * w**2))
    return x_var, 0.5 * m * (v_var + w0**2 * x_var)


def check_linear_response(d: Dump, cfg: dict):
    """Stationary-window mean energy and position variance, recomputed from
    the dump, against the discrete linear-response sum."""
    m, _, _ = particle_constants(cfg)
    k = m * cfg["particle"]["potential"]["omega0"] ** 2
    sel = d.window(cfg["coarse_grain"]["t_window"])
    ok = np.nonzero(d.status == 0)[0]
    x2, en = [], []
    for sl in _blocks(ok.size):
        x, v = d.x[ok[sl]][:, sel], d.v[ok[sl]][:, sel]
        x2.append(np.mean(x**2, axis=1))
        en.append(np.mean(0.5 * m * v**2 + 0.5 * k * x**2, axis=1))
    x_var_ref, e_ref = linear_response(cfg)
    out = []
    for name, per_traj, ref in (("position_variance", np.concatenate(x2), x_var_ref),
                                ("mean_energy", np.concatenate(en), e_ref)):
        mean, se = _mean_se(per_traj)
        out.append(_z_result(f"{name}_vs_linear_response", (mean - ref) / se,
                             measured=mean, reference=ref, std_error=se))
    return out


def _read_binned_csv(path: Path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return (np.array([float(r["value"]) for r in rows]),
            np.array([int(r["count"]) for r in rows]))


def check_flow_velocity(d: Dump, cfg: dict, run_dir: Path, refs, lag_steps):
    """v(x) = <x(t+lag) - x(t-lag) | x(t)> / (2 lag) redone from positions.npy
    on the same reference times and bins. It must be 0 within Z_GATE pulls in
    every valid bin, with trajectories as the independent unit (samples of
    one trajectory are correlated), and must equal the program's v.csv."""
    cg = cfg["coarse_grain"]
    b = cg["x_bins"]
    edges = np.linspace(b["min"], b["max"], b["n"] + 1)
    ridx = np.rint((np.asarray(refs) - d.times[0])
                   / (d.times[1] - d.times[0])).astype(int)
    ok = np.nonzero(d.status == 0)[0]
    lag = lag_steps * (d.times[1] - d.times[0])
    nb = b["n"]
    sums, cnts = [], []
    for sl in _blocks(ok.size):
        x = d.x[ok[sl]]
        x0, xp, xm = x[:, ridx], x[:, ridx + lag_steps], x[:, ridx - lag_steps]
        inside = (x0 >= edges[0]) & (x0 < edges[-1])
        cell = (np.arange(x0.shape[0])[:, None] * nb
                + np.searchsorted(edges, x0, side="right") - 1)[inside]
        size = x0.shape[0] * nb
        cnts.append(np.bincount(cell, minlength=size).reshape(-1, nb))
        sums.append(np.bincount(cell, weights=((xp - xm) / (2.0 * lag))[inside],
                                minlength=size).reshape(-1, nb))
    cnt, sm = np.concatenate(cnts), np.concatenate(sums)   # (n_traj, n_bins)
    n_b = cnt.sum(axis=0)
    valid = n_b >= cg["min_count"]
    mean = np.where(valid, sm.sum(axis=0) / np.maximum(n_b, 1), np.nan)
    # ratio-estimator variance with trajectories as clusters
    resid = sm - mean[None, :] * cnt
    n_t = cnt.shape[0]
    se = np.sqrt(n_t / (n_t - 1) * np.sum(resid**2, axis=0)) / np.maximum(n_b, 1)
    valid &= se > 0
    pulls = np.abs(mean[valid]) / se[valid]
    prog, prog_cnt = _read_binned_csv(run_dir / "fields" / "v.csv")
    agree = (bool(np.array_equal(prog_cnt, n_b.astype(int)))
             and bool(np.allclose(prog[valid], mean[valid], rtol=1e-9,
                                  atol=1e-12)))
    worst = float(pulls.max())
    return check_result("flow_velocity_zero", worst, Z_GATE,
                        worst <= Z_GATE and agree,
                        within_3se=bool(worst <= Z_NOTE),
                        valid_bins=int(valid.sum()), matches_program=agree)


# ---------------------------------------------------------------------------
# ou-calibration

def check_ou(d: Dump, cfg: dict):
    """Equilibrium variance against D0/theta and the one-step autocorrelation
    against exp(-theta dt), theta = k/(m friction), from positions.npy."""
    lv = cfg["langevin"]
    theta = cfg["particle"]["potential"]["omega0"] ** 2 / lv["friction"]
    dt = float(d.times[1] - d.times[0])
    x2, cross, lead = [], [], []
    for sl in _blocks(d.x.shape[0]):
        x = np.asarray(d.x[sl])
        x2.append(np.mean(x**2, axis=1))
        cross.append(np.sum(x[:, 1:] * x[:, :-1], axis=1))
        lead.append(np.sum(x[:, :-1] ** 2, axis=1))
    var_mean, var_se = _mean_se(np.concatenate(x2))
    var_ref = lv["D0"] / theta
    a, bb = np.concatenate(cross), np.concatenate(lead)
    rho = float(a.sum() / bb.sum())
    rho_se = float(np.std(a - rho * bb, ddof=1) * math.sqrt(a.size) / bb.sum())
    rho_ref = math.exp(-theta * dt)
    return [
        _z_result("equilibrium_variance", (var_mean - var_ref) / var_se,
                  measured=var_mean, reference=var_ref, std_error=var_se),
        _z_result("one_step_autocorrelation", (rho - rho_ref) / rho_se,
                  measured=rho, reference=rho_ref, std_error=rho_se),
    ]
