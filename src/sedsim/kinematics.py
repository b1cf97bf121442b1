"""Coarse-grained kinematics estimated from trajectory ensembles.

From recorded positions alone, conditional averages over position bins
recover the drift fields and the diffusion scale of the coarse-grained
process:

    v(x)  = < x(t+dt) - x(t-dt) | x(t)=x > / (2 dt)      current velocity
    u(x)  = < x(t+dt) + x(t-dt) - 2 x(t) | x(t)=x > / (2 dt)   osmotic part
    v_a   = < x(t) - x(t-dt) | x(t)=x > / dt             backward drift
    D     = < (x(t+dt) - x(t) - mean)^2 > / (2 dt)

The lag dt here is the coarse-graining time, a multiple of the recorded
step, not the integration step. Estimates are reported per bin with counts
and standard errors; downstream residual checks weight by counts and never
use bins below the minimum occupancy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from .dynamics import TrajectoryEnsemble

# points of the Savitzky-Golay window in dynamics_residuals' derivatives
SAVGOL_WINDOW = 5


class KinematicsError(ValueError):
    """Raised for unusable coarse-graining setups (off-grid lag, empty bins)."""


@dataclass(frozen=True)
class CoarseGrainSpec:
    """Binning and lag choices for the estimators.

    delta_t must be an integer multiple of the ensemble's recorded step.
    reference_times selects where the central samples sit; None means every
    valid recorded time, thinned by thin_stride. x_range of None takes the
    sample extent. Bins are uniform; min_count marks the occupancy below
    which a bin is ignored.
    """

    delta_t: float
    x_bins: int = 41
    x_range: tuple | None = None
    reference_times: tuple | None = None
    thin_stride: int = 1
    min_count: int = 25

    def __post_init__(self):
        if self.delta_t <= 0:
            raise KinematicsError("delta_t must be positive")
        if self.x_bins < 5:
            raise KinematicsError("need at least 5 position bins")
        if self.thin_stride < 1:
            raise KinematicsError("thin_stride must be >= 1")


@dataclass
class BinnedField:
    """A field estimated on position bins at a fixed lag."""

    kind: str
    x_centers: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    std_error: np.ndarray
    delta_t: float
    min_count: int
    reference_times: np.ndarray
    meta: dict = dc_field(default_factory=dict)

    @property
    def valid(self) -> np.ndarray:
        return self.counts >= self.min_count

    @property
    def bin_width(self) -> float:
        return float(self.x_centers[1] - self.x_centers[0])

    def to_csv(self, path) -> Path:
        path = Path(path)
        with open(path, "w") as fh:
            fh.write("x,value,count,std_error\n")
            for i in range(self.x_centers.size):
                fh.write(f"{float(self.x_centers[i])!r},"
                         f"{float(self.values[i])!r},"
                         f"{int(self.counts[i])},"
                         f"{float(self.std_error[i])!r}\n")
        meta = {
            "kind": self.kind,
            "delta_t": self.delta_t,
            "min_count": self.min_count,
            "reference_times": np.asarray(self.reference_times).tolist(),
            "meta": self.meta,
        }
        path.with_suffix(path.suffix + ".json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n")
        return path


# ---------------------------------------------------------------------------
# sample gathering

def _lag_steps(ens: TrajectoryEnsemble, delta_t: float) -> int:
    rec_dt = ens.rec_dt
    k = int(round(delta_t / rec_dt))
    if k < 1 or abs(k * rec_dt - delta_t) > 1e-9 * max(1.0, delta_t):
        raise KinematicsError(
            f"delta_t={delta_t:g} is not a positive integer multiple of the "
            f"recorded step {rec_dt:g}"
        )
    return k


def _reference_indices(ens: TrajectoryEnsemble, spec: CoarseGrainSpec,
                       k: int) -> np.ndarray:
    n_rec = ens.times.size
    if spec.reference_times is None:
        idx = np.arange(k, n_rec - k, spec.thin_stride)
    else:
        idx = []
        for t in spec.reference_times:
            j = int(round((t - ens.t0) / ens.rec_dt))
            if j < 0 or j >= n_rec or abs(ens.times[j] - t) > 1e-9 * max(1.0, abs(t)):
                raise KinematicsError(
                    f"reference time {t:g} is not on the recorded grid")
            if j - k < 0 or j + k >= n_rec:
                raise KinematicsError(
                    f"reference time {t:g} leaves no room for lag {k * ens.rec_dt:g}")
            idx.append(j)
        idx = np.asarray(idx, dtype=int)
    if idx.size == 0:
        raise KinematicsError("no admissible reference times for this lag")
    return idx


@dataclass
class _Samples:
    x0: np.ndarray      # (n_ok, n_ref) central positions
    xp: np.ndarray      # forward positions
    xm: np.ndarray      # backward positions
    ref_times: np.ndarray
    delta_t: float

    def v_increments(self) -> np.ndarray:
        """Symmetric-difference samples of the current velocity v."""
        return (self.xp - self.xm) / (2.0 * self.delta_t)

    def u_increments(self) -> np.ndarray:
        """Second-difference samples of the osmotic velocity u."""
        return (self.xp + self.xm - 2.0 * self.x0) / (2.0 * self.delta_t)


def _gather(ens: TrajectoryEnsemble, spec: CoarseGrainSpec) -> _Samples:
    k = _lag_steps(ens, spec.delta_t)
    ridx = _reference_indices(ens, spec, k)
    if not ens.ok_mask().any():
        raise KinematicsError("no intact trajectories in the ensemble")
    return _Samples(
        x0=ens.intact("positions", ridx), xp=ens.intact("positions", ridx + k),
        xm=ens.intact("positions", ridx - k),
        ref_times=ens.times[ridx], delta_t=k * ens.rec_dt,
    )


def _bin_edges(spec: CoarseGrainSpec, x: np.ndarray) -> np.ndarray:
    if spec.x_range is not None:
        lo, hi = spec.x_range
    else:
        lo, hi = float(np.min(x)), float(np.max(x))
        pad = 1e-9 * max(hi - lo, 1.0)
        lo, hi = lo - pad, hi + pad
    if not hi > lo:
        raise KinematicsError("degenerate position range")
    return np.linspace(lo, hi, spec.x_bins + 1)


def _bin_index(edges: np.ndarray, x: np.ndarray):
    """Bin index per sample and the in-range mask."""
    idx = np.searchsorted(edges, x, side="right") - 1
    inside = (x >= edges[0]) & (x < edges[-1])
    return np.where(inside, idx, 0), inside


def _binned_mean(idx, inside, samples, n_bins):
    w = inside.astype(float)
    counts = np.bincount(idx, weights=w, minlength=n_bins)
    sums = np.bincount(idx, weights=samples * w, minlength=n_bins)
    sq = np.bincount(idx, weights=samples**2 * w, minlength=n_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = sums / counts
        var = np.maximum(sq / counts - mean**2, 0.0)
        se = np.sqrt(var / np.maximum(counts, 1.0))
    mean[counts == 0] = np.nan
    se[counts == 0] = np.nan
    return counts, mean, se


def _make_field(kind, edges, counts, mean, se, samples: _Samples,
                spec: CoarseGrainSpec, **meta) -> BinnedField:
    centers = 0.5 * (edges[:-1] + edges[1:])
    return BinnedField(
        kind=kind, x_centers=centers, values=mean, counts=counts,
        std_error=se, delta_t=samples.delta_t, min_count=spec.min_count,
        reference_times=samples.ref_times,
        meta={"n_reference_times": int(samples.ref_times.size), **meta},
    )


# ---------------------------------------------------------------------------
# field estimators (pooled over reference times)

def estimate_v(ens: TrajectoryEnsemble, spec: CoarseGrainSpec) -> BinnedField:
    """Current velocity v(x) from the symmetric difference."""
    s = _gather(ens, spec)
    return _binned_field_from(s, spec, s.v_increments(), "v")


def estimate_u(ens: TrajectoryEnsemble, spec: CoarseGrainSpec) -> BinnedField:
    """Osmotic velocity u(x) from the second symmetric difference."""
    s = _gather(ens, spec)
    return _binned_field_from(s, spec, s.u_increments(), "u")


def _binned_field_from(s: _Samples, spec: CoarseGrainSpec, vals, kind,
                       edges=None) -> BinnedField:
    x = s.x0.ravel()
    vals = vals.ravel()
    if edges is None:
        edges = _bin_edges(spec, x)
    idx, inside = _bin_index(edges, x)
    counts, mean, se = _binned_mean(idx, inside, vals, spec.x_bins)
    return _make_field(kind, edges, counts, mean, se, s, spec)


@dataclass
class VaEstimate:
    """Mean forward drift by two routes that must agree.

    backward_difference conditions (x(t) - x(t-dt))/dt on x(t); difference
    is v - u evaluated bin by bin. consistent marks bins whose discrepancy
    stays within twice the combined standard error.
    """

    backward_difference: BinnedField
    v_minus_u: BinnedField
    consistent: np.ndarray
    consistent_fraction: float


def estimate_va(ens: TrajectoryEnsemble, spec: CoarseGrainSpec) -> VaEstimate:
    s = _gather(ens, spec)
    edges = _bin_edges(spec, s.x0.ravel())
    direct = _binned_field_from(
        s, spec, (s.x0 - s.xm) / s.delta_t, "va", edges=edges)
    v = _binned_field_from(s, spec, s.v_increments(), "v", edges=edges)
    u = _binned_field_from(s, spec, s.u_increments(), "u", edges=edges)
    combo = _make_field("va", edges, v.counts, v.values - u.values,
                        np.hypot(v.std_error, u.std_error), s, spec,
                        route="v_minus_u")
    both = direct.valid & combo.valid
    gap = np.abs(direct.values - combo.values)
    bound = 2.0 * (direct.std_error + combo.std_error)
    consistent = np.where(both, gap <= bound, False)
    frac = float(consistent[both].mean()) if both.any() else math.nan
    return VaEstimate(backward_difference=direct, v_minus_u=combo,
                      consistent=consistent, consistent_fraction=frac)


# ---------------------------------------------------------------------------
# diffusion scale

@dataclass
class DiffusionEstimate:
    value: float
    std_error: float
    delta_t: float
    subtract_mean: bool
    n_samples: int


def estimate_D(ens: TrajectoryEnsemble, spec: CoarseGrainSpec,
               subtract_mean: bool = True) -> DiffusionEstimate:
    """Diffusion scale from forward-increment variance.

    By default the bin-conditional mean increment is removed first, so the
    systematic drift does not inflate the estimate; the raw second moment is
    available behind subtract_mean=False. The standard error treats
    trajectories, not samples, as the independent unit.
    """
    return _diffusion(_gather(ens, spec), spec, subtract_mean)


def _diffusion(s: _Samples, spec: CoarseGrainSpec,
               subtract_mean: bool = True) -> DiffusionEstimate:
    dx = s.xp - s.x0
    if subtract_mean:
        x = s.x0.ravel()
        edges = _bin_edges(spec, x)
        idx, inside = _bin_index(edges, x)
        counts, mean, _ = _binned_mean(idx, inside, dx.ravel(), spec.x_bins)
        mean = np.where(counts > 0, mean, 0.0)
        dx = np.where(inside.reshape(dx.shape), dx - mean[idx].reshape(dx.shape),
                      np.nan)
    samples = dx**2 / (2.0 * s.delta_t)
    finite = np.isfinite(samples)
    n_per_traj = finite.sum(axis=1)
    sums = np.where(finite, samples, 0.0).sum(axis=1)
    has = n_per_traj > 0
    per_traj = sums[has] / n_per_traj[has]
    if per_traj.size < 2:
        raise KinematicsError("too few trajectories for a diffusion estimate")
    value = float(np.mean(per_traj))
    se = float(np.std(per_traj, ddof=1) / math.sqrt(per_traj.size))
    n = int(finite.sum())
    return DiffusionEstimate(value=value, std_error=se, delta_t=s.delta_t,
                             subtract_mean=subtract_mean, n_samples=n)


@dataclass
class DiffusionSweep:
    """Diffusion estimates across a ladder of lags.

    A plateau is the longest window of >= 3 consecutive lags whose values
    agree pairwise within max(2 sigma, 5 percent). Without one, the sweep
    carries the no-scale-separation flag and the caller should not quote a
    single diffusion constant.
    """

    delta_ts: np.ndarray
    estimates: list
    plateau_found: bool
    plateau_slice: tuple | None
    value: float | None
    flag: str | None

    def to_dict(self) -> dict:
        return {
            "delta_ts": self.delta_ts.tolist(),
            "values": [e.value for e in self.estimates],
            "std_errors": [e.std_error for e in self.estimates],
            "plateau_found": self.plateau_found,
            "plateau_slice": list(self.plateau_slice) if self.plateau_slice else None,
            "value": self.value,
            "flag": self.flag,
        }


def diffusion_sweep(ens: TrajectoryEnsemble, spec: CoarseGrainSpec,
                    delta_ts, subtract_mean: bool = True,
                    plateau_rtol: float = 0.05) -> DiffusionSweep:
    delta_ts = np.asarray(sorted(delta_ts), dtype=float)
    ests = [estimate_D(ens, replace(spec, delta_t=float(dt)),
                       subtract_mean=subtract_mean) for dt in delta_ts]

    def window_ok(i, j):
        for a in range(i, j + 1):
            for b in range(a + 1, j + 1):
                tol = max(2.0 * (ests[a].std_error + ests[b].std_error),
                          plateau_rtol * 0.5 * (ests[a].value + ests[b].value))
                if abs(ests[a].value - ests[b].value) > tol:
                    return False
        return True

    best = None
    n = len(ests)
    for i in range(n):
        for j in range(i + 2, n):
            if window_ok(i, j) and (best is None or j - i > best[1] - best[0]):
                best = (i, j)
    if best is None:
        return DiffusionSweep(delta_ts=delta_ts, estimates=ests,
                              plateau_found=False, plateau_slice=None,
                              value=None, flag="no clean scale separation")
    i, j = best
    wts = np.array([1.0 / max(e.std_error, 1e-300) ** 2 for e in ests[i:j + 1]])
    vals = np.array([e.value for e in ests[i:j + 1]])
    return DiffusionSweep(delta_ts=delta_ts, estimates=ests, plateau_found=True,
                          plateau_slice=(i, j),
                          value=float(np.sum(wts * vals) / np.sum(wts)),
                          flag=None)


# ---------------------------------------------------------------------------
# density

def density_estimate(ens: TrajectoryEnsemble, spec: CoarseGrainSpec) -> BinnedField:
    """Normalized position density on the coarse-graining bins."""
    s = _gather(ens, spec)
    return _density_field(s, spec, _bin_edges(spec, s.x0.ravel()))


def _density_field(s: _Samples, spec: CoarseGrainSpec, edges) -> BinnedField:
    idx, inside = _bin_index(edges, s.x0.ravel())
    counts = np.bincount(idx, weights=inside.astype(float), minlength=spec.x_bins)
    n = float(inside.sum())
    width = float(edges[1] - edges[0])
    p = counts / n
    rho = p / width
    se = np.sqrt(np.maximum(p * (1 - p), 0.0) / n) / width
    return _make_field("rho", edges, counts, rho, se, s, spec,
                       normalization="unit integral over binned range")


# ---------------------------------------------------------------------------
# residual diagnostics

def _largest_valid_run(valid: np.ndarray) -> slice:
    best_len, best_start, cur_len, cur_start = 0, 0, 0, 0
    for i, ok in enumerate(valid):
        if ok:
            if cur_len == 0:
                cur_start = i
            cur_len += 1
            if cur_len > best_len:
                best_len, best_start = cur_len, cur_start
        else:
            cur_len = 0
    if best_len < SAVGOL_WINDOW:
        raise KinematicsError(
            f"only {best_len} contiguous populated bins; need >= {SAVGOL_WINDOW}"
        )
    return slice(best_start, best_start + best_len)


def _sg(values: np.ndarray, width: float, deriv: int) -> np.ndarray:
    """Derivative deriv (1 or 2) of values on bins of the given width by
    the Savitzky-Golay filter of window 5 and order 2 in closed form
    (Anal. Chem. 36, 1627 (1964)), as scipy.signal.savgol_filter(values, 5,
    2, deriv, width, mode="interp"). The quadratic fitted to the 5 points
    at offsets -2..2 around a point has slope (-2, -1, 0, 1, 2)/10 and half
    curvature (2, -1, -2, -1, 2)/14 per bin; each of the first and last two
    points takes the derivative of the quadratic fitted to the first or
    last 5 points."""
    y = np.asarray(values, dtype=float)
    slope = (2.0 * (y[4:] - y[:-4]) + (y[3:-1] - y[1:-3])) / 10.0
    curv = (2.0 * (y[4:] + y[:-4]) - (y[3:-1] + y[1:-3]) - 2.0 * y[2:-2]) / 14.0
    if deriv == 2:
        return np.concatenate(([curv[0]] * 2, curv, [curv[-1]] * 2)) * (
            2.0 / width**2)
    edge = np.array([1.0, 2.0])
    return np.concatenate((slope[0] - 2.0 * curv[0] * edge[::-1], slope,
                           slope[-1] + 2.0 * curv[-1] * edge)) / width


@dataclass
class ResidualReport:
    """Count-weighted residuals of the coarse-grained balance laws.

    momentum: m (dv/dt + v v' - lam (u u' + D u'')) - f(x), evaluated on the
    largest contiguous run of occupied bins. continuity: d rho/dt + (rho v)'.
    relative values are RMS over bins divided by the force/inertia scale.
    The time-derivative entries are omitted by default (stationarity
    assumed and the omission reported); measured mode differences the fields
    across consecutive reference times and is the right choice for relaxing
    ensembles.
    """

    lam: int
    delta_t: float
    time_derivative: str
    x_centers: np.ndarray
    momentum_residual: np.ndarray
    continuity_residual: np.ndarray
    counts: np.ndarray
    relative_momentum: float
    relative_continuity: float
    scale: float
    D_used: float
    reference_times: np.ndarray
    warnings: list


def _fields_at_times(s: _Samples, spec: CoarseGrainSpec, edges):
    """Per-reference-time binned v, u, rho on shared edges."""
    n_ref = s.ref_times.size
    nb = spec.x_bins
    v = np.empty((n_ref, nb))
    u = np.empty((n_ref, nb))
    rho = np.empty((n_ref, nb))
    cnt = np.empty((n_ref, nb))
    width = float(edges[1] - edges[0])
    cv, cu = s.v_increments(), s.u_increments()
    for r in range(n_ref):
        idx, inside = _bin_index(edges, s.x0[:, r])
        c, mv, _ = _binned_mean(idx, inside, cv[:, r], nb)
        _, mu, _ = _binned_mean(idx, inside, cu[:, r], nb)
        n = float(inside.sum())
        v[r], u[r] = mv, mu
        rho[r] = c / n / width
        cnt[r] = c
    return v, u, rho, cnt


def dynamics_residuals(ens: TrajectoryEnsemble, spec: CoarseGrainSpec,
                       mass: float, force, lam: int,
                       D: float | None = None,
                       time_derivative: str = "omitted") -> ResidualReport:
    """Residuals of the momentum and continuity balances for one branch sign.

    force is a callable f(x). D defaults to the subtracted diffusion
    estimate from the same ensemble and lag.
    """
    if lam not in (-1, 1):
        raise KinematicsError("lam must be +1 or -1")
    return _branch_residuals(_gather(ens, spec), spec, mass, force, (lam,), D,
                             time_derivative)[lam]


def _branch_residuals(s: _Samples, spec: CoarseGrainSpec, mass: float, force,
                      lams, D, time_derivative: str) -> dict:
    """ResidualReport per branch sign in lams; only the momentum residual
    depends on the sign."""
    if time_derivative not in ("omitted", "measured"):
        raise KinematicsError("time_derivative must be 'omitted' or 'measured'")
    warnings = []
    if D is None:
        D = _diffusion(s, spec).value

    edges = _bin_edges(spec, s.x0.ravel())
    width = float(edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])

    if time_derivative == "omitted":
        warnings.append("time-derivative terms omitted (stationarity assumed)")
        v_f = _binned_field_from(s, spec, s.v_increments(), "v", edges=edges)
        u_f = _binned_field_from(s, spec, s.u_increments(), "u", edges=edges)
        rho_f = _density_field(s, spec, edges)
        run = _largest_valid_run(v_f.valid & u_f.valid)
        sl_c = centers[run]
        v = v_f.values[run]
        u = u_f.values[run]
        rho = rho_f.values[run]
        counts = v_f.counts[run]
        dtv = np.zeros_like(v)
        dtrho = np.zeros_like(v)
        ref_times = s.ref_times
    else:
        if spec.reference_times is None or len(spec.reference_times) < 3:
            raise KinematicsError(
                "measured time derivatives need >= 3 explicit reference times")
        steps = np.diff(np.asarray(spec.reference_times, dtype=float))
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise KinematicsError("reference times must be uniformly spaced")
        ht = float(steps[0])
        warnings.append("time derivatives measured by differencing binned "
                        "fields across reference times (experimental)")
        v_t, u_t, rho_t, cnt_t = _fields_at_times(s, spec, edges)
        mid = slice(1, v_t.shape[0] - 1)
        valid = (cnt_t >= spec.min_count).all(axis=0) & np.isfinite(v_t).all(axis=0)
        run = _largest_valid_run(valid)
        sl_c = centers[run]
        v = v_t[mid, run].mean(axis=0)
        u = u_t[mid, run].mean(axis=0)
        rho = rho_t[mid, run].mean(axis=0)
        counts = cnt_t[mid, run].sum(axis=0)
        dtv = ((v_t[2:, run] - v_t[:-2, run]) / (2 * ht)).mean(axis=0)
        dtrho = ((rho_t[2:, run] - rho_t[:-2, run]) / (2 * ht)).mean(axis=0)
        ref_times = s.ref_times[1:-1]

    vp = _sg(v, width, 1)
    up = _sg(u, width, 1)
    upp = _sg(u, width, 2)
    rv = _sg(rho * v, width, 1)

    conv = dtv + v * vp                    # convective acceleration
    osm = u * up + D * upp                 # osmotic acceleration
    fx = np.asarray(force(sl_c), dtype=float)
    continuity = dtrho + rv

    scale = max(float(np.max(np.abs(fx))), mass * float(np.max(np.abs(conv))),
                mass * float(np.max(np.abs(osm))), 1e-300)
    w = counts / counts.sum()
    rho_scale = max(float(np.max(np.abs(rho * v))) / max(width, 1e-300),
                    float(np.max(np.abs(dtrho))), 1e-300)
    rel_c = float(np.sqrt(np.sum(w * continuity**2))) / rho_scale

    reports = {}
    for lam in lams:
        momentum = mass * (conv - lam * osm) - fx
        rel_m = float(np.sqrt(np.sum(w * momentum**2))) / scale
        reports[lam] = ResidualReport(
            lam=lam, delta_t=s.delta_t, time_derivative=time_derivative,
            x_centers=sl_c, momentum_residual=momentum,
            continuity_residual=continuity, counts=counts,
            relative_momentum=rel_m, relative_continuity=rel_c, scale=scale,
            D_used=float(D), reference_times=ref_times, warnings=list(warnings),
        )
    return reports


@dataclass
class BranchReport:
    """Outcome of fitting both branch signs to the same ensemble."""

    selected_lam: int
    ratio: float
    reports: dict
    D_used: float

    def to_dict(self) -> dict:
        return {
            "selected_lam": self.selected_lam,
            "ratio": self.ratio,
            "relative_momentum": {str(k): r.relative_momentum
                                  for k, r in self.reports.items()},
            "D_used": self.D_used,
        }


def classify_branch(ens: TrajectoryEnsemble, spec: CoarseGrainSpec,
                    mass: float, force, D: float | None = None,
                    time_derivative: str = "omitted") -> BranchReport:
    """Select the branch sign with the smaller momentum residual.

    ratio is (worse residual)/(better residual); a ratio near 1 means the
    data cannot distinguish the branches at this lag and ensemble size.
    """
    reports = _branch_residuals(_gather(ens, spec), spec, mass, force,
                                (+1, -1), D, time_derivative)
    r_plus = reports[+1].relative_momentum
    r_minus = reports[-1].relative_momentum
    selected = +1 if r_plus <= r_minus else -1
    worse = max(r_plus, r_minus)
    better = max(min(r_plus, r_minus), 1e-300)
    return BranchReport(selected_lam=selected, ratio=worse / better,
                        reports=reports, D_used=reports[+1].D_used)
