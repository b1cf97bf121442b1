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

Every estimate on one reference set reads a SampleSet, which walks the
intact trajectories in row blocks and keeps only per-bin and
per-trajectory sums, never a (trajectories x reference times) array. Each
block's sums are added to the previous blocks' in order (Chan, Golub &
LeVeque, Am. Stat. 37, 242 (1983)), in the order one np.bincount over the
whole sample array would take, so the walk leaves every output bit as the
whole-array formulas give it.
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

# lags on a diffusion plateau agree within 2 sigma or this relative gap
_PLATEAU_REL = 0.05


class KinematicsError(ValueError):
    """Raised for unusable coarse-graining setups (off-grid lag, empty bins)."""


@dataclass(frozen=True)
class CoarseGrainSpec:
    """Binning and lag choices for the estimators.

    delta_t must be an integer multiple of the ensemble's recorded step.
    x_range (lo, hi) is cut into x_bins uniform bins; samples outside it
    fall in no bin. reference_times are the recorded times where the
    central samples sit, each with room for the lag on either side.
    min_count marks the occupancy below which a bin is ignored.
    """

    delta_t: float
    x_range: tuple
    reference_times: tuple
    x_bins: int = 41
    min_count: int = 25

    def __post_init__(self):
        if self.delta_t <= 0:
            raise KinematicsError("delta_t must be positive")
        if self.x_bins < 5:
            raise KinematicsError(
                f"need at least 5 position bins, got {self.x_bins}")
        lo, hi = self.x_range
        if not (lo < hi and math.isfinite(hi - lo)):
            raise KinematicsError(
                f"x_range ({lo}, {hi}) is not a finite, non-empty interval")
        if len(self.reference_times) == 0:
            raise KinematicsError("no reference times")


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
# estimates

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


@dataclass
class DiffusionEstimate:
    value: float
    std_error: float
    delta_t: float
    n_samples: int


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


# ---------------------------------------------------------------------------
# reference sets and binning

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
    return np.asarray(idx, dtype=int)


def _bin_index(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bin index of each x on the uniform edges, or the overflow bin
    edges.size - 1 (NaN included): np.searchsorted(edges, x, "right") - 1
    with -1 sent to the overflow bin, at a third of its cost. The bin
    (x - edges[0]) / width, clipped to the bins, is within one of the
    answer whenever the width is far above the rounding of the edges; one
    comparison with the edges on either side then settles it exactly."""
    n = edges.size - 1
    t = (x - edges[0]) / (edges[1] - edges[0])
    np.fmin(t, n - 1, out=t)
    np.fmax(t, 0, out=t)
    guess = t.astype(np.intp)
    idx = guess + ~(x < edges[guess + 1])
    idx -= x < edges[guess]
    idx[idx < 0] = n
    return idx


def _bin_means(counts, sums):
    """sums / counts per bin, NaN on empty bins; counts broadcasts against
    the trailing axes of sums."""
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = sums / counts
    mean[..., counts == 0] = np.nan
    return mean


def _binned_mean(counts, sums, sq):
    """Means and standard errors of the samples behind per-bin counts,
    sums and sums of squares."""
    mean = _bin_means(counts, sums)
    with np.errstate(invalid="ignore", divide="ignore"):
        var = np.maximum(sq / counts - mean**2, 0.0)
        se = np.sqrt(var / np.maximum(counts, 1.0))
    se[counts == 0] = np.nan
    return mean, se


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


# ---------------------------------------------------------------------------
# one sample set per reference set

# Samples (trajectory, reference time) per block of a sample set's row
# walk, so each per-sample temporary of a block is about 256 kB whatever
# the width of the reference set. In paired in-process runs on sed- and
# OU-shaped sets this was the fastest choice: 2^16 samples, or 2^16
# gathered positions whatever the number of lags, made the diffusion
# sweep 10-15 % slower.
_BLOCK_SAMPLES = 1 << 15

# the increments binned together, in the order of SampleSet's cell sums
_KINDS = ("v", "u", "va")


def _increments(x: np.ndarray, delta_t: float) -> tuple:
    """The per-sample increments whose bin means estimate v (symmetric
    difference), u (second difference) and va (backward difference), in
    the order of _KINDS, from a block of (x0, xp, xm), each (rows, n_ref)."""
    x0, xp, xm = x
    return ((xp - xm) / (2.0 * delta_t), (xp + xm - 2.0 * x0) / (2.0 * delta_t),
            (x0 - xm) / delta_t)


class SampleSet:
    """The intact rows' positions at one reference set; every estimator
    reads them.

    The reference times ridx are spec.reference_times, resolved for
    spec.delta_t, k recorded steps; the bin edges cut spec.x_range into
    spec.x_bins. Both are fixed before the first walk. The set holds no
    per-sample array: each estimate walks the intact rows in blocks of
    about _BLOCK_SAMPLES samples (TrajectoryEnsemble.intact_blocks),
    gathers the positions it needs, bins each block's central samples and
    keeps only per-bin and per-trajectory sums. Bin sums add every block
    with np.add.at into one accumulator, in the flat order of the (n_ok,
    n_ref) sample array, so they equal one np.bincount over that array bit
    for bit; a trajectory's sum is its row's pairwise sum over a row-major
    block, as over the whole array. v, u and va share one walk (the
    per-reference-time fields of the measured residuals take one of their
    own), and it also sums the forward increments whose bin means D
    subtracts; D then takes one more walk for each trajectory's squared
    deviations. diffusion_sweep's lags share one walk for the bin means
    and one for the deviations. Each binned field and the density are
    computed once per set and shared by every caller.
    """

    def __init__(self, ens: TrajectoryEnsemble, spec: CoarseGrainSpec):
        self.ens, self.spec = ens, spec
        self.k = _lag_steps(ens, spec.delta_t)
        self.ridx = _reference_indices(ens, spec, self.k)
        if not ens.ok_mask().any():
            raise KinematicsError("no intact trajectories in the ensemble")
        self.delta_t = self.k * ens.rec_dt
        self.ref_times = ens.times[self.ridx]
        self.edges = edges = np.linspace(*spec.x_range, spec.x_bins + 1)
        self.width = float(edges[1] - edges[0])
        self.centers = 0.5 * (edges[:-1] + edges[1:])
        self._fields = {}

    def _blocks(self, offsets):
        """Walk the intact rows in row order, about _BLOCK_SAMPLES samples
        at a time: per block, a list of the positions at the reference
        indices and at each of offsets recorded steps from them, each a
        row-major (rows, n_ref) copy."""
        cols = [self.ridx + s for s in (0, *offsets)]
        rows = max(1, _BLOCK_SAMPLES // self.ridx.size)
        walks = [self.ens.intact_blocks(("positions",), c, rows) for c in cols]
        for blocks in zip(*walks):
            yield [x for (x,) in blocks]

    def _cell_sums(self, per_time: bool):
        """(counts, sums, sq): the central samples' counts and, per kind of
        _KINDS, the sums and sums of squares of its increments, on every
        bin with the overflow bin last, pooled over the reference times or
        per reference time. counts has shape (cells,), sums and sq
        (3, cells), with cells = (n_ref if per_time else 1) (x_bins + 1).
        The walk also leaves _forward_sums at the set's own lag."""
        key = ("cells", per_time)
        if key not in self._fields:
            n = self.spec.x_bins + 1
            n_ref = self.ridx.size
            cells = n * n_ref if per_time else n
            first = n * np.arange(n_ref) if per_time else 0
            counts = np.zeros(cells, dtype=np.intp)
            sums, sq = np.zeros((2, len(_KINDS), cells))
            forward = np.zeros((1, n))
            for x in self._blocks((self.k, -self.k)):
                bins = _bin_index(self.edges, x[0])
                cell = (bins + first).ravel()
                counts += np.bincount(cell, minlength=cells)
                for i, inc in enumerate(_increments(x, self.delta_t)):
                    np.add.at(sums[i], cell, inc.ravel())
                    np.add.at(sq[i], cell, (inc**2).ravel())
                np.add.at(forward[0], bins.ravel(), (x[1] - x[0]).ravel())
            self._fields[key] = counts, sums, sq
            self._fields[("forward", (self.k,))] = (
                counts.reshape(-1, n).sum(axis=0), forward)
        return self._fields[key]

    def _forward_sums(self, steps: tuple):
        """(counts, sums): the central samples' counts and, per lag of
        steps (recorded steps), the sums of the forward increments, on
        every bin with the overflow bin last; the first pass of
        _diffusions."""
        key = ("forward", steps)
        if key not in self._fields:
            n = self.spec.x_bins + 1
            counts = np.zeros(n, dtype=np.intp)
            sums = np.zeros((len(steps), n))
            for x in self._blocks(steps):
                bins = _bin_index(self.edges, x[0]).ravel()
                counts += np.bincount(bins, minlength=n)
                for j in range(len(steps)):
                    np.add.at(sums[j], bins, (x[j + 1] - x[0]).ravel())
            self._fields[key] = counts, sums
        return self._fields[key]

    def _binned_field(self, kind, counts, values, se, **meta) -> BinnedField:
        return BinnedField(
            kind=kind, x_centers=self.centers,
            values=values, counts=counts, std_error=se, delta_t=self.delta_t,
            min_count=self.spec.min_count, reference_times=self.ref_times,
            meta={"n_reference_times": int(self.ref_times.size), **meta})

    def field(self, kind: str) -> BinnedField:
        """Bin-conditional mean of the v, u or va increments."""
        if kind not in self._fields:
            counts, sums, sq = self._cell_sums(False)
            i, n = _KINDS.index(kind), self.spec.x_bins
            mean, se = _binned_mean(counts[:n], sums[i, :n], sq[i, :n])
            self._fields[kind] = self._binned_field(kind, counts[:n], mean, se)
        return self._fields[kind]

    def va(self) -> VaEstimate:
        direct = self.field("va")
        v, u = self.field("v"), self.field("u")
        combo = self._binned_field("va", v.counts, v.values - u.values,
                                   np.hypot(v.std_error, u.std_error),
                                   route="v_minus_u")
        both = direct.valid & combo.valid
        gap = np.abs(direct.values - combo.values)
        bound = 2.0 * (direct.std_error + combo.std_error)
        consistent = np.where(both, gap <= bound, False)
        frac = float(consistent[both].mean()) if both.any() else math.nan
        return VaEstimate(backward_difference=direct, v_minus_u=combo,
                          consistent=consistent, consistent_fraction=frac)

    def density(self) -> BinnedField:
        """Normalized position density on the coarse-graining bins."""
        if "rho" not in self._fields:
            counts = self._cell_sums(False)[0][:self.spec.x_bins]
            n = float(counts.sum())
            p = counts / n
            rho = p / self.width
            se = np.sqrt(np.maximum(p * (1 - p), 0.0) / n) / self.width
            self._fields["rho"] = self._binned_field(
                "rho", counts, rho, se,
                normalization="unit integral over binned range")
        return self._fields["rho"]

    def diffusion(self) -> DiffusionEstimate:
        """D at the set's own lag; see estimate_D."""
        return self._diffusions((self.k,))[0]

    def _diffusions(self, steps: tuple) -> list:
        """DiffusionEstimate at each lag of steps (recorded steps), every
        lag from the same two walks: the bin means of the increments, then
        each trajectory's squared deviations from them."""
        delta_ts = [j * self.ens.rec_dt for j in steps]
        means = _bin_means(*self._forward_sums(steps))
        # the overflow bin's NaN mean drops its samples from D
        means[:, -1] = np.nan
        n_ok = int(np.count_nonzero(self.ens.ok_mask()))
        # per lag: each trajectory's mean sample (NaN without one), whether
        # it has one, and the number of samples
        per_traj = np.empty((len(steps), n_ok))
        has = np.empty((len(steps), n_ok), dtype=bool)
        n_samples = [0] * len(steps)
        lo = 0
        for x in self._blocks(steps):
            bins = _bin_index(self.edges, x[0])
            rows = slice(lo, lo + len(x[0]))
            for j, delta_t in enumerate(delta_ts):
                # row-major, so each row's sum over the reference times is
                # pairwise, as over the whole (n_ok, n_ref) array
                dx = x[j + 1] - x[0]
                dx -= means[j][bins]
                samples = np.square(dx, out=dx)
                samples /= 2.0 * delta_t
                finite = np.isfinite(samples)
                np.copyto(samples, 0.0, where=~finite)
                n = np.count_nonzero(finite, axis=1)
                with np.errstate(invalid="ignore"):
                    per_traj[j, rows] = samples.sum(axis=1) / n
                has[j, rows] = n > 0
                n_samples[j] += int(n.sum())
            lo = rows.stop
        ests = []
        for j, delta_t in enumerate(delta_ts):
            values = per_traj[j][has[j]]
            if values.size < 2:
                raise KinematicsError(
                    "too few trajectories for a diffusion estimate")
            ests.append(DiffusionEstimate(
                value=float(np.mean(values)),
                std_error=float(np.std(values, ddof=1)
                                / math.sqrt(values.size)),
                delta_t=delta_t, n_samples=n_samples[j]))
        return ests

    def _fields_at_times(self):
        """Per-reference-time binned v, u, rho and counts, each (n_ref, x_bins)."""
        counts, sums, _ = self._cell_sums(True)
        n_ref, n = self.ridx.size, self.spec.x_bins
        counts = counts.reshape(n_ref, -1)[:, :n]
        v, u = (_bin_means(counts, s.reshape(n_ref, -1)[:, :n])
                for s in sums[:2])
        rho = counts / counts.sum(axis=1, keepdims=True) / self.width
        return v, u, rho, counts

    def residuals(self, mass: float, force, lams, D: float | None = None,
                  time_derivative: str = "omitted") -> dict:
        """ResidualReport per branch sign in lams; only the momentum
        residual depends on the sign. See dynamics_residuals."""
        if time_derivative not in ("omitted", "measured"):
            raise KinematicsError("time_derivative must be 'omitted' or 'measured'")
        spec, width, centers = self.spec, self.width, self.centers
        warnings = []

        if time_derivative == "omitted":
            warnings.append("time-derivative terms omitted (stationarity assumed)")
            v_f, u_f, rho_f = self.field("v"), self.field("u"), self.density()
            run = _largest_valid_run(v_f.valid & u_f.valid)
            v, u, rho = v_f.values[run], u_f.values[run], rho_f.values[run]
            counts = v_f.counts[run]
            dtv = dtrho = np.zeros_like(v)
            ref_times = self.ref_times
        else:
            if len(spec.reference_times) < 3:
                raise KinematicsError(
                    "measured time derivatives need >= 3 reference times")
            steps = np.diff(np.asarray(spec.reference_times, dtype=float))
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise KinematicsError("reference times must be uniformly spaced")
            ht = float(steps[0])
            warnings.append("time derivatives measured by differencing binned "
                            "fields across reference times (experimental)")
            v_t, u_t, rho_t, cnt_t = self._fields_at_times()
            mid = slice(1, v_t.shape[0] - 1)
            valid = (cnt_t >= spec.min_count).all(axis=0) & np.isfinite(v_t).all(axis=0)
            run = _largest_valid_run(valid)
            v, u, rho = (f[mid, run].mean(axis=0) for f in (v_t, u_t, rho_t))
            counts = cnt_t[mid, run].sum(axis=0)
            dtv = ((v_t[2:, run] - v_t[:-2, run]) / (2 * ht)).mean(axis=0)
            dtrho = ((rho_t[2:, run] - rho_t[:-2, run]) / (2 * ht)).mean(axis=0)
            ref_times = self.ref_times[1:-1]

        # after the fields, so that D's bin means come with their walk
        if D is None:
            D = self.diffusion().value
        sl_c = centers[run]
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
                lam=lam, delta_t=self.delta_t, time_derivative=time_derivative,
                x_centers=sl_c, momentum_residual=momentum,
                continuity_residual=continuity, counts=counts,
                relative_momentum=rel_m, relative_continuity=rel_c, scale=scale,
                D_used=float(D), reference_times=ref_times,
                warnings=list(warnings))
        return reports

    def classify_branch(self, mass: float, force, D: float | None = None,
                        time_derivative: str = "omitted") -> BranchReport:
        """See classify_branch."""
        reports = self.residuals(mass, force, (+1, -1), D, time_derivative)
        r_plus, r_minus = (reports[lam].relative_momentum for lam in (+1, -1))
        selected = +1 if r_plus <= r_minus else -1
        worse = max(r_plus, r_minus)
        better = max(min(r_plus, r_minus), 1e-300)
        return BranchReport(selected_lam=selected, ratio=worse / better,
                            reports=reports, D_used=reports[+1].D_used)


# ---------------------------------------------------------------------------
# estimators on one ensemble and spec, each over its own sample set

def estimate_v(ens: TrajectoryEnsemble, spec: CoarseGrainSpec) -> BinnedField:
    """Current velocity v(x) from the symmetric difference."""
    return SampleSet(ens, spec).field("v")


def estimate_u(ens: TrajectoryEnsemble, spec: CoarseGrainSpec) -> BinnedField:
    """Osmotic velocity u(x) from the second symmetric difference."""
    return SampleSet(ens, spec).field("u")


def estimate_va(ens: TrajectoryEnsemble, spec: CoarseGrainSpec) -> VaEstimate:
    return SampleSet(ens, spec).va()


def density_estimate(ens: TrajectoryEnsemble, spec: CoarseGrainSpec) -> BinnedField:
    """Normalized position density on the coarse-graining bins."""
    return SampleSet(ens, spec).density()


def estimate_D(ens: TrajectoryEnsemble, spec: CoarseGrainSpec) -> DiffusionEstimate:
    """Diffusion scale from the variance of the forward increments about
    their bin-conditional mean, so the systematic drift does not inflate
    the estimate. The standard error treats trajectories, not samples, as
    the independent unit.
    """
    return SampleSet(ens, spec).diffusion()


def diffusion_sweep(ens: TrajectoryEnsemble, spec: CoarseGrainSpec,
                    delta_ts) -> DiffusionSweep:
    """estimate_D at each lag in delta_ts, all on spec's reference times
    and bins at the largest lag: the lags share its central samples and
    their bins, and each gathers only its own forward positions. The
    reference times need room for the largest lag."""
    delta_ts = np.asarray(sorted(delta_ts), dtype=float)
    s = SampleSet(ens, replace(spec, delta_t=float(delta_ts[-1])))
    ests = s._diffusions(tuple(_lag_steps(ens, float(dt)) for dt in delta_ts))

    def window_ok(i, j):
        for a in range(i, j + 1):
            for b in range(a + 1, j + 1):
                tol = max(2.0 * (ests[a].std_error + ests[b].std_error),
                          _PLATEAU_REL * 0.5 * (ests[a].value + ests[b].value))
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
    return SampleSet(ens, spec).residuals(mass, force, (lam,), D,
                                          time_derivative)[lam]


def classify_branch(ens: TrajectoryEnsemble, spec: CoarseGrainSpec,
                    mass: float, force, D: float | None = None,
                    time_derivative: str = "omitted") -> BranchReport:
    """Select the branch sign with the smaller momentum residual.

    ratio is (worse residual)/(better residual); a ratio near 1 means the
    data cannot distinguish the branches at this lag and ensemble size.
    """
    return SampleSet(ens, spec).classify_branch(mass, force, D, time_derivative)
