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

Every estimate on one reference set reads a SampleSet, a consumer of a
stream of trajectory chunks (dynamics.integrate_stream,
reference.ou_stream): it walks each chunk's intact rows once, in row
blocks, and keeps sums whose size does not grow with the number of
trajectories, never a (trajectories x reference times) array, so the
pipelines keep no positions for it. Each block's bin sums are added to
the previous blocks' in order, in the order one np.bincount over the
whole sample array would take, so v, u, va and the density keep every
bit the whole-array formulas give them. D, whose bin means are known
only after the last chunk, is linear in a few sums per trajectory; their
mean and scatter over the trajectories are merged block by block (Chan,
Golub & LeVeque, Am. Stat. 37, 242 (1983)) in the same pass. The library
estimators take a whole ensemble as one chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from .config import dumps_config
from .dynamics import TrajectoryEnsemble

# points of the Savitzky-Golay window in dynamics_residuals' derivatives
SAVGOL_WINDOW = 5

# lags on a diffusion plateau agree within 2 sigma or this relative gap
_PLATEAU_REL = 0.05


class KinematicsError(ValueError):
    """Raised for unusable coarse-graining setups (off-grid lag, empty
    bins); field names the CoarseGrainSpec field that a spec refuses."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class CoarseGrainSpec:
    """Binning and lag choices for the estimators.

    delta_t must be an integer multiple of the ensemble's recorded step.
    x_range (lo, hi) is cut into x_bins uniform bins; samples outside it
    fall in no bin. reference_times are the recorded times where the
    central samples sit, each with room for the lag on either side.
    min_count >= 1 marks the occupancy below which a bin is ignored.
    """

    delta_t: float
    x_range: tuple
    reference_times: tuple
    x_bins: int = 41
    min_count: int = 25

    def __post_init__(self):
        if self.delta_t <= 0:
            raise KinematicsError("delta_t must be positive", "delta_t")
        if self.x_bins < 5:
            raise KinematicsError(
                f"need at least 5 position bins, got {self.x_bins}", "x_bins")
        lo, hi = self.x_range
        if not (lo < hi and math.isfinite(hi - lo)):
            raise KinematicsError(
                f"x_range ({lo}, {hi}) is not a finite, non-empty interval",
                "x_range")
        if len(self.reference_times) == 0:
            raise KinematicsError("no reference times", "reference_times")
        if self.min_count < 1:
            raise KinematicsError(
                f"min_count must be at least 1, got {self.min_count}",
                "min_count")


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
            "reference_times": self.reference_times,
            "meta": self.meta,
        }
        path.with_suffix(path.suffix + ".json").write_text(dumps_config(meta))
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

def _lag_steps(rec_dt: float, delta_t: float) -> int:
    k = int(round(delta_t / rec_dt))
    if k < 1 or abs(k * rec_dt - delta_t) > 1e-9 * max(1.0, delta_t):
        raise KinematicsError(
            f"delta_t={delta_t:g} is not a positive integer multiple of the "
            f"recorded step {rec_dt:g}"
        )
    return k


def _reference_indices(times: np.ndarray, rec_dt: float,
                       spec: CoarseGrainSpec, k: int) -> np.ndarray:
    n_rec = times.size
    idx = []
    for t in spec.reference_times:
        j = int(round((t - times[0]) / rec_dt))
        if j < 0 or j >= n_rec or abs(times[j] - t) > 1e-9 * max(1.0, abs(t)):
            raise KinematicsError(
                f"reference time {t:g} is not on the recorded grid")
        if j - k < 0 or j + k >= n_rec:
            raise KinematicsError(
                f"reference time {t:g} leaves no room for lag {k * rec_dt:g}")
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
    """The sums every estimator reads at one reference set, added up from
    a stream of chunks by take(chunk).

    On the record grid times (step rec_dt), the reference times ridx are
    spec.reference_times, with room for spec.delta_t (k recorded steps)
    and for each lag of lags (times; by default spec.delta_t), the lags D
    is estimated at. The bin edges cut spec.x_range into spec.x_bins. All
    are fixed before the first chunk. take walks the chunk's intact rows in
    blocks of about _BLOCK_SAMPLES samples
    (TrajectoryEnsemble.intact_blocks), gathers the positions it reads,
    bins each block's central samples and adds:
    - with cells "pooled" per bin, with cells "per_time" per reference
      time and bin (what the measured residuals read), and with None not
      at all: the central samples' counts and the sums and sums of
      squares of the v, u and va increments;
    - per lag, the forward increments' sums per bin, whose means m_b D
      subtracts;
    - per lag, what D needs of the rows once the m_b are known. With
      more reference times than bins (the overflow bin counted): with
      dx' = dx - p_b, p_b pilot means (the first rows' bin means), a
      row's sum of (dx - m_b)^2 over its n samples in the bins is
      Q - 2 sum_b e_b A_b + sum_b e_b^2 N_b, e_b = m_b - p_b, with
      Q = sum dx'^2, A_b = sum dx' and N_b the count in bin b, so its D
      is linear in y = (Q, A_b, N_b) / n. The set keeps the rows' count,
      mean y and scatter of y about that mean, each block's merged into
      the blocks' before (Chan, Golub & LeVeque): (lags, 2 x_bins + 1,
      2 x_bins + 1) numbers, whatever the number of rows. The pilot keeps
      e_b small, so the expansion does not cancel where the drift over a
      lag is large against the increments' spread. A row with no more
      samples than bins keeps its samples' bins and increments instead,
      whose scatter would cost a dense (2 x_bins + 1)^2 product per row;
      their D keeps the bits of the per-sample formula.
    Bin sums add every block with np.add.at into one accumulator, in the
    flat order of the (n_ok, n_ref) sample array; chunks come in row
    order, so the sums equal one np.bincount over that array bit for bit.
    The estimates read the set once every chunk is taken; each binned
    field, the density and D are computed once per set and shared by
    every caller.
    """

    def __init__(self, times: np.ndarray, rec_dt: float,
                 spec: CoarseGrainSpec, lags=None,
                 cells: str | None = "pooled"):
        if cells not in (None, "pooled", "per_time"):
            raise KinematicsError(
                f"cells must be None, 'pooled' or 'per_time', not {cells!r}")
        self.spec, self.rec_dt, self.cells = spec, rec_dt, cells
        self.k = _lag_steps(rec_dt, spec.delta_t)
        self.lags = sorted(lags) if lags is not None else [spec.delta_t]
        self.steps = tuple(_lag_steps(rec_dt, float(t)) for t in self.lags)
        self.ridx = _reference_indices(times, rec_dt, spec,
                                       max(self.k, *self.steps))
        self.delta_t = self.k * rec_dt
        self.ref_times = times[self.ridx]
        # the recorded columns read: ridx plus each of these offsets
        self.offsets = {0, *self.steps, *((self.k, -self.k) if cells else ())}
        self.edges = edges = np.linspace(*spec.x_range, spec.x_bins + 1)
        self.width = float(edges[1] - edges[0])
        self.centers = 0.5 * (edges[:-1] + edges[1:])
        nb = spec.x_bins + 1
        n_cells = nb * (self.ridx.size if cells == "per_time" else 1)
        # (counts, sums, sq) per cell, sums and sq (3, cells)
        self._cells = None if cells is None else (
            np.zeros(n_cells, dtype=np.intp),
            *np.zeros((2, len(_KINDS), n_cells)))
        self._counts = np.zeros(nb, dtype=np.intp)
        self._forward = np.zeros((len(self.steps), nb))
        # D's rows: with more reference times than bins, how many, and per
        # lag their mean y and scatter about it, and the pilot means y's
        # increments are taken about (0 on the overflow bin); else, per
        # block, the samples' bins and increments
        self._by_bin = nb < self.ridx.size
        self._samples = []
        dims = 2 * spec.x_bins + 1
        self._n_rows = 0
        self._pilot = np.zeros((len(self.steps), nb))
        self._y_mean = np.zeros((len(self.steps), dims))
        self._y_scatter = np.zeros((len(self.steps), dims, dims))
        self._fields = {}

    @classmethod
    def of(cls, ens: TrajectoryEnsemble, spec: CoarseGrainSpec,
           **kwargs) -> "SampleSet":
        """The set of spec on ens's record grid, with ens taken as its one
        chunk; kwargs as for the constructor."""
        samples = cls(ens.times, ens.rec_dt, spec, **kwargs)
        samples.take(ens)
        return samples

    def _blocks(self, chunk: TrajectoryEnsemble):
        """Walk chunk's intact rows in row order, about _BLOCK_SAMPLES
        samples at a time, over the columns from the first to the last one
        read: per block, the positions at the reference indices plus each
        offset read (0 the central samples) by offset, each a row-major
        (rows, n_ref) copy (x[:, idx] alone comes out column-major)."""
        lo = self.ridx.min() + min(self.offsets)
        span = slice(lo, self.ridx.max() + max(self.offsets) + 1)
        rows = max(1, _BLOCK_SAMPLES // self.ridx.size)
        for (x,) in chunk.intact_blocks(("positions",), span, rows):
            yield {s: np.ascontiguousarray(x[:, self.ridx + s - lo])
                   for s in self.offsets}

    def take(self, chunk: TrajectoryEnsemble):
        """Add the sums of chunk's intact rows, chunks in row order."""
        n = self.spec.x_bins + 1
        for x in self._blocks(chunk):
            x0 = x[0]
            bins = _bin_index(self.edges, x0)
            flat = bins.ravel()
            self._counts += np.bincount(flat, minlength=n)
            if self.cells:
                counts, sums, sq = self._cells
                cell = ((bins + n * np.arange(self.ridx.size)).ravel()
                        if self.cells == "per_time" else flat)
                counts += np.bincount(cell, minlength=counts.size)
                incs = _increments((x0, x[self.k], x[-self.k]), self.delta_t)
                for i, inc in enumerate(incs):
                    np.add.at(sums[i], cell, inc.ravel())
                    np.add.at(sq[i], cell, (inc**2).ravel())
            dx = np.array([x[s] - x0 for s in self.steps])
            for total, d in zip(self._forward, dx):
                np.add.at(total, flat, d.ravel())
            if self._by_bin:
                self._merge_rows(bins, dx)
            else:
                self._samples.append(
                    (bins.astype(np.min_scalar_type(n)), dx))

    def _merge_rows(self, bins, dx):
        """Merge y = (Q, A_b, N_b) / n of a block's rows with samples in the
        bins, from the bins of its central samples and its increments dx
        at each lag (lags, rows, n_ref), into the set's count, mean and
        scatter of y (see the class docstring)."""
        rows, nb = len(bins), self.spec.x_bins
        cell = (bins + (nb + 1) * np.arange(rows)[:, None]).ravel()
        N = np.bincount(cell, minlength=rows * (nb + 1)).reshape(rows, nb + 1)
        n = N[:, :nb].sum(axis=1)
        keep = n > 0
        if not keep.any():
            return
        if self._n_rows == 0:
            # the pilot means: the blocks' so far, 0 on bins without one
            self._pilot[:, :nb] = np.nan_to_num(_bin_means(
                self._counts[:nb], self._forward[:, :nb]))
        dx -= self._pilot[:, bins]
        A = np.array([np.bincount(cell, d.ravel(), rows * (nb + 1))
                      for d in dx]).reshape(len(dx), rows, nb + 1)
        dx[:, bins == nb] = 0.0
        Q = np.square(dx, out=dx).sum(axis=2)
        # (lags, dims, rows), row-major: the mean over the rows is a
        # pairwise sum
        y = np.empty((len(dx), 2 * nb + 1, np.count_nonzero(keep)))
        y[:, 0] = Q[:, keep]
        y[:, 1:nb + 1] = A[:, keep, :nb].transpose(0, 2, 1)
        y[:, nb + 1:] = N[keep, :nb].T
        y /= n[keep]
        m, total = y.shape[2], self._n_rows + y.shape[2]
        mean = y.mean(axis=2)
        y -= mean[:, :, None]
        d = mean - self._y_mean
        self._y_mean += d * (m / total)
        self._y_scatter += np.matmul(y, y.transpose(0, 2, 1))
        self._y_scatter += d[:, :, None] * d[:, None, :] * (
            self._n_rows * m / total)
        self._n_rows = total

    def _check_rows(self):
        if not self._counts.any():
            raise KinematicsError("no intact trajectories in the ensemble")

    def _cell_sums(self, cells: str):
        """(counts, sums, sq) of the cells per bin ("pooled"), with the
        overflow bin last, or per reference time and bin ("per_time"); see
        take. counts has shape (cells,), sums and sq (3, cells)."""
        if self.cells != cells:
            raise KinematicsError(
                f"the sample set was built with cells {self.cells!r}, "
                f"not {cells!r}")
        self._check_rows()
        return self._cells

    def _binned_field(self, kind, counts, values, se, **meta) -> BinnedField:
        return BinnedField(
            kind=kind, x_centers=self.centers,
            values=values, counts=counts, std_error=se, delta_t=self.delta_t,
            min_count=self.spec.min_count, reference_times=self.ref_times,
            meta={"n_reference_times": int(self.ref_times.size), **meta})

    def field(self, kind: str) -> BinnedField:
        """Bin-conditional mean of the v, u or va increments."""
        if kind not in self._fields:
            counts, sums, sq = self._cell_sums("pooled")
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
            counts = self._cell_sums("pooled")[0][:self.spec.x_bins]
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
        return self._diffusions()[self.steps.index(self.k)]

    def _diffusions(self) -> list:
        """DiffusionEstimate at each of the set's lags: per trajectory the
        mean of (dx - m_b)^2 / (2 delta_t) over its samples in the bins,
        m_b the bin means of the forward increments dx, and the mean and
        standard error of those over the trajectories."""
        if "D" not in self._fields:
            self._check_rows()
            nb = self.spec.x_bins
            m = _bin_means(self._counts[:nb], self._forward[:, :nb])
            delta_ts = [step * self.rec_dt for step in self.steps]
            finish = self._from_moments if self._by_bin else self._from_samples
            self._fields["D"] = [
                DiffusionEstimate(value=value, std_error=se, delta_t=delta_t,
                                  n_samples=int(self._counts[:nb].sum()))
                for (value, se), delta_t in zip(finish(m, delta_ts), delta_ts)]
        return self._fields["D"]

    @staticmethod
    def _enough(n_rows: int):
        if n_rows < 2:
            raise KinematicsError(
                "too few trajectories for a diffusion estimate")

    def _from_moments(self, m: np.ndarray, delta_ts: list) -> list:
        """(value, std_error) per lag, m the bin means per lag, from the
        rows' mean and scatter of y (see the class docstring)."""
        self._enough(self._n_rows)
        # bins without a sample have N_b = A_b = 0 in every row
        e = np.nan_to_num(m) - self._pilot[:, :-1]
        out = []
        for j, delta_t in enumerate(delta_ts):
            w = np.concatenate(([1.0], -2.0 * e[j], e[j]**2)) / (2.0 * delta_t)
            var = max(w @ self._y_scatter[j] @ w, 0.0) / (self._n_rows - 1)
            out.append((float(self._y_mean[j] @ w),
                        math.sqrt(var / self._n_rows)))
        return out

    def _from_samples(self, m: np.ndarray, delta_ts: list) -> list:
        """(value, std_error) per lag, m the bin means per lag, from the
        kept samples row by row. Each block's samples are dropped once
        read: the set takes no chunk after its estimates."""
        # the overflow bin's NaN mean drops its samples
        m = np.column_stack((m, np.full(len(m), np.nan)))
        per_lag = [[] for _ in delta_ts]
        blocks, self._samples = self._samples, None
        for i, (bins, dx) in enumerate(blocks):
            blocks[i] = None
            for j, delta_t in enumerate(delta_ts):
                with np.errstate(invalid="ignore", divide="ignore"):
                    samples = np.square(dx[j] - m[j, bins])
                    samples /= 2.0 * delta_t
                    finite = np.isfinite(samples)
                    np.copyto(samples, 0.0, where=~finite)
                    n = np.count_nonzero(finite, axis=1)
                    per_lag[j].append((samples.sum(axis=1) / n)[n > 0])
        out = []
        for j in range(len(delta_ts)):
            values = np.concatenate(per_lag[j])
            per_lag[j] = None
            self._enough(values.size)
            out.append((float(np.mean(values)),
                        float(np.std(values, ddof=1) / math.sqrt(values.size))))
        return out

    def sweep(self) -> DiffusionSweep:
        """D at each of the set's lags and their plateau; see
        diffusion_sweep."""
        ests = self._diffusions()

        def window_ok(i, j):
            for a in range(i, j + 1):
                for b in range(a + 1, j + 1):
                    tol = max(2.0 * (ests[a].std_error + ests[b].std_error),
                              _PLATEAU_REL * 0.5 * (ests[a].value + ests[b].value))
                    if abs(ests[a].value - ests[b].value) > tol:
                        return False
            return True

        delta_ts = np.asarray(self.lags, dtype=float)
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

    def _fields_at_times(self):
        """Per-reference-time binned v, u, rho and counts, each (n_ref, x_bins)."""
        counts, sums, _ = self._cell_sums("per_time")
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
# estimators on one ensemble and spec, each over its own sample set with
# the ensemble as its one chunk

def estimate_v(ens: TrajectoryEnsemble, spec: CoarseGrainSpec) -> BinnedField:
    """Current velocity v(x) from the symmetric difference."""
    return SampleSet.of(ens, spec).field("v")


def estimate_u(ens: TrajectoryEnsemble, spec: CoarseGrainSpec) -> BinnedField:
    """Osmotic velocity u(x) from the second symmetric difference."""
    return SampleSet.of(ens, spec).field("u")


def estimate_va(ens: TrajectoryEnsemble, spec: CoarseGrainSpec) -> VaEstimate:
    return SampleSet.of(ens, spec).va()


def density_estimate(ens: TrajectoryEnsemble, spec: CoarseGrainSpec) -> BinnedField:
    """Normalized position density on the coarse-graining bins."""
    return SampleSet.of(ens, spec).density()


def estimate_D(ens: TrajectoryEnsemble, spec: CoarseGrainSpec) -> DiffusionEstimate:
    """Diffusion scale from the variance of the forward increments about
    their bin-conditional mean, so the systematic drift does not inflate
    the estimate. The standard error treats trajectories, not samples, as
    the independent unit.
    """
    return SampleSet.of(ens, spec, cells=None).diffusion()


def diffusion_sweep(ens: TrajectoryEnsemble, spec: CoarseGrainSpec,
                    delta_ts) -> DiffusionSweep:
    """estimate_D at each lag in delta_ts, all on spec's reference times
    and bins at the largest lag: the lags share its central samples and
    their bins, and each gathers only its own forward positions. The
    reference times need room for the largest lag."""
    delta_ts = sorted(delta_ts)
    return SampleSet.of(ens, replace(spec, delta_t=float(delta_ts[-1])),
                        lags=delta_ts, cells=None).sweep()


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
    cells = "per_time" if time_derivative == "measured" else "pooled"
    return SampleSet.of(ens, spec, cells=cells).residuals(
        mass, force, (lam,), D, time_derivative)[lam]


def classify_branch(ens: TrajectoryEnsemble, spec: CoarseGrainSpec,
                    mass: float, force, D: float | None = None,
                    time_derivative: str = "omitted") -> BranchReport:
    """Select the branch sign with the smaller momentum residual.

    ratio is (worse residual)/(better residual); a ratio near 1 means the
    data cannot distinguish the branches at this lag and ensemble size.
    """
    cells = "per_time" if time_derivative == "measured" else "pooled"
    return SampleSet.of(ens, spec, cells=cells).classify_branch(
        mass, force, D, time_derivative)
