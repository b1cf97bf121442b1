"""Coarse-grained estimator tests.

Exactness checks use hand-built ensembles whose conditional expectations
are known in closed form; statistical checks run on the exact-kernel
samplers from the reference module, never on the trajectory integrator, so
an integrator defect cannot mask an estimator defect.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from sedsim.dynamics import (
    STATUS_NONFINITE,
    GaussianIC,
    ParticleSpec,
    TrajectoryEnsemble,
    harmonic_potential,
    integrate_ensemble,
)
from sedsim.field import FieldSpec
import sedsim.kinematics
from sedsim.kinematics import (
    CoarseGrainSpec,
    KinematicsError,
    SampleSet,
    classify_branch,
    density_estimate,
    diffusion_sweep,
    estimate_u,
    estimate_v,
    estimate_va,
)
from sedsim.reference import (
    ou_diffusion_estimate,
    ou_ensemble,
    ou_u_slope_equilibrium,
    wiener_ensemble,
)


def synthetic_ensemble(positions: np.ndarray, dt: float,
                       t0: float = 0.0) -> TrajectoryEnsemble:
    """Wrap a (n_traj, n_rec) position array as a recorded ensemble."""
    n_traj, n_rec = positions.shape
    return TrajectoryEnsemble(
        t0=t0, dt=dt, n_steps=n_rec - 1, record_stride=1,
        times=t0 + dt * np.arange(n_rec), positions=positions,
        velocities=None, status=np.zeros(n_traj, dtype=np.int8),
        field_values=None, meta={},
    )


def padded_extent(ens: TrajectoryEnsemble, refs) -> tuple:
    """The intact rows' extent at the reference times refs, widened on
    either side by 1e-9 of its width (at least 1e-9): the range the
    estimators binned when given no x_range."""
    cols = np.rint((np.asarray(refs) - ens.t0) / ens.rec_dt).astype(int)
    x = np.concatenate([x[:, cols] for (x,) in ens.intact_blocks(("positions",))])
    lo, hi = float(x.min()), float(x.max())
    pad = 1e-9 * max(hi - lo, 1.0)
    return lo - pad, hi + pad


# ---------------------------------------------------------------------------
# exactness on hand-built paths

def test_quadratic_paths_give_exact_fields():
    # x_i(t) = c_i + t^2: the symmetric difference is 2 t exactly and the
    # second difference over 2 dt is exactly dt, for every offset c_i
    offsets = np.linspace(-2.0, 2.0, 400)
    dt = 0.1
    times = dt * np.arange(9)
    pos = offsets[:, None] + times[None, :] ** 2
    ens = synthetic_ensemble(pos, dt)
    spec = CoarseGrainSpec(delta_t=dt, x_bins=11, reference_times=(0.4,),
                           x_range=padded_extent(ens, (0.4,)), min_count=1)
    v = estimate_v(ens, spec)
    u = estimate_u(ens, spec)
    assert v.valid.all()
    np.testing.assert_allclose(v.values, 2.0 * 0.4, rtol=0, atol=1e-12)
    np.testing.assert_allclose(u.values, dt, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v.std_error, 0.0, atol=1e-10)
    assert v.kind == "v" and u.kind == "u"
    assert v.delta_t == pytest.approx(dt)


def test_backward_drift_routes_agree_on_deterministic_paths():
    offsets = np.linspace(-1.0, 1.0, 300)
    dt = 0.1
    times = dt * np.arange(9)
    pos = offsets[:, None] + times[None, :] ** 2
    ens = synthetic_ensemble(pos, dt)
    spec = CoarseGrainSpec(delta_t=dt, x_bins=9, reference_times=(0.4,),
                           x_range=padded_extent(ens, (0.4,)), min_count=1)
    va = estimate_va(ens, spec)
    # (x0 - xm)/dt = 2 t - dt = v - u identically here; with zero spread the
    # 2 sigma consistency band is empty, so only the values are compared
    np.testing.assert_allclose(va.backward_difference.values, 0.8 - dt,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(va.v_minus_u.values, 0.8 - dt, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# statistical agreement with the exact process

def test_ou_equilibrium_fields_bin_by_bin():
    theta, d0, lag = 1.0, 0.5, 0.05
    ens = ou_ensemble(theta, d0, 30000, lag, 40, 41, x0="stationary")
    spec = CoarseGrainSpec(delta_t=lag, x_bins=41, x_range=(-2.2, 2.2),
                           reference_times=tuple(ens.times[1:-1:4]))
    v = estimate_v(ens, spec)
    u = estimate_u(ens, spec)
    assert v.valid.sum() >= 35
    slope = ou_u_slope_equilibrium(theta, lag)
    for i in np.where(v.valid)[0]:
        assert abs(v.values[i]) <= 3.5 * v.std_error[i]
        assert abs(u.values[i] - slope * u.x_centers[i]) <= 3.5 * u.std_error[i]
    va = estimate_va(ens, spec)
    assert va.consistent_fraction >= 0.9


def test_va_routes_agree_to_rounding_by_algebra():
    # per sample (x0 - xm)/d = (xp - xm)/(2 d) - (xp + xm - 2 x0)/(2 d)
    # exactly, so the backward-difference route and v - u share their bin
    # means up to rounding whatever the process: the va_consistent_fraction
    # row checks the estimators' arithmetic, not the physics
    ens = ou_ensemble(1.0, 0.5, 4000, 0.05, 40, 41, x0="stationary")
    spec = CoarseGrainSpec(delta_t=0.05, x_bins=21, x_range=(-2.2, 2.2),
                           reference_times=tuple(ens.times[1:-1:4]))
    samples = SampleSet.of(ens, spec)
    va, v = samples.va(), samples.field("v")
    both = va.backward_difference.valid & va.v_minus_u.valid
    assert both.sum() >= 15
    gap = np.abs(va.backward_difference.values - va.v_minus_u.values)[both]
    assert gap.max() <= 1e-12 * np.abs(v.values[v.valid]).max()
    assert va.consistent_fraction == 1.0


def test_ou_diffusion_estimate_matches_closed_form():
    theta, d0, lag = 1.0, 0.5, 0.25
    ens = ou_ensemble(theta, d0, 20000, lag, 12, 46, x0="stationary")
    refs = tuple(ens.times[1:-1])
    spec = CoarseGrainSpec(delta_t=lag, x_bins=21, reference_times=refs,
                           x_range=padded_extent(ens, refs))
    sub = SampleSet.of(ens, spec, cells=None).diffusion()
    assert sub.value == pytest.approx(ou_diffusion_estimate(theta, d0, lag),
                                      abs=3.5 * sub.std_error)


def test_wiener_diffusion_plateau_spans_the_ladder():
    d0 = 0.3
    ens = wiener_ensemble(d0, 2000, 0.01, 200, 42)
    # every other recorded time with room for the largest lag, 32 steps
    refs = tuple(ens.times[32:-32:2])
    spec = CoarseGrainSpec(delta_t=0.01, x_bins=21, reference_times=refs,
                           x_range=padded_extent(ens, refs))
    sweep = diffusion_sweep(ens, spec, [0.01, 0.02, 0.04, 0.08, 0.16, 0.32])
    assert sweep.plateau_found
    i, j = sweep.plateau_slice
    # flat at every lag: the plateau covers the full 1.5-decade ladder
    assert (i, j) == (0, len(sweep.estimates) - 1)
    assert sweep.delta_ts[j] / sweep.delta_ts[i] >= 10.0
    for est in sweep.estimates:
        assert abs(est.value - d0) <= 3.5 * est.std_error
    assert sweep.value == pytest.approx(d0, rel=0.05)


def test_smooth_paths_have_no_diffusion_plateau():
    # differentiable trajectories: the estimate scales with the lag itself
    # and the sweep must refuse to quote a diffusion constant
    zero_field = FieldSpec(omega_cutoff=2.0, n_modes=4, hbar=0.0)
    particle = ParticleSpec(mass=1.0, charge=0.0, tau=0.0,
                            potential=harmonic_potential(1.0, 1.0))
    ens = integrate_ensemble(particle, zero_field, GaussianIC(0.7, 0.7),
                             0.0, 0.05, 120, 400, 45)
    # lags on the recorded grid, which is the comb-exact step below 0.05
    lags = [k * ens.rec_dt for k in (1, 2, 4, 8, 16)]
    refs = tuple(ens.times[16:-16:3])
    spec = CoarseGrainSpec(delta_t=lags[0], x_bins=21, reference_times=refs,
                           x_range=padded_extent(ens, refs), min_count=10)
    sweep = diffusion_sweep(ens, spec, lags)
    values = [e.value for e in sweep.estimates]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] > 8.0 * values[0]
    assert not sweep.plateau_found
    assert sweep.value is None
    assert sweep.flag == "no clean scale separation"


# ---------------------------------------------------------------------------
# momentum-balance residuals

def test_injected_ground_state_fields_select_plus_branch():
    # exact fields planted by construction: x(t +/- dt) = (1 - dt) x gives
    # v = 0 and u = -x per sample, the stationary fields of the oscillator
    # ground state with D = 1/2; only the plus branch closes the balance
    rng = np.random.default_rng(7)
    lag = 0.05
    x0 = math.sqrt(0.5) * rng.standard_normal(50000)
    shifted = (1.0 - lag) * x0
    ens = synthetic_ensemble(np.stack([shifted, x0, shifted], axis=1), lag)
    spec = CoarseGrainSpec(delta_t=lag, x_bins=41, reference_times=(lag,),
                           x_range=padded_extent(ens, (lag,)))
    force = lambda x: -x
    report = classify_branch(ens, spec, 1.0, force, D=0.5)
    plus, minus = report.reports[+1], report.reports[-1]
    assert plus.relative_momentum < 0.01
    assert minus.relative_momentum > 0.3
    assert plus.relative_continuity == 0.0  # v vanishes identically
    assert report.selected_lam == +1
    assert report.ratio > 20.0


def test_equilibrium_ou_closes_under_minus_branch():
    # the stationary process dx = -theta x dt + sqrt(2 D0) dW satisfies the
    # minus-branch balance with the linear force m theta^2 x
    theta, d0, lag = 1.0, 0.5, 0.05
    ens = ou_ensemble(theta, d0, 40000, lag, 40, 44, x0="stationary")
    spec = CoarseGrainSpec(delta_t=lag, x_bins=31, x_range=(-2.1, 2.1),
                           reference_times=tuple(ens.times[1:-1:4]))
    force = lambda x: theta ** 2 * x
    reports = classify_branch(ens, spec, 1.0, force).reports
    minus, plus = reports[-1], reports[+1]
    assert minus.relative_momentum < 0.15
    assert plus.relative_momentum > 3.0 * minus.relative_momentum
    assert minus.D_used == pytest.approx(ou_diffusion_estimate(theta, d0, lag),
                                         rel=0.05)
    assert "stationarity assumed" in minus.warnings[0]


def test_relaxing_ensemble_selects_minus_branch():
    # early in the relaxation the osmotic term is far from its equilibrium
    # cancellation, so the branch signs separate; time derivatives must be
    # measured, not assumed away
    ens = ou_ensemble(0.1, 0.1, 500000, 0.01, 26, 43, x0=0.0)
    refs = (0.15, 0.18, 0.21, 0.24)
    spec = CoarseGrainSpec(delta_t=0.01, x_bins=16, reference_times=refs,
                           x_range=padded_extent(ens, refs))
    report = classify_branch(ens, spec, 1.0, lambda x: -x, D=0.1,
                             time_derivative="measured")
    assert report.selected_lam == -1
    assert report.ratio > 3.0
    assert any("measured" in w for w in report.reports[-1].warnings)


def test_measured_time_derivative_needs_uniform_references():
    ens = ou_ensemble(0.1, 0.1, 2000, 0.01, 26, 43, x0=0.0)
    with pytest.raises(KinematicsError, match=">= 3"):
        classify_branch(
            ens, CoarseGrainSpec(delta_t=0.01, x_bins=8, min_count=5,
                                 x_range=(-1.0, 1.0), reference_times=(0.2,)),
            1.0, lambda x: -x, time_derivative="measured")
    with pytest.raises(KinematicsError, match="uniformly spaced"):
        classify_branch(
            ens, CoarseGrainSpec(delta_t=0.01, x_bins=8, min_count=5,
                                 x_range=(-1.0, 1.0),
                                 reference_times=(0.1, 0.15, 0.22)),
            1.0, lambda x: -x, time_derivative="measured")


def assert_bitwise(got, want, name=""):
    """Equal to the bit, field by field through nested dataclasses."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), name
        for f in dataclasses.fields(want):
            assert_bitwise(getattr(got, f.name), getattr(want, f.name), f.name)
    elif isinstance(want, np.ndarray):
        np.testing.assert_array_equal(got, want, err_msg=name)
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), name
        for a, b in zip(got, want):
            assert_bitwise(a, b, name)
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), name
        for key in want:
            assert_bitwise(got[key], want[key], f"{name}[{key!r}]")
    else:
        assert got == want, name


@pytest.mark.parametrize("x0, refs, time_derivative", [
    ("stationary", None, "omitted"),
    (0.0, (0.15, 0.18, 0.21), "measured"),
])
def test_shared_samples_match_the_standalone_estimators_bitwise(
        x0, refs, time_derivative):
    # one sample set serves every estimator; each estimate read from it must
    # equal its standalone route to the bit. Flagged rows route the gather
    # through the intact-row selection.
    ens = ou_ensemble(0.1, 0.1, 20000, 0.01, 26, 45, x0=x0)
    ens.status[::97] = STATUS_NONFINITE
    # refs None: every recorded time with room for the lag, and for the
    # sweep's largest lag every other one
    sweep_refs = refs or tuple(ens.times[4:23:2])
    refs = refs or tuple(ens.times[1:-1])
    spec = CoarseGrainSpec(delta_t=0.01, x_bins=16, reference_times=refs,
                           x_range=padded_extent(ens, refs))
    va = estimate_va(ens, spec)
    np.testing.assert_array_equal(
        va.v_minus_u.values,
        estimate_v(ens, spec).values - estimate_u(ens, spec).values)

    samples = SampleSet.of(ens, spec)
    assert_bitwise(samples.field("v"), estimate_v(ens, spec))
    assert_bitwise(samples.field("u"), estimate_u(ens, spec))
    assert_bitwise(samples.va(), va)
    assert_bitwise(samples.density(), density_estimate(ens, spec))

    force = lambda x: -0.1 * x
    if time_derivative == "measured":
        samples = SampleSet.of(ens, spec, cells="per_time")
    branch = samples.classify_branch(1.0, force, time_derivative=time_derivative)
    assert_bitwise(branch, classify_branch(ens, spec, 1.0, force,
                                           time_derivative=time_derivative))
    assert branch.D_used == SampleSet.of(ens, spec, cells=None).diffusion().value

    # the sweep's lags share the largest lag's reference set; each lag
    # equals the one-lag D on the same times
    lags = (0.01, 0.02, 0.04)
    sweep_spec = dataclasses.replace(
        spec, reference_times=sweep_refs,
        x_range=padded_extent(ens, sweep_refs))
    sweep = diffusion_sweep(ens, sweep_spec, lags)
    assert_bitwise(sweep.estimates,
                   [SampleSet.of(ens, dataclasses.replace(sweep_spec, delta_t=lag),
                                 cells=None).diffusion()
                    for lag in lags])


def whole_array_estimates(ens, spec, lag_steps):
    """The estimators as whole-array formulas, the form they had before
    the sample set walked row blocks: every position of the reference set
    gathered at once, each binned sum one np.bincount over the gathered
    samples in row-major order, each trajectory's D sum one row of a
    row-major array. Returns the fields, the density, the per-time fields
    and D per lag in lag_steps, all on spec's reference set."""
    ok = ens.ok_mask()
    k = int(round(spec.delta_t / ens.rec_dt))
    ridx = np.array([int(round((t - ens.t0) / ens.rec_dt))
                     for t in spec.reference_times])

    def gather(steps):
        return np.ascontiguousarray(ens.positions[ok][:, ridx + steps])

    x0, xp, xm = gather(0), gather(k), gather(-k)
    n = spec.x_bins
    lo, hi = spec.x_range
    edges = np.linspace(lo, hi, n + 1)
    width = float(edges[1] - edges[0])
    idx = np.searchsorted(edges, x0, side="right") - 1
    idx[idx < 0] = n

    def binned(idx, w):
        counts = np.bincount(idx, minlength=n + 1)
        sums = np.bincount(idx, weights=w, minlength=n + 1)
        sq = np.bincount(idx, weights=w**2, minlength=n + 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = sums / counts
            se = np.sqrt(np.maximum(sq / counts - mean**2, 0.0)
                         / np.maximum(counts, 1.0))
        mean[counts == 0] = np.nan
        se[counts == 0] = np.nan
        return counts, mean, se

    dt = k * ens.rec_dt
    increments = {"v": (xp - xm) / (2.0 * dt),
                  "u": (xp + xm - 2.0 * x0) / (2.0 * dt),
                  "va": (x0 - xm) / dt}
    fields = {kind: [a[:n] for a in binned(idx.ravel(), inc.ravel())]
              for kind, inc in increments.items()}
    counts = fields["v"][0]
    p = counts / float(counts.sum())
    density = (p / width,
               np.sqrt(np.maximum(p * (1 - p), 0.0) / counts.sum()) / width)

    # per reference time: v and u means, density, counts, each (n_ref, n)
    per_time = []
    for r in range(ridx.size):
        c, v, _ = binned(idx[:, r], increments["v"][:, r])
        u = binned(idx[:, r], increments["u"][:, r])[1]
        per_time.append((v[:n], u[:n], c[:n] / float(c[:n].sum()) / width,
                         c[:n]))
    per_time = [np.array(col) for col in zip(*per_time)]

    diffusion = {}
    for steps in lag_steps:
        dx = gather(steps) - x0
        mean = binned(idx.ravel(), dx.ravel())[1]
        mean[n] = np.nan
        dx = dx - mean[idx]
        samples = dx**2 / (2.0 * steps * ens.rec_dt)
        finite = np.isfinite(samples)
        n_per = finite.sum(axis=1)
        sums = np.where(finite, samples, 0.0).sum(axis=1)
        per_traj = sums[n_per > 0] / n_per[n_per > 0]
        diffusion[steps] = (
            float(np.mean(per_traj)),
            float(np.std(per_traj, ddof=1) / math.sqrt(per_traj.size)),
            int(finite.sum()))
    return fields, density, per_time, diffusion


def assert_diffusions(got, want):
    """DiffusionEstimates got against the whole-array formulas' (value,
    std_error, n_samples) per lag: the same samples, and from the rows'
    mean and scatter of (Q, A_b, N_b) / n, which round otherwise than the
    sum of (dx - m_b)^2, within 1e-14 relative."""
    for est, (value, se, n_samples) in zip(got, want, strict=True):
        assert est.n_samples == n_samples
        np.testing.assert_allclose([est.value, est.std_error], [value, se],
                                   rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("x0, refs, x_range, flagged", [
    ("stationary", None, None, False),
    ("stationary", None, (-0.8, 0.8), True),
    (0.0, (0.6, 0.9, 1.2, 1.5), None, True),
    (0.0, (0.6, 0.9, 1.2, 1.5), (-0.4, 0.4), False),
])
def test_sample_set_equals_the_whole_array_formulas_bitwise(
        x0, refs, x_range, flagged, monkeypatch):
    # reference times None, every recorded time with room for the lag, give
    # 290 and more samples per trajectory, past the 128 of numpy's
    # pairwise-sum blocks; x_range None is the central samples' padded
    # extent. The narrow ranges leave samples in the overflow bin, whose
    # NaN mean drops them from D
    ens = ou_ensemble(0.1, 0.1, 2000, 0.01, 300, 49, x0=x0)
    if flagged:
        ens.status[::97] = STATUS_NONFINITE

    def spec_at(lag_steps):
        times = refs or tuple(ens.times[lag_steps:-lag_steps])
        return CoarseGrainSpec(delta_t=0.01 * lag_steps, x_bins=16,
                               x_range=x_range or padded_extent(ens, times),
                               reference_times=times)

    spec = spec_at(2)
    samples = SampleSet.of(ens, spec)
    fields, density, per_time, diffusion = whole_array_estimates(
        ens, spec, (2,))
    for kind in ("v", "u", "va"):
        field = samples.field(kind)
        assert_bitwise((field.counts, field.values, field.std_error),
                       fields[kind], kind)
    rho = samples.density()
    assert_bitwise((rho.values, rho.std_error), density, "rho")
    assert_diffusions([samples.diffusion()], [diffusion[2]])

    # the sweep's lags on the reference set of the largest lag
    steps = (1, 2, 5)
    sweep_spec = spec_at(5)
    diffusion = whole_array_estimates(ens, sweep_spec, steps)[3]
    sweep = diffusion_sweep(ens, sweep_spec, [0.01 * j for j in steps])
    assert_diffusions(sweep.estimates, [diffusion[j] for j in steps])

    if refs is not None:
        # the measured residuals read the per-time fields; fed the
        # whole-array ones and the same D, they give the same reports
        force = lambda x: -0.1 * x
        got = SampleSet.of(ens, spec, cells="per_time").classify_branch(
            1.0, force, time_derivative="measured")
        want_set = SampleSet.of(ens, spec, cells="per_time")
        monkeypatch.setattr(want_set, "_fields_at_times", lambda: per_time)
        assert_bitwise(got, want_set.classify_branch(
            1.0, force, D=got.D_used, time_derivative="measured"))


@pytest.mark.parametrize("refs, cells", [
    (None, "pooled"),
    ((0.6, 0.9, 1.2, 1.5), "per_time"),
])
def test_a_set_taking_chunks_equals_one_taking_the_whole_ensemble(refs,
                                                                  cells):
    # chunks of uneven widths in row order, flagged rows on both sides of
    # boundaries and one chunk all flagged: every bin sum of the set fed
    # chunk by chunk equals the one fed the whole ensemble, so each
    # estimate at a given D does, bit for bit, at 290 reference times or
    # at 4. D, whose rows' mean and scatter merge at the blocks a chunk
    # boundary cuts, agrees within 1e-14 relative: from each row's sums at
    # 290 times, from the samples and their pairs at 4 (17 bins)
    ens = ou_ensemble(0.1, 0.1, 2000, 0.01, 300, 49, x0=0.0)
    cuts = [0, 7, 300, 333, 1000, 1100, 2000]
    ens.status[[6, 7, 299, 300, *range(1000, 1100)]] = STATUS_NONFINITE
    spec = CoarseGrainSpec(delta_t=0.02, x_bins=16, x_range=(-0.5, 0.5),
                           reference_times=refs or tuple(ens.times[5:-5]))
    sums = dict(lags=(0.01, 0.02, 0.05), cells=cells)
    whole = SampleSet.of(ens, spec, **sums)
    streamed = SampleSet(ens.times, ens.rec_dt, spec, **sums)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        streamed.take(dataclasses.replace(ens, **{
            name: getattr(ens, name)[lo:hi]
            for name in ("positions", "status")}))
    assert_diffusions(streamed.sweep().estimates,
                      [(e.value, e.std_error, e.n_samples)
                       for e in whole.sweep().estimates])
    D, force = whole.diffusion().value, lambda x: -0.1 * x
    mode = "omitted" if cells == "pooled" else "measured"
    assert_bitwise(
        streamed.classify_branch(1.0, force, D=D, time_derivative=mode),
        whole.classify_branch(1.0, force, D=D, time_derivative=mode))
    if cells == "pooled":
        assert_bitwise(streamed.va(), whole.va())
        assert_bitwise(streamed.density(), whole.density())


@pytest.mark.parametrize("n_ref", [2, 3, 4])
def test_rows_with_every_sample_in_one_bin(n_ref):
    # each row sits at one position c_i at every reference time (every
    # other record), so its n_ref samples share a bin, and moves by its own
    # increments in between; every 7th row is constant in time. Two samples
    # in one bin enter D's scatter twice: D and its SE equal the per-row
    # formula, for the whole ensemble and fed in uneven chunks
    rng = np.random.default_rng(52)
    n_traj = 3000
    c = rng.uniform(-1.0, 1.0, n_traj)
    pos = np.repeat(c[:, None], 2 * n_ref + 1, axis=1)
    pos[:, 2::2] += 0.1 * c[:, None] + rng.normal(scale=0.05,
                                                  size=(n_traj, n_ref))
    pos[::7] = c[::7, None]
    ens = synthetic_ensemble(pos, 0.1)
    spec = CoarseGrainSpec(delta_t=0.1, x_bins=8, x_range=(-1.0, 1.0),
                           reference_times=tuple(ens.times[1::2]))
    assert spec.x_bins + 1 >= n_ref
    want = whole_array_estimates(ens, spec, (1,))[3][1]
    assert want[1] > 0
    whole = SampleSet.of(ens, spec, cells=None)
    streamed = SampleSet(ens.times, ens.rec_dt, spec, cells=None)
    for lo, hi in ((0, 5), (5, 1200), (1200, n_traj)):
        streamed.take(dataclasses.replace(ens, positions=pos[lo:hi],
                                          status=ens.status[lo:hi]))
    for samples in (whole, streamed):
        assert_diffusions([samples.diffusion()], [want])


def test_a_set_keeps_the_same_state_whatever_the_rows_taken():
    # 3 reference times, 16 bins: what the set holds after take does not
    # grow with the rows it took, 2,000 or 20,000. The first set taken
    # warms numpy's own caches, whose few 100-byte entries still vary; a
    # set that kept 9 bytes per sample would grow by 486 kB
    ens = ou_ensemble(0.1, 0.1, 20000, 0.01, 40, 53, x0=0.0)
    spec = CoarseGrainSpec(delta_t=0.02, x_bins=16, x_range=(-1.2, 1.2),
                           reference_times=(0.16, 0.2, 0.24))
    retained = []
    for rows in (2000, 2000, 20000):
        part = dataclasses.replace(ens, positions=ens.positions[:rows],
                                   status=ens.status[:rows])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            samples = SampleSet(ens.times, ens.rec_dt, spec, cells="per_time")
            samples.take(part)
            retained.append(tracemalloc.get_traced_memory()[0] - base)
        finally:
            tracemalloc.stop()
        assert samples.diffusion().n_samples == 3 * rows
        del samples
    assert abs(retained[2] - retained[1]) < 1024, retained


def test_a_set_without_lags_keeps_no_diffusion_state():
    # its fields keep every bit of the default set's; D is refused by name
    ens = ou_ensemble(0.1, 0.1, 2000, 0.01, 40, 54, x0="stationary")
    spec = CoarseGrainSpec(delta_t=0.02, x_bins=16, x_range=(-2.0, 2.0),
                           reference_times=(0.2,))
    bare = SampleSet.of(ens, spec, lags=())
    assert bare.steps == () and bare._y_scatter.size == 0
    full = SampleSet.of(ens, spec)
    for kind in ("v", "u", "va"):
        assert_bitwise(bare.field(kind), full.field(kind), kind)
    assert_bitwise(bare.density(), full.density())
    with pytest.raises(KinematicsError,
                       match="keeps no D at its lag 0.02: it was built "
                             "with lags"):
        bare.diffusion()


def test_bin_index_is_searchsorted_exactly():
    # the arithmetic guess plus one comparison on either side equals
    # searchsorted on the edges, on them, one ulp either side, outside
    # them and at NaN and infinities
    rng = np.random.default_rng(50)
    for lo, hi, n in ((-3.0, 3.0, 41), (-0.35, 0.35, 16), (0.1, 0.7, 7),
                      (-2e-3, 1e-3, 5), (1e3, 1e3 + 1.0, 9),
                      (-7.3, 7.3 + 1e-9, 25)):
        edges = np.linspace(lo, hi, n + 1)
        x = np.concatenate([
            rng.uniform(2 * lo - hi, 2 * hi - lo, 20000), edges,
            np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [np.nan, np.inf, -np.inf, 1e300, -1e300]])
        want = np.searchsorted(edges, x, side="right") - 1
        want[want < 0] = n
        np.testing.assert_array_equal(
            sedsim.kinematics._bin_index(edges, x), want)
        np.testing.assert_array_equal(
            sedsim.kinematics._bin_index(edges, x[:20000].reshape(-1, 8)),
            want[:20000].reshape(-1, 8))


@pytest.mark.parametrize("flagged", [False, True])
def test_sample_set_memory_stays_below_a_quarter_of_one_sample_array(flagged):
    # 16,000 trajectories at 253 reference times: one (n_ok, n_ref) float
    # array is 32 MB. Every estimate, both residual modes (two sets, one
    # per kind of cells, held together) and the sweep hold per-bin sums,
    # D's mean and scatter per lag, and one block's temporaries
    ens = ou_ensemble(0.1, 0.1, 16000, 0.01, 260, 51, x0="stationary")
    if flagged:
        ens.status[::97] = STATUS_NONFINITE
    refs = tuple(float(t) for t in ens.times[4:257])
    spec = CoarseGrainSpec(delta_t=0.02, x_bins=16, reference_times=refs,
                           x_range=padded_extent(ens, refs))
    one_array = np.count_nonzero(ens.ok_mask()) * len(refs) * 8
    assert one_array > 8e6
    force = lambda x: -0.1 * x
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        samples = SampleSet.of(ens, spec)
        for kind in ("v", "u", "va"):
            samples.field(kind)
        samples.va()
        samples.density()
        samples.diffusion()
        samples.classify_branch(1.0, force, time_derivative="omitted")
        per_time = SampleSet.of(ens, spec, cells="per_time")
        per_time.classify_branch(1.0, force, time_derivative="measured")
        diffusion_sweep(ens, spec, (0.01, 0.02, 0.04))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < one_array / 4, (peak, one_array)


# ---------------------------------------------------------------------------
# density

def test_density_estimate_integrates_to_one():
    ens = ou_ensemble(1.0, 0.5, 20000, 0.1, 10, 47, x0="stationary")
    refs = tuple(ens.times[1:-1])
    spec = CoarseGrainSpec(delta_t=0.1, x_bins=25, reference_times=refs,
                           x_range=padded_extent(ens, refs))
    rho = density_estimate(ens, spec)
    assert float(np.sum(rho.values) * rho.bin_width) == pytest.approx(1.0,
                                                                      abs=1e-12)
    sigma2 = 0.5
    for i in np.where(rho.valid)[0]:
        expected = math.exp(-0.5 * rho.x_centers[i] ** 2 / sigma2) / math.sqrt(
            2.0 * math.pi * sigma2)
        assert abs(rho.values[i] - expected) <= 4.0 * rho.std_error[i] + 0.01


def test_samples_outside_the_bins_are_counted_nowhere():
    # pairs of opposite increments in three bins on [-1, 1), and two samples
    # outside (below the first edge and on the last) with large increments
    x0 = np.array([-0.9, -0.9, 0.1, 0.1, 0.5, 0.5, -1.2, 1.0])
    d = np.array([0.1, -0.1, 0.2, -0.2, 0.3, -0.3, 5.0, 5.0])
    ens = synthetic_ensemble(np.stack([x0, x0, x0 + d], axis=1), 0.1)
    spec = CoarseGrainSpec(delta_t=0.1, x_bins=5, x_range=(-1.0, 1.0),
                           reference_times=(0.1,), min_count=1)
    v = estimate_v(ens, spec)
    assert np.issubdtype(v.counts.dtype, np.integer)
    assert v.counts.tolist() == [2, 0, 2, 2, 0]
    rho = density_estimate(ens, spec)
    assert float(np.sum(rho.values) * rho.bin_width) == pytest.approx(1.0)
    # the in-bin means are zero, so D is the inside samples' d^2 / (2 dt)
    inside = SampleSet.of(ens, spec, cells=None).diffusion()
    assert inside.n_samples == 6
    assert inside.value == pytest.approx(np.mean(d[:6] ** 2) / 0.2, rel=1e-12)


# ---------------------------------------------------------------------------
# guards

def test_lag_must_sit_on_the_recorded_grid():
    ens = synthetic_ensemble(np.zeros((10, 6)), 0.02)
    with pytest.raises(KinematicsError, match="integer multiple"):
        estimate_v(ens, CoarseGrainSpec(delta_t=0.03, x_bins=5, min_count=1,
                                        x_range=(-1.0, 1.0),
                                        reference_times=(0.04,)))


def test_reference_time_checks():
    ens = synthetic_ensemble(np.random.default_rng(0).normal(size=(50, 8)), 0.1)
    with pytest.raises(KinematicsError, match="not on the recorded grid"):
        estimate_v(ens, CoarseGrainSpec(delta_t=0.1, x_bins=5, min_count=1,
                                        x_range=(-1.0, 1.0),
                                        reference_times=(0.33,)))
    with pytest.raises(KinematicsError, match="no room"):
        estimate_v(ens, CoarseGrainSpec(delta_t=0.2, x_bins=5, min_count=1,
                                        x_range=(-1.0, 1.0),
                                        reference_times=(0.1,)))


def test_spec_validation():
    ok = {"x_range": (-1.0, 1.0), "reference_times": (0.1,)}
    with pytest.raises(KinematicsError, match="positive"):
        CoarseGrainSpec(delta_t=0.0, **ok)
    with pytest.raises(KinematicsError, match="bins"):
        CoarseGrainSpec(delta_t=0.1, x_bins=4, **ok)
    # the bins and the reference times are the caller's to give
    with pytest.raises(TypeError):
        CoarseGrainSpec(delta_t=0.1)


@pytest.mark.parametrize("x_range, refs, message, min_count", [
    ((1.0, 1.0), (0.1,), "x_range", 25),
    ((1.0, -1.0), (0.1,), "x_range", 25),
    ((-1.0, math.nan), (0.1,), "x_range", 25),
    ((-math.inf, 1.0), (0.1,), "x_range", 25),
    ((-1.0, math.inf), (0.1,), "x_range", 25),
    ((-1e308, 1e308), (0.1,), "x_range", 25),
    ((-1.0, 1.0), (), "no reference times", 25),
    ((-1.0, 1.0), (0.1,), "min_count must be at least 1, got 0", 0),
])
def test_spec_refuses_an_empty_range_or_reference_set(x_range, refs, message,
                                                      min_count):
    # refused when the spec is made, before any ensemble is read
    with pytest.raises(KinematicsError, match=message):
        CoarseGrainSpec(delta_t=0.1, x_range=x_range, reference_times=refs,
                        min_count=min_count)


def test_min_count_masks_thin_bins():
    rng = np.random.default_rng(3)
    pos = np.cumsum(rng.normal(scale=0.05, size=(60, 5)), axis=1)
    ens = synthetic_ensemble(pos, 0.1)
    spec = CoarseGrainSpec(delta_t=0.1, x_bins=41, x_range=(-10.0, 10.0),
                           reference_times=tuple(ens.times[1:-1]), min_count=25)
    v = estimate_v(ens, spec)
    assert not v.valid.all()
    assert np.isnan(v.values[v.counts == 0]).all()
    assert v.valid.sum() >= 1


def test_residuals_need_a_contiguous_run_of_bins():
    # all mass lands in one or two bins of a wide grid
    rng = np.random.default_rng(4)
    pos = 0.01 * rng.normal(size=(100, 5))
    ens = synthetic_ensemble(pos, 0.1)
    spec = CoarseGrainSpec(delta_t=0.1, x_bins=41, x_range=(-10.0, 10.0),
                           reference_times=tuple(ens.times[1:-1]))
    with pytest.raises(KinematicsError, match="contiguous"):
        classify_branch(ens, spec, 1.0, lambda x: -x, D=0.5)


def test_time_derivative_argument_is_checked():
    ens = synthetic_ensemble(np.random.default_rng(5).normal(size=(40, 5)), 0.1)
    refs = tuple(ens.times[1:-1])
    spec = CoarseGrainSpec(delta_t=0.1, x_bins=5, min_count=1,
                           reference_times=refs,
                           x_range=padded_extent(ens, refs))
    with pytest.raises(KinematicsError, match="time_derivative"):
        classify_branch(ens, spec, 1.0, lambda x: -x, D=0.5,
                        time_derivative="extrapolated")


# ---------------------------------------------------------------------------
# persistence

def test_binned_field_csv_round_trip(tmp_path):
    ens = ou_ensemble(1.0, 0.5, 2000, 0.05, 10, 48, x0="stationary")
    refs = tuple(ens.times[1:-1])
    spec = CoarseGrainSpec(delta_t=0.05, x_bins=15, reference_times=refs,
                           x_range=padded_extent(ens, refs))
    u = estimate_u(ens, spec)
    path = u.to_csv(tmp_path / "u.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "x,value,count,std_error"
    assert len(lines) == 16
    first = lines[1].split(",")
    assert float(first[0]) == u.x_centers[0]
    assert int(first[2]) == int(u.counts[0])
    sidecar = json.loads(path.with_suffix(".csv.json").read_text())
    assert sidecar["kind"] == "u"
    assert sidecar["delta_t"] == pytest.approx(0.05)
    assert len(sidecar["reference_times"]) == u.reference_times.size


@pytest.mark.parametrize("deriv", [1, 2])
def test_closed_form_savgol_is_scipy_savgol_to_a_few_ulp(deriv):
    # the branch residuals' derivatives: the window-5, order-2 stencils and
    # the edge quadratics against scipy's least-squares fit, on runs from
    # the shortest the residuals accept (5 bins) up; measured at most 7.1
    # (deriv 1) and 3.6 (deriv 2) ulp of max|y| / width^deriv, largest at
    # the edges, where scipy fits by lstsq
    from scipy.signal import savgol_filter

    rng = np.random.default_rng(41 + deriv)
    eps = np.finfo(float).eps
    for n in (5, 6, 7, 12, 41):
        for _ in range(40):
            y = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            width = rng.uniform(0.05, 2.0)
            ours = sedsim.kinematics._sg(y, width, deriv)
            ref = savgol_filter(y, 5, 2, deriv=deriv, delta=width,
                                mode="interp")
            scale = np.max(np.abs(y)) / width**deriv
            assert np.max(np.abs(ours - ref)) <= 16 * eps * scale
