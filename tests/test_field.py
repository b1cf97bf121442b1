"""Spectral synthesis: exactness, statistics, and the analytic covariance."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from sedsim.field import (CombPlan, FieldRealization, FieldSpec,
                          autocorrelation_check, autocovariance,
                          autocovariance_quad, comb_cache_params,
                          comb_sum_slabs, conv_length, eval_field,
                          fast_length,
                          field_phases, make_field, mode_table,
                          spectral_density)

# band integral (2/(3 pi)) int w^3 cos(w lag) dw, frozen from a 30-digit
# mpmath quadrature
PHI_FULL_LAG1 = 0.0364439690931623155715
PHI_FULL_LAG0 = 0.0530516476972984452563        # = 1/(6 pi)
PHI_BAND_LAG0 = 0.0428657313394171437671        # band [0.9, 1.1]


def test_lag0_closed_form_full_band():
    spec = FieldSpec(omega_cutoff=1.0, n_modes=64)
    assert autocovariance(spec, 0.0) == pytest.approx(PHI_FULL_LAG0, rel=1e-14)
    # and the quoted closed form: hbar omega_c^4 / (6 pi c^3)
    spec2 = FieldSpec(hbar=3.0, c=2.0, omega_cutoff=5.0, n_modes=64)
    assert autocovariance(spec2, 0.0) == pytest.approx(
        3.0 * 5.0**4 / (6.0 * math.pi * 2.0**3), rel=1e-14)


def test_lag1_two_routes_and_frozen_value():
    spec = FieldSpec(omega_cutoff=1.0, n_modes=64)
    closed = autocovariance(spec, 1.0)
    quadr = autocovariance_quad(spec, 1.0)
    assert closed == pytest.approx(PHI_FULL_LAG1, rel=1e-12)
    assert quadr == pytest.approx(PHI_FULL_LAG1, rel=1e-12)


def test_banded_lag0_frozen_value():
    spec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=64)
    assert autocovariance(spec, 0.0) == pytest.approx(PHI_BAND_LAG0, rel=1e-14)
    assert autocovariance_quad(spec, 0.0) == pytest.approx(
        PHI_BAND_LAG0, rel=1e-12)


def test_closed_form_matches_quadrature_across_lags():
    spec = FieldSpec(omega_cutoff=2.0, omega_min=0.3, n_modes=64)
    for lag in (0.0, 0.01, 0.3, 1.0, 7.7, 40.0):
        assert autocovariance(spec, lag) == pytest.approx(
            autocovariance_quad(spec, lag), rel=1e-10, abs=1e-16)


def test_hbar_linearity_doubles_lag0():
    a = FieldSpec(hbar=1.0, omega_cutoff=1.0, n_modes=64)
    b = FieldSpec(hbar=2.0, omega_cutoff=1.0, n_modes=64)
    assert autocovariance(b, 0.0) == pytest.approx(
        2.0 * autocovariance(a, 0.0), rel=1e-15)


def test_mode_amplitudes_reproduce_lag0_variance():
    # sum of amp^2/2 is the midpoint rule for the band integral; for a
    # smooth w^3 density it converges quadratically in the cell width
    errs = []
    for n in (64, 128):
        spec = FieldSpec(omega_cutoff=1.0, n_modes=n)
        _, _, amps = mode_table(spec)
        errs.append(abs(np.sum(amps**2) / 2.0 - PHI_FULL_LAG0))
    assert errs[0] < 1e-4
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.3)
    # on a band above omega_min the comb sums to the band's closed form
    band = FieldSpec(omega_cutoff=1.0, omega_min=0.1, n_modes=512)
    _, _, amps = mode_table(band)
    assert np.sum(amps**2) / 2.0 == pytest.approx(autocovariance(band, 0.0),
                                                  rel=1e-4)


def test_spectral_density_zero_outside_band():
    spec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=8)
    s = spectral_density(spec, np.array([0.5, 1.0, 1.5]))
    assert s[0] == 0.0 and s[2] == 0.0 and s[1] > 0.0


def test_field_is_the_mode_sum():
    spec = FieldSpec(omega_cutoff=1.3, omega_min=0.2, n_modes=7)
    fr = make_field(spec, 42)
    ts = np.array([0.0, 0.37, 2.0, -5.5])
    direct = np.zeros((1, ts.size))
    for a, w, ph in zip(fr.amps, fr.omegas, fr.phases[0]):
        direct[0] += a * np.cos(w * ts + ph)
    assert eval_field(fr, ts) == pytest.approx(direct, rel=1e-13)


def test_same_seed_bit_identical():
    spec = FieldSpec(omega_cutoff=1.0, n_modes=32)
    a = make_field(spec, 11)
    b = make_field(spec, 11)
    assert np.array_equal(a.phases, b.phases)
    ts = np.linspace(0.0, 9.0, 50)
    assert np.array_equal(eval_field(a, ts), eval_field(b, ts))
    c = make_field(spec, 12)
    assert not np.array_equal(a.phases, c.phases)


def test_fast_length_is_scipy_next_fast_len():
    # the comb length and the convolution length, found without scipy
    from scipy.fft import next_fast_len
    targets = range(1, 200_001)
    assert [fast_length(n) for n in targets] == [next_fast_len(n)
                                                  for n in targets]


def test_convolution_lengths_are_the_smallest_7_smooth():
    # CombPlan's convolution length is the smallest 7-smooth length at or
    # above its target, checked by trial division; the shipped record grid
    # (512 modes, 8,344 records) takes 8,960 where next_fast_len gives
    # 8,910 = 2 3^4 5 11. The comb length n_fft stays 11-smooth
    from scipy.fft import next_fast_len

    def smooth(n):
        for p in (2, 3, 5, 7):
            while n % p == 0:
                n //= p
        return n == 1

    lengths = [conv_length(1, target) for target in range(1, 20_001)]
    for target, n in enumerate(lengths, start=1):
        assert n >= target and smooth(n)
        assert not any(smooth(k) for k in range(target, n))
    assert conv_length(512, 8344) == 8960 != next_fast_len(8855) == 8910
    spec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=512)
    _, n_fft = comb_cache_params(spec, h_target=0.1)
    assert n_fft == next_fast_len(n_fft) == 161051


def test_a_realization_carries_the_phases_of_its_seed():
    spec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=64,
                     components=3)
    for seed in (5, (7, 11, 0)):
        assert np.array_equal(make_field(spec, seed).phases,
                              field_phases(spec, seed))


def test_tuple_seeds_give_distinct_streams():
    spec = FieldSpec(omega_cutoff=1.0, n_modes=32)
    a = make_field(spec, (3, 0))
    b = make_field(spec, (3, 1))
    assert not np.array_equal(a.phases, b.phases)


def coefficients(frs):
    """Mode coefficient rows amps exp(i phases), shape (len(frs),
    components, n_modes)."""
    return np.array([fr.amps * np.exp(1j * fr.phases) for fr in frs])


def test_cached_grid_matches_direct_evaluation():
    # the half-step grid of a run: every point of the FFT-exact comb grid
    spec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=512)
    h, n_fft = comb_cache_params(spec, h_target=0.1, min_points=4001)
    assert h <= 0.1 and n_fft >= 4001
    fr = make_field(spec, 7)
    vals = CombPlan(spec, n_fft, 0.0, 1, 4001)(coefficients([fr])[0])
    direct = eval_field(make_field(spec, 7), h * np.arange(4001))
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(vals - direct)) / scale < 1e-12


def test_cached_grid_nonzero_origin():
    spec = FieldSpec(omega_cutoff=2.0, omega_min=0.5, n_modes=128)
    h, n_fft = comb_cache_params(spec, h_target=0.05, min_points=512)
    fr = make_field(spec, 9)
    vals = CombPlan(spec, n_fft, 123.456, 1, 512)(coefficients([fr])[0])
    direct = eval_field(make_field(spec, 9), 123.456 + h * np.arange(512))
    assert np.max(np.abs(vals - direct)) / np.max(np.abs(direct)) < 1e-12


def _unbatched_comb_grid(fr, t0, h, n_points):
    """Reference synthesis: one unbatched inverse FFT per component, with
    the carrier exp(i omega_min t) computed per call."""
    t_grid = t0 + h * np.arange(n_points)
    dw = (fr.omegas[-1] - fr.omegas[0]) / (fr.omegas.size - 1)
    n_fft = int(round(2.0 * math.pi / (dw * h)))
    idx = np.arange(fr.omegas.size)
    prefac = np.exp(1j * float(fr.omegas[0]) * t_grid)
    values = np.empty((fr.phases.shape[0], n_points))
    for k in range(fr.phases.shape[0]):
        c = fr.amps * np.exp(1j * (fr.phases[k] + idx * dw * t0))
        total = n_fft * np.fft.ifft(c, n=n_fft)
        values[k] = np.real(prefac * total[:n_points])
    return values


@pytest.mark.parametrize("components", [1, 3])
def test_batched_comb_plan_is_the_single_call_bitwise(components):
    # 7 realizations: 7 x components rows, not a multiple of a transform
    # block when components is 3
    spec = FieldSpec(omega_cutoff=2.0, omega_min=0.5, n_modes=128,
                     components=components)
    h, n_fft = comb_cache_params(spec, h_target=0.05, min_points=700)
    frs = [make_field(spec, (5, i)) for i in range(7)]
    batch = CombPlan(spec, n_fft, 41.3, 1, 700)(coefficients(frs))
    assert batch.shape == (7, components, 700)
    for i, fr in enumerate(frs):
        single = CombPlan(spec, n_fft, 41.3, 1, 700)(
            coefficients([make_field(spec, (5, i))])[0])
        assert np.array_equal(batch[i], single)
        # the same sum in another operation order (chirp-z vs one FFT)
        ref = _unbatched_comb_grid(fr, 41.3, h, 700)
        assert np.max(np.abs(single - ref)) <= 1e-14 * fr.amps.sum()


@pytest.mark.parametrize("n_modes, n_fft, n_points, t0, components, rows", [
    (128, 11**3, 11**3, 0.0, 1, 1),     # one full comb period, one row
    (96, 720, 601, 0.0, 1, 6),
    (96, 720, 600, -37.25, 1, 6),
    (96, 720, 599, 12.5, 3, 6),         # 18 rows, not a multiple of a block
    (96, 720, 5, 3.0, 1, 6),            # fewer points than modes
])
def test_four_step_grid_is_the_mode_sum(n_modes, n_fft, n_points, t0,
                                        components, rows):
    # every point of the grid, over one whole comb period (11^3) and over
    # less; each row of a call of `rows` realizations is the direct mode sum
    spec = FieldSpec(omega_cutoff=2.0, omega_min=0.5, n_modes=n_modes,
                     components=components)
    h = 2.0 * math.pi / (1.5 / n_modes * n_fft)
    frs = [make_field(spec, (8, i)) for i in range(rows)]
    batch = CombPlan(spec, n_fft, t0, 1, n_points)(coefficients(frs))
    for i, fr in enumerate(frs):
        single = CombPlan(spec, n_fft, t0, 1, n_points)(
            coefficients([make_field(spec, (8, i))])[0])
        assert np.array_equal(batch[i], single)
        direct = eval_field(fr, t0 + h * np.arange(n_points))
        assert np.max(np.abs(single - direct)) <= 1e-13 * fr.amps.sum()


def test_four_step_grid_on_the_shipped_comb():
    # configs/sed_harmonic_ground.json: the 2 n_steps + 1 half-step points
    # of the shipped run on its comb of period 161,051 half steps
    spec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=512)
    h, n_fft = comb_cache_params(spec, h_target=0.1)
    assert n_fft == 161051
    frs = [make_field(spec, (7, i, 0)) for i in range(3)]
    batch = CombPlan(spec, n_fft, 0.0, 1, 100127)(coefficients(frs))
    for i, fr in enumerate(frs):
        assert np.array_equal(batch[i], CombPlan(spec, n_fft, 0.0, 1, 100127)(
            coefficients([make_field(spec, (7, i, 0))])[0]))
        ref = _unbatched_comb_grid(fr, 0.0, h, 100127)
        assert np.max(np.abs(batch[i] - ref)) <= 1e-14 * fr.amps.sum()


def test_slabs_are_the_single_call_grid():
    # sedbench's quartic comb; 2,001 half steps in slabs of 600 are four
    # slabs, the last of 200, each starting with the one before's last point
    spec = FieldSpec(omega_cutoff=1.6, omega_min=0.1, n_modes=768)
    h, n_fft = comb_cache_params(spec, h_target=0.065)
    frs = [make_field(spec, (11, i, 0)) for i in range(5)]
    coefs = coefficients(frs)[:, 0]
    whole = CombPlan(spec, n_fft, 2.5, 1, 2001)(coefs)
    slabs = [s.copy() for s in comb_sum_slabs(coefs, spec, n_fft, 2.5, 2001,
                                              600)]
    assert [s.shape for s in slabs] == [(601, 5)] * 3 + [(201, 5)]
    for a, b in zip(slabs, slabs[1:]):
        assert np.array_equal(a[-1], b[0])
    # every slab, the short last one too, holds the bytes of a plan from
    # the slab's second point
    for s0, slab in zip(range(0, 2000, 600), slabs):
        assert np.array_equal(slab[1:].T, CombPlan(
            spec, n_fft, 2.5, 1, len(slab) - 1, start=s0 + 1)(coefs))
    streamed = np.concatenate([slabs[0]] + [s[1:] for s in slabs[1:]]).T
    assert np.max(np.abs(streamed - whole)) <= 1e-13 * np.std(whole)
    # a run shorter than one slab is one slab of all its points
    (short,) = [s.copy() for s in comb_sum_slabs(coefs, spec, n_fft, 2.5,
                                                  41, 600)]
    assert short.shape == (41, 5)
    assert np.max(np.abs(short.T - whole[:, :41])) <= 1e-13 * np.std(whole)


@pytest.mark.parametrize("step, start, t0", [
    (1, 0, 0.0),
    (3, 101, -4.0),
    (12, 7919, 41.3),           # past the comb period of 720 points
])
def test_a_plan_applied_many_times_is_a_fresh_plan(step, start, t0):
    # 70 rows: blocks of 1, 39 (past one transform block) and 30 rows, in
    # two rounds and from 3 threads, each equal to one fresh plan's call
    # on all rows bit for bit
    spec = FieldSpec(omega_cutoff=2.0, omega_min=0.5, n_modes=96)
    coefs = coefficients([make_field(spec, (13, i)) for i in range(70)])[:, 0]
    fresh = CombPlan(spec, 720, t0, step, 300, start)(coefs)
    plan = CombPlan(spec, 720, t0, step, 300, start)
    blocks = [slice(0, 1), slice(1, 40), slice(40, 70)]
    for _ in range(2):
        for rows in blocks:
            assert np.array_equal(plan(coefs[rows]), fresh[rows])
    with ThreadPoolExecutor(max_workers=3) as pool:
        done = list(pool.map(lambda rows: plan(coefs[rows]), blocks * 2))
    for rows, values in zip(blocks * 2, done):
        assert np.array_equal(values, fresh[rows])
    assert np.array_equal(plan(coefs), fresh)


def test_start_index_is_exact_near_the_end_of_the_comb_period():
    # with omega_min 0 every mode omega_n = (n + 1/2) dOmega turns by an odd
    # multiple of pi over the comb period N h, so the field at grid point
    # N + j is minus the field at point j, which eval_field evaluates at a
    # small time without the rounding of n dOmega t at t ~ N h. Phases
    # reduced from the integer start stay at 4e-15 of the field's standard
    # deviation; the float start t0 + start h misses by 9e-14 to 6e-13
    spec = FieldSpec(omega_cutoff=1.6, n_modes=768)
    h, n_fft = comb_cache_params(spec, h_target=0.05)
    j = np.arange(-40, 40)
    for seed in range(3):
        fr = make_field(spec, seed)
        values = CombPlan(spec, n_fft, 3.25, 1, j.size, start=n_fft + j[0])(
            coefficients([fr])[0, 0])
        reference = -eval_field(fr, 3.25 + h * j)[0]
        sigma = math.sqrt(np.sum(fr.amps**2) / 2.0)
        assert np.max(np.abs(values - reference)) <= 1e-14 * sigma


def test_comb_plan_with_a_start_is_the_tail_of_the_grid():
    # start and step together: every 3rd point from point 101
    spec = FieldSpec(omega_cutoff=2.0, omega_min=0.5, n_modes=96)
    amps = mode_table(spec)[2]
    coefs = coefficients([make_field(spec, (9, i)) for i in range(2)])[:, 0]
    tail = CombPlan(spec, 720, -4.0, 3, 200, start=101)(coefs)
    grid = CombPlan(spec, 720, -4.0, 1, 701)(coefs)
    assert np.max(np.abs(tail - grid[:, 101::3])) <= 1e-13 * amps.sum()


@pytest.mark.parametrize("n_fft, step, n_points, t0", [
    (720, 2, 50, 0.0),          # record stride 1, fewer points than modes
    (720, 6, 300, -37.25),      # stride 3, gcd(6, 720) = 6
    (720, 14, 96, 12.5),        # stride 7, gcd(14, 720) = 2
    (11**3, 6, 700, 3.0),       # gcd(6, 1331) = 1, past the comb period
    (720, 3, 200, 5.5),         # an odd step: chirp phases mod 2N
])
def test_comb_plan_is_the_mode_sum(n_fft, step, n_points, t0):
    spec = FieldSpec(omega_cutoff=2.0, omega_min=0.5, n_modes=96)
    omegas, _, _ = mode_table(spec)
    h = 2.0 * math.pi / (1.5 / 96 * n_fft)
    rng = np.random.default_rng(n_fft + step)
    coefs = rng.standard_normal((3, 96)) + 1j * rng.standard_normal((3, 96))
    out = np.empty((3, n_points))
    plan = CombPlan(spec, n_fft, t0, step, n_points)
    assert plan(coefs, out=out) is out
    t = t0 + h * (step * np.arange(n_points))
    for c, values in zip(coefs, out):
        fr = FieldRealization(spec=spec, omegas=omegas, amps=np.abs(c),
                              phases=np.angle(c)[None])
        assert (np.max(np.abs(values - eval_field(fr, t)[0]))
                <= 1e-13 * np.abs(c).sum())
        # a row's values do not depend on the rows it shares a call with
        assert np.array_equal(plan(c), values)


def test_comb_plan_on_the_shipped_record_grid():
    # configs/sed_harmonic_ground.json records every 6 steps, 12 half steps
    spec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=512)
    _, n_fft = comb_cache_params(spec, h_target=0.1)
    frs = [make_field(spec, (7, i, 0)) for i in range(3)]
    coefs = np.array([fr.amps * np.exp(1j * fr.phases[0]) for fr in frs])
    records = CombPlan(spec, n_fft, 0.0, 12, 8344)(coefs)
    table = CombPlan(spec, n_fft, 0.0, 1, 100127)(coefs)[:, ::12]
    assert np.max(np.abs(records - table)) <= 1e-13 * np.std(table)


def test_comb_plan_refuses_grids_off_the_comb():
    spec = FieldSpec(omega_cutoff=2.0, omega_min=0.5, n_modes=64)
    amps = mode_table(spec)[2]
    _, n_fft = comb_cache_params(spec, h_target=0.05)
    with pytest.raises(ValueError, match="not a positive step"):
        CombPlan(spec, n_fft, 0.0, 0, 10)
    plan = CombPlan(spec, n_fft, 0.0, 2, 10)
    with pytest.raises(ValueError, match="FFT-exact"):
        plan(amps[:-1])
    # out of another shape, or one that would be written through a copy
    with pytest.raises(ValueError, match="shape"):
        plan(amps, out=np.empty((1, 10)))
    with pytest.raises(ValueError, match="without a copy"):
        plan(np.stack([[amps] * 2] * 3),
             out=np.empty((2, 3, 10)).transpose(1, 0, 2))


def test_comb_anti_periodicity():
    # modes sit at cell midpoints, so when omega_min is a multiple of
    # dOmega every mode advances by an odd multiple of pi over 2 pi/dOmega:
    # the synthesized signal flips sign at the comb period and repeats at
    # twice that
    spec = FieldSpec(omega_cutoff=1.1, omega_min=0.9, n_modes=16)
    dw = (1.1 - 0.9) / 16
    period = 2.0 * math.pi / dw
    fr = make_field(spec, 3)
    ts = np.array([0.0, 1.0, 2.5])
    base = eval_field(fr, ts)
    assert eval_field(fr, ts + period) == pytest.approx(-base, rel=1e-9)
    assert eval_field(fr, ts + 2.0 * period) == pytest.approx(base, rel=1e-9)


def test_empirical_lag0_within_three_sigma():
    spec = FieldSpec(omega_cutoff=1.0, n_modes=256)
    reals = [make_field(spec, (1000, i)) for i in range(400)]
    rep = autocorrelation_check(reals, [0.0, 1.0])
    assert rep["analytic"][0] == pytest.approx(PHI_FULL_LAG0, rel=1e-10)
    assert rep["analytic"][1] == pytest.approx(PHI_FULL_LAG1, rel=1e-10)
    for z in rep["z_score"]:
        assert abs(z) < 3.0


def test_stationarity_same_lag_three_offsets():
    spec = FieldSpec(omega_cutoff=1.0, n_modes=256)
    reals = [make_field(spec, (2000, i)) for i in range(300)]
    lag = 0.8
    values = []
    for t_ref in (0.0, 13.7, 210.0):
        rep = autocorrelation_check(reals, [lag], t_ref=t_ref)
        values.append((rep["empirical"][0], rep["std_error"][0]))
        assert abs(rep["z_score"][0]) < 3.5
    for (va, sa), (vb, sb) in zip(values, values[1:]):
        assert abs(va - vb) <= 3.0 * math.hypot(sa, sb)


def test_cross_component_covariance_consistent_with_zero():
    spec = FieldSpec(omega_cutoff=1.0, n_modes=128, components=3)
    reals = [make_field(spec, (3000, i)) for i in range(500)]
    samples = np.stack([eval_field(fr, np.array([2.0]))[:, 0] for fr in reals])
    for i in range(3):
        for j in range(i + 1, 3):
            prods = samples[:, i] * samples[:, j]
            z = np.mean(prods) / (np.std(prods, ddof=1) / math.sqrt(len(prods)))
            assert abs(z) < 3.0


def test_one_point_marginal_is_gaussian_for_many_modes():
    spec = FieldSpec(omega_cutoff=1.0, n_modes=1024)
    draws = np.array([
        eval_field(make_field(spec, (4000, i)), np.array([0.0]))[0, 0]
        for i in range(1500)
    ])
    _, pvalue = stats.normaltest(draws)
    assert pvalue > 0.01


def test_white_surrogate_decorrelates_at_large_lags():
    # flat spectrum injected directly: delta-like correlation
    n = 4096
    omegas = np.linspace(0.01, 20.0, n)
    amp = math.sqrt(2.0 * 0.05 * (omegas[1] - omegas[0]))
    spec = FieldSpec(omega_cutoff=20.0, n_modes=n)
    rng = np.random.default_rng(8)
    var0 = None
    for lag in (37.0, 81.0):
        acc = []
        for i in range(300):
            phases = rng.uniform(0.0, 2.0 * math.pi, size=(1, n))
            fr = FieldRealization(spec=spec, omegas=omegas,
                                  amps=np.full(n, amp), phases=phases)
            v = eval_field(fr, np.array([0.0, lag]))
            acc.append(v[0, 0] * v[0, 1])
            if var0 is None:
                var0 = np.sum(np.full(n, amp)**2) / 2.0
        z = np.mean(acc) / (np.std(acc, ddof=1) / math.sqrt(len(acc)))
        assert abs(z) < 3.0


def test_insufficient_ensemble_size():
    spec = FieldSpec(omega_cutoff=1.0, n_modes=16)
    reals = [make_field(spec, i) for i in range(20)]
    with pytest.raises(ValueError, match="insufficient ensemble"):
        autocorrelation_check(reals, [0.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(omega_cutoff=-1.0)
    with pytest.raises(ValueError):
        FieldSpec(omega_cutoff=1.0, n_modes=0)
    with pytest.raises(ValueError):
        FieldSpec(omega_cutoff=1.0, omega_min=1.5)
    with pytest.raises(ValueError):
        FieldSpec(omega_cutoff=1.0, components=2)
