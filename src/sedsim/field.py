"""Zero-point field synthesis: stationary Gaussian colored noise with an
omega^3 spectrum.

Each electric-field component is a finite sum of spectral modes,

    E_k(t) = sum_n sqrt(2 S(omega_n) dOmega_n) cos(omega_n t + phi_kn),

with one-sided spectral density S(omega) = (2 hbar / 3 pi c^3) omega^3
truncated at omega_cutoff (optionally banded above omega_min). Fixed
amplitudes with independent uniform phases give an exactly stationary
process whose ensemble autocovariance converges to the band integral of
S(omega) cos(omega lag) as n_modes grows; per-mode energy is hbar*omega/2.

On a uniform comb omega_n = omega_0 + n dOmega sampled at step h with
dOmega h = 2 pi/N, the grid values are the real part of a length-N inverse
DFT of the n_modes mode coefficients times the carrier exp(i omega_0 t).
A CombPlan, built from the FieldSpec and N, evaluates that sum on any
stretch of every step-th point of the grid as a Bluestein chirp-z
convolution whose length follows the modes and the points, not N: the
integrator's record grid is such a subgrid, and its step loop takes the
half-step grid one slab at a time (comb_sum_slabs). A plan holds the
convolution's setup for one grid, so a caller that sums many rows on one
grid, in many calls or threads, builds it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

TWO_PI = 2.0 * math.pi

# Direct evaluation processes the time axis in blocks of this many points to
# bound the (n_modes x block) workspace.
_EVAL_BLOCK = 4096

# Rows of one CombPlan transform; its workspace is _SUM_BLOCK x the
# convolution length complex values, 4.6 MB on the shipped record grid.
_SUM_BLOCK = 32

@dataclass(frozen=True)
class FieldSpec:
    """Spectral description of the synthesized zero-point field.

    omega_min > 0 narrows synthesis to the band [omega_min, omega_cutoff],
    a variance-reduction option for resonance-dominated linear problems.
    """

    hbar: float = 1.0
    c: float = 1.0
    omega_cutoff: float = 1.0
    n_modes: int = 256
    components: int = 1
    omega_min: float = 0.0

    def __post_init__(self):
        if self.omega_cutoff <= 0:
            raise ValueError("omega_cutoff must be positive")
        if self.n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        if self.components not in (1, 3):
            raise ValueError("components must be 1 or 3")
        if not 0.0 <= self.omega_min < self.omega_cutoff:
            raise ValueError("need 0 <= omega_min < omega_cutoff")
        if self.hbar < 0:
            raise ValueError("hbar must be nonnegative")
        if self.c <= 0:
            raise ValueError("c must be positive")


def spectral_density(spec: FieldSpec, omega):
    """One-sided spectral density S(omega), zero outside the band."""
    omega = np.asarray(omega, dtype=float)
    coef = 2.0 * spec.hbar / (3.0 * math.pi * spec.c**3)
    inside = (omega >= spec.omega_min) & (omega <= spec.omega_cutoff)
    return np.where(inside, coef * omega**3, 0.0)


def mode_table(spec: FieldSpec):
    """Frequencies, cell widths and amplitudes of the discrete modes.

    n_modes cells of equal width split [omega_min, omega_cutoff]; mode
    frequencies sit at the cell midpoints, a uniform comb, and amplitudes
    are sqrt(2 S(omega_n) dOmega).
    """
    n = spec.n_modes
    # CombPlan computes dOmega and omega_0 by the same expressions
    dw = (spec.omega_cutoff - spec.omega_min) / n
    omegas = spec.omega_min + dw * (np.arange(n) + 0.5)
    dws = np.full(n, dw)
    amps = np.sqrt(2.0 * spectral_density(spec, omegas) * dws)
    return omegas, dws, amps


@dataclass
class FieldRealization:
    """One phase draw of the mode sum, immutable after construction.

    Evaluation is a pure function of (spec, phases): the same realization
    evaluated twice at the same time gives bit-identical values. Distinct
    components carry independent phases and are statistically independent.
    """

    spec: FieldSpec
    omegas: np.ndarray
    amps: np.ndarray
    phases: np.ndarray  # shape (components, n_modes)


def make_field(spec: FieldSpec, seed) -> FieldRealization:
    """Draw a field realization from a counter-based generator.

    seed may be a nonnegative integer or a tuple of them; phases for all
    (component, mode) pairs come from a single fixed-shape draw, so the
    mapping (seed, k, n) -> phase does not depend on evaluation order.
    """
    omegas, _dws, amps = mode_table(spec)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    phases = rng.uniform(0.0, TWO_PI, size=(spec.components, spec.n_modes))
    return FieldRealization(spec=spec, omegas=omegas, amps=amps, phases=phases)


def eval_field(fr: FieldRealization, t) -> np.ndarray:
    """Evaluate all components at time(s) t by the direct mode sum.

    Returns shape (components,) for scalar t, else (components, len(t)).
    Cost is O(n_modes) per time point.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    ncomp = fr.phases.shape[0]
    out = np.empty((ncomp, t_arr.size))
    for start in range(0, t_arr.size, _EVAL_BLOCK):
        blk = t_arr[start:start + _EVAL_BLOCK]
        args = fr.omegas[:, None] * blk[None, :]
        for k in range(ncomp):
            out[k, start:start + blk.size] = fr.amps @ np.cos(
                args + fr.phases[k][:, None]
            )
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return out[:, 0]
    return out


def comb_cache_params(spec: FieldSpec, h_target: float, min_points: int = 1):
    """Grid step h <= h_target such that the uniform comb is FFT-exact:
    dOmega h = 2 pi / N for an integer N, the comb length CombPlan takes.
    Returns (h, N) with N a fast FFT length covering min_points samples.
    """
    dw = (spec.omega_cutoff - spec.omega_min) / spec.n_modes
    n0 = TWO_PI / (dw * h_target)
    n_fft = next_fast_len(max(int(math.ceil(n0 - 1e-9)), int(min_points)))
    return TWO_PI / (dw * n_fft), n_fft


class CombPlan:
    """Re sum_n coefs[..., n] exp(i omega_n t_j) on t_j = t0 + (start + j
    step) h, j = 0..n_points-1, for complex coefficient rows over the modes
    of spec: the comb omega_n = omega_0 + n dOmega of mode_table, at the
    step h = 2 pi/(dOmega n_fft) of comb_cache_params, both computed as
    there, so the grid is the comb's own.

    start and step are integers, step positive, so the grid is every
    step-th point from point start of the comb's grid t0 + k h. Then
    n dOmega t_j - n dOmega t0 is 2 pi n start/N + pi step 2 n j/N, N =
    n_fft, and with 2 n j = n^2 + j^2 - (j - n)^2 each row is one Bluestein
    chirp-z convolution (IEEE Trans. Audio Electroacoust. 18, 451 (1970))
    of length next_fast_len(n_modes + n_points - 1). The phases
    2 pi (n start mod N)/N and the chirp phases pi (step k^2 mod 2N)/N are
    reduced in integers, so they stay exact however far the grid runs from
    t0, and the carrier is exp(i omega_0 (t0 + h (start + step j))). The
    plan holds the chirp, the transformed chirp kernel and the phases
    before and after the convolution. plan(coefs, out) returns shape
    coefs.shape[:-1] + (n_points,), written into out when given; out may be
    a strided view, such as a column range of a larger array, as long as it
    reshapes to (rows, n_points) without a copy. Rows go through the
    transforms _SUM_BLOCK at a time, and a row's values do not depend on
    the rows it shares a call with, nor on the calls before: the plan is
    read only, so one plan serves any rows in any number of calls and
    threads.
    """

    def __init__(self, spec: FieldSpec, n_fft: int, t0: float, step: int,
                 n_points: int, start: int = 0):
        if step < 1:
            raise ValueError(f"step {step} is not a positive step of the "
                             "comb's grid")
        m = spec.n_modes
        dw = (spec.omega_cutoff - spec.omega_min) / m
        omega0, h = spec.omega_min + dw * 0.5, TWO_PI / (dw * n_fft)
        self.m, self.n_points = m, n_points
        n_conv = next_fast_len(m + n_points - 1)
        k = np.arange(max(m, n_points))
        chirp = np.exp(1j * (math.pi / n_fft)
                       * (step * (k * k % (2 * n_fft)) % (2 * n_fft)))
        # conj(chirp) at lags j - n from -(m - 1) to n_points - 1, wrapped
        kernel = np.zeros(n_conv, dtype=complex)
        kernel[:n_points] = chirp[:n_points].conj()
        kernel[n_conv - m + 1:] = chirp[m - 1:0:-1].conj()
        self._kernel = np.fft.fft(kernel, norm="forward")
        n = np.arange(m)
        self._pre = chirp[:m] * np.exp(
            1j * (n * dw * t0 + (TWO_PI / n_fft) * (n * (start % n_fft) % n_fft)))
        self._post = chirp[:n_points] * np.exp(
            1j * omega0 * (t0 + h * (start + step * np.arange(n_points))))

    def __call__(self, coefs, out=None) -> np.ndarray:
        coefs = np.asarray(coefs)
        m, n_points = self.m, self.n_points
        if coefs.shape[-1] != m:
            raise ValueError(f"coefficient rows of {coefs.shape[-1]} modes are "
                             f"not over the FFT-exact comb of {m}")
        shape = coefs.shape[:-1] + (n_points,)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape:
            raise ValueError(f"out must have shape {shape}, not {out.shape}")
        values = out.reshape(-1, n_points)
        if not np.may_share_memory(values, out):
            raise ValueError("out must reshape to (rows, n_points) without a copy")
        rows = coefs.reshape(-1, m)
        work = np.empty((min(_SUM_BLOCK, len(rows)), self._kernel.size),
                        dtype=complex)
        for lo in range(0, len(rows), _SUM_BLOCK):
            block = rows[lo:lo + _SUM_BLOCK]
            w = work[:len(block)]
            np.multiply(block, self._pre, out=w[:, :m])
            w[:, m:] = 0.0
            np.fft.fft(w, axis=-1, out=w)
            w *= self._kernel
            np.fft.ifft(w, axis=-1, norm="forward", out=w)
            head = w[:, :n_points]
            head *= self._post
            values[lo:lo + len(block)] = head.real
        return out


def comb_sum_slabs(coefs, spec: FieldSpec, n_fft: int, t0: float,
                   n_points: int, width: int):
    """CombPlan's sum on the grid t0 + j h, j = 0..n_points-1, in slabs of
    width + 1 columns, so that no array of n_points columns exists.

    Yields views shaped coefs.shape[:-1] + (w + 1,), w <= width, whose
    columns are the points s0..s0 + w, s0 = 0, width, 2 width, ...: each
    slab starts with the last column of the one before, computed once, so
    a value read across a seam is the same value. The points past the
    first come from a plan at the integer start s0 + 1, one per slab. All
    slabs share one buffer; consume a slab before taking the next.
    """
    coefs = np.asarray(coefs)
    width = max(1, min(width, n_points - 1))
    slab = np.empty(coefs.shape[:-1] + (width + 1,))
    CombPlan(spec, n_fft, t0, 1, 1)(coefs, out=slab[..., width:])
    for s0 in range(0, n_points - 1, width):
        w = min(width, n_points - 1 - s0)
        slab[..., 0] = slab[..., width]
        CombPlan(spec, n_fft, t0, 1, w, start=s0 + 1)(
            coefs, out=slab[..., 1:w + 1])
        yield slab[..., :w + 1]


def _band_integral_series(w: float, b: float) -> float:
    # int_0^w x^3 cos(bx) dx as a Taylor series in b, cancellation-free
    # for |b*w| below ~0.5.
    total = 0.0
    term = w**4 / 4.0
    k = 0
    while True:
        total += term
        k += 1
        term *= -(b * w) ** 2 / ((2 * k - 1) * (2 * k)) * (2 + 2 * k) / (4 + 2 * k)
        if k > 12 or abs(term) < 1e-18 * abs(total):
            break
    return total


def _band_integral(w: float, b: float) -> float:
    # int_0^w x^3 cos(bx) dx, closed form via the antiderivative
    # (3x^2/b^2 - 6/b^4) cos(bx) + (x^3/b - 6x/b^3) sin(bx).
    if abs(b) * w < 0.5:
        return _band_integral_series(w, b)
    bw = b * w
    return (
        (3.0 * w**2 / b**2 - 6.0 / b**4) * math.cos(bw)
        + (w**3 / b - 6.0 * w / b**3) * math.sin(bw)
        + 6.0 / b**4
    )


def autocovariance(spec: FieldSpec, lag: float) -> float:
    """Analytic autocovariance of one component at the given lag.

    Closed form of (2 hbar / 3 pi c^3) * int_band omega^3 cos(omega*lag).
    At lag 0 this is hbar*(omega_cutoff^4 - omega_min^4)/(6 pi c^3).
    """
    coef = 2.0 * spec.hbar / (3.0 * math.pi * spec.c**3)
    hi = _band_integral(spec.omega_cutoff, lag)
    lo = _band_integral(spec.omega_min, lag) if spec.omega_min > 0 else 0.0
    return coef * (hi - lo)


def autocovariance_quad(spec: FieldSpec, lag: float) -> float:
    """Autocovariance by adaptive quadrature (independent of the closed form)."""
    from scipy.integrate import quad     # kept out of the package import
    coef = 2.0 * spec.hbar / (3.0 * math.pi * spec.c**3)
    if lag == 0.0:
        val, _err = quad(lambda w: w**3, spec.omega_min, spec.omega_cutoff)
    else:
        val, _err = quad(
            lambda w: w**3,
            spec.omega_min,
            spec.omega_cutoff,
            weight="cos",
            wvar=lag,
        )
    return coef * val


def autocorrelation_check(realizations, lags, t_ref: float = 0.0) -> dict:
    """Empirical vs closed-form autocovariance with standardized residuals.

    Pools the product E(t_ref) E(t_ref+lag) over realizations and components.
    The field mean is zero by construction, so no mean subtraction is applied.
    """
    realizations = list(realizations)
    if len(realizations) < 100:
        raise ValueError(
            f"insufficient ensemble size: need >= 100 realizations, "
            f"got {len(realizations)}"
        )
    lags = np.asarray(lags, dtype=float)
    spec = realizations[0].spec
    ts = np.concatenate(([t_ref], t_ref + lags))
    samples = np.stack([eval_field(fr, ts) for fr in realizations])
    base = samples[:, :, 0]  # (n_real, components)
    report = {
        "lag": [],
        "empirical": [],
        "analytic": [],
        "std_error": [],
        "z_score": [],
        "n_realizations": len(realizations),
    }
    for i, lag in enumerate(lags):
        prods = (base * samples[:, :, i + 1]).ravel()
        emp = float(np.mean(prods))
        se = float(np.std(prods, ddof=1) / math.sqrt(prods.size))
        ana = autocovariance(spec, float(lag))
        report["lag"].append(float(lag))
        report["empirical"].append(emp)
        report["analytic"].append(ana)
        report["std_error"].append(se)
        report["z_score"].append((emp - ana) / se if se > 0 else 0.0)
    return report
