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
cache_grid evaluates that sum in Bailey's four-step order (J. Supercomput.
4, 23 (1990)) with the input pruned to the occupied bins (Markel, IEEE
Trans. Audio Electroacoust. 19, 305 (1971)): for N = L Q with Q >= n_modes
the grid point j = r + L q is sum_n (c_n w_N^(n r)) w_Q^(n q), so each row
is L short length-Q transforms that stay in cache instead of one long one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.fft import next_fast_len
from scipy.integrate import quad

TWO_PI = 2.0 * math.pi

MODE_SPACINGS = ("uniform", "uniform-in-omega^4")

# Direct evaluation processes the time axis in blocks of this many points to
# bound the (n_modes x block) workspace.
_EVAL_BLOCK = 4096

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
    mode_spacing: str = "uniform"
    components: int = 1
    omega_min: float = 0.0

    def __post_init__(self):
        if self.omega_cutoff <= 0:
            raise ValueError("omega_cutoff must be positive")
        if self.n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        if self.mode_spacing not in MODE_SPACINGS:
            raise ValueError(
                f"mode_spacing must be one of {MODE_SPACINGS}, "
                f"got {self.mode_spacing!r}"
            )
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

    Cells partition [omega_min, omega_cutoff]; "uniform" splits evenly in
    omega, "uniform-in-omega^4" evenly in omega^4 so that the omega^3
    spectrum contributes equal variance per cell. Mode frequencies sit at
    arithmetic cell midpoints; amplitudes are sqrt(2 S(omega_n) dOmega_n).
    """
    n = spec.n_modes
    if spec.mode_spacing == "uniform":
        # Single shared spacing float keeps the comb arithmetic exact enough
        # for the FFT-based cached-grid path to reconstruct it.
        dw = (spec.omega_cutoff - spec.omega_min) / n
        omegas = spec.omega_min + dw * (np.arange(n) + 0.5)
        dws = np.full(n, dw)
    else:
        edges = np.linspace(spec.omega_min**4, spec.omega_cutoff**4, n + 1) ** 0.25
        omegas = 0.5 * (edges[:-1] + edges[1:])
        dws = np.diff(edges)
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
    time_grid: np.ndarray | None = dc_field(default=None, repr=False)
    values: np.ndarray | None = dc_field(default=None, repr=False)


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


def _comb_spacing(omegas: np.ndarray) -> float | None:
    """Common spacing of an arithmetic frequency comb, or None."""
    if omegas.size < 2:
        return None
    dw = float(omegas[-1] - omegas[0]) / (omegas.size - 1)
    if dw <= 0 or not np.all(np.abs(np.diff(omegas) - dw) <= 1e-9 * dw):
        return None
    return dw


def comb_cache_params(spec: FieldSpec, h_target: float, min_points: int = 1):
    """Grid step h <= h_target such that the uniform comb is FFT-exact.

    The cached-grid fast path needs dOmega * h = 2 pi / N for integer N.
    Returns (h, N) with N a fast FFT length covering min_points samples.
    Only meaningful for "uniform" mode spacing.
    """
    if spec.mode_spacing != "uniform":
        raise ValueError("comb cache requires uniform mode spacing")
    dw = (spec.omega_cutoff - spec.omega_min) / spec.n_modes
    n0 = TWO_PI / (dw * h_target)
    n_fft = next_fast_len(max(int(math.ceil(n0 - 1e-9)), int(min_points)))
    return TWO_PI / (dw * n_fft), n_fft


def cache_grid(fr, t0: float, h: float, n_points: int, out=None) -> np.ndarray:
    """Populate the cached evaluation grid t0 + j*h, j = 0..n_points-1.

    fr is one FieldRealization, or a sequence of realizations of one spec
    filled together. The modes must form an arithmetic comb with
    dOmega*h*N = 2 pi for an integer N >= max(n_points, n_modes), else
    ValueError (eval_field evaluates anywhere). Each (realization,
    component) row is the length-N mode sum split in four steps: Q is the
    smallest divisor of N with Q >= n_modes and L = N/Q; the coefficients
    times an (L, n_modes) twiddle table w_N^(n r) go through L inverse FFTs
    of length Q, whose column q is grid point r + L q, and then through the
    carrier exp(i omega_0 t). With no proper divisor, L = 1: one length-N
    transform. Rows go one at a time through two (L, Q) complex work
    arrays (5 MB on the shipped grid), so a row's values do not depend on
    the rows it shares a call with. The values agree with direct evaluation
    to ~1e-14 relative.
    Returns the cached values, shape (components, n_points) for one
    realization and (n_realizations, components, n_points) for a sequence,
    written into out when given. Each realization keeps its time grid and
    its values as attributes.
    """
    single = isinstance(fr, FieldRealization)
    frs = [fr] if single else list(fr)
    spec = frs[0].spec
    if any(f.spec != spec for f in frs):
        raise ValueError("cache_grid needs realizations of one FieldSpec")
    ncomp = spec.components
    if out is None:
        out = np.empty((len(frs), ncomp, n_points))
    elif out.shape != (len(frs), ncomp, n_points):
        raise ValueError(f"out has shape {out.shape}, need "
                         f"{(len(frs), ncomp, n_points)}")
    omegas = frs[0].omegas
    m = omegas.size
    dw = _comb_spacing(omegas)
    n_fft = 0
    if dw is not None:
        n_real = TWO_PI / (dw * h)
        if abs(n_real - round(n_real)) < 1e-6:
            n_fft = int(round(n_real))
    if n_fft < max(n_points, m):
        raise ValueError(f"{n_points} points at step {h:g} are not an "
                         "FFT-exact grid inside the comb period")
    q_len = min(d for k in range(1, math.isqrt(n_fft) + 1) if n_fft % k == 0
                for d in (k, n_fft // k) if d >= m)
    n_rows = n_fft // q_len
    n_cols = -(-n_points // n_rows)     # columns q that hold grid points
    full = n_points // n_rows           # columns with all n_rows points
    n = np.arange(m)
    twiddle = np.exp(1j * (TWO_PI / n_fft)
                     * (np.arange(n_rows)[:, None] * n % n_fft))
    j = np.arange(n_rows)[:, None] + n_rows * np.arange(n_cols)
    carrier = np.exp(1j * float(omegas[0]) * (t0 + h * j))
    t_grid = t0 + h * np.arange(n_points)
    shift = n * dw * t0
    amps = frs[0].amps
    # row r holds component r % ncomp of realization r // ncomp
    phases = np.concatenate([f.phases for f in frs])
    spectrum = np.zeros((n_rows, q_len), dtype=complex)
    work = np.empty_like(spectrum)
    head = work[:, :n_cols]
    for r, ph in enumerate(phases):
        np.multiply(amps * np.exp(1j * (ph + shift)), twiddle,
                    out=spectrum[:, :m])
        np.fft.ifft(spectrum, axis=-1, norm="forward", out=work)
        np.multiply(head, carrier, out=head)
        row = out[divmod(r, ncomp)]
        row[:full * n_rows].reshape(full, n_rows)[...] = head.real[:, :full].T
        if full < n_cols:
            row[full * n_rows:] = head.real[:n_points - full * n_rows, full]
    for f, values in zip(frs, out):
        f.time_grid = t_grid
        f.values = values
    return out[0] if single else out


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
    """Empirical vs analytic autocovariance with standardized residuals.

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
        ana = autocovariance_quad(spec, float(lag))
        report["lag"].append(float(lag))
        report["empirical"].append(emp)
        report["analytic"].append(ana)
        report["std_error"].append(se)
        report["z_score"].append((emp - ana) / se if se > 0 else 0.0)
    return report


def dump_field_csv(fr: FieldRealization, ts, path) -> None:
    """Write (t, E(t)) samples as CSV with header t,E1[,E2,E3]."""
    ts = np.asarray(ts, dtype=float)
    vals = eval_field(fr, ts)
    ncomp = vals.shape[0]
    header = "t," + ",".join(f"E{k + 1}" for k in range(ncomp))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for j in range(ts.size):
            row = ",".join(repr(float(vals[k, j])) for k in range(ncomp))
            fh.write(f"{float(ts[j])!r},{row}\n")
