"""Grid reference solutions of the diffusion-parameterized wave equation.

The comparison target for ensemble statistics is the linear equation

    -2 m D^2 psi'' + V psi = 2 i m D  dpsi/dt,

whose stationary form is the eigenproblem -2 m D^2 psi'' + V psi = E psi.
With D = hbar/(2 m) this is the standard Schrodinger equation; everything
here is written in terms of (m, D) so the correspondence with coarse-grained
trajectory statistics stays explicit:

    rho = |psi|^2,   v = 2 D Im(psi'/psi),   u = 2 D Re(psi'/psi).

Finite differences are second order on a uniform grid; time stepping is
Crank-Nicolson, which preserves the norm to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

BOUNDARIES = ("dirichlet", "periodic")

# density floor (relative to the peak) below which psi'/psi is masked
RHO_FLOOR = 1e-8

# Shifts per state and round of _sturm_bisection, and solves per state of
# the inverse iteration. On the shipped 1,001-point grid a round takes about
# 1.2 ms at 64 shifts, and 9 rounds reach the tolerance; one solve left
# the state 1.1e-12 from scipy's eigh_tridiagonal, two 1.9e-14, so three
# keep a margin. The ground state takes about 15 ms in all.
_BISECTION_SHIFTS = 64
_INVERSE_STEPS = 3


class GridError(ValueError):
    """Raised for unusable grids or mismatched states."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid.

    dirichlet places all n_points strictly inside (x_min, x_max) with the
    wavefunction pinned to zero at the walls; periodic covers [x_min, x_max)
    with x_max identified with x_min.
    """

    x_min: float
    x_max: float
    n_points: int
    boundary: str = "dirichlet"

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise GridError("x_max must exceed x_min")
        if self.n_points < 16:
            raise GridError("need at least 16 grid points")
        if self.boundary not in BOUNDARIES:
            raise GridError(f"boundary must be one of {BOUNDARIES}")

    @property
    def dx(self) -> float:
        if self.boundary == "dirichlet":
            return (self.x_max - self.x_min) / (self.n_points + 1)
        return (self.x_max - self.x_min) / self.n_points

    @property
    def x(self) -> np.ndarray:
        if self.boundary == "dirichlet":
            return self.x_min + self.dx * (1.0 + np.arange(self.n_points))
        return self.x_min + self.dx * np.arange(self.n_points)


@dataclass
class WaveFunctionState:
    grid: GridSpec
    psi: np.ndarray
    mass: float
    diffusion: float
    time: float = 0.0

    @property
    def hbar_eff(self) -> float:
        return 2.0 * self.mass * self.diffusion

    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.grid.dx)

    def density(self) -> np.ndarray:
        return np.abs(self.psi) ** 2

    def position_mean(self) -> float:
        return float(np.sum(self.grid.x * self.density()) * self.grid.dx)

    def position_var(self) -> float:
        mu = self.position_mean()
        return float(np.sum((self.grid.x - mu) ** 2 * self.density())
                     * self.grid.dx)


def _potential_values(grid: GridSpec, V) -> np.ndarray:
    vals = V(grid.x) if callable(V) else np.asarray(V, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if vals.ndim == 0:
        vals = np.full(grid.n_points, float(vals))
    if vals.shape != (grid.n_points,):
        raise GridError("potential values do not match the grid")
    if not np.isfinite(vals).all():
        raise GridError("potential values must be finite")
    return vals


def _hamiltonian_bands(grid: GridSpec, V, mass: float, diffusion: float):
    """Diagonal and off-diagonal of -2 m D^2 d2/dx2 + V."""
    c = 2.0 * mass * diffusion**2
    dx2 = grid.dx**2
    diag = 2.0 * c / dx2 + _potential_values(grid, V)
    off = np.full(grid.n_points - 1, -c / dx2)
    return diag, off


def _sturm_bisection(diag, off, n_states: int) -> np.ndarray:
    """The n_states lowest eigenvalues of the symmetric tridiagonal matrix
    T with diagonal diag and off-diagonal off, by bisection on Sturm counts
    (Barth, Martin & Wilkinson, Numer. Math. 9, 386 (1967)): the pivots
    q_i = d_i - s - e_{i-1}^2 / q_{i-1} of T - s have as many negative
    signs as T has eigenvalues below s. Each round counts at
    _BISECTION_SHIFTS shifts inside every state's bracket, vectorised over
    the shifts with a loop over the rows, and keeps the shifts either side
    of the eigenvalue, until every bracket is 2 eps max(|lo|, |hi|) wide,
    lo and hi the Gershgorin bounds of the spectrum (about LAPACK stebz's
    default). A zero pivot makes the next one infinite and the one after
    it finite again, as a tiny pivot would; the sign bit counts -0 as
    negative."""
    bound = np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
    lo, hi = float(np.min(diag - bound)), float(np.max(diag + bound))
    tol = 2.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    a, b = np.full((n_states, 1), lo), np.full((n_states, 1), hi)
    frac = np.arange(1, _BISECTION_SHIFTS + 1) / (_BISECTION_SHIFTS + 1)
    e2, below = (off * off).tolist(), np.arange(n_states)[:, None]
    while np.max(b - a) > tol:
        s = a + (b - a) * frac                 # (n_states, shifts)
        q = np.subtract(diag[:, None], s.ravel())
        t = np.empty(s.size)
        with np.errstate(divide="ignore", over="ignore"):
            for e, prev, row in zip(e2, q, q[1:]):
                np.divide(e, prev, out=t)
                np.subtract(row, t, out=row)
        count = np.count_nonzero(np.signbit(q), axis=0).reshape(s.shape)
        low = count <= below                   # shifts at or under lambda_j
        a = np.maximum(a, np.max(np.where(low, s, -np.inf), axis=1,
                                 keepdims=True))
        b = np.minimum(b, np.min(np.where(low, np.inf, s), axis=1,
                                 keepdims=True))
    return 0.5 * (a + b).ravel()


def _tridiagonal_lu(d: list, e: list, tiny: float):
    """LU with partial pivoting (LAPACK's gttrf) of the symmetric
    tridiagonal matrix with diagonal d and off-diagonal e, as a function
    solve(b) -> x; U has two superdiagonals, and a zero pivot counts as
    tiny."""
    n = len(d)
    u0, u1, u2 = list(d), list(e) + [0.0], [0.0] * (n + 1)
    mult, swap = [0.0] * n, [False] * n
    for i in range(n - 1):
        if abs(u0[i]) >= abs(e[i]):
            mult[i] = e[i] / u0[i] if u0[i] else 0.0
            u0[i + 1] -= mult[i] * u1[i]
        else:                                  # rows i and i + 1 swap
            m = mult[i] = u0[i] / e[i]
            swap[i] = True
            u0[i], u1[i], u0[i + 1] = e[i], u0[i + 1], u1[i] - m * u0[i + 1]
            u2[i], u1[i + 1] = u1[i + 1], -m * u1[i + 1]

    def solve(b: list) -> np.ndarray:
        for i in range(n - 1):
            if swap[i]:
                b[i], b[i + 1] = b[i + 1], b[i] - mult[i] * b[i + 1]
            else:
                b[i + 1] -= mult[i] * b[i]
        x = [0.0] * (n + 2)
        for i in range(n - 1, -1, -1):
            x[i] = ((b[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2])
                    / (u0[i] or tiny))
        return np.array(x[:n])

    return solve


def _tridiagonal_eigh(diag, off, n_states: int):
    """(vals, vecs): the n_states lowest eigenpairs of the symmetric
    tridiagonal matrix (diag, off), LAPACK's route for selected pairs
    (stebz, then stein): eigenvalues by _sturm_bisection, then each vector
    by inverse iteration (Wilkinson, The Algebraic Eigenvalue Problem,
    1965) at its eigenvalue, from a fixed pseudo-random start. Each of
    _INVERSE_STEPS solves is followed by Gram-Schmidt against the lower
    states and a normalisation, so vecs (n, n_states) is orthonormal."""
    vals = _sturm_bisection(diag, off, n_states)
    tiny = np.finfo(float).eps * float(np.max(np.abs(diag))
                                       + 2.0 * np.max(np.abs(off)))
    start = np.random.default_rng(0).standard_normal((n_states, diag.size))
    vecs = np.empty((diag.size, n_states))
    for j, x in enumerate(start):
        solve = _tridiagonal_lu((diag - vals[j]).tolist(), off.tolist(),
                                tiny)
        for _ in range(_INVERSE_STEPS):
            x = solve(x.tolist())
            x -= vecs[:, :j] @ (vecs[:, :j].T @ x)
            x /= np.linalg.norm(x)
        vecs[:, j] = x
    return vals, vecs


def solve_stationary(grid: GridSpec, V, mass: float, diffusion: float,
                     n_states: int = 1):
    """Lowest eigenpairs of -2 m D^2 psi'' + V psi = E psi.

    Returns (energies, states): energies ascending, states a list of
    WaveFunctionState normalized to unit integral, real-valued with a
    nonnegative peak. When the walls are classically forbidden for a state
    (V at both edges above its energy), the state must have decayed to
    |psi| < 1e-6 max|psi| there, or the box is too narrow and the solve
    fails; hard-wall problems (V below E at the edge) are exempt. The
    Dirichlet Hamiltonian is tridiagonal and solved in numpy
    (_tridiagonal_eigh), so a sed run imports no scipy; the periodic one
    takes a dense eigh.
    """
    if n_states < 1 or n_states > grid.n_points:
        raise GridError("n_states out of range")
    vpot = _potential_values(grid, V)
    diag, off = _hamiltonian_bands(grid, V, mass, diffusion)
    if grid.boundary == "dirichlet":
        vals, vecs = _tridiagonal_eigh(diag, off, n_states)
    else:
        n = grid.n_points
        h = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        h[0, -1] = h[-1, 0] = off[0]
        all_vals, all_vecs = np.linalg.eigh(h)
        vals, vecs = all_vals[:n_states], all_vecs[:, :n_states]
    states = []
    for i in range(n_states):
        psi = vecs[:, i] / math.sqrt(grid.dx)   # eigh vectors have unit 2-norm
        peak = np.argmax(np.abs(psi))
        if psi[peak] < 0:
            psi = -psi
        if (grid.boundary == "dirichlet"
                and min(vpot[0], vpot[-1]) > vals[i]
                and max(abs(psi[0]), abs(psi[-1])) >= 1e-6 * abs(psi[peak])):
            raise GridError(
                f"state {i} has not decayed at the walls; widen the grid")
        states.append(WaveFunctionState(grid=grid, psi=psi.astype(complex),
                                        mass=mass, diffusion=diffusion))
    return np.asarray(vals, dtype=float), states


def energy_expectation(state: WaveFunctionState, V) -> float:
    diag, off = _hamiltonian_bands(state.grid, V, state.mass, state.diffusion)
    psi = state.psi
    hpsi = diag * psi
    hpsi[:-1] += off * psi[1:]
    hpsi[1:] += off * psi[:-1]
    if state.grid.boundary == "periodic":
        hpsi[0] += off[0] * psi[-1]
        hpsi[-1] += off[0] * psi[0]
    return float(np.real(np.sum(np.conj(psi) * hpsi)) * state.grid.dx)


# ---------------------------------------------------------------------------
# time evolution

def evolve(state: WaveFunctionState, V, dt: float,
           n_steps: int = 1) -> WaveFunctionState:
    """Advance by n_steps of Crank-Nicolson with step dt (dt may be negative).

    (I + i dt H / (2 hbar_eff)) psi_new = (I - i dt H / (2 hbar_eff)) psi.
    """
    from scipy.linalg import lu_factor, lu_solve, solve_banded
    grid = state.grid
    diag, off = _hamiltonian_bands(grid, V, state.mass, state.diffusion)
    beta = 1j * dt / (2.0 * state.hbar_eff)
    n = grid.n_points
    psi = state.psi.astype(complex)

    if grid.boundary == "dirichlet":
        ab = np.zeros((3, n), dtype=complex)       # banded LHS for solve_banded
        ab[0, 1:] = beta * off
        ab[1, :] = 1.0 + beta * diag
        ab[2, :-1] = beta * off
        for _ in range(n_steps):
            rhs = (1.0 - beta * diag) * psi
            rhs[:-1] -= beta * off * psi[1:]
            rhs[1:] -= beta * off * psi[:-1]
            psi = solve_banded((1, 1), ab, rhs)
    else:
        h = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        h[0, -1] = h[-1, 0] = off[0]
        lhs = np.eye(n) + beta * h
        rhs_m = np.eye(n) - beta * h
        lu = lu_factor(lhs)
        for _ in range(n_steps):
            psi = lu_solve(lu, rhs_m @ psi)

    return replace(state, psi=psi, time=state.time + dt * n_steps)


# ---------------------------------------------------------------------------
# derived fields

def _grad(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    dx = grid.dx
    if grid.boundary == "periodic":
        return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * dx)
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    # walls: psi vanishes one step outside the grid
    g[0] = f[1] / (2.0 * dx)
    g[-1] = -f[-2] / (2.0 * dx)
    return g


def _lap(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    dx2 = grid.dx**2
    if grid.boundary == "periodic":
        return (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / dx2
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dx2
    g[0] = (f[1] - 2.0 * f[0]) / dx2
    g[-1] = (f[-2] - 2.0 * f[-1]) / dx2
    return g


def velocity_fields(state: WaveFunctionState):
    """Current and osmotic velocities with a low-density mask.

    Returns (v, u, mask): v = 2 D Im(psi'/psi), u = 2 D Re(psi'/psi); mask
    is False where the density is below RHO_FLOOR times its peak and the
    ratio is unreliable.
    """
    rho = state.density()
    mask = rho > RHO_FLOOR * rho.max()
    grad = _grad(state.psi, state.grid)
    ratio = np.zeros_like(state.psi)
    np.divide(grad, state.psi, out=ratio, where=mask)
    v = 2.0 * state.diffusion * np.imag(ratio)
    u = 2.0 * state.diffusion * np.real(ratio)
    v[~mask] = np.nan
    u[~mask] = np.nan
    return v, u, mask


def quantum_potential(state: WaveFunctionState, form: str = "sqrt-density"):
    """Density-gradient potential, by either of its equivalent forms.

    sqrt-density: -2 m D^2 (sqrt(rho))'' / sqrt(rho).
    velocity:     -(1/2) m u^2 - m D u', with u the osmotic velocity.
    Both return NaN under the density floor mask.
    """
    rho = state.density()
    mask = rho > RHO_FLOOR * rho.max()
    m, D = state.mass, state.diffusion
    if form == "sqrt-density":
        r = np.sqrt(rho)
        vq = np.full_like(rho, np.nan)
        lap = _lap(r, state.grid)
        np.divide(-2.0 * m * D**2 * lap, r, out=vq, where=mask)
    elif form == "velocity":
        _, u, _ = velocity_fields(state)
        up = _grad(np.where(mask, u, 0.0), state.grid)
        vq = -0.5 * m * u**2 - m * D * up
        vq[~mask] = np.nan
        # derivative stencil is contaminated one point into the mask edge
        edge = mask & ~(np.roll(mask, 1) & np.roll(mask, -1))
        vq[edge] = np.nan
    else:
        raise GridError("form must be 'sqrt-density' or 'velocity'")
    return vq, mask


def navier_stokes_residual(state: WaveFunctionState, V, dt_probe: float):
    """Pointwise residual of the drift-velocity momentum balance.

    The combination v_a = v - u obeys
        d v_a/dt + v_a v_a' - D v_a'' = -(V + 2 V_Q)'/m
    for solutions of the wave equation. The time derivative is centered:
    the state is evolved to +/- dt_probe and v_a differenced, so the check
    is O(dt_probe^2) and needs no stored history. Returns (residual, scale,
    mask); residual is NaN under the mask, scale is the max force-term
    magnitude for normalizing.
    """
    grid = state.grid
    v0, u0, mask = velocity_fields(state)
    va0 = v0 - u0
    plus = evolve(state, V, dt_probe)
    minus = evolve(state, V, -dt_probe)
    vp, up, mp = velocity_fields(plus)
    vm, um, mm = velocity_fields(minus)
    mask = mask & mp & mm
    dtva = ((vp - up) - (vm - um)) / (2.0 * dt_probe)

    va_fill = np.where(mask, va0, 0.0)
    vap = _grad(va_fill, grid)
    vapp = _lap(va_fill, grid)
    vq, mq = quantum_potential(state, form="sqrt-density")
    mask = mask & mq
    vals = _potential_values(grid, V)
    total = vals + 2.0 * np.where(mask, vq, 0.0)
    force = -_grad(total, grid) / state.mass

    resid = dtva + va_fill * vap - state.diffusion * vapp - force
    # gradient stencils touch one masked neighbor at run edges; drop those
    interior = mask & np.roll(mask, 1) & np.roll(mask, -1)
    if grid.boundary == "dirichlet":
        interior[0] = interior[-1] = False
    resid[~interior] = np.nan
    scale = float(np.nanmax(np.abs(np.where(interior, force, np.nan))))
    if not np.isfinite(scale) or scale == 0.0:
        scale = max(float(np.nanmax(np.abs(resid[interior])))
                    if interior.any() else 0.0, 1e-300)
    return resid, scale, interior


def residual_norms(state: WaveFunctionState, resid, scale: float, mask):
    """Summarize a residual field as (density-weighted RMS, pointwise max).

    Both are normalized by scale. The pointwise max lives at the fringe of
    the density-floor mask, where log-derivative magnitudes grow without
    bound as the floor is lowered, so it is reported but not a stable
    convergence measure; the rho-weighted RMS is floor-insensitive and
    contracts at the expected second-order rate under grid refinement.
    """
    rho = state.density()[mask]
    r = resid[mask]
    if r.size == 0:
        raise GridError("residual mask is empty")
    weighted = float(np.sqrt(np.sum(rho * r**2) / np.sum(rho)) / scale)
    max_abs = float(np.max(np.abs(r)) / scale)
    return weighted, max_abs


def gaussian_packet(grid: GridSpec, x0: float, sigma: float, k0: float,
                    mass: float, diffusion: float) -> WaveFunctionState:
    """Normalized Gaussian wavepacket exp(-(x-x0)^2/(4 sigma^2) + i k0 x).

    sigma is the position standard deviation of |psi|^2.
    """
    x = grid.x
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * k0 * x)
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return WaveFunctionState(grid=grid, psi=psi, mass=mass,
                             diffusion=diffusion)


def plane_wave(grid: GridSpec, n_wave: int, mass: float,
               diffusion: float) -> WaveFunctionState:
    """Momentum eigenstate on a periodic grid: psi = exp(i k x)/sqrt(L)."""
    if grid.boundary != "periodic":
        raise GridError("plane waves need a periodic grid")
    length = grid.x_max - grid.x_min
    k = 2.0 * math.pi * n_wave / length
    psi = np.exp(1j * k * grid.x) / math.sqrt(length)
    return WaveFunctionState(grid=grid, psi=psi, mass=mass,
                             diffusion=diffusion)
