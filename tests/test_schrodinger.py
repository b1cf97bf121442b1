"""Wave-equation reference layer tests.

Eigenvalue checks run against closed forms on two levels: the exact
spectrum of the discretized operator (tight tolerance) and the continuum
formula (tolerance set by the grid). Residual diagnostics are checked for
the second-order contraction that distinguishes discretization error from a
genuine balance violation.
"""

import math

import numpy as np
import pytest

from sedsim.schrodinger import (
    GridError,
    GridSpec,
    WaveFunctionState,
    energy_expectation,
    evolve,
    gaussian_packet,
    navier_stokes_residual,
    plane_wave,
    quantum_potential,
    residual_norms,
    solve_stationary,
    velocity_fields,
)
from sedsim.schrodinger import _hamiltonian_bands, _tridiagonal_eigh

HARMONIC = lambda x: 0.5 * x ** 2


def harmonic_ground(n_points: int = 2000) -> WaveFunctionState:
    grid = GridSpec(-12.0, 12.0, n_points)
    _, states = solve_stationary(grid, HARMONIC, 1.0, 0.5, 1)
    return states[0]


# ---------------------------------------------------------------------------
# stationary solves

def test_harmonic_levels_to_a_part_in_ten_thousand():
    grid = GridSpec(-12.0, 12.0, 2000)
    energies, _ = solve_stationary(grid, HARMONIC, 1.0, 0.5, 6)
    for n in range(6):
        assert energies[n] == pytest.approx(n + 0.5, rel=1e-4)


def test_box_levels_match_discrete_and_continuum_spectra():
    # hard walls: V = 0 at the edge sits below every level, so the
    # wall-decay guard must stay out of the way
    grid = GridSpec(0.0, 1.0, 400)
    energies, states = solve_stationary(grid, 0.0, 1.0, 0.5, 5)
    c = 2.0 * 1.0 * 0.5 ** 2
    for n in range(5):
        # exact eigenvalue of the Dirichlet tridiagonal Laplacian
        discrete = (2.0 * c / grid.dx ** 2) * (
            1.0 - math.cos((n + 1) * math.pi / (grid.n_points + 1)))
        assert energies[n] == pytest.approx(discrete, rel=1e-10)
        assert energies[n] == pytest.approx(
            (n + 1) ** 2 * math.pi ** 2 / 2.0, rel=1e-3)
    # the sine modes genuinely reach the walls
    assert abs(states[0].psi[0]) > 1e-3


def test_confined_state_on_a_narrow_grid_is_rejected():
    grid = GridSpec(-3.0, 3.0, 200)
    with pytest.raises(GridError, match="widen the grid"):
        solve_stationary(grid, HARMONIC, 1.0, 0.5, 1)


def test_grid_validation():
    with pytest.raises(GridError, match="16"):
        GridSpec(-1.0, 1.0, 8)
    with pytest.raises(GridError, match="x_max"):
        GridSpec(1.0, 1.0, 64)
    with pytest.raises(GridError, match="boundary"):
        GridSpec(-1.0, 1.0, 64, boundary="absorbing")
    with pytest.raises(GridError, match="n_states"):
        solve_stationary(GridSpec(-12.0, 12.0, 64), HARMONIC, 1.0, 0.5, 0)
    # a wall of infinite potential is refused, not solved into NaN
    with pytest.raises(GridError, match="finite"):
        solve_stationary(GridSpec(-1.0, 1.0, 64),
                         lambda x: np.where(abs(x) > 0.9, np.inf, 0.0),
                         1.0, 0.5, 1)


def test_eigenstates_are_orthonormal():
    grid = GridSpec(-12.0, 12.0, 1200)
    _, states = solve_stationary(grid, HARMONIC, 1.0, 0.5, 6)
    psi = np.stack([s.psi for s in states])
    gram = np.real(psi @ psi.conj().T) * grid.dx
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)


def test_energy_expectation_agrees_with_eigenvalues():
    grid = GridSpec(-12.0, 12.0, 1000)
    energies, states = solve_stationary(grid, HARMONIC, 1.0, 0.5, 3)
    for e, s in zip(energies, states):
        assert energy_expectation(s, HARMONIC) == pytest.approx(e, rel=1e-10)


# The Dirichlet solve is numpy's Sturm bisection and inverse iteration
# (_tridiagonal_eigh); scipy's eigh_tridiagonal (LAPACK stebz and stein) is
# its oracle, on the shipped sed grid, sed-quartic's x^4/4 grid and this
# file's grids. (solve_stationary refuses the shipped grid's sixth state,
# which has not decayed at its walls.) Measured over these cases: energies
# within 3.0e-12 relative, unit eigenvectors within 3.4e-14 per entry,
# Gram matrix within 1.1e-15 of I.
QUARTIC = lambda x: 0.25 * x ** 4
ORACLE_CASES = {
    "shipped": (HARMONIC, GridSpec(-6.0, 6.0, 1001)),
    "quartic": (QUARTIC, GridSpec(-6.0, 6.0, 1001)),
    **{f"harmonic-{n}": (HARMONIC, GridSpec(-12.0, 12.0, n))
       for n in (1000, 1200, 2000, 2001)},
    "box": (0.0, GridSpec(0.0, 1.0, 400)),
}


@pytest.mark.parametrize("n_states", [1, 6])
@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_dirichlet_solve_matches_scipy_eigh_tridiagonal(case, n_states):
    from scipy.linalg import eigh_tridiagonal
    V, grid = ORACLE_CASES[case]
    bands = _hamiltonian_bands(grid, V, 1.0, 0.5)
    energies, vecs = _tridiagonal_eigh(*bands, n_states)
    ref_e, ref_v = eigh_tridiagonal(*bands, select="i",
                                    select_range=(0, n_states - 1))
    np.testing.assert_allclose(energies, ref_e, rtol=1e-11, atol=0)
    ref_v *= np.sign(np.sum(ref_v * vecs, axis=0))
    np.testing.assert_allclose(vecs, ref_v, rtol=0, atol=2e-13)
    if n_states == 6:
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(6), rtol=0,
                                   atol=1e-14)


# ---------------------------------------------------------------------------
# time evolution

def test_norm_is_conserved_and_evolution_reverses():
    state = gaussian_packet(GridSpec(-12.0, 12.0, 2000), 1.0, math.sqrt(0.5),
                            0.0, 1.0, 0.5)
    forward = evolve(state, HARMONIC, 1e-3, 1000)
    assert abs(forward.norm() - 1.0) <= 1e-10
    back = evolve(forward, HARMONIC, -1e-3, 1000)
    assert np.max(np.abs(back.psi - state.psi)) <= 1e-10
    assert back.time == pytest.approx(0.0, abs=1e-12)


def test_energy_is_conserved():
    state = gaussian_packet(GridSpec(-12.0, 12.0, 1000), 1.5, math.sqrt(0.5),
                            0.0, 1.0, 0.5)
    e0 = energy_expectation(state, HARMONIC)
    moved = evolve(state, HARMONIC, 1e-3, 100)
    assert energy_expectation(moved, HARMONIC) == pytest.approx(e0, rel=1e-10)


def test_free_packet_spreads_ballistically():
    # var(t) = sigma0^2 + (hbar_eff t / (2 m sigma0))^2; unit values give 2.0
    state = gaussian_packet(GridSpec(-40.0, 40.0, 1500), 0.0, 1.0, 0.0,
                            1.0, 0.5)
    assert state.position_var() == pytest.approx(1.0, rel=1e-6)
    moved = evolve(state, 0.0, 0.01, 200)
    assert moved.position_var() == pytest.approx(2.0, rel=2e-3)


def test_displaced_ground_state_oscillates_rigidly():
    state = gaussian_packet(GridSpec(-12.0, 12.0, 2000), 1.0, math.sqrt(0.5),
                            0.0, 1.0, 0.5)
    n_quarter = 1571  # pi/2 in steps of 1e-3
    quarter = evolve(state, HARMONIC, 1e-3, n_quarter)
    half = evolve(quarter, HARMONIC, 1e-3, n_quarter)
    assert abs(quarter.position_mean()) <= 1e-3
    assert half.position_mean() == pytest.approx(-1.0, abs=1e-5)
    # a displaced ground state keeps its width
    assert half.position_var() == pytest.approx(0.5, rel=1e-5)


# ---------------------------------------------------------------------------
# derived fields

def test_ground_state_velocity_fields():
    state = harmonic_ground()
    v, u, mask = velocity_fields(state)
    x = state.grid.x
    assert mask.sum() < state.grid.n_points  # wings are masked
    assert np.nanmax(np.abs(v[mask])) == 0.0  # real state carries no current
    assert np.nanmax(np.abs(u[mask] + x[mask])) <= 5e-3
    assert np.isnan(u[~mask]).all()


def test_excited_state_node_is_masked():
    # odd point count puts x = 0 on the grid, where the first excited state
    # vanishes and log-derivatives are meaningless
    grid = GridSpec(-12.0, 12.0, 2001)
    _, states = solve_stationary(grid, HARMONIC, 1.0, 0.5, 2)
    v, u, mask = velocity_fields(states[1])
    mid = 1000
    assert not mask[mid]
    assert np.isnan(u[mid])
    assert mask[mid - 40] and mask[mid + 40]
    vq, _ = quantum_potential(states[1])
    assert np.isnan(vq[mid])


def test_quantum_potential_complements_the_external_one():
    # eigenstate identity: V + V_Q = E wherever the density supports it
    state = harmonic_ground()
    vq, mask = quantum_potential(state)
    x = state.grid.x
    core = mask & (np.abs(x) < 3.0)
    np.testing.assert_allclose(vq[core] + HARMONIC(x[core]), 0.5, atol=1e-4)


def test_quantum_potential_forms_converge_together():
    # the two algebraic forms differ by discretization only; halving the
    # step must shrink the gap by about four
    gaps = []
    for n in (1000, 2000):
        state = harmonic_ground(n)
        vq_a, mask_a = quantum_potential(state, form="sqrt-density")
        vq_b, mask_b = quantum_potential(state, form="velocity")
        common = mask_a & mask_b & np.isfinite(vq_a) & np.isfinite(vq_b)
        gaps.append(float(np.max(np.abs(vq_a[common] - vq_b[common]))))
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5
    with pytest.raises(GridError, match="form"):
        quantum_potential(harmonic_ground(64), form="pressure")


def test_constant_density_ring_has_zero_quantum_potential():
    grid = GridSpec(0.0, 2.0 * math.pi, 256, boundary="periodic")
    ring = plane_wave(grid, 3, 1.0, 0.5)
    vq, mask = quantum_potential(ring, form="sqrt-density")
    assert mask.all()
    # rounding in |exp(ikx)|^2, amplified by the stencil; no analytic part
    assert np.max(np.abs(vq)) <= 1e-11
    vq_vel, _ = quantum_potential(ring, form="velocity")
    assert np.max(np.abs(vq_vel)) <= 1e-11


# ---------------------------------------------------------------------------
# momentum-balance residual

def test_ground_state_balance_residual_is_small_and_second_order():
    weighted = {}
    for n in (1000, 2000):
        state = harmonic_ground(n)
        resid, scale, mask = navier_stokes_residual(state, HARMONIC, 1e-3)
        w, mx = residual_norms(state, resid, scale, mask)
        weighted[n] = w
        assert mx < 0.05  # fringe points are reported, not certified
    assert weighted[1000] <= 1e-3
    assert 3.0 <= weighted[1000] / weighted[2000] <= 5.0


def test_coherent_state_balance_residual():
    weighted = {}
    for n in (1000, 2000):
        grid = GridSpec(-12.0, 12.0, n)
        state = gaussian_packet(grid, 1.5, math.sqrt(0.5), 0.0, 1.0, 0.5)
        resid, scale, mask = navier_stokes_residual(state, HARMONIC, 1e-3)
        w, _ = residual_norms(state, resid, scale, mask)
        weighted[n] = w
    assert weighted[1000] <= 1e-3
    assert 3.0 <= weighted[1000] / weighted[2000] <= 5.0


def test_uniform_ring_balance_is_identically_zero():
    # every analytic term vanishes; what remains is rounding noise far
    # below any physical scale, asserted in absolute units
    grid = GridSpec(0.0, 2.0 * math.pi, 256, boundary="periodic")
    ring = plane_wave(grid, 3, 1.0, 0.5)
    resid, _, mask = navier_stokes_residual(ring, 0.0, 1e-3)
    assert mask.all()
    assert np.max(np.abs(resid)) <= 1e-9


def test_residual_norms_demand_support():
    state = harmonic_ground(64)
    resid = np.zeros(64)
    with pytest.raises(GridError, match="mask is empty"):
        residual_norms(state, resid, 1.0, np.zeros(64, dtype=bool))


# ---------------------------------------------------------------------------
# state constructors

def test_gaussian_packet_moments():
    grid = GridSpec(-12.0, 12.0, 1500)
    state = gaussian_packet(grid, 0.7, 0.9, 2.0, 1.0, 0.5)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert state.position_mean() == pytest.approx(0.7, abs=1e-9)
    assert state.position_var() == pytest.approx(0.81, rel=1e-6)
    assert state.hbar_eff == pytest.approx(1.0)


def test_plane_wave_requires_a_periodic_grid():
    with pytest.raises(GridError, match="periodic"):
        plane_wave(GridSpec(0.0, 1.0, 64), 1, 1.0, 0.5)
    grid = GridSpec(0.0, 2.0 * math.pi, 128, boundary="periodic")
    wave = plane_wave(grid, 2, 1.0, 0.5)
    assert wave.norm() == pytest.approx(1.0, rel=1e-12)
    v, u, mask = velocity_fields(wave)
    assert mask.all()
    # discrete momentum: sin(k dx)/dx rather than k
    k = 2.0
    expected = math.sin(k * grid.dx) / grid.dx
    np.testing.assert_allclose(v, expected, rtol=1e-12)
    np.testing.assert_allclose(u, 0.0, atol=1e-12)
