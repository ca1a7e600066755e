import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import squidsim as sq
from squidsim import CODATA2018, GridResolutionError, ParameterError, SquidParams


def harmonic_ring(bias=0.0):
    return SquidParams(5e-15, 3e-10, 0.0, bias)


def test_sho_limit_fock_spectrum():
    ring = harmonic_ring()
    scales = sq.derive_scales(ring)
    dim = 120
    h = sq.build_fock_hamiltonian(ring, scales, dim)
    vals = np.linalg.eigvalsh(h)
    n = np.arange(dim - 20)
    assert np.max(np.abs(vals[: dim - 20] - (n + 0.5))) < 1e-8


def test_sho_limit_flux_grid():
    ring = harmonic_ring()
    grid_h = sq.build_flux_grid_hamiltonian(ring)
    vals = grid_h.solve_values(10)
    expected = np.arange(10) + 0.5
    assert np.max(np.abs(vals - expected) / expected) < 1e-5


def test_tunnel_splitting_period_order_of_magnitude(spectral_05):
    ring, scales, h, res = spectral_05
    split = res.eigenvalues[1] - res.eigenvalues[0]
    assert split > 0.0
    period = 2.0 * math.pi / (split * scales.omega)
    assert 100e-9 / 3.0 < period < 100e-9 * 3.0


def test_bias_periodicity():
    dim = 150
    ring0 = sq.standard_ring(0.0)
    ring1 = sq.standard_ring(1.0)
    scales = sq.derive_scales(ring0)
    v0 = np.linalg.eigvalsh(sq.build_fock_hamiltonian(ring0, scales, dim))
    v1 = np.linalg.eigvalsh(sq.build_fock_hamiltonian(ring1, scales, dim))
    assert np.max(np.abs(v0 - v1)) < 1e-9


@pytest.mark.parametrize("bias", [0.0, 0.25, 0.49])
def test_fock_vs_flux_grid_oracle(bias):
    ring = sq.standard_ring(bias)
    scales = sq.derive_scales(ring)
    fock = np.linalg.eigvalsh(
        sq.build_fock_hamiltonian(ring, scales, 400))[:10]
    grid = sq.build_flux_grid_hamiltonian(ring, frame="flux").solve_values(10)
    assert np.max(np.abs(fock - grid)) < 1e-6


def test_translation_equivalence_of_grid_frames():
    # the flux frame realises the untranslated Hamiltonian, the oscillator
    # frame its unitarily translated form; spectra must coincide
    ring = sq.standard_ring(0.49)
    a = sq.build_flux_grid_hamiltonian(ring, frame="flux").solve_values(8)
    b = sq.build_flux_grid_hamiltonian(ring, frame="oscillator").solve_values(8)
    assert np.max(np.abs(a - b)) < 1e-8


def test_grid_must_be_uniform():
    ring = sq.standard_ring()
    bad = np.concatenate([np.linspace(-30, 0, 1000), np.linspace(0.1, 30, 900)])
    with pytest.raises(GridResolutionError):
        sq.build_flux_grid_hamiltonian(ring, grid=bad)


def test_grid_too_coarse_rejected():
    ring = sq.standard_ring()
    with pytest.raises(GridResolutionError):
        sq.build_flux_grid_hamiltonian(ring, grid=np.linspace(-40, 40, 200))


def test_potential_zero_josephson_minimum():
    ring = harmonic_ring(0.3)
    phi_x = 0.3 * CODATA2018.flux_quantum
    assert sq.potential_energy(phi_x, ring) == 0.0
    probe = phi_x + np.linspace(-1, 1, 41) * CODATA2018.flux_quantum
    assert np.all(sq.potential_energy(probe, ring) >= 0.0)


def test_potential_symmetry_at_half_quantum():
    ring = sq.standard_ring(0.5)
    phi0 = CODATA2018.flux_quantum
    delta = np.linspace(-1.3, 1.3, 57) * phi0
    up = sq.potential_energy(0.5 * phi0 + delta, ring)
    down = sq.potential_energy(0.5 * phi0 - delta, ring)
    scale = np.max(np.abs(up))
    assert np.max(np.abs(up - down)) < 1e-12 * scale


def test_two_central_minima_positions():
    # independent oracle: dense scan plus local refinement of the scaled
    # potential; the screening parameter here is weak enough that the minima
    # sit well inside one flux quantum of each other
    ring = sq.standard_ring(0.5)
    scales = sq.derive_scales(ring)
    xs = np.linspace(-10, 10, 200001)
    u = sq.potential_energy_scaled(xs, ring, scales)
    sign = np.diff(np.sign(np.diff(u)))
    idx = np.nonzero(sign > 0)[0] + 1
    refined = []
    for i in idx:
        r = minimize_scalar(
            lambda x: sq.potential_energy_scaled(x, ring, scales),
            bracket=(xs[i - 1], xs[i], xs[i + 1]))
        refined.append(r.x)
    assert len(refined) == 2
    separation = max(refined) - min(refined)
    assert separation == pytest.approx(7.3916, abs=2e-3)

    wells = sq.find_potential_wells(ring, scales)
    assert len(wells) == 2
    assert wells[-1].position - wells[0].position == pytest.approx(
        separation, abs=1e-6)
    assert wells[0].energy == pytest.approx(wells[1].energy, abs=1e-9)


def test_eigensolve_identity_and_2x2():
    res = sq.eigensolve(np.eye(5))
    assert np.allclose(res.eigenvalues, 1.0)
    res2 = sq.eigensolve(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(res2.eigenvalues, [-1.0, 1.0])


def test_eigensolve_rejects_non_hermitian():
    with pytest.raises(ParameterError):
        sq.eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigensolve_phase_convention():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    h = m + m.conj().T
    res = sq.eigensolve(h)
    for j in range(30):
        col = res.eigenvectors[:, j]
        piv = col[np.argmax(np.abs(col))]
        assert abs(piv.imag) < 1e-12
        assert piv.real > 0.0


def test_eigensolve_residuals_and_orthonormality(spectral_049):
    _, _, h, res = spectral_049
    assert res.residual(h) <= 1e-9 * np.max(np.abs(res.eigenvalues))
    overlap = res.eigenvectors.T.conj() @ res.eigenvectors
    assert np.max(np.abs(overlap - np.eye(overlap.shape[0]))) < 1e-10


def test_truncation_convergence_at_049():
    ring = sq.standard_ring(0.49)
    scales = sq.derive_scales(ring)
    v400 = np.linalg.eigvalsh(sq.build_fock_hamiltonian(ring, scales, 400))[:20]
    v500 = np.linalg.eigvalsh(sq.build_fock_hamiltonian(ring, scales, 500))[:20]
    assert np.max(np.abs(v400 - v500)) < 1e-8


def test_sweep_reflection_and_periodicity():
    sweep = sq.spectrum_sweep(sq.standard_ring(), 0.0, 1.0, 0.125,
                              levels=6, dim=150)
    assert np.max(np.abs(sweep.levels[0] - sweep.levels[-1])) < 1e-9
    flipped = sweep.levels[::-1]
    assert np.max(np.abs(sweep.levels - flipped)) < 1e-9
    for row in sweep.levels:
        assert np.all(np.diff(row) >= 0.0)


def test_sweep_minimum_gap_at_half_quantum():
    sweep = sq.spectrum_sweep(sq.standard_ring(), 0.4, 0.6, 0.01,
                              levels=2, dim=300)
    gaps = sweep.levels[:, 1] - sweep.levels[:, 0]
    assert sweep.bias_values[np.argmin(gaps)] == pytest.approx(0.5, abs=1e-12)


def test_sweep_matches_directly_built_hamiltonians():
    dim, levels = 150, 8
    ring = sq.standard_ring()
    scales = sq.derive_scales(ring)
    sweep = sq.spectrum_sweep(ring, 0.0, 1.0, 0.1, levels=levels, dim=dim)
    a, adag = sq.ladder_operators(dim)
    nodes, vecs = np.linalg.eigh(a + adag)
    for phi, got in zip(sweep.bias_values, sweep.levels, strict=True):
        cos = (vecs * np.cos(scales.cosine_scale_k * nodes
                             + 2.0 * np.pi * phi)) @ vecs.T
        h = np.diag(np.arange(dim) + 0.5) - scales.nu_over_omega * cos
        assert np.max(np.abs(got - np.linalg.eigvalsh(h)[:levels])) < 1e-12


def test_sweep_step_validation():
    for step in (0.0, -0.1, math.nan):
        with pytest.raises(ParameterError):
            sq.spectrum_sweep(sq.standard_ring(), 0.0, 1.0, step)
