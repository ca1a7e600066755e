import math

import numpy as np
import pytest
from scipy.special import roots_hermite

import squidsim as sq
from squidsim import ParameterError
from squidsim.operators import (_cos_sin_pair, displacement_operator,
                                parity_operator)


def test_annihilation_dim2():
    assert np.array_equal(sq.annihilation(2), [[0.0, 1.0], [0.0, 0.0]])


def test_ladder_commutator_truncation_artifact():
    dim = 37
    a, adag = sq.ladder_operators(dim)
    comm = a @ adag - adag @ a
    expected = np.eye(dim)
    expected[-1, -1] = -(dim - 1)
    assert np.max(np.abs(comm - expected)) < 1e-12


def test_number_operator_from_ladder():
    a, adag = sq.ladder_operators(5)
    assert np.allclose(adag @ a, np.diag([0.0, 1.0, 2.0, 3.0, 4.0]), atol=1e-15)


@pytest.mark.parametrize("dim", [0, 1, -3])
def test_small_dims_rejected(dim):
    with pytest.raises(ParameterError):
        sq.annihilation(dim)
    with pytest.raises(ParameterError):
        sq.cosine_operator(dim, 0.1)


def test_quadrature_dim2():
    x, p = sq.quadrature_operators(2)
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(x, [[0.0, r], [r, 0.0]], atol=1e-15)
    assert np.allclose(p, [[0.0, -1j * r], [1j * r, 0.0]], atol=1e-15)


def test_vacuum_quadrature_variances():
    x, p = sq.quadrature_operators(16)
    vac = np.zeros(16)
    vac[0] = 1.0
    assert vac @ (x @ x) @ vac == pytest.approx(0.5, abs=1e-14)
    assert np.real(vac @ (p @ p) @ vac) == pytest.approx(0.5, abs=1e-14)


def test_canonical_commutator_below_truncation_edge():
    dim = 40
    x, p = sq.quadrature_operators(dim)
    comm = x @ p - p @ x
    block = comm[: dim - 1, : dim - 1]
    assert np.max(np.abs(block - 1j * np.eye(dim - 1))) < 1e-13


def test_position_eigenvalues_match_gauss_hermite_nodes():
    dim = 64
    x, _ = sq.quadrature_operators(dim)
    nodes, _ = roots_hermite(dim)
    assert np.max(np.abs(np.linalg.eigvalsh(x) - np.sort(nodes))) < 1e-10


def test_hermitian_flags():
    x, p = sq.quadrature_operators(48)
    cos = sq.cosine_operator(48, 0.345, 1.2)
    for op in (x, p, cos):
        assert sq.hermiticity_defect(op) <= 1e-12 * np.max(np.abs(op))


def test_cosine_zero_scale_is_scalar():
    for phase in (0.0, 0.7, math.pi):
        op = sq.cosine_operator(24, 0.0, phase)
        assert np.allclose(op, math.cos(phase) * np.eye(24), atol=1e-14)


def test_cosine_against_taylor_series():
    # independent oracle: 20-term Taylor expansion of cos applied to the
    # truncated (a + a†) matrix
    dim, k = 64, 0.345
    a, adag = sq.ladder_operators(dim)
    arg = k * (a + adag)
    term = np.eye(dim)
    total = np.eye(dim)
    arg2 = arg @ arg
    for m in range(1, 20):
        term = term @ arg2 * (-1.0 / ((2 * m - 1) * (2 * m)))
        total = total + term
    spectral = sq.cosine_operator(dim, k)
    assert np.max(np.abs(spectral - total)) < 1e-8


def test_cosine_eigenvalues_bounded():
    op = sq.cosine_operator(96, 0.345)
    vals = np.linalg.eigvalsh(op)
    assert vals.min() >= -1.0 - 1e-12
    assert vals.max() <= 1.0 + 1e-12


def test_cosine_pi_phase_flips_sign():
    a = sq.cosine_operator(40, 0.5, math.pi)
    b = sq.cosine_operator(40, 0.5, 0.0)
    assert np.max(np.abs(a + b)) < 1e-12


def _sine(dim, k, phase=0.0):
    """sin(k(a + a†) + phase), the cosine a quarter turn behind."""
    return sq.cosine_operator(dim, k, phase - math.pi / 2)


def test_cos_squared_plus_sin_squared():
    dim, k, phase = 72, 0.42, 0.3
    c = sq.cosine_operator(dim, k, phase)
    s = _sine(dim, k, phase)
    assert np.max(np.abs(c @ c + s @ s - np.eye(dim))) < 1e-10


def test_cosine_commutes_with_parity_at_zero_phase():
    dim = 64
    c = sq.cosine_operator(dim, 0.345)
    par = parity_operator(dim)
    assert np.max(np.abs(c @ par - par @ c)) < 1e-10


def test_negative_scale_rejected():
    with pytest.raises(ParameterError):
        sq.cosine_operator(16, -0.1)
    with pytest.raises(ParameterError):
        _sine(16, -0.1)


@pytest.mark.parametrize("make", [sq.cosine_operator,
                                  pytest.param(_sine, id="sine_operator")])
@pytest.mark.parametrize("k, phase", [
    (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
    (0.3, math.nan), (0.3, math.inf), (0.3, -math.inf),
])
def test_non_finite_scale_or_phase_rejected(make, k, phase):
    with pytest.raises(ParameterError):
        make(16, k, phase)


def _direct(f, dim, k, phase):
    # independent route: dense eigh of a + a†, f applied to k*nodes + phase
    a, adag = sq.ladder_operators(dim)
    nodes, vecs = np.linalg.eigh(a + adag)
    return (vecs * f(k * nodes + phase)) @ vecs.T


@pytest.mark.parametrize("phase", [0.0, 2.0 * math.pi * 0.49, math.pi,
                                   2.0 * math.pi * 0.5])
def test_cached_pair_matches_direct_route(standard_scales, phase):
    dim, k = 120, standard_scales.cosine_scale_k
    assert np.max(np.abs(sq.cosine_operator(dim, k, phase)
                         - _direct(np.cos, dim, k, phase))) < 1e-12
    assert np.max(np.abs(_sine(dim, k, phase)
                         - _direct(np.sin, dim, k, phase))) < 1e-12


def test_zero_phase_is_the_cached_pair_bit_for_bit():
    c, s = _cos_sin_pair(64, 0.345)
    assert np.array_equal(sq.cosine_operator(64, 0.345), c)
    assert not c.flags.writeable and not s.flags.writeable


def test_returned_operators_do_not_alias_the_cache(standard_scales):
    def build():
        return [sq.cosine_operator(48, 0.345), sq.cosine_operator(48, 0.345, 0.7),
                _sine(48, 0.345, 0.7),
                sq.build_fock_hamiltonian(sq.standard_ring(), standard_scales, 48),
                sq.build_fock_hamiltonian(sq.standard_ring(0.49),
                                          standard_scales, 48)]

    before = build()
    for op in build():
        op += 1.0
    for old, new in zip(before, build(), strict=True):
        assert np.array_equal(old, new)


def test_displacement_reproduces_coherent_state():
    dim, alpha = 120, 0.8 + 0.6j
    d = displacement_operator(dim, alpha)
    assert np.max(np.abs(d @ d.conj().T - np.eye(dim))) < 1e-10
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    assert np.max(np.abs(d @ vac - sq.coherent_state(alpha, dim))) < 1e-10
