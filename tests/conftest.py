from types import SimpleNamespace

import numpy as np
import pytest

import squidsim as sq
from squidsim import BathParams, CODATA2018


@pytest.fixture(scope="session")
def standard_scales():
    return sq.derive_scales(sq.standard_ring())


@pytest.fixture(scope="session")
def spectral_049():
    """Eigensystem of the standard ring at the detuned double-well bias."""
    ring = sq.standard_ring(0.49)
    scales = sq.derive_scales(ring)
    h = sq.build_fock_hamiltonian(ring, scales, 400)
    return ring, scales, h, sq.eigensolve(h)


@pytest.fixture(scope="session")
def spectral_05():
    """Eigensystem of the standard ring at the symmetric double-well bias."""
    ring = sq.standard_ring(0.5)
    scales = sq.derive_scales(ring)
    h = sq.build_fock_hamiltonian(ring, scales, 400)
    return ring, scales, h, sq.eigensolve(h)


@pytest.fixture(scope="session")
def thermalization_run():
    """(bath, trajectory) of the coherent state alpha = i on the E_J = 0
    ring, dim 32, relaxing to a T = 1 K bath at g = 0.05 until tau = 200."""
    ring = sq.SquidParams(5e-15, 3e-10, 0.0)
    scales = sq.derive_scales(ring)
    h = sq.build_fock_hamiltonian(ring, scales, 32)
    psi = sq.coherent_state(1j, 32)
    bath = BathParams(temperature=1.0, damping=0.05).resolved(scales)
    return bath, sq.propagate(np.outer(psi, psi.conj()), h, bath, dtau=0.005,
                              tau_max=200.0, record_stride=100)


@pytest.fixture(scope="session")
def quadratures_400():
    x, p = sq.quadrature_operators(400)
    return x, p


def expectation(op, psi):
    return complex(np.vdot(psi, op @ psi))


def moments(state):
    """Trace, purity and quadrature moments of a state vector or density
    matrix, taken with the dense quadrature operators x and p."""
    state = np.asarray(state, dtype=complex)
    rho = np.outer(state, state.conj()) if state.ndim == 1 else state
    x, p = sq.quadrature_operators(len(rho))

    def mean(op):
        return float(np.sum(op * rho.T).real)     # tr(op rho)

    mean_x, mean_p = mean(x), mean(p)
    return SimpleNamespace(
        trace=float(np.trace(rho).real),
        purity=float(np.sum(np.abs(rho) ** 2)),
        mean_x=mean_x, mean_p=mean_p,
        var_x=mean(x @ x) - mean_x**2, var_p=mean(p @ p) - mean_p**2,
        occupation=float(np.arange(len(rho)) @ np.diagonal(rho).real))


def critical_current(params):
    """Junction critical current Ic = 2 e nu in ampere."""
    return 2.0 * CODATA2018.electron_charge * params.josephson_energy / CODATA2018.hbar
