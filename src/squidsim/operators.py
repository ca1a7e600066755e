"""Operator algebra in the truncated number basis.

All operators are plain dense ndarrays of shape (dim, dim).  Ladder and
quadrature operators are real; the cosine operator is built by spectral
decomposition of a + a_dagger, which is exact on the truncated space and
stays bounded even where a Taylor expansion of the cosine would be useless.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm

from .errors import ParameterError

__all__ = [
    "annihilation",
    "ladder_operators",
    "number_operator",
    "quadrature_operators",
    "cosine_operator",
    "sine_operator",
    "hermiticity_defect",
]


def _check_dim(dim):
    if int(dim) != dim or dim < 2:
        raise ParameterError(f"basis size must be an integer >= 2, got {dim!r}")
    return int(dim)


def annihilation(dim):
    """Annihilation operator: a[n-1, n] = sqrt(n)."""
    dim = _check_dim(dim)
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def ladder_operators(dim):
    """Return (annihilation, creation)."""
    a = annihilation(dim)
    return a, a.T.copy()


def number_operator(dim):
    dim = _check_dim(dim)
    return np.diag(np.arange(dim, dtype=float))


def quadrature_operators(dim):
    """Dimensionless position and momentum, x = (a+a†)/sqrt(2), p = (a-a†)/(i sqrt(2)).

    Both are Hermitian; on the subspace below the truncation edge their
    commutator is i times the identity.
    """
    a = annihilation(dim)
    x = (a + a.T) / np.sqrt(2.0)
    p = (a - a.T) / (1j * np.sqrt(2.0))
    return x, p


def parity_operator(dim):
    """Number parity (-1)**n as a diagonal matrix."""
    dim = _check_dim(dim)
    return np.diag((-1.0) ** np.arange(dim))


def _sum_quadrature_eigensystem(dim):
    # a + a† is a real symmetric tridiagonal matrix with zero diagonal.
    off = np.sqrt(np.arange(1.0, dim))
    return eigh_tridiagonal(np.zeros(dim), off)


def cosine_operator(dim, k, phase=0.0):
    """cos(k*(a + a†) + phase), exact on the truncated space.

    Parameters
    ----------
    dim : int
        Basis size, >= 2.
    k : float
        Scale multiplying a + a†; must be >= 0.
    phase : float
        Constant offset inside the cosine, in radians.

    The operator is computed by diagonalising a + a†, applying the cosine to
    its eigenvalues and rotating back, so every eigenvalue of the result
    lies in [-1, 1] regardless of k.
    """
    dim = _check_dim(dim)
    if k < 0.0:
        raise ParameterError(f"cosine scale must be >= 0, got {k}")
    nodes, vecs = _sum_quadrature_eigensystem(dim)
    op = (vecs * np.cos(k * nodes + phase)) @ vecs.T
    return 0.5 * (op + op.T)


def sine_operator(dim, k, phase=0.0):
    """sin(k*(a + a†) + phase) via the same spectral route as the cosine."""
    dim = _check_dim(dim)
    if k < 0.0:
        raise ParameterError(f"sine scale must be >= 0, got {k}")
    nodes, vecs = _sum_quadrature_eigensystem(dim)
    op = (vecs * np.sin(k * nodes + phase)) @ vecs.T
    return 0.5 * (op + op.T)


def displacement_operator(dim, alpha):
    """exp(alpha*a† - conj(alpha)*a) as a dense unitary."""
    a, adag = ladder_operators(dim)
    return expm(alpha * adag - np.conj(alpha) * a)


def hermiticity_defect(op):
    """max |A - A†|, useful for asserting Hermiticity tolerances."""
    return float(np.max(np.abs(op - op.conj().T)))
