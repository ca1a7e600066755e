"""Operator algebra in the truncated number basis.

All operators are plain dense ndarrays of shape (dim, dim).  The ladder
operators are real; the cosine operator is built by spectral decomposition
of a + a_dagger, which is exact on the truncated space and stays bounded
even where a Taylor expansion of the cosine would be useless.  That
decomposition is bias independent, so it is done once per (dim, k) and a
phase offset costs two scaled matrix additions.
"""

import functools
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm

from .errors import ParameterError

__all__ = [
    "annihilation",
    "ladder_operators",
    "quadrature_operators",
    "cosine_operator",
    "hermiticity_defect",
]

# (dim, k) pairs of cos/sin(k(a+a†)) kept; each holds 2*dim^2 doubles
# (2.4 MiB at dim 400)
COS_SIN_CACHE_SIZE = 8


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


@functools.lru_cache(maxsize=COS_SIN_CACHE_SIZE)
def _cos_sin_pair(dim, k):
    """Read-only (cos(k(a+a†)), sin(k(a+a†))), built once per (dim, k)."""
    nodes, vecs = _sum_quadrature_eigensystem(dim)
    pair = []
    for f in (np.cos, np.sin):
        op = (vecs * f(k * nodes)) @ vecs.T
        op = 0.5 * (op + op.T)
        op.flags.writeable = False
        pair.append(op)
    return tuple(pair)


def cosine_operator(dim, k, phase=0.0):
    """cos(k*(a + a†) + phase), exact on the truncated space.

    Parameters
    ----------
    dim : int
        Basis size, >= 2.
    k : float
        Scale multiplying a + a†; must be finite and >= 0.
    phase : float
        Constant offset inside the cosine, in radians; must be finite.

    cos(k(a+a†)) and sin(k(a+a†)) are computed once per (dim, k) by
    diagonalising a + a†, applying the function to its eigenvalues and
    rotating back, so every eigenvalue lies in [-1, 1] regardless of k.
    The phase then enters through cos(kX + phase) = cos(phase) cos(kX) -
    sin(phase) sin(kX); at phase 0 the result equals cos(kX) bit for bit.
    Returns a new array on every call.
    """
    dim = _check_dim(dim)
    if not 0.0 <= k < math.inf:
        raise ParameterError(f"operator scale must be finite and >= 0, got {k}")
    if not math.isfinite(phase):
        raise ParameterError(f"operator phase must be finite, got {phase}")
    c, s = _cos_sin_pair(dim, float(k))
    return math.cos(phase) * c - math.sin(phase) * s


def displacement_operator(dim, alpha):
    """exp(alpha*a† - conj(alpha)*a) as a dense unitary."""
    a, adag = ladder_operators(dim)
    return expm(alpha * adag - np.conj(alpha) * a)


def hermiticity_defect(op):
    """max |A - A†|, useful for asserting Hermiticity tolerances."""
    return float(np.max(np.abs(op - op.conj().T)))
