"""Wigner and Weyl quasiprobability fields on rectangular grids.

Both fields are computed from their defining integrals,

    W(x, p)  = (1/2pi) * integral dz <x + z/2| rho |x - z/2> exp(-i z p)
    Wt(X, P) = (1/2pi) * integral dz <z + X/2| rho |z - X/2> exp(-i z P),

through one chord transform: with the number parity Pi = (-1)^n,
Wt(X, P) = W_{rho Pi}(X/2, P/2) / 2 (Royer 1977), so both fields share one
sampling lattice.  The density kernel is expanded over the eigenstates of
rho and the oscillator eigenfunctions are evaluated on an auxiliary lattice
chosen so that every required point x +- z/2 lands exactly on it, with
real products of the real Hermite table.  The z step is a power-of-two
subdivision of the grid step, fine enough to sample the fastest
exp(-i z p) oscillation at the grid edge at least eight times per period.
Only the half z >= 0 of the symmetric z range is gathered and summed
against real cos(z p) and sin(z p) matrices: for the Hermitian rho the
kernel at -z is the conjugate of the kernel at z, so the Wigner sum is
real by construction; for the non-Hermitian rho Pi the kernel at -z is
gathered as a second half.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridResolutionError, ParameterError
from .hamiltonian import _uniform_grid
from .operators import hermiticity_defect
from .states import MixedState, _as_state, _split_matmul, hermite_functions

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
    imag_residual is the largest imaginary part dropped to make values
    real; both kernels leave none, so it is 0.0.  marginal_error, set on
    Wigner fields only, is the largest deviation of the trapezoid
    p-marginal from the exact position density <x_i|rho|x_i>.
    """

    kind: str
    x: np.ndarray
    p: np.ndarray
    values: np.ndarray
    imag_residual: float = 0.0
    marginal_error: float | None = None
    dx: float = dataclass_field(init=False)
    dp: float = dataclass_field(init=False)

    def __post_init__(self):
        self.dx = float(self.x[1] - self.x[0])
        self.dp = float(self.p[1] - self.p[0])


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


def _chord_transform(weights, left, right, x, p, reach):
    """(1/2pi) sum_j <x_i + z_j/2| A |x_i - z_j/2> exp(-i z_j p) dz on the
    (x, p) grid for A = sum_k weights[k] |left[:, k]><right[:, k]|.

    z_j = j * dz for |j| <= c covers |z| <= 2 (reach + TAIL_PAD) with
    dz = dx / 2**m for the smallest m >= 0 that samples the fastest
    exp(-i z p) oscillation at least eight times per period.  Every
    x_i +- z_j/2 then sits on one lattice of step dz/2 anchored at x[0],
    whose single Hermite table gives both factors through real products.
    Only the half z >= 0 is gathered: with K+(x, z) = sum_k w_k
    l_k(x + z/2) conj r_k(x - z/2) and K-(x, z) the same with the signs of
    z/2 swapped, the sum is (K+ + K-) @ cos(z p) - i (K+ - K-) @ sin(z p),
    the z = 0 column halved in the even part.  Pass right=left for a
    Hermitian A: then K- = conj K+, so only K+ is gathered and the result
    2 (Re K+ @ cos + Im K+ @ sin) is real by construction.  Row i of
    either factor is a length-(c + 1) window of lattice values starting at
    i * 2**(m + 1), read as a strided view (reversed for x_i - z_j/2), so
    no gather is built.

    Returns the values and the z = 0 kernel column, the exact diagonal
    <x_i|A|x_i> = sum_k weights[k] left[x_i, k] conj right[x_i, k].
    """
    dx = float(x[1] - x[0])
    # kernel oscillations (state momentum content) add to the transform phase
    target = np.pi / (4.0 * (np.max(np.abs(p)) + reach))
    m = 0
    while dx / 2.0 ** m > target:
        m += 1
    dz = dx / 2.0 ** m
    c = int(np.ceil(2.0 * (reach + TAIL_PAD) / dz))

    stride = 2 ** (m + 1)
    size = (len(x) - 1) * stride + 2 * c + 1
    lattice = x[0] + (np.arange(size) - c) * (dz / 2.0)
    table = hermite_functions(left.shape[0] - 1, lattice)
    psi_l = _split_matmul(table, left)
    psi_r = psi_l if right is left else _split_matmul(table, right)
    del table

    def half_kernel(u_vals, v_vals):
        """sum_k w_k u_k(x + z/2) conj v_k(x - z/2) for z >= 0."""
        kernel = np.zeros((len(x), c + 1), np.result_type(u_vals, v_vals))
        for k in range(len(weights)):
            u = sliding_window_view(u_vals[c:, k], c + 1)[::stride]
            v = sliding_window_view(v_vals[:size - c, k], c + 1)[::stride, ::-1]
            kernel += weights[k] * u * np.conj(v)
        return kernel

    zp = np.outer(np.arange(c + 1) * dz, p)
    cos, sin = np.cos(zp), np.sin(zp)
    del zp
    if right is left:
        kernel = half_kernel(psi_l, psi_l)
        diagonal = kernel[:, 0].real.copy()
        kernel[:, 0] *= 0.5
        values = kernel.real @ cos
        if np.iscomplexobj(kernel):
            values += kernel.imag @ sin
        values *= 2.0
    else:
        plus = half_kernel(psi_l, psi_r)
        minus = np.conj(half_kernel(psi_r, psi_l))
        diagonal = plus[:, 0]
        even, odd = plus + minus, plus - minus
        even[:, 0] *= 0.5
        values = _split_matmul(even, cos) - 1j * _split_matmul(odd, sin)
    return values * (dz / (2.0 * np.pi)), diagonal


def wigner_function(state, x, p):
    """Wigner function of a pure state, density matrix or MixedState on an
    (x, p) grid.

    Returns a real-valued PhaseSpaceField: the half-range sum is real by
    construction, so its imag_residual is 0.0.  Its marginal_error compares
    the trapezoid p-marginal with the exact density <x_i|rho|x_i>, the
    z = 0 column of the chord kernel.
    Raises GridResolutionError when the grid fails to cover the populated
    phase-space region.
    """
    x = _uniform_grid(x, "x")
    p = _uniform_grid(p, "p")
    weights, vectors = _state_weights(state)
    reach = _support_reach(weights, vectors)
    _check_cover(x, reach, "x")
    _check_cover(p, reach, "p")
    values, density = _chord_transform(weights, vectors, vectors, x, p, reach)
    field = PhaseSpaceField("wigner", x, p, values)
    field.marginal_error = float(np.max(np.abs(_x_marginal(field) - density)))
    return field


def weyl_function(state, x, p):
    """Weyl (displacement autocorrelation) function of a pure state, density
    matrix or MixedState on an (X, P) grid.

    The returned field is complex; its value at the origin equals
    trace(rho)/(2*pi).  It is half the Wigner transform of rho times the
    number parity (-1)^n at half the arguments (Royer 1977),
    Wt(X, P) = W_{rho Pi}(X/2, P/2) / 2, so it shares the Wigner lattice.
    """
    x = _uniform_grid(x, "X")
    p = _uniform_grid(p, "P")
    weights, vectors = _state_weights(state)
    parity = (-1.0) ** np.arange(vectors.shape[0])
    values, _ = _chord_transform(weights, vectors, parity[:, None] * vectors,
                                 x / 2.0, p / 2.0,
                                 _support_reach(weights, vectors))
    return PhaseSpaceField("weyl", x, p, 0.5 * values)


def _trapezoid_weights(n):
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _x_marginal(field):
    """Trapezoid p-integral of the field at each x."""
    return (field.values * _trapezoid_weights(len(field.p))[None, :]).sum(
        axis=1) * field.dp


@dataclass
class PhaseSpaceDiagnostics:
    normalization: float
    x_marginal: np.ndarray
    negativity_volume: float
    fringe_amplitude: float | None
    purity_estimate: float


def phase_space_diagnostics(field: PhaseSpaceField):
    """Normalisation, x-marginal, negativity volume, interference fringe
    amplitude and the purity estimate 2*pi*integral(W^2) of a Wigner field.

    The fringe amplitude is the largest |W| inside the central half of the
    band between the two dominant density lobes; it is None when the
    x-marginal has a single lobe.
    """
    if field.kind != "wigner":
        raise ParameterError(
            f"diagnostics require a wigner field, got kind={field.kind!r}")
    w_x = _trapezoid_weights(len(field.x))
    w_p = _trapezoid_weights(len(field.p))
    weighted = field.values * w_x[:, None] * w_p[None, :]
    area = field.dx * field.dp
    normalization = float(weighted.sum() * area)
    x_marginal = _x_marginal(field)
    negativity = float(
        (np.maximum(-field.values, 0.0) * w_x[:, None] * w_p[None, :]).sum() * area)
    purity_estimate = float(
        2.0 * np.pi * (field.values ** 2 * w_x[:, None] * w_p[None, :]).sum() * area)

    fringe = _fringe_amplitude(field, x_marginal)
    return PhaseSpaceDiagnostics(normalization, x_marginal, negativity,
                                 fringe, purity_estimate)


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
