"""Ring Hamiltonian in two independent representations, plus spectra.

The production path builds the Hamiltonian in the truncated number basis,

    H/(hbar*omega) = (a†a + 1/2) - (nu/omega) * cos(k*(a + a†) + 2*pi*phi_x),

with k = cosine_scale_k.  The independent cross-check discretises the
flux-basis Hamiltonian

    H = Q^2/(2C) + (Phi - Phi_x)^2/(2L) - hbar*nu*cos(2*pi*Phi/Phi_0)

with second-order central differences on a uniform flux grid and hard-wall
boundaries.  The two spectra must agree; that agreement is what validates
the number-basis route.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import GridResolutionError, ParameterError
from .operators import cosine_operator, hermiticity_defect
from .params import CODATA2018, DerivedScales, SquidParams, derive_scales

__all__ = [
    "SpectralResult",
    "FluxSweep",
    "FluxGridHamiltonian",
    "Well",
    "potential_energy",
    "potential_energy_scaled",
    "find_potential_wells",
    "build_fock_hamiltonian",
    "build_flux_grid_hamiltonian",
    "eigensolve",
    "spectrum_sweep",
]

# default flux grid: walls this many flux quanta beyond the outer wells
FLUX_GRID_PADDING_QUANTA = 3.0
FLUX_GRID_POINTS = 500_001
# fewest flux-grid points per shortest local oscillation
MIN_POINTS_PER_OSCILLATION = 8


@dataclass
class SpectralResult:
    """Ascending eigenvalues (units hbar*omega) with orthonormal column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass
class FluxSweep:
    """Eigenvalue table over a bias-flux sweep: rows = bias values, cols = levels."""

    bias_values: np.ndarray
    levels: np.ndarray


def potential_energy(phi, params: SquidParams):
    """Ring potential U(Phi) in joule; phi in weber (scalar or array)."""
    phi = np.asarray(phi, dtype=float)
    phi_x = params.bias_flux * CODATA2018.flux_quantum
    quad = (phi - phi_x) ** 2 / (2.0 * params.inductance)
    joseph = params.josephson_energy * np.cos(
        2.0 * np.pi * phi / CODATA2018.flux_quantum
    )
    return quad - joseph


def potential_energy_scaled(x, params: SquidParams, scales: DerivedScales,
                            frame="oscillator"):
    """Dimensionless potential in units of hbar*omega at dimensionless position x.

    frame="oscillator" puts the origin at the parabola minimum (the frame of
    the number-basis Hamiltonian, where the bias enters as a cosine phase);
    frame="flux" keeps the physical flux origin, x = sqrt(C*omega/hbar)*Phi.
    """
    x = np.asarray(x, dtype=float)
    if frame == "oscillator":
        arg = np.sqrt(2.0) * scales.cosine_scale_k * x + 2.0 * np.pi * params.bias_flux
        return 0.5 * x * x - scales.nu_over_omega * np.cos(arg)
    if frame == "flux":
        phi = x / scales.x_per_weber
        return potential_energy(phi, params) / (CODATA2018.hbar * scales.omega)
    raise ParameterError(f"unknown frame {frame!r}")


@dataclass(frozen=True)
class Well:
    """A local minimum of the dimensionless potential (oscillator frame),
    an exact root of its slope (to the nearest float)."""

    position: float   # dimensionless x
    energy: float     # hbar*omega


def _sign_change_roots(f, grid):
    """(rising, falling) roots of f at its sign changes on `grid`, every
    bracket bisected at once until its ends are adjacent floats.  A zero on
    a grid point starts a rising bracket or ends a falling one: found once."""
    up = f(grid) > 0.0
    i = np.flatnonzero(up[1:] != up[:-1])
    lo, hi, rising = grid[i], grid[i + 1], up[i + 1]
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        left = (f(mid) > 0.0) == rising
        lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
        mid = 0.5 * (lo + hi)
    x = np.where(np.abs(f(lo)) <= np.abs(f(hi)), lo, hi)
    return x[rising], x[~rising]


def _critical_points(params: SquidParams, scales: DerivedScales):
    """(minima, maxima) of the dimensionless potential as left-to-right lists
    of (position, energy), alternating from a minimum to a minimum: the roots
    of U'(x) = x + nu*q*sin(q*x + 2*pi*phi_x), q = sqrt(2)*cosine_scale_k,
    bracketed at 1e-3 flux quanta over |x| <= span = nu*q + one flux quantum.
    Every root has |x| <= nu*q, and U'(-span) <= -period < period <= U'(span)
    for the flux quantum `period`, so a minimum always exists."""
    q = np.sqrt(2.0) * scales.cosine_scale_k
    reach, phase = scales.nu_over_omega * q, 2.0 * np.pi * params.bias_flux
    span, step = reach + scales.flux_quantum_in_x, 1e-3 * scales.flux_quantum_in_x
    roots = _sign_change_roots(lambda x: x + reach * np.sin(q * x + phase),
                               np.arange(-span, span + step, step))
    return tuple([(float(x), float(potential_energy_scaled(x, params, scales)))
                  for x in xs] for xs in roots)


def find_potential_wells(params: SquidParams, scales: DerivedScales):
    """All local minima of the potential, left to right (see `_critical_points`)."""
    return [Well(*m) for m in _critical_points(params, scales)[0]]


def build_fock_hamiltonian(params: SquidParams, scales: DerivedScales, dim):
    """Number-basis Hamiltonian in units of hbar*omega (real symmetric)."""
    h = np.diag(np.arange(dim) + 0.5)
    cos = cosine_operator(dim, scales.cosine_scale_k,
                          2.0 * np.pi * params.bias_flux)
    return h - scales.nu_over_omega * cos


@dataclass
class FluxGridHamiltonian:
    """Central-difference discretisation of the flux-basis Hamiltonian.

    Stored as the tridiagonal (diagonal, off_diagonal) in units of
    hbar*omega on a uniform dimensionless grid, with hard walls beyond
    the grid ends.
    """

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def solve_values(self, count):
        """Lowest `count` eigenvalues in units of hbar*omega."""
        return eigh_tridiagonal(
            self.diagonal, self.off_diagonal,
            select="i", select_range=(0, count - 1), eigvals_only=True,
        )


def _uniform_grid(grid, name):
    """`grid` as a float array; ParameterError below 2 points and
    GridResolutionError unless its steps are equal and positive."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ParameterError(f"{name} grid must be a 1-D array with >= 2 points")
    step = grid[1] - grid[0]
    if step <= 0.0 or not np.allclose(np.diff(grid), step, rtol=1e-9, atol=0.0):
        raise GridResolutionError(f"{name} grid must be uniform and increasing")
    return grid


def build_flux_grid_hamiltonian(params: SquidParams, grid=None,
                                scales: DerivedScales = None,
                                frame="oscillator"):
    """Independent finite-difference Hamiltonian on a uniform position grid.

    Parameters
    ----------
    grid : ndarray, optional
        Uniform increasing dimensionless positions, at least two;
        defaults to FLUX_GRID_POINTS points with walls
        FLUX_GRID_PADDING_QUANTA flux quanta beyond the outermost wells.
    frame : str
        "oscillator" (parabola at the origin, bias inside the cosine) or
        "flux" (physical flux coordinate); the two are related by a unitary
        translation and must share a spectrum.

    Raises GridResolutionError when the spacing undersamples the shortest
    local de Broglie oscillation supported by the potential range on the grid.
    """
    if scales is None:
        scales = derive_scales(params)
    if grid is None:
        wells = find_potential_wells(params, scales)
        pad = FLUX_GRID_PADDING_QUANTA * scales.flux_quantum_in_x
        grid = np.linspace(wells[0].position - pad, wells[-1].position + pad,
                           FLUX_GRID_POINTS)
    grid = _uniform_grid(grid, "flux")
    dx = grid[1] - grid[0]

    u = potential_energy_scaled(grid, params, scales, frame=frame)
    p_max = np.sqrt(2.0 * max(float(u.max() - u.min()), 1.0))
    if dx > 2.0 * np.pi / p_max / MIN_POINTS_PER_OSCILLATION:
        raise GridResolutionError(
            f"grid spacing {dx:.3g} exceeds 1/{MIN_POINTS_PER_OSCILLATION} of the "
            f"shortest local oscillation {2.0 * np.pi / p_max:.3g}"
        )

    kin = 1.0 / (2.0 * dx * dx)
    diagonal = u + 2.0 * kin
    off_diagonal = np.full(len(grid) - 1, -kin)
    return FluxGridHamiltonian(diagonal, off_diagonal)


def eigensolve(hamiltonian, count=None):
    """Dense Hermitian eigensolver with a deterministic phase convention.

    The returned eigenvectors are orthonormal columns, each rotated so that
    its largest-magnitude component is real and positive.
    """
    h = np.asarray(hamiltonian)
    scale = float(np.max(np.abs(h))) or 1.0
    if hermiticity_defect(h) > 1e-12 * scale:
        raise ParameterError("eigensolve requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(h)
    if count is not None:
        vals = vals[:count]
        vecs = vecs[:, :count]
    piv = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    vecs *= np.conj(piv) / np.abs(piv)
    return SpectralResult(vals, vecs)


def spectrum_sweep(params: SquidParams, start, stop, step, levels=10, *, dim):
    """Eigenvalues of the number-basis Hamiltonian over a bias-flux range."""
    if not step > 0.0:
        raise ParameterError(f"sweep step must be > 0, got {step}")
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    bias = start + step * np.arange(n)
    scales = derive_scales(params)

    def solve(phi):
        h = build_fock_hamiltonian(params.with_bias(phi), scales, dim)
        return np.linalg.eigvalsh(h)[:levels]

    return FluxSweep(bias, np.array([solve(phi) for phi in bias]))
