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
from scipy.optimize import minimize_scalar

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
    "barrier_between",
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

    def residual(self, hamiltonian):
        """max |H v - E v| over the retained pairs."""
        r = hamiltonian @ self.eigenvectors - self.eigenvectors * self.eigenvalues
        return float(np.max(np.abs(r)))


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
    """A local minimum of the dimensionless potential (oscillator frame)."""

    position: float   # dimensionless x
    energy: float     # hbar*omega


def find_potential_wells(params: SquidParams, scales: DerivedScales):
    """Locate all local minima of the potential, left to right.

    A coarse scan with spacing 1e-3 of a flux quantum brackets each minimum,
    which is then refined by 1-D minimisation.
    """
    period = scales.flux_quantum_in_x
    # local minima can only exist where the parabola slope can be balanced
    reach = scales.nu_over_omega * np.sqrt(2.0) * scales.cosine_scale_k
    span = reach + period
    step = 1e-3 * period
    grid = np.arange(-span, span + step, step)
    u = potential_energy_scaled(grid, params, scales)
    interior = np.nonzero((u[1:-1] < u[:-2]) & (u[1:-1] <= u[2:]))[0] + 1

    wells = []
    for i in interior:
        res = minimize_scalar(potential_energy_scaled, args=(params, scales),
                              bracket=(grid[i - 1], grid[i], grid[i + 1]))
        wells.append(Well(float(res.x), float(res.fun)))
    wells.sort(key=lambda w: w.position)
    return wells


def barrier_between(params, scales, x_left, x_right):
    """Maximum of the dimensionless potential between two positions."""
    xs = np.linspace(x_left, x_right, 2001)
    u = potential_energy_scaled(xs, params, scales)
    i = int(np.argmax(u))
    res = minimize_scalar(
        lambda x: -potential_energy_scaled(x, params, scales),
        bounds=(xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]),
        method="bounded",
    )
    return float(res.x), float(-res.fun)


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


def default_flux_grid(params: SquidParams, scales: DerivedScales):
    """Uniform dimensionless grid of FLUX_GRID_POINTS points with walls
    FLUX_GRID_PADDING_QUANTA flux quanta beyond the outermost potential
    well (the scan always finds the global minimum)."""
    wells = find_potential_wells(params, scales)
    pad = FLUX_GRID_PADDING_QUANTA * scales.flux_quantum_in_x
    return np.linspace(wells[0].position - pad, wells[-1].position + pad,
                       FLUX_GRID_POINTS)


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
        defaults to :func:`default_flux_grid`.
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
        grid = default_flux_grid(params, scales)
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
    for j in range(vecs.shape[1]):
        i = int(np.argmax(np.abs(vecs[:, j])))
        piv = vecs[i, j]
        vecs[:, j] *= np.conj(piv) / abs(piv)
    if np.isrealobj(h):
        vecs = vecs.real
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
