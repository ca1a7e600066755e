"""Construction and classification of ring states.

States are complex amplitude vectors in the truncated number basis, unit
norm.  Position-space evaluation goes through the normalised oscillator
eigenfunctions, generated by the stable three-term recurrence (factorial
formulas overflow long before n = 400).
"""

import operator
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DegeneracyError, ParameterError, TruncationError
from .hamiltonian import SpectralResult, Well, _critical_points, find_potential_wells
from .operators import _check_dim

__all__ = [
    "hermite_functions",
    "position_wavefunction",
    "coherent_state",
    "fock_state",
    "phase_superposition",
    "parity_pair",
    "WellLabel",
    "WellClassification",
    "classify_well_states",
]

# tunnelling-doublet thresholds of classify_well_states
PAIR_GAP_RATIO = 0.5
MIXING_FLOOR = 0.05


def hermite_functions(n_max, x):
    """Normalised oscillator eigenfunctions phi_0..phi_n_max at points x.

    Returns an array of shape (len(x), n_max + 1); column n satisfies
    integral(phi_n^2) = 1 with phi_0(x) = pi**-0.25 * exp(-x^2/2).  The
    table is filled one contiguous row per n and returned as its transpose,
    a column-major view.  Negating x is exact in every step of the
    recurrence, so phi_n(-x) == (-1)**n * phi_n(x) bit for bit.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, x.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(2, n_max + 1):
        out[n] = (np.sqrt(2.0 / n) * x * out[n - 1]
                  - np.sqrt((n - 1) / n) * out[n - 2])
    return out.T


def _as_state(psi):
    """psi as a flat complex vector of unit norm; rejects zero or non-finite."""
    psi = np.asarray(psi, dtype=complex).ravel()
    _check_finite(psi)
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ParameterError("zero state vector")
    return psi / norm


def _check_finite(psi):
    if not np.isfinite(psi).all():
        raise ParameterError("state amplitudes must be finite")


def position_wavefunction(psi, x):
    """Evaluate psi(x) = sum_n c_n phi_n(x) on a grid of dimensionless positions.

    psi is one amplitude vector, giving shape (len(x),), or a (dim, k)
    matrix of k states, giving shape (len(x), k) from one table of basis
    functions.  Raises ParameterError for a non-finite amplitude.  Warns
    when the grid reaches beyond the classical turning point of the highest
    basis state, where the truncated basis cannot represent anything.
    """
    psi = np.asarray(psi, dtype=complex)
    columns = psi if psi.ndim == 2 else psi.reshape(-1, 1)
    _check_finite(columns)
    x = np.asarray(x, dtype=float)
    dim = columns.shape[0]
    support = np.sqrt(2.0 * (dim - 1) + 1.0)
    if np.max(np.abs(x)) > support:
        warnings.warn(
            f"grid reaches |x| = {np.max(np.abs(x)):.3g}, beyond the "
            f"truncation-supported region |x| <= {support:.3g}",
            stacklevel=2)
    # one product per column rounds exactly as a single-state product does;
    # a single matrix product would not
    table = hermite_functions(dim - 1, x)
    out = np.empty((table.shape[0], columns.shape[1]), dtype=complex)
    for k in range(columns.shape[1]):
        out[:, k] = _split_matmul(table, columns[:, k])
    return out if psi.ndim == 2 else out[:, 0]


def _split_matmul(a, b):
    """a @ b when at most one operand is complex, from real products only:
    the complex operand is split into its real and imaginary parts, so the
    real one (a Hermite table, say) is never cast to complex.  A complex
    operand whose imaginary part is zero gives a real result from one
    product."""
    if np.iscomplexobj(a) and np.any(a.imag):
        return a.real @ b + 1j * (a.imag @ b)
    if np.iscomplexobj(b) and np.any(b.imag):
        return a @ b.real + 1j * (a @ b.imag)
    return a.real @ b.real


@dataclass(frozen=True)
class MixedState:
    """Density matrix held as weighted pure states,
    rho = sum_k weights[k] |vectors[:, k]><vectors[:, k]|.

    vectors is (dim, rank) in the number basis; dense() builds the
    Hermitised dim x dim matrix.
    """

    weights: np.ndarray
    vectors: np.ndarray

    def dense(self):
        rho = (self.vectors * self.weights) @ self.vectors.conj().T
        return 0.5 * (rho + rho.conj().T)


def fock_state(n, dim):
    """Number state |n> as an amplitude vector; n must be an integer."""
    dim = _check_dim(dim)
    try:
        n = operator.index(n)
    except TypeError:
        raise ParameterError(
            f"number state index must be an integer, got {n!r}") from None
    if not 0 <= n < dim:
        raise ParameterError(f"need 0 <= n < dim, got n={n}, dim={dim}")
    psi = np.zeros(dim, dtype=complex)
    psi[n] = 1.0
    return psi


def coherent_state(alpha, dim):
    """Coherent state amplitudes c_n = exp(-|a|^2/2) a^n / sqrt(n!), renormalised.

    Requires |alpha|^2 <= dim/4 so the Poisson tail is safely inside the
    truncation; raises TruncationError otherwise, and ParameterError for a
    non-finite alpha or a basis size that is not an integer >= 2.
    """
    dim = _check_dim(dim)
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise ParameterError(f"coherent amplitude must be finite, got {alpha!r}")
    if abs(alpha) ** 2 > dim / 4.0:
        raise TruncationError(
            f"|alpha|^2 = {abs(alpha)**2:.3g} exceeds dim/4 = {dim / 4.0:.3g}")
    n = np.arange(dim)
    if alpha == 0.0:
        return fock_state(0, dim)
    log_mag = -0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1.0)
    psi = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))
    return psi / np.linalg.norm(psi)


def phase_superposition(psi1, psi2, theta):
    """(psi1 + exp(i*theta) * psi2) / norm for two non-parallel states."""
    psi1 = _as_state(psi1)
    psi2 = _as_state(psi2)
    if abs(np.vdot(psi1, psi2)) > 1.0 - 1e-10:
        raise DegeneracyError("superposition inputs are parallel")
    out = psi1 + np.exp(1j * theta) * psi2
    return out / np.linalg.norm(out)


def parity_pair(spectral: SpectralResult, params, scales, indices=(0, 1)):
    """Symmetric/antisymmetric pair from two near-degenerate eigenstates.

    Returns (s, a) where s is the even-parity member.  Both signs are fixed
    by requiring a positive wavefunction value at the left well, so that
    (s + a)/sqrt(2) localises in the left well; a real value there (as for
    the real ring Hamiltonian's eigenvectors) gives a factor of exactly +-1.
    """
    wells = find_potential_wells(params, scales)
    if len(wells) < 2:
        raise ParameterError("parity pair needs a potential with >= 2 wells")
    x_left = wells[0].position
    dim = spectral.eigenvectors.shape[0]
    par = (-1.0) ** np.arange(dim)

    states = []
    for idx in indices:
        v = spectral.eigenvectors[:, idx].astype(complex)
        states.append((float(np.real(np.vdot(v, par * v))), v))
    states.sort(key=lambda t: -t[0])  # even parity first
    even, odd = states[0][1], states[1][1]
    if not (states[0][0] > 0.5 and states[1][0] < -0.5):
        raise DegeneracyError(
            "selected eigenstates are not parity eigenstates; "
            f"<P> = {states[0][0]:.3f}, {states[1][0]:.3f}")

    for v in (even, odd):
        val = position_wavefunction(v, np.array([x_left]))[0]
        if abs(val) < 1e-12:
            raise DegeneracyError("pair member vanishes at the well centre")
        v *= np.sign(val.real) if val.imag == 0.0 else np.conj(val) / abs(val)
    return even, odd


@dataclass(frozen=True)
class WellLabel:
    """Classification of one eigenstate against the potential wells.

    kind is "localized" (bound in a single well), "pair" (member of a
    near-degenerate delocalised doublet) or "delocalized" (above every
    barrier).  For pair members, role is "s" or "a" and partner is the
    index of the other member; ordinals maps well index -> level ordinal
    occupied by this state in that well.
    """

    state_index: int
    kind: str
    mean_x: float
    energy: float
    well_index: int = -1
    level_ordinal: int = -1
    role: str = ""
    partner: int = -1
    ordinals: tuple = ()


@dataclass
class WellClassification:
    wells: list
    barriers: list          # (position, energy) between adjacent wells
    labels: list

    def pairs(self):
        return [l for l in self.labels if l.kind == "pair"]


def classify_well_states(spectral: SpectralResult, params, scales):
    """Assign (well, level ordinal) labels to eigenstates below the barriers.

    Two adjacent states form a tunnelling doublet when their gap is small
    against the bracketing level spacings (ratio PAIR_GAP_RATIO) and both
    carry more than MIXING_FLOOR of their probability mass in each of two
    wells, read from one (level x well) table of the mass fraction between
    the barriers on either side of each well; the doublet joins the two
    wells where the lesser of its members' masses is largest, which need
    not share a barrier.  That detects s/a pairs at exact resonance and
    partially mixed doublets between wells of unequal depth alike.  Pair
    roles come from the reflection symmetry about the midpoint of the two
    wells, falling back to energy order (the bonding, symmetric member lies
    lower) when the well shapes differ.  Other states below the barrier top
    belong to the well nearest their mean position; states above every
    barrier are labelled "delocalized".  Wells and barriers, one between
    adjacent wells, are the roots of the potential's slope.
    """
    minima, barriers = _critical_points(params, scales)
    wells = [Well(*m) for m in minima]
    top = max((b[1] for b in barriers), default=-np.inf)

    vecs, energies = spectral.eigenvectors, spectral.eigenvalues
    dim = vecs.shape[0]
    # <x> = sqrt(2) Re sum_n sqrt(n) c*_{n-1} c_n of every column at once
    means = (np.sqrt(2.0) * np.sum(np.sqrt(np.arange(1.0, dim))[:, None]
                                   * vecs[:-1].conj() * vecs[1:], axis=0).real).tolist()

    # only levels below the barrier top, a prefix of the ascending
    # spectrum, can form a doublet
    count = int(np.count_nonzero(energies < top))
    reach = np.sqrt(2.0 * (dim - 1) + 1.0)
    grid = np.linspace(-reach, reach, 3001)
    density = np.abs(position_wavefunction(vecs[:, :count], grid)) ** 2
    # a well's mass is the running sum's rise between its two barriers
    run = np.vstack([np.zeros(count), np.cumsum(density, axis=0)])
    edges = [0, *np.searchsorted(grid, [x_b for x_b, _ in barriers]), -1]
    mass = (np.diff(run[edges], axis=0) / run[-1]).T
    # row j: the lesser mass of levels j and j + 1 in each well, the two
    # wells where it is largest, and the lesser of those two
    shared = np.minimum(mass[:-1], mass[1:])
    joined = np.sort(np.argsort(shared, axis=1)[:, -2:], axis=1)
    mixing = np.take_along_axis(shared, joined, axis=1).min(axis=1)
    gaps = np.diff(energies)

    counters = [0] * len(wells)
    labels = []
    j = 0
    while j < count:
        spacing = max([*gaps[j - 1:j], *gaps[j + 1:j + 2]], default=-np.inf)
        if (j + 1 < count and gaps[j] < PAIR_GAP_RATIO * spacing
                and mixing[j] > MIXING_FLOOR):
            a, b = joined[j].tolist()
            midpoint = 0.5 * (wells[a].position + wells[b].position)
            roles = _pair_roles(spectral, (j, j + 1), midpoint)
            ordinals = ((a, counters[a]), (b, counters[b]))
            labels += [WellLabel(idx, "pair", means[idx], float(energies[idx]),
                                 role=role, partner=2 * j + 1 - idx,
                                 ordinals=ordinals)
                       for idx, role in zip((j, j + 1), roles)]
            counters[a] += 1
            counters[b] += 1
            j += 2
        else:
            w = int(np.argmin([abs(means[j] - well.position)
                               for well in wells]))
            labels.append(WellLabel(j, "localized", means[j], float(energies[j]),
                                    well_index=w, level_ordinal=counters[w]))
            counters[w] += 1
            j += 1
    labels += [WellLabel(k, "delocalized", means[k], float(energies[k]))
               for k in range(count, len(energies))]
    return WellClassification(wells, barriers, labels)


def _pair_roles(spectral, indices, midpoint):
    """("s", "a") or ("a", "s") by reflection symmetry about `midpoint`.

    When the two well components have different local shapes the reflection
    overlap loses contrast; energy order then decides (the symmetric,
    bonding member of an adjacent doublet lies lower in one dimension).
    The sampled window stays inside the truncation-supported region.
    """
    dim = spectral.eigenvectors.shape[0]
    support = np.sqrt(2.0 * (dim - 1) + 1.0)
    half = min(support / np.sqrt(2.0), support - abs(midpoint))
    # linspace may overshoot its end by one ulp
    x = np.clip(np.linspace(midpoint - half, midpoint + half, 2048),
                -support, support)
    dx = x[1] - x[0]
    psi = position_wavefunction(spectral.eigenvectors[:, list(indices)], x)
    overlaps = [float(np.sum(np.conj(col[::-1]) * col).real * dx)
                for col in psi.T]
    if min(abs(o) for o in overlaps) > 0.1 and overlaps[0] * overlaps[1] < 0.0:
        return tuple("s" if o > 0.0 else "a" for o in overlaps)
    lower_first = spectral.eigenvalues[indices[0]] <= spectral.eigenvalues[indices[1]]
    return ("s", "a") if lower_first else ("a", "s")
