"""Open-system dynamics: thermal-bath master equation and trajectories.

Everything is dimensionless: the Hamiltonian in units of hbar*omega, time
as tau = omega*t, and the damping g = gamma/(hbar*omega).  The master
equation for a monochromatic bath with mean occupation M reads

    drho/dtau = -i [H, rho]
                + (g/2) (M+1) (2 a rho a† - a†a rho - rho a†a)
                + (g/2) M     (2 a† rho a - a a† rho - rho a a†),

integrated with fixed-step classical fourth-order Runge-Kutta so that
trajectories are bit-reproducible.  The propagator works on the lowest K
energy eigenstates V_K of H: the commutator becomes (E_i - E_j) rho_ij and
the dissipator uses Ã = V_K† a V_K, with the products Ã†Ã and ÃÆ in the
anticommutators so that trace stays exactly conserved.  This truncates the
same equation (at K = dim it is the number-basis one, rotated); it is not a
secular approximation.  K is the smallest level count whose predicted leak,
the initial population above K plus a bound on what the jumps send there
over the run, is at most LEAK_TOLERANCE.  Renormalisation only absorbs
roundoff: an unstable step or a larger trace correction raises.
"""

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError, PositivityWarning, StepSizeError
from .params import CODATA2018
from .states import MixedState

__all__ = [
    "BathParams", "Trajectory", "bath_occupation", "lindblad_generator",
    "propagate",
]

# largest predicted population the eigenbasis truncation may drop
LEAK_TOLERANCE = 1e-20
# RK4 is stable on the imaginary axis up to |z| = 2*sqrt(2)
RK4_STABILITY_BOUND = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class BathParams:
    """Monochromatic thermal bath: temperature (K), frequency (rad/s) and
    dimensionless damping rate g in units of the ring frequency.

    frequency=None means "equal to the ring frequency" and is resolved by
    the propagator.
    """

    temperature: float
    damping: float
    frequency: float | None = None

    def __post_init__(self):
        if not self.temperature >= 0.0:
            raise ParameterError(f"temperature must be >= 0, got {self.temperature}")
        if not self.damping >= 0.0:
            raise ParameterError(f"damping must be >= 0, got {self.damping}")
        if self.frequency is not None and not self.frequency > 0.0:
            raise ParameterError(f"frequency must be > 0, got {self.frequency}")

    def resolved(self, scales):
        """Copy with frequency filled in from the ring scales when absent."""
        if self.frequency is not None:
            return self
        return replace(self, frequency=scales.omega)


def bath_occupation(bath: BathParams):
    """Mean bath occupation M = 1/(exp(hbar*w_b/(kB*T)) - 1); 0 at T = 0."""
    if bath.frequency is None:
        raise ParameterError("bath frequency unresolved; call resolved() first")
    if bath.temperature == 0.0:
        return 0.0
    ratio = (CODATA2018.hbar * bath.frequency
             / (CODATA2018.boltzmann * bath.temperature))
    return 1.0 / math.expm1(ratio)


def lindblad_generator(rho, hamiltonian, a, bath: BathParams):
    """Right-hand side drho/dtau of the master equation (dense matrices).

    Reference implementation by matrix products in the number basis; the
    propagator evaluates the same equation in the truncated eigenbasis.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != hamiltonian.shape or rho.shape != a.shape:
        raise ParameterError(
            f"dimension mismatch: rho {rho.shape}, H {hamiltonian.shape}, "
            f"a {a.shape}")
    g = bath.damping
    m_occ = bath_occupation(bath)
    adag = a.conj().T
    out = -1j * (hamiltonian @ rho - rho @ hamiltonian)
    if g > 0.0:
        n_op = adag @ a
        out += 0.5 * g * (m_occ + 1.0) * (
            2.0 * a @ rho @ adag - n_op @ rho - rho @ n_op)
        if m_occ > 0.0:
            nbar = a @ adag
            out += 0.5 * g * m_occ * (
                2.0 * adag @ rho @ a - nbar @ rho - rho @ nbar)
    return out


def _ladder_moments(first, second, diag_n):
    """Quadrature moments from the contractions <a>, <a^2> and <a†a>."""
    mean_x = math.sqrt(2.0) * first.real
    mean_p = math.sqrt(2.0) * first.imag
    # x^2 = (a^2 + a†^2 + 2 a†a + 1)/2, p^2 likewise with a sign on a^2 terms
    x2 = (2.0 * second.real + 2.0 * diag_n + 1.0) / 2.0
    p2 = (-2.0 * second.real + 2.0 * diag_n + 1.0) / 2.0
    return {"mean_x": mean_x, "mean_p": mean_p, "var_x": x2 - mean_x**2,
            "var_p": p2 - mean_p**2, "occupation": diag_n}


@dataclass
class Trajectory:
    """Observable time series (and optional snapshots) of a Lindblad run.

    snapshots holds one factored MixedState per snapshot time (rank at most
    the kept level count K); call dense() for the dim x dim matrix.
    """

    times: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    var_x: np.ndarray
    var_p: np.ndarray
    occupation: np.ndarray
    trace: np.ndarray
    purity: np.ndarray
    snapshot_times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    max_trace_correction: float = 0.0
    energy_levels_kept: int = 0
    leaked_population: float = 0.0
    min_eigenvalue: float = 0.0

    COLUMNS = ("tau", "mean_x", "mean_p", "var_x", "var_p",
               "occupation", "trace", "purity")

    def as_table(self):
        return np.column_stack([
            self.times, self.mean_x, self.mean_p, self.var_x, self.var_p,
            self.occupation, self.trace, self.purity,
        ])


def _lower(v):
    """a @ v for the number-basis annihilation operator and a matrix v."""
    out = np.zeros_like(v)
    out[:-1] = np.sqrt(np.arange(1.0, len(v)))[:, None] * v[1:]
    return out


def _step_count(state, hamiltonian, dtau, tau_max, *strides):
    """Reject non-finite inputs and bad step settings; return the step count."""
    if not (0.0 < dtau < math.inf and 0.0 <= tau_max < math.inf):
        raise ParameterError(
            f"need finite dtau > 0 and tau_max >= 0, got {dtau!r}, {tau_max!r}")
    if any(s is not None and not s >= 1 for s in strides):
        raise ParameterError(
            f"record and snapshot strides must be >= 1, got {strides}")
    if not (np.isfinite(state).all() and np.isfinite(hamiltonian).all()):
        raise ParameterError("initial state and Hamiltonian must be finite")
    return int(round(tau_max / dtau))


def _columns(rows):
    """Records (dicts with the same keys) -> one array per key."""
    return {key: np.array([row[key] for row in rows]) for key in rows[0]}


def propagate(rho0, hamiltonian, bath: BathParams, *, dtau=0.005, tau_max,
              record_stride=1, snapshot_stride=None, scales=None):
    """Propagate a density matrix under the thermal master equation.

    Fixed-step RK4 on the kept energy levels with per-step Hermitisation and
    trace renormalisation.  Observables are recorded every `record_stride`
    steps (always including tau = 0 and tau_max).  Every `snapshot_stride`
    steps, when given, rho is stored factored as a MixedState: the
    eigenpairs of the K x K matrix, with the eigenvectors mapped to the
    number basis through V_K; its dense() gives the number-basis matrix.
    Warns when a snapshot or the final state has an eigenvalue below -1e-4.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if (rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]
            or hamiltonian.shape != rho0.shape):
        raise ParameterError("rho0 and H must be square matrices of one size")
    n_steps = _step_count(rho0, hamiltonian, dtau, tau_max, record_stride,
                          snapshot_stride)
    if scales is not None:
        bath = bath.resolved(scales)
    g = bath.damping
    m_occ = bath_occupation(bath) if g > 0.0 else 0.0
    down, up = g * (m_occ + 1.0), g * m_occ     # rates of the a and a† jumps

    energies, vecs = np.linalg.eigh(hamiltonian)
    a_full = vecs.conj().T @ _lower(vecs)
    rho_full = vecs.conj().T @ rho0 @ vecs
    # predicted population above each level: what starts there plus what the
    # jumps send there over the whole run.  (|Ã| sqrt(p))_i^2 bounds the
    # a-jump rate diag(Ã rho Æ)_i for every rho with populations p, so the
    # bound holds however the coherences dephase.  The diagonal carries
    # roundoff of either sign; a negative entry must not cancel real weight
    # above it, so populations count by magnitude.
    start = np.diagonal(rho_full).real
    amp, root = np.abs(a_full), np.sqrt(np.maximum(start, 0.0))
    weight = np.abs(start) + tau_max * (down * (amp @ root) ** 2
                                        + up * (amp.T @ root) ** 2)
    above = np.append(np.cumsum(weight[::-1])[::-1], 0.0)
    k = 1 + int(np.argmax(above[1:] <= LEAK_TOLERANCE))

    e, v, a = energies[:k], vecs[:, :k], a_full[:k, :k]
    adag = a.conj().T
    n_down = adag @ a
    # the truncated products, not the projected a†a, keep the trace exact
    gamma = down * n_down + up * (a @ adag)
    # jumps carry population above the kept levels at the rate tr(edge @ rho)
    edge = (down * (a_full[k:, :k].conj().T @ a_full[k:, :k])
            + up * (a_full[:k, k:] @ a_full[:k, k:].conj().T))
    radius = e[-1] - e[0] + (down + up) * np.linalg.eigvalsh(n_down)[-1]
    if dtau * radius > RK4_STABILITY_BOUND:
        raise StepSizeError(f"dtau * spectral bound = {dtau * radius:.3g} exceeds "
                            f"RK4's stability limit 2*sqrt(2); reduce dtau")
    freq = -1j * (e[:, None] - e[None, :])

    def rhs(r):
        out = freq * r
        if g > 0.0:
            anti = gamma @ r    # r is Hermitian, so r @ gamma = anti†
            out += down * (a @ r @ adag) - 0.5 * (anti + anti.conj().T)
            if up > 0.0:
                out += up * (adag @ r @ a)
        return out

    # <a>, <a^2>, <a†a> from projected number-basis operators: tr(op r) = sum(op.T r)
    moment_ops = [op.T for op in (a, v.conj().T @ _lower(_lower(v)),
                                  v.conj().T @ (np.arange(len(v))[:, None] * v))]
    rho = rho_full[:k, :k].copy()
    leaked = float(np.sum(np.abs(start[k:])))
    records, snapshot_times, snapshots = [], [], []
    lowest = {}     # step -> lowest eigenvalue of rho, at snapshots and the end
    max_correction = 0.0

    for step in range(n_steps + 1):
        if step:
            leaked += dtau * float(np.vdot(edge, rho).real)
            k1 = rhs(rho)
            k2 = rhs(rho + (0.5 * dtau) * k1)
            k3 = rhs(rho + (0.5 * dtau) * k2)
            k4 = rhs(rho + dtau * k3)
            rho = rho + (dtau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = 0.5 * (rho + rho.conj().T)
            tr = float(np.trace(rho).real)
            correction = abs(tr - 1.0)
            if not correction <= 1e-6:
                raise StepSizeError(f"trace changed by {correction:.3g} in one "
                                    f"step at tau={step * dtau:.4g}; reduce dtau")
            max_correction = max(max_correction, correction)
            rho /= tr
        if step % record_stride == 0 or step == n_steps:
            first, second, occ = (complex(np.sum(op * rho)) for op in moment_ops)
            records.append(dict(
                _ladder_moments(first, second, occ.real), times=step * dtau,
                trace=float(np.trace(rho).real),
                purity=float(np.sum(np.abs(rho) ** 2))))
        if snapshot_stride is not None and (
                step % snapshot_stride == 0 or step == n_steps):
            w, u = np.linalg.eigh(rho)
            snapshot_times.append(step * dtau)
            snapshots.append(MixedState(w, v @ u))
            lowest[step] = float(w[0])

    if n_steps not in lowest:
        lowest[n_steps] = float(np.linalg.eigvalsh(rho)[0])
    for step, low in lowest.items():
        if low < -1e-4:
            warnings.warn(f"density matrix at tau={step * dtau:.4g} has "
                          f"eigenvalue {low:.3g}", PositivityWarning, stacklevel=2)
    return Trajectory(**_columns(records), snapshot_times=snapshot_times,
                      snapshots=snapshots, max_trace_correction=max_correction,
                      energy_levels_kept=k, leaked_population=leaked,
                      min_eigenvalue=min(lowest.values()))
