"""Circuit parameters, physical constants and derived dimensionless scales.

Everything downstream works in oscillator units: energies are measured in
hbar*omega with omega = 1/sqrt(inductance*capacitance), flux and charge are
mapped onto dimensionless quadratures

    x = sqrt(C*omega/hbar) * Phi,      p = sqrt(1/(hbar*C*omega)) * Q.

With that scaling the ring Hamiltonian depends on the circuit only through
two pure numbers, nu_over_omega and c_omega, plus the bias flux.
"""

from dataclasses import dataclass, replace
import math

from .errors import ParameterError

__all__ = [
    "PhysicalConstants",
    "CODATA2018",
    "SquidParams",
    "DerivedScales",
    "derive_scales",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants in SI units.

    The defaults are the 2018 CODATA exact values, and the package reads
    its one instance, CODATA2018, directly.  The fields must stay
    consistent: flux_quantum = pi*hbar/electron_charge.
    """

    hbar: float = 1.054571817e-34          # J s
    boltzmann: float = 1.380649e-23        # J / K
    electron_charge: float = 1.602176634e-19  # C
    flux_quantum: float = 2.067833848e-15  # Wb, h/2e

    def __post_init__(self):
        expected = math.pi * self.hbar / self.electron_charge
        if abs(self.flux_quantum - expected) > 1e-9 * expected:
            raise ParameterError(
                "inconsistent constants: flux_quantum must equal "
                f"pi*hbar/e = {expected!r}, got {self.flux_quantum!r}"
            )


CODATA2018 = PhysicalConstants()


@dataclass(frozen=True)
class SquidParams:
    """Lumped-element parameters of a superconducting ring with one weak link.

    Parameters
    ----------
    capacitance : float
        Weak-link capacitance C in farad.
    inductance : float
        Ring inductance in henry.
    josephson_energy : float
        Tunnelling energy hbar*nu in joule.  Use
        :meth:`from_critical_current` when the junction is specified by its
        critical current instead.
    bias_flux : float
        Externally applied flux in units of the flux quantum.
    """

    capacitance: float
    inductance: float
    josephson_energy: float
    bias_flux: float = 0.0

    def __post_init__(self):
        if not (self.capacitance > 0.0):
            raise ParameterError(f"capacitance must be > 0, got {self.capacitance}")
        if not (self.inductance > 0.0):
            raise ParameterError(f"inductance must be > 0, got {self.inductance}")
        if not (self.josephson_energy >= 0.0):
            raise ParameterError(
                f"josephson_energy must be >= 0, got {self.josephson_energy}"
            )
        if not math.isfinite(self.bias_flux):
            raise ParameterError(f"bias_flux must be finite, got {self.bias_flux}")

    @classmethod
    def from_critical_current(cls, capacitance, inductance, critical_current,
                              bias_flux=0.0):
        """Build parameters from a junction critical current Ic = 2*e*nu."""
        if critical_current < 0.0:
            raise ParameterError(
                f"critical_current must be >= 0, got {critical_current}"
            )
        nu = critical_current / (2.0 * CODATA2018.electron_charge)
        return cls(capacitance, inductance, CODATA2018.hbar * nu, bias_flux)

    @classmethod
    def from_screening_ratio(cls, capacitance, inductance, ratio,
                             bias_flux=0.0):
        """Build parameters with josephson_energy = ratio * flux_quantum**2 / inductance."""
        energy = ratio * CODATA2018.flux_quantum**2 / inductance
        return cls(capacitance, inductance, energy, bias_flux)

    def with_bias(self, bias_flux):
        """Copy of these parameters at a different bias flux."""
        return replace(self, bias_flux=bias_flux)


@dataclass(frozen=True)
class DerivedScales:
    """Dimensionless numbers and conversion factors fixed by the circuit.

    c_omega is the numeric SI value of the product C*omega (units 1/ohm); it
    is the pure number conventionally quoted for this kind of circuit.
    cosine_scale_k multiplies (a + a_dagger) inside the cosine of the
    number-basis Hamiltonian, so the cosine argument advances by exactly
    2*pi when the flux advances by one flux quantum.
    """

    omega: float           # rad/s, 1/sqrt(L*C)
    nu_over_omega: float
    c_omega: float
    cosine_scale_k: float
    x_per_weber: float     # 1/Wb
    p_per_coulomb: float   # 1/C
    lc_period: float       # s

    @property
    def flux_quantum_in_x(self):
        """One flux quantum expressed in dimensionless position units."""
        return 2.0 * math.pi / (math.sqrt(2.0) * self.cosine_scale_k)


def derive_scales(params: SquidParams) -> DerivedScales:
    """Derive every dimensionless scale used by the rest of the system.

    Deterministic, pure; raises ParameterError through SquidParams validation
    for non-positive capacitance or inductance.
    """
    omega = 1.0 / math.sqrt(params.inductance * params.capacitance)
    c_omega = params.capacitance * omega
    nu = params.josephson_energy / CODATA2018.hbar
    k = (2.0 * math.pi / CODATA2018.flux_quantum) * math.sqrt(
        CODATA2018.hbar / (2.0 * c_omega)
    )
    return DerivedScales(
        omega=omega,
        nu_over_omega=nu / omega,
        c_omega=c_omega,
        cosine_scale_k=k,
        x_per_weber=math.sqrt(c_omega / CODATA2018.hbar),
        p_per_coulomb=math.sqrt(1.0 / (CODATA2018.hbar * c_omega)),
        lc_period=2.0 * math.pi / omega,
    )
