"""Quantum dynamics of a single SQUID ring in a truncated number basis.

Spectra versus bias flux, macroscopic superposition (cat) states, Wigner
and Weyl phase-space functions, thermal-bath decoherence and flux
squeezing of coherent states, plus a scenario CLI that emits CSV datasets.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DegeneracyError, GridResolutionError,
                     GridResolutionWarning, ParameterError, PositivityWarning,
                     SquidSimError, StepSizeError, TruncationError)
from .params import (CODATA2018, DerivedScales, PhysicalConstants,
                     SquidParams, derive_scales)
from .operators import (annihilation, cosine_operator, hermiticity_defect,
                        ladder_operators, quadrature_operators)
from .hamiltonian import (FluxGridHamiltonian, FluxSweep, SpectralResult,
                          Well, build_flux_grid_hamiltonian,
                          build_fock_hamiltonian, eigensolve,
                          find_potential_wells, potential_energy,
                          potential_energy_scaled, spectrum_sweep)
from .states import (WellClassification, WellLabel, classify_well_states,
                     coherent_state, fock_state, hermite_functions,
                     parity_pair, phase_superposition, position_wavefunction)
from .phase_space import (PhaseSpaceDiagnostics, PhaseSpaceField,
                          phase_space_diagnostics, weyl_function,
                          wigner_function, wigner_to_weyl)
from .dynamics import (BathParams, Trajectory, bath_occupation,
                       lindblad_generator, propagate)
from .scenarios import (Dataset, GridSpec, RunSettings, SCENARIOS,
                        ScenarioSpec, StateRecipe, SweepSpec,
                        builtin_scenario, emit_dataset, friedman_ring,
                        run_scenario, squeeze_ring, standard_ring)
