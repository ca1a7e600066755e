"""Named scenarios, dataset assembly and atomic emission.

Each scenario produces a Dataset: named CSV tables plus a metadata
dictionary that echoes the full configuration, the derived scales and the
integrator settings, so a run can be reproduced bit-identically from its
own metadata.
"""

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .dynamics import BathParams, bath_occupation, propagate
from .errors import ConfigError, DegeneracyError, ParameterError
from .hamiltonian import (build_fock_hamiltonian, eigensolve,
                          potential_energy_scaled, spectrum_sweep)
from .params import CODATA2018, SquidParams, derive_scales
from .phase_space import (PhaseSpaceField, phase_space_diagnostics,
                          weyl_function, wigner_function)
from .states import (classify_well_states, coherent_state, parity_pair,
                     phase_superposition, position_wavefunction)

__all__ = [
    "GridSpec", "StateRecipe", "RunSettings", "SweepSpec", "ScenarioSpec",
    "Dataset", "SCENARIO_NAMES", "standard_ring", "squeeze_ring",
    "friedman_ring", "builtin_scenario", "run_scenario", "emit_dataset",
    "run_spectrum", "run_eigenstates", "run_wigner", "run_weyl", "run_evolve",
]

FLOAT_FMT = "%.12g"


@dataclass(frozen=True)
class GridSpec:
    x_min: float = -16.0
    x_max: float = 16.0
    x_points: int = 257
    p_min: float = -16.0
    p_max: float = 16.0
    p_points: int = 257

    def x_axis(self):
        return np.linspace(self.x_min, self.x_max, self.x_points)

    def p_axis(self):
        return np.linspace(self.p_min, self.p_max, self.p_points)


@dataclass(frozen=True)
class StateRecipe:
    kind: str = "eigenstate"      # eigenstate | coherent | superposition
    index: int = 0
    alpha: complex = 0j
    theta: float = 0.0
    pair: tuple = (0, 1)


@dataclass(frozen=True)
class RunSettings:
    dim: int = 400
    dtau: float = 0.005
    tau_max: float = 10.0
    record_stride: int = 10
    snapshot_stride: int | None = None


@dataclass(frozen=True)
class SweepSpec:
    start: float = 0.0
    stop: float = 1.0
    step: float = 0.002
    levels: int = 10


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    squid: SquidParams
    bath: BathParams | None = None
    state: StateRecipe = field(default_factory=StateRecipe)
    grid: GridSpec = field(default_factory=GridSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    run: RunSettings = field(default_factory=RunSettings)

    def to_flat(self):
        """Flat string mapping understood by the config parser."""
        out = {"scenario.name": self.name}
        out["squid.capacitance_f"] = repr(self.squid.capacitance)
        out["squid.inductance_h"] = repr(self.squid.inductance)
        out["squid.josephson_energy_j"] = repr(self.squid.josephson_energy)
        out["squid.bias_flux_phi0"] = repr(self.squid.bias_flux)
        if self.bath is not None:
            out["bath.temperature_k"] = repr(self.bath.temperature)
            out["bath.damping"] = repr(self.bath.damping)
            if self.bath.frequency is not None:
                out["bath.frequency_rad_s"] = repr(self.bath.frequency)
        out["state.kind"] = self.state.kind
        out["state.index"] = repr(self.state.index)
        out["state.alpha_re"] = repr(self.state.alpha.real)
        out["state.alpha_im"] = repr(self.state.alpha.imag)
        out["state.theta_rad"] = repr(self.state.theta)
        out["state.pair_a"] = repr(self.state.pair[0])
        out["state.pair_b"] = repr(self.state.pair[1])
        for name in ("x_min", "x_max", "x_points", "p_min", "p_max", "p_points"):
            out[f"grid.{name}"] = repr(getattr(self.grid, name))
        for name in ("start", "stop", "step", "levels"):
            out[f"sweep.{name}"] = repr(getattr(self.sweep, name))
        out["run.dim"] = repr(self.run.dim)
        out["run.dtau"] = repr(self.run.dtau)
        out["run.tau_max"] = repr(self.run.tau_max)
        out["run.record_stride"] = repr(self.run.record_stride)
        if self.run.snapshot_stride is not None:
            out["run.snapshot_stride"] = repr(self.run.snapshot_stride)
        return out

    @classmethod
    def from_flat(cls, mapping, defaults=None):
        """Build a spec from a flat mapping; unknown keys are an error."""
        return _spec_from_flat(cls, mapping, defaults)


_KNOWN_KEYS = {
    "scenario.name",
    "squid.capacitance_f", "squid.inductance_h", "squid.josephson_energy_j",
    "squid.critical_current_a", "squid.bias_flux_phi0",
    "bath.temperature_k", "bath.damping", "bath.frequency_rad_s",
    "state.kind", "state.index", "state.alpha_re", "state.alpha_im",
    "state.theta_rad", "state.pair_a", "state.pair_b",
    "grid.x_min", "grid.x_max", "grid.x_points",
    "grid.p_min", "grid.p_max", "grid.p_points",
    "sweep.start", "sweep.stop", "sweep.step", "sweep.levels",
    "run.dim", "run.dtau", "run.tau_max", "run.record_stride",
    "run.snapshot_stride",
}


def _get(mapping, key, conv, default):
    if key not in mapping:
        return default
    try:
        return conv(mapping[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {mapping[key]!r}") from exc


def _spec_from_flat(cls, mapping, defaults):
    unknown = set(mapping) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    base = defaults if defaults is not None else ScenarioSpec(
        name="custom", squid=standard_ring())

    squid = base.squid
    if {"squid.capacitance_f", "squid.inductance_h"} & set(mapping):
        cap = _get(mapping, "squid.capacitance_f", float, squid.capacitance)
        ind = _get(mapping, "squid.inductance_h", float, squid.inductance)
        bias = _get(mapping, "squid.bias_flux_phi0", float, squid.bias_flux)
        if "squid.critical_current_a" in mapping:
            if "squid.josephson_energy_j" in mapping:
                raise ConfigError(
                    "give squid.josephson_energy_j or squid.critical_current_a, not both")
            try:
                squid = SquidParams.from_critical_current(
                    cap, ind, float(mapping["squid.critical_current_a"]), bias)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        else:
            energy = _get(mapping, "squid.josephson_energy_j", float,
                          squid.josephson_energy)
            try:
                squid = SquidParams(cap, ind, energy, bias)
            except ParameterError as exc:
                raise ConfigError(str(exc)) from exc
    elif "squid.bias_flux_phi0" in mapping:
        squid = squid.with_bias(
            _get(mapping, "squid.bias_flux_phi0", float, squid.bias_flux))

    bath = base.bath
    if "bath.temperature_k" in mapping or "bath.damping" in mapping:
        bath = BathParams(
            temperature=_get(mapping, "bath.temperature_k", float,
                             bath.temperature if bath else 1.0),
            damping=_get(mapping, "bath.damping", float,
                         bath.damping if bath else 0.0),
            frequency=_get(mapping, "bath.frequency_rad_s", float,
                           bath.frequency if bath else None),
        )

    state = StateRecipe(
        kind=mapping.get("state.kind", base.state.kind),
        index=_get(mapping, "state.index", int, base.state.index),
        alpha=complex(_get(mapping, "state.alpha_re", float, base.state.alpha.real),
                      _get(mapping, "state.alpha_im", float, base.state.alpha.imag)),
        theta=_get(mapping, "state.theta_rad", float, base.state.theta),
        pair=(_get(mapping, "state.pair_a", int, base.state.pair[0]),
              _get(mapping, "state.pair_b", int, base.state.pair[1])),
    )
    if state.kind not in ("eigenstate", "coherent", "superposition"):
        raise ConfigError(f"unknown state.kind {state.kind!r}")

    grid = GridSpec(
        x_min=_get(mapping, "grid.x_min", float, base.grid.x_min),
        x_max=_get(mapping, "grid.x_max", float, base.grid.x_max),
        x_points=_get(mapping, "grid.x_points", int, base.grid.x_points),
        p_min=_get(mapping, "grid.p_min", float, base.grid.p_min),
        p_max=_get(mapping, "grid.p_max", float, base.grid.p_max),
        p_points=_get(mapping, "grid.p_points", int, base.grid.p_points),
    )
    sweep = SweepSpec(
        start=_get(mapping, "sweep.start", float, base.sweep.start),
        stop=_get(mapping, "sweep.stop", float, base.sweep.stop),
        step=_get(mapping, "sweep.step", float, base.sweep.step),
        levels=_get(mapping, "sweep.levels", int, base.sweep.levels),
    )
    run = RunSettings(
        dim=_get(mapping, "run.dim", int, base.run.dim),
        dtau=_get(mapping, "run.dtau", float, base.run.dtau),
        tau_max=_get(mapping, "run.tau_max", float, base.run.tau_max),
        record_stride=_get(mapping, "run.record_stride", int,
                           base.run.record_stride),
        snapshot_stride=_get(mapping, "run.snapshot_stride", int,
                             base.run.snapshot_stride),
    )
    name = mapping.get("scenario.name", base.name)
    return cls(name=name, squid=squid, bath=bath, state=state,
               grid=grid, sweep=sweep, run=run)


def standard_ring(bias_flux=0.0):
    """The worked SQUID ring: C = 5 fF, L = 0.3 nH, E_J = 0.047 Phi0^2/L."""
    return SquidParams.from_screening_ratio(5e-15, 3e-10, 0.047, bias_flux)


def squeeze_ring(bias_flux=0.0):
    """Same circuit with the Josephson energy raised to 0.24 Phi0^2/L."""
    return SquidParams.from_screening_ratio(5e-15, 3e-10, 0.24, bias_flux)


def friedman_ring():
    """Ring parameters of the published two-well superposition experiment."""
    return SquidParams.from_critical_current(
        1.03e-13, 2.38e-10, 2.02e-6, bias_flux=0.514466)


SCENARIO_NAMES = (
    "potential-wells", "level-sweep", "cat-049", "cat-phase",
    "friedman", "decohere-cat", "squeeze",
)


def builtin_scenario(name, overrides=None):
    """ScenarioSpec for a named scenario, with optional flat-key overrides."""
    if name == "potential-wells":
        spec = ScenarioSpec(name, standard_ring(), sweep=SweepSpec(levels=8))
    elif name == "level-sweep":
        spec = ScenarioSpec(name, standard_ring())
    elif name == "cat-049":
        spec = ScenarioSpec(name, standard_ring(0.49),
                            state=StateRecipe(kind="superposition"))
    elif name == "cat-phase":
        spec = ScenarioSpec(name, standard_ring(0.5),
                            state=StateRecipe(kind="superposition"))
    elif name == "friedman":
        spec = ScenarioSpec(name, friedman_ring(),
                            state=StateRecipe(kind="superposition"))
    elif name == "decohere-cat":
        spec = ScenarioSpec(
            name, standard_ring(0.5),
            bath=BathParams(temperature=1.0, damping=0.01),
            state=StateRecipe(kind="eigenstate", index=0),
            run=RunSettings(tau_max=30.0, record_stride=20,
                            snapshot_stride=600))
    elif name == "squeeze":
        spec = ScenarioSpec(
            name, squeeze_ring(),
            bath=BathParams(temperature=1.0, damping=0.0),
            state=StateRecipe(kind="coherent", alpha=1j),
            run=RunSettings(dim=160, tau_max=50.0, record_stride=5))
    else:
        raise ConfigError(
            f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}")
    if overrides:
        spec = ScenarioSpec.from_flat(overrides, defaults=spec)
        spec = dataclasses.replace(spec, name=name)
    return spec


@dataclass
class Dataset:
    """CSV payloads plus the metadata needed to reproduce them."""

    name: str
    tables: dict      # filename -> (columns, 2-D float array)
    metadata: dict


def _metadata(spec, constants=CODATA2018, extra=None):
    scales = derive_scales(spec.squid, constants)
    meta = {
        "scenario": spec.name,
        "version": __version__,
        "config": spec.to_flat(),
        "derived_scales": {f.name: getattr(scales, f.name)
                           for f in dataclasses.fields(scales)},
        "integrator": {
            "method": "rk4-fixed-step-truncated-energy-eigenbasis",
            "dtau": spec.run.dtau,
            "tau_max": spec.run.tau_max,
        },
        "truncation_dim": spec.run.dim,
    }
    if spec.bath is not None:
        bath = spec.bath.resolved(scales)
        meta["bath_occupation"] = bath_occupation(bath, constants)
        meta["bath_frequency_rad_s"] = bath.frequency
    if extra:
        meta.update(extra)
    return meta


def _field_table(field_obj: PhaseSpaceField):
    """Long-format table: x,p,value (wigner) or X,P,abs,re,im (weyl)."""
    xx = np.repeat(field_obj.x, len(field_obj.p))
    pp = np.tile(field_obj.p, len(field_obj.x))
    if field_obj.kind == "wigner":
        cols = ["x", "p", "value"]
        data = np.column_stack([xx, pp, field_obj.values.ravel()])
    else:
        flat = field_obj.values.ravel()
        cols = ["X", "P", "abs", "re", "im"]
        data = np.column_stack([xx, pp, np.abs(flat), flat.real, flat.imag])
    return cols, data


def _superposition_states(spec, constants=CODATA2018):
    """(s, a) members used by the superposition scenarios."""
    scales = derive_scales(spec.squid, constants)
    h = build_fock_hamiltonian(spec.squid, scales, spec.run.dim, constants)
    spectral = eigensolve(h)
    i, j = spec.state.pair
    try:
        s, a = parity_pair(spectral, spec.squid, scales, indices=(i, j),
                           constants=constants)
    except (DegeneracyError, ParameterError):
        # asymmetric wells: keep the eigensolver's deterministic phases
        s = spectral.eigenvectors[:, i].astype(complex)
        a = spectral.eigenvectors[:, j].astype(complex)
    return spectral, s, a


def _resolve_state(spec, constants=CODATA2018):
    """State vector requested by spec.state plus the spectral data used."""
    scales = derive_scales(spec.squid, constants)
    h = build_fock_hamiltonian(spec.squid, scales, spec.run.dim, constants)
    if spec.state.kind == "coherent":
        return h, coherent_state(spec.state.alpha, spec.run.dim)
    if spec.state.kind == "eigenstate":
        spectral = eigensolve(h, count=spec.state.index + 1)
        return h, spectral.eigenvectors[:, spec.state.index].astype(complex)
    if spec.state.kind == "superposition":
        _, s, a = _superposition_states(spec, constants)
        return h, phase_superposition(s, a, spec.state.theta)
    raise ConfigError(f"unknown state kind {spec.state.kind!r}")


def run_scenario(spec: ScenarioSpec, constants=CODATA2018) -> Dataset:
    """Execute a built-in scenario and return its Dataset."""
    runners = {
        "potential-wells": _run_potential_wells,
        "level-sweep": _run_level_sweep,
        "cat-049": _run_cat_049,
        "cat-phase": _run_cat_phase,
        "friedman": _run_friedman,
        "decohere-cat": _run_decohere_cat,
        "squeeze": _run_squeeze,
    }
    if spec.name not in runners:
        raise ConfigError(
            f"unknown scenario {spec.name!r}; expected one of "
            f"{', '.join(SCENARIO_NAMES)}")
    return runners[spec.name](spec, constants)


def _run_potential_wells(spec, constants):
    tables = {}
    levels = spec.sweep.levels
    x = spec.grid.x_axis()
    for bias in (0.0, 0.49, 0.5):
        ring = spec.squid.with_bias(bias)
        scales = derive_scales(ring, constants)
        h = build_fock_hamiltonian(ring, scales, spec.run.dim, constants)
        spectral = eigensolve(h, count=levels)
        u = potential_energy_scaled(x, ring, scales, constants)
        cols = ["x", "potential"]
        data = [x, u]
        for k in range(levels):
            psi = position_wavefunction(spectral.eigenvectors[:, k], x)
            cols.append(f"level{k}")
            data.append(np.abs(psi) ** 2 + spectral.eigenvalues[k])
        tables[f"potential_wells_phix{bias:.2f}.csv"] = (cols, np.column_stack(data))
    return Dataset(spec.name, tables, _metadata(spec, constants))


def _run_level_sweep(spec, constants):
    sweep = spectrum_sweep(spec.squid, spec.sweep.start, spec.sweep.stop,
                           spec.sweep.step, levels=spec.sweep.levels,
                           dim=spec.run.dim, constants=constants)
    cols = ["phi_x"] + [f"E{i}" for i in range(sweep.levels.shape[1])]
    tables = {"level_sweep.csv": (cols, np.column_stack([sweep.bias_values,
                                                         sweep.levels]))}
    return Dataset(spec.name, tables, _metadata(spec, constants))


def _run_cat_049(spec, constants):
    scales = derive_scales(spec.squid, constants)
    h = build_fock_hamiltonian(spec.squid, scales, spec.run.dim, constants)
    spectral = eigensolve(h, count=2)
    cat = phase_superposition(spectral.eigenvectors[:, 0],
                              spectral.eigenvectors[:, 1], spec.state.theta)
    fld = wigner_function(cat, spec.grid.x_axis(), spec.grid.p_axis())
    diag = phase_space_diagnostics(fld, cat)
    cols, data = _field_table(fld)
    extra = {
        "wigner_normalization": diag.normalization,
        "wigner_negativity_volume": diag.negativity_volume,
        "fields": {"wigner_cat_phix0.49.csv": _field_descriptor(fld, spec)},
    }
    return Dataset(spec.name, {"wigner_cat_phix0.49.csv": (cols, data)},
                   _metadata(spec, constants, extra))


def _field_descriptor(field_obj, spec):
    return {
        "kind": field_obj.kind,
        "x_min": float(field_obj.x[0]), "x_max": float(field_obj.x[-1]),
        "x_points": len(field_obj.x),
        "p_min": float(field_obj.p[0]), "p_max": float(field_obj.p[-1]),
        "p_points": len(field_obj.p),
        "state": dataclasses.asdict(spec.state) | {
            "alpha": repr(spec.state.alpha)},
    }


def _run_cat_phase(spec, constants):
    _, s, a = _superposition_states(spec, constants)
    tables = {}
    fields_meta = {}
    for theta in (0.0, np.pi / 2.0, np.pi):
        cat = phase_superposition(s, a, theta)
        fld = wigner_function(cat, spec.grid.x_axis(), spec.grid.p_axis())
        name = f"wigner_theta{theta:.2f}.csv"
        tables[name] = _field_table(fld)
        fields_meta[name] = _field_descriptor(fld, spec)
    return Dataset(spec.name, tables,
                   _metadata(spec, constants, {"fields": fields_meta}))


def _run_friedman(spec, constants):
    scales = derive_scales(spec.squid, constants)
    h = build_fock_hamiltonian(spec.squid, scales, spec.run.dim, constants)
    spectral = eigensolve(h)
    classification = classify_well_states(spectral, spec.squid, scales,
                                          constants)
    pairs = classification.pairs()
    if not pairs:
        raise ParameterError("no near-degenerate pair found below the barrier")
    # the experimentally used doublet: the most nearly degenerate one
    best = min(
        (p for p in pairs if p.role == "s"),
        key=lambda p: abs(spectral.eigenvalues[p.partner]
                          - spectral.eigenvalues[p.state_index]),
    )
    i, j = best.state_index, best.partner

    x = spec.grid.x_axis()
    u = potential_energy_scaled(x, spec.squid, scales, constants)
    levels = min(j + 3, spectral.eigenvalues.size)
    cols = ["x", "potential"]
    data = [x, u]
    for k in range(levels):
        psi = position_wavefunction(spectral.eigenvectors[:, k], x)
        cols.append(f"level{k}")
        data.append(np.abs(psi) ** 2 + spectral.eigenvalues[k])
    tables = {"potential_wells.csv": (cols, np.column_stack(data))}

    fields_meta = {}
    for theta in (0.0, np.pi / 2.0, np.pi):
        cat = phase_superposition(spectral.eigenvectors[:, i],
                                  spectral.eigenvectors[:, j], theta)
        fld = wigner_function(cat, x, spec.grid.p_axis())
        name = f"wigner_theta{theta:.2f}.csv"
        tables[name] = _field_table(fld)
        fields_meta[name] = _field_descriptor(fld, spec)

    extra = {
        "pair_indices": [i, j],
        "pair_splitting_hbar_omega": float(spectral.eigenvalues[j]
                                           - spectral.eigenvalues[i]),
        "pair_well_ordinals": {str(w): o for w, o in best.ordinals},
        "fields": fields_meta,
    }
    return Dataset(spec.name, tables, _metadata(spec, constants, extra))


def _propagation_health(traj):
    """Deterministic numerical-health figures of one propagation."""
    return {"max_trace_correction": traj.max_trace_correction,
            "energy_levels_kept": traj.energy_levels_kept,
            "leaked_population": traj.leaked_population,
            "min_snapshot_eigenvalue": traj.min_eigenvalue}


def _run_decohere_cat(spec, constants):
    scales = derive_scales(spec.squid, constants)
    h = build_fock_hamiltonian(spec.squid, scales, spec.run.dim, constants)
    spectral = eigensolve(h, count=1)
    psi0 = spectral.eigenvectors[:, 0].astype(complex)
    rho0 = np.outer(psi0, psi0.conj())
    stride = spec.run.snapshot_stride
    if stride is None:
        # default to ten field snapshots across the run
        stride = max(1, int(round(spec.run.tau_max / spec.run.dtau / 10)))
    traj = propagate(rho0, h, spec.bath, dtau=spec.run.dtau,
                     tau_max=spec.run.tau_max,
                     record_stride=spec.run.record_stride,
                     snapshot_stride=stride,
                     scales=scales, constants=constants)
    tables = {"trajectory.csv": (list(traj.COLUMNS), traj.as_table())}
    x, p = spec.grid.x_axis(), spec.grid.p_axis()
    fields_meta = {}
    for tau, rho in zip(traj.snapshot_times, traj.snapshots):
        wig = wigner_function(rho, x, p)
        wey = weyl_function(rho, x, p)
        wig_name = f"wigner_tau{tau:07.2f}.csv"
        wey_name = f"weyl_tau{tau:07.2f}.csv"
        tables[wig_name] = _field_table(wig)
        tables[wey_name] = _field_table(wey)
        fields_meta[wig_name] = _field_descriptor(wig, spec)
        fields_meta[wey_name] = _field_descriptor(wey, spec)
    extra = {"snapshot_taus": [float(t) for t in traj.snapshot_times],
             "fields": fields_meta, **_propagation_health(traj)}
    return Dataset(spec.name, tables, _metadata(spec, constants, extra))


SQUEEZE_DAMPINGS = (0.0, 0.001, 0.01, 0.1)


def _run_squeeze(spec, constants):
    scales = derive_scales(spec.squid, constants)
    h = build_fock_hamiltonian(spec.squid, scales, spec.run.dim, constants)
    psi0 = coherent_state(spec.state.alpha, spec.run.dim)
    rho0 = np.outer(psi0, psi0.conj())
    tables = {}
    minima = {}
    health = {}
    for g in SQUEEZE_DAMPINGS:
        bath = BathParams(temperature=spec.bath.temperature, damping=g,
                          frequency=spec.bath.frequency)
        traj = propagate(rho0, h, bath, dtau=spec.run.dtau,
                         tau_max=spec.run.tau_max,
                         record_stride=spec.run.record_stride,
                         scales=scales, constants=constants)
        name = f"trajectory_g{g:g}.csv"
        tables[name] = (list(traj.COLUMNS), traj.as_table())
        minima[f"{g:g}"] = float(np.min(traj.var_x))
        for key, value in _propagation_health(traj).items():
            health.setdefault(key, {})[f"{g:g}"] = value
    extra = {"min_var_x": minima, **health}
    return Dataset(spec.name, tables, _metadata(spec, constants, extra))


def run_spectrum(spec, constants=CODATA2018):
    return _run_level_sweep(spec, constants)


def run_eigenstates(spec, constants=CODATA2018):
    """One wavefunction CSV (x, re_psi, im_psi, density) per level."""
    scales = derive_scales(spec.squid, constants)
    h = build_fock_hamiltonian(spec.squid, scales, spec.run.dim, constants)
    count = spec.sweep.levels
    spectral = eigensolve(h, count=count)
    x = spec.grid.x_axis()
    tables = {}
    for k in range(count):
        psi = position_wavefunction(spectral.eigenvectors[:, k], x)
        tables[f"eigenstate_{k}.csv"] = (
            ["x", "re_psi", "im_psi", "density"],
            np.column_stack([x, psi.real, psi.imag, np.abs(psi) ** 2]))
    extra = {"eigenvalues": [float(v) for v in spectral.eigenvalues]}
    return Dataset("eigenstates", tables, _metadata(spec, constants, extra))


def run_wigner(spec, constants=CODATA2018):
    _, psi = _resolve_state(spec, constants)
    fld = wigner_function(psi, spec.grid.x_axis(), spec.grid.p_axis())
    tables = {"wigner.csv": _field_table(fld)}
    extra = {"fields": {"wigner.csv": _field_descriptor(fld, spec)}}
    return Dataset("wigner", tables, _metadata(spec, constants, extra))


def run_weyl(spec, constants=CODATA2018):
    _, psi = _resolve_state(spec, constants)
    fld = weyl_function(psi, spec.grid.x_axis(), spec.grid.p_axis())
    tables = {"weyl.csv": _field_table(fld)}
    extra = {"fields": {"weyl.csv": _field_descriptor(fld, spec)}}
    return Dataset("weyl", tables, _metadata(spec, constants, extra))


def run_evolve(spec, constants=CODATA2018):
    """Lindblad evolution of the configured state; optional rho snapshots."""
    if spec.bath is None:
        raise ConfigError("evolve needs bath.* settings")
    scales = derive_scales(spec.squid, constants)
    h, psi = _resolve_state(spec, constants)
    rho0 = np.outer(psi, psi.conj())
    traj = propagate(rho0, h, spec.bath, dtau=spec.run.dtau,
                     tau_max=spec.run.tau_max,
                     record_stride=spec.run.record_stride,
                     snapshot_stride=spec.run.snapshot_stride,
                     scales=scales, constants=constants)
    tables = {"trajectory.csv": (list(traj.COLUMNS), traj.as_table())}
    for tau, rho in zip(traj.snapshot_times, traj.snapshots):
        idx = [f"n{k}" for k in range(rho.shape[0])]
        tables[f"rho_tau{tau:07.2f}_re.csv"] = (idx, rho.real)
        tables[f"rho_tau{tau:07.2f}_im.csv"] = (idx, rho.imag)
    return Dataset("evolve", tables,
                   _metadata(spec, constants, _propagation_health(traj)))


def _write_atomic(path, text):
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _csv_text(columns, rows):
    lines = [",".join(columns)]
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    for row in rows:
        lines.append(",".join(FLOAT_FMT % v for v in row))
    return "\n".join(lines) + "\n"


def emit_dataset(dataset: Dataset, out_dir, fmt="csv"):
    """Write a dataset atomically; returns the list of paths written.

    fmt="csv" writes one CSV per table plus metadata.json; fmt="json-bundle"
    writes a single JSON document embedding tables and metadata.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt == "csv":
        for filename, (columns, rows) in dataset.tables.items():
            path = os.path.join(out_dir, filename)
            _write_atomic(path, _csv_text(columns, rows))
            written.append(path)
        meta_path = os.path.join(out_dir, "metadata.json")
        meta = dict(dataset.metadata)
        meta["tables"] = {
            name: {"columns": list(cols), "rows": int(np.atleast_2d(rows).shape[0])}
            for name, (cols, rows) in dataset.tables.items()}
        _write_atomic(meta_path, json.dumps(meta, sort_keys=True, indent=2) + "\n")
        written.append(meta_path)
    elif fmt == "json-bundle":
        bundle = {
            "metadata": dataset.metadata,
            "tables": {
                name: {"columns": list(cols),
                       "rows": np.atleast_2d(np.asarray(rows, float)).tolist()}
                for name, (cols, rows) in dataset.tables.items()},
        }
        path = os.path.join(out_dir, f"{dataset.name}.json")
        _write_atomic(path, json.dumps(bundle, sort_keys=True, indent=2) + "\n")
        written.append(path)
    else:
        raise ConfigError(f"unknown emit format {fmt!r}")
    return written
