"""Named scenarios, the config-key table, dataset assembly and emission.

A ScenarioSpec converts to and from a flat {"section.key": "value"} mapping
through one key table, _KEYS.  Keys named after a field of the state, grid,
sweep or run dataclass are derived from it; the others, the scenario name
and keys whose names carry a unit, have explicit rows.  A key overrides
only its own field of the base spec.  Numbers must be finite, counts at
least 1, grids and the basis at least 2 points wide, steps positive and
indices below the basis size; ScenarioSpec checks these ranges as one
ordered list of rules, and the ConfigError names the first rule broken.

SCENARIOS maps each scenario name, each also a CLI subcommand, to its
default spec and its runner.  A runner returns named tables, (columns,
rows) or a PhaseSpaceField, and extra metadata; run_scenario wraps them in
a Dataset whose metadata echoes the full configuration, the derived scales
and the integrator settings, so a run can be reproduced bit-identically
from its own metadata.  Runners that start from one state take it from
spec.state.
"""

import dataclasses
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .dynamics import BathParams, bath_occupation, propagate
from .errors import (ConfigError, DegeneracyError, GridResolutionWarning,
                     ParameterError)
from .hamiltonian import (build_fock_hamiltonian, eigensolve,
                          potential_energy_scaled, spectrum_sweep)
from .params import SquidParams, derive_scales
from .phase_space import (PhaseSpaceField, phase_space_diagnostics,
                          weyl_function, wigner_function)
from .states import (classify_well_states, coherent_state, parity_pair,
                     phase_superposition, position_wavefunction)

__all__ = [
    "GridSpec", "StateRecipe", "RunSettings", "SweepSpec", "ScenarioSpec",
    "Dataset", "SCENARIOS", "standard_ring", "squeeze_ring",
    "friedman_ring", "builtin_scenario", "run_scenario", "emit_dataset",
]

FLOAT_FMT = "%.12g"
# rows formatted per write: the per-block overhead is negligible, and a
# block's text stays well under a megabyte
CSV_BLOCK_ROWS = 4096
MARGINAL_TOLERANCE = 1e-4  # the acceptance tolerance of Wigner normalization
STATE_KINDS = ("eigenstate", "coherent", "superposition")


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
    kind: str = "eigenstate"      # one of STATE_KINDS
    index: int = 0
    alpha_re: float = 0.0         # coherent amplitude
    alpha_im: float = 0.0
    theta: float = 0.0
    pair_a: int = 0               # doublet of a superposition
    pair_b: int = 1


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

    def __post_init__(self):
        # the first broken rule is reported; run.dim comes first, since the
        # index and level ranges are relative to it
        state, grid, sweep, run = self.state, self.grid, self.sweep, self.run
        index = _within(0, run.dim - 1)
        rules = (
            ("run.dim", run.dim, _within(2)),
            ("state.kind", state.kind,
             lambda kind: None if kind in STATE_KINDS
             else f"one of {', '.join(STATE_KINDS)}"),
            ("state.index", state.index, index),
            ("state.pair_a", state.pair_a, index),
            ("state.pair_b", state.pair_b, index),
            ("grid.x_max", grid.x_max, _exceeding(grid.x_min)),
            ("grid.x_points", grid.x_points, _within(2)),
            ("grid.p_max", grid.p_max, _exceeding(grid.p_min)),
            ("grid.p_points", grid.p_points, _within(2)),
            ("sweep.stop", sweep.stop, _within(sweep.start)),
            ("sweep.step", sweep.step, _exceeding(0.0)),
            ("sweep.levels", sweep.levels, _within(1, run.dim)),
            ("run.dtau", run.dtau, _exceeding(0.0)),
            ("run.tau_max", run.tau_max, _within(0.0)),
            ("run.record_stride", run.record_stride, _within(1)),
            ("run.snapshot_stride", run.snapshot_stride, _within(1)),
        )
        for name, value, check in rules:
            allowed = None if value is None else check(value)
            if allowed is not None:
                raise ConfigError(f"{name} = {value!r} must be {allowed}")

    def to_flat(self):
        """Flat string mapping understood by the config parser."""
        out = {}
        for key in _KEYS.values():
            value = key.read(self)
            if key.emit and value is not None:
                out[key.name] = value if key.parse is str else repr(value)
        return out

    @classmethod
    def from_flat(cls, mapping, defaults=None):
        """Build a spec from a flat mapping; unknown keys are an error.

        Each key replaces one field of `defaults` (the standard ring when
        None); a bath key on a spec without a bath starts from T = 1 K and
        zero damping.
        """
        unknown = set(mapping) - set(_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        energy_keys = [k.name for k in _KEYS.values()
                       if k.field == "josephson_energy"]
        if set(energy_keys) <= set(mapping):
            raise ConfigError(f"give {' or '.join(energy_keys)}, not both")
        base = defaults if defaults is not None else cls("custom", standard_ring())

        edits = {}    # section -> {field: value}; section None is the spec
        for name, text in mapping.items():
            key = _KEYS[name]
            try:
                value = key.parse(text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {name}: {text!r}") from exc
            edits.setdefault(key.section, {})[key.field] = value
        try:
            sections = {section: dataclasses.replace(
                            getattr(base, section) or _NEW_BATH, **fields)
                        for section, fields in edits.items() if section}
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc
        return dataclasses.replace(base, **sections, **edits.get(None, {}))


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _energy_from_current(text):
    """Josephson energy (joule) of a junction with critical current `text`."""
    return SquidParams.from_critical_current(
        1.0, 1.0, _finite_float(text)).josephson_energy


def _within(low, high=math.inf):
    """Check of the range [low, high]: None inside, else the allowed range."""
    return lambda value: (None if low <= value <= high
                          else f"in [{low!r}, {high!r}]")


def _exceeding(low):
    """Check of the values above low: None there, else the allowed range."""
    return lambda value: None if value > low else f"> {low!r}"


@dataclass(frozen=True)
class _Key:
    """One flat config key and the ScenarioSpec field it sets."""

    name: str                 # "section.key"
    section: str | None       # ScenarioSpec attribute; None: the spec itself
    field: str                # attribute of the section
    parse: object = _finite_float   # text -> value; raises ValueError
    emit: bool = True         # written by to_flat

    def read(self, spec):
        """This key's value in `spec`; None where the spec leaves it unset."""
        owner = spec if self.section is None else getattr(spec, self.section)
        return None if owner is None else getattr(owner, self.field)


_EXPLICIT_KEYS = (
    _Key("scenario.name", None, "name", str),
    _Key("squid.capacitance_f", "squid", "capacitance"),
    _Key("squid.inductance_h", "squid", "inductance"),
    _Key("squid.josephson_energy_j", "squid", "josephson_energy"),
    _Key("squid.critical_current_a", "squid", "josephson_energy",
         _energy_from_current, emit=False),
    _Key("squid.bias_flux_phi0", "squid", "bias_flux"),
    _Key("bath.temperature_k", "bath", "temperature"),
    _Key("bath.damping", "bath", "damping"),
    _Key("bath.frequency_rad_s", "bath", "frequency"),
    _Key("state.theta_rad", "state", "theta"),
)
_PARSERS = {float: _finite_float, int: int, int | None: int, str: str}


def _derived_keys():
    """Keys named after the remaining fields of the state, grid, sweep and
    run sections."""
    taken = {(k.section, k.field) for k in _EXPLICIT_KEYS}
    for section, cls in (("state", StateRecipe), ("grid", GridSpec),
                         ("sweep", SweepSpec), ("run", RunSettings)):
        for f in dataclasses.fields(cls):
            if (section, f.name) in taken:
                continue
            yield _Key(f"{section}.{f.name}", section, f.name,
                       _PARSERS[f.type])


_KEYS = {k.name: k for k in (*_EXPLICIT_KEYS, *_derived_keys())}
_NEW_BATH = BathParams(temperature=1.0, damping=0.0)


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


def _registered(name):
    """(default spec, runner) of a built-in scenario."""
    if name not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}; expected one of {', '.join(SCENARIOS)}")
    return SCENARIOS[name]


def builtin_scenario(name, overrides=None):
    """ScenarioSpec for a named scenario, with optional flat-key overrides."""
    spec = _registered(name)[0]
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


def _metadata(spec, extra=None):
    scales = derive_scales(spec.squid)
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
        meta["bath_occupation"] = bath_occupation(bath)
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


def _field_descriptor(field_obj):
    """Grid and health of a field; a Wigner field's normalization is its
    trapezoid integral, which should read 1, and its marginal_error the
    largest deviation of its p-marginal from the exact position density,
    which should read below 1e-4."""
    descriptor = {
        "kind": field_obj.kind,
        "x_min": float(field_obj.x[0]), "x_max": float(field_obj.x[-1]),
        "x_points": len(field_obj.x),
        "p_min": float(field_obj.p[0]), "p_max": float(field_obj.p[-1]),
        "p_points": len(field_obj.p),
        "imag_residual": field_obj.imag_residual,
    }
    if field_obj.kind == "wigner":
        descriptor["normalization"] = phase_space_diagnostics(
            field_obj).normalization
        descriptor["marginal_error"] = field_obj.marginal_error
    return descriptor


def _level_panel(x, ring, scales, spectral, levels):
    """Columns x, potential and level k = |psi_k(x)|^2 + E_k, k < levels."""
    psi = position_wavefunction(spectral.eigenvectors[:, :levels], x)
    cols = ["x", "potential"] + [f"level{k}" for k in range(levels)]
    return cols, np.column_stack([
        x, potential_energy_scaled(x, ring, scales),
        np.abs(psi) ** 2 + spectral.eigenvalues[:levels]])


def _ring_hamiltonian(spec):
    """Derived scales and number-basis Hamiltonian of the spec's ring."""
    scales = derive_scales(spec.squid)
    return scales, build_fock_hamiltonian(spec.squid, scales, spec.run.dim)


def _superposition_states(spec, scales, h):
    """(s, a) members used by the superposition scenarios."""
    spectral = eigensolve(h)
    i, j = spec.state.pair_a, spec.state.pair_b
    try:
        return parity_pair(spectral, spec.squid, scales, indices=(i, j))
    except (DegeneracyError, ParameterError):
        # asymmetric wells: keep the eigensolver's deterministic phases
        return (spectral.eigenvectors[:, i].astype(complex),
                spectral.eigenvectors[:, j].astype(complex))


def _resolve_state(spec):
    """Scales, Hamiltonian and the state vector requested by spec.state."""
    scales, h = _ring_hamiltonian(spec)
    if spec.state.kind == "coherent":
        psi = coherent_state(complex(spec.state.alpha_re, spec.state.alpha_im),
                             spec.run.dim)
    elif spec.state.kind == "eigenstate":
        spectral = eigensolve(h, count=spec.state.index + 1)
        psi = spectral.eigenvectors[:, spec.state.index].astype(complex)
    else:
        s, a = _superposition_states(spec, scales, h)
        psi = phase_superposition(s, a, spec.state.theta)
    return scales, h, psi


def run_scenario(spec: ScenarioSpec) -> Dataset:
    """Execute a registered scenario and return its Dataset; each
    PhaseSpaceField table is filed in long format, with its descriptor
    under metadata["fields"].  A Wigner table whose marginal_error or
    |normalization - 1| exceeds MARGINAL_TOLERANCE gets one
    GridResolutionWarning that names it."""
    tables, extra = _registered(spec.name)[1](spec)
    fields = {}
    for name, table in tables.items():
        if isinstance(table, PhaseSpaceField):
            desc = fields[name] = _field_descriptor(table)
            tables[name] = _field_table(table)
            if desc["kind"] == "wigner" and not (
                    desc["marginal_error"] <= MARGINAL_TOLERANCE
                    and abs(desc["normalization"] - 1.0) <= MARGINAL_TOLERANCE):
                warnings.warn(
                    f"Wigner table {name}: x-marginal error "
                    f"{desc['marginal_error']:.3g}, normalization "
                    f"{desc['normalization']:.6g} (tolerance "
                    f"{MARGINAL_TOLERANCE:g}): the (x, p) grid is too coarse "
                    f"for the state", GridResolutionWarning)
    if fields:
        extra["fields"] = fields
    return Dataset(spec.name, tables, _metadata(spec, extra))


# A runner maps a spec to (tables, extra metadata).

def _run_potential_wells(spec):
    tables = {}
    x = spec.grid.x_axis()
    for bias in (0.0, 0.49, 0.5):
        ring = spec.squid.with_bias(bias)
        scales = derive_scales(ring)
        h = build_fock_hamiltonian(ring, scales, spec.run.dim)
        spectral = eigensolve(h, count=spec.sweep.levels)
        tables[f"potential_wells_phix{bias:.2f}.csv"] = _level_panel(
            x, ring, scales, spectral, spec.sweep.levels)
    return tables, {}


def _run_level_sweep(spec):
    sweep = spectrum_sweep(spec.squid, spec.sweep.start, spec.sweep.stop,
                           spec.sweep.step, levels=spec.sweep.levels,
                           dim=spec.run.dim)
    cols = ["phi_x"] + [f"E{i}" for i in range(sweep.levels.shape[1])]
    tables = {"level_sweep.csv": (cols, np.column_stack([sweep.bias_values,
                                                         sweep.levels]))}
    return tables, {}


def _run_cat_049(spec):
    """Wigner field of the configured state as
    `wigner_<label>_phix<bias>.csv`; the label is `cat` for a superposition,
    `eigenstate<index>` or `coherent`."""
    _, _, psi = _resolve_state(spec)
    fld = wigner_function(psi, spec.grid.x_axis(), spec.grid.p_axis())
    state = spec.state
    label = {"superposition": "cat", "eigenstate": f"eigenstate{state.index}",
             "coherent": "coherent"}[state.kind]
    return ({f"wigner_{label}_phix{spec.squid.bias_flux:.2f}.csv": fld},
            {"wigner_negativity_volume":
                 phase_space_diagnostics(fld).negativity_volume})


def _theta_fields(s, a, spec):
    """Wigner fields of (s + e^{i theta} a)/sqrt(2) for theta = 0, pi/2 and
    pi, by file name."""
    return {f"wigner_theta{theta:.2f}.csv": wigner_function(
                phase_superposition(s, a, theta),
                spec.grid.x_axis(), spec.grid.p_axis())
            for theta in (0.0, np.pi / 2.0, np.pi)}


def _run_cat_phase(spec):
    s, a = _superposition_states(spec, *_ring_hamiltonian(spec))
    return _theta_fields(s, a, spec), {}


def _run_friedman(spec):
    scales, h = _ring_hamiltonian(spec)
    spectral = eigensolve(h)
    classification = classify_well_states(spectral, spec.squid, scales)
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

    levels = min(j + 3, spectral.eigenvalues.size)
    tables = {"potential_wells.csv": _level_panel(
        spec.grid.x_axis(), spec.squid, scales, spectral, levels),
        **_theta_fields(spectral.eigenvectors[:, i],
                        spectral.eigenvectors[:, j], spec)}
    return tables, {
        "pair_indices": [i, j],
        "pair_splitting_hbar_omega": float(spectral.eigenvalues[j]
                                           - spectral.eigenvalues[i]),
        "pair_well_ordinals": {str(w): o for w, o in best.ordinals},
    }


def _propagate(spec, bath, scales, h, psi):
    """Thermal-bath evolution of the pure state psi under spec.run."""
    return propagate(np.outer(psi, psi.conj()), h, bath, dtau=spec.run.dtau,
                     tau_max=spec.run.tau_max,
                     record_stride=spec.run.record_stride,
                     snapshot_stride=spec.run.snapshot_stride, scales=scales)


def _propagation_health(traj):
    """Deterministic numerical-health figures of one propagation."""
    return {"max_trace_correction": traj.max_trace_correction,
            "max_hermiticity_defect": traj.max_hermiticity_defect,
            "energy_levels_kept": traj.energy_levels_kept,
            "leaked_population": traj.leaked_population,
            "min_snapshot_eigenvalue": traj.min_eigenvalue}


def _run_decohere_cat(spec):
    scales, h, psi = _resolve_state(spec)
    traj = _propagate(spec, spec.bath, scales, h, psi)
    tables = {"trajectory.csv": (list(traj.COLUMNS), traj.as_table())}
    x, p = spec.grid.x_axis(), spec.grid.p_axis()
    # the factored snapshots go straight to the kernels, never dense
    for tau, snap in zip(traj.snapshot_times, traj.snapshots):
        tables[f"wigner_tau{tau:07.2f}.csv"] = wigner_function(snap, x, p)
        tables[f"weyl_tau{tau:07.2f}.csv"] = weyl_function(snap, x, p)
    return tables, {"snapshot_taus": [float(t) for t in traj.snapshot_times],
                    **_propagation_health(traj)}


SQUEEZE_DAMPINGS = (0.0, 0.001, 0.01, 0.1)


def _run_squeeze(spec):
    """One trajectory per damping; snapshots only feed the health keys."""
    scales, h, psi = _resolve_state(spec)
    tables, minima, health = {}, {}, {}
    for g in SQUEEZE_DAMPINGS:
        bath = dataclasses.replace(spec.bath, damping=g)
        traj = _propagate(spec, bath, scales, h, psi)
        tables[f"trajectory_g{g:g}.csv"] = (list(traj.COLUMNS), traj.as_table())
        minima[f"{g:g}"] = float(np.min(traj.var_x))
        for key, value in _propagation_health(traj).items():
            health.setdefault(key, {})[f"{g:g}"] = value
    return tables, {"min_var_x": minima, **health}


def _run_eigenstates(spec):
    """One wavefunction CSV (x, re_psi, im_psi, density) per level."""
    _, h = _ring_hamiltonian(spec)
    count = spec.sweep.levels
    spectral = eigensolve(h, count=count)
    x = spec.grid.x_axis()
    psi = position_wavefunction(spectral.eigenvectors, x)
    tables = {}
    for k in range(count):
        tables[f"eigenstate_{k}.csv"] = (
            ["x", "re_psi", "im_psi", "density"],
            np.column_stack([x, psi[:, k].real, psi[:, k].imag,
                             np.abs(psi[:, k]) ** 2]))
    return tables, {"eigenvalues": [float(v) for v in spectral.eigenvalues]}


def _run_field(spec):
    """The configured state's Wigner or Weyl field (after the scenario
    name), as `<name>.csv`."""
    _, _, psi = _resolve_state(spec)
    field_fn = {"wigner": wigner_function, "weyl": weyl_function}[spec.name]
    return {f"{spec.name}.csv": field_fn(psi, spec.grid.x_axis(),
                                         spec.grid.p_axis())}, {}


def _run_evolve(spec):
    """Lindblad evolution of the configured state; optional rho snapshots."""
    if spec.bath is None:
        raise ConfigError("evolve needs bath.* settings")
    scales, h, psi = _resolve_state(spec)
    traj = _propagate(spec, spec.bath, scales, h, psi)
    tables = {"trajectory.csv": (list(traj.COLUMNS), traj.as_table())}
    for tau, snap in zip(traj.snapshot_times, traj.snapshots):
        rho = snap.dense()
        idx = [f"n{k}" for k in range(rho.shape[0])]
        tables[f"rho_tau{tau:07.2f}_re.csv"] = (idx, rho.real)
        tables[f"rho_tau{tau:07.2f}_im.csv"] = (idx, rho.imag)
    return tables, _propagation_health(traj)


def _builtin(name, runner, squid, **sections):
    return name, (ScenarioSpec(name, squid, **sections), runner)


# name -> (default spec, runner); every name is also a CLI subcommand
SCENARIOS = dict([
    _builtin("potential-wells", _run_potential_wells, standard_ring(),
             sweep=SweepSpec(levels=8)),
    _builtin("level-sweep", _run_level_sweep, standard_ring()),
    _builtin("cat-049", _run_cat_049, standard_ring(0.49),
             state=StateRecipe(kind="superposition")),
    _builtin("cat-phase", _run_cat_phase, standard_ring(0.5),
             state=StateRecipe(kind="superposition")),
    _builtin("friedman", _run_friedman, friedman_ring(),
             state=StateRecipe(kind="superposition")),
    _builtin("decohere-cat", _run_decohere_cat, standard_ring(0.5),
             bath=BathParams(temperature=1.0, damping=0.01),
             state=StateRecipe(kind="eigenstate", index=0),
             run=RunSettings(tau_max=30.0, record_stride=20,
                             snapshot_stride=600)),
    _builtin("squeeze", _run_squeeze, squeeze_ring(),
             bath=BathParams(temperature=1.0, damping=0.0),
             state=StateRecipe(kind="coherent", alpha_im=1.0),
             run=RunSettings(dim=160, tau_max=50.0, record_stride=5)),
    _builtin("spectrum", _run_level_sweep, standard_ring()),
    _builtin("eigenstates", _run_eigenstates, standard_ring()),
    _builtin("wigner", _run_field, standard_ring()),
    _builtin("weyl", _run_field, standard_ring()),
    _builtin("evolve", _run_evolve, standard_ring()),
])


def _write_atomic(path, chunks):
    """Write the strings of `chunks` to `path` through a temporary file, so
    a failure part-way leaves neither the file nor the temporary behind."""
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _grid_axes(rows):
    """(x, p) when the first two columns of `rows` are, bit for bit, x
    repeated by p tiled (the layout of _field_table), else None.  Bits are
    compared, so -0.0 and 0.0 differ and NaN matches NaN."""
    if rows.shape[0] == 0 or rows.shape[1] < 2:
        return None
    bits = rows[:, :2].view(np.uint64)
    first = bits[:, 0]
    changes = np.flatnonzero(first != first[0])
    p_len = int(changes[0]) if changes.size else len(first)
    if len(first) % p_len:
        return None
    grid = bits.reshape(-1, p_len, 2)
    x, p = grid[:, 0, 0], grid[0, :, 1]
    if (grid[:, :, 0] == x[:, None]).all() and (grid[:, :, 1] == p).all():
        return rows[::p_len, 0], rows[:p_len, 1]
    return None


def _csv_chunks(columns, rows):
    """A table's CSV text from its 2-D float rows: the header line, then the
    rows.  A field table, whose first two columns are a grid (_grid_axes),
    formats each axis value once and yields one string per x: the row
    template "<x>,<p_j>,%.12g...\\n" over every p_j, filled by one `%`
    operation.  Any other table yields one string per block of
    CSV_BLOCK_ROWS rows, each formatted by a single `%` operation.  Either
    way the bytes are those of formatting every value on its own."""
    yield ",".join(columns) + "\n"
    axes = _grid_axes(rows)
    if axes is not None:
        values_fmt = ("," + FLOAT_FMT) * (rows.shape[1] - 2)
        line_tails = [""] + [f",{FLOAT_FMT % p}{values_fmt}\n"
                             for p in axes[1].tolist()]
        values = rows[:, 2:].reshape(len(axes[0]), -1)
        for x, row in zip(axes[0].tolist(), values):
            # joining the tails with x puts x at the head of every line
            yield (FLOAT_FMT % x).join(line_tails) % tuple(row.tolist())
        return
    row_fmt = ",".join([FLOAT_FMT] * rows.shape[1]) + "\n"
    for start in range(0, rows.shape[0], CSV_BLOCK_ROWS):
        block = rows[start:start + CSV_BLOCK_ROWS]
        yield (row_fmt * block.shape[0]) % tuple(block.ravel().tolist())


def emit_dataset(dataset: Dataset, out_dir, fmt="csv"):
    """Write a dataset atomically; returns the list of paths written.

    fmt="csv" writes one CSV per table plus metadata.json; fmt="json-bundle"
    writes a single JSON document embedding tables and metadata.
    """
    if fmt not in ("csv", "json-bundle"):
        raise ConfigError(f"unknown emit format {fmt!r}")
    tables = {name: (list(cols), np.atleast_2d(np.asarray(rows, dtype=float)))
              for name, (cols, rows) in dataset.tables.items()}
    if fmt == "csv":
        files = {name: _csv_chunks(*table) for name, table in tables.items()}
        doc_name, doc = "metadata.json", {**dataset.metadata, "tables": {
            name: {"columns": cols, "rows": len(rows)}
            for name, (cols, rows) in tables.items()}}
    else:
        files, doc_name = {}, f"{dataset.name}.json"
        doc = {"metadata": dataset.metadata, "tables": {
            name: {"columns": cols, "rows": rows.tolist()}
            for name, (cols, rows) in tables.items()}}
    files[doc_name] = [json.dumps(doc, sort_keys=True, indent=2) + "\n"]
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in files]
    for path, chunks in zip(paths, files.values()):
        _write_atomic(path, chunks)
    return paths
