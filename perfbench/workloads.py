"""Workload definitions: seeded CLI jobs, layer warm-ups and output checks.

A workload is a list of CLI jobs, each a built-in scenario plus flat
config overrides.  The seed varies inputs that do not change the amount of
work (sweep start offset, superposition phase, coherent-state phase, a small
bias jitter); seed 0 keeps every scenario default.  Checks read the emitted
files and hold for any seed: they compare against independent oracles and
invariants with the acceptance-criteria tolerances, never against bytes.
Comparison with stored reference values applies to seed 0 only.  Why each
workload exists is recorded next to its name in BENCHMARK.json.
"""

import csv
import json
import math
import os
import random
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int                 # basis size used for the warm-up build
    layers: tuple            # layers warmed up during set-up
    jobs: object             # seed -> [(scenario, {key: value})]
    check: object            # CheckContext -> None


@dataclass
class CheckContext:
    """What a check can see: the last pass's output directory per job, the
    values captured by the tracer (traced runs only), the seed and the
    squidsim package."""

    seed: int
    jobs: list               # [(scenario, overrides)]
    out_dirs: list           # one directory per job
    captured: dict
    sq: object
    results: list            # [{"check", "job", "value", "limit", "ok"}]
    timings: dict

    def record(self, job, name, value, limit, ok):
        self.results.append({"check": name, "job": job, "value": value,
                             "limit": limit, "ok": bool(ok)})

    def job_of(self, scenario):
        return [name for name, _ in self.jobs].index(scenario)

    def dir_of(self, scenario):
        return self.out_dirs[self.job_of(scenario)]


def read_table(path):
    """(column names, float array) of one emitted CSV table."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def read_metadata(out_dir):
    with open(os.path.join(out_dir, "metadata.json")) as fh:
        return json.load(fh)


def _grid_field(header, data, value_col):
    """Long-format field table -> (x, p, values[x, p])."""
    x = np.unique(data[:, 0])
    p = np.unique(data[:, 1])
    values = data[:, header.index(value_col)].reshape(len(x), len(p))
    return x, p, values


def _trapezoid(axis):
    w = np.full(len(axis), axis[1] - axis[0])
    w[0] = w[-1] = 0.5 * w[0]
    return w


def wigner_normalization(path):
    header, data = read_table(path)
    x, p, w = _grid_field(header, data, "value")
    return float(_trapezoid(x) @ w @ _trapezoid(p))


def weyl_origin(path):
    header, data = read_table(path)
    x, p, re = _grid_field(header, data, "re")
    return float(re[np.argmin(np.abs(x)), np.argmin(np.abs(p))])


def density_normalizations(path):
    """Integral of each level's density in a potential/density panel.

    Each level column is |psi_k|^2 + E_k; the density vanishes at the grid
    edge, so the edge value stands in for the energy offset.
    """
    header, data = read_table(path)
    x = data[:, 0]
    w = _trapezoid(x)
    return [float(w @ (data[:, k] - data[0, k]))
            for k, name in enumerate(header) if name.startswith("level")]


def _files(out_dir, prefix):
    return sorted(f for f in os.listdir(out_dir) if f.startswith(prefix))


# ------------------------------------------------------------------ spectrum

SWEEP_STEP = 1.0 / 30.0
SWEEP_POINTS = 31
SWEEP_LEVELS = 10
ORACLE_BIASES = 2


def spectrum_jobs(seed):
    rng = random.Random(seed)
    start = rng.uniform(0.0, SWEEP_STEP) if seed else 0.0
    return [
        ("level-sweep", {
            "run.dim": 400, "sweep.levels": SWEEP_LEVELS,
            "sweep.start": start, "sweep.step": SWEEP_STEP,
            # half a step of slack so the last point survives rounding
            "sweep.stop": start + (SWEEP_POINTS - 0.5) * SWEEP_STEP}),
        ("potential-wells", {}),
    ]


def spectrum_check(ctx):
    job = ctx.job_of("level-sweep")
    _, sweep = read_table(os.path.join(ctx.dir_of("level-sweep"),
                                       "level_sweep.csv"))
    ctx.record(job, "level_sweep.rows", sweep.shape[0], SWEEP_POINTS,
               sweep.shape == (SWEEP_POINTS, SWEEP_LEVELS + 1))
    ctx.record(job, "level_sweep.ascending", None, None,
               np.all(np.diff(sweep[:, 1:], axis=1) >= 0.0))
    # criterion 3: the number-basis spectrum matches the flux-grid oracle
    rng = random.Random(ctx.seed)
    rows = sorted(rng.sample(range(sweep.shape[0]), ORACLE_BIASES))
    sq = ctx.sq
    start = time.perf_counter()
    worst = 0.0
    for row in rows:
        ring = sq.standard_ring(float(sweep[row, 0]))
        oracle = sq.build_flux_grid_hamiltonian(
            ring, frame="flux").solve_values(SWEEP_LEVELS)
        worst = max(worst, float(np.max(np.abs(sweep[row, 1:] - oracle))))
    ctx.timings["hamiltonian.flux_grid_oracle_s"] = time.perf_counter() - start
    ctx.record(job, "level_sweep.oracle_max_abs_diff", worst, 1e-6,
               worst < 1e-6)

    job = ctx.job_of("potential-wells")
    out = ctx.dir_of("potential-wells")
    panels = _files(out, "potential_wells_")
    ctx.record(job, "potential_wells.panels", len(panels), 3, len(panels) == 3)
    for name in panels:
        norms = density_normalizations(os.path.join(out, name))
        err = max(abs(n - 1.0) for n in norms)
        ctx.record(job, f"{name}.density_norm_err", err, 1e-4, err <= 1e-4)


# ---------------------------------------------------------------- cat-fields

def cat_jobs(seed):
    rng = random.Random(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi) if seed else 0.0
    bias = 0.49 + (rng.uniform(-1e-3, 1e-3) if seed else 0.0)
    return [
        ("cat-049", {"state.theta_rad": theta, "squid.bias_flux_phi0": bias}),
        ("cat-phase", {}),
        ("friedman", {}),
    ]


def cat_check(ctx):
    for job, (scenario, _) in enumerate(ctx.jobs):
        out = ctx.out_dirs[job]
        fields = _files(out, "wigner_")
        expected = 1 if scenario == "cat-049" else 3
        ctx.record(job, f"{scenario}.wigner_tables", len(fields), expected,
                   len(fields) == expected)
        for name in fields:
            err = abs(wigner_normalization(os.path.join(out, name)) - 1.0)
            ctx.record(job, f"{scenario}/{name}.norm_err", err, 1e-4,
                       err <= 1e-4)
    out = ctx.dir_of("friedman")
    norms = density_normalizations(os.path.join(out, "potential_wells.csv"))
    err = max(abs(n - 1.0) for n in norms)
    ctx.record(ctx.job_of("friedman"), "friedman.density_norm_err", err, 1e-4,
               err <= 1e-4)
    # reported by traced runs, not gated: the imaginary residue that the
    # Wigner sum discards
    residual = ctx.captured.get("phase_space.wigner_function.imag_residual")
    if residual is not None:
        ctx.record(None, "wigner.imag_residual_max", residual, None, True)


# ------------------------------------------------------------------ decohere

DECOHERE_STEPS = 30
DECOHERE_SNAPSHOTS = 3


def decohere_jobs(seed):
    rng = random.Random(seed)
    bias = 0.5 + (rng.uniform(-5e-4, 5e-4) if seed else 0.0)
    dtau = 0.005
    return [("decohere-cat", {
        "squid.bias_flux_phi0": bias, "run.dim": 400, "run.dtau": dtau,
        "run.tau_max": DECOHERE_STEPS * dtau, "run.record_stride": 5,
        "run.snapshot_stride": DECOHERE_STEPS // (DECOHERE_SNAPSHOTS - 1),
        "grid.x_points": 65, "grid.p_points": 65})]


def _trace_errors(ctx, job, out, names):
    worst = 0.0
    for name in names:
        header, data = read_table(os.path.join(out, name))
        worst = max(worst, float(np.max(np.abs(data[:, header.index("trace")]
                                               - 1.0))))
    # criterion 9
    ctx.record(job, "trajectory.trace_err", worst, 1e-8, worst <= 1e-8)
    corr = ctx.captured.get("dynamics.propagate.max_trace_correction")
    if corr is not None:
        ctx.record(job, "propagate.max_trace_correction", corr, 1e-8,
                   corr <= 1e-8)


def decohere_check(ctx):
    job = 0
    out = ctx.out_dirs[job]
    meta = read_metadata(out)
    _trace_errors(ctx, job, out, ["trajectory.csv"])
    corr = meta["max_trace_correction"]
    ctx.record(job, "metadata.max_trace_correction", corr, 1e-8, corr <= 1e-8)
    snaps = len(meta["snapshot_taus"])
    ctx.record(job, "snapshots", snaps, DECOHERE_SNAPSHOTS,
               snaps >= DECOHERE_SNAPSHOTS)
    for name in _files(out, "wigner_tau"):
        err = abs(wigner_normalization(os.path.join(out, name)) - 1.0)
        ctx.record(job, f"{name}.norm_err", err, 1e-4, err <= 1e-4)
    # criterion 10: the central Weyl value is the trace over 2*pi
    for name in _files(out, "weyl_tau"):
        err = abs(weyl_origin(os.path.join(out, name)) - 1.0 / (2.0 * np.pi))
        ctx.record(job, f"{name}.origin_err", err, 1e-3, err <= 1e-3)
    rank = ctx.captured.get("phase_space.kernel_rank_max")
    if rank is not None:
        ctx.record(None, "phase_space.kernel_rank_max", rank, None, True)


# ------------------------------------------------------------------- squeeze

SQUEEZE_DIM = 160
SQUEEZE_STEPS = 80
# seed-0 summaries recorded at the commit that introduced this benchmark;
# min var_x and final purity per damping of the shortened squeeze run
SQUEEZE_REFERENCE = {
    "0": {"min_var_x": 0.09152756964240155, "final_purity": 0.999999969236},
    "0.001": {"min_var_x": 0.09162177621357642, "final_purity": 0.999372067286},
    "0.01": {"min_var_x": 0.09246849872388041, "final_purity": 0.993793150434},
    "0.1": {"min_var_x": 0.10082429048286187, "final_purity": 0.944346216378},
}
SQUEEZE_REFERENCE_TOL = 1e-6


def squeeze_jobs(seed):
    rng = random.Random(seed)
    phase = rng.uniform(-math.pi / 8.0, math.pi / 8.0) if seed else 0.0
    dtau = 0.005
    return [("squeeze", {
        "run.dim": SQUEEZE_DIM, "run.dtau": dtau,
        "run.tau_max": SQUEEZE_STEPS * dtau, "run.record_stride": 5,
        "state.alpha_re": -math.sin(phase), "state.alpha_im": math.cos(phase)})]


def squeeze_check(ctx):
    job = 0
    out = ctx.out_dirs[job]
    meta = read_metadata(out)
    names = _files(out, "trajectory_g")
    ctx.record(job, "trajectories", len(names), 4, len(names) == 4)
    _trace_errors(ctx, job, out, names)
    worst_uncertainty = math.inf
    for name in names:
        header, data = read_table(os.path.join(out, name))
        prod = data[:, header.index("var_x")] * data[:, header.index("var_p")]
        worst_uncertainty = min(worst_uncertainty, float(np.min(prod)))
    # Heisenberg: var_x * var_p >= 1/4 for every state
    ctx.record(job, "min_var_x_var_p", worst_uncertainty, 0.25,
               worst_uncertainty >= 0.25 - 1e-9)
    header, data = read_table(os.path.join(out, "trajectory_g0.csv"))
    drift = float(np.max(np.abs(data[:, header.index("purity")] - 1.0)))
    # criterion 9: closed evolution keeps the state pure
    ctx.record(job, "g0.purity_drift", drift, 1e-6, drift < 1e-6)
    if ctx.seed != 0:
        return
    for g, ref in SQUEEZE_REFERENCE.items():
        got = meta["min_var_x"][g]
        err = abs(got - ref["min_var_x"])
        ctx.record(job, f"g{g}.min_var_x_vs_reference", err,
                   SQUEEZE_REFERENCE_TOL, err <= SQUEEZE_REFERENCE_TOL)
        header, data = read_table(os.path.join(out, f"trajectory_g{g}.csv"))
        err = abs(float(data[-1, header.index("purity")]) - ref["final_purity"])
        ctx.record(job, f"g{g}.final_purity_vs_reference", err,
                   SQUEEZE_REFERENCE_TOL, err <= SQUEEZE_REFERENCE_TOL)


WORKLOADS = {w.name: w for w in (
    Workload("spectrum", 400, ("hamiltonian", "sweep", "states", "emit"),
             spectrum_jobs, spectrum_check),
    Workload("cat-fields", 400, ("hamiltonian", "states", "phase_space", "emit"),
             cat_jobs, cat_check),
    Workload("decohere", 400, ("hamiltonian", "phase_space", "dynamics", "emit"),
             decohere_jobs, decohere_check),
    Workload("squeeze", SQUEEZE_DIM, ("hamiltonian", "dynamics", "emit"),
             squeeze_jobs, squeeze_check),
)}
