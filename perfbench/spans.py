"""Outside-in layer tracing for squidsim.

The tracer wraps squidsim functions from outside the program: the public
ones of each layer plus phase_space._state_weights, whose result gives the
rank of the Wigner/Weyl kernel.  Modules bind each other's functions with
from-imports (scenarios imports propagate, wigner_function, ...), and
spectrum_sweep calls build_fock_hamiltonian through hamiltonian's own
globals, so a function is replaced at every module attribute that holds it.  Each call records a span
(name, parent, start, end) in memory; hooks add counters taken from the
call's arguments and result.  Nothing inside src/ is edited.

A span's self time is its duration minus the durations of its child spans
(calls are sequential, so children never overlap).
"""

import functools
import inspect
import os
import sys
import time
from collections import defaultdict


def _emit_hook(tracer, args, result):
    dataset = args["dataset"]
    tracer.add("scenarios.emit_dataset.bytes",
               sum(os.path.getsize(p) for p in result))
    tracer.add("scenarios.emit_dataset.rows",
               sum(len(rows) for _, rows in dataset.tables.values()))


def _eigensolve_hook(tracer, args, result):
    tracer.add("hamiltonian.eigensolve.pairs_returned", result.eigenvalues.size)
    tracer.add("hamiltonian.eigensolve.pairs_computed",
               len(args["hamiltonian"]))


def _sweep_hook(tracer, args, result):
    biases, kept = result.levels.shape
    tracer.add("hamiltonian.spectrum_sweep.levels_kept", biases * kept)
    tracer.add("hamiltonian.spectrum_sweep.levels_computed",
               biases * args["dim"])


def _field_hook(name):
    def hook(tracer, args, result):
        tracer.add(f"phase_space.{name}.points", result.values.size)
        tracer.keep_max(f"phase_space.{name}.imag_residual",
                        result.imag_residual)
    return hook


def _weights_hook(tracer, args, result):
    rank = len(result[0])
    tracer.add("phase_space.kernel_rank_sum", rank)
    tracer.keep_max("phase_space.kernel_rank_max", rank)


def _propagate_hook(tracer, args, result):
    steps = int(round(args["tau_max"] / args["dtau"]))
    dim = len(args["hamiltonian"])
    tracer.add("dynamics.propagate.steps", steps)
    tracer.add("dynamics.propagate.records", len(result.times))
    tracer.add("dynamics.propagate.snapshots", len(result.snapshots))
    # four right-hand sides per RK4 step, each two dense complex GEMMs
    # (H rho and rho H) of 8 dim^3 real flops
    tracer.add("dynamics.propagate.gemm_flop", steps * 4 * 2 * 8.0 * dim**3)
    tracer.keep_max("dynamics.propagate.max_trace_correction",
                    result.max_trace_correction)


PACKAGE = "squidsim"

# (module, function) -> hook run on the bound arguments and the result
TARGETS = {
    ("cli", "main"): None,
    ("scenarios", "run_scenario"): None,
    ("scenarios", "emit_dataset"): _emit_hook,
    ("operators", "cosine_operator"): None,
    ("hamiltonian", "build_fock_hamiltonian"): None,
    ("hamiltonian", "eigensolve"): _eigensolve_hook,
    ("hamiltonian", "spectrum_sweep"): _sweep_hook,
    ("states", "position_wavefunction"): None,
    ("states", "classify_well_states"): None,
    ("states", "parity_pair"): None,
    ("phase_space", "wigner_function"): _field_hook("wigner_function"),
    ("phase_space", "weyl_function"): _field_hook("weyl_function"),
    ("phase_space", "_state_weights"): _weights_hook,
    ("dynamics", "propagate"): _propagate_hook,
}
LAYERS = [f"{module}.{func}" for module, func in TARGETS]


class Tracer:
    """Context manager that wraps TARGETS while active."""

    def __init__(self):
        self.spans = []          # [name, parent index or None, start, end]
        self.counters = defaultdict(float)
        self.maxima = {}
        self._stack = []
        self._restore = []

    def add(self, key, value):
        self.counters[key] += value

    def keep_max(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def _wrap(self, name, fn, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result
        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for (module, func), hook in TARGETS.items():
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], func)
            wrapped = self._wrap(f"{module}.{func}", original, hook)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()
        return False

    def span_stats(self):
        """{layer: {"calls", "busy_s", "self_s"}} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        stats = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                 for layer in LAYERS}
        for i, (name, _, start, end) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return stats

    def dump(self):
        return {"spans": self.spans, "counters": dict(self.counters),
                "maxima": self.maxima}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats, counters):
    """Per-layer metric values derived from one traced pass."""
    out = {}
    for layer, entry in stats.items():
        for stat, value in entry.items():
            out[f"{layer}.{stat}"] = value
    c = counters
    emit_busy = stats["scenarios.emit_dataset"]["busy_s"]
    out["scenarios.emit_dataset.bytes"] = c.get("scenarios.emit_dataset.bytes", 0)
    out["scenarios.emit_dataset.rows"] = c.get("scenarios.emit_dataset.rows", 0)
    out["scenarios.emit_dataset.mb_per_s"] = _ratio(
        c.get("scenarios.emit_dataset.bytes", 0) / 1e6, emit_busy)
    out["hamiltonian.eigensolve.useful_ratio"] = _ratio(
        c.get("hamiltonian.eigensolve.pairs_returned", 0),
        c.get("hamiltonian.eigensolve.pairs_computed", 0))
    out["hamiltonian.spectrum_sweep.useful_ratio"] = _ratio(
        c.get("hamiltonian.spectrum_sweep.levels_kept", 0),
        c.get("hamiltonian.spectrum_sweep.levels_computed", 0))
    for field in ("wigner_function", "weyl_function"):
        out[f"phase_space.{field}.points_per_s"] = _ratio(
            c.get(f"phase_space.{field}.points", 0),
            stats[f"phase_space.{field}"]["busy_s"])
    out["phase_space.kernel_rank"] = _ratio(
        c.get("phase_space.kernel_rank_sum", 0),
        stats["phase_space._state_weights"]["calls"])
    steps = c.get("dynamics.propagate.steps", 0)
    out["dynamics.propagate.steps"] = steps
    out["dynamics.propagate.rhs_evals"] = 4 * steps
    out["dynamics.propagate.ms_per_step"] = _ratio(
        1e3 * stats["dynamics.propagate"]["busy_s"], steps)
    out["dynamics.propagate.records"] = c.get("dynamics.propagate.records", 0)
    out["dynamics.propagate.snapshots"] = c.get("dynamics.propagate.snapshots", 0)
    out["dynamics.propagate.gemm_gflop"] = c.get(
        "dynamics.propagate.gemm_flop", 0) / 1e9
    return out
