"""The benchmark's warm-up calls and tracer bindings resolve against the
package.

perfbench/ is loaded read-only from the checkout; each workload's warm-up
runs under the tracer, which must see the phase-space and propagator
functions exactly where that workload warms them up.
"""

import importlib
import pathlib
import sys

import pytest

import squidsim as sq
import squidsim.cli  # noqa: F401  (the tracer rebinds every loaded module)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("spans", "workloads", "worker")


@pytest.fixture(scope="module")
def perfbench():
    # read-only: no bytecode cache is written next to the benchmark
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        yield {name: importlib.import_module(name) for name in MODULES}
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
        for name in MODULES:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["spectrum", "cat-fields", "decohere",
                                  "squeeze"])
def test_warm_up_under_tracer_reaches_each_layer(perfbench, tmp_path, name):
    spans, workloads = perfbench["spans"], perfbench["workloads"]
    workload = workloads.WORKLOADS[name]
    with spans.Tracer() as tracer:
        perfbench["worker"].warm_up(sq, workload, str(tmp_path))
    stats = tracer.span_stats()
    metrics = spans.layer_metrics(stats, tracer.counters)
    calls = {layer: stats[layer]["calls"] for layer in (
        "phase_space.weyl_function", "phase_space._state_weights",
        "dynamics.propagate")}
    fields = "phase_space" in workload.layers
    dynamics = "dynamics" in workload.layers
    assert (calls["phase_space.weyl_function"] > 0) == fields
    assert (calls["phase_space._state_weights"] > 0) == fields
    assert (calls["dynamics.propagate"] > 0) == dynamics
    assert (metrics["phase_space.kernel_rank"] == 1) == fields
    assert (metrics["dynamics.propagate.steps"] > 0) == dynamics
