"""Child process of the benchmark: set-up, timed passes, traced pass, checks.

Run by run.py as `python3 perfbench/worker.py <request.json>`; the parent
sets PYTHONPATH to the checkout's src/ and the BLAS thread count in the
environment before this process imports numpy.  The result is written as
JSON to the path named in the request.

Modes:
  setup  -- import squidsim, warm up each layer the workload uses, exit
  run    -- set-up, untraced passes for the requested seconds, with
            --trace one traced pass, then output checks on the last pass
  traced -- set-up, one traced pass (the single-thread baseline)
"""

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

from spans import Tracer, layer_metrics
from workloads import WORKLOADS, CheckContext

MIN_PASSES = 3


def warm_up(sq, workload, scratch):
    """One small call into each layer the workload uses.

    The Hamiltonian build and eigensolve run at the workload's own basis
    size, because the first dense call at that size pays the BLAS thread
    start-up that every CLI invocation pays.
    """
    import numpy as np
    ring = sq.standard_ring(0.5)
    scales = sq.derive_scales(ring)
    h = sq.build_fock_hamiltonian(ring, scales, workload.dim)
    sq.eigensolve(h, count=2)
    layers = workload.layers
    if "sweep" in layers:
        sq.spectrum_sweep(ring, 0.0, 0.1, 0.1, dim=40)
    if "states" in layers:
        small = sq.eigensolve(sq.build_fock_hamiltonian(ring, scales, 40))
        sq.position_wavefunction(small.eigenvectors[:, 0], np.linspace(-4, 4, 9))
        sq.classify_well_states(small, ring, scales)
    psi = sq.coherent_state(0.5, 20)
    rho = np.outer(psi, psi.conj())
    if "phase_space" in layers:
        grid = np.linspace(-8.0, 8.0, 9)
        sq.wigner_function(psi, grid, grid)
        sq.weyl_function(rho, grid, grid)
    if "dynamics" in layers:
        h20 = sq.build_fock_hamiltonian(ring, scales, 20)
        bath = sq.BathParams(temperature=1.0, damping=0.01)
        sq.propagate(rho, h20, bath, dtau=0.005, tau_max=0.01, scales=scales)
    if "emit" in layers:
        dataset = sq.Dataset("warmup", {"warmup.csv": (["a"], np.zeros((2, 1)))},
                             {"scenario": "warmup"})
        sq.emit_dataset(dataset, os.path.join(scratch, "warmup"))


def write_configs(jobs, directory):
    """One config file per job with overrides; None for a job without."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for scenario, overrides in jobs:
        path = None
        if overrides:
            path = os.path.join(directory, f"{scenario}.cfg")
            with open(path, "w") as fh:
                fh.writelines(f"{key} = {value!r}\n"
                              for key, value in overrides.items())
        paths.append(path)
    return paths


def run_pass(cli, jobs, configs, out_root):
    """Run each job in turn through the CLI.

    Returns the pass's wall time, one outcome per job (None on success,
    else the error) and each job's output directory.
    """
    out_dirs = [os.path.join(out_root, scenario) for scenario, _ in jobs]
    outcomes = []
    start = time.perf_counter()
    for (scenario, _), config, out in zip(jobs, configs, out_dirs):
        argv = ["scenario", scenario, "--out", out]
        if config:
            argv += ["--config", config]
        try:
            code = cli.main(argv)
            outcomes.append(None if code == 0 else f"exit code {code}")
        except Exception:
            outcomes.append(traceback.format_exc(limit=3))
    wall = time.perf_counter() - start
    return wall, outcomes, out_dirs


def hash_outputs(out_dirs):
    """{job index: {file: sha256}} of every emitted file."""
    hashes = {}
    for job, out in enumerate(out_dirs):
        files = {}
        if os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    files[name] = hashlib.file_digest(fh, "sha256").hexdigest()
        hashes[job] = files
    return hashes


def environment(np, scipy):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def traced_pass(cli, jobs, configs, out_root):
    with Tracer() as tracer:
        wall, outcomes, out_dirs = run_pass(cli, jobs, configs, out_root)
    stats = tracer.span_stats()
    summary = {
        "wall_s": wall,
        "layers": layer_metrics(stats, tracer.counters),
        "self_sum_s": sum(s["self_s"] for s in stats.values()),
        "captured": tracer.maxima,
    }
    return summary, outcomes, out_dirs, tracer.dump()


def main(request_path):
    with open(request_path) as fh:
        req = json.load(fh)
    workload = WORKLOADS[req["workload"]]
    scratch = req["scratch"]

    import numpy as np
    import scipy
    import squidsim as sq
    import squidsim.cli as cli
    src = os.path.realpath(req["src"])
    if not os.path.realpath(sq.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported squidsim from {sq.__file__}, not {src}")
    warm_up(sq, workload, scratch)
    result = {"ready": time.monotonic()}
    if req["mode"] == "setup":
        _write(req["result"], result)
        return

    jobs = workload.jobs(req["seed"])
    configs = write_configs(jobs, os.path.join(scratch, "config"))
    result["env"] = environment(np, scipy)
    outcomes, pass_hashes, walls = [], [], []
    out_root = None
    if req["mode"] == "run":
        start = time.monotonic()
        # stop before a pass that would run past the requested seconds
        while len(walls) < MIN_PASSES or (time.monotonic() - start
                                          + statistics.median(walls)
                                          <= req["seconds"]):
            if out_root:
                shutil.rmtree(out_root)
            out_root = os.path.join(scratch, f"pass{len(walls)}")
            wall, pass_outcomes, out_dirs = run_pass(cli, jobs, configs, out_root)
            walls.append(wall)
            outcomes.append(pass_outcomes)
            pass_hashes.append(hash_outputs(out_dirs))
        result["walls"] = walls
        # before the traced pass and the checks, whose oracles use memory
        # of their own; the peak only grows, so one read here is enough
        result["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss

    captured = {}
    if req["trace"]:
        summary, pass_outcomes, out_dirs, dump = traced_pass(
            cli, jobs, configs, os.path.join(scratch, "traced"))
        outcomes.append(pass_outcomes)
        pass_hashes.append(hash_outputs(out_dirs))
        result["trace"] = summary
        result["trace_dump"] = dump
        captured = summary["captured"]

    if req["mode"] == "run":
        # checks read the last pass; every other pass must match it bytewise
        ctx = CheckContext(seed=req["seed"], jobs=jobs, out_dirs=out_dirs,
                           captured=captured, sq=sq, results=[], timings={})
        try:
            workload.check(ctx)
        except Exception:
            ctx.record(None, "check raised", traceback.format_exc(limit=3),
                       None, False)
        result["checks"] = ctx.results
        result["check_timings"] = ctx.timings
        last = pass_hashes[-1]
        result["hashes"] = {jobs[j][0]: files for j, files in last.items()}
        result["mismatched"] = [[p, j] for p, hashes in enumerate(pass_hashes)
                                for j in hashes if hashes[j] != last[j]]
    result["outcomes"] = outcomes
    _write(req["result"], result)


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    main(sys.argv[1])
