"""Scenario-level benchmark of squidsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs built-in
scenarios the way a user does, through `squidsim.cli.main([...])` with
generated config files, in a fresh child process (closed loop, one caller:
each CLI job starts after the previous one returned).  The child's
environment fixes the BLAS thread count at the number of usable cores, so
the count is set before numpy is imported.

--trace 0 reports the end-to-end metrics:
  wall_s       median time of one untraced pass over the workload's jobs
  setup_s      median, over fresh processes, of interpreter start -> import
               squidsim -> one small warm-up call into each layer used
  peak_rss_mb  peak resident memory of the workload's child process
--trace 1 reports per-layer metrics from one traced pass (see spans.py),
the same pass repeated in a child at one BLAS thread (suffix _t1), and the
tracing overhead against the untraced median.  The JSON result holds every
per-layer metric that BENCHMARK.json names, so a layer the workload never
calls reads 0 there; the printed report lists only the non-zero ones.

Every run checks the outputs (workloads.py) and prints a report, then as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
Jobs that exit non-zero, raise, fail an output check or do not reproduce
the last pass byte for byte count as failed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spans import LAYERS
from workloads import WORKLOADS

SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0
T1_LAYERS = ("operators.cosine_operator", "hamiltonian.build_fock_hamiltonian",
             "hamiltonian.eigensolve", "hamiltonian.spectrum_sweep",
             "phase_space.wigner_function", "phase_space.weyl_function",
             "dynamics.propagate")


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.busy_s": "s",
                      f"{layer}.self_s": "s"})
    units.update({
        "scenarios.emit_dataset.bytes": "B",
        "scenarios.emit_dataset.rows": "count",
        "scenarios.emit_dataset.mb_per_s": "MB/s",
        "hamiltonian.eigensolve.useful_ratio": "ratio",
        "hamiltonian.spectrum_sweep.useful_ratio": "ratio",
        "hamiltonian.flux_grid_oracle_s": "s",
        "phase_space.wigner_function.points_per_s": "1/s",
        "phase_space.weyl_function.points_per_s": "1/s",
        "phase_space.kernel_rank": "count",
        "dynamics.propagate.steps": "count",
        "dynamics.propagate.rhs_evals": "count",
        "dynamics.propagate.ms_per_step": "ms",
        "dynamics.propagate.records": "count",
        "dynamics.propagate.snapshots": "count",
        "dynamics.propagate.gemm_gflop": "GFLOP_computed",
    })
    for layer in T1_LAYERS:
        units[f"{layer}.busy_s_t1"] = "s"
    units.update({
        "hamiltonian.spectrum_sweep.self_s_t1": "s",
        "trace.wall_s": "s",
        "trace.wall_s_t1": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.self_sum_s": "s",
        "trace.accounted_ratio": "ratio",
    })
    return units


class BenchError(Exception):
    pass


class Runner:
    """Spawns worker processes for one workload inside a scratch directory."""

    def __init__(self, root, workload, seed, scratch):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.count = 0

    def spawn(self, mode, threads, seconds=0, trace=True):
        """Run one worker to completion; returns (result, spawn time)."""
        self.count += 1
        tag = f"{mode}{self.count}"
        scratch = os.path.join(self.scratch, tag)
        os.makedirs(scratch)
        request = {"mode": mode, "workload": self.workload, "seed": self.seed,
                   "seconds": seconds, "trace": trace, "scratch": scratch,
                   "src": os.path.join(self.root, "src"),
                   "result": os.path.join(scratch, "result.json")}
        request_path = os.path.join(scratch, "request.json")
        with open(request_path, "w") as fh:
            json.dump(request, fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (request["src"], env.get("PYTHONPATH")) if p)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "SQUIDSIM_THREADS"):
            env[var] = str(threads)
        worker = os.path.join(self.root, "perfbench", "worker.py")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted before the worker started")
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, worker, request_path],
                                  env=env, cwd=self.root,
                                  stdout=subprocess.DEVNULL, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker exceeded the time budget") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        with open(request["result"]) as fh:
            return json.load(fh), spawned


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None, None
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    rank = max(1, math.ceil(pct / 100.0 * n))
    return pct, sorted(values)[rank - 1]


def failed_jobs(result):
    """(pass, job) pairs that failed in one worker result."""
    failed = {(p, j) for p, outcomes in enumerate(result["outcomes"])
              for j, outcome in enumerate(outcomes) if outcome is not None}
    failed |= {tuple(pj) for pj in result.get("mismatched", [])}
    traced = len(result["outcomes"]) - 1
    n_jobs = len(result["outcomes"][-1])
    for check in result.get("checks", []):
        if not check["ok"]:
            jobs = range(n_jobs) if check["job"] is None else [check["job"]]
            failed |= {(traced, j) for j in jobs}
    return failed


def layer_report(main, t1):
    trace = main["trace"]
    layers = dict(trace["layers"])
    layers["hamiltonian.flux_grid_oracle_s"] = main["check_timings"].get(
        "hamiltonian.flux_grid_oracle_s", 0.0)
    for layer in T1_LAYERS:
        layers[f"{layer}.busy_s_t1"] = t1["trace"]["layers"][f"{layer}.busy_s"]
    layers["hamiltonian.spectrum_sweep.self_s_t1"] = (
        t1["trace"]["layers"]["hamiltonian.spectrum_sweep.self_s"])
    untraced = statistics.median(main["walls"])
    layers.update({
        "trace.wall_s": trace["wall_s"],
        "trace.wall_s_t1": t1["trace"]["wall_s"],
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": trace["wall_s"] - untraced,
        "trace.self_sum_s": trace["self_sum_s"],
        "trace.accounted_ratio": trace["self_sum_s"] / trace["wall_s"],
    })
    return {name: {"value": layers[name], "unit": unit}
            for name, unit in per_layer_units().items()}


def print_report(args, main, setups, metrics, failed, attempted):
    walls = main["walls"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(walls)}")
    print("  env " + json.dumps(main["env"], sort_keys=True))
    pct, tail = tail_percentile(walls)
    tail_text = (f"p{pct} {tail:.4f} s" if pct is not None
                 else "no percentile has >= 10 passes beyond it")
    print(f"  wall_s       {statistics.median(walls):.4f} s   median of "
          f"{len(walls)} passes; {tail_text}; passes "
          + " ".join(f"{w:.3f}" for w in walls))
    print(f"  setup_s      {statistics.median(setups):.4f} s   median of "
              f"{len(setups)} fresh processes "
              + " ".join(f"{s:.3f}" for s in setups))
    print(f"  peak_rss_mb  {main['peak_rss_kb'] / 1024.0:.1f} MiB")
    print(f"  fail_frac    {failed / attempted:.4f} ratio   "
          f"{failed} of {attempted} jobs failed")
    for check in main["checks"]:
        limit = "" if check["limit"] is None else f" (limit {check['limit']})"
        status = "ok" if check["ok"] else "FAILED"
        print(f"  check {check['check']}: {status} value {check['value']}{limit}")
    for scenario, files in main["hashes"].items():
        for name, digest in files.items():
            print(f"  sha256 {scenario}/{name} {digest}")
    if args.trace:
        for name, metric in metrics.items():
            if metric["value"]:
                print(f"  {name} {metric['value']:.6g} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "squidsim", "__init__.py")):
        print(f"perfbench: no squidsim sources under {root}/src",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                               dir=work_root)
    runner = Runner(root, args.workload, args.seed, scratch)
    try:
        main_res, spawned = runner.spawn("run", nproc, args.seconds,
                                         bool(args.trace))
        setups = [main_res["ready"] - spawned]
        workers = [main_res]
        if args.trace:
            workers.append(runner.spawn("traced", 1)[0])
            with open(os.path.join(work_root, f"trace-{args.workload}.json"),
                      "w") as fh:
                json.dump(main_res.pop("trace_dump"), fh)
        else:
            for _ in range(SETUP_SAMPLES - 1):
                res, spawned = runner.spawn("setup", nproc)
                setups.append(res["ready"] - spawned)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(len(failed_jobs(w)) for w in workers)
    attempted = sum(len(o) for w in workers for o in w["outcomes"])
    correct = failed == 0 and all(c["ok"] for c in main_res["checks"])
    if args.trace:
        metrics = layer_report(*workers)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(main_res["walls"]),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": main_res["peak_rss_kb"] / 1024.0,
                            "unit": "MiB"},
        }
    print_report(args, main_res, setups, metrics, failed, attempted)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
