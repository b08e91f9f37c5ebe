"""Benchmark entry point: one run of one workload, one JSON line of metrics.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from ./src.  A
run starts SETUP_SAMPLES fresh interpreters: the first ones stop once the
workload is set up, the last one goes on to run and check it.  Each is
timed from its start to its "ready" line, and setup_s is their median.
Every child gets OpenBLAS and OpenMP pinned to one thread in its own
environment.  Raw per-run output lands in perfbench/out/.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The last stdout line is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
# A run may take --seconds plus this long for its set-ups, the round that
# ends past --seconds and the checks; past that its worker is killed.
SLACK_S = 120.0
MODULES = ("bp", "thresholds", "interp", "firstmoment", "ensemble", "certificates", "cli")

END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Per-layer metrics: the calls and self time of the traced functions, the
# derived counters, source sizes and the tracing overhead.
CALLS = (
    "cli.main", "bp.solve_fixed_point", "thresholds.d_star", "thresholds.phi_star",
    "certificates.evaluate", "certificates.certify_ceil_d_star", "firstmoment.p_gamma",
    "interp.eta_cluster", "interp.clause_message_law", "interp.functional_exact",
    "ensemble.violation_histogram", "ensemble.count_solutions", "ensemble.count_solutions_dfs",
    "ensemble.sample_instance",
)
SELF_S = CALLS + (
    "thresholds.phi", "firstmoment.ez_col", "firstmoment.ratio_scan",
    "ensemble.partition_function", "ensemble.clause_resample_sensitivity",
    "ensemble.read_instance", "ensemble.write_instance",
)
PER_LAYER = {
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{name}.self_s": "s" for name in SELF_S},
    "thresholds.solves_per_threshold": "solves/threshold",
    "interp.clause_law_entries": "entries",
    "ensemble.histogram_builds_per_instance": "builds/instance",
    "ensemble.assignments_enumerated": "assignments",
    **{f"{mod}.src_lines": "lines" for mod in MODULES},
    "trace.overhead_s": "s",
}


class RunError(RuntimeError):
    pass


def _child(args, root: str, run_dir: str, setup_only: bool, deadline: float):
    """Start one worker; return (seconds to "ready", process)."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--run-dir", run_dir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            _finish(proc, deadline)
            raise RunError(f"worker did not get ready (exit {proc.returncode})")
    except BaseException:
        _kill(proc)
        raise
    return ready, proc


def _kill(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _finish(proc, deadline: float) -> None:
    """Wait for proc until the deadline; kill it past the deadline."""
    try:
        proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise RunError("worker ran past the time budget") from None
    except BaseException:
        _kill(proc)
        raise
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")


def _per_layer(result: dict, root: str) -> dict:
    setup, windows = result["setup_window"], result["windows"]
    first = windows[0]

    def calls(name: str) -> int:
        return setup["calls"].get(name, 0) + first["calls"].get(name, 0)

    def self_s(name: str) -> float:
        per_round = statistics.median(w["self_s"].get(name, 0.0) for w in windows)
        return setup["self_s"].get(name, 0.0) + per_round

    values = {f"{n}.calls": calls(n) for n in CALLS}
    values.update({f"{n}.self_s": self_s(n) for n in SELF_S})
    d_star_calls = first["calls"].get("thresholds.d_star", 0)
    values["thresholds.solves_per_threshold"] = (
        first["counters"].get("solves_in_d_star", 0) / d_star_calls if d_star_calls else 0.0
    )
    values["interp.clause_law_entries"] = first["counters"].get("clause_law_entries", 0)
    builds = first["calls"].get("ensemble.violation_histogram", 0)
    values["ensemble.histogram_builds_per_instance"] = (
        builds / first["histogram_instances"] if builds else 0.0
    )
    values["ensemble.assignments_enumerated"] = first["counters"].get("assignments_enumerated", 0)
    for mod in MODULES:
        with open(os.path.join(root, "src", "rcsp", f"{mod}.py"), encoding="utf-8") as fh:
            values[f"{mod}.src_lines"] = sum(1 for _ in fh)
    values["trace.overhead_s"] = result["trace_overhead_s"]
    return values


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _stop)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rcsp", "cli.py")):
        sys.stderr.write(f"no program at {root}/src/rcsp; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n")
        return 2
    deadline = time.perf_counter() + args.seconds + SLACK_S
    run_dir = os.path.join(
        HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    )
    os.makedirs(run_dir, exist_ok=True)

    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0):
            ready, proc = _child(args, root, run_dir, True, deadline)
            _finish(proc, deadline)
            setups.append(ready)
        ready, proc = _child(args, root, run_dir, False, deadline)
        setups.append(ready)
        _finish(proc, deadline)
        with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    except RunError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2

    for msg in result["op_errors"] + result["check_failures"]:
        sys.stderr.write(f"perfbench: {msg}\n")
    if args.trace:
        values = _per_layer(result, root)
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.fmean(result["round_s"]),
            "op_p50_s": statistics.median(result["op_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": result["peak_rss_mib"],
        }
        units = END_TO_END
    line = {
        "correct": not result["check_failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(run_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump({**line, "setup_samples_s": setups}, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
