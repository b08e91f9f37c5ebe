"""One benchmark process: set up a workload, run it in rounds, check it.

Started by run.py with OpenBLAS and OpenMP pinned to one thread.  It
prints "ready" on stdout once the workload is set up (run.py times that),
and with --setup-only exits there.  Otherwise it runs whole rounds of the
workload's operation list that fit in --seconds (at least two, so every
CLI output can be compared across rounds), records the peak RSS,
then runs the checks and their negative controls outside every timed
region and writes result.json into --run-dir.

With --trace 1 the set-up is traced, half the time runs untraced rounds
and half runs traced rounds, each traced round in its own aggregation
window; the difference of the two median round times is the overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

MIN_ROUNDS = 2


def run_rounds(workload, seconds: float, tracer=None, keep: int = MIN_ROUNDS):
    """Whole rounds within `seconds`; returns round times, op times, outputs.

    After MIN_ROUNDS, a round starts only if a round of median length still
    fits, so a run measures at most `seconds` plus the spread of one round.
    """
    round_s, op_s, kept, windows = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while len(round_s) < MIN_ROUNDS or (
        time.perf_counter() - start + statistics.median(round_s) <= seconds
    ):
        gc.collect()
        if tracer is not None:
            tracer.reset()
        outputs = {}
        t_round = time.perf_counter()
        for label, op in workload.ops:
            attempted += 1
            t_op = time.perf_counter()
            try:
                out = op()
            except Exception:  # an operation that raises counts as failed
                out = {"error": traceback.format_exc()}
            op_s.append(time.perf_counter() - t_op)
            if isinstance(out, dict) and (out.get("code", 0) != 0 or "error" in out):
                failed += 1
            outputs[label] = out
        round_s.append(time.perf_counter() - t_round)
        if tracer is not None:
            windows.append(tracer.snapshot())
        if len(kept) < keep:
            kept.append(outputs)
    return {"round_s": round_s, "op_s": op_s, "outputs": kept, "windows": windows,
            "attempted": attempted, "failed": failed}


def run_checks(workload, rounds: list[dict]) -> list[str]:
    """Failures of the checks, plus any negative control the check accepted.

    A check is (name, check, *controls); each control perturbs the outputs
    so that one condition of the check fails, and the check must reject it.
    """
    outs = {"rounds": rounds}
    failures = []
    for name, check, *controls in workload.checks():
        try:
            failures += [f"{name}: {msg}" for msg in check(outs)]
            for i, perturb in enumerate(controls):
                if not check(perturb(outs)):
                    failures.append(f"{name}: negative control {i} was accepted")
        except Exception:
            failures.append(f"{name}: raised\n{traceback.format_exc()}")
    return failures


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import rcsp.cli  # noqa: F401  set-up starts with the program's import

    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.run_dir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.setup()
    setup_window = tracer.snapshot() if tracer else None
    if tracer:
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if tracer:
        plain = run_rounds(workload, args.seconds / 2)
        tracer.install()
        traced = run_rounds(workload, args.seconds / 2, tracer=tracer, keep=0)
        tracer.uninstall()
    else:
        plain = run_rounds(workload, args.seconds)
        traced = None
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = run_checks(workload, plain["outputs"])
    op_errors = sorted({
        f"{label}: {out.get('error') or 'exit ' + str(out.get('code'))}"
        for rnd in plain["outputs"] for label, out in rnd.items()
        if isinstance(out, dict) and (out.get("code", 0) != 0 or "error" in out)
    })
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": plain["attempted"] + (traced["attempted"] if traced else 0),
        "failed": plain["failed"] + (traced["failed"] if traced else 0),
        "round_s": plain["round_s"],
        "op_s": plain["op_s"],
        "peak_rss_mib": peak_rss_mib,
        "check_failures": failures,
        "op_errors": op_errors,
    }
    if traced:
        result["setup_window"] = setup_window
        result["traced_round_s"] = traced["round_s"]
        result["windows"] = traced["windows"]
        result["trace_overhead_s"] = statistics.median(traced["round_s"]) - statistics.median(
            plain["round_s"]
        )
    with open(os.path.join(args.run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
