"""Run two sets of benchmark runs of the same code and report whether they agree.

    python3 perfbench/compare.py

Each set runs every workload of BENCHMARK.json once per seed 1-10 with
tracing off, for its run_seconds (seed-major, so host drift spreads over
all workloads), then once more per workload with tracing on.  For every
pair of workload and end-to-end metric it prints each set's median,
quartiles and spread (quartile distance over median), and whether the
sets agree under BENCHMARK.json: each spread within the bound, the two
medians within the bound of each other in either direction, the same
failed share, and identical per-layer `calls` counts.  The full record
goes to perfbench/out/.  Run from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SETS = 2
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    sets = []
    for s in range(SETS):
        runs = {w: [] for w in workloads}
        for seed in SEEDS:
            for w in workloads:
                t0 = time.perf_counter()
                line = run_once(w, seed, seconds, 0)
                runs[w].append(line)
                print(f"set {s + 1} seed {seed} {w}: {time.perf_counter() - t0:.1f}s "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()),
                      flush=True)
        traced = {w: run_once(w, SEEDS[0], seconds, 1) for w in workloads}
        sets.append({"runs": runs, "traced": traced})

    ok = True
    report = []
    print(f"\n{'workload':15} {'metric':13} " + " ".join(
        f"{'set' + str(i + 1) + ' median [q1, q3] spread':44}" for i in range(len(sets))) + " verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in st["runs"][w]]) for st in sets]
            verdicts = []
            for st in stats:
                if st["spread"] > bound:
                    verdicts.append(f"spread {st['spread']:.3f} > {bound}")
            for st in stats[1:]:
                shift = st["median"] / stats[0]["median"] - 1
                if abs(shift) > bound:
                    verdicts.append(f"median moved by {shift:+.3f}")
            ok &= not verdicts
            report.append({"workload": w, "metric": name, "bound": bound, "sets": stats,
                           "verdict": verdicts or "agree"})
            print(f"{w:15} {name:13} " + " ".join(
                f"{st['median']:<12.5g}[{st['q1']:.5g}, {st['q3']:.5g}] {st['spread']:.3f}".ljust(44)
                for st in stats) + " " + ("; ".join(verdicts) or "agree"))
        fail_share = {Fraction(r["failed"], r["attempted"]) for st in sets for r in st["runs"][w]}
        correct = all(r["correct"] for st in sets for r in st["runs"][w])
        calls = [{k: v["value"] for k, v in st["traced"][w]["metrics"].items() if k.endswith(".calls")}
                 for st in sets]
        same_calls = all(c == calls[0] for c in calls)
        ok &= len(fail_share) == 1 and correct and same_calls
        print(f"{w:15} failed share {sorted(map(str, fail_share))}, all correct {correct}, "
              f"calls identical across sets {same_calls}")
        report.append({"workload": w, "failed_share": sorted(map(str, fail_share)), "correct": correct,
                       "calls": calls, "same_calls": same_calls})
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"compare-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "seeds": list(SEEDS), "report": report, "sets": sets}, fh, indent=1)
    print(f"\n{'AGREE' if ok else 'DISAGREE'}; record in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
