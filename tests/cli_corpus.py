"""The CLI byte corpus: a fixed list of `rcsp` invocations and what each printed.

    PYTHONPATH=src python tests/cli_corpus.py [--diff]

rewrites tests/cli_corpus.json with the exit code, stdout and stderr of
every invocation in CASES, run in-process through `rcsp.cli.main`, and
prints each one's time.  With --diff it writes nothing: it prints the argv
and the changed fields of every invocation whose output differs from the
file, and the argv of every invocation only one side has, and exits 1 if
there is any.  tests/test_cli_corpus.py replays the file and compares
bytes; it never writes it.  Rewrite the file only for a deliberate output
change, and list every changed entry (--diff shows them) with its reason.

Invocations run in order in one temporary directory, which "{tmp}" in an
argument names, so `gen` writes the instance files that `solve` and `z`
read.  numpy's vectorised log and expm1, and OpenBLAS's dot paths, can
differ in the last bit between hosts, so the file pins the bytes of the
host named in its head, as the PINNED tests do.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import platform
import sys
import tempfile
import time

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_corpus.json")

SCAN = ["--betas", "16,64,256", "--model", "coloring"]
C4, C9 = "{tmp}/coloring4.txt", "{tmp}/coloring9.txt"
CASES = (
    # the analytic workload of perfbench (its points for seed 1)
    ["table"],
    ["dstar", "--k", "3"],
    ["dstar", "--k", "15", "--format", "json"],
    ["certify"],
    ["fixpoint", "--k", "3", "--d", "7.23253"],
    ["phi", "--k", "3", "--d", "7.23253"],
    ["fixpoint", "--k", "5", "--d", "53.782225"],
    ["phi", "--k", "5", "--d", "53.782225"],
    ["fixpoint", "--k", "7", "--d", "308.212524"],
    ["phi", "--k", "7", "--d", "308.212524"],
    ["firstmo", "--k", "3", "--d", "3", "--n", "3,6,9,12"],
    ["firstmo", "--k", "3", "--d", "3", "--n", "3,6,9,12", "--format", "json"],
    # the interp-lattice workload
    ["interp", "--k", "3", "--d", "7.4", *SCAN],
    ["interp", "--k", "4", "--d", "20", *SCAN],
    ["interp", "--k", "4", "--d", "20", *SCAN, "--format", "json"],
    ["interp", "--k", "4", "--d", "22", *SCAN],
    # the ensemble workload, on instances gen writes
    ["gen", "--n", "24", "--k", "3", "--d", "4", "--seed", "1", "--model", "coloring", "--out", C4],
    ["gen", "--n", "24", "--k", "3", "--d", "9", "--seed", "2", "--model", "coloring", "--out", C9],
    ["z", C9, "--beta", "1"],
    ["concentrate", "--k", "3", "--d", "4", "--n", "12,15,18", "--beta", "1", "--samples", "2",
     "--seed", "3", "--model", "coloring"],
    ["sweep", "--k", "3", "--n", "24", "--d", "4,9", "--trials", "3", "--seed", "4",
     "--model", "coloring"],
    ["solve", C4],
    ["solve", C9],
    # JSON and the other paths at small sizes
    ["table", "--kmin", "3", "--kmax", "5", "--format", "json"],
    ["dstar", "--k", "4"],
    ["fixpoint", "--k", "4", "--d", "20", "--format", "json"],
    ["phi", "--k", "4", "--d", "20", "--x", "0.4", "--format", "json"],
    ["certify", "--id", "v0", "--format", "json"],
    # every computed string of the registry, at 50 and at 80 digits
    ["certify", "--format", "json"],
    ["certify", "--digits", "80", "--format", "json"],
    ["interp", "--k", "3", "--d", "7", "--betas", "1,4"],
    ["interp", "--k", "3", "--d", "7.4", "--betas", "2", "--lam", "0.5", "--format", "json"],
    ["firstmo", "--k", "4", "--d", "3", "--n", "4"],
    ["sweep", "--k", "3", "--n", "12", "--d", "3,5", "--trials", "2", "--seed", "5",
     "--format", "json"],
    ["concentrate", "--k", "3", "--d", "3", "--n", "6,9", "--beta", "2", "--samples", "2",
     "--seed", "6", "--format", "json"],
    ["gen", "--n", "9", "--k", "3", "--d", "3", "--seed", "7", "--out", "{tmp}/nae.txt"],
    ["solve", "{tmp}/nae.txt", "--format", "json"],
    ["z", "{tmp}/nae.txt", "--beta", "0.5", "--format", "json"],
    # None (one sample has no std) and non-finite cells, in CSV and JSON
    ["concentrate", "--k", "3", "--d", "4", "--n", "12", "--beta", "1", "--samples", "1",
     "--seed", "5", "--model", "coloring"],
    ["concentrate", "--k", "3", "--d", "4", "--n", "12", "--beta", "1", "--samples", "1",
     "--seed", "5", "--model", "coloring", "--format", "json"],
    ["interp", "--k", "3", "--d", "7.4", "--betas", "0", "--format", "json"],
    # every ENDS_CLEANLY case of test_cli.py that ends in under a second
    ["dstar", "--k", "22"],
    ["dstar", "--k", "3", "--tol", "1e-300"],
    ["dstar", "--k", "3", "--tol", "nan"],
    ["dstar", "--k", "1100"],
    ["dstar", "--k", "27"],
    ["dstar", "--k", "47"],
    ["dstar", "--k", "48"],
    ["dstar", "--k", "53"],
    ["dstar", "--k", "56"],
    ["fixpoint", "--k", "52", "--d", "8.116309198614963e16"],
    ["fixpoint", "--k", "60", "--d", "5"],
    ["fixpoint", "--k", "1100", "--d", "5"],
    ["fixpoint", "--k", "3", "--d", "7", "--tol", "1e-300"],
    ["fixpoint", "--k", "3", "--d", "7", "--tol", "nan"],
    ["fixpoint", "--k", "3", "--d", "7", "--tol", "inf"],
    ["dstar", "--k", "3", "--tol", "inf"],
    ["interp", "--k", "3", "--d", "7.4", "--betas", "16", "--tol", "inf"],
    ["phi", "--k", "3", "--d", "7", "--x", "-0.5"],
    ["phi", "--k", "3", "--d", "7", "--x", "1e308"],
    ["phi", "--k", "3", "--d", "inf", "--x", "0.4"],
    ["firstmo", "--k", "3", "--d", "3", "--n", "0"],
    ["firstmo", "--k", "3", "--d", "0", "--n", "3"],
    ["firstmo", "--k", "3", "--d", "3", "--n", "100000"],
    ["firstmo", "--k", "2", "--d", "1" + "0" * 30, "--n", "3", "--format", "json"],
    ["gen", "--n", "3", "--k", "3", "--d", "3", "--seed", "0", "--simple", "--out",
     "{tmp}/simple.txt", "--max-retries", "0"],
    ["gen", "--n", "3", "--k", "3", "--d", "3", "--seed", "0", "--simple", "--out",
     "{tmp}/simple.txt", "--max-retries", "-5"],
    ["interp", "--k", "4", "--d", "20", "--betas", "16,16384", "--model", "coloring"],
    ["interp", "--k", "4", "--d", "20", "--betas", "65536", "--lam", "0.00390625"],
    ["interp", "--k", "3", "--d", "70", "--betas", "1"],
    ["interp", "--k", "3", "--d", "7.4", "--betas", "inf", "--lam", "0.5"],
    ["interp", "--k", "3", "--d", "7.4", "--betas", "nan", "--lam", "0.5"],
    ["interp", "--k", "3", "--d", "7.4", "--betas", "16,inf"],
    ["interp", "--k", "3", "--d", "7.4", "--betas", "16,-1"],
    ["certify", "--digits", "1001"],
    ["sweep", "--k", "3", "--n", "60", "--d", "5,7", "--trials", "3", "--seed", "1"],
    ["z", C4, "--beta", "-1"],
    ["z", C4, "--beta", "nan"],
    ["z", C4, "--beta", "inf"],
    ["concentrate", "--k", "3", "--d", "2", "--n", "6", "--samples", "2", "--seed", "5",
     "--beta", "nan"],
    ["concentrate", "--k", "3", "--d", "2", "--n", "6", "--samples", "2", "--seed", "5",
     "--beta", "inf"],
    # past the 62 moving steps a lattice key field holds, at beta = 0
    ["interp", "--k", "6", "--d", "130", "--betas", "0"],
)


def run(argv, tmp: str) -> dict:
    """One invocation through rcsp.cli.main, with its streams captured."""
    from rcsp.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(tmp=tmp) for a in argv])
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _host() -> dict:
    import mpmath
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "host": f"{platform.system()} {platform.machine()}, {cpu}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
    }


def diff(entries: list[dict]) -> int:
    """Print how entries differ from the committed file; the count of differences."""
    with open(CORPUS, encoding="utf-8") as fh:
        old = {tuple(case["argv"]): case for case in json.load(fh)["cases"]}
    differ = 0
    for now in entries:
        was = old.pop(tuple(now["argv"]), None)
        if was == now:
            continue
        differ += 1
        if was is None:
            print("new: " + " ".join(now["argv"]))
            continue
        print("changed: " + " ".join(now["argv"]))
        if was["exit"] != now["exit"]:
            print(f"  exit: {was['exit']} -> {now['exit']}")
        for field in ("stdout", "stderr"):
            old_lines, new_lines = was[field].splitlines(), now[field].splitlines()
            for line in difflib.unified_diff(old_lines, new_lines, field, field, lineterm=""):
                print("  " + line)
    for argv in old:
        differ += 1
        print("dropped: " + " ".join(argv))
    return differ


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", action="store_true", help="print differences, write nothing")
    args = parser.parse_args()
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in CASES:
            start = time.perf_counter()
            entries.append(run(argv, tmp))
            print(f"{time.perf_counter() - start:7.3f} s  exit {entries[-1]['exit']}  "
                  + " ".join(argv), file=sys.stderr)
    if args.diff:
        sys.exit(1 if diff(entries) else 0)
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump({**_host(), "cases": entries}, fh, indent=1, ensure_ascii=False)
        fh.write("\n")


if __name__ == "__main__":
    main()
