"""Hypothesis fuzz of the numeric flags of the analytic subcommands and interp.

Each example runs `rcsp` in its own process, one at a time, under a timeout
and an address-space limit that the child sets on itself.  Whatever the
values, the run must end with exit 0, 1 or 2, print no traceback, and on
failure print exactly one message line on stderr (after argparse's usage
lines, for a value argparse itself refuses).  Flags are passed as
--flag=value, so a value such as -5e-324 reaches the type conversion
instead of being read as an option.
"""

import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import rcsp

FLOATS = ("nan", "inf", "-inf", "0", "-0", "5e-324", "-5e-324", "1e308", "-1e308", "-1")
# the last three are not ints, so argparse refuses them
INTS = ("-1", "0", "2", "1" + "0" * 30, "nan", "inf", "1e308")
K = INTS + ("3", "4", "52", "53")
# the k = 3 and k = 4 windows [6.74, 7.5] and [16.7, 22.18...], and one
# float past each end
D = FLOATS + ("6.74", "7.5", "6.739999999999999", "7.500000000000001", "16.7", "22.18")
TOL = FLOATS + ("1e-300",)
X = FLOATS + ("0.4375", "0.5", "1", "1.0000000000000002")

# (flag, values, optional) per subcommand; each may also take --format json
COMMANDS = {
    "fixpoint": (("--k", K, False), ("--d", D, False), ("--tol", TOL, True)),
    "phi": (("--k", K, False), ("--d", D, False), ("--x", X, True), ("--tol", TOL, True)),
    "dstar": (("--k", K, False), ("--tol", TOL, True)),
    "table": (("--kmin", ("2", "3", "15"), True), ("--kmax", ("2", "4", "53"), True),
              ("--tol", TOL, True)),
    # k * m past 3000 half-edges is refused; n = 1000 at k = d = 3 is the largest
    "firstmo": (("--k", K, False), ("--d", INTS + ("1", "3"), False),
                ("--n", ("0", "-1", "3", "6", "3,6", "1000", "1001", "nan"), False)),
    "certify": (("--digits", ("49", "50", "1000", "1001", "0", "-1", "1" + "0" * 30, "nan"), True),
                ("--id", ("v0", "alpha5", "bogus"), True)),
}
FORMAT = ("--format", ("json",), True)

# interp's flags at the k = 3 and k = 4 window ends, the float extremes, 0,
# 65536 and (in a list) an empty item
EDGES = ("nan", "inf", "-inf", "-1", "0", "0.5", "5e-324", "1e308", "65536")
INTERP = (
    ("--k", ("-1", "0", "3", "4", "65536", "nan"), False),
    ("--d", EDGES + ("6.74", "7.5", "16.7", "22.18"), False),
    ("--betas", EDGES + ("16,,64", "0.5,16,"), False),
    ("--lam", EDGES, True),
    ("--tol", EDGES, True),
)

TIMEOUT_S = 60
# the child limits its own address space before it imports rcsp
CLI = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "from rcsp.cli import main; sys.exit(main(sys.argv[1:]))"
)


def _flag(flag, values, optional):
    given_ = st.sampled_from(values).map(lambda v: [f"{flag}={v}"])
    return st.one_of(st.just([]), given_) if optional else given_


def _argv(cmd, specs):
    return st.tuples(*(_flag(*spec) for spec in (*specs, FORMAT))).map(
        lambda parts: [cmd, *(arg for part in parts for arg in part)]
    )


def _message_lines(stderr: str) -> list[str]:
    """stderr without argparse's usage block, which precedes its one error line."""
    lines = stderr.splitlines()
    if lines and lines[0].startswith("usage: "):
        lines = [line for line in lines[1:] if not line.startswith(" ")]
    return lines


def _ends_cleanly(argv):
    src = os.path.dirname(os.path.dirname(rcsp.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CLI, *argv],
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(_message_lines(proc.stderr)) == (1 if proc.returncode else 0), proc.stderr
    assert (proc.stdout == "") == bool(proc.returncode)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)).flatmap(lambda cmd: _argv(cmd, COMMANDS[cmd])))
def test_analytic_flags_end_cleanly(argv):
    _ends_cleanly(argv)


@settings(max_examples=15, deadline=None)
@given(_argv("interp", INTERP))
def test_interp_flags_end_cleanly(argv):
    _ends_cleanly(argv)
