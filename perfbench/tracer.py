"""Call tracing from outside the program.

A Tracer wraps chosen public functions of the rcsp modules.  Each wrapped
call is one span: its duration, minus the time spent in wrapped calls made
inside it, is the function's self time.  Calls and self times are aggregated in
memory per function and handed out when the benchmark ends.

Many functions are imported by name into other modules (`from .bp import
solve_fixed_point` in thresholds, interp, certificates and cli), so a
wrapper is installed in every rcsp module namespace that binds the
original function object.  Calls within a module look the name up in the
module globals, so patching that attribute catches them too.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs timed by the traced run.
TRACED = (
    ("rcsp.cli", "main"),
    ("rcsp.bp", "solve_fixed_point"),
    ("rcsp.thresholds", "d_star"),
    ("rcsp.thresholds", "phi_star"),
    ("rcsp.thresholds", "phi"),
    ("rcsp.certificates", "evaluate"),
    ("rcsp.certificates", "certify_ceil_d_star"),
    ("rcsp.firstmoment", "p_gamma"),
    ("rcsp.firstmoment", "ez_col"),
    ("rcsp.firstmoment", "ratio_scan"),
    ("rcsp.interp", "eta_cluster"),
    ("rcsp.interp", "clause_message_law"),
    ("rcsp.interp", "functional_exact"),
    ("rcsp.ensemble", "violation_histogram"),
    ("rcsp.ensemble", "partition_function"),
    ("rcsp.ensemble", "clause_resample_sensitivity"),
    ("rcsp.ensemble", "count_solutions"),
    ("rcsp.ensemble", "count_solutions_dfs"),
    ("rcsp.ensemble", "sample_instance"),
    ("rcsp.ensemble", "read_instance"),
    ("rcsp.ensemble", "write_instance"),
)


def span_name(module: str, func: str) -> str:
    """rcsp.bp + solve_fixed_point -> bp.solve_fixed_point."""
    return f"{module.removeprefix('rcsp.')}.{func}"


class Tracer:
    """Wraps TRACED functions; reset() starts a new aggregation window."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.histogram_instances: set = set()
        self._stack: list[list] = []  # [name, child_seconds]

    # -- derived counters, run before or after the wrapped call -------------

    def _before(self, name: str, args) -> None:
        if name == "bp.solve_fixed_point" and any(
            frame[0] == "thresholds.d_star" for frame in self._stack
        ):
            self.counters["solves_in_d_star"] += 1
        elif name == "ensemble.violation_histogram":
            inst = args[0]
            self.histogram_instances.add((inst.clauses, inst.literals))
        elif name == "ensemble.count_solutions":
            from rcsp import ensemble

            if args[0].n <= ensemble.TENSOR_VARS_LIMIT:
                self.counters["assignments_enumerated"] += 1 << args[0].n

    def _after(self, name: str, result) -> None:
        if name == "interp.clause_message_law":
            self.counters["clause_law_entries"] += len(result.entries)

    def _wrap(self, name: str, func):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._before(name, args)
            frame = [name, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
            tracer._after(name, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def install(self) -> None:
        """Bind a wrapper wherever an rcsp module binds a traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "rcsp" or mod_name.startswith("rcsp."))
        ]
        for mod_name, func_name in TRACED:
            original = getattr(sys.modules[mod_name], func_name)
            wrapper = self._wrap(span_name(mod_name, func_name), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """The current window's aggregates, as plain data."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "histogram_instances": len(self.histogram_instances),
        }
