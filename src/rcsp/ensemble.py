"""Random biregular instances and exact small-instance thermodynamics.

Instances are drawn from the configuration model: n variables each with d
half-edges, m = nd/k clauses each with k slots, matched by a seeded uniform
shuffle.  Solution counts and partition functions are exact: a clause is
violated exactly when its literal-adjusted values are all equal, which pins
its variables to one of two complementary bit patterns.  A global flip keeps
every clause's status, so only the assignments with x_0 = 0 are walked, in
cache-sized blocks in Gray order, by contiguous adds and subtractions of
precomputed pattern sums; doubled, their zeros give the solution count and
their histogram gives Z(beta) at any temperature.

Satisfiability alone needs no count: is_satisfiable decides it by a
complete depth-first search with x_0 pinned and unit propagation, bounded
by a node budget instead of by n, and sat_sweep asks it.

Seeding contract: every multi-trial operation derives the trial's generator
from SeedSequence(master_seed, spawn_key=(...counters...)), so any single
trial can be reproduced in isolation.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "NaeInstance",
    "GibbsSummary",
    "SweepPoint",
    "ConcentrationStat",
    "RetryExhaustedError",
    "SearchBudgetError",
    "InstanceFormatError",
    "is_simple",
    "check_size",
    "sample_instance",
    "count_solutions",
    "count_solutions_dfs",
    "is_satisfiable",
    "violation_histogram",
    "partition_function",
    "clause_resample_sensitivity",
    "concentration_experiment",
    "sat_sweep",
    "write_instance",
    "read_instance",
]

COUNT_VARS_LIMIT = 34
TENSOR_VARS_LIMIT = 30
CHUNK_VARS = 16
RESAMPLE_VARS_LIMIT = 24
BETA_INFINITY = 700.0
# Branches is_satisfiable may take on one instance.  In sweeps of 20 seeded
# coloring instances per point, the most any instance took was 5,734 at
# k = 3, d = 5..8, n <= 120; 171,342 at k = 3, d = 7, n = 180; and 241,460
# at k = 4, d = 20, n = 80.  The budget is about twice the largest, and at
# about 0.12 ms per node there a search gives up within about a minute.
SEARCH_NODE_BUDGET = 500_000

MODELS = ("nae", "coloring")


class RetryExhaustedError(RuntimeError):
    """No simple instance found within the retry budget."""


class SearchBudgetError(RuntimeError):
    """The decision search used up SEARCH_NODE_BUDGET without an answer."""


class InstanceFormatError(ValueError):
    """Instance file rejected; message carries line and column."""


def is_simple(clauses) -> bool:
    """True when no clause contains a repeated variable."""
    return all(len(set(c)) == len(c) for c in clauses)


@dataclass(frozen=True)
class NaeInstance:
    """One sampled factor graph.

    clauses[a] lists clause a's variable indices in slot order (repeats
    mean multi-edges); literals[a] the matching flip bits, all zero under
    the coloring model.  simple, derived from the clauses, says that no
    clause repeats a variable.
    """

    n: int
    m: int
    k: int
    d: int
    clauses: tuple[tuple[int, ...], ...]
    literals: tuple[tuple[int, ...], ...]
    model: str = "nae"

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.n * self.d != self.m * self.k:
            raise ValueError(
                f"half-edge mismatch: n*d = {self.n * self.d}, m*k = {self.m * self.k}"
            )
        if len(self.clauses) != self.m or len(self.literals) != self.m:
            raise ValueError("clause or literal row count differs from m")
        degree = [0] * self.n
        for a, (cl, li) in enumerate(zip(self.clauses, self.literals)):
            if len(cl) != self.k or len(li) != self.k:
                raise ValueError(f"clause {a} does not have {self.k} slots")
            for v in cl:
                if not 0 <= v < self.n:
                    raise ValueError(f"clause {a} names variable {v} outside 0..{self.n - 1}")
                degree[v] += 1
            for bit in li:
                if bit not in (0, 1):
                    raise ValueError(f"clause {a} has non-bit literal {bit!r}")
        for v, deg in enumerate(degree):
            if deg != self.d:
                raise ValueError(f"variable {v} has degree {deg}, expected {self.d}")
        if self.model == "coloring" and any(any(li) for li in self.literals):
            raise ValueError("coloring instances must have all-zero literals")

    @property
    def simple(self) -> bool:
        return is_simple(self.clauses)


@dataclass(frozen=True)
class GibbsSummary:
    """Exact partition function at one temperature.

    solution_count is the zero-violation histogram entry; ln Z can never
    fall below ln(count) because dropping every violated term only shrinks
    the sum.  With no solutions the bound Z >= count is vacuous, and Z
    below 1 is normal there at large beta.
    """

    beta: float
    logZ: float
    solution_count: int
    free_energy_per_var: float

    def __post_init__(self) -> None:
        if self.solution_count < 0:
            raise ValueError(f"negative solution count {self.solution_count}")
        if self.solution_count > 0:
            floor = math.log(self.solution_count)
            if self.logZ < floor - 1e-9:
                raise ValueError(
                    f"logZ = {self.logZ} below solution-count floor {floor}"
                )


@dataclass(frozen=True)
class SweepPoint:
    d: int
    trials: int
    sat_fraction: float


@dataclass(frozen=True)
class ConcentrationStat:
    """Mean and sample std of (1/n) ln Z; std is None for a single sample."""

    n: int
    samples: int
    mean: float
    std: float | None


def check_size(n: int, k: int, d: int) -> int:
    """Clause count m = nd/k of an n-variable, k-uniform, d-regular instance;
    ValueError when no such instance exists."""
    if n < 1 or k < 2 or d < 1:
        raise ValueError(f"need n >= 1, k >= 2, d >= 1, got n={n} k={k} d={d}")
    if (n * d) % k != 0:
        raise ValueError(f"n*d = {n * d} not divisible by k = {k}")
    return (n * d) // k


def sample_instance(
    n: int,
    k: int,
    d: int,
    seed,
    model: str = "nae",
    require_simple: bool = False,
    max_retries: int = 1000,
) -> NaeInstance:
    """Draw one instance: shuffle the nd half-edges, then draw literals.

    seed may be an integer or a SeedSequence.  Matching retries (when
    require_simple is set) consume the same stream, so a given seed always
    yields the same instance regardless of how many rejections occur.
    """
    m = check_size(n, k, d)
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if max_retries < 1:
        raise ValueError(f"max_retries must be at least 1, got {max_retries}")
    rng = np.random.default_rng(seed)
    clauses = None
    for _ in range(max_retries):
        perm = rng.permutation(n * d)
        cand = (perm // d).reshape(m, k)
        if not require_simple or is_simple(cand.tolist()):
            clauses = cand
            break
    if clauses is None:
        raise RetryExhaustedError(
            f"no simple instance in {max_retries} draws at n={n} k={k} d={d}"
        )
    if model == "nae":
        lits = rng.integers(0, 2, size=(m, k))
    else:
        lits = np.zeros((m, k), dtype=np.int64)
    return NaeInstance(
        n=n,
        m=m,
        k=k,
        d=d,
        clauses=tuple(tuple(int(v) for v in row) for row in clauses),
        literals=tuple(tuple(int(b) for b in row) for row in lits),
        model=model,
    )


def _clause_pin_patterns(inst: NaeInstance):
    """Per clause, the <= 2 variable-pinning patterns that violate it.

    The clause is violated iff x_v XOR L agrees across slots, i.e. x_v = L
    on every slot (all-zero side) or x_v = 1-L (all-one side).  A repeated
    variable with clashing literals kills both sides at once; otherwise the
    all-one side is the all-zero side with its bits complemented.  Each
    pattern is a (vars, bits) pair over the clause's sorted distinct variables.
    """
    patterns = []
    for cl, li in zip(inst.clauses, inst.literals):
        need: dict[int, int] = {}
        if all(need.setdefault(v, lit) == lit for v, lit in zip(cl, li)):
            vars_, bits = zip(*sorted(need.items()))
            patterns.append(((vars_, bits), (vars_, tuple(b ^ 1 for b in bits))))
        else:
            patterns.append(())
    return patterns


def _blocks(inst: NaeInstance):
    """Yield the violation counts of the assignments with x_0 = 0, in blocks.

    A global flip keeps every clause's status and maps the x_0 = 1 half one
    to one onto this half, so callers double their totals.  An outer counter
    runs in Gray order over the leading variables, x_0 pinned to 0; the rest
    (at most CHUNK_VARS) index a block.  Patterns are grouped by what they
    require of the leading variables, dropping those that need x_0 = 1, and
    each group's indicators over the block variables are summed once.  Per
    step one buffer loses the groups that stop matching, then gains those
    that start, so a count stays in 0..m (a clause's two patterns exclude
    each other).  The same buffer is yielded: consume it before the next.
    """
    inner = min(inst.n - 1, CHUNK_VARS)
    fixed = inst.n - inner
    dtype = np.min_scalar_type(inst.m)  # the narrowest unsigned type holding m
    groups = defaultdict(lambda: np.zeros((2,) * inner, dtype))
    for sides in _clause_pin_patterns(inst):
        for vars_, bits in sides:
            mask = want = 0
            idx: list = [slice(None)] * inner
            for v, b in zip(vars_, bits):
                if v < fixed:
                    mask |= 1 << v
                    want |= b << v
                else:
                    idx[v - fixed] = b
            if not want & 1:  # a pattern needing x_0 = 1 never fires
                groups[mask, want][tuple(idx)] += 1
    masks, wants = np.array(list(groups), dtype=np.int64).reshape(-1, 2).T
    arrays = [a.ravel() for a in groups.values()]
    block = np.zeros(1 << inner, dtype)
    met = np.zeros(len(arrays), dtype=bool)
    for step in range(1 << (fixed - 1)):
        outer = (step ^ (step >> 1)) << 1  # Gray code, x_0 = 0
        now = (outer & masks) == wants
        for g in np.flatnonzero(met & ~now):
            block -= arrays[g]
        for g in np.flatnonzero(now & ~met):
            block += arrays[g]
        met = now
        yield block


def count_solutions(inst: NaeInstance) -> int:
    """Exact number of satisfying assignments: twice the zero entries of the
    blocks."""
    if inst.n > COUNT_VARS_LIMIT:
        raise ValueError(f"count capped at n <= {COUNT_VARS_LIMIT}, got {inst.n}")
    return 2 * sum(block.size - int(np.count_nonzero(block)) for block in _blocks(inst))


def count_solutions_dfs(inst: NaeInstance) -> int:
    """Reference counter: depth-first over both values of every variable (no
    flip symmetry), pruning a branch once a full clause is monochromatic."""
    n, k = inst.n, inst.k
    slots_of_var: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, (cl, li) in enumerate(zip(inst.clauses, inst.literals)):
        for v, lit in zip(cl, li):
            slots_of_var[v].append((a, lit))
    assigned = [0] * inst.m
    zeros = [0] * inst.m
    ones = [0] * inst.m

    def recurse(v: int) -> int:
        if v == n:
            return 1
        total = 0
        for bit in (0, 1):
            alive = True
            for a, lit in slots_of_var[v]:
                if bit ^ lit:
                    ones[a] += 1
                else:
                    zeros[a] += 1
                assigned[a] += 1
                if assigned[a] == k and (zeros[a] == k or ones[a] == k):
                    alive = False
            if alive:
                total += recurse(v + 1)
            for a, lit in slots_of_var[v]:
                if bit ^ lit:
                    ones[a] -= 1
                else:
                    zeros[a] -= 1
                assigned[a] -= 1
        return total

    return recurse(0)


def is_satisfiable(inst: NaeInstance) -> bool:
    """True when some assignment violates no clause, by a complete search.

    Clauses are read through their violating patterns: one that repeats a
    variable with clashing literals has none and is dropped, other repeats
    merge, and a clause left with one variable is always violated.  x_0 is
    pinned to 0, since a global flip keeps every clause's status.  When all
    but one variable of an unsatisfied clause are assigned and their
    literal-adjusted values agree, the last is forced to the other value.
    Otherwise the search branches on the free variable in the most partly
    assigned clauses (the lowest index on ties), trying first the value most
    of them need.  Each branch taken counts one node; past
    SEARCH_NODE_BUDGET it raises SearchBudgetError.
    """
    clauses = []  # (variable, literal) over each clause's distinct variables
    for sides in _clause_pin_patterns(inst):
        if sides:
            vars_, bits = sides[0]  # the side pinning x_v = L
            if len(vars_) == 1:
                return False
            clauses.append(tuple(zip(vars_, bits)))
    occ: list[list[tuple[int, int]]] = [[] for _ in range(inst.n)]
    for c, cl in enumerate(clauses):
        for v, b in cl:
            occ[v].append((c, b))
    value = [-1] * inst.n
    free = [len(cl) for cl in clauses]
    seen = [[0, 0] for _ in clauses]  # assigned slots whose x_v ^ L is 0, 1
    trail: list[int] = []

    def assign(v: int, bit: int) -> bool:
        """Set x_v = bit and everything it forces; False on a violated clause."""
        queue = [(v, bit)]
        while queue:
            v, bit = queue.pop()
            if value[v] >= 0:
                if value[v] != bit:
                    return False
                continue
            value[v] = bit
            trail.append(v)
            for c, b in occ[v]:
                free[c] -= 1
                seen[c][bit ^ b] += 1
            for c, _ in occ[v]:
                zero, one = seen[c]
                if zero and one:
                    continue
                if not free[c]:
                    return False
                if free[c] == 1:
                    queue.extend((u, ub ^ (zero > 0)) for u, ub in clauses[c] if value[u] < 0)
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            v = trail.pop()
            bit, value[v] = value[v], -1
            for c, b in occ[v]:
                free[c] += 1
                seen[c][bit ^ b] -= 1

    def branch() -> tuple[int, int]:
        """The free variable in the most partly assigned clauses, and the
        value most of them need; (-1, 0) when every variable is set."""
        best, most, vote = -1, -1, 0
        for v, slots in enumerate(occ):
            if value[v] >= 0:
                continue
            partly = need = 0
            for c, b in slots:
                zero, one = seen[c]
                if (zero > 0) != (one > 0):
                    partly += 1
                    need += 1 if b ^ (zero > 0) else -1
            if partly > most:
                best, most, vote = v, partly, need
        return best, int(vote > 0)

    nodes = 0
    stack: list[tuple[int, int, int]] = []  # (trail mark, variable, other value)
    ok = assign(0, 0)
    while True:
        if ok:
            v, bit = branch()
            if v < 0:
                return True
            stack.append((len(trail), v, 1 - bit))
        elif stack:
            mark, v, bit = stack.pop()
            undo(mark)
        else:
            return False
        nodes += 1
        if nodes > SEARCH_NODE_BUDGET:
            raise SearchBudgetError(
                f"satisfiability search gave up after {SEARCH_NODE_BUDGET} nodes "
                f"at n={inst.n} k={inst.k} d={inst.d}"
            )
        ok = assign(v, bit)


def violation_histogram(inst: NaeInstance) -> list[int]:
    """hist[j] = number of assignments violating exactly j clauses.  The
    blocks are bincounted into one doubled accumulator; none grows with 2^n.
    A uint8 block (m < 256) of even length is bincounted two entries at a
    time through its uint16 view, into a table of value pairs; the table's
    two marginals sum to the histogram in either byte order."""
    if inst.n > TENSOR_VARS_LIMIT:
        raise ValueError(f"histogram capped at n <= {TENSOR_VARS_LIMIT}, got {inst.n}")
    paired = inst.m < 256 and inst.n > 1
    acc = np.zeros(1 << 16 if paired else inst.m + 1, dtype=np.int64)
    for block in _blocks(inst):
        counts = np.bincount(block.view(np.uint16) if paired else block)
        acc[: counts.size] += counts
    if paired:
        table = acc.reshape(256, 256)
        acc = table.sum(axis=0) + table.sum(axis=1)
    return [2 * int(c) for c in acc[: inst.m + 1]]


def partition_function(inst: NaeInstance, beta: float) -> GibbsSummary:
    """Exact Z(beta): violated clauses pay e^{-beta} each, so Z is the
    violation histogram summed against e^{-beta j}.  beta must be finite:
    BETA_INFINITY stands in for the zero-temperature limit."""
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be >= 0 and finite, got {beta!r}")
    hist = violation_histogram(inst)
    count = hist[0]
    if beta == 0:
        logz = inst.n * math.log(2.0)
    else:
        terms = [math.log(c) - beta * j for j, c in enumerate(hist) if c > 0]
        shift = max(terms)
        logz = shift + math.log(math.fsum(math.exp(t - shift) for t in terms))
    return GibbsSummary(
        beta=beta, logZ=logz, solution_count=count, free_energy_per_var=logz / inst.n
    )


def _swap_slots(inst: NaeInstance, s1: int, s2: int) -> NaeInstance:
    """New instance with the matching transposed at two clause slots.
    Literals ride with the slots, so only the variable ends move."""
    k = inst.k
    rows = [list(cl) for cl in inst.clauses]
    a1, j1 = divmod(s1, k)
    a2, j2 = divmod(s2, k)
    rows[a1][j1], rows[a2][j2] = rows[a2][j2], rows[a1][j1]
    return replace(inst, clauses=tuple(tuple(r) for r in rows))


def clause_resample_sensitivity(
    inst: NaeInstance, beta: float, trials: int, seed
) -> float:
    """Max |change in ln Z| over single pair-swap rewirings of the matching.

    Each trial picks a random slot of a random clause plus a random partner
    slot anywhere, swaps their variable ends, and re-solves; a swap touches
    at most two clause factors, each confined to [e^{-beta}, 1], so every
    difference is bounded by 2 beta.  Trial t uses spawn_key=(t,).
    """
    if inst.n > RESAMPLE_VARS_LIMIT:
        raise ValueError(f"resampling capped at n <= {RESAMPLE_VARS_LIMIT}, got {inst.n}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    base = partition_function(inst, beta).logZ
    worst = 0.0
    nd = inst.n * inst.d
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        a = int(rng.integers(inst.m))
        j = int(rng.integers(inst.k))
        partner = int(rng.integers(nd))
        moved = _swap_slots(inst, a * inst.k + j, partner)
        worst = max(worst, abs(partition_function(moved, beta).logZ - base))
    return worst


def concentration_experiment(
    n_list, k: int, d: int, beta: float, samples: int, seed, model: str = "nae"
) -> list[ConcentrationStat]:
    """Mean and sample std of (1/n) ln Z across seeded instances per size.

    Instance t at list position i uses spawn_key=(i, t).  A single sample
    has no spread estimate, so std is None there.
    """
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    out = []
    for i, n in enumerate(n_list):
        vals = []
        for t in range(samples):
            inst = sample_instance(
                n, k, d, np.random.SeedSequence(seed, spawn_key=(i, t)), model=model
            )
            vals.append(partition_function(inst, beta).free_energy_per_var)
        mean = math.fsum(vals) / samples
        if samples >= 2:
            std = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (samples - 1))
        else:
            std = None
        out.append(ConcentrationStat(n=n, samples=samples, mean=mean, std=std))
    return out


def sat_sweep(
    k: int, n: int, d_list, trials: int, seed, model: str = "nae"
) -> list[SweepPoint]:
    """Fraction of seeded instances with at least one solution, per degree.

    Each instance is decided by is_satisfiable, not counted, so n has no cap;
    an instance past the search's node budget raises SearchBudgetError.
    Trial t at degree position i uses spawn_key=(i, t).
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    points = []
    for i, d in enumerate(d_list):
        check_size(n, k, d)
        hits = 0
        for t in range(trials):
            inst = sample_instance(
                n, k, d, np.random.SeedSequence(seed, spawn_key=(i, t)), model=model
            )
            if is_satisfiable(inst):
                hits += 1
        points.append(SweepPoint(d=d, trials=trials, sat_fraction=hits / trials))
    return points


def write_instance(inst: NaeInstance, path) -> None:
    """Serialize: header `p rcsp <model> <k> <n> <m> <d>`, then one
    `c v1 L1 ... vk Lk` line per clause with 1-based variables."""
    lines = [f"p rcsp {inst.model} {inst.k} {inst.n} {inst.m} {inst.d}"]
    for cl, li in zip(inst.clauses, inst.literals):
        parts = ["c"]
        for v, lit in zip(cl, li):
            parts.append(str(v + 1))
            parts.append(str(lit))
        lines.append(" ".join(parts))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _tokens_with_columns(line: str):
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _parse_int(tok: str, lineno: int, col: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise InstanceFormatError(
            f"line {lineno}, column {col}: expected {what}, got {tok!r}"
        ) from None


def read_instance(path) -> NaeInstance:
    """Parse and fully validate an instance file; inverse of write_instance."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()
    lines = [(i + 1, ln) for i, ln in enumerate(raw) if ln.strip()]
    if not lines:
        raise InstanceFormatError("line 1, column 1: empty file")
    lineno, header = lines[0]
    toks = _tokens_with_columns(header)
    if len(toks) != 7 or toks[0][0] != "p" or toks[1][0] != "rcsp":
        raise InstanceFormatError(
            f"line {lineno}, column 1: header must be 'p rcsp <model> <k> <n> <m> <d>'"
        )
    model = toks[2][0]
    if model not in MODELS:
        raise InstanceFormatError(
            f"line {lineno}, column {toks[2][1]}: unknown model {model!r}"
        )
    k, n, m, d = (
        _parse_int(toks[i][0], lineno, toks[i][1], name)
        for i, name in ((3, "k"), (4, "n"), (5, "m"), (6, "d"))
    )
    if n * d != m * k:
        raise InstanceFormatError(
            f"line {lineno}, column 1: header has n*d = {n * d} but m*k = {m * k}"
        )
    body = lines[1:]
    if len(body) != m:
        raise InstanceFormatError(
            f"line {lineno}, column 1: header promises {m} clause lines, found {len(body)}"
        )
    clauses = []
    literals = []
    for lineno, line in body:
        toks = _tokens_with_columns(line)
        if not toks or toks[0][0] != "c":
            raise InstanceFormatError(
                f"line {lineno}, column 1: clause lines must start with 'c'"
            )
        if len(toks) != 1 + 2 * k:
            raise InstanceFormatError(
                f"line {lineno}, column 1: expected {2 * k} tokens after 'c', got {len(toks) - 1}"
            )
        row_v = []
        row_l = []
        for j in range(k):
            vtok, vcol = toks[1 + 2 * j]
            ltok, lcol = toks[2 + 2 * j]
            v = _parse_int(vtok, lineno, vcol, "variable index")
            lit = _parse_int(ltok, lineno, lcol, "literal bit")
            if not 1 <= v <= n:
                raise InstanceFormatError(
                    f"line {lineno}, column {vcol}: variable {v} outside 1..{n}"
                )
            if lit not in (0, 1):
                raise InstanceFormatError(
                    f"line {lineno}, column {lcol}: literal bit must be 0 or 1, got {lit}"
                )
            row_v.append(v - 1)
            row_l.append(lit)
        clauses.append(tuple(row_v))
        literals.append(tuple(row_l))
    degree = [0] * n
    for cl in clauses:
        for v in cl:
            degree[v] += 1
    for v, deg in enumerate(degree):
        if deg != d:
            raise InstanceFormatError(
                f"variable {v + 1} has degree {deg}, expected {d}"
            )
    try:
        return NaeInstance(
            n=n,
            m=m,
            k=k,
            d=d,
            clauses=tuple(clauses),
            literals=tuple(literals),
            model=model,
        )
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
