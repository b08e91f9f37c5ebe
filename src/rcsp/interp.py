"""Exact evaluation of the clause-tree interpolation functional.

The functional bounds the free energy of the positive-temperature models.
Messages are probability weights on {0,1}, identified with the weight of 1.
A cluster measure eta places atoms on such weights; a clause draws k-1
independent atoms and produces the pair (u(0), u(1)) of clause factors; d
independent clause draws feed one variable.  The functional is

    P = (1/lam) ln E[(P0 + P1)^lam] - (k-1)(d/k) (1/lam) ln E[u0^lam]

with Px the product of the d clause factors at spin x and u0 a standalone
clause factor on k draws.

Everything runs in log space so inverse temperatures up to beta = 256 stay
exact: atom values are carried as (ln v, ln(1-v)) pairs supplied at
construction, clause factors as ln u.  The d-fold product law is convolved
over an integer lattice: each clause-law entry contributes one signed unit
step along a small basis of distinct values of ln u(1) - ln u(0), so
states with equal step counts merge exactly and the product support stays
polynomial in d instead of exponential.

One enumeration, _draws, lists the atom draws of both terms: the k-1 draws
of a clause law and the k draws of the standalone clause.  It builds each
draw's probability and log-weight sums as numpy running products and sums,
first slot slowest, which multiply and add in the order of a per-draw loop.
The clause factor ln u of each draw stays a scalar math evaluation: numpy's
vectorised log and expm1 can differ from math.log and math.expm1 in the
last bit (on an AVX-512 host, for 1-4% of inputs).

One product step adds each law entry's encoded step to every state key.
The keys are sorted and unique, and the entries come in descending order of
their step (ties in entry order).  The step works through the new keys'
range in tiles cut at every stride-th state key moved by the largest step.
For each step the source states landing in one tile form one slice, which
a single np.searchsorted finds for every tile and step, so a tile holds
about TILE_CANDIDATES (state, entry) candidates and no array holds states x
entries numbers.  A tile lays out one run per distinct step, its source
states ascending, and a sort of those keys numbers the tile's distinct
keys.  Each law then lays its terms out entry by entry, every entry
reading the group ids of its step's run, np.bincount sums the terms of
each key in that layout order, and the tiles are concatenated in key
order.  A key's terms all land in one tile, and within it they arrive in
entry order, which is ascending order of their source state (the steps
descend), and for one source state in entry order.  That is the order in
which the state-major product (state i, then entry j), reduced by np.unique
and np.bincount, adds them, so both give the same probabilities to the
last bit at every tile size.  Neither np.add.reduceat (pairwise summation)
nor pre-merging entries that share a step (p*(qa + qb) is not p*qa + p*qb
in floats) keeps that order.

So the tiles, the merged keys and the group ids depend only on the
distinct encoded steps, never on the probabilities or on how many entries
share a step.  Evaluations whose distinct steps agree at every product
step (the literal classes of literal_invariance_check, the betas of one
scan, whose laws differ in how many entries take no step) share one
_LatticeState, with a row each: its keys are built and sorted once per
step for all of them, and each row is summed exactly as a lattice of its
own would sum it, so every value is the same float.  Members whose tilted,
sorted laws agree byte for byte at every step (and in lam and the basis
magnitudes) are twins and share one row, which the same numpy calls on the
same bytes fill alike.  L and ~L share their clause laws, so they always
are twins, and the literal classes of a symmetric eta mostly are: the 17
members of the check at k = 4, d = 20 with one mixed assignment take 3
rows.

A row stops with SupportBlowupError when a state probability of it falls
below the smallest normal float64: at large beta the tilted states
underflow, and dropping them changed the value (at k = 3, d = 4,
beta = 65536 the lattice read 33.62 where the uncompressed product gives
44.02).  It stops too when its product passes MAX_PRODUCT_STATES, and
when a step that moves a key follows 62 that did, which could overflow a
key field.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bp import ModelParams, solve_fixed_point
from .ensemble import MODELS
from .thresholds import phi

__all__ = [
    "AtomicMeasure",
    "ThetaSpec",
    "ClauseMessageLaw",
    "LiteralInvarianceResult",
    "BetaScanRow",
    "BetaScanResult",
    "SupportBlowupError",
    "eta_cluster",
    "clause_message_law",
    "functional_exact",
    "functional_monte_carlo",
    "literal_invariance_check",
    "beta_scaling_scan",
]

# Largest states x law entries product one lattice step sums: a bound on its
# work, as its memory grows with the states and TILE_CANDIDATES only.
MAX_PRODUCT_STATES = 10_000_000
# (state, law entry) candidates one tile of a product step sorts and sums;
# the fastest of 2^14..2^17 on the k = 4 scans and literal-invariance check.
TILE_CANDIDATES = 65_536
MAX_REFERENCE_TUPLES = 2_000_000
MAX_ATOMS = 5
# Smallest normal float64: a lattice state probability below it has lost bits.
_TINY = np.finfo(float).tiny
# Samples per Monte Carlo batch; a different value changes the RNG stream.
MC_CHUNK = 100_000

_KEY_BITS = 7
_KEY_OFF = 63
_KEY_DIMS = 9
_KEY_BASE = sum(_KEY_OFF << (_KEY_BITS * r) for r in range(_KEY_DIMS))


class SupportBlowupError(RuntimeError):
    """The d-fold product law exceeded the state budget."""


def _logsumexp(a) -> float:
    a = np.asarray(a, dtype=float)
    m = float(np.max(a))
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.sum(np.exp(a - m))))


def _sig15(x: float) -> float:
    """Round to 15 significant digits; merge key for law support pairs."""
    return 0.0 if x == 0.0 else float(f"{x:.14e}")


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite measure on message weights: ((value, mass), ...).

    log_pairs holds (ln value, ln(1-value)) per atom.  Pass it when the
    values are known in log form more precisely than the float values
    themselves (eta_cluster does, so that beta up to 256 loses nothing);
    otherwise it is derived from the values.  The log pairs are part of
    equality and the hash: two measures with the same atoms but different
    log pairs give different functionals, so they must not compare equal.
    """

    atoms: tuple[tuple[float, float], ...]
    symmetric: bool = False
    log_pairs: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("measure needs at least one atom")
        atoms = tuple((float(v), float(m)) for v, m in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        values = [v for v, _ in atoms]
        masses = [m for _, m in atoms]
        if any(not (0.0 <= v <= 1.0) for v in values):
            raise ValueError(f"atom values must lie in [0,1]: {values}")
        if any(m < 0 for m in masses):
            raise ValueError(f"masses must be nonnegative: {masses}")
        if abs(sum(masses) - 1.0) > 1e-14:
            raise ValueError(f"masses sum to {sum(masses)!r}, not 1")
        if len(set(values)) != len(values):
            raise ValueError(f"atom values must be distinct: {values}")
        if self.log_pairs is None:
            with np.errstate(divide="ignore"):
                pairs = tuple(
                    (float(np.log(v)) if v > 0 else -math.inf,
                     float(np.log1p(-v)) if v < 1 else -math.inf)
                    for v in values
                )
            object.__setattr__(self, "log_pairs", pairs)
        elif len(self.log_pairs) != len(atoms):
            raise ValueError("log_pairs length must match atoms")
        if self.symmetric:
            for v, m in atoms:
                if not any(
                    abs(v2 - (1.0 - v)) <= 1e-12 and abs(m2 - m) <= 1e-12
                    for v2, m2 in atoms
                ):
                    raise ValueError(
                        f"declared symmetric but atom {v} has no flip partner"
                    )


@dataclass(frozen=True)
class ThetaSpec:
    """Clause weight family: model and inverse temperature.

    The clause weight of an assignment is 1 - theta = e^{-beta} when the
    assignment is monochromatic after XOR with the clause's literals, else
    1.  The literals are given per evaluation (the literals argument of
    clause_message_law and functional_exact), all zero by default, and
    coloring admits only all-zero literals.  beta must be finite; beta = 0
    is admitted as the degenerate weight-1 limit.
    """

    model: str
    beta: float

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"model must be {' or '.join(map(repr, sorted(MODELS)))}, "
                             f"got {self.model!r}")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be >= 0 and finite, got {self.beta!r}")


def _literal_bits(k: int, model: str, lits) -> tuple[int, ...]:
    """lits (None: all zero) as k bits; coloring admits only all-zero literals."""
    if lits is None:
        return (0,) * k
    if any(b not in (0, 1) for b in lits):
        raise ValueError(f"literals must be bits: {lits!r}")
    out = tuple(int(b) for b in lits)
    if model == "coloring" and any(out):
        raise ValueError("coloring requires all-zero literals")
    if len(out) != k:
        raise ValueError(f"need {k} literal bits, got {len(out)}")
    return out


@dataclass(frozen=True)
class ClauseMessageLaw:
    """Joint law of (u(0), u(1)) over k-1 independent atom draws.

    entries are (ln u0, ln u1, probability); u values lie in [e^{-beta}, 1].
    """

    beta: float
    entries: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        total = sum(p for _, _, p in self.entries)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"law probabilities sum to {total!r}, not 1")
        slack = 1e-9
        for lu0, lu1, p in self.entries:
            if p < 0:
                raise ValueError("law probabilities must be nonnegative")
            for lu in (lu0, lu1):
                if not (-self.beta - slack <= lu <= slack):
                    raise ValueError(
                        f"ln u = {lu} outside [{-self.beta}, 0] at beta={self.beta}"
                    )


def eta_cluster(params: ModelParams, beta: float, tol: float = 1e-12) -> AtomicMeasure:
    """Three-atom cluster measure at the BP fixed point.

    Atoms 1/(1+e^{-2 beta}) and its complement carry mass x each, the atom
    1/2 carries 1-2x, with x = solve_fixed_point(params, tol).x.  At
    beta = 0 (or small enough that the outer atoms collide with 1/2 in
    floats) the measure degenerates to a point mass at 1/2.  beta must be
    finite.
    """
    return _cluster_measure(beta, lambda: solve_fixed_point(params, tol, check=False).x)


def _cluster_measure(beta: float, fixed_point) -> AtomicMeasure:
    """eta_cluster, with x = fixed_point() called only when the measure
    needs it."""
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be >= 0 and finite, got {beta!r}")
    lhalf = -math.log(2.0)
    lc_high = -math.log1p(math.exp(-2.0 * beta))
    lc_low = -2.0 * beta + lc_high
    c = math.exp(lc_high)
    if beta == 0.0 or c == 0.5:
        return AtomicMeasure(
            atoms=((0.5, 1.0),), symmetric=True, log_pairs=((lhalf, lhalf),)
        )
    x = fixed_point()
    return AtomicMeasure(
        atoms=((c, x), (math.exp(lc_low), x), (0.5, 1.0 - 2.0 * x)),
        symmetric=True,
        log_pairs=((lc_high, lc_low), (lc_low, lc_high), (lhalf, lhalf)),
    )


def _log_u(lp: float, beta: float) -> float:
    """ln(1 - (1 - e^{-beta}) e^{lp}) for lp <= 0, stable for large beta."""
    if beta == 0.0:
        return 0.0
    if lp >= 0.0:
        return -beta
    return float(np.logaddexp(math.log(-math.expm1(lp)), -beta + lp))


def _draws(eta: AtomicMeasure, bits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every draw of len(bits) independent atoms, first slot slowest.

    Per draw of nonzero probability: the probability, sum_j ln rho(b_j) and
    sum_j ln rho(1 - b_j), with rho the drawn atom's weight.
    """
    n_atoms = len(eta.atoms)
    if n_atoms ** len(bits) > MAX_REFERENCE_TUPLES:
        raise SupportBlowupError(f"{n_atoms}^{len(bits)} clause draws exceed the budget")
    masses = np.array([m for _, m in eta.atoms])
    pairs = np.array(eta.log_pairs)
    prob, lp_a, lp_b = np.ones(1), np.zeros(1), np.zeros(1)
    for b in bits:
        prob = (prob[:, None] * masses).ravel()
        lp_a = (lp_a[:, None] + pairs[:, b]).ravel()
        lp_b = (lp_b[:, None] + pairs[:, 1 - b]).ravel()
    keep = prob != 0.0
    return prob[keep], lp_a[keep], lp_b[keep]


def _flip_class(lits: tuple[int, ...]) -> tuple[int, ...]:
    """The member of {L, ~L} with first bit 0.

    A clause reads its literals only through L_1 XOR L_j, and the standalone
    clause only through the unordered pair of sums over L and ~L, so L and
    ~L give the same clause law and the same functional, bit for bit.
    """
    return tuple(1 - b for b in lits) if lits[0] else lits


def clause_message_law(
    k: int, eta: AtomicMeasure, spec: ThetaSpec, literals=None
) -> ClauseMessageLaw:
    """Exact law of (u(0), u(1)) for one clause.

    Enumerates all |atoms|^(k-1) draws; factor j of u(x) is the atom weight
    of the bit x XOR L_1 XOR L_j, so u(x) = 1 - (1-e^{-beta}) prod_j rho_j.
    Identical pairs (at 15 significant digits of the log values) aggregate.
    literals is the clause's literal vector L, all zero when None.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    lits = _literal_bits(k, spec.model, literals)
    beta = spec.beta
    prob, lp0, lp1 = _draws(eta, [lits[0] ^ lits[j] for j in range(1, k)])
    merged: dict[tuple[float, float], tuple[float, float, float]] = {}
    for p, a, b in zip(prob.tolist(), lp0.tolist(), lp1.tolist()):
        lu0, lu1 = _log_u(a, beta), _log_u(b, beta)
        key = (_sig15(lu0), _sig15(lu1))
        if key in merged:
            old = merged[key]
            merged[key] = (old[0], old[1], old[2] + p)
        else:
            merged[key] = (lu0, lu1, p)
    return ClauseMessageLaw(beta=beta, entries=tuple(merged.values()))


def _tilt_law(entries, lam):
    """Per-clause tilt: ln Z1 = ln E[u(0)^lam], tilted pmf q, delta = ln u1 - ln u0."""
    lu0 = np.array([e[0] for e in entries])
    lu1 = np.array([e[1] for e in entries])
    lnp = np.log(np.array([e[2] for e in entries]))
    lz1 = _logsumexp(lnp + lam * lu0)
    q = np.exp(lnp + lam * lu0 - lz1)
    return lz1, q, lu1 - lu0


def _encode_law(law: ClauseMessageLaw, lam: float, basis: tuple):
    """(ln Z1, distinct steps, layout, q, basis after) of law tilted by lam.

    Each delta becomes a (dimension, sign) unit step: |delta| <= 1e-12
    takes no step, a magnitude within 1e-9 (relative to its size) of a
    basis magnitude reuses that dimension, and any other magnitude opens a
    new one, so laws differing only by literal flips land on one common
    lattice.  Steps, layout and q come from _sort_moves, or None when the
    basis outgrows the lattice key.
    """
    lz1, q, delta = _tilt_law(law.entries, lam)
    basis, moves = list(basis), []
    for dl in delta.tolist():
        mag = abs(dl)
        if mag <= 1e-12:
            moves.append((-1, 0))
            continue
        r = next((r for r, v in enumerate(basis) if abs(mag - v) <= 1e-9 * max(1.0, v)), None)
        if r is None:
            r = len(basis)
            basis.append(mag)
        moves.append((r, 1 if dl > 0 else -1))
    basis = tuple(basis)
    if len(basis) > _KEY_DIMS:
        return lz1, None, None, None, basis
    return (lz1, *_sort_moves(q, moves), basis)


def _sort_moves(q: np.ndarray, moves) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """(distinct steps, layout, q) of (dimension, sign) moves: the distinct
    encoded steps in descending order, each entry's index among them with
    the entries in descending order of their step (ties in entry order),
    and q in that entry order."""
    enc = [s * (1 << (_KEY_BITS * r)) if r >= 0 else 0 for r, s in moves]
    order = sorted(range(len(enc)), key=lambda e: -enc[e])
    steps = sorted(set(enc), reverse=True)
    return np.array(steps, dtype=np.int64), tuple(steps.index(enc[e]) for e in order), q[order]


class _LatticeState:
    """A walk of product-law states: packed signed step counts -> one
    probability row per member, with its tilt lams[j], its basis
    magnitudes bases[j] and its running sum of ln Z1.

    A key is sum_r m_r 2^(7r) with step counts |m_r| <= 62; adding the
    constant base sum_r 63*2^(7r) makes every 7-bit field the digit
    m_r + 63 in [1, 125], so distinct count vectors give distinct keys and
    decoding is field extraction.  keys stay sorted and unique, and step
    sums tile by tile in the order the module docstring derives.  step
    decides every row stop: a row stops when its product passes
    MAX_PRODUCT_STATES (checked before allocating anything), when a step
    that moves follows 62 that did (a field could then overflow; steps
    that move no key never can), and when a state probability of its new
    row underflows float64.  A stopped row's probs turn None and errors
    holds its SupportBlowupError under its index; the other rows go on.
    """

    def __init__(self, lams, bases) -> None:
        self.lams, self.bases = np.array(lams), bases
        self.keys = np.array([0], dtype=np.int64)
        self.probs = [np.ones(1) for _ in bases]
        self.lz_sums = np.zeros(len(bases))
        self.errors: dict[int, SupportBlowupError] = {}
        self.steps_taken = 0
        self.moving_steps = 0

    def stop(self, j: int, error: SupportBlowupError) -> None:
        self.probs[j] = None
        self.errors[j] = error

    def value(self, n_clauses: int, laws) -> np.ndarray:
        """(sum of ln Z1 + ln E[(1 + e^D)^lam]) / lam per row after n_clauses
        product steps, nan for a stopped row, stepping on from steps_taken.
        laws[j][s] is row j's encoded law (ln Z1, steps, layout, q) at step s."""
        for s in range(self.steps_taken, n_clauses):
            self.step(laws[0][s][1], [law[s][2] for law in laws], [law[s][3] for law in laws])
            self.lz_sums = self.lz_sums + [law[s][0] for law in laws]
        return (self.lz_sums + self.log_moments()) / self.lams

    def step(self, steps: np.ndarray, layouts, qs) -> None:
        """Convolve each live row with its clause law.  steps are the laws'
        common distinct encoded steps in descending order; row j's law has
        one entry per item of layouts[j], that entry's index in steps
        (ascending), with probability qs[j][e].  Rows stop as the class
        docstring says; if none is left the state is not stepped."""
        keys, rows = self.keys, {}  # the live rows by layout
        moves = steps.tolist()
        moving = any(moves)
        for j, (layout, row) in enumerate(zip(layouts, self.probs)):
            if row is None:
                continue
            if moving and self.moving_steps >= _KEY_OFF - 1:
                self.stop(j, SupportBlowupError(f"more than {_KEY_OFF - 1} product steps"))
            elif len(keys) * len(layout) > MAX_PRODUCT_STATES:
                self.stop(j, SupportBlowupError(
                    f"product of {len(keys)} states and {len(layout)} law entries "
                    f"exceeds {MAX_PRODUCT_STATES}"
                ))
            else:
                rows.setdefault(layout, []).append(j)
        if not rows:
            return
        q_rows = {j: qs[j].tolist() for js in rows.values() for j in js}
        # Tiles of new keys, cut at every stride-th state key moved by the
        # largest step, so that step puts stride states in each tile and no
        # tile is empty; bounds[t][r] is the first state whose key + steps[r]
        # falls in tile t.
        n_tiles = -(-len(keys) * max(map(len, rows)) // TILE_CANDIDATES)
        stride = -(-len(keys) // n_tiles)
        cuts = []
        if n_tiles > 1:
            cuts = np.searchsorted(keys, keys[stride::stride, None] + (steps[0] - steps)).tolist()
        bounds = [[0] * len(steps), *cuts, [len(keys)] * len(steps)]
        new_keys, new_probs = [], {j: [] for j in q_rows}
        for lo, hi in zip(bounds, bounds[1:]):
            src = list(map(slice, lo, hi))
            # one run per distinct step, its source states ascending
            ends = list(itertools.accumulate(h - l for l, h in zip(lo, hi)))
            runs = list(map(slice, [0, *ends], ends))
            tile_keys = np.empty(ends[-1], dtype=np.int64)
            for r, out in enumerate(runs):
                np.add(keys[src[r]], moves[r], out=tile_keys[out])
            # run_gid: each candidate's rank among the tile's distinct keys;
            # any sort gives the same ranks, and timsort merges the runs fastest
            perm = np.argsort(tile_keys, kind="stable")
            sorted_keys = tile_keys[perm]
            starts = np.flatnonzero(
                np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
            )
            new_keys.append(sorted_keys[starts])
            # each key's candidate count (np.diff with append= costs more than
            # a small step's sort)
            counts = np.empty_like(starts)
            np.subtract(starts[1:], starts[:-1], out=counts[:-1])
            counts[-1] = len(perm) - starts[-1]
            run_gid = np.empty(len(perm), dtype=np.intp)
            run_gid[perm] = np.repeat(np.arange(len(starts)), counts)
            del tile_keys, perm, sorted_keys, counts
            for layout, js in rows.items():
                # a layout's candidates entry by entry, each entry reading
                # its step's run: dst holds each entry's place in the tile.
                # Every layout takes each step, so one entry per step is the
                # runs' own layout.
                ends = list(itertools.accumulate(hi[r] - lo[r] for r in layout))
                dst = list(map(slice, [0, *ends], ends))
                gid = run_gid if len(layout) == len(steps) else np.concatenate(
                    [run_gid[runs[r]] for r in layout]
                )
                weights = np.empty(len(gid))
                for j in js:
                    old = self.probs[j]
                    for r, out, qe in zip(layout, dst, q_rows[j]):
                        np.multiply(old[src[r]], qe, out=weights[out])
                    new_probs[j].append(
                        np.bincount(gid, weights=weights, minlength=len(starts))
                    )
        # one tile's arrays are the new ones; each old row is freed as its
        # new row lands
        self.keys = new_keys[0] if len(new_keys) == 1 else np.concatenate(new_keys)
        for j, row in new_probs.items():
            self.probs[j] = row[0] if len(row) == 1 else np.concatenate(row)
            row.clear()
            if self.probs[j].min() < _TINY:
                self.stop(j, SupportBlowupError(
                    f"a lattice state probability underflows float64 at product step "
                    f"{self.steps_taken + 1} (lam = {float(self.lams[j])!r}); a large beta "
                    f"or an atom of near-zero mass can each cause this"
                ))
        self.steps_taken += 1
        self.moving_steps += moving

    def log_moments(self) -> np.ndarray:
        """ln E[(1 + e^D)^lam] per row (nan for a stopped row), with D the
        accumulated sum of basis steps.  States are decoded in near-equal
        slices of at least TILE_CANDIDATES numbers: a slice of one state
        would take numpy's dot path, whose sum can differ in the last bit
        from the matrix-vector product's."""
        bases = self.bases
        vals = np.zeros((len(bases), _KEY_DIMS))
        for v, basis in zip(vals, bases):
            v[: len(basis)] = basis
        n_states = len(self.keys)
        n_slices = max(1, n_states * _KEY_DIMS // TILE_CANDIDATES)
        cuts = [n_states * i // n_slices for i in range(n_slices + 1)]
        sums = np.empty((len(bases), n_states))
        for part in map(slice, cuts, cuts[1:]):
            shifted = (self.keys[part] + np.int64(_KEY_BASE)).astype(np.uint64)
            # fields past the bases' directions always decode to 0
            coords = np.zeros((len(shifted), _KEY_DIMS))
            for r in range(max(map(len, bases))):
                coords[:, r] = (
                    (shifted >> np.uint64(_KEY_BITS * r)) & np.uint64((1 << _KEY_BITS) - 1)
                ).astype(np.int64) - _KEY_OFF
            for d, v in zip(sums, vals):
                d[part] = coords @ v
        out = np.full(len(bases), math.nan)
        for j, (row, lam, d) in enumerate(zip(self.probs, self.lams, sums)):
            if row is not None:
                out[j] = _logsumexp(np.log(row) + lam * np.logaddexp(0.0, d))
        return out


def _in_d(term, d: float):
    """(1/lam) ln E[(P0 + P1)^lam] at real d from term(n), its value on n clauses.

    For non-integer d the term interpolates linearly between floor(d) and
    ceil(d) clause factors, calling term at floor(d) first; the cluster
    measure already carries the real d through its fixed point, and the
    interpolation leaves the large-beta scaling limit unchanged.  term may
    return an array of per-member values.
    """
    d_floor = math.floor(d)
    frac = d - d_floor
    if frac == 0.0:
        return term(d_floor)
    return (1.0 - frac) * term(d_floor) + frac * term(d_floor + 1)


def _lattice_terms(members, d: float, errors: dict) -> np.ndarray:
    """_in_d's value of every (laws, lam) member on the compressed lattice.

    Each distinct law is tilted, classified and encoded once per lam and
    basis so far, for all members.  Members whose tilts, basis magnitudes
    and tilted, sorted laws agree byte for byte at every step are twins:
    the first gets a row, each later one takes its value (and its error)
    after the walk, which the same numpy calls on the same bytes would give.
    A step's new keys and the group ids of each step's run of source states
    depend only on its distinct encoded steps, never on the probabilities
    or on how many entries take each step.  So the members whose distinct
    steps agree at every step share one _LatticeState with a row each, in
    chunks of at most the fewest entries any of their laws has (a chunk's
    rows hold no more numbers than one step's product), and each row is
    summed exactly as a lattice of its own would sum it.  A member whose
    row stops (see _LatticeState) gets its error in errors under its index
    and nan as its value; the other rows of its state go on.
    """
    encoded, plans, groups, first_of, twins = {}, [], {}, {}, {}
    for i, (laws, lam) in enumerate(members):
        basis, mine = (), {}
        for law in laws:
            if id(law) not in mine:
                key = (id(law), lam, basis)
                if key not in encoded:
                    encoded[key] = _encode_law(law, lam, basis)
                *mine[id(law)], basis = encoded[key]
        # checked before any step: at d < 1 the unstepped state is decoded
        if len(basis) > _KEY_DIMS:
            errors[i] = SupportBlowupError(
                f"{len(basis)} step directions exceed the {_KEY_DIMS}-dimension lattice key"
            )
            break
        steps = [mine[id(law)] for law in laws]
        plans.append((lam, basis, steps))
        twin = (lam, basis, tuple((lz1, st.tobytes(), ly, q.tobytes()) for lz1, st, ly, q in steps))
        if twin in first_of:
            twins[i] = first_of[twin]
        else:
            first_of[twin] = i
            groups.setdefault(tuple(st.tobytes() for _, st, _, _ in steps), []).append(i)
    values = np.full(len(members), math.nan)
    for group in groups.values():
        size = min(len(lay) for i in group for _, _, lay, _ in plans[i][2])
        for start in range(0, len(group), size):
            chunk = group[start : start + size]
            lams, bases, walks = zip(*(plans[i] for i in chunk))
            state = _LatticeState(lams, bases)
            values[chunk] = _in_d(lambda n: state.value(n, walks), d)
            for j, exc in state.errors.items():
                errors[chunk[j]] = exc
    for i, j in twins.items():
        values[i] = values[j]
        if j in errors:
            errors[i] = errors[j]
    return values


def _reference_term(laws, lam: float):
    """term(n) by the uncompressed product: every tuple of clause-law entries, no merging."""

    def term(n_clauses: int) -> float:
        if n_clauses == 0:
            return math.log(2.0)
        count = math.prod(len(law.entries) for law in laws[:n_clauses])
        if count > MAX_REFERENCE_TUPLES:
            raise SupportBlowupError(f"{count} reference tuples exceed the budget")
        # running outer sums, first clause slowest: one row per tuple
        lp = l0 = l1 = np.zeros(1)
        for law in laws[:n_clauses]:
            lp = (lp[:, None] + np.array([math.log(e[2]) for e in law.entries])).ravel()
            l0 = (l0[:, None] + np.array([e[0] for e in law.entries])).ravel()
            l1 = (l1[:, None] + np.array([e[1] for e in law.entries])).ravel()
        return _logsumexp(lp + lam * np.logaddexp(l0, l1)) / lam

    return term


def _second_term(eta: AtomicMeasure, spec: ThetaSpec, lits0, lam: float) -> float:
    """ln E[u0^lam] for the standalone clause u0 on k = len(lits0) draws.

    u0 = 1 - (1-e^{-beta}) (prod_j rho_j(L_j) + prod_j rho_j(1 XOR L_j)).
    """
    prob, lpa, lpb = _draws(eta, lits0)
    lnp = np.array([math.log(p) for p in prob.tolist()])
    lu0 = np.array([
        _log_u(min(float(np.logaddexp(a, b)), 0.0), spec.beta)
        for a, b in zip(lpa.tolist(), lpb.tolist())
    ])
    return _logsumexp(lnp + lam * lu0)


def _normalize_literals(k: int, d: float, model: str, literals):
    """(L0, per-clause literal vectors) for ceil(d) clauses; None: all zero."""
    n_laws = math.ceil(d)
    if literals is None:
        zero = _literal_bits(k, model, None)
        return zero, [zero] * n_laws
    lits0, per_clause = literals
    lits0 = _literal_bits(k, model, lits0)
    per = [_literal_bits(k, model, lv) for lv in per_clause]
    if len(per) != n_laws:
        raise ValueError(f"need {n_laws} clause literal vectors, got {len(per)}")
    return lits0, per


def _member(
    params: ModelParams, eta: AtomicMeasure, spec: ThetaSpec, lam: float, literals, built
):
    """(the ceil(d) clause laws, ln E[u0^lam] of the standalone clause) of one evaluation.

    built holds what one batch shares: the clause laws under (eta, beta,
    flip class) and the standalone terms under (eta, beta, flip class of L0,
    lam).  Neither reads the model, which only validates the literals, nor
    which of L and ~L it is given (see _flip_class), so a class shares one
    law and one float.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0,1), got {lam}")
    if len(eta.atoms) > MAX_ATOMS:
        raise ValueError(f"eta has {len(eta.atoms)} atoms; at most {MAX_ATOMS}")
    k = params.k
    lits0, per_clause = _normalize_literals(k, params.d, spec.model, literals)
    laws = []
    for lv in map(_flip_class, per_clause):
        key = (eta, spec.beta, lv)
        if key not in built:
            built[key] = clause_message_law(k, eta, spec, literals=lv)
        laws.append(built[key])
    lv0 = _flip_class(lits0)
    key = (eta, spec.beta, lv0, lam)
    if key not in built:
        built[key] = _second_term(eta, spec, lv0, lam)
    return laws, built[key]


def _functionals(params: ModelParams, calls, *, compress: bool = True) -> list[float]:
    """functional_exact of each (eta, spec, lam, literals) in calls, in order.

    One pass builds each call's member: its clause laws and its
    standalone-clause term, both shared by flip class across the batch (see
    _member).  The lattice then evaluates all members together (see
    _lattice_terms).  What is raised is the error of the lowest call that
    fails, an error from iterating calls included; a member's laws and
    standalone term fail before any lattice runs.
    """
    k, d = params.k, params.d
    members, errors, built = [], {}, {}
    try:
        for eta, spec, lam, literals in calls:
            members.append((lam, *_member(params, eta, spec, lam, literals, built)))
    except (ValueError, RuntimeError) as exc:
        errors[len(members)] = exc
    if compress:
        first = _lattice_terms([(laws, lam) for lam, laws, _ in members], d, errors)
    else:
        first = [_in_d(_reference_term(laws, lam), d) for lam, laws, _ in members]
    if errors:
        raise errors[min(errors)]
    return [
        float(t1 - (k - 1) * (d / k) * second / lam)
        for (lam, _, second), t1 in zip(members, first)
    ]


def functional_exact(
    params: ModelParams,
    eta: AtomicMeasure,
    spec: ThetaSpec,
    lam: float,
    *,
    literals=None,
    compress: bool = True,
) -> float:
    """Exact value of the interpolation functional P at the point mass eta.

    lam must lie strictly in (0,1).  literals, when given, is a pair
    (L0, [L1..L_ceil(d)]): L0 for the standalone clause and one vector per
    clause of the product; None gives every clause all-zero literals.
    compress=False routes the first term through the uncompressed
    reference product (small d only); the compressed and reference paths
    agree to float accuracy because lattice merging is exact.  Raises
    SupportBlowupError when the product exceeds its budget or a lattice
    state probability underflows float64 (a large beta or an atom of
    near-zero mass).
    """
    return _functionals(params, [(eta, spec, lam, literals)], compress=compress)[0]


def functional_monte_carlo(
    params: ModelParams,
    eta: AtomicMeasure,
    spec: ThetaSpec,
    lam: float,
    n_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the functional; returns (estimate, stderr).

    Samples atom draws for the d-fold clause product and the standalone
    clause, all literals zero, averages the lam-powers, and propagates the
    two sample standard errors through the logs (delta method).  Integer d
    and at least two samples only: one sample gives no standard error.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0,1), got {lam}")
    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2 for a standard error, got {n_samples}")
    k, d = params.k, int(params.d)
    if d != params.d:
        raise ValueError("monte carlo path requires integer d")
    rng = np.random.default_rng(seed)
    masses = np.array([m for _, m in eta.atoms])
    # ln rho(0) and ln rho(1) per atom: with all-zero literals every factor
    # of u(x), and of the standalone clause's two products, reads column x
    lrho = np.array(eta.log_pairs).T
    beta = spec.beta

    def log_u_vec(lp):
        if beta == 0.0:
            return np.zeros_like(lp)
        lp = np.minimum(lp, 0.0)
        with np.errstate(divide="ignore"):
            lom = np.log(-np.expm1(lp))
        return np.where(np.isfinite(lom), np.logaddexp(lom, -beta + lp), -beta + lp)

    sum1 = sum1_sq = 0.0
    sum0 = sum0_sq = 0.0
    done = 0
    while done < n_samples:
        n = min(MC_CHUNK, n_samples - done)
        draws = rng.choice(len(masses), size=(n, d, k - 1), p=masses)
        lP0, lP1 = (log_u_vec(col[draws].sum(axis=2)).sum(axis=1) for col in lrho)
        v1 = np.exp(lam * np.logaddexp(lP0, lP1))
        sum1 += float(v1.sum())
        sum1_sq += float((v1**2).sum())

        draws0 = rng.choice(len(masses), size=(n, k), p=masses)
        lpa, lpb = (col[draws0].sum(axis=1) for col in lrho)
        lps = np.minimum(np.logaddexp(lpa, lpb), 0.0)
        v0 = np.exp(lam * log_u_vec(lps))
        sum0 += float(v0.sum())
        sum0_sq += float((v0**2).sum())
        done += n

    mean1 = sum1 / n_samples
    mean0 = sum0 / n_samples
    var1 = max(sum1_sq / n_samples - mean1**2, 0.0) / (n_samples - 1)
    var0 = max(sum0_sq / n_samples - mean0**2, 0.0) / (n_samples - 1)
    se1 = math.sqrt(var1)
    se0 = math.sqrt(var0)
    alpha = params.alpha
    estimate = (math.log(mean1) - (k - 1) * alpha * math.log(mean0)) / lam
    stderr = (se1 / mean1 + (k - 1) * alpha * se0 / mean0) / lam
    return estimate, stderr


@dataclass(frozen=True)
class LiteralInvarianceResult:
    """Functional values across literal assignments and their spread."""

    passed: bool
    max_deviation: float
    values: tuple[float, ...]


def literal_invariance_check(
    params: ModelParams,
    beta: float,
    lam: float,
    *,
    eta: AtomicMeasure | None = None,
    n_random: int = 10,
    seed: int = 0,
) -> LiteralInvarianceResult:
    """Functional invariance across literal choices for a symmetric eta.

    Reports the functional at every uniform per-clause vector L in {0,1}^k
    plus n_random mixed assignments with independent per-clause vectors,
    and the max pairwise deviation; passes iff < 1e-10.  L and ~L share
    their clause laws (see _flip_class), so in the one batch of all the
    evaluations they are twins and share one lattice row.  An asymmetric eta
    is allowed through and the result then reports the spread, but its
    mixed assignments can need more step directions than the lattice key
    holds (at k = 4 they often do), and then SupportBlowupError is raised.
    """
    if eta is None:
        eta = eta_cluster(params, beta)
    k = params.k
    n_laws = int(math.ceil(params.d))
    assignments = [(lits, [lits] * n_laws) for lits in itertools.product((0, 1), repeat=k)]
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        lits0 = tuple(int(b) for b in rng.integers(0, 2, size=k))
        per = [tuple(int(b) for b in rng.integers(0, 2, size=k)) for _ in range(n_laws)]
        assignments.append((lits0, per))
    spec = ThetaSpec("nae", beta)
    values = _functionals(params, [(eta, spec, lam, lits) for lits in assignments])
    dev = max(values) - min(values)
    return LiteralInvarianceResult(passed=dev < 1e-10, max_deviation=dev, values=tuple(values))


@dataclass(frozen=True)
class BetaScanRow:
    beta: float
    lam: float
    p_value: float

    @property
    def p_over_sqrt_beta(self) -> float:
        """P / sqrt(beta), or inf at beta = 0."""
        return self.p_value / math.sqrt(self.beta) if self.beta > 0 else math.inf


@dataclass(frozen=True)
class BetaScanResult:
    """Functional scaling across inverse temperatures.

    rows follow the input beta order.  phi_star is the free-energy value
    at the BP fixed point for these params.
    """

    rows: tuple[BetaScanRow, ...]
    phi_star: float


def beta_scaling_scan(
    params: ModelParams, betas, tol: float = 1e-12
) -> BetaScanResult:
    """Evaluate P at lam = beta^(-1/2) for each beta (coloring weights).

    For beta <= 1 the binding lam = beta^(-1/2) would leave (0,1), so lam
    clamps to 0.99 there; the functional value at small beta is insensitive
    to lam (it tends to ln 2 regardless).  P / sqrt(beta) tends to the
    free-energy value phi_star from above as beta grows.  The BP fixed
    point is solved once per call and serves every beta and phi_star.
    """
    betas, lams = list(betas), []
    x = functools.cache(lambda: solve_fixed_point(params, tol, check=False).x)

    def calls():
        for beta in betas:
            eta = _cluster_measure(beta, x)
            lams.append(min(beta**-0.5, 0.99) if beta > 0 else 0.99)
            yield eta, ThetaSpec("coloring", beta), lams[-1], None

    values = _functionals(params, calls())
    rows = tuple(BetaScanRow(*row) for row in zip(betas, lams, values))
    return BetaScanResult(rows=rows, phi_star=phi(params, x()))
