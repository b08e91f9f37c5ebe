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
The keys are sorted and unique, so each entry yields a sorted run of new
keys.  The runs are laid out entry by entry, in descending order of the
entry's step (ties in entry order), and merged by one stable sort; equal
keys are then summed with np.bincount in merged order.  Within one merged
key the terms arrive in ascending order of their source state, and for one
source state in entry order.  That is the order in which the state-major
product (state i, then entry j), reduced by np.unique and np.bincount,
adds them, so both give the same probabilities to the last bit.  Neither
np.add.reduceat (pairwise summation) nor pre-merging entries that share a
step (p*(qa + qb) is not p*qa + p*qb in floats) keeps that order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bp import ModelParams, solve_fixed_point
from .thresholds import phi_star

__all__ = [
    "AtomicMeasure",
    "ThetaSpec",
    "ClauseMessageLaw",
    "LiteralInvarianceResult",
    "BetaScanRow",
    "BetaScanResult",
    "SupportBlowupError",
    "eta_cluster",
    "theta_value",
    "clause_message_law",
    "functional_exact",
    "functional_monte_carlo",
    "literal_invariance_check",
    "beta_scaling_scan",
]

# Largest states x law entries product one lattice step builds before merging.
MAX_PRODUCT_STATES = 10_000_000
MAX_REFERENCE_TUPLES = 2_000_000
MAX_ATOMS = 5

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
    otherwise it is derived from the values.
    """

    atoms: tuple[tuple[float, float], ...]
    symmetric: bool = False
    log_pairs: tuple[tuple[float, float], ...] = field(default=None, compare=False)

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
    """Clause weight family: model, inverse temperature, optional literals.

    The clause weight of an assignment is 1 - theta = e^{-beta} when the
    assignment is monochromatic after XOR with the literals, else 1.
    Coloring is the all-zero-literal case.  beta = 0 is admitted as the
    degenerate weight-1 limit.
    """

    model: str
    beta: float
    literals: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.model not in ("coloring", "nae"):
            raise ValueError(f"model must be 'coloring' or 'nae', got {self.model!r}")
        if not self.beta >= 0:
            raise ValueError(f"beta must be >= 0, got {self.beta!r}")
        if self.literals is not None:
            object.__setattr__(self, "literals", _literal_bits(self.model, self.literals))


def _literal_bits(model: str, lits) -> tuple[int, ...]:
    """lits as a tuple of bits; coloring admits only all-zero literals."""
    if any(b not in (0, 1) for b in lits):
        raise ValueError(f"literals must be bits: {lits!r}")
    out = tuple(int(b) for b in lits)
    if model == "coloring" and any(out):
        raise ValueError("coloring requires all-zero literals")
    return out


def theta_value(spec: ThetaSpec, x_vec) -> float:
    """theta(x) = (1 - e^{-beta}) iff x XOR literals is monochromatic, else 0."""
    bits = tuple(int(b) for b in x_vec)
    lits = spec.literals if spec.literals is not None else (0,) * len(bits)
    if len(lits) != len(bits):
        raise ValueError(f"length mismatch: {len(bits)} bits vs {len(lits)} literals")
    masked = tuple(b ^ l for b, l in zip(bits, lits))
    if all(masked) or not any(masked):
        return -math.expm1(-spec.beta)
    return 0.0


@dataclass(frozen=True)
class ClauseMessageLaw:
    """Joint law of (u(0), u(1)) over k-1 independent atom draws.

    entries are (ln u0, ln u1, probability); support presents them as
    ((u0, u1), probability) pairs.  u values lie in [e^{-beta}, 1].
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

    @property
    def support(self) -> tuple[tuple[tuple[float, float], float], ...]:
        return tuple(
            ((math.exp(lu0), math.exp(lu1)), p) for lu0, lu1, p in self.entries
        )


def eta_cluster(params: ModelParams, beta: float, tol: float = 1e-12) -> AtomicMeasure:
    """Three-atom cluster measure at the BP fixed point.

    Atoms 1/(1+e^{-2 beta}) and its complement carry mass x each, the atom
    1/2 carries 1-2x, with x = solve_fixed_point(params, tol).x.  At
    beta = 0 (or small enough that the outer atoms collide with 1/2 in
    floats) the measure degenerates to a point mass at 1/2.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    lhalf = -math.log(2.0)
    lc_high = -math.log1p(math.exp(-2.0 * beta))
    lc_low = -2.0 * beta + lc_high
    c = math.exp(lc_high)
    if beta == 0.0 or c == 0.5:
        return AtomicMeasure(
            atoms=((0.5, 1.0),), symmetric=True, log_pairs=((lhalf, lhalf),)
        )
    x = solve_fixed_point(params, tol, check=False).x
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
    om = -math.expm1(lp)
    if om == 0.0:
        return -beta + lp
    return float(np.logaddexp(math.log(om), -beta + lp))


def _resolve_literals(k: int, spec: ThetaSpec, lits) -> tuple[int, ...]:
    if lits is None:
        lits = spec.literals if spec.literals is not None else (0,) * k
    out = _literal_bits(spec.model, lits)
    if len(out) != k:
        raise ValueError(f"need {k} literal bits, got {len(out)}")
    return out


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


def clause_message_law(
    k: int, eta: AtomicMeasure, spec: ThetaSpec, literals=None
) -> ClauseMessageLaw:
    """Exact law of (u(0), u(1)) for one clause.

    Enumerates all |atoms|^(k-1) draws; factor j of u(x) is the atom weight
    of the bit x XOR L_1 XOR L_j, so u(x) = 1 - (1-e^{-beta}) prod_j rho_j.
    Identical pairs (at 15 significant digits of the log values) aggregate.
    literals overrides spec.literals for this one clause.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    lits = _resolve_literals(k, spec, literals)
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


class _StepRegistry:
    """Shared basis of distinct |delta| magnitudes across clause laws.

    Entry deltas map to (dimension, sign) unit steps; |delta| below 1e-12
    maps to no step.  A delta matching an existing basis magnitude within
    1e-9 (relative to its size) reuses that dimension, so laws differing
    only by literal flips land on one common lattice.
    """

    def __init__(self) -> None:
        self.values: list[float] = []

    def classify(self, delta: float) -> tuple[int, int]:
        if abs(delta) <= 1e-12:
            return -1, 0
        mag = abs(delta)
        for r, v in enumerate(self.values):
            if abs(mag - v) <= 1e-9 * max(1.0, v):
                return r, (1 if delta > 0 else -1)
        self.values.append(mag)
        return len(self.values) - 1, (1 if delta > 0 else -1)


def _tilt_law(entries, lam):
    """Per-clause tilt: ln Z1 = ln E[u(0)^lam], tilted pmf q, delta = ln u1 - ln u0."""
    lu0 = np.array([e[0] for e in entries])
    lu1 = np.array([e[1] for e in entries])
    lnp = np.log(np.array([e[2] for e in entries]))
    lz1 = _logsumexp(lnp + lam * lu0)
    q = np.exp(lnp + lam * lu0 - lz1)
    return lz1, q, lu1 - lu0


class _LatticeState:
    """Product-law state: packed signed step counts -> probability.

    A key is sum_r m_r 2^(7r) with step counts |m_r| <= 62; adding the
    constant base sum_r 63*2^(7r) makes every 7-bit field the digit
    m_r + 63 in [1, 125], so distinct count vectors give distinct keys and
    decoding is field extraction.  keys stay sorted and unique, and step
    merges its per-entry sorted runs in the summation order the module
    docstring derives, after checking the product against
    MAX_PRODUCT_STATES and before allocating it.
    """

    def __init__(self, registry: _StepRegistry) -> None:
        # checked here, not at the first step: at d < 1 log_moment decodes
        # the state before any step is taken
        if len(registry.values) > _KEY_DIMS:
            raise SupportBlowupError(
                f"{len(registry.values)} step directions exceed the "
                f"{_KEY_DIMS}-dimension lattice key"
            )
        self.registry = registry
        self.keys = np.array([0], dtype=np.int64)
        self.probs = np.array([1.0])
        self.steps_taken = 0

    def step(self, q: np.ndarray, dims, signs) -> None:
        if self.steps_taken >= _KEY_OFF - 1:
            raise SupportBlowupError(f"more than {_KEY_OFF - 1} product steps")
        if len(self.keys) * len(q) > MAX_PRODUCT_STATES:
            raise SupportBlowupError(
                f"product of {len(self.keys)} states and {len(q)} law entries "
                f"exceeds {MAX_PRODUCT_STATES}"
            )
        enc = np.zeros(len(q), dtype=np.int64)
        for i, (r, s) in enumerate(zip(dims, signs)):
            if r >= 0:
                enc[i] = s * (1 << (_KEY_BITS * r))
        order = np.argsort(-enc, kind="stable")
        enc, q = enc[order], q[order]
        # one sorted run per law entry; the stable sort merges the runs
        new_keys = (enc[:, None] + self.keys[None, :]).ravel()
        new_probs = (q[:, None] * self.probs[None, :]).ravel()
        perm = np.argsort(new_keys, kind="stable")
        sorted_keys = new_keys[perm]
        del new_keys
        starts = np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))
        gid = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(sorted_keys)))
        self.keys = sorted_keys[starts]
        self.probs = np.bincount(gid, weights=new_probs[perm], minlength=len(starts))
        self.steps_taken += 1

    def log_moment(self, lam: float) -> float:
        """ln E[(1 + e^D)^lam] with D the accumulated sum of basis steps."""
        vals = np.zeros(_KEY_DIMS)
        vals[: len(self.registry.values)] = self.registry.values
        shifted = (self.keys + np.int64(_KEY_BASE)).astype(np.uint64)
        coords = np.empty((len(self.keys), _KEY_DIMS))
        for r in range(_KEY_DIMS):
            coords[:, r] = (
                (shifted >> np.uint64(_KEY_BITS * r)) & np.uint64((1 << _KEY_BITS) - 1)
            ).astype(np.int64) - _KEY_OFF
        d_sum = coords @ vals
        mask = self.probs > 0
        return _logsumexp(
            np.log(self.probs[mask]) + lam * np.logaddexp(0.0, d_sum[mask])
        )


def _in_d(term, d: float) -> float:
    """(1/lam) ln E[(P0 + P1)^lam] at real d from term(n), its value on n clauses.

    For non-integer d the term interpolates linearly between floor(d) and
    ceil(d) clause factors, calling term at floor(d) first; the cluster
    measure already carries the real d through its fixed point, and the
    interpolation leaves the large-beta scaling limit unchanged.
    """
    d_floor = math.floor(d)
    frac = d - d_floor
    if frac == 0.0:
        return term(d_floor)
    return (1.0 - frac) * term(d_floor) + frac * term(d_floor + 1)


def _lattice_term(laws, lam: float):
    """term(n) on the compressed lattice, for n that never decreases.

    All laws share one step basis; each call steps the one lattice forward
    to n clauses, so _in_d's two terms together take ceil(d) steps.
    """
    registry = _StepRegistry()
    tilted = []
    for law in laws:
        lz1, q, delta = _tilt_law(law.entries, lam)
        dims_signs = [registry.classify(dl) for dl in delta]
        tilted.append((lz1, q, [t[0] for t in dims_signs], [t[1] for t in dims_signs]))
    state = _LatticeState(registry)
    lz_sum = 0.0

    def term(n_clauses: int) -> float:
        nonlocal lz_sum
        for lz1, q, dims, signs in tilted[state.steps_taken : n_clauses]:
            state.step(q, dims, signs)
            lz_sum += lz1
        return (lz_sum + state.log_moment(lam)) / lam

    return term


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


def _normalize_literals(k: int, d: float, spec: ThetaSpec, literals):
    """Resolve (L0, per-clause literal vectors) for ceil(d) clauses."""
    n_laws = math.ceil(d)
    if literals is None:
        base = _resolve_literals(k, spec, None)
        return base, [base] * n_laws
    lits0, per_clause = literals
    lits0 = _resolve_literals(k, spec, lits0)
    per = [_resolve_literals(k, spec, lv) for lv in per_clause]
    if len(per) != n_laws:
        raise ValueError(f"need {n_laws} clause literal vectors, got {len(per)}")
    return lits0, per


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
    (L0, [L1..L_ceil(d)]) of per-clause literal vectors for the mixed
    case; otherwise spec.literals (or all-zero) applies to every clause.
    compress=False routes the first term through the uncompressed
    reference product (small d only); the compressed and reference paths
    agree to float accuracy because lattice merging is exact.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0,1), got {lam}")
    if len(eta.atoms) > MAX_ATOMS:
        raise ValueError(f"eta has {len(eta.atoms)} atoms; at most {MAX_ATOMS}")
    k, d = params.k, params.d
    lits0, per_clause = _normalize_literals(k, d, spec, literals)
    by_lits = {lv: clause_message_law(k, eta, spec, literals=lv) for lv in set(per_clause)}
    laws = [by_lits[lv] for lv in per_clause]
    term = _lattice_term if compress else _reference_term
    t1 = _in_d(term(laws, lam), d)
    return t1 - (k - 1) * (d / k) * _second_term(eta, spec, lits0, lam) / lam


def functional_monte_carlo(
    params: ModelParams,
    eta: AtomicMeasure,
    spec: ThetaSpec,
    lam: float,
    n_samples: int,
    seed: int,
    chunk: int = 100_000,
) -> tuple[float, float]:
    """Monte Carlo estimate of the functional; returns (estimate, stderr).

    Samples atom draws for the d-fold clause product and the standalone
    clause, averages the lam-powers, and propagates the two sample
    standard errors through the logs (delta method).  Integer d only.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0,1), got {lam}")
    k, d = params.k, int(params.d)
    if d != params.d:
        raise ValueError("monte carlo path requires integer d")
    lits0, per_clause = _normalize_literals(k, d, spec, None)
    rng = np.random.default_rng(seed)
    masses = np.array([m for _, m in eta.atoms])
    lpair = np.array(eta.log_pairs)  # (n_atoms, 2)
    beta = spec.beta

    bits0 = np.array([[lv[0] ^ lv[j] for j in range(1, k)] for lv in per_clause])

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
        n = min(chunk, n_samples - done)
        draws = rng.choice(len(masses), size=(n, d, k - 1), p=masses)
        b0 = np.broadcast_to(bits0[None, :, :], (n, d, k - 1))
        lp0 = np.take_along_axis(lpair[draws], b0[..., None], axis=3)[..., 0].sum(axis=2)
        lp1 = np.take_along_axis(lpair[draws], (1 - b0)[..., None], axis=3)[..., 0].sum(axis=2)
        lP0 = log_u_vec(lp0).sum(axis=1)
        lP1 = log_u_vec(lp1).sum(axis=1)
        v1 = np.exp(lam * np.logaddexp(lP0, lP1))
        sum1 += float(v1.sum())
        sum1_sq += float((v1**2).sum())

        draws0 = rng.choice(len(masses), size=(n, k), p=masses)
        l0bits = np.broadcast_to(np.array(lits0)[None, :], (n, k))
        lpa = np.take_along_axis(lpair[draws0], l0bits[..., None], axis=2)[..., 0].sum(axis=1)
        lpb = np.take_along_axis(lpair[draws0], (1 - l0bits)[..., None], axis=2)[..., 0].sum(axis=1)
        lps = np.minimum(np.logaddexp(lpa, lpb), 0.0)
        v0 = np.exp(lam * log_u_vec(lps))
        sum0 += float(v0.sum())
        sum0_sq += float((v0**2).sum())
        done += n

    mean1 = sum1 / n_samples
    mean0 = sum0 / n_samples
    var1 = max(sum1_sq / n_samples - mean1**2, 0.0) / max(n_samples - 1, 1)
    var0 = max(sum0_sq / n_samples - mean0**2, 0.0) / max(n_samples - 1, 1)
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
    tol: float = 1e-12,
) -> LiteralInvarianceResult:
    """Functional invariance across literal choices for a symmetric eta.

    Evaluates every uniform per-clause vector L in {0,1}^k (2^k runs) plus
    n_random mixed assignments with independent per-clause vectors, and
    reports the max pairwise deviation; passes iff < 1e-10.  An asymmetric
    eta is allowed through: the result then just reports the spread.
    """
    if eta is None:
        eta = eta_cluster(params, beta, tol)
    k = params.k
    n_laws = int(math.ceil(params.d))
    values = []
    for bits in itertools.product((0, 1), repeat=k):
        spec = ThetaSpec("nae", beta, bits)
        values.append(functional_exact(params, eta, spec, lam))
    spec = ThetaSpec("nae", beta)
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        lits0 = tuple(int(b) for b in rng.integers(0, 2, size=k))
        per = [tuple(int(b) for b in rng.integers(0, 2, size=k)) for _ in range(n_laws)]
        values.append(functional_exact(params, eta, spec, lam, literals=(lits0, per)))
    dev = max(values) - min(values)
    return LiteralInvarianceResult(passed=dev < 1e-10, max_deviation=dev, values=tuple(values))


@dataclass(frozen=True)
class BetaScanRow:
    beta: float
    lam: float
    p_value: float
    p_over_sqrt_beta: float


@dataclass(frozen=True)
class BetaScanResult:
    """Functional scaling across inverse temperatures.

    rows follow the input beta order.  phi_star is the free-energy value
    at the BP fixed point for these params.  The tail flags diagnose the
    three largest betas: ratios decreasing, and the last ratio below
    phi_star/2 (meaningful when phi_star < 0).  Flags are reported, never
    raised on, so a scan over small betas stays usable.
    """

    rows: tuple[BetaScanRow, ...]
    phi_star: float
    tail_decreasing: bool
    tail_below_half_phi_star: bool


def beta_scaling_scan(
    params: ModelParams, betas, tol: float = 1e-12
) -> BetaScanResult:
    """Evaluate P at lam = beta^(-1/2) for each beta (coloring weights).

    For beta <= 1 the binding lam = beta^(-1/2) would leave (0,1), so lam
    clamps to 0.99 there; the functional value at small beta is insensitive
    to lam (it tends to ln 2 regardless).  P / sqrt(beta) tends to the
    free-energy value phi_star from above as beta grows.
    """
    rows = []
    for beta in betas:
        if beta < 0:
            raise ValueError("beta must be >= 0")
        lam = min(beta**-0.5, 0.99) if beta > 0 else 0.99
        eta = eta_cluster(params, beta, tol)
        spec = ThetaSpec("coloring", beta)
        p = functional_exact(params, eta, spec, lam)
        ratio = p / math.sqrt(beta) if beta > 0 else math.inf
        rows.append(BetaScanRow(beta=beta, lam=lam, p_value=p, p_over_sqrt_beta=ratio))
    ps = phi_star(params, tol)
    tail = sorted(rows, key=lambda r: r.beta)[-3:]
    decreasing = all(
        tail[i + 1].p_over_sqrt_beta < tail[i].p_over_sqrt_beta
        for i in range(len(tail) - 1)
    )
    below = bool(tail) and tail[-1].p_over_sqrt_beta < ps / 2.0
    return BetaScanResult(
        rows=tuple(rows),
        phi_star=ps,
        tail_decreasing=decreasing,
        tail_below_half_phi_star=below,
    )
