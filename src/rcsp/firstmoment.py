"""Exact first-moment computations for the solution count.

E Z under the not-all-equal model has the closed form 2^n (1 - 2^{1-k})^m.
Under the coloring model (all literals zero) the count splits by the number
of 1-colored variables: conditioned on t of n variables colored 1, the
edge pattern is exchangeable and the survival probability p_gamma is a
conditioned-binomial quantity computed by exact integer convolution.  The
tilted clause law and the Lagrange map lambda(gamma) give the variational
form g_alpha whose gap below f_alpha controls the col/nae ratio.

Every count is exact rational at every size the slot convolution admits
(k*m <= SLOT_LIMIT half-edges); only the reported ratio is a float.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bp import ModelParams, _bisect
from .ensemble import check_size

__all__ = [
    "TiltedClauseLaw",
    "FirstMomentReport",
    "ez_nae",
    "p_gamma",
    "ez_col",
    "tilted_clause_law",
    "lagrange_lambda",
    "xi",
    "f_alpha",
    "g_alpha",
    "ratio_scan",
    "exhaustive_ez_col",
    "exhaustive_ez_nae",
]

# Largest k*m (= n*d half-edges) the slot-count convolution accepts.  It costs
# O((km)^2) big-integer operations: 0.4 s at k = 3, m = 1000 and 1.6 s at
# k = 20, m = 150, against 2.6 s at k = 3, m = 2000 (Python 3.11, one core).
SLOT_LIMIT = 3000


@dataclass(frozen=True)
class TiltedClauseLaw:
    """Law of one clause's 1-colored slot count under an exponential tilt.

    pmf[j-1] is proportional to C(k,j) gamma^j (1-gamma)^{k-j} e^{lam*j}
    for j = 1..k-1; the endpoints j in {0,k} are excluded because a clause
    with all slots one color is monochromatic.
    """

    gamma: float
    lam: float
    pmf: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0,1), got {self.gamma}")
        if any(p <= 0.0 for p in self.pmf):
            raise ValueError("tilted pmf entries must be positive")
        total = math.fsum(self.pmf)
        if abs(total - 1.0) > 1e-14:
            raise ValueError(f"tilted pmf sums to {total!r}, not 1")

    @property
    def k(self) -> int:
        return len(self.pmf) + 1

    @property
    def mean(self) -> float:
        return math.fsum(j * p for j, p in enumerate(self.pmf, start=1))


@dataclass(frozen=True)
class FirstMomentReport:
    """Exact expected counts for one instance size.

    ez_nae and ez_col are exact; ratio is ez_col / ez_nae as a float.
    """

    n: int
    m: int
    k: int
    d: int
    ez_nae: Fraction
    ez_col: Fraction
    ratio: float

    def __post_init__(self) -> None:
        if self.n * self.d != self.m * self.k:
            raise ValueError(
                f"half-edge mismatch: n*d = {self.n * self.d} but m*k = {self.m * self.k}"
            )


def ez_nae(n: int, k: int, d: int) -> Fraction:
    """Expected solution count 2^n (1 - 2^{1-k})^m, exactly."""
    m = check_size(n, k, d)
    return Fraction(2) ** n * (1 - Fraction(2) ** (1 - k)) ** m


@lru_cache(maxsize=8)
def _interior_slot_counts(k: int, m: int) -> tuple[int, ...]:
    """Coefficients of ((1+z)^k - 1 - z^k)^m as exact integers.

    Entry s counts the ways to pick, for each of m clauses, a nonempty
    proper subset of its k slots, with s slots picked in total.  One
    clause contributes sum_{j=1}^{k-1} C(k,j) z^j; the m-fold product is
    built by repeated convolution against that sparse factor.
    """
    if k * m > SLOT_LIMIT:
        raise ValueError(f"exact first moments need k*m <= {SLOT_LIMIT} half-edges, got {k * m}")
    base = [math.comb(k, j) for j in range(k)]
    base[0] = 0
    poly = [1]
    for _ in range(m):
        out = [0] * (len(poly) + k - 1)
        for j in range(1, k):
            c = base[j]
            for s, w in enumerate(poly):
                if w:
                    out[s + j] += c * w
        poly = out
    return tuple(poly)


def _colored_slot_total(n: int, m: int, k: int, gamma) -> int:
    gamma = Fraction(gamma)
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must lie in [0,1], got {gamma}")
    t = gamma * n
    if t.denominator != 1:
        raise ValueError(f"n*gamma = {t} is not an integer")
    s = gamma * k * m
    if s.denominator != 1:
        raise ValueError(f"k*m*gamma = {s} is not an integer")
    return int(s)


def p_gamma(n: int, m: int, k: int, gamma) -> Fraction:
    """P(every clause has 1..k-1 colored slots | s = k*m*gamma slots colored).

    The slot colors are exchangeable given their total, so the conditional
    probability is the interior count at s over C(km, s); the gamma powers
    of the binomial weights cancel exactly.
    """
    if m < 0 or k < 2:
        raise ValueError(f"need m >= 0 and k >= 2, got m={m} k={k}")
    s = _colored_slot_total(n, m, k, gamma)
    counts = _interior_slot_counts(k, m)
    w = counts[s] if s < len(counts) else 0  # degree tops out at m(k-1) < km
    return Fraction(w, math.comb(k * m, s))


def ez_col(n: int, k: int, d: int) -> Fraction:
    """Expected proper 2-coloring count: sum_t C(n,t) p_{t/n}, exactly.

    The t-th summand is C(n,t) W[t*d] / C(nd, t*d), with W the interior
    slot counts of the m clauses.
    """
    m = check_size(n, k, d)
    counts = _interior_slot_counts(k, m)
    return sum(
        Fraction(math.comb(n, t) * (counts[t * d] if t * d < len(counts) else 0),
                 math.comb(n * d, t * d))
        for t in range(n + 1)
    )


def _clause_weights(k: int, gamma: float, lam: float) -> tuple[float, list[float]]:
    """Tilted interior-binomial weights C(k,j) gamma^j (1-gamma)^(k-j) e^(lam j),
    j = 1..k-1, as (shift, w): w[j-1] is the weight times e^-shift, and shift
    is the largest log weight, so the largest w is 1."""
    logw = [
        math.log(math.comb(k, j))
        + j * math.log(gamma)
        + (k - j) * math.log1p(-gamma)
        + lam * j
        for j in range(1, k)
    ]
    shift = max(logw)
    return shift, [math.exp(lw - shift) for lw in logw]


def tilted_clause_law(k: int, gamma: float, lam: float) -> TiltedClauseLaw:
    """Normalize the tilted interior-binomial weights into a law."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    _, w = _clause_weights(k, gamma, lam)
    total = math.fsum(w)
    return TiltedClauseLaw(gamma=gamma, lam=lam, pmf=tuple(x / total for x in w))


def _tilted_mean(k: int, gamma: float, lam: float) -> float:
    _, w = _clause_weights(k, gamma, lam)
    return math.fsum(j * x for j, x in zip(range(1, k), w)) / math.fsum(w)


def lagrange_lambda(gamma: float, k: int, tol: float = 1e-12) -> float:
    """Solve E[X] = k*gamma for the tilt, by bisection on the tilted mean.

    The mean is strictly increasing in the tilt, so the sign-changing
    bracket [-1, 1] pins the root: it holds for every k >= 3 on the band
    |gamma - 1/2| <= 0.1 (its smallest margin is 0.003, at k = 3 and
    gamma = 0.4).  At k = 2 the tilted law is the one entry X = 1, whose
    mean never moves.  Bisection stops at width tol or at adjacent floats,
    whichever comes first.
    """
    if k < 3:
        raise ValueError(f"the tilted clause law needs k >= 3, got k = {k}")
    if abs(gamma - 0.5) > 0.1 + 1e-15:
        raise ValueError(f"gamma = {gamma} outside the supported band |gamma - 1/2| <= 0.1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if gamma == 0.5:
        return 0.0
    target = k * gamma

    def short(lam: float) -> float:
        return _tilted_mean(k, gamma, lam) - target

    if short(-1.0) > 0.0 or short(1.0) < 0.0:
        raise ValueError(f"no bracket in [-1, 1] for gamma = {gamma}, k = {k}")
    lo, hi = _bisect(lambda mid: short(mid) < 0.0, -1.0, 1.0, tol)
    return 0.5 * (lo + hi)


def xi(gamma: float, lam: float, k: int) -> float:
    """Tilted log partition gap k*gamma*lam - ln sum_j p_gamma(j) e^{lam j}."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    shift, w = _clause_weights(k, gamma, lam)
    return k * gamma * lam - (shift + math.log(math.fsum(w)))


def _binary_entropy(gamma: float) -> float:
    return -gamma * math.log(gamma) - (1.0 - gamma) * math.log1p(-gamma)


def f_alpha(gamma: float, params: ModelParams) -> float:
    """Annealed exponent H(gamma) + alpha ln(1 - gamma^k - (1-gamma)^k)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    k = params.k
    survive = 1.0 - gamma**k - (1.0 - gamma) ** k
    return _binary_entropy(gamma) + params.alpha * math.log(survive)


def g_alpha(gamma: float, params: ModelParams, tol: float = 1e-12) -> float:
    """Tilted exponent H(gamma) - alpha Xi(gamma, lambda(gamma)).

    Lies at or below f_alpha pointwise and matches it at gamma = 1/2.
    """
    lam = lagrange_lambda(gamma, params.k, tol)
    return _binary_entropy(gamma) - params.alpha * xi(gamma, lam, params.k)


def ratio_scan(k: int, d: int, n_list) -> list[FirstMomentReport]:
    """E Z_col / E Z_nae across sizes; the ratio staying put is the point."""
    reports = []
    for n in n_list:
        m = check_size(n, k, d)
        nae = ez_nae(n, k, d)
        col = ez_col(n, k, d)
        reports.append(
            FirstMomentReport(n=n, m=m, k=k, d=d, ez_nae=nae, ez_col=col, ratio=float(col / nae))
        )
    return reports


# Exhaustive oracles.  These average over every matching of the nd variable
# half-edges to the nd clause slots (and for nae over every literal pattern),
# counting satisfying assignments by direct check.  Slot j of clause a is
# position a*k + j in the permuted half-edge array, and half-edge h belongs
# to variable h // d.


def _matching_blocks(nd: int, d: int, rows: int):
    """Yield (block, nd) arrays of slot->variable maps over all matchings."""
    it = itertools.permutations(range(nd))
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(it, rows)), dtype=np.int8
        )
        if flat.size == 0:
            return
        yield flat.reshape(-1, nd) // d


def exhaustive_ez_col(n: int, k: int, d: int) -> Fraction:
    """Average proper-2-coloring count over all (nd)! matchings, exactly."""
    m = check_size(n, k, d)
    nd = n * d
    if nd > 12:
        raise ValueError(f"exhaustive matcher capped at nd <= 12, got {nd}")
    colorings = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int8)
    rows = max(1, (1 << 22) // (colorings.shape[0] * nd))
    total = 0
    for block in _matching_blocks(nd, d, rows):
        colors = colorings[:, block]  # (2^n, B, nd)
        slot_sums = colors.reshape(colorings.shape[0], block.shape[0], m, k).sum(axis=3)
        proper = np.all((slot_sums > 0) & (slot_sums < k), axis=2)
        total += int(np.count_nonzero(proper))
    return Fraction(total, math.factorial(nd))


def exhaustive_ez_nae(n: int, k: int, d: int) -> Fraction:
    """Average satisfying-assignment count over all matchings and all
    2^{nd} literal patterns, exactly.

    A global literal pattern is one k-bit pattern per clause, and the
    all-patterns sum of the product of per-clause indicators distributes
    into a product of per-clause pattern counts; those counts are built
    by enumerating every (slot colors, pattern) pair, so each of the
    2^{nd} patterns is accounted exactly once.
    """
    m = check_size(n, k, d)
    nd = n * d
    if nd > 9:
        raise ValueError(f"exhaustive literal average capped at nd <= 9, got {nd}")
    patterns = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.int8)
    flips = patterns[:, None, :] ^ patterns[None, :, :]  # (color code, pattern, slot)
    sums = flips.sum(axis=2)
    good_patterns = (((sums > 0) & (sums < k)).sum(axis=1)).astype(np.int64)
    weights = np.int64(1) << np.arange(k, dtype=np.int64)
    colorings = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int8)
    total = 0
    for block in _matching_blocks(nd, d, 1 << 15):
        for bits in colorings:
            codes = (bits[block].reshape(-1, m, k) * weights).sum(axis=2)
            total += int(good_patterns[codes].prod(axis=1).sum())
    return Fraction(total, math.factorial(nd) * 2**nd)
