"""Independent computations the benchmark checks the program against.

Nothing here imports rcsp: each quantity is recomputed from its defining
formula, in mpmath at 40 digits or by exhaustive enumeration in numpy.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

DIGITS = 40


# -- threshold quantities at 40 digits ---------------------------------------


def _psi(k: int, d, x):
    """Clause update then variable update: x -> v -> (1 - v^(d-1)) / (2 - v^(d-1))."""
    xk = x ** (k - 1)
    v = (1 - 2 * xk) / (1 - xk)
    vd = v ** (d - 1)
    return (1 - vd) / (2 - vd)


def fixed_point(k: int, d) -> mpmath.mpf:
    """The root of psi(x) = x on [1/2 - 2^-k, 1/2], bracketed (Anderson-Bjorck)."""
    with mpmath.workdps(DIGITS):
        d = mpmath.mpf(d)
        lo = mpmath.mpf(1) / 2 - mpmath.mpf(2) ** (-k)
        hi = mpmath.mpf(1) / 2
        return mpmath.findroot(lambda x: _psi(k, d, x) - x, (lo, hi), solver="anderson")


def phi(k: int, d, x) -> mpmath.mpf:
    """-ln(1-x) - d(1 - 1/k - 1/d) ln(1 - 2x^k) + (d-1) ln(1 - x^(k-1))."""
    with mpmath.workdps(DIGITS):
        d = mpmath.mpf(d)
        x = mpmath.mpf(x)
        return (
            -mpmath.log(1 - x)
            - d * (1 - mpmath.mpf(1) / k - 1 / d) * mpmath.log(1 - 2 * x**k)
            + (d - 1) * mpmath.log(1 - x ** (k - 1))
        )


def phi_star(k: int, d) -> mpmath.mpf:
    return phi(k, d, fixed_point(k, d))


def d_first_moment(k: int) -> mpmath.mpf:
    """k ln 2 / -ln(1 - 2^(1-k))."""
    with mpmath.workdps(DIGITS):
        return k * mpmath.log(2) / -mpmath.log(1 - mpmath.mpf(2) ** (1 - k))


def d_star(k: int) -> mpmath.mpf:
    """Largest zero of phi_star below the first-moment degree.

    Scans down from d_first_moment(k) in steps of 0.1 until phi_star turns
    positive, then solves on that bracket.
    """
    with mpmath.workdps(DIGITS):
        hi = d_first_moment(k)
        if not phi_star(k, hi) < 0:
            raise ArithmeticError(f"phi_star(d_first_moment) >= 0 at k={k}")
        step = mpmath.mpf("0.1")
        for _ in range(1000):
            lo = hi - step
            if phi_star(k, lo) > 0:
                break
            hi = lo
        else:
            raise ArithmeticError(f"no sign change of phi_star below d1 at k={k}")
        return mpmath.findroot(lambda d: phi_star(k, d), (lo, hi), solver="anderson")


# -- first moment --------------------------------------------------------------


def ez_nae(n: int, k: int, d: int) -> Fraction:
    """2^n (1 - 2^(1-k))^m, m = nd/k."""
    m = n * d // k
    return Fraction(2) ** n * (1 - Fraction(1, 2 ** (k - 1))) ** m


def p_gamma_brute(n: int, k: int, d: int) -> dict[int, Fraction]:
    """P(no clause monochromatic | t of n variables colored), by enumeration.

    Colors the k*m slots directly: every subset of s = t*d slots is equally
    likely, and the event holds when each clause has between 1 and k-1
    colored slots.  Returns {t: probability}; only small k*m is feasible.
    """
    m = n * d // k
    slots = k * m
    codes = np.arange(1 << slots, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(slots)) & 1
    colored = bits.sum(axis=1)
    per_clause = bits.reshape(-1, m, k).sum(axis=2)
    good = np.all((per_clause >= 1) & (per_clause <= k - 1), axis=1)
    out = {}
    for t in range(n + 1):
        s = t * d
        with_s = colored == s
        out[t] = Fraction(int(np.count_nonzero(good & with_s)), int(np.count_nonzero(with_s)))
    return out


# -- interpolation functional ---------------------------------------------------


def point_mass_functional(k: int, d: float, beta: float) -> float:
    """P at the point mass on 1/2: ln 2 + (d/k) ln(1 + (e^-beta - 1) 2^(1-k))."""
    return math.log(2.0) + (d / k) * math.log1p(math.expm1(-beta) * 2.0 ** (1 - k))


# -- exhaustive enumeration of small instances ------------------------------------


WORD_BITS = 6  # the low 6 variables index bits inside one uint64 word


def violation_histogram(n: int, clauses, literals) -> list[int]:
    """hist[j] = number of the 2^n assignments violating exactly j clauses.

    Bit-sliced: bit i of word w is assignment 64 w + i.  Each variable is a
    plane of n-6 words' worth of bits; a clause is violated where its
    literal-adjusted slots are all 0 or all 1; a ripple-carry adder keeps
    the per-assignment violation count in binary across counter planes.
    """
    if n < WORD_BITS:
        raise ValueError(f"need n >= {WORD_BITS}")
    words = 1 << (n - WORD_BITS)
    full = np.uint64(0xFFFFFFFFFFFFFFFF)
    idx = np.arange(words, dtype=np.uint64)
    planes = []
    for v in range(n):
        if v < WORD_BITS:
            pattern = sum(1 << i for i in range(64) if (i >> v) & 1)
            planes.append(np.full(words, pattern, dtype=np.uint64))
        else:
            on = ((idx >> np.uint64(v - WORD_BITS)) & np.uint64(1)).astype(bool)
            planes.append(np.where(on, full, np.uint64(0)))
    width = max(1, len(clauses).bit_length())
    counter = [np.zeros(words, dtype=np.uint64) for _ in range(width)]
    for cl, li in zip(clauses, literals):
        all_one = np.full(words, full, dtype=np.uint64)
        all_zero = np.full(words, full, dtype=np.uint64)
        for v, lit in zip(cl, li):
            plane = planes[v] ^ full if lit else planes[v]
            all_one &= plane
            all_zero &= ~plane
        carry = all_one | all_zero
        for b in range(width):
            nxt = counter[b] & carry
            counter[b] ^= carry
            carry = nxt
    hist = []
    for j in range(len(clauses) + 1):
        mask = np.full(words, full, dtype=np.uint64)
        for b in range(width):
            mask &= counter[b] if (j >> b) & 1 else ~counter[b]
        hist.append(int(np.bitwise_count(mask).sum()))
    return hist


def log_z(hist: list[int], beta: float) -> float:
    """ln sum_j hist[j] e^(-beta j), at 40 digits."""
    with mpmath.workdps(DIGITS):
        total = mpmath.fsum(c * mpmath.exp(-beta * j) for j, c in enumerate(hist) if c)
        return float(mpmath.log(total))


def brute_histogram(n: int, clauses, literals) -> list[int]:
    """violation_histogram by a plain loop over assignments (small n only)."""
    hist = [0] * (len(clauses) + 1)
    for x in itertools.product((0, 1), repeat=n):
        bad = 0
        for cl, li in zip(clauses, literals):
            vals = {x[v] ^ lit for v, lit in zip(cl, li)}
            bad += len(vals) == 1
        hist[bad] += 1
    return hist
