"""Belief-propagation recursions for d-regular k-uniform clause ensembles.

The recursion tracks x, the probability weight that a variable message is
frozen to one color.  The clause update maps x to a message v, the variable
update maps v back to x, and the composition has a unique fixed point on
[1/2 - 2^-k, 1/2] whenever the degree lies in the supported window.  The
solver checks that window by endpoint signs and estimates the derivative of
the composed map on a grid (an estimate, not a bound; the interval proofs
are in certificates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

__all__ = [
    "ModelParams",
    "BpFixedPoint",
    "DegreeWindow",
    "BracketError",
    "psi_hat",
    "psi_dot",
    "psi",
    "psi_derivative",
    "degree_window",
    "solve_fixed_point",
    "contraction_certificate",
]

# Largest supported clause size.  [1/2 - 2^-k, 1/2] holds 2^(54-k) + 1
# doubles: five at k = 52, where the window's ends and middle still solve,
# and three at k = 53, where bisection fails at the window's ends.
MAX_K = 52

# Points of the grid on which sup |psi'| is estimated.
DERIVATIVE_GRID = 1000


class BracketError(ValueError):
    """Endpoint signs of psi(x) - x are wrong; degree outside the window."""


@dataclass(frozen=True)
class ModelParams:
    """Clause size k and variable degree d.

    k is an integer >= 3.  d is a positive real: analysis operations treat
    the degree as continuous, instance generation requires an integer.
    """

    k: int
    d: float

    def __post_init__(self) -> None:
        if int(self.k) != self.k or self.k < 3:
            raise ValueError(f"k must be an integer >= 3, got {self.k!r}")
        if not self.d > 0:
            raise ValueError(f"d must be positive, got {self.d!r}")

    @property
    def alpha(self) -> float:
        """Clause-to-variable ratio m/n = d/k."""
        return self.d / self.k


@dataclass(frozen=True)
class DegreeWindow:
    """Degree interval [d_lbd, d_ubd] on which the fixed point is certified."""

    d_lbd: float
    d_ubd: float

    def __post_init__(self) -> None:
        if not self.d_lbd < self.d_ubd:
            raise ValueError("window requires d_lbd < d_ubd")

    def __contains__(self, d: float) -> bool:
        return self.d_lbd <= d <= self.d_ubd


@dataclass(frozen=True)
class BpFixedPoint:
    """Solved fixed point x of the composed recursion, with certificates.

    residual is |psi(x) - x|.  bracket is the final bisection interval.
    max_derivative is a grid estimate of sup |psi'| over the solve interval
    (an estimate, not a proof).  iteration_gap is the largest disagreement
    between the bisection answer and fixed-point iteration started from
    both interval endpoints (the uniqueness witness).  Both are None when
    the solve ran with check=False.
    """

    x: float
    residual: float
    bracket: tuple[float, float]
    max_derivative: float | None = None
    iteration_gap: float | None = field(default=None, compare=False)


def degree_window(k: int) -> DegreeWindow:
    """Supported degree window for clause size k.

    k=3 and k=4 use hand-tuned endpoints; for 5 <= k <= MAX_K the window
    is [(2^(k-1) - 2) k ln2, 2^(k-1) k ln2].
    """
    if int(k) != k or k < 3:
        raise ValueError(f"k must be an integer >= 3, got {k!r}")
    _domain(k)  # rejects k > MAX_K
    if k == 3:
        return DegreeWindow(6.74, 7.5)
    if k == 4:
        return DegreeWindow(16.7, 2 ** (k - 1) * k * math.log(2))
    return DegreeWindow((2 ** (k - 1) - 2) * k * math.log(2), 2 ** (k - 1) * k * math.log(2))


def psi_hat(k: int, x):
    """Clause update: x -> (1 - 2 x^(k-1)) / (1 - x^(k-1)).

    Decreasing in x on [0, 1/2].  Polymorphic over float, numpy array,
    Fraction, and mpmath types (only ring operations and ** are used).
    """
    xk = x ** (k - 1)
    hit_one = (xk == 1).any() if isinstance(xk, np.ndarray) else xk == 1
    if hit_one:
        raise ValueError("psi_hat undefined at x = 1")
    return (1 - 2 * xk) / (1 - xk)


def psi_dot(d: float, v):
    """Variable update: v -> (1 - v^(d-1)) / (2 - v^(d-1)).

    Takes values in [0, 1/2] for v in [0, 1].  Non-integer powers of
    v are exp((d-1) ln v); v = 0 gives exactly 1/2.
    """
    vd = v ** (d - 1)
    return (1 - vd) / (2 - vd)


def psi(params: ModelParams, x):
    """Composed recursion psi_dot(d, psi_hat(k, x)).

    Increasing on [1/2 - 2^-k, 1/2].
    """
    return psi_dot(params.d, psi_hat(params.k, x))


def psi_derivative(params: ModelParams, x):
    """Derivative of the composed recursion, in closed form.

    With v = psi_hat(k, x):

        psi'(x) = (k-1)(d-1) v^(d-2) (2-v)(1-v) / ((2 - v^(d-1))^2 x)

    which uses the identity x^(k-1) = (1-v)/(2-v).  The value is positive
    on (0, 1/2] because both component updates are decreasing.
    """
    k, d = params.k, params.d
    if np.any(np.asarray(x) <= 0):
        raise ValueError("psi_derivative undefined at x = 0")
    v = psi_hat(k, x)
    return (
        (k - 1)
        * (d - 1)
        * v ** (d - 2)
        * (2 - v)
        * (1 - v)
        / ((2 - v ** (d - 1)) ** 2 * x)
    )


def _dpsi_dd(k: int, d, x, ctx=mpmath):
    """d-derivative of the composed recursion: -w ln(v) / (2-w)^2 with
    v = psi_hat(k, x) and w = v^(d-1)."""
    v = psi_hat(k, x)
    w = v ** (d - 1)
    return -w * ctx.log(v) / (2 - w) ** 2


def _domain(k: int) -> tuple[float, float]:
    """The fixed-point interval [1/2 - 2^-k, 1/2], for k <= MAX_K."""
    if k > MAX_K:
        raise ValueError(
            f"k={k} exceeds {MAX_K}: below 1/2 doubles are 2^-54 apart, so "
            f"[1/2 - 2^-{k}, 1/2] holds too few of them to resolve the fixed point"
        )
    return 0.5 - 2.0 ** (-k), 0.5


def _bisect(keep_low, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Bisect [lo, hi] to width tol or to adjacent floats, whichever comes first.

    keep_low(mid) is true when the root lies above mid, so mid becomes the
    lower end; otherwise, a zero or a NaN at mid included, it becomes the
    upper end.  Neither end is evaluated.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if keep_low(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def solve_fixed_point(
    params: ModelParams,
    tol: float = 1e-12,
    *,
    check: bool = True,
) -> BpFixedPoint:
    """Solve psi(x) = x on [1/2 - 2^-k, 1/2] by bisection.

    Endpoint signs of g(x) = psi(x) - x are asserted before bisecting
    (g > 0 on the left, g < 0 on the right); failure raises BracketError,
    which signals a degree outside the supported window.  Bisection stops
    at width tol or at adjacent floats, whichever comes first.  When check
    is true, fixed-point iteration from both endpoints must land within
    10*tol of the bisection answer, certifying uniqueness under the
    contraction property, and sup |psi'| is estimated on a
    DERIVATIVE_GRID-point grid.  check=False skips both (phi_star,
    eta_cluster and the certificates' float centres use it).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    k = params.k
    lo, hi = _domain(k)
    g_lo = psi(params, lo) - lo
    g_hi = psi(params, hi) - hi
    if not (g_lo > 0 and g_hi < 0):
        raise BracketError(
            f"psi(x)-x signs at the interval endpoints are ({g_lo:+.3e}, "
            f"{g_hi:+.3e}); expected (+,-). d={params.d} is outside the "
            f"supported window {degree_window(k)} for k={k}."
        )

    # psi(params, mid) with k and d bound once: the predicate runs at every
    # bisection step, where one more call costs about 5% of a threshold table
    d = params.d
    a, b = _bisect(lambda mid: psi_dot(d, psi_hat(k, mid)) - mid > 0, lo, hi, tol)
    x = 0.5 * (a + b)
    residual = abs(psi(params, x) - x)

    iteration_gap = max_derivative = None
    if check:
        gaps = []
        for start in (lo, hi):
            y = start
            for _ in range(100_000):
                y_next = psi(params, y)
                if abs(y_next - y) <= 0.01 * tol:
                    y = y_next
                    break
                y = y_next
            else:
                raise RuntimeError("fixed-point iteration did not converge")
            gaps.append(abs(y - x))
        iteration_gap = max(gaps)
        if iteration_gap > 10 * tol:
            raise RuntimeError(
                f"fixed-point iteration disagrees with bisection by "
                f"{iteration_gap:.3e} > 10*tol; uniqueness witness failed"
            )
        max_derivative = contraction_certificate(params)

    return BpFixedPoint(
        x=x,
        residual=float(residual),
        bracket=(a, b),
        max_derivative=max_derivative,
        iteration_gap=iteration_gap,
    )


def contraction_certificate(params: ModelParams) -> float:
    """Grid estimate of sup |psi'| over [1/2 - 2^-k, 1/2].

    Returns the maximum of |psi_derivative| over DERIVATIVE_GRID uniformly
    spaced points including both endpoints.  A value < 1 is evidence of
    contraction (a certificate estimate, not a proof).
    """
    lo, hi = _domain(params.k)
    xs = np.linspace(lo, hi, DERIVATIVE_GRID)
    return float(np.max(np.abs(psi_derivative(params, xs))))
