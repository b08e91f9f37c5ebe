"""Degree thresholds from the free-energy functional at the BP fixed point.

phi(d, x) evaluates the replica-symmetric free-energy expression; its value
at the solved fixed point, phi_star(d), changes sign once inside the
supported degree window, and d_star(k) is that zero.  d_first_moment(k) is
the first-moment degree where the expected solution count crosses 1.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from types import SimpleNamespace

import mpmath

from .bp import (
    BracketError,
    DegreeWindow,
    ModelParams,
    _bisect,
    degree_window,
    solve_fixed_point,
)

__all__ = [
    "ThresholdReport",
    "phi",
    "phi_star",
    "d_star",
    "d_first_moment",
    "asymptotic_gap",
    "table_rows",
]

SCAN_STEPS = 1000


@dataclass(frozen=True)
class ThresholdReport:
    """d_star solve for one clause size.

    bracket is the final bisection interval (phi_star > 0 at the low end,
    < 0 at the high end).  sign_changes holds the one grid cell (d_low,
    d_high) where phi_star changes sign; d_star says why there is one.
    """

    k: int
    d_star: float
    d_first_moment: float
    window: DegreeWindow
    tol: float
    ceil_d_star: int
    ceil_d1: int
    bracket: tuple[float, float]
    sign_changes: tuple[tuple[float, float], ...]


# The float arithmetic context: phi's default, with the names it uses from
# an mpmath context.
_FLOAT = SimpleNamespace(log=math.log, mpf=float)


def phi(params: ModelParams, x, ctx=_FLOAT):
    """Free-energy expression at message weight x.

    phi = -ln(1-x) - d(1 - 1/k - 1/d) ln(1 - 2 x^k) + (d-1) ln(1 - x^(k-1))

    Generic over the arithmetic context.  The default evaluates in floats
    and requires every log argument positive; x in [0, 1/2] always is.
    ctx = mpmath with mpf arguments gives a high-precision value, and an
    mpmath.iv context with interval arguments gives an enclosure.
    """
    k, d = params.k, params.d
    a1 = 1 - x
    a2 = 1 - 2 * x**k
    a3 = 1 - x ** (k - 1)
    if ctx is _FLOAT and not (a1 > 0 and a2 > 0 and a3 > 0):
        raise ValueError(f"phi undefined at x={x}: a log argument is <= 0")
    return (
        -ctx.log(a1)
        - d * (1 - ctx.mpf(1) / k - 1 / d) * ctx.log(a2)
        + (d - 1) * ctx.log(a3)
    )


def _dphi_dx(k: int, d, x, ctx=mpmath):
    """x-derivative of phi: 1/(1-x) + (d(1-1/k)-1) 2k x^{k-1}/(1-2x^k)
    - (d-1)(k-1) x^{k-2}/(1-x^{k-1}).  Generic over an mpmath context like phi."""
    return (
        1 / (1 - x)
        + (d * (1 - ctx.mpf(1) / k) - 1) * 2 * k * x ** (k - 1) / (1 - 2 * x**k)
        - (d - 1) * (k - 1) * x ** (k - 2) / (1 - x ** (k - 1))
    )


def _dphi_dd(k: int, x, ctx=mpmath):
    """d-derivative of phi: -(1-1/k) ln(1-2x^k) + ln(1-x^{k-1})."""
    return -(1 - ctx.mpf(1) / k) * ctx.log(1 - 2 * x**k) + ctx.log(1 - x ** (k - 1))


def phi_star(params: ModelParams) -> float:
    """phi evaluated at the solved BP fixed point.

    Runs bare bisection (check=False); d_star's search calls it per probe.
    """
    return phi(params, solve_fixed_point(params, check=False).x)


def d_first_moment(k: int) -> float:
    """Degree where the expected solution count crosses 1: k ln2 / -ln(1 - 2^(1-k))."""
    if int(k) != k or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    return k * math.log(2) / (-math.log1p(-(2.0 ** (1 - k))))


def d_star(k: int, tol: float = 1e-9) -> ThresholdReport:
    """Zero of phi_star inside the degree window for clause size k.

    phi_star is strictly decreasing on the window (the curve-box slope proof
    certificates._slope_enclosure; test_slope_proof_closes_on_every_window
    runs it for k = 3..52).  After the window-end signs, a binary search over
    the SCAN_STEPS-cell degree grid finds its one sign change, and that cell
    is bisected to tol or to adjacent floats, whichever comes first.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    window = degree_window(k)
    lo, hi = window.d_lbd, window.d_ubd
    step = (hi - lo) / SCAN_STEPS

    def f(d: float) -> float:
        return phi_star(ModelParams(k, d))

    def no_bracket(end: str, d: float, val: float, want: str) -> BracketError:
        # For k = 27-29 and 48-52 phi_star at a window end is smaller than its
        # float error (k = 28 lower end: float -2.4e-7, 40-digit solve +5.9e-9).
        return BracketError(
            f"the float scan cannot bracket d_star at k={k}: phi_star({d}) = {val:.3e} "
            f"at the window's {end} end, expected {want}, and phi_star's float error "
            f"there can exceed its size"
        )

    if not (val := f(hi)) < 0:
        raise no_bracket("upper", hi, val, "< 0")
    if not (val := f(hi - SCAN_STEPS * step)) > 0:
        raise no_bracket("lower", lo, val, "> 0")

    # first grid degree hi - i * step, counting down, where phi_star >= 0
    i = bisect_left(range(SCAN_STEPS), True, 1, key=lambda j: f(hi - j * step) >= 0)
    cell = (hi - i * step, hi - (i - 1) * step)

    d_pos, d_neg = _bisect(lambda mid: f(mid) > 0, *cell, tol)
    root = 0.5 * (d_pos + d_neg)

    d1 = d_first_moment(k)
    return ThresholdReport(
        k=k,
        d_star=root,
        d_first_moment=d1,
        window=window,
        tol=tol,
        ceil_d_star=math.ceil(root),
        ceil_d1=math.ceil(d1),
        bracket=(d_pos, d_neg),
        sign_changes=(cell,),
    )


def asymptotic_gap(k: int, tol: float = 1e-9) -> float:
    """d_star(k)/k minus the large-k prediction (2^(k-1) - 1/2 - 1/(4 ln2)) ln2,
    which shrinks with k; from k of about 20 on, float error in d_star dominates it."""
    pred = (2 ** (k - 1) - 0.5 - 1 / (4 * math.log(2))) * math.log(2)
    return d_star(k, tol).d_star / k - pred


def table_rows(k_min: int = 3, k_max: int = 15, tol: float = 1e-9) -> list[ThresholdReport]:
    """ThresholdReport for each k in [k_min, k_max]."""
    if k_min < 3 or k_max < k_min:
        raise ValueError("need 3 <= k_min <= k_max")
    return [d_star(k, tol) for k in range(k_min, k_max + 1)]
