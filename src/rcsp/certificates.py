"""High-precision checks of the numerical inequalities behind the thresholds.

Each certificate re-evaluates one inequality used by the contraction,
bracketing, or free-energy-sign analysis, at 50 or more significant digits,
and passes only when the computed margin clears two guards: it must exceed
10^(-digits/2), and re-evaluating at twice the precision must move the
computed value by less than a hundredth of the margin.  A certificate whose
margin fails either guard is reported inconclusive, never passed.

A certificate may bundle several elementary comparisons (a chained
inequality, a grid of derivative values, a monotone sequence); the reported
computed/bound/margin always belong to the tightest comparison, and the
notes field records the rest.

certify_ceil_d_star stands outside that registry: it proves a threshold
ceiling in mpmath.iv interval arithmetic, where every bound is a bound on an
enclosure and no precision guard is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.ctx_iv import MPIntervalContext

from .bp import (
    ModelParams,
    _domain,
    degree_window,
    psi,
    psi_derivative,
    psi_hat,
    solve_fixed_point,
)
from .thresholds import phi

__all__ = [
    "CertificateReport",
    "Enclosure",
    "ThresholdCertificate",
    "certificate_ids",
    "certify_ceil_d_star",
    "evaluate",
    "verify_all",
]

DEFAULT_DIGITS = 50

V0_EXACT = Fraction(3410, 3753)


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate.

    computed and claimed_bound are decimal strings at working precision
    (for bundled comparisons: the tightest one).  margin is computed minus
    bound as a float; passed requires the stated relation, every bundled
    comparison, and both precision guards.  inconclusive marks a margin
    too small for the working precision to be trusted.
    """

    id: str
    expression: str
    computed: str
    claimed_bound: str
    relation: str
    margin: float
    passed: bool
    inconclusive: bool
    notes: str


def _ln2() -> mpmath.mpf:
    return mpmath.log(2)


def _epsilon_k(k: int) -> mpmath.mpf:
    """2(k-1)k ln2 / 2^k + (4k ln2 + 4)/2^k * (1 - 2(k-1)/2^k)."""
    two_k = mpmath.mpf(2) ** k
    ln2 = _ln2()
    return (2 * (k - 1) * k * ln2) / two_k + (4 * k * ln2 + 4) / two_k * (
        1 - 2 * (k - 1) / two_k
    )


def _beta_k(k: int) -> mpmath.mpf:
    """2(k-1)k ln2 / 2^k + (4k ln2 + 2)/2^k * (1 - 2(k-1)/2^k)."""
    two_k = mpmath.mpf(2) ** k
    ln2 = _ln2()
    return (2 * (k - 1) * k * ln2) / two_k + (4 * k * ln2 + 2) / two_k * (
        1 - 2 * (k - 1) / two_k
    )


def _alpha_k(k: int) -> mpmath.mpf:
    """Composed-recursion derivative bound
    2k(k-1)ln2/2^k * (1 - 1/(2^{k-1} k ln2)) * e^eps / ((1-2^{1-k})^2 (2-2^{-k} e^eps)^2)."""
    two_k = mpmath.mpf(2) ** k
    ln2 = _ln2()
    eps = _epsilon_k(k)
    front = (2 * k * (k - 1) * ln2) / two_k * (1 - 1 / (two_k / 2 * k * ln2))
    denom = (1 - 2 / two_k) ** 2 * (2 - mpmath.exp(eps) / two_k) ** 2
    return front * mpmath.exp(eps) / denom


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


def _dpsi_dd(k: int, d, x, ctx=mpmath):
    """d-derivative of the composed recursion: -w ln(v) / (2-w)^2 with
    v = psi_hat(k, x) and w = v^(d-1)."""
    v = psi_hat(k, x)
    w = v ** (d - 1)
    return -w * ctx.log(v) / (2 - w) ** 2


def _big_l(d, x) -> mpmath.mpf:
    """L(d,x) = (1-x^2)^d ((1-x^2)^{d-1} - 2)^2 / (1-2x^2)^{d-2} - 2(d-1)x."""
    d = mpmath.mpf(d)
    x = mpmath.mpf(x)
    a = 1 - x**2
    b = 1 - 2 * x**2
    return a**d * (a ** (d - 1) - 2) ** 2 / b ** (d - 2) - 2 * (d - 1) * x


def _grid(a: str, b: str, points: int):
    lo = mpmath.mpf(a)
    hi = mpmath.mpf(b)
    step = (hi - lo) / (points - 1)
    return [lo + i * step for i in range(points)]


# Each builder returns (parts, exact_failures) under the current mpmath
# context.  A part is (value, bound, relation); exact_failures lists any
# rational identities that did not hold.


def _parts_alpha5():
    return [(_alpha_k(5), mpmath.mpf("0.99"), "<")], []


def _parts_exp_beta5():
    value = mpmath.exp(_beta_k(5)) * (1 + mpmath.mpf(2) ** -4)
    return [(value, mpmath.mpf("3.7"), "<")], []


def _parts_v0():
    exact = psi_hat(4, Fraction(7, 16))
    failures = []
    if exact != V0_EXACT:
        failures.append(f"clause recursion at 7/16 gave {exact}, not {V0_EXACT}")
    value = mpmath.mpf(V0_EXACT.numerator) / V0_EXACT.denominator
    return [(value, mpmath.mpf("0.91"), "<")], failures


def _parts_v0_power():
    v0 = mpmath.mpf(V0_EXACT.numerator) / V0_EXACT.denominator
    return [(v0 ** mpmath.mpf("15.7"), mpmath.mpf("0.2221"), "<")], []


def _parts_chain_24ln2():
    mid = mpmath.mpf(16)
    lhs = 24 * _ln2()
    rhs = 1 / mpmath.log(mpmath.mpf(3753) / 3410) + 1
    return [(lhs, mid, ">"), (mid, rhs, ">")], []


def _parts_deriv_k4():
    d0 = 24 * _ln2()
    v0 = mpmath.mpf(V0_EXACT.numerator) / V0_EXACT.denominator
    x0 = mpmath.mpf(7) / 16
    value = (
        3 * (d0 - 1) * v0 ** (d0 - 2) * (2 - v0) * (1 - v0) / ((2 - v0 ** (d0 - 1)) ** 2 * x0)
    )
    return [(value, mpmath.mpf("0.9"), "<")], []


def _parts_f45():
    ln2 = _ln2()
    f4 = ln2 - mpmath.mpf(1) / 8 + mpmath.mpf("16.7") / 4 * mpmath.log(mpmath.mpf(7) / 8)
    f5 = ln2 - mpmath.mpf(1) / 16 + 14 * ln2 * mpmath.log(mpmath.mpf(15) / 16)
    return [(f4, mpmath.mpf("0.01"), ">"), (f5, mpmath.mpf("0.004"), ">")], []


def _parts_g5():
    value = mpmath.mpf(2) / 17 + mpmath.mpf(2) / 15 + (80 * _ln2() - 1) / 32
    return [(value, mpmath.mpf("1.97"), "<")], []


def _parts_phi_k4_ubd():
    value = phi(ModelParams(4, 32 * _ln2()), mpmath.mpf(7) / 16, mpmath)
    return [(value, mpmath.mpf("-0.08"), "<")], []


def _parts_phi_ubd_half():
    parts = []
    for k in range(4, 16):
        d = mpmath.mpf(2) ** (k - 1) * k * _ln2()
        parts.append((phi(ModelParams(k, d), mpmath.mpf(1) / 2, mpmath), mpmath.mpf(0), "<"))
    return parts, []


def _parts_l_values():
    x = mpmath.mpf(3) / 8
    return [
        (_big_l(mpmath.mpf("6.74"), x), mpmath.mpf("0.001"), ">"),
        (_big_l(mpmath.mpf(6), x), mpmath.mpf("-0.2"), "<"),
    ], []


def _parts_ratio_pow():
    value = (mpmath.mpf(55) / 46) ** mpmath.mpf("5.74")
    return [(value, mpmath.mpf("2.7"), ">")], []


def _parts_psi_bracket():
    params = ModelParams(3, mpmath.mpf("6.74"))
    return [
        (psi(params, mpmath.mpf("0.4464")), mpmath.mpf("0.44645"), ">"),
        (psi(params, mpmath.mpf("0.45")), mpmath.mpf("0.449"), "<"),
    ], []


def _parts_phi_left():
    value = phi(ModelParams(3, mpmath.mpf("6.74")), mpmath.mpf("0.4464"), mpmath)
    return [(value, mpmath.mpf("4e-5"), ">")], []


def _parts_phi_right():
    value = phi(ModelParams(3, mpmath.mpf("7.5")), mpmath.mpf("0.48"), mpmath)
    return [(value, mpmath.mpf("-0.04"), "<")], []


def _parts_dphi_grids():
    parts = []
    for x in _grid("0.44", "0.45", 100):
        parts.append((_dphi_dx(3, mpmath.mpf("6.74"), x), mpmath.mpf("0.1"), ">"))
    for x in _grid("0.46", "0.48", 100):
        parts.append((_dphi_dx(3, mpmath.mpf("7.5"), x), mpmath.mpf("0.04"), ">"))
    return parts, []


def _parts_eps_beta_monotone():
    parts = []
    for k in range(5, 15):
        parts.append((_epsilon_k(k) - _epsilon_k(k + 1), mpmath.mpf(0), ">"))
    for k in range(5, 15):
        parts.append((_beta_k(k) - _beta_k(k + 1), mpmath.mpf(0), ">"))
    return parts, []


def _parts_l_convexity():
    x = mpmath.mpf(3) / 8
    ds = _grid("6", "7.5", 31)
    vals = [_big_l(d, x) for d in ds]
    parts = []
    for i in range(1, len(vals) - 1):
        parts.append((vals[i - 1] - 2 * vals[i] + vals[i + 1], mpmath.mpf(0), ">"))
    return parts, []


_REGISTRY = {
    "alpha5": ("alpha_5 < 0.99", _parts_alpha5, ""),
    "exp_beta5": ("e^(beta_5) * (1 + 2^-4) < 3.7", _parts_exp_beta5, ""),
    "v0": ("v0 = 3410/3753 exactly, and v0 < 0.91", _parts_v0, ""),
    "v0_15.7": ("(3410/3753)^15.7 < 0.2221", _parts_v0_power, ""),
    "chain_24ln2": ("24 ln2 > 16 > 1/ln(3753/3410) + 1", _parts_chain_24ln2, ""),
    "deriv_4_24ln2": (
        "3(d0-1) v0^(d0-2) (2-v0)(1-v0) / ((2-v0^(d0-1))^2 x0) < 0.9 at d0 = 24 ln2, x0 = 7/16",
        _parts_deriv_k4,
        "",
    ),
    "F4_F5": (
        "F(4) = ln2 - 1/8 + (16.7/4) ln(7/8) > 0.01; F(5) = ln2 - 1/16 + 14 ln2 ln(15/16) > 0.004",
        _parts_f45,
        "",
    ),
    "G5": ("G(5) = 2/17 + 2/15 + (80 ln2 - 1)/32 < 1.97", _parts_g5, ""),
    "Phi_4_ubd": ("phi(k=4, d=32 ln2, x=7/16) < -0.08", _parts_phi_k4_ubd, ""),
    "Phi_ubd_half": (
        "phi(k, 2^(k-1) k ln2, 1/2) < 0 for k = 4..15",
        _parts_phi_ubd_half,
        "",
    ),
    "L_6.74": ("L(6.74, 3/8) > 0.001 and L(6, 3/8) < -0.2", _parts_l_values, ""),
    "ratio_5.74": ("(55/46)^5.74 > 2.7", _parts_ratio_pow, ""),
    "Psi_6.74_bracket": (
        "Psi_6.74(0.4464) > 0.44645 and Psi_6.74(0.45) < 0.449 at k = 3",
        _parts_psi_bracket,
        "",
    ),
    "Phi_6.74_0.4464": ("phi(k=3, 6.74, 0.4464) > 4e-5", _parts_phi_left, ""),
    "Phi_7.5_0.48": ("phi(k=3, 7.5, 0.48) < -0.04", _parts_phi_right, ""),
    "dPhi_grid": (
        "dphi/dx(k=3, 6.74, x) > 0.1 on 100 points of [0.44, 0.45]; "
        "dphi/dx(k=3, 7.5, x) > 0.04 on 100 points of [0.46, 0.48]",
        _parts_dphi_grids,
        "the second grid is evaluated at d = 7.5, the degree its bound belongs to, "
        "although a 6.74 label is sometimes attached to that display",
    ),
    "eps_beta_decreasing": (
        "epsilon_k and beta_k both strictly decreasing for k = 5..15",
        _parts_eps_beta_monotone,
        "",
    ),
    "L_convexity": (
        "second difference of d -> L(d, 3/8) positive on a 31-point grid over [6, 7.5]",
        _parts_l_convexity,
        "",
    ),
}


def certificate_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _goodness(value, bound, relation) -> mpmath.mpf:
    return bound - value if relation == "<" else value - bound


def evaluate(
    id: str, precision_digits: int = DEFAULT_DIGITS, flip_relation: bool = False
) -> CertificateReport:
    """Evaluate one certificate with the margin and re-evaluation guards.

    flip_relation inverts every comparison; a sound harness must then fail
    the certificate (negative control).
    """
    if id not in _REGISTRY:
        raise KeyError(f"unknown certificate id {id!r}")
    if precision_digits < 50:
        raise ValueError(f"need precision_digits >= 50, got {precision_digits}")
    expression, builder, base_notes = _REGISTRY[id]

    def flip(rel: str) -> str:
        if not flip_relation:
            return rel
        return "<" if rel == ">" else ">"

    with mpmath.workdps(precision_digits):
        parts, exact_failures = builder()
        parts = [(v, b, flip(r)) for v, b, r in parts]
        binding = min(range(len(parts)), key=lambda i: _goodness(*parts[i]))
        value, bound, relation = parts[binding]
        ok = all(_goodness(*p) > 0 for p in parts) and not exact_failures
        margin_mp = value - bound
        computed_str = mpmath.nstr(value, precision_digits)
        bound_str = mpmath.nstr(bound, precision_digits)
    with mpmath.workdps(2 * precision_digits):
        parts_hi, _ = builder()
        value_hi = parts_hi[binding][0]
        drift = abs(value_hi - value)
        guard_floor = mpmath.mpf(10) ** (-(precision_digits // 2))
        inconclusive = abs(margin_mp) <= guard_floor or not drift < abs(margin_mp) / 100
    notes = base_notes
    if exact_failures:
        notes = "; ".join([notes] * bool(notes) + exact_failures)
    if inconclusive:
        tag = "inconclusive: margin too small for the working precision"
        notes = f"{notes}; {tag}" if notes else tag
    if len(parts) > 1 and not notes:
        notes = f"tightest of {len(parts)} comparisons shown"
    return CertificateReport(
        id=id,
        expression=expression,
        computed=computed_str,
        claimed_bound=bound_str,
        relation=relation,
        margin=float(margin_mp),
        passed=bool(ok) and not inconclusive,
        inconclusive=bool(inconclusive),
        notes=notes,
    )


def verify_all(precision_digits: int = DEFAULT_DIGITS) -> list[CertificateReport]:
    """Evaluate every registered certificate, in registry order."""
    return [evaluate(cid, precision_digits) for cid in _REGISTRY]


# Working precision of the threshold certificate's interval context.
THRESHOLD_PREC_BITS = 80

# Half-width of the Krawczyk box around the float fixed point.  The float
# solve is accurate to about 1e-12, so the box holds the root with room to
# spare, and psi' varies too little across it to stop K(X) from closing.
KRAWCZYK_RADIUS = 1e-9


@dataclass(frozen=True)
class Enclosure:
    """One interval claim of a threshold certificate.

    [lower, upper] encloses the quantity the claim bounds, rounded to float
    for display.  status is decided on the exact interval: "proven" when
    every point of it satisfies the claim, "refuted" when none does, and
    "open" otherwise (including an enclosure that could not be built,
    shown as [-inf, inf]).
    """

    claim: str
    lower: float
    upper: float
    status: str


@dataclass(frozen=True)
class ThresholdCertificate:
    """Interval proof, or refutation, that ceil(d_star(k)) == ceil_d_star.

    passed requires every enclosure proven.  A refuted enclosure fails the
    certificate outright; otherwise an open one, or degrees outside the
    window (enclosures then empty), leaves it inconclusive.
    """

    k: int
    ceil_d_star: int
    enclosures: tuple[Enclosure, ...]
    passed: bool
    inconclusive: bool
    notes: str


def _enclosure(claim: str, value, above=None, below=None) -> Enclosure:
    """Decide above < value < below on an mpmath.iv interval."""
    checks = []
    if above is not None:
        checks.append(value > above)
    if below is not None:
        checks.append(value < below)
    if all(c is True for c in checks):
        status = "proven"
    elif any(c is False for c in checks):
        status = "refuted"
    else:
        status = "open"
    return Enclosure(claim, float(value.a), float(value.b), status)


def _phi_star_enclosure(iv, k: int, d: int):
    """Enclosure of phi_star(k, d), or None when the Krawczyk step does not close.

    The float solve supplies only the centre c and the preconditioner
    y = 1/(psi'(c) - 1).  K(X) = c - y f(c) + (1 - y f'(X))(X - c) for
    f(x) = psi(x) - x; K(X) inside X proves a root in K(X), and phi at that
    root lies in phi(c) + phi_x(X)(K(X) - c) by the mean-value theorem.
    """
    point = ModelParams(k, float(d))
    c = solve_fixed_point(point, witness=False, derivative_grid=0).x
    y = 1 / (psi_derivative(point, c) - 1)
    params = ModelParams(k, iv.mpf(d))
    center = iv.mpf(c)
    box = center + iv.mpf([-KRAWCZYK_RADIUS, KRAWCZYK_RADIUS])
    krawczyk = (
        center
        - y * (psi(params, center) - center)
        + (1 - y * (psi_derivative(params, box) - 1)) * (box - center)
    )
    if not (krawczyk in box and box in iv.mpf(_domain(k))):
        return None
    return phi(params, center, iv) + _dphi_dx(k, params.d, box, iv) * (krawczyk - center)


def certify_ceil_d_star(k: int, ceil: int) -> ThresholdCertificate:
    """Prove in interval arithmetic that d_star(k) lies in (ceil - 1, ceil).

    d_star(k) is the largest zero of phi_star inside the degree window
    [d_lbd, d_ubd].  With X = [1/2 - 2^-k, 1/2], every claim is a bound on
    an mpmath.iv enclosure at THRESHOLD_PREC_BITS bits:

    (i) psi(x) - x is positive at x = 1/2 - 2^-k, negative at x = 1/2, and
        0 < psi' < 1 on [ceil - 1, d_ubd] x X, so the fixed point x(d)
        exists, is unique, and is differentiable in d there;
    (ii) phi_star(ceil - 1) > 0 and (iii) phi_star(ceil) < 0, each on a
        Krawczyk enclosure of the fixed point;
    (iv) dphi_star/dd = phi_d + phi_x psi_d / (1 - psi') < 0 on
        [ceil, d_ubd] x X, so phi_star has no zero in [ceil, d_ubd].

    Together they put the largest zero in (ceil - 1, ceil).  Kept outside
    the registry: the proof is the enclosure itself, so evaluate's
    precision-drift guards do not apply.
    """
    window = degree_window(k)
    if int(ceil) != ceil:
        raise ValueError(f"ceil must be an integer, got {ceil!r}")
    if not (window.d_lbd <= ceil - 1 and ceil <= window.d_ubd):
        return ThresholdCertificate(
            k,
            ceil,
            (),
            passed=False,
            inconclusive=True,
            notes=f"inconclusive: degrees {ceil - 1} and {ceil} are not both inside "
            f"the window [{window.d_lbd}, {window.d_ubd}]",
        )
    iv = MPIntervalContext()
    iv.prec = THRESHOLD_PREC_BITS
    lo, hi = _domain(k)
    xs = iv.mpf([lo, hi])
    box = ModelParams(k, iv.mpf([ceil - 1, window.d_ubd]))
    tail = ModelParams(k, iv.mpf([ceil, window.d_ubd]))
    on_box = f"on [{ceil - 1}, d_ubd] x [1/2 - 2^-{k}, 1/2]"
    enclosures = [
        _enclosure(
            f"psi(x) - x > 0 at x = 1/2 - 2^-{k}, d in [{ceil - 1}, d_ubd]",
            psi(box, iv.mpf(lo)) - lo,
            above=0,
        ),
        _enclosure(
            f"psi(x) - x < 0 at x = 1/2, d in [{ceil - 1}, d_ubd]",
            psi(box, iv.mpf(hi)) - hi,
            below=0,
        ),
        _enclosure(f"0 < psi' < 1 {on_box}", psi_derivative(box, xs), above=0, below=1),
    ]
    for d, relation in ((ceil - 1, ">"), (ceil, "<")):
        claim = f"phi_star({d}) {relation} 0"
        value = _phi_star_enclosure(iv, k, d)
        if value is None:
            enclosures.append(Enclosure(claim, -math.inf, math.inf, "open"))
        elif relation == ">":
            enclosures.append(_enclosure(claim, value, above=0))
        else:
            enclosures.append(_enclosure(claim, value, below=0))
    slope = _dphi_dd(k, xs, iv) + _dphi_dx(k, tail.d, xs, iv) * _dpsi_dd(
        k, tail.d, xs, iv
    ) / (1 - psi_derivative(tail, xs))
    enclosures.append(
        _enclosure(f"dphi_star/dd < 0 on [{ceil}, d_ubd] x [1/2 - 2^-{k}, 1/2]", slope, below=0)
    )

    statuses = {e.status for e in enclosures}
    passed = statuses == {"proven"}
    inconclusive = not passed and "refuted" not in statuses
    if passed:
        notes = f"the largest zero of phi_star in the window lies in ({ceil - 1}, {ceil})"
    else:
        word = "inconclusive" if inconclusive else "refuted"
        bad = [e.claim for e in enclosures if e.status == ("open" if inconclusive else "refuted")]
        notes = f"{word}: " + "; ".join(bad)
    return ThresholdCertificate(k, ceil, tuple(enclosures), passed, inconclusive, notes)
