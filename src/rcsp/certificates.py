"""Interval proofs of the numerical inequalities behind the thresholds.

Every claim here is decided by one rule: the quantity is enclosed in an
mpmath.iv interval, and the claim is proven when every point of the
enclosure satisfies it, refuted when none does, and open otherwise.  No
precision guard is needed: a proven claim is a bound on an enclosure.

The registry holds the inequalities used by the contraction, bracketing, or
free-energy-sign analysis.  evaluate builds one of them once, in an interval
context at 50 to MAX_DIGITS significant digits.  Interval arithmetic
depends only on the precision, so each interval context is built once per
precision and shared; every enclosure is still computed afresh.  A
certificate may bundle several elementary comparisons (a chained inequality,
a cover of an interval by boxes, a monotone sequence); the reported
computed/bound/margin always belong to the tightest comparison, and the notes
field records the rest.

certify_ceil_d_star proves a threshold ceiling by the same rule, on one
Krawczyk step that encloses the fixed point over a degree box (a point
degree is the box [d, d]); _slope_enclosure, one of its claims, proves
phi_star strictly decreasing along the fixed-point curve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.ctx_iv import MPIntervalContext

from .bp import (
    ModelParams,
    _domain,
    _dpsi_dd,
    degree_window,
    psi,
    psi_derivative,
    psi_hat,
    solve_fixed_point,
)
from .thresholds import _dphi_dd, _dphi_dx, phi

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
# verify_all takes 0.4-0.6 s at 1000 digits on a 2-core Xeon and grows about
# quadratically.
MAX_DIGITS = 1000

V0_EXACT = Fraction(3410, 3753)

# Boxes covering each interval of the dphi/dx certificate.
DPHI_BOXES = 8


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate.

    computed is the end of the tightest comparison's enclosure nearest its
    bound (the upper end for <, the lower end for >), so it is a guaranteed
    value; computed and claimed_bound are decimal strings at working
    precision.  margin is computed minus bound as a float.  passed requires
    every comparison proven and every exact identity to hold.  inconclusive
    marks an enclosure that straddles its bound while none is refuted.
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


# The helpers and builders below are generic over the arithmetic context ctx:
# an mpmath.iv interval context in evaluate, plain mpmath for comparison.
# _big_l needs nothing from the context and takes none.


def _epsilon_k(ctx, k: int, c: int = 4):
    """epsilon_k = 2(k-1)k ln2 / 2^k + (4k ln2 + c)/2^k * (1 - 2(k-1)/2^k) with
    c = 4; c = 2 gives beta_k."""
    two_k = ctx.mpf(2) ** k
    return (2 * (k - 1) * k * ctx.ln2) / two_k + (4 * k * ctx.ln2 + c) / two_k * (
        1 - 2 * (k - 1) / two_k
    )


def _beta_k(ctx, k: int):
    return _epsilon_k(ctx, k, 2)


def _alpha_k(ctx, k: int):
    """Composed-recursion derivative bound
    2k(k-1)ln2/2^k * (1 - 1/(2^{k-1} k ln2)) * e^eps / ((1-2^{1-k})^2 (2-2^{-k} e^eps)^2)."""
    two_k = ctx.mpf(2) ** k
    eps = _epsilon_k(ctx, k)
    front = (2 * k * (k - 1) * ctx.ln2) / two_k * (1 - 1 / (two_k / 2 * k * ctx.ln2))
    denom = (1 - 2 / two_k) ** 2 * (2 - ctx.exp(eps) / two_k) ** 2
    return front * ctx.exp(eps) / denom


def _big_l(d, x):
    """L(d,x) = (1-x^2)^d ((1-x^2)^{d-1} - 2)^2 / (1-2x^2)^{d-2} - 2(d-1)x."""
    a = 1 - x**2
    b = 1 - 2 * x**2
    return a**d * (a ** (d - 1) - 2) ** 2 / b ** (d - 2) - 2 * (d - 1) * x


def _grid(ctx, a: str, b: str, points: int):
    lo = ctx.mpf(a)
    step = (ctx.mpf(b) - lo) / (points - 1)
    return [lo + i * step for i in range(points)]


def _boxes(ctx, a: str, b: str, count: int):
    """count boxes of an interval context whose union covers [a, b]."""
    edges = _grid(ctx, a, b, count + 1)
    return [ctx.mpf([lo.a, hi.b]) for lo, hi in zip(edges, edges[1:])]


def _v0(ctx):
    return ctx.mpf(V0_EXACT.numerator) / V0_EXACT.denominator


# Each builder returns (parts, exact_failures).  A part is (value, bound,
# relation) with the bound given as a decimal string or an integer;
# exact_failures lists any rational identities that did not hold.


def _parts_alpha5(ctx):
    return [(_alpha_k(ctx, 5), "0.99", "<")], []


def _parts_exp_beta5(ctx):
    return [(ctx.exp(_beta_k(ctx, 5)) * (1 + ctx.mpf(2) ** -4), "3.7", "<")], []


def _parts_v0(ctx):
    exact = psi_hat(4, Fraction(7, 16))
    failures = []
    if exact != V0_EXACT:
        failures.append(f"clause recursion at 7/16 gave {exact}, not {V0_EXACT}")
    return [(_v0(ctx), "0.91", "<")], failures


def _parts_v0_power(ctx):
    return [(_v0(ctx) ** ctx.mpf("15.7"), "0.2221", "<")], []


def _parts_chain_24ln2(ctx):
    rhs = 1 / ctx.log(ctx.mpf(3753) / 3410) + 1
    return [(24 * ctx.ln2, 16, ">"), (rhs, 16, "<")], []


def _parts_deriv_k4(ctx):
    value = psi_derivative(ModelParams(4, 24 * ctx.ln2), ctx.mpf(7) / 16)
    return [(value, "0.9", "<")], []


def _parts_f45(ctx):
    f4 = ctx.ln2 - ctx.mpf(1) / 8 + ctx.mpf("16.7") / 4 * ctx.log(ctx.mpf(7) / 8)
    f5 = ctx.ln2 - ctx.mpf(1) / 16 + 14 * ctx.ln2 * ctx.log(ctx.mpf(15) / 16)
    return [(f4, "0.01", ">"), (f5, "0.004", ">")], []


def _parts_g5(ctx):
    value = ctx.mpf(2) / 17 + ctx.mpf(2) / 15 + (80 * ctx.ln2 - 1) / 32
    return [(value, "1.97", "<")], []


def _parts_phi_k4_ubd(ctx):
    return [(phi(ModelParams(4, 32 * ctx.ln2), ctx.mpf(7) / 16, ctx), "-0.08", "<")], []


def _parts_phi_ubd_half(ctx):
    half = ctx.mpf(1) / 2
    params = [ModelParams(k, ctx.mpf(2) ** (k - 1) * k * ctx.ln2) for k in range(4, 16)]
    return [(phi(p, half, ctx), 0, "<") for p in params], []


def _parts_l_values(ctx):
    x = ctx.mpf(3) / 8
    return [
        (_big_l(ctx.mpf("6.74"), x), "0.001", ">"),
        (_big_l(ctx.mpf(6), x), "-0.2", "<"),
    ], []


def _parts_ratio_pow(ctx):
    return [((ctx.mpf(55) / 46) ** ctx.mpf("5.74"), "2.7", ">")], []


def _parts_psi_bracket(ctx):
    params = ModelParams(3, ctx.mpf("6.74"))
    return [
        (psi(params, ctx.mpf("0.4464")), "0.44645", ">"),
        (psi(params, ctx.mpf("0.45")), "0.449", "<"),
    ], []


def _parts_phi_left(ctx):
    return [(phi(ModelParams(3, ctx.mpf("6.74")), ctx.mpf("0.4464"), ctx), "4e-5", ">")], []


def _parts_phi_right(ctx):
    return [(phi(ModelParams(3, ctx.mpf("7.5")), ctx.mpf("0.48"), ctx), "-0.04", "<")], []


def _parts_dphi_boxes(ctx):
    parts = []
    for d, a, b, bound in (("6.74", "0.44", "0.45", "0.1"), ("7.5", "0.46", "0.48", "0.04")):
        for x in _boxes(ctx, a, b, DPHI_BOXES):
            parts.append((_dphi_dx(3, ctx.mpf(d), x, ctx), bound, ">"))
    return parts, []


def _parts_eps_beta_monotone(ctx):
    parts = []
    for f in (_epsilon_k, _beta_k):
        vals = [f(ctx, k) for k in range(5, 16)]
        parts += [(a - b, 0, ">") for a, b in zip(vals, vals[1:])]
    return parts, []


def _parts_l_convexity(ctx):
    x = ctx.mpf(3) / 8
    vals = [_big_l(d, x) for d in _grid(ctx, "6", "7.5", 31)]
    return [(a - 2 * b + c, 0, ">") for a, b, c in zip(vals, vals[1:], vals[2:])], []


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
    "Phi_ubd_half": ("phi(k, 2^(k-1) k ln2, 1/2) < 0 for k = 4..15", _parts_phi_ubd_half, ""),
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
        "dphi/dx(k=3, 6.74, x) > 0.1 on [0.44, 0.45]; dphi/dx(k=3, 7.5, x) > 0.04 on [0.46, 0.48]",
        _parts_dphi_boxes,
        f"each interval is covered by {DPHI_BOXES} boxes; the second is evaluated at "
        "d = 7.5, the degree its bound belongs to, although a 6.74 label is sometimes "
        "attached to that display",
    ),
    "eps_beta_decreasing": (
        "epsilon_k and beta_k both strictly decreasing for k = 5..15", _parts_eps_beta_monotone, ""
    ),
    "L_convexity": (
        "second difference of d -> L(d, 3/8) positive on a 31-point grid over [6, 7.5]",
        _parts_l_convexity,
        "",
    ),
}


def certificate_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _status(value, above=None, below=None) -> str:
    """Decide above < value < below on an mpmath.iv interval: "proven" when
    every point of it satisfies the claim, "refuted" when none does, and
    "open" otherwise."""
    checks = []
    if above is not None:
        checks.append(value > above)
    if below is not None:
        checks.append(value < below)
    if all(c is True for c in checks):
        return "proven"
    if any(c is False for c in checks):
        return "refuted"
    return "open"


@functools.cache
def _interval_context(prec: int) -> MPIntervalContext:
    """The mpmath.iv context at prec bits, built once (about 0.2-0.3 ms) and
    shared.  Only contexts are cached; no caller may change their prec or dps.
    """
    iv = MPIntervalContext()
    iv.prec = prec
    return iv


def _verdict(statuses) -> tuple[bool, bool]:
    """(passed, inconclusive): passed when every status is proven,
    inconclusive when some is open and none is refuted."""
    passed = all(s == "proven" for s in statuses)
    return passed, not passed and "refuted" not in statuses


def evaluate(
    id: str, precision_digits: int = DEFAULT_DIGITS, flip_relation: bool = False
) -> CertificateReport:
    """Build one certificate once, in the mpmath.iv context at precision_digits
    significant digits (built once per precision and shared), and decide
    each comparison on its enclosure.

    flip_relation inverts every comparison; a sound harness must then fail
    the certificate (negative control).
    """
    if id not in _REGISTRY:
        raise KeyError(f"unknown certificate id {id!r}")
    if not 50 <= precision_digits <= MAX_DIGITS:
        raise ValueError(f"need 50 <= precision_digits <= {MAX_DIGITS}, got {precision_digits}")
    expression, builder, base_notes = _REGISTRY[id]
    iv = _interval_context(mpmath.libmp.dps_to_prec(precision_digits))
    parts, exact_failures = builder(iv)
    decided = []
    with mpmath.workdps(precision_digits):
        for value, bound, relation in parts:
            if flip_relation:
                relation = "<" if relation == ">" else ">"
            if relation == "<":
                status, end = _status(value, below=iv.mpf(bound)), mpmath.mpf(value.b)
            else:
                status, end = _status(value, above=iv.mpf(bound)), mpmath.mpf(value.a)
            decided.append((status, end, bound, relation, end - mpmath.mpf(bound)))
        # the tightest comparison has the smallest guaranteed slack
        _, end, bound, relation, margin = min(
            decided, key=lambda p: -p[4] if p[3] == "<" else p[4]
        )
        computed = mpmath.nstr(end, precision_digits)
        claimed_bound = mpmath.nstr(mpmath.mpf(bound), precision_digits)
    passed, inconclusive = _verdict(
        [p[0] for p in decided] + ["refuted"] * len(exact_failures)
    )
    notes = [base_notes, *exact_failures]
    if inconclusive:
        notes.append("inconclusive: an enclosure straddles its bound")
    notes = "; ".join(n for n in notes if n)
    if len(parts) > 1 and not notes:
        notes = f"tightest of {len(parts)} comparisons shown"
    return CertificateReport(
        id=id,
        expression=expression,
        computed=computed,
        claimed_bound=claimed_bound,
        relation=relation,
        margin=float(margin),
        passed=passed,
        inconclusive=inconclusive,
        notes=notes,
    )


def verify_all(precision_digits: int = DEFAULT_DIGITS) -> list[CertificateReport]:
    """Evaluate every registered certificate, in registry order."""
    return [evaluate(cid, precision_digits) for cid in _REGISTRY]


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
    """Decide above < value < below on an mpmath.iv interval; value None is
    an enclosure that could not be built, open on [-inf, inf]."""
    if value is None:
        return Enclosure(claim, -math.inf, math.inf, "open")
    return Enclosure(claim, float(value.a), float(value.b), _status(value, above, below))


def _threshold_context(k: int) -> MPIntervalContext:
    """The threshold certificate's interval context at clause size k.

    The degree, about 2^k, scales the rounding error in powers like
    v^(d - 1) by 2^k, while phi_star near d_star and its slope shrink about
    as fast as 2^-k; 2k + 80 bits leave 80 to decide their signs.  (At a
    fixed 80 bits the ceiling proof stops closing from k = 35.)
    """
    return _interval_context(2 * k + 80)


def _krawczyk(iv, k: int, a, b):
    """(params, c, X, K(X)) for f(x) = psi(x) - x over the degrees [a, b],
    or None unless K(X) lies in X and X in [1/2 - 2^-k, 1/2].

    c is the float fixed point at the midpoint degree and y = 1/(psi'(c) - 1);
    both only steer the step.  X = c +- r with r = 1.5 |y f(c)| over [a, b]
    (how far the curve moves across the degrees, with slack for rounding),
    doubled up to twice.  K(X) = c - y f(c) + (1 - y f'(X))(X - c), and
    K(X) in X proves a root in K(X) at every degree in [a, b].  A point
    degree d is the box [d, d].
    """
    point = ModelParams(k, 0.5 * (a + b))
    c = solve_fixed_point(point, check=False).x
    y = 1 / (psi_derivative(point, c) - 1)
    params = ModelParams(k, iv.mpf([a, b]))
    center = iv.mpf(c)
    newton = y * (psi(params, center) - center)
    radius = 1.5 * float(abs(newton).b)
    for _ in range(3):
        box = center + iv.mpf([-radius, radius])
        krawczyk = center - newton + (1 - y * (psi_derivative(params, box) - 1)) * (box - center)
        if krawczyk in box and box in iv.mpf(_domain(k)):
            return params, center, box, krawczyk
        radius *= 2
    return None


def _phi_star_enclosure(iv, k: int, d: int):
    """Enclosure of phi_star(k, d), or None when the Krawczyk step does not close.

    phi at the root lies in phi(c) + phi_x(X)(K(X) - c) by the mean-value
    theorem.
    """
    step = _krawczyk(iv, k, d, d)
    if step is None:
        return None
    params, c, box, krawczyk = step
    return phi(params, c, iv) + _dphi_dx(k, params.d, box, iv) * (krawczyk - c)


def _slope_enclosure(iv, k: int, lo: float, hi: float):
    """(enclosure, boxes): a negative enclosure of dphi_star/dd over the
    degrees [lo, hi] from that many degree boxes, or None after 512 boxes.

    Each box D gets a Krawczyk step (_krawczyk), so K(X) holds x(d) for
    every d in D, and dphi_star/dd = phi_d + phi_x psi_d / (1 - psi') is
    bounded on D x K(X).  A box whose step does not close or whose bound
    is not below zero is halved.
    """
    pending, proven, boxes = [(lo, hi)], [], 0
    while pending:
        boxes += 1
        if boxes > 512:
            return None, boxes - 1
        a, b = pending.pop()
        step = _krawczyk(iv, k, a, b)
        if step is not None:
            params, _, _, x = step
            slope = _dphi_dd(k, x, iv) + _dphi_dx(k, params.d, x, iv) * _dpsi_dd(
                k, params.d, x, iv
            ) / (1 - psi_derivative(params, x))
            if slope < 0:
                proven.append(slope)
                continue
        mid = 0.5 * (a + b)
        pending += [(mid, b), (a, mid)]
    return iv.mpf([min(s.a for s in proven), max(s.b for s in proven)]), boxes


def certify_ceil_d_star(k: int, ceil: int) -> ThresholdCertificate:
    """Prove in interval arithmetic that d_star(k) lies in (ceil - 1, ceil).

    d_star(k) is the largest zero of phi_star inside the degree window
    [d_lbd, d_ubd].  With X = [1/2 - 2^-k, 1/2], every claim is a bound on
    an mpmath.iv enclosure at 2k + 80 bits (_threshold_context):

    (i) psi(x) - x is positive at x = 1/2 - 2^-k, negative at x = 1/2, and
        0 < psi' < 1 on [ceil - 1, d_ubd] x X, so the fixed point x(d)
        exists, is unique, and is differentiable in d there;
    (ii) phi_star(ceil - 1) > 0 and (iii) phi_star(ceil) < 0, each on the
        Krawczyk step (_krawczyk) over the point degree;
    (iv) dphi_star/dd = phi_d + phi_x psi_d / (1 - psi') < 0 along the
        fixed-point curve over [ceil, d_ubd] (_slope_enclosure: degree boxes,
        each with the same Krawczyk step), so phi_star has no zero in
        [ceil, d_ubd].

    Together they put the largest zero in (ceil - 1, ceil).  With the true
    ceiling it passes at every k = 6..52; at k = 3 the degrees leave the
    window, and at k = 4 and 5 claim (i)'s psi' bound stays open.  Kept
    outside the registry because its claims depend on k and ceil.
    """
    window = degree_window(k)
    if int(ceil) != ceil:
        raise ValueError(f"ceil must be an integer, got {ceil!r}")
    if not (ceil - 1 in window and ceil in window):
        return ThresholdCertificate(
            k,
            ceil,
            (),
            passed=False,
            inconclusive=True,
            notes=f"inconclusive: degrees {ceil - 1} and {ceil} are not both inside "
            f"the window [{window.d_lbd}, {window.d_ubd}]",
        )
    iv = _threshold_context(k)
    lo, hi = _domain(k)
    xs = iv.mpf([lo, hi])
    box = ModelParams(k, iv.mpf([ceil - 1, window.d_ubd]))
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
        _enclosure(f"phi_star({ceil - 1}) > 0", _phi_star_enclosure(iv, k, ceil - 1), above=0),
        _enclosure(f"phi_star({ceil}) < 0", _phi_star_enclosure(iv, k, ceil), below=0),
    ]
    slope, boxes = _slope_enclosure(iv, k, ceil, window.d_ubd)
    claim = f"dphi_star/dd < 0 along the fixed-point curve over [{ceil}, d_ubd], {boxes} box(es)"
    enclosures.append(_enclosure(claim, slope, below=0))

    passed, inconclusive = _verdict([e.status for e in enclosures])
    if passed:
        notes = f"the largest zero of phi_star in the window lies in ({ceil - 1}, {ceil})"
    else:
        word = "inconclusive" if inconclusive else "refuted"
        bad = [e.claim for e in enclosures if e.status == ("open" if inconclusive else "refuted")]
        notes = f"{word}: " + "; ".join(bad)
    return ThresholdCertificate(k, ceil, tuple(enclosures), passed, inconclusive, notes)
