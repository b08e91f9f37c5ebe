"""Unit tests for the interval-arithmetic inequality certificates."""

import math
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath.ctx_iv import MPIntervalContext

from rcsp import certificates
from rcsp.bp import ModelParams, degree_window, psi, psi_hat
from rcsp.certificates import (
    MAX_DIGITS,
    V0_EXACT,
    _dphi_dd,
    _dphi_dx,
    _dpsi_dd,
    certificate_ids,
    certify_ceil_d_star,
    evaluate,
    verify_all,
)
from rcsp.thresholds import phi

EXPECTED_IDS = (
    "alpha5",
    "exp_beta5",
    "v0",
    "v0_15.7",
    "chain_24ln2",
    "deriv_4_24ln2",
    "F4_F5",
    "G5",
    "Phi_4_ubd",
    "Phi_ubd_half",
    "L_6.74",
    "ratio_5.74",
    "Psi_6.74_bracket",
    "Phi_6.74_0.4464",
    "Phi_7.5_0.48",
    "dPhi_grid",
    "eps_beta_decreasing",
    "L_convexity",
)


def test_registry_ids():
    assert certificate_ids() == EXPECTED_IDS
    assert len(EXPECTED_IDS) == 18


def test_all_certificates_pass():
    reports = verify_all()
    assert len(reports) == 18
    for rep in reports:
        assert rep.passed, f"{rep.id}: margin {rep.margin}"
        assert not rep.inconclusive
        assert rep.relation in ("<", ">")
        assert rep.expression
        # margin is computed minus bound, so its sign must match the relation
        if rep.relation == "<":
            assert rep.margin < 0.0
        else:
            assert rep.margin > 0.0


def test_negative_control_flips_every_check():
    for cid in certificate_ids():
        rep = evaluate(cid, flip_relation=True)
        assert not rep.passed, f"{cid} still passes with the relation flipped"


def test_v0_is_exact_rational():
    assert V0_EXACT == Fraction(3410, 3753)
    assert psi_hat(4, Fraction(7, 16)) == V0_EXACT
    rep = evaluate("v0")
    assert rep.computed.startswith("0.9086")
    assert rep.claimed_bound == "0.91"


def test_power_certificate_margin():
    # (3410/3753)^15.7 sits 2.47e-5 under the 0.2221 bound; the margin is
    # thin but resolved far above the precision guard
    rep = evaluate("v0_15.7")
    assert rep.passed
    assert rep.computed.startswith("0.2220753160716390")
    assert 1e-5 < -rep.margin < 1e-4


def test_tight_margins_are_resolved():
    close = {
        "Psi_6.74_bracket": 1e-6,
        "Phi_6.74_0.4464": 1e-6,
        "Phi_ubd_half": 1e-5,
        "L_6.74": 1e-5,
    }
    for cid, floor in close.items():
        rep = evaluate(cid)
        assert rep.passed
        assert abs(rep.margin) > floor, f"{cid} margin {rep.margin}"


def test_precision_floor_and_unknown_id():
    with pytest.raises(ValueError):
        evaluate("alpha5", precision_digits=30)
    with pytest.raises(ValueError, match=str(MAX_DIGITS)):
        evaluate("alpha5", precision_digits=MAX_DIGITS + 1)
    with pytest.raises(KeyError):
        evaluate("no_such_certificate")


@pytest.mark.parametrize("cid", ("alpha5", "Phi_ubd_half", "v0_15.7", "L_convexity"))
def test_margin_stable_at_higher_precision(cid):
    base = evaluate(cid, precision_digits=50)
    fine = evaluate(cid, precision_digits=100)
    assert fine.passed == base.passed
    assert fine.margin == pytest.approx(base.margin, rel=1e-6)


def test_straddling_enclosure_is_inconclusive(monkeypatch):
    # an enclosure of [0.9, 1.1] against the bound 1 proves neither relation
    def straddle(ctx):
        return [(ctx.mpf(["0.9", "1.1"]), 1, "<")], []

    monkeypatch.setitem(certificates._REGISTRY, "straddle", ("x < 1", straddle, ""))
    for flip in (False, True):
        rep = evaluate("straddle", flip_relation=flip)
        assert rep.inconclusive and not rep.passed, rep
        assert "straddles" in rep.notes
    # the reported value is the enclosure's end nearest the bound
    assert evaluate("straddle").computed == "1.1"
    assert evaluate("straddle", flip_relation=True).computed == "0.9"


@pytest.mark.parametrize("cid", [c for c in EXPECTED_IDS if c != "dPhi_grid"])
def test_point_values_lie_in_their_enclosures(cid):
    # every id but dPhi_grid (whose parts are boxes) is point-valued: the
    # same builder under plain mpmath must land inside each enclosure
    builder = certificates._REGISTRY[cid][1]
    iv = MPIntervalContext()
    iv.dps = 50
    enclosed, _ = builder(iv)
    with mpmath.workdps(50):
        points, _ = builder(mpmath)
        assert len(points) == len(enclosed)
        for (value, bound, rel), (box, box_bound, box_rel) in zip(points, enclosed):
            assert (bound, rel) == (box_bound, box_rel)
            assert isinstance(value, mpmath.mpf)
            assert value in box
            assert box.delta < mpmath.mpf(10) ** -45


def test_dphi_boxes_bound_the_old_grid():
    # the box cover's guaranteed lower end may not exceed any point value
    rep = evaluate("dPhi_grid")
    with mpmath.workdps(50):
        d, step = mpmath.mpf("6.74"), mpmath.mpf("0.01") / 99
        lowest = min(_dphi_dx(3, d, mpmath.mpf("0.44") + i * step, mpmath) for i in range(100))
        assert mpmath.mpf("0.1") < mpmath.mpf(rep.computed) <= lowest
    assert rep.relation == ">" and rep.claimed_bound == "0.1"
    # and the boxes leave no gap in either interval
    iv = MPIntervalContext()
    iv.dps = 50
    for a, b in (("0.44", "0.45"), ("0.46", "0.48")):
        boxes = certificates._boxes(iv, a, b, certificates.DPHI_BOXES)
        with mpmath.workdps(100):
            assert boxes[0].a <= mpmath.mpf(a) and mpmath.mpf(b) <= boxes[-1].b
        assert all(right.a <= left.b for left, right in zip(boxes, boxes[1:]))


@pytest.mark.parametrize("k, d, x", ((13, "36901.5", "0.49995"), (4, "19.5", "0.45")))
def test_threshold_derivatives_match_numerical(k, d, x):
    # claim (iv) and the slope proof rest on these closed forms; compare
    # with mpmath.diff
    with mpmath.workdps(50):
        d, x = mpmath.mpf(d), mpmath.mpf(x)
        cases = (
            (_dphi_dx(k, d, x), mpmath.diff(lambda t: phi(ModelParams(k, d), t, mpmath), x)),
            (_dphi_dd(k, x), mpmath.diff(lambda t: phi(ModelParams(k, t), x, mpmath), d)),
            (_dpsi_dd(k, d, x), mpmath.diff(lambda t: psi(ModelParams(k, t), x), d)),
        )
        for closed, numerical in cases:
            assert abs(closed - numerical) < mpmath.mpf(10) ** -30 * abs(numerical)


@pytest.mark.parametrize("k, ceil", ((13, 36901), (15, 170339)))
def test_threshold_certificate_proves_ceiling(k, ceil):
    rep = certify_ceil_d_star(k, ceil)
    assert rep.passed and not rep.inconclusive, rep.notes
    assert [e.status for e in rep.enclosures] == ["proven"] * 6
    for e in rep.enclosures:
        assert e.lower <= e.upper
    # sup psi' far below 1, and the phi_star signs on either side of ceil
    assert rep.enclosures[2].upper < 0.01
    assert rep.enclosures[3].lower > 0 > rep.enclosures[4].upper
    assert rep.enclosures[5].upper < 0


def test_slope_proof_closes_on_every_window():
    # d_star's binary search rests on this: phi_star strictly decreasing on
    # the whole window, for every k it brackets
    start = time.perf_counter()
    boxes = {}
    for k in range(3, 53):
        window = degree_window(k)
        iv = certificates._threshold_context(k)
        slope, boxes[k] = certificates._slope_enclosure(iv, k, window.d_lbd, window.d_ubd)
        assert slope is not None, f"k={k}: open after {boxes[k]} boxes"
        assert slope < 0 and slope.b < 0
    assert time.perf_counter() - start < 5
    assert boxes[3] > 1 and boxes[4] > 1
    assert all(boxes[k] == 1 for k in range(6, 53))


def test_slope_proof_open_when_the_budget_runs_out(monkeypatch):
    # a Krawczyk step that never closes leaves the claim open, not proven
    monkeypatch.setattr(certificates, "_krawczyk", lambda *args: None)
    iv = certificates._threshold_context(13)
    assert certificates._slope_enclosure(iv, 13, 36901, 36902) == (None, 512)
    rep = certify_ceil_d_star(13, 36901)
    assert rep.inconclusive and not rep.passed
    assert [e.status for e in rep.enclosures].count("open") == 3


# ceil(d_star(k)) for k = 6..52, from an independent 80-digit solve
# (perfbench/reference.py's d_star at 80 digits, ceiling taken inside
# workdps: a float, or mpmath.ceil at default precision, is wrong from k = 50)
CEIL_D_STAR = {
    6: 130, 7: 307, 8: 705, 9: 1592, 10: 3543, 11: 7802, 12: 17028, 13: 36901,
    14: 79488, 15: 170339, 16: 363400, 17: 772234, 18: 1635329, 19: 3452372,
    20: 7268164, 21: 15263155, 22: 31979957, 23: 66867197, 24: 139548946,
    25: 290726985, 26: 604712143, 27: 1255940621, 28: 2604913897, 29: 5395893088,
    30: 11163916752, 31: 23072094639, 32: 47632711531, 33: 98242467551,
    34: 202439024064, 35: 416786226034, 36: 857388807863, 37: 1762410327296,
    38: 3620086077710, 39: 7430703001639, 40: 15242467695693, 41: 31247058776194,
    42: 64018364321984, 43: 131085222183134, 44: 268267431444580,
    45: 548728837045757, 46: 1121845622404686, 47: 2292467141435690,
    48: 4682486076123991, 49: 9560075738753178, 50: 19510358650516718,
    51: 39801131647054135, 52: 81163091986149639,
}


@pytest.mark.parametrize("k, ceil", CEIL_D_STAR.items())
def test_threshold_certificate_small_k(k, ceil):
    # the slope bound along the fixed-point curve closes where one box over
    # all of [1/2 - 2^-k, 1/2] stayed open (k = 6, 7); from k = 35 on it
    # closes only because the interval precision grows with k.  Either
    # neighbour of the ceiling is refuted outright.
    rep = certify_ceil_d_star(k, ceil)
    assert rep.passed and not rep.inconclusive, rep.notes
    assert [e.status for e in rep.enclosures] == ["proven"] * 6
    for wrong in (ceil - 1, ceil + 1):
        rep = certify_ceil_d_star(k, wrong)
        assert not rep.passed and not rep.inconclusive, (wrong, rep.notes)


@pytest.mark.parametrize("k, ceil", ((4, 20), (5, 53)))
def test_threshold_certificate_open_on_psi_prime(k, ceil):
    # the box over [ceil - 1, d_ubd] x [1/2 - 2^-k, 1/2] does not bound psi'
    # below 1 here; that claim alone stays open
    rep = certify_ceil_d_star(k, ceil)
    assert rep.inconclusive and not rep.passed
    open_claims = [e.claim for e in rep.enclosures if e.status != "proven"]
    assert open_claims == [f"0 < psi' < 1 on [{ceil - 1}, d_ubd] x [1/2 - 2^-{k}, 1/2]"]


@pytest.mark.parametrize("k, ceil", ((13, 36902), (15, 170340)))
def test_threshold_certificate_refutes_reference(k, ceil):
    # negative control: the reference ceilings put phi_star(ceil - 1) < 0,
    # which the enclosure proves, so the certificate must fail outright
    rep = certify_ceil_d_star(k, ceil)
    assert not rep.passed and not rep.inconclusive
    refuted = [e.claim for e in rep.enclosures if e.status == "refuted"]
    assert refuted == [f"phi_star({ceil - 1}) > 0"]


def test_threshold_certificate_inconclusive_cases(monkeypatch):
    # degrees outside the window: nothing is enclosed
    for k, ceil in ((3, 7), (13, 40000)):
        rep = certify_ceil_d_star(k, ceil)
        assert rep.inconclusive and not rep.passed and rep.enclosures == ()
    with pytest.raises(ValueError):
        certify_ceil_d_star(2, 5)
    with pytest.raises(ValueError):
        certify_ceil_d_star(13, 36901.5)
    # a Krawczyk step that fails on the point degrees leaves claims (ii)
    # and (iii) open on [-inf, inf]; the degree boxes of claim (iv) still close
    step = certificates._krawczyk
    monkeypatch.setattr(
        certificates, "_krawczyk", lambda iv, k, a, b: None if a == b else step(iv, k, a, b)
    )
    rep = certify_ceil_d_star(13, 36901)
    assert rep.inconclusive and not rep.passed
    open_claims = [e for e in rep.enclosures if e.status == "open"]
    assert [e.claim for e in open_claims] == ["phi_star(36900) > 0", "phi_star(36901) < 0"]
    assert all(e.lower == -math.inf and e.upper == math.inf for e in open_claims)


# float.hex of each enclosure's (lower, upper) and its status, bit for bit
THRESHOLD_PINNED = {
    (13, 36901): (
        ("0x1.7c6a4bf4157f2p-14", "0x1.7d3fbcebcb347p-14", "proven"),
        ("-0x1.0051f11a56f5fp-15", "-0x1.fd61e7daccabfp-16", "proven"),
        ("0x1.a1c4ff2e927edp-8", "0x1.c958eccd5e90cp-8", "proven"),
        ("0x1.27d24591e85a5p-16", "0x1.27d24591e85a6p-16", "proven"),
        ("-0x1.30aebfc0362e3p-20", "-0x1.30aebfc0362cbp-20", "proven"),
        ("-0x1.3ae3309ba15d7p-16", "-0x1.3ad754e6171ecp-16", "proven"),
    ),
    (15, 170339): (
        ("0x1.7ed0e0641523cp-16", "0x1.7f0c6e2dce38fp-16", "proven"),
        ("-0x1.001567f6003e3p-17", "-0x1.ff3e805c1c7e1p-18", "proven"),
        ("0x1.1fd760e6fb90ap-9", "0x1.2896100c1ca04p-9", "proven"),
        ("0x1.eb5a622fbabe4p-19", "0x1.eb5a622fbabeap-19", "proven"),
        ("-0x1.b55fa919cea91p-22", "-0x1.b55fa919cea3fp-22", "proven"),
        ("-0x1.1103aa959b42ep-18", "-0x1.1102af31a59bep-18", "proven"),
    ),
    (13, 36902): (
        ("0x1.7c7aaa7fd789fp-14", "0x1.7d378dc74b4d4p-14", "proven"),
        ("-0x1.0031f63c7eb94p-15", "-0x1.fd81e2399e52dp-16", "proven"),
        ("0x1.a1c7e52dc6916p-8", "0x1.c93c7f59f524fp-8", "proven"),
        ("-0x1.30aebfc0362e3p-20", "-0x1.30aebfc0362cbp-20", "refuted"),
        ("-0x1.4de8219586b6ap-16", "-0x1.4de8219586b6ap-16", "proven"),
        ("-0x1.3ae26d764dc09p-16", "-0x1.3ad81c46d6226p-16", "proven"),
    ),
    (4, 20): (
        ("0x1.2ec276b858543p-9", "0x1.41f8d96b634dfp-5", "proven"),
        ("-0x1.695d2704b705fp-6", "-0x1.da5bdddfa06e6p-9", "proven"),
        ("0x1.91c2810f15fbep-6", "0x1.5181c8640950bp+2", "open"),
        ("0x1.8e7cad57a5d72p-6", "0x1.8e7cad57a5d72p-6", "proven"),
        ("-0x1.9026e5bb55712p-9", "-0x1.9026e5bb55712p-9", "proven"),
        ("-0x1.52a14c1c45a6ep-5", "-0x1.0d90ada51477bp-7", "proven"),
    ),
}


def _threshold_enclosures():
    reports = {key: certify_ceil_d_star(*key) for key in THRESHOLD_PINNED}
    return {
        key: tuple((e.lower.hex(), e.upper.hex(), e.status) for e in rep.enclosures)
        for key, rep in reports.items()
    }


def test_threshold_enclosures_pinned_across_precisions():
    assert _threshold_enclosures() == THRESHOLD_PINNED
    # work at other precisions in between leaks nothing into the shared contexts
    verify_all(MAX_DIGITS)
    evaluate("L_convexity", 80)
    assert _threshold_enclosures() == THRESHOLD_PINNED


def test_interval_contexts_built_once_per_precision(monkeypatch):
    built = []
    init = MPIntervalContext.__init__

    def counting_init(ctx):
        init(ctx)
        built.append(ctx)

    monkeypatch.setattr(MPIntervalContext, "__init__", counting_init)
    certificates._interval_context.cache_clear()
    precs = (mpmath.libmp.dps_to_prec(certificates.DEFAULT_DIGITS), 2 * 13 + 80)
    passes = []
    for _ in range(2):
        start = len(built)
        verify_all()
        certify_ceil_d_star(13, 36901)
        passes.append(len(built) - start)
    assert passes == [len(precs), 0]
    # each shared context is one of those built and keeps the prec it is keyed on
    for prec in precs:
        iv = certificates._interval_context(prec)
        assert iv.prec == prec and any(iv is ctx for ctx in built)


def _generic_endpoints(iv, x):
    """(a, b) of x by mpmath's own interval conversion, or the error it raises."""
    try:
        return MPIntervalContext.convert(iv, x)._mpi_
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("prec", (86, 166, 3325))
def test_exact_operands_convert_as_mpmath_does(prec):
    iv = certificates._interval_context(prec)
    ints = [0, 1, -1, 2**prec - 1, 2**prec + 1, -(2**prec - 1), -(2**prec + 1)]
    ints += [10**400, -(10**400)]
    floats = [0.0, -0.0, 5e-324, -5e-324, 0.1, 1 / 3, sys.float_info.max, math.inf, -math.inf]
    floats += [-sys.float_info.max]
    for x in ints + floats:
        assert iv.convert(x)._mpi_ == _generic_endpoints(iv, x), x
    # NaN takes mpmath's path, which widens it to the whole line
    nan = iv.convert(math.nan)
    assert nan._mpi_ == _generic_endpoints(iv, math.nan)
    assert (float(nan.a), float(nan.b)) == (-math.inf, math.inf)


def test_other_operands_take_the_generic_conversion(monkeypatch):
    seen = []
    generic = MPIntervalContext.convert

    def counting(ctx, x):
        seen.append(x)
        return generic(ctx, x)

    monkeypatch.setattr(MPIntervalContext, "convert", counting)
    iv = certificates._interval_context(86)
    others = [True, False, np.float64(0.1), np.int64(7), "0.1", math.nan, [1, 2], iv.mpf(3)]
    for x in others:
        try:
            got = iv.convert(x)._mpi_
        except NotImplementedError:  # mpmath takes no numpy integer
            got = NotImplementedError
        assert got == _generic_endpoints(iv, x), x
    assert len(seen) == 2 * len(others)
    assert all(a is b for a, b in zip(seen[::2], others))
    iv.convert(3)
    iv.convert(0.5)
    assert len(seen) == 2 * len(others)


def test_certificates_send_no_exact_operand_to_the_generic_conversion(monkeypatch):
    # before the direct path one verify_all() sent about 1,250 ints there
    exact = []
    generic = MPIntervalContext.convert

    def counting(ctx, x):
        if type(x) is int or (type(x) is float and x == x):
            exact.append(x)
        return generic(ctx, x)

    monkeypatch.setattr(MPIntervalContext, "convert", counting)
    assert all(r.passed for r in verify_all())
    assert certify_ceil_d_star(13, 36901).passed
    assert exact == []
