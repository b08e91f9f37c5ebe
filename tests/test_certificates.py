"""Unit tests for the interval-arithmetic inequality certificates."""

import math
from fractions import Fraction

import mpmath
import pytest
from mpmath.ctx_iv import MPIntervalContext

from rcsp import certificates
from rcsp.bp import ModelParams, psi, psi_hat
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
    # claim (iv) rests on these closed forms; compare with mpmath.diff
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
    # a Krawczyk box narrower than the float centre's error cannot close
    monkeypatch.setattr(certificates, "KRAWCZYK_RADIUS", 1e-18)
    rep = certify_ceil_d_star(13, 36901)
    assert rep.inconclusive and not rep.passed
    open_claims = [e for e in rep.enclosures if e.status == "open"]
    assert [e.claim for e in open_claims] == ["phi_star(36900) > 0", "phi_star(36901) < 0"]
    assert all(e.lower == -math.inf and e.upper == math.inf for e in open_claims)
