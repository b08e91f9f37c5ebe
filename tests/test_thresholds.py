"""Unit tests for the free-energy functional and the degree thresholds."""

import math
import re

import pytest

from rcsp.bp import BracketError, ModelParams, solve_fixed_point
import rcsp.thresholds as th
from rcsp.thresholds import (
    asymptotic_gap,
    d_first_moment,
    d_star,
    phi,
    phi_star,
    table_rows,
)

# Regression anchors for the float solves.  Where they differ from the
# reference table in test_acceptance.py (k = 13 and k = 15), the value here
# is backed by rcsp.certificates.certify_ceil_d_star, which proves it in
# interval arithmetic; see test_certificates.py.
CEIL_D_STAR = {
    3: 7, 4: 20, 5: 53, 6: 130, 7: 307, 8: 705, 9: 1592,
    10: 3543, 11: 7802, 12: 17028, 13: 36901, 14: 79488, 15: 170339,
}
CEIL_D1 = {
    3: 8, 4: 21, 5: 54, 6: 131, 7: 309, 8: 708, 9: 1594,
    10: 3546, 11: 7804, 12: 17031, 13: 36905, 14: 79491, 15: 170343,
}


def test_phi_closed_form_point():
    # at x = 1/2 the expression collapses to ln2 + (d/k) ln(1 - 2^(1-k))
    for k, d in ((3, 7.0), (4, 20.0), (5, 52.0)):
        expected = math.log(2) + d / k * math.log1p(-(2.0 ** (1 - k)))
        assert phi(ModelParams(k, d), 0.5) == pytest.approx(expected, rel=1e-14)


def test_phi_rejects_bad_log_arguments():
    with pytest.raises(ValueError):
        phi(ModelParams(3, 7.0), 1.0)
    with pytest.raises(ValueError):
        phi(ModelParams(3, 7.0), 0.9)


def test_phi_rejects_what_is_not_a_message_weight():
    # at odd k every log argument is positive for x < 0, and a float x near
    # 1e308 overflows x**k: both are refused before the powers
    for x in (-0.5, -1e308, 1e308, 1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"x is not a message weight in \[0, 1\]"):
            phi(ModelParams(3, 7.0), x)
    assert phi(ModelParams(3, 7.0), 0.0) == 0.0
    assert phi(ModelParams(3, 7.0), -0.0) == 0.0


def test_phi_rejects_a_nan_value():
    # d = inf, or 1/d overflowing at d = 5e-324, makes an inf * 0 term
    for d, x in ((math.inf, 0.0), (math.inf, 0.4), (5e-324, 0.0), (5e-324, 1e-9)):
        with pytest.raises(ValueError, match="its float value is nan"):
            phi(ModelParams(3, d), x)


def test_phi_star_at_known_point():
    value = phi_star(ModelParams(3, 7.4))
    assert value == pytest.approx(-0.049166538444465502, abs=1e-13)
    fp = solve_fixed_point(ModelParams(3, 7.4))
    assert fp.x == pytest.approx(0.46726361385253767, abs=1e-11)


def test_d_star_k3():
    rep = d_star(3)
    assert rep.d_star == pytest.approx(6.7417005766105653, abs=2e-9)
    assert rep.bracket[0] < rep.d_star < rep.bracket[1]
    assert rep.bracket[1] - rep.bracket[0] <= 1e-9
    assert len(rep.sign_changes) == 1
    assert rep.ceil_d_star == 7
    assert rep.d_first_moment == pytest.approx(7.2282625189596272, rel=1e-14)
    assert rep.ceil_d1 == 8
    assert rep.d_star < rep.d_first_moment


# float.hex of d_star, bracket and the sign-change cell, captured from the
# former downward scan over all SCAN_STEPS + 1 grid degrees
PINNED_D_STAR = {
    3: ("0x1.af7805b1fddecp+2", ("0x1.af7805b19a416p+2", "0x1.af7805b2617c2p+2"),
        ("0x1.af75104d551d7p+2", "0x1.af8183f91e647p+2")),
    4: ("0x1.3e40e3c6e78f2p+4", ("0x1.3e40e3c6d11c3p+4", "0x1.3e40e3c6fe022p+4"),
        ("0x1.3e3c82b55a014p+4", "0x1.3e52f5a62e15ep+4")),
    9: ("0x1.8de7c74b31f3cp+10", ("0x1.8de7c74b318d8p+10", "0x1.8de7c74b3259fp+10"),
        ("0x1.8de7c19a22db3p+10", "0x1.8de88e04fefacp+10")),
    13: ("0x1.2049e108eab75p+15", ("0x1.2049e108eab50p+15", "0x1.2049e108eab9ap+15"),
         ("0x1.2049de0918b2bp+15", "0x1.2049e74340db4p+15")),
    15: ("0x1.4cb1732f062f8p+17", ("0x1.4cb1732f062edp+17", "0x1.4cb1732f06302p+17"),
         ("0x1.4cb171c0f766bp+17", "0x1.4cb1746a5b99cp+17")),
    22: ("0x1.e7f9b4c98c708p+24", ("0x1.e7f9b4c98c708p+24", "0x1.e7f9b4c98c709p+24"),
         ("0x1.e7f9b4c46c8a1p+24", "0x1.e7f9b4cc3b499p+24")),
    40: ("0x1.bb9d3beb8848cp+43", ("0x1.bb9d3beb8848bp+43", "0x1.bb9d3beb8848cp+43"),
         ("0x1.bb9d3beb8848bp+43", "0x1.bb9d3beb884a7p+43")),
    47: ("0x1.049f9333fc23ep+51", ("0x1.049f9333fc23dp+51", "0x1.049f9333fc23ep+51"),
         ("0x1.049f9333fc23dp+51", "0x1.049f9333fc23ep+51")),
}


@pytest.mark.parametrize("k", sorted(PINNED_D_STAR))
def test_d_star_pinned_and_cheap(k, monkeypatch):
    # the binary search finds the same cell as the full scan, with at most
    # 40 fixed-point solves where the scan made 1001 or more
    solves = []

    def counted(*args, **kwargs):
        solves.append(args[0].d)
        return solve_fixed_point(*args, **kwargs)

    monkeypatch.setattr(th, "solve_fixed_point", counted)
    rep = d_star(k)
    root, bracket, cell = PINNED_D_STAR[k]
    assert rep.d_star.hex() == root
    assert tuple(d.hex() for d in rep.bracket) == bracket
    assert [tuple(d.hex() for d in c) for c in rep.sign_changes] == [cell]
    assert 0 < len(solves) <= 40


def test_d_star_rejects_bad_tol():
    for tol in (-1e-9, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            d_star(3, tol=tol)


def test_d_star_stops_at_float_resolution():
    # below the float spacing of d the bisection ends at adjacent floats;
    # at k = 22 that spacing (about 3.7e-9) exceeds the default tol
    for k, tol in ((3, 1e-300), (22, 1e-9)):
        lo, hi = d_star(k, tol).bracket
        assert math.nextafter(lo, math.inf) == hi


def test_d_star_unbracketable_k():
    # at k = 28 and 48 phi_star at a window end is smaller than its float
    # error, so the scan's end sign is wrong; the message says so
    for k in (28, 48):
        with pytest.raises(BracketError, match=f"float scan cannot bracket d_star at k={k}:"
                           ".*phi_star's float error there can exceed its size"):
            d_star(k)


def test_d_star_no_bracket_at_the_upper_end(monkeypatch):
    # phi_star positive everywhere: the window's upper end has the wrong sign
    monkeypatch.setattr(th, "phi_star", lambda params: 1.0)
    hi = th.degree_window(5).d_ubd
    with pytest.raises(BracketError, match=re.escape(
        f"phi_star({hi}) = 1.000e+00 at the window's upper end, expected < 0"
    )):
        d_star(5)


def test_d_first_moment_values():
    assert d_first_moment(3) == pytest.approx(3 * math.log(2) / -math.log(0.75), rel=1e-15)
    assert d_first_moment(3) == pytest.approx(7.2282625189596272, rel=1e-15)
    with pytest.raises(ValueError):
        d_first_moment(1)


@pytest.mark.parametrize("k", range(3, 16))
def test_ceilings_all_k(k):
    rep = d_star(k)
    assert rep.ceil_d_star == CEIL_D_STAR[k]
    assert rep.ceil_d1 == CEIL_D1[k]
    assert len(rep.sign_changes) == 1
    assert rep.d_star < rep.d_first_moment
    assert rep.d_star in rep.window


def test_gap_grows_linearly():
    # d1 - d_star settles near 0.25 k; 0.2 k is a safe one-sided check
    for k in range(10, 16):
        rep = d_star(k)
        assert rep.d_first_moment - rep.d_star > 0.2 * k


def test_asymptotic_gap_shrinks():
    # Ding-Sly-Sun: the gap to the large-k expansion shrinks in size with k;
    # from k of about 20 on, float error in d_star dominates it
    gaps = [asymptotic_gap(k) for k in range(8, 20)]
    assert gaps[0] == pytest.approx(-2.78e-3, rel=1e-2)
    assert gaps[-1] == pytest.approx(-2.21e-5, rel=1e-2)
    assert all(abs(a) > abs(b) for a, b in zip(gaps, gaps[1:]))


def test_table_rows_shape():
    rows = table_rows(3, 5)
    assert [r.k for r in rows] == [3, 4, 5]
    with pytest.raises(ValueError):
        table_rows(2, 5)
    with pytest.raises(ValueError):
        table_rows(5, 4)


@pytest.mark.parametrize("k", (3, 4, 5, 8))
def test_scan_endpoint_signs(k):
    # d_star checks these before its search: negative at the window top,
    # positive at the window floor
    window = th.degree_window(k)
    assert phi_star(ModelParams(k, window.d_ubd)) < 0
    assert phi_star(ModelParams(k, window.d_lbd)) > 0
