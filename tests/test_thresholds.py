"""Unit tests for the free-energy functional and the degree thresholds."""

import math

import pytest

from rcsp.bp import BracketError, ModelParams, solve_fixed_point
from rcsp.thresholds import (
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


def test_d_star_rejects_bad_tol():
    for tol in (-1e-9, 0.0, math.nan):
        with pytest.raises(ValueError):
            d_star(3, tol=tol)


def test_d_star_stops_at_float_resolution():
    # below the float spacing of d the bisection ends at adjacent floats;
    # at k = 22 that spacing (about 3.7e-9) exceeds the default tol
    for k, tol in ((3, 1e-300), (22, 1e-9)):
        lo, hi = d_star(k, tol).bracket
        assert math.nextafter(lo, math.inf) == hi


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


def test_table_rows_shape():
    rows = table_rows(3, 5)
    assert [r.k for r in rows] == [3, 4, 5]
    with pytest.raises(ValueError):
        table_rows(2, 5)
    with pytest.raises(ValueError):
        table_rows(5, 4)


@pytest.mark.parametrize("k", (3, 4, 5, 8))
def test_scan_endpoint_signs(k):
    # the downward scan relies on: negative at the window top, positive
    # at the window floor
    import rcsp.thresholds as th

    window = th.degree_window(k)
    assert phi_star(ModelParams(k, window.d_ubd)) < 0
    assert phi_star(ModelParams(k, window.d_lbd)) > 0
