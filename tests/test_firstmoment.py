"""Unit tests for the exact expected-count machinery and the tilted laws."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcsp.bp import ModelParams
from rcsp.firstmoment import (
    FirstMomentReport,
    TiltedClauseLaw,
    exhaustive_ez_col,
    exhaustive_ez_nae,
    ez_col,
    ez_nae,
    f_alpha,
    g_alpha,
    lagrange_lambda,
    p_gamma,
    ratio_scan,
    tilted_clause_law,
    xi,
)


def test_ez_nae_closed_form():
    assert ez_nae(3, 3, 3) == Fraction(27, 8)
    assert ez_nae(3, 3, 2) == Fraction(9, 2)
    assert ez_nae(4, 2, 2) == 1
    with pytest.raises(ValueError):
        ez_nae(4, 3, 2)  # 8 half-edges not divisible by 3


def test_p_gamma_frozen_values():
    assert p_gamma(3, 3, 3, Fraction(1, 3)) == Fraction(9, 28)
    assert p_gamma(3, 3, 3, Fraction(2, 3)) == Fraction(9, 28)
    assert p_gamma(2, 1, 2, Fraction(1, 2)) == 1
    assert p_gamma(3, 3, 3, 0) == 0
    assert p_gamma(3, 3, 3, 1) == 0


def test_p_gamma_conditioning_errors():
    with pytest.raises(ValueError):
        p_gamma(3, 3, 3, Fraction(1, 4))  # n*gamma not an integer
    with pytest.raises(ValueError):
        p_gamma(3, 3, 3, Fraction(3, 2))


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_p_gamma_is_probability(n_base, k, d, t_raw):
    n = n_base * k  # force divisibility
    m = n * d // k
    t = min(t_raw, n)
    value = p_gamma(n, m, k, Fraction(t, n))
    assert 0 <= value <= 1


def test_ez_col_frozen_values():
    assert ez_col(3, 3, 3) == Fraction(27, 14)
    assert ez_col(3, 3, 2) == Fraction(18, 5)
    assert ez_col(2, 2, 1) == 2


def test_ez_col_is_sum_of_p_gamma():
    n, k, d = 6, 3, 2
    m = n * d // k
    total = sum(
        math.comb(n, t) * p_gamma(n, m, k, Fraction(t, n)) for t in range(n + 1)
    )
    assert ez_col(n, k, d) == total


def test_ez_col_exact_past_400():
    # k=2, d=1 collapses to a single t term with value exactly 2^(n/2)
    value = ez_col(402, 2, 1)
    assert isinstance(value, Fraction)
    assert value == 2**201


def test_report_validation():
    with pytest.raises(ValueError):
        FirstMomentReport(n=3, m=4, k=3, d=3, ez_nae=1, ez_col=1, ratio=1.0)


def test_ratio_scan_k3_d7():
    reports = ratio_scan(3, 7, [30, 60, 90])
    ratios = [r.ratio for r in reports]
    assert ratios[0] == pytest.approx(0.44388354470068203, rel=1e-13)
    assert ratios[1] == pytest.approx(0.44553914408754036, rel=1e-13)
    assert ratios[2] == pytest.approx(0.44609709731440517, rel=1e-13)
    assert max(ratios) / min(ratios) < 1.005
    for r in reports:
        assert 0.0 < r.ratio < 1.0


def test_ratio_scan_k4_d20():
    ratios = [r.ratio for r in ratio_scan(4, 20, [40, 80])]
    assert ratios[0] == pytest.approx(0.3285500115789405, rel=1e-13)
    assert ratios[1] == pytest.approx(0.3296326510438866, rel=1e-13)


def test_exhaustive_col_matches_formula():
    assert exhaustive_ez_col(2, 2, 1) == ez_col(2, 2, 1)
    assert exhaustive_ez_col(3, 3, 2) == Fraction(18, 5)
    assert exhaustive_ez_col(4, 2, 2) == ez_col(4, 2, 2)
    with pytest.raises(ValueError):
        exhaustive_ez_col(13, 13, 1)  # 13 half-edges over the cap


def test_exhaustive_nae_matches_formula():
    assert exhaustive_ez_nae(3, 3, 2) == Fraction(9, 2)
    assert exhaustive_ez_nae(4, 2, 2) == 1
    assert exhaustive_ez_nae(4, 4, 2) == ez_nae(4, 4, 2)
    with pytest.raises(ValueError):
        exhaustive_ez_nae(10, 5, 1)  # 10 half-edges over the cap


def test_tilted_law_validation():
    with pytest.raises(ValueError):
        TiltedClauseLaw(gamma=0.0, lam=0.0, pmf=(1.0,))
    with pytest.raises(ValueError):
        TiltedClauseLaw(gamma=0.5, lam=0.0, pmf=(0.5, 0.0, 0.5))
    with pytest.raises(ValueError):
        TiltedClauseLaw(gamma=0.5, lam=0.0, pmf=(0.5, 0.4))
    law = TiltedClauseLaw(gamma=0.5, lam=0.0, pmf=(0.5, 0.5))
    assert law.k == 3
    assert law.mean == 1.5


def test_tilted_law_flat_at_half():
    law = tilted_clause_law(3, 0.5, 0.0)
    assert law.pmf[0] == pytest.approx(0.5, abs=1e-15)
    assert law.pmf[1] == pytest.approx(0.5, abs=1e-15)


def test_lagrange_lambda_values():
    assert lagrange_lambda(0.5, 3) == 0.0
    assert lagrange_lambda(0.52, 3) == pytest.approx(0.16111934914306403, abs=1e-10)
    with pytest.raises(ValueError):
        lagrange_lambda(0.3, 3)
    for tol in (0.0, math.nan):
        with pytest.raises(ValueError):
            lagrange_lambda(0.45, 3, tol=tol)
    # a tol below the float spacing stops at adjacent floats
    assert lagrange_lambda(0.45, 3, tol=1e-300) == pytest.approx(
        lagrange_lambda(0.45, 3), abs=1e-11
    )


def test_lagrange_lambda_rejects_k_below_3():
    # at k = 2 the tilted law has the one entry j = 1, so its mean is 1 at
    # every tilt and never reaches k * gamma: k is refused up front
    for gamma in (0.45, 0.55):
        with pytest.raises(ValueError, match=r"^the tilted clause law needs k >= 3, got k = 2$"):
            lagrange_lambda(gamma, 2)


@pytest.mark.parametrize("gamma", (0.42, 0.47, 0.55, 0.6))
@pytest.mark.parametrize("k", (3, 4, 6))
def test_lagrange_lambda_hits_target_mean(gamma, k):
    lam = lagrange_lambda(gamma, k)
    law = tilted_clause_law(k, gamma, lam)
    assert law.mean == pytest.approx(k * gamma, abs=1e-9)


@pytest.mark.parametrize("gamma", (0.42, 0.5, 0.58))
def test_xi_stationary_at_lagrange_lambda(gamma):
    # d xi / d lambda = k gamma - tilted mean vanishes at the solved tilt
    k = 4
    lam = lagrange_lambda(gamma, k)
    h = 1e-6
    deriv = (xi(gamma, lam + h, k) - xi(gamma, lam - h, k)) / (2 * h)
    assert abs(deriv) < 1e-8


def test_xi_at_zero_matches_annealed_form():
    for gamma, k in ((0.44, 3), (0.5, 5), (0.57, 4)):
        survive = 1.0 - gamma**k - (1.0 - gamma) ** k
        assert xi(gamma, 0.0, k) == pytest.approx(-math.log(survive), rel=1e-14)


def test_g_alpha_below_f_alpha():
    params = ModelParams(3, 7.0)
    for gamma in (0.42, 0.45, 0.5, 0.55, 0.58):
        f = f_alpha(gamma, params)
        g = g_alpha(gamma, params)
        assert g <= f + 1e-12
    assert g_alpha(0.5, params) == pytest.approx(f_alpha(0.5, params), abs=1e-12)


def test_f_alpha_domain():
    with pytest.raises(ValueError):
        f_alpha(0.0, ModelParams(3, 7.0))
    with pytest.raises(ValueError):
        xi(1.0, 0.0, 3)


def test_tilted_values_pinned_bits():
    # float.hex values captured before the tilted weights shared one helper
    law = tilted_clause_law(5, 0.45, 0.3)
    assert [x.hex() for x in law.pmf] == [
        "0x1.24c2138db0a97p-3", "0x1.4354b0adbed94p-2",
        "0x1.6518a2fd4158ep-2", "0x1.8a63451c4ef28p-3",
    ]
    assert lagrange_lambda(0.42, 4).hex() == "-0x1.09ca177622000p-2"
    assert xi(0.55, 0.7, 3).hex() == "0x1.3d0a3bf629c50p-2"
    assert g_alpha(0.45, ModelParams(3, 6.9)).hex() == "-0x1.6921bb3c8ac40p-5"
