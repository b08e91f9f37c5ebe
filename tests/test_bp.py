"""Unit tests for the message recursions and the fixed-point solver."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcsp import bp
from rcsp.bp import (
    MAX_K,
    BpFixedPoint,
    BracketError,
    DegreeWindow,
    ModelParams,
    contraction_certificate,
    degree_window,
    psi,
    psi_derivative,
    psi_dot,
    psi_hat,
    solve_fixed_point,
)
from rcsp.cli import main


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(k=2, d=5.0)
    with pytest.raises(ValueError):
        ModelParams(k=3.5, d=5.0)
    with pytest.raises(ValueError):
        ModelParams(k=3, d=0.0)
    with pytest.raises(ValueError):
        ModelParams(k=3, d=-1.0)
    assert ModelParams(k=4, d=22.0).alpha == 5.5


def test_window_membership():
    w = DegreeWindow(6.74, 7.5)
    assert 6.74 in w and 7.5 in w and 7.0 in w
    assert 6.73 not in w and 7.51 not in w
    with pytest.raises(ValueError):
        DegreeWindow(7.5, 6.74)


def test_window_values():
    assert degree_window(3) == DegreeWindow(6.74, 7.5)
    w4 = degree_window(4)
    assert w4.d_lbd == 16.7
    assert w4.d_ubd == pytest.approx(32 * math.log(2), rel=1e-15)
    w5 = degree_window(5)
    assert w5.d_lbd == pytest.approx(70 * math.log(2), rel=1e-15)
    assert w5.d_ubd == pytest.approx(80 * math.log(2), rel=1e-15)
    with pytest.raises(ValueError):
        degree_window(2)


def test_clause_size_limit_names_float_resolution():
    # at MAX_K every degree of the window still solves; one more and the
    # interval [1/2 - 2^-k, 1/2] is too few doubles wide, whatever d is
    w = degree_window(MAX_K)
    for d in (w.d_lbd, 0.5 * (w.d_lbd + w.d_ubd), w.d_ubd):
        assert 0.5 - 2.0**-MAX_K <= solve_fixed_point(ModelParams(MAX_K, d)).x <= 0.5
    for call in (
        lambda: degree_window(MAX_K + 1),
        lambda: solve_fixed_point(ModelParams(MAX_K + 1, 5.0)),
        lambda: solve_fixed_point(ModelParams(1100, 5.0)),
    ):
        with pytest.raises(ValueError, match=r"2\^-54") as info:
            call()
        assert not isinstance(info.value, BracketError)


def test_psi_hat_exact_rationals():
    # (1 - 2 (7/16)^3) / (1 - (7/16)^3) with a 4096 common denominator
    assert psi_hat(4, Fraction(7, 16)) == Fraction(3410, 3753)
    assert psi_hat(3, Fraction(1, 2)) == Fraction(2, 3)
    assert psi_hat(3, Fraction(0)) == 1


def test_psi_dot_exact_rationals():
    assert psi_dot(3, Fraction(2, 3)) == Fraction(5, 14)
    assert psi_dot(5, Fraction(0)) == Fraction(1, 2)
    assert psi_dot(3, Fraction(1)) == 0


def test_psi_hat_rejects_pole():
    # every input kind psi_hat takes gives the one error at x = 1
    for one in (
        1.0,
        np.float64(1.0),
        np.array(1.0),
        np.array([0.3, 1.0]),
        Fraction(1),
        mpmath.mpf(1),
        mpmath.iv.mpf(1),
    ):
        with pytest.raises(ValueError, match=r"^psi_hat undefined at x = 1$"):
            psi_hat(3, one)


def test_psi_hat_values_of_every_input_kind():
    # the pole guard leaves each value as the bare formula gives it
    def formula(k, x):
        xk = x ** (k - 1)
        return (1 - 2 * xk) / (1 - xk)

    xs = np.array([0.0, 0.4375, 0.5, 0.9])
    for k in (3, 4, 7):
        assert np.array_equal(psi_hat(k, xs), formula(k, xs))
        for x in xs:
            assert psi_hat(k, float(x)) == formula(k, float(x))
            assert psi_hat(k, x) == formula(k, x) and type(psi_hat(k, x)) is np.float64
            assert psi_hat(k, mpmath.mpf(x)) == formula(k, mpmath.mpf(x))
        assert psi_hat(k, np.array(0.4375)) == formula(k, 0.4375)
        assert psi_hat(k, Fraction(7, 16)) == formula(k, Fraction(7, 16))
        box = mpmath.iv.mpf([0.4, 0.5])
        assert psi_hat(k, box)._mpi_ == formula(k, box)._mpi_
        # an interval that straddles 1 is not the point 1, so it is not refused
        assert psi_hat(k, mpmath.iv.mpf([0.9, 1.1])) is not None


def test_psi_derivative_rejects_zero():
    with pytest.raises(ValueError):
        psi_derivative(ModelParams(3, 7.0), 0.0)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(5)
    for k in (3, 4, 5, 7):
        w = degree_window(k)
        lo = 0.5 - 2.0 ** (-k)
        for _ in range(20):
            d = rng.uniform(w.d_lbd, w.d_ubd)
            x = rng.uniform(lo + 1e-3, 0.5 - 1e-3)
            p = ModelParams(k, d)
            h = 1e-6
            fd = (psi(p, x + h) - psi(p, x - h)) / (2 * h)
            exact = psi_derivative(p, x)
            assert abs(fd - exact) <= 1e-6 * abs(exact)


def test_fixed_point_k3_low_end():
    fp = solve_fixed_point(ModelParams(3, 6.74))
    assert fp.x == pytest.approx(0.44653954652540051, abs=1e-11)
    assert fp.residual < 1e-11
    assert fp.bracket[0] <= fp.x <= fp.bracket[1]
    assert fp.max_derivative == pytest.approx(0.92748026733212685, rel=1e-9)
    assert fp.iteration_gap is not None and fp.iteration_gap <= 1e-11


def test_fixed_point_k3_high_end():
    fp = solve_fixed_point(ModelParams(3, 7.5))
    assert fp.x == pytest.approx(0.46933856379110663, abs=1e-10)
    assert fp.residual < 1e-11


def test_fixed_point_solver_options():
    p = ModelParams(3, 7.0)
    bare = solve_fixed_point(p, check=False)
    assert bare.iteration_gap is None
    assert bare.max_derivative is None
    full = solve_fixed_point(p)
    # equality ignores the iteration witness, which is diagnostic only
    assert bare == BpFixedPoint(
        x=full.x,
        residual=bare.residual,
        bracket=bare.bracket,
        max_derivative=None,
        iteration_gap=3.0,
    ) or bare.x == pytest.approx(full.x, abs=1e-12)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_fixed_point(p, tol=tol)
    # a tol below the float spacing stops at adjacent floats
    a, b = solve_fixed_point(p, tol=1e-300, check=False).bracket
    assert math.nextafter(a, 1.0) == b


def _swap_ends(params, x):
    """psi's signs at the ends, but iteration jumps between them forever."""
    lo, hi = bp._domain(params.k)
    return lo + hi - x


def _middle(params, x):
    """psi's signs at the ends, but iteration settles at the middle."""
    lo, hi = bp._domain(params.k)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "fake, message",
    (
        (_swap_ends, "fixed-point iteration did not converge"),
        # at (3, 7) the bisection, which never calls psi, finds x = 0.45660
        (_middle, "fixed-point iteration disagrees with bisection by 1.910e-02 > 10*tol; "
                  "uniqueness witness failed"),
    ),
    ids=("no-convergence", "uniqueness"),
)
def test_fixed_point_witness_failures(monkeypatch, capsys, fake, message):
    monkeypatch.setattr(bp, "psi", fake)
    with pytest.raises(RuntimeError) as exc:
        solve_fixed_point(ModelParams(3, 7))
    assert str(exc.value) == message
    # the CLI gives up with one line and exit code 2
    assert main(["fixpoint", "--k", "3", "--d", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"rcsp: computation failed: {message}\n"


def test_bracket_error_below_window():
    # far enough below the window that psi(x)-x loses its sign change
    with pytest.raises(BracketError):
        solve_fixed_point(ModelParams(3, 4.0))
    with pytest.raises(BracketError):
        solve_fixed_point(ModelParams(4, 10.0))


def test_contraction_on_window():
    for k in range(3, 9):
        w = degree_window(k)
        for d in (w.d_lbd, 0.5 * (w.d_lbd + w.d_ubd), w.d_ubd):
            assert contraction_certificate(ModelParams(k, d)) < 1.0


@st.composite
def window_point(draw):
    k = draw(st.integers(min_value=3, max_value=10))
    w = degree_window(k)
    d = draw(st.floats(min_value=w.d_lbd, max_value=w.d_ubd))
    lo = 0.5 - 2.0 ** (-k)
    x = draw(st.floats(min_value=lo, max_value=0.5))
    return ModelParams(k, d), x


@settings(max_examples=200, deadline=None)
@given(window_point(), st.floats(min_value=0.0, max_value=1.0))
def test_psi_is_increasing_self_map(params_x, t):
    params, x = params_x
    lo = 0.5 - 2.0 ** (-params.k)
    y = lo + t * (x - lo)  # second point, never above x
    fx, fy = psi(params, x), psi(params, y)
    assert lo < fx < 0.5 + 1e-15
    assert fy <= fx + 1e-15


@settings(max_examples=100, deadline=None)
@given(window_point())
def test_psi_derivative_positive(params_x):
    params, x = params_x
    if x <= 0:
        return
    assert psi_derivative(params, x) > 0.0
