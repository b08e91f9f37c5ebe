"""Unit tests for the interpolation functional and its supporting laws."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcsp import interp
from rcsp.bp import BracketError, ModelParams
from rcsp.interp import (
    AtomicMeasure,
    ClauseMessageLaw,
    SupportBlowupError,
    ThetaSpec,
    beta_scaling_scan,
    clause_message_law,
    eta_cluster,
    functional_exact,
    functional_monte_carlo,
    literal_invariance_check,
    theta_value,
)

POINT_HALF = AtomicMeasure(atoms=((0.5, 1.0),), symmetric=True)


def test_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure(atoms=())
    with pytest.raises(ValueError):
        AtomicMeasure(atoms=((1.5, 1.0),))
    with pytest.raises(ValueError):
        AtomicMeasure(atoms=((0.5, -1.0), (0.3, 2.0)))
    with pytest.raises(ValueError):
        AtomicMeasure(atoms=((0.5, 0.5), (0.3, 0.3)))
    with pytest.raises(ValueError):
        AtomicMeasure(atoms=((0.5, 0.5), (0.5, 0.5)))
    with pytest.raises(ValueError):
        AtomicMeasure(atoms=((0.3, 1.0),), symmetric=True)


def test_measure_log_pairs_derived():
    nu = AtomicMeasure(atoms=((0.25, 0.5), (0.75, 0.5)), symmetric=True)
    (l0, l1), (l2, l3) = nu.log_pairs
    assert l0 == pytest.approx(math.log(0.25), rel=1e-15)
    assert l1 == pytest.approx(math.log(0.75), rel=1e-15)
    assert (l2, l3) == (l1, l0)


def test_spec_validation():
    with pytest.raises(ValueError):
        ThetaSpec("xor", 1.0)
    with pytest.raises(ValueError):
        ThetaSpec("nae", -1.0)
    with pytest.raises(ValueError):
        ThetaSpec("nae", 1.0, literals=(0, 2, 0))
    with pytest.raises(ValueError):
        ThetaSpec("coloring", 1.0, literals=(0, 1, 0))
    assert ThetaSpec("coloring", 0.0).literals is None


def test_theta_value():
    spec = ThetaSpec("nae", 2.0, literals=(1, 0, 0))
    hit = -math.expm1(-2.0)
    assert theta_value(spec, (1, 0, 0)) == hit  # masked to all-zero
    assert theta_value(spec, (0, 1, 1)) == hit  # masked to all-one
    assert theta_value(spec, (0, 0, 0)) == 0.0
    with pytest.raises(ValueError):
        theta_value(spec, (0, 0))


def test_eta_cluster_structure():
    params = ModelParams(3, 7.0)
    eta = eta_cluster(params, 2.0)
    assert eta.symmetric
    values = sorted(v for v, _ in eta.atoms)
    c = 1.0 / (1.0 + math.exp(-4.0))
    assert values[2] == pytest.approx(c, rel=1e-15)
    assert values[0] == pytest.approx(1.0 - c, rel=1e-12)
    assert values[1] == 0.5
    masses = {v: m for v, m in eta.atoms}
    assert masses[values[0]] == masses[values[2]]
    assert sum(masses.values()) == pytest.approx(1.0, abs=1e-15)
    # log_pairs carry more precision than the atom floats at large beta
    big = eta_cluster(params, 200.0)
    lp = dict(zip((v for v, _ in big.atoms), big.log_pairs))
    high = max(v for v, _ in big.atoms)
    assert lp[high][1] == pytest.approx(-400.0, rel=1e-10)


def test_eta_cluster_degenerate_and_errors():
    assert eta_cluster(ModelParams(3, 7.0), 0.0).atoms == ((0.5, 1.0),)
    with pytest.raises(BracketError):
        eta_cluster(ModelParams(3, 4.0), 2.0)
    with pytest.raises(ValueError):
        eta_cluster(ModelParams(3, 7.0), -1.0)


def test_clause_law_point_mass():
    beta = 1.0
    law = clause_message_law(3, POINT_HALF, ThetaSpec("coloring", beta))
    assert len(law.entries) == 1
    ((u0, u1), p) = law.support[0]
    c = 1.0 - (-math.expm1(-beta)) * 0.25
    assert p == pytest.approx(1.0, abs=1e-15)
    assert u0 == pytest.approx(c, rel=1e-14)
    assert u1 == pytest.approx(c, rel=1e-14)


def test_clause_law_probabilities_and_range():
    params = ModelParams(3, 7.0)
    beta = 3.0
    eta = eta_cluster(params, beta)
    law = clause_message_law(3, eta, ThetaSpec("nae", beta))
    total = sum(p for _, p in law.support)
    assert total == pytest.approx(1.0, abs=1e-12)
    for (u0, u1), _ in law.support:
        assert math.exp(-beta) - 1e-12 <= u0 <= 1.0 + 1e-12
        assert math.exp(-beta) - 1e-12 <= u1 <= 1.0 + 1e-12


def test_clause_law_validation():
    with pytest.raises(ValueError):
        ClauseMessageLaw(beta=1.0, entries=((0.0, 0.0, 0.5),))
    with pytest.raises(ValueError):
        ClauseMessageLaw(beta=1.0, entries=((-2.0, 0.0, 1.0),))


def test_clause_law_budget():
    eta = eta_cluster(ModelParams(3, 7.0), 1.0)
    with pytest.raises(SupportBlowupError):
        clause_message_law(15, eta, ThetaSpec("nae", 1.0), literals=(0,) * 15)


def test_functional_lambda_domain():
    spec = ThetaSpec("coloring", 1.0)
    for lam in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            functional_exact(ModelParams(3, 7.0), POINT_HALF, spec, lam)


def test_functional_beta_zero_is_ln2():
    spec = ThetaSpec("coloring", 0.0)
    for lam in (0.2, 0.5, 0.99):
        for d in (7.0, 7.4):
            value = functional_exact(ModelParams(3, d), POINT_HALF, spec, lam)
            assert abs(value - math.log(2.0)) < 1e-12


@pytest.mark.parametrize("d", (7.0, 7.2))
def test_functional_point_mass_closed_form(d):
    # at the point mass 1/2 the functional collapses to
    # ln2 + (d/k) ln(1 - (1 - e^-beta) 2^(1-k)), fractional d included
    k, beta, lam = 3, 1.7, 0.4
    expected = math.log(2.0) + (d / k) * math.log1p(math.expm1(-beta) * 2.0 ** (1 - k))
    value = functional_exact(ModelParams(k, d), POINT_HALF, ThetaSpec("coloring", beta), lam)
    assert abs(value - expected) < 1e-12


@pytest.mark.parametrize("d", (7.0, 7.4))
def test_functional_compressed_matches_reference(d):
    params = ModelParams(3, d)
    beta = 4.0
    eta = eta_cluster(params, beta)
    spec = ThetaSpec("coloring", beta)
    fast = functional_exact(params, eta, spec, 0.5, compress=True)
    slow = functional_exact(params, eta, spec, 0.5, compress=False)
    assert fast == pytest.approx(slow, abs=1e-11)


def test_functional_atom_budget():
    too_many = AtomicMeasure(atoms=tuple((i / 10.0, 1.0 / 6.0) for i in range(6)))
    with pytest.raises(ValueError):
        functional_exact(ModelParams(3, 7.0), too_many, ThetaSpec("nae", 1.0), 0.5)


def test_literal_invariance():
    result = literal_invariance_check(ModelParams(3, 7.4), beta=2.0, lam=0.5)
    assert result.passed
    assert result.max_deviation < 1e-10
    assert len(result.values) == 2**3 + 10


def test_monte_carlo_agrees_with_exact():
    params = ModelParams(3, 7.0)
    beta, lam = 2.0, 0.5
    eta = eta_cluster(params, beta)
    spec = ThetaSpec("coloring", beta)
    exact = functional_exact(params, eta, spec, lam)
    est, se = functional_monte_carlo(params, eta, spec, lam, n_samples=200_000, seed=1)
    assert se < 0.01
    assert abs(est - exact) < 5.0 * se


def test_monte_carlo_requires_integer_degree():
    eta = eta_cluster(ModelParams(3, 7.4), 1.0)
    with pytest.raises(ValueError):
        functional_monte_carlo(ModelParams(3, 7.4), eta, ThetaSpec("nae", 1.0), 0.5, 100, 0)


def test_beta_scan_rows():
    result = beta_scaling_scan(ModelParams(3, 7.4), [0.25, 4.0])
    lams = [row.lam for row in result.rows]
    assert lams[0] == 0.99  # beta^(-1/2) = 2 clamps into (0,1)
    assert lams[1] == 0.5
    assert result.phi_star == pytest.approx(-0.049166538444465502, abs=1e-12)
    for row in result.rows:
        assert row.p_over_sqrt_beta == pytest.approx(
            row.p_value / math.sqrt(row.beta), rel=1e-15
        )
    with pytest.raises(ValueError):
        beta_scaling_scan(ModelParams(3, 7.4), [-1.0])


@st.composite
def lattice_walks(draw):
    """1-4 step directions and 1-6 product steps; each law entry moves one
    unit along a direction (dim -1: no step), so encoded steps repeat often."""
    n_dims = draw(st.integers(1, 4))
    entry = st.tuples(st.integers(-1, n_dims - 1), st.sampled_from((-1, 1)))
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        moves = draw(st.lists(entry, min_size=1, max_size=6))
        q = draw(
            st.lists(st.floats(1e-6, 1.0), min_size=len(moves), max_size=len(moves))
        )
        steps.append((q, moves))
    return n_dims, steps


def _walk(n_dims, steps):
    registry = interp._StepRegistry()
    registry.values = [float(r + 1) for r in range(n_dims)]
    state = interp._LatticeState(registry)
    for q, moves in steps:
        state.step(np.array(q), [r for r, _ in moves], [s for _, s in moves])
    return state


@settings(max_examples=200, deadline=None)
@given(lattice_walks())
def test_lattice_step_matches_state_major_sum_bitwise(walk):
    n_dims, steps = walk
    # states ascending, law entries in index order: the summation order of
    # the state-major product reduced by np.unique and np.bincount
    expected = {0: 1.0}
    for q, moves in steps:
        new = {}
        for key in sorted(expected):
            for qj, (r, s) in zip(q, moves):
                target = key + (s << (interp._KEY_BITS * r) if r >= 0 else 0)
                new[target] = new.get(target, 0.0) + expected[key] * qj
        expected = new
    state = _walk(n_dims, steps)
    assert state.keys.tolist() == sorted(expected)
    assert state.probs.tolist() == [expected[key] for key in sorted(expected)]


def test_lattice_step_checks_budget_before_building(monkeypatch):
    n_states, n_entries = 1000, 200
    product_bytes = 8 * n_states * n_entries  # each product array
    q = np.full(n_entries, 1.0 / n_entries)
    moves = ([0] * n_entries, [1] * n_entries)

    def traced_step(limit):
        """(state, traced peak bytes, SupportBlowupError or None) of one step."""
        monkeypatch.setattr(interp, "MAX_PRODUCT_STATES", limit)
        state = _walk(1, [])
        state.keys = np.arange(n_states, dtype=np.int64)
        state.probs = np.full(n_states, 1.0 / n_states)
        error = None
        tracemalloc.start()
        try:
            state.step(q, *moves)
        except SupportBlowupError as exc:
            error = exc
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return state, peak, error

    state, peak, error = traced_step(n_states * n_entries)
    assert error is None and peak >= product_bytes  # the trace sees the product
    state, peak, error = traced_step(n_states * n_entries - 1)
    assert "exceeds" in str(error)
    assert peak < product_bytes // 4
    assert state.steps_taken == 0 and len(state.keys) == n_states
