"""Unit tests for the interpolation functional and its supporting laws."""

import itertools
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
        ThetaSpec("nae", 1.0, literals=(0, 0.5, 1))  # no truncation to a bit
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


# float.hex of values computed by the per-draw loops that _draws replaced
# (x86-64, numpy 2.4): a refactor of the functional must keep every bit.
# ASYM has no flip symmetry and a null atom, so its mixed-literal laws differ
# from clause to clause and the null draws must drop out.
ASYM = AtomicMeasure(atoms=((0.1, 0.2), (0.6, 0.5), (0.9, 0.3), (0.3, 0.0)))
MIXED = ((0, 1, 1), [(1, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 0), (1, 0, 0)])
NAE = ThetaSpec("nae", 2.0)
PINNED = (
    pytest.param(7.0, None, ThetaSpec("coloring", 2.0), 0.5, None, True,
                 "0x1.786f6fdaa7cd0p-3", id="uniform"),
    pytest.param(7.0, None, ThetaSpec("nae", 2.0, (1, 0, 0)), 0.5, None, True,
                 "0x1.786f6fdaa7cd0p-3", id="uniform-L100"),
    pytest.param(7.0, None, NAE, 0.5, MIXED, True, "0x1.786f6fdaa7cd0p-3", id="mixed"),
    pytest.param(7.0, ASYM, NAE, 0.5, MIXED, True, "0x1.2a701b9eb4c00p-5", id="mixed-asym"),
    pytest.param(6.5, ASYM, NAE, 0.5, MIXED, True, "0x1.5dc4de60f30c0p-4", id="mixed-asym-d6.5"),
    pytest.param(6.5, ASYM, NAE, 0.5, MIXED, False, "0x1.5dc4de60f30c0p-4",
                 id="mixed-asym-d6.5-ref"),
    pytest.param(7.4, None, ThetaSpec("coloring", 4.0), 0.5, None, True,
                 "0x1.ec555e032dd00p-6", id="d7.4"),
    pytest.param(7.4, None, ThetaSpec("coloring", 4.0), 0.5, None, False,
                 "0x1.ec555e032de80p-6", id="d7.4-ref"),
    pytest.param(7.4, None, ThetaSpec("coloring", 256.0), 0.0625, None, True,
                 "-0x1.8c67b0b67efc0p-1", id="beta256"),
)


@pytest.mark.parametrize("d, eta, spec, lam, literals, compress, expected", PINNED)
def test_functional_pinned_bits(d, eta, spec, lam, literals, compress, expected):
    params = ModelParams(3, d)
    eta = eta or eta_cluster(params, spec.beta)
    value = functional_exact(params, eta, spec, lam, literals=literals, compress=compress)
    assert value.hex() == expected


def test_clause_law_pinned_bits():
    eta = eta_cluster(ModelParams(3, 7.0), 2.0)
    law = clause_message_law(3, eta, ThetaSpec("nae", 2.0), literals=(1, 0, 0))
    assert [tuple(x.hex() for x in e) for e in law.entries] == [
        ("-0x1.2559e17e43458p-12", "-0x1.cb786c1347406p+0", "0x1.aaf9997770f25p-3"),
        ("-0x1.f84dde0acf110p-7", "-0x1.f84dde0acf110p-7", "0x1.aaf9997770f25p-2"),
        ("-0x1.ff99d9f4e47b5p-8", "-0x1.1af0372f0290dp-1", "0x1.44ab8e2e286d7p-4"),
        ("-0x1.cb786c1347406p+0", "-0x1.2559e17e43458p-12", "0x1.aaf9997770f25p-3"),
        ("-0x1.1af0372f0290dp-1", "-0x1.ff99d9f4e47b5p-8", "0x1.44ab8e2e286d7p-4"),
        ("-0x1.f2ceaa31546aep-3", "-0x1.f2ceaa31546aep-3", "0x1.edc17e8279295p-8"),
    ]


@st.composite
def draw_cases(draw):
    """1-5 distinct atoms in [0, 1] (ends included), some of mass 0, and 1-6 bits."""
    n = draw(st.integers(1, 5))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    atoms = tuple((v, w / sum(weights)) for v, w in zip(values, weights))
    bits = draw(st.lists(st.integers(0, 1), min_size=1, max_size=6))
    return AtomicMeasure(atoms=atoms), bits


@settings(max_examples=100, deadline=None)
@given(draw_cases())
def test_draws_match_product_loop_bitwise(case):
    eta, bits = case
    masses = [m for _, m in eta.atoms]
    expected = ([], [], [])
    for draw in itertools.product(range(len(masses)), repeat=len(bits)):
        prob, lpa, lpb = 1.0, 0.0, 0.0
        for b, atom in zip(bits, draw):
            prob *= masses[atom]
            lpa += eta.log_pairs[atom][b]
            lpb += eta.log_pairs[atom][1 - b]
        if prob != 0.0:
            for column, x in zip(expected, (prob, lpa, lpb)):
                column.append(x)
    got = interp._draws(eta, bits)
    assert [column.tolist() for column in got] == list(expected)


def test_functional_atom_budget():
    too_many = AtomicMeasure(atoms=tuple((i / 10.0, 1.0 / 6.0) for i in range(6)))
    with pytest.raises(ValueError):
        functional_exact(ModelParams(3, 7.0), too_many, ThetaSpec("nae", 1.0), 0.5)


@pytest.mark.parametrize("d", (0.5, 1.0))
def test_functional_lattice_key_dimensions(d):
    # 13 distinct step magnitudes; at d = 0.5 no product step is taken
    eta = AtomicMeasure(atoms=((0.05, 0.1), (0.3, 0.2), (0.45, 0.4), (0.7, 0.2), (0.9, 0.1)))
    with pytest.raises(SupportBlowupError, match="13 step directions"):
        functional_exact(ModelParams(3, d), eta, ThetaSpec("nae", 1.0), 0.5)


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
