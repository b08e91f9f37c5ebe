"""Unit tests for the interpolation functional and its supporting laws."""

import dataclasses
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
    BetaScanRow,
    ClauseMessageLaw,
    SupportBlowupError,
    ThetaSpec,
    beta_scaling_scan,
    clause_message_law,
    eta_cluster,
    functional_exact,
    functional_monte_carlo,
    literal_invariance_check,
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
    with pytest.raises(ValueError, match="^log_pairs length must match atoms$"):
        AtomicMeasure(atoms=((0.5, 1.0),), log_pairs=((-1.0, -1.0), (-1.0, -1.0)))


def test_measure_log_pairs_derived():
    nu = AtomicMeasure(atoms=((0.25, 0.5), (0.75, 0.5)), symmetric=True)
    (l0, l1), (l2, l3) = nu.log_pairs
    assert l0 == pytest.approx(math.log(0.25), rel=1e-15)
    assert l1 == pytest.approx(math.log(0.75), rel=1e-15)
    assert (l2, l3) == (l1, l0)


def test_spec_validation():
    # a spec is (model, beta); literals come per evaluation
    assert [f.name for f in dataclasses.fields(ThetaSpec)] == ["model", "beta"]
    with pytest.raises(ValueError) as exc:
        ThetaSpec("xor", 1.0)
    assert str(exc.value) == "model must be 'coloring' or 'nae', got 'xor'"
    for beta in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="beta must be >= 0"):
            ThetaSpec("nae", beta)
        with pytest.raises(ValueError, match="beta must be >= 0"):
            eta_cluster(ModelParams(3, 7.0), beta)
    with pytest.raises(ValueError, match="literals must be bits"):
        clause_message_law(3, POINT_HALF, ThetaSpec("nae", 1.0), literals=(0, 2, 0))
    with pytest.raises(ValueError, match="literals must be bits"):  # no truncation to a bit
        clause_message_law(3, POINT_HALF, ThetaSpec("nae", 1.0), literals=(0, 0.5, 1))
    with pytest.raises(ValueError, match="coloring requires all-zero literals"):
        clause_message_law(3, POINT_HALF, ThetaSpec("coloring", 1.0), literals=(0, 1, 0))
    with pytest.raises(ValueError, match="^need 3 literal bits, got 2$"):
        clause_message_law(3, POINT_HALF, ThetaSpec("nae", 1.0), literals=(0, 1))
    # L0 and one literal vector per clause law: ceil(7.4) = 8 of them
    with pytest.raises(ValueError, match="^need 8 clause literal vectors, got 7$"):
        functional_exact(ModelParams(3, 7.4), POINT_HALF, ThetaSpec("nae", 1.0), 0.5,
                         literals=((0, 0, 0), [(0, 0, 0)] * 7))


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
    ((lu0, lu1, p),) = law.entries
    c = 1.0 - (-math.expm1(-beta)) * 0.25
    assert p == pytest.approx(1.0, abs=1e-15)
    assert math.exp(lu0) == pytest.approx(c, rel=1e-14)
    assert math.exp(lu1) == pytest.approx(c, rel=1e-14)


def test_clause_law_probabilities_and_range():
    params = ModelParams(3, 7.0)
    beta = 3.0
    eta = eta_cluster(params, beta)
    law = clause_message_law(3, eta, ThetaSpec("nae", beta))
    total = sum(p for _, _, p in law.entries)
    assert total == pytest.approx(1.0, abs=1e-12)
    for lu0, lu1, _ in law.entries:
        assert math.exp(-beta) - 1e-12 <= math.exp(lu0) <= 1.0 + 1e-12
        assert math.exp(-beta) - 1e-12 <= math.exp(lu1) <= 1.0 + 1e-12


def test_clause_law_validation():
    with pytest.raises(ValueError):
        ClauseMessageLaw(beta=1.0, entries=((0.0, 0.0, 0.5),))
    with pytest.raises(ValueError):
        ClauseMessageLaw(beta=1.0, entries=((-2.0, 0.0, 1.0),))
    with pytest.raises(ValueError, match="^law probabilities must be nonnegative$"):
        ClauseMessageLaw(beta=1.0, entries=((0.0, 0.0, 1.5), (0.0, 0.0, -0.5)))
    with pytest.raises(ValueError, match="^k must be >= 2$"):
        clause_message_law(1, POINT_HALF, ThetaSpec("nae", 1.0))


def test_clause_law_budget():
    eta = eta_cluster(ModelParams(3, 7.0), 1.0)
    with pytest.raises(SupportBlowupError):
        clause_message_law(15, eta, ThetaSpec("nae", 1.0), literals=(0,) * 15)


def test_functional_lambda_domain():
    spec = ThetaSpec("coloring", 1.0)
    for lam in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            functional_exact(ModelParams(3, 7.0), POINT_HALF, spec, lam)
        with pytest.raises(ValueError, match=rf"^lambda must lie in \(0,1\), got {lam}$"):
            functional_monte_carlo(ModelParams(3, 7.0), POINT_HALF, spec, lam, 100, 0)


def test_functional_beta_zero_is_ln2():
    spec = ThetaSpec("coloring", 0.0)
    for lam in (0.2, 0.5, 0.99):
        for d in (7.0, 7.4):
            value = functional_exact(ModelParams(3, d), POINT_HALF, spec, lam)
            assert abs(value - math.log(2.0)) < 1e-12
        # every sample is the same 2^lam, so the estimate has no spread
        value, stderr = functional_monte_carlo(ModelParams(3, 7.0), POINT_HALF, spec, lam, 100, 0)
        assert abs(value - math.log(2.0)) < 1e-12
        assert stderr == 0.0


@pytest.mark.parametrize("d", (7.0, 7.2))
def test_functional_point_mass_closed_form(d):
    # at the point mass 1/2 the functional collapses to
    # ln2 + (d/k) ln(1 - (1 - e^-beta) 2^(1-k)), fractional d included
    k, beta, lam = 3, 1.7, 0.4
    expected = math.log(2.0) + (d / k) * math.log1p(math.expm1(-beta) * 2.0 ** (1 - k))
    value = functional_exact(ModelParams(k, d), POINT_HALF, ThetaSpec("coloring", beta), lam)
    assert abs(value - expected) < 1e-12


@pytest.mark.parametrize("d", (63.0, 100.0))
def test_functional_point_mass_past_the_key_field(d):
    # no law entry at the point mass takes a step, so the key never moves and
    # the walk runs past the 62 moving steps a key field holds
    k, beta, lam = 3, 16.0, 0.25
    expected = math.log(2.0) + (d / k) * math.log1p(math.expm1(-beta) * 2.0 ** (1 - k))
    value = functional_exact(ModelParams(k, d), POINT_HALF, ThetaSpec("coloring", beta), lam)
    assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


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
    pytest.param(7.0, None, NAE, 0.5, ((1, 0, 0), [(1, 0, 0)] * 7), True,
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


@pytest.mark.parametrize("tile", [18, 1000])
@pytest.mark.parametrize(
    "d, eta, spec, lam, literals, compress, expected", [p for p in PINNED if p.values[5]]
)
def test_functional_pinned_bits_at_any_tile_size(
    monkeypatch, tile, d, eta, spec, lam, literals, compress, expected
):
    # many tiles per product step, and log_moments slices of a few states
    monkeypatch.setattr(interp, "TILE_CANDIDATES", tile)
    test_functional_pinned_bits(d, eta, spec, lam, literals, compress, expected)


# float.hex at k = 4 before the product step was tiled: the last steps of the
# literal-invariance check span 15 tiles, and its states 16 log_moments slices
LOW, HIGH = "0x1.29923eebc3d70p-2", "0x1.29923eebc3d86p-2"
PINNED_K4_LITERALS = (LOW, *[HIGH] * 6, LOW, LOW, *[HIGH] * 6, LOW, LOW)
PINNED_K4_SCAN = ((16, "-0x1.90098b6c092a0p-3"), (64, "-0x1.e57b9081ce880p-2"),
                  (256, "-0x1.ede8e48cacb60p-1"))


def test_literal_invariance_pinned_bits_k4():
    result = literal_invariance_check(ModelParams(4, 20), 1.0, 0.7, n_random=1, seed=0)
    assert tuple(v.hex() for v in result.values) == PINNED_K4_LITERALS


def test_beta_scan_pinned_bits_k4():
    rows = beta_scaling_scan(ModelParams(4, 22), [16, 64, 256]).rows
    assert tuple((row.beta, row.p_value.hex()) for row in rows) == PINNED_K4_SCAN


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


def _flip(lits):
    return tuple(1 - b for b in lits)


# Mixed literals drawing on few complement classes, members of one class
# side by side; more classes would give ASYM more than 9 step directions at k = 4.
FLIP_CASES = (
    pytest.param(3, 7.4, 7.4, ((0, 1, 1), MIXED[1] + [(1, 0, 0)]), id="k3"),
    # eta_cluster needs d in the BP window (16.7 to 22.2 at k = 4), but its
    # measure can be evaluated at any d; d = 6.5 keeps k = 4 cheap
    pytest.param(4, 6.5, 17.0, ((1, 0, 1, 1), [(0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 1, 0),
                 (0, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 0, 1)]), id="k4"),
)


@pytest.mark.parametrize("k, d, window_d, mixed", FLIP_CASES)
@pytest.mark.parametrize("asym", (False, True), ids=("cluster", "asym"))
def test_functional_flip_class_bitwise(k, d, window_d, mixed, asym):
    # the premise of L and ~L sharing a lattice row:
    # L and ~L give the same clause law and the same functional, bit for bit
    params = ModelParams(k, d)
    eta = ASYM if asym else eta_cluster(ModelParams(k, window_d), 2.0)

    def value(literals):
        return functional_exact(params, eta, NAE, 0.5, literals=literals).hex()

    def uniform(lits):
        return lits, [lits] * math.ceil(d)

    for lits in itertools.product((0, 1), repeat=k):
        law = clause_message_law(k, eta, NAE, literals=lits)
        assert law.entries == clause_message_law(k, eta, NAE, literals=_flip(lits)).entries
        if lits[0] == 0:
            assert value(uniform(lits)) == value(uniform(_flip(lits)))
    lits0, per = mixed
    assert value((_flip(lits0), per)) == value(mixed)
    assert value((lits0, [_flip(per[0])] + per[1:])) == value(mixed)
    assert value((lits0, [_flip(lv) for lv in per])) == value(mixed)


def _one_at_a_time(params, beta, lam, eta, n_random, seed=0):
    """literal_invariance_check's values by a plain functional_exact loop:
    one evaluation per uniform vector, then the mixed draws."""
    k, n_laws, spec = params.k, math.ceil(params.d), ThetaSpec("nae", beta)
    values = [
        functional_exact(params, eta, spec, lam, literals=(lits, [lits] * n_laws))
        for lits in itertools.product((0, 1), repeat=k)
    ]
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        lits0 = tuple(int(b) for b in rng.integers(0, 2, size=k))
        per = [tuple(int(b) for b in rng.integers(0, 2, size=k)) for _ in range(n_laws)]
        values.append(functional_exact(params, eta, spec, lam, literals=(lits0, per)))
    return [v.hex() for v in values]


def _count_rows(monkeypatch):
    """The n_rows of every _LatticeState built from now on, in order."""
    built = []
    init = interp._LatticeState.__init__

    def counted(self, lams, bases):
        built.append(len(lams))
        init(self, lams, bases)

    monkeypatch.setattr(interp._LatticeState, "__init__", counted)
    return built


@pytest.mark.parametrize("asym", (False, True), ids=("cluster", "asym"))
def test_literal_invariance_complements_share_a_row(monkeypatch, asym):
    params, beta, lam, n_random = ModelParams(3, 7.4), 2.0, 0.5, 3
    eta = ASYM if asym else eta_cluster(params, beta)
    expected = _one_at_a_time(params, beta, lam, eta, n_random)
    handed = []
    batch = interp._functionals

    def counted(params, calls, **kwargs):
        calls = list(calls)
        handed.append(len(calls))
        return batch(params, calls, **kwargs)

    monkeypatch.setattr(interp, "_functionals", counted)
    built = _count_rows(monkeypatch)
    result = literal_invariance_check(
        params, beta, lam, eta=ASYM if asym else None, n_random=n_random
    )
    assert [v.hex() for v in result.values] == expected
    # one batch: every uniform vector, then the mixed assignments
    assert handed == [2**3 + n_random]
    # L and ~L share their clause laws, so they are twins and share a row
    # (5 rows for the cluster measure, 6 for ASYM)
    assert sum(built) <= 2 ** (3 - 1) + n_random


def test_measure_equality_sees_log_pairs():
    plain = AtomicMeasure(((0.5, 1.0),))
    logged = AtomicMeasure(((0.5, 1.0),), log_pairs=((-0.6, -0.8),))
    assert plain != logged and hash(plain) != hash(logged)
    # one batch keys its shared clause laws on the measure: each keeps its own
    params, spec = ModelParams(3, 7), ThetaSpec("coloring", 2.0)
    values = interp._functionals(params, [(plain, spec, 0.5, None), (logged, spec, 0.5, None)])
    assert values == [0.12484461040353834, 0.20556715094600042]
    alone = [functional_exact(params, eta, spec, 0.5).hex() for eta in (plain, logged)]
    assert [v.hex() for v in values] == alone


@pytest.mark.parametrize(
    "params, beta, lam, asym, n_random",
    (
        pytest.param(ModelParams(4, 20), 1.0, 0.7, False, 10, id="k4-d20-18-members"),
        pytest.param(ModelParams(3, 7.4), 2.0, 0.5, True, 10, id="k3-asym"),
    ),
)
def test_literal_invariance_batch_matches_loop(params, beta, lam, asym, n_random):
    eta = ASYM if asym else eta_cluster(params, beta)
    expected = _one_at_a_time(params, beta, lam, eta, n_random)
    result = literal_invariance_check(params, beta, lam, eta=eta, n_random=n_random)
    assert [v.hex() for v in result.values] == expected


@pytest.mark.parametrize(
    "params, betas, n_states",
    (
        # beta = 256 takes two fewer no-step entries than 16 and 64, but the
        # same distinct steps, so one state serves all three
        pytest.param(ModelParams(4, 20), (16.0, 64.0, 256.0), 1, id="k4-d20"),
        pytest.param(ModelParams(4, 22), (16.0, 64.0, 256.0), 1, id="k4-d22"),
        pytest.param(ModelParams(3, 7.4), (0.25, 4.0, 16.0, 64.0, 256.0), None, id="k3-d7.4"),
    ),
)
def test_beta_scan_batch_matches_loop(monkeypatch, params, betas, n_states):
    expected = []
    for beta in betas:
        lam = min(beta**-0.5, 0.99)
        eta = eta_cluster(params, beta)
        expected.append(functional_exact(params, eta, ThetaSpec("coloring", beta), lam).hex())
    built = _count_rows(monkeypatch)
    result = beta_scaling_scan(params, betas)
    assert [row.p_value.hex() for row in result.rows] == expected
    assert sum(built) == len(betas)
    if n_states is not None:
        assert len(built) == n_states


def test_literal_invariance_twins_share_a_row(monkeypatch):
    params, beta, lam = ModelParams(4, 20), 1.0, 0.7
    eta = eta_cluster(params, beta)
    expected = _one_at_a_time(params, beta, lam, eta, 1)
    built = _count_rows(monkeypatch)
    seconds = []
    second = interp._second_term

    def counted_second(eta, spec, lits0, lam):
        seconds.append(lits0)
        return second(eta, spec, lits0, lam)

    monkeypatch.setattr(interp, "_second_term", counted_second)
    result = literal_invariance_check(params, beta, lam, n_random=1)
    assert [v.hex() for v in result.values] == expected
    # 16 uniform vectors and 1 mixed assignment carry 3 distinct rows
    assert sum(built) == 3
    # the uniform vectors already use every flip class, and each standalone
    # term and each clause law is built once per class and batch
    classes = sorted({interp._flip_class(lits) for lits in itertools.product((0, 1), repeat=4)})
    assert sorted(seconds) == classes
    seconds.clear()
    laws = []
    build = interp.clause_message_law

    def counted(k, eta, spec, literals=None):
        laws.append(literals)
        return build(k, eta, spec, literals=literals)

    monkeypatch.setattr(interp, "clause_message_law", counted)
    literal_invariance_check(params, beta, lam, n_random=10)
    assert sorted(seconds) == sorted(laws) == classes


def test_standalone_budget_fails_before_the_lattice(monkeypatch):
    # 3^2 clause-law draws fit the budget, the standalone clause's 3^3 do not:
    # the member fails while it is built, before any lattice state exists
    monkeypatch.setattr(interp, "MAX_REFERENCE_TUPLES", 10)
    params = ModelParams(3, 7.4)
    eta = eta_cluster(params, 2.0)
    built = _count_rows(monkeypatch)
    with pytest.raises(SupportBlowupError, match=r"3\^3 clause draws exceed the budget"):
        functional_exact(params, eta, ThetaSpec("coloring", 2.0), 0.5)
    assert built == []


def test_beta_scan_twins_share_a_row(monkeypatch):
    params = ModelParams(4, 20)
    built = _count_rows(monkeypatch)
    rows = beta_scaling_scan(params, [16.0, 16.0]).rows
    assert built == [1]
    assert rows[0].p_value.hex() == rows[1].p_value.hex()
    # a twin of a failing member fails with it, and the first failure is raised
    with pytest.raises(SupportBlowupError, match="underflows float64"):
        beta_scaling_scan(params, [16.0, 4096.0, 4096.0])


def test_lattice_twins_agree_in_lam_basis_and_probabilities(monkeypatch):
    # with u0 = 1 every tilt is ln Z1 = 0 and q = p whatever lam; B swaps
    # A's probabilities and A2 scales its steps, so each pair below shares
    # the sorted encoded steps and every ln Z1 but differs in one key part
    law_a = ClauseMessageLaw(1.0, ((0.0, -0.4, 0.3), (0.0, -0.8, 0.7)))
    law_b = ClauseMessageLaw(1.0, ((0.0, -0.4, 0.7), (0.0, -0.8, 0.3)))
    law_a2 = ClauseMessageLaw(1.0, ((0.0, -0.5, 0.3), (0.0, -1.0, 0.7)))
    members = [([law_a] * 3, 0.5), ([law_b] * 3, 0.5), ([law_a2] * 3, 0.5),
               ([law_a] * 3, 0.25), ([law_a] * 3, 0.5)]
    alone = [interp._lattice_terms([member], 3.0, {})[0].hex() for member in members]
    built = _count_rows(monkeypatch)
    together = [v.hex() for v in interp._lattice_terms(members, 3.0, {})]
    assert together == alone
    assert len(set(alone)) == 4 and sum(built) == 4


def test_batch_raises_the_loops_first_error():
    # the loop would evaluate beta = 4096 and raise there before it reached -1
    params = ModelParams(4, 20)
    with pytest.raises(SupportBlowupError, match="underflows"):
        beta_scaling_scan(params, [16.0, 4096.0, -1.0])
    with pytest.raises(ValueError, match="beta must be >= 0"):
        beta_scaling_scan(params, [16.0, -1.0, 4096.0])
    # the ASYM mixed assignment's key error comes after valid uniform members
    with pytest.raises(SupportBlowupError, match="10 step directions"):
        literal_invariance_check(ModelParams(4, 6.5), 2.0, 0.5, eta=ASYM, n_random=2, seed=0)


def test_scan_rejects_a_bad_beta_like_the_measure():
    # the scan's beta check is eta_cluster's, with its one message
    with pytest.raises(ValueError) as exc:
        beta_scaling_scan(ModelParams(3, 7.4), [16.0, -1.0])
    assert str(exc.value) == "beta must be >= 0 and finite, got -1.0"


def test_batch_raises_the_lowest_members_budget_error(monkeypatch):
    # beta = 256 alone needs 377 states x 8 entries, beta = 16 alone 231 x 10;
    # every beta runs, and the lowest failing member's error is raised
    monkeypatch.setattr(interp, "MAX_PRODUCT_STATES", 2000)
    params = ModelParams(4, 22)
    with pytest.raises(SupportBlowupError) as exc:
        beta_scaling_scan(params, [256.0, 16.0])
    assert str(exc.value) == "product of 377 states and 8 law entries exceeds 2000"
    with pytest.raises(SupportBlowupError) as exc:
        beta_scaling_scan(params, [16.0, 64.0, 256.0])
    assert str(exc.value) == "product of 231 states and 10 law entries exceeds 2000"
    # in one state each row stops at its own budget, and a twin of a failing
    # member gets its error
    seen = []
    terms = interp._lattice_terms

    def recorded(members, d, errors):
        values = terms(members, d, errors)
        seen.append({i: str(exc) for i, exc in errors.items()})
        return values

    monkeypatch.setattr(interp, "_lattice_terms", recorded)
    built = _count_rows(monkeypatch)
    with pytest.raises(SupportBlowupError):
        beta_scaling_scan(params, [256.0, 16.0, 256.0, 16.0])
    assert built == [2]
    assert seen == [{0: "product of 377 states and 8 law entries exceeds 2000",
                     1: "product of 231 states and 10 law entries exceeds 2000",
                     2: "product of 377 states and 8 law entries exceeds 2000",
                     3: "product of 231 states and 10 law entries exceeds 2000"}]


def test_functional_underflow_raises():
    # the tilted states underflow float64: the lattice used to drop them and
    # read 33.62 where the uncompressed product gives 44.02
    params, beta = ModelParams(3, 4), 65536.0
    eta = eta_cluster(ModelParams(3, 7.4), beta)
    spec = ThetaSpec("coloring", beta)
    reference = functional_exact(params, eta, spec, 1 / 256, compress=False)
    assert reference == pytest.approx(44.02, abs=0.01)
    with pytest.raises(SupportBlowupError, match="underflows float64"):
        functional_exact(params, eta, spec, 1 / 256)


def test_literal_invariance_memory_does_not_grow_with_members(monkeypatch):
    # 208 members run in chunks of at most one law's entry count, so a
    # state's rows hold no more numbers than one step's product
    step = interp._LatticeState.step
    products, peaks = [], []

    def traced(self, steps, layouts, qs):
        products.append(len(self.keys) * max(map(len, layouts)))
        # what the state holds at its peak: its arrays at the start, plus
        # the step's growth above the start
        held = self.keys.nbytes + sum(row.nbytes for row in self.probs)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step(self, steps, layouts, qs)
        peaks.append(held + tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(interp._LatticeState, "step", traced)
    eta = eta_cluster(ModelParams(3, 7.4), 2.0)
    tracemalloc.start()
    try:
        result = literal_invariance_check(ModelParams(3, 20), 2.0, 0.5, eta=eta, n_random=200)
    finally:
        tracemalloc.stop()
    assert result.passed and len(result.values) == 2**3 + 200
    # a budget of exactly the largest product still evaluates
    budget = max(products)
    monkeypatch.setattr(interp, "MAX_PRODUCT_STATES", budget)
    assert literal_invariance_check(ModelParams(3, 20), 2.0, 0.5, eta=eta, n_random=1).passed
    # within 8 product-size float64 arrays: the chunked steps peak at about
    # 7.0 of them, the 202 distinct rows in one state at about 43
    assert max(peaks) < 8 * 8 * budget


def test_literal_invariance_memory_k4():
    # the product steps hold tiles, never states x entries arrays, which
    # would peak at 34.7 MiB here
    tracemalloc.start()
    try:
        literal_invariance_check(ModelParams(4, 20), 1.0, 0.7, n_random=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_literal_invariance_asymmetric_eta_can_blow_up():
    # the uniform values evaluate, but a mixed assignment of ASYM at k = 4
    # needs more step directions than the lattice key holds
    with pytest.raises(SupportBlowupError, match="10 step directions exceed the 9-dimension"):
        literal_invariance_check(ModelParams(4, 6.5), 2.0, 0.5, eta=ASYM, n_random=1, seed=0)


def test_monte_carlo_agrees_with_exact():
    params = ModelParams(3, 7.0)
    beta, lam = 2.0, 0.5
    eta = eta_cluster(params, beta)
    spec = ThetaSpec("coloring", beta)
    exact = functional_exact(params, eta, spec, lam)
    est, se = functional_monte_carlo(params, eta, spec, lam, n_samples=200_000, seed=1)
    assert se < 0.01
    assert abs(est - exact) < 5.0 * se


# float.hex of (estimate, stderr) before the draws were read by column; the
# two models agree, as neither reads literals here.  100,001 samples end in
# a chunk of one.
PINNED_MC = {0: ("0x1.84d6081f7f950p-3", "0x1.66909a2093fdep-7"),
             7: ("0x1.7bf2dc5bbec70p-3", "0x1.6630e7d89aab4p-7")}


@pytest.mark.parametrize("model", ("coloring", "nae"))
@pytest.mark.parametrize("seed", sorted(PINNED_MC))
def test_monte_carlo_pinned_bits(model, seed):
    params = ModelParams(3, 7)
    eta = eta_cluster(params, 2.0)
    got = functional_monte_carlo(params, eta, ThetaSpec(model, 2.0), 0.5, 100_001, seed)
    assert tuple(x.hex() for x in got) == PINNED_MC[seed]


def test_monte_carlo_requires_integer_degree():
    eta = eta_cluster(ModelParams(3, 7.4), 1.0)
    with pytest.raises(ValueError):
        functional_monte_carlo(ModelParams(3, 7.4), eta, ThetaSpec("nae", 1.0), 0.5, 100, 0)


@pytest.mark.parametrize("n_samples", (0, -3, 1))
def test_monte_carlo_needs_two_samples(n_samples):
    # one sample has no standard error, and fewer have no mean
    params = ModelParams(3, 7.0)
    eta = eta_cluster(params, 1.0)
    with pytest.raises(ValueError, match="n_samples >= 2"):
        functional_monte_carlo(params, eta, ThetaSpec("nae", 1.0), 0.5, n_samples, 0)


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


def test_beta_scan_solves_the_fixed_point_once(monkeypatch):
    # one solve serves every beta's measure and phi_star; the rows keep the
    # per-beta measures' bytes (test_beta_scan_batch_matches_loop)
    from rcsp.thresholds import phi_star

    params = ModelParams(4, 22)
    expected = phi_star(params).hex()
    solves, solve = [], interp.solve_fixed_point
    monkeypatch.setattr(
        interp, "solve_fixed_point", lambda *a, **kw: solves.append(a) or solve(*a, **kw)
    )
    result = beta_scaling_scan(params, [16.0, 64.0, 256.0])
    assert len(solves) == 1
    assert result.phi_star.hex() == expected


def test_beta_scan_row_scales_p():
    assert BetaScanRow(16.0, 0.25, -0.4).p_over_sqrt_beta == -0.1
    assert BetaScanRow(0.0, 0.99, math.log(2.0)).p_over_sqrt_beta == math.inf


@st.composite
def lattice_walks(draw):
    """1-4 step directions, 1-6 product steps and 1-4 members.  Each law entry
    moves one unit along a direction (dim -1: no step), so encoded steps
    repeat often; at each step the members share the distinct moves, each
    member with its own extra repeats of them (so its own entry count), in
    its own entry order and with its own q."""
    n_dims = draw(st.integers(1, 4))
    n_members = draw(st.integers(1, 4))
    entry = st.tuples(st.integers(-1, n_dims - 1), st.sampled_from((-1, 1)))
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        moves = draw(st.lists(entry, min_size=1, max_size=6))
        members = []
        for _ in range(n_members):
            own = moves + draw(st.lists(st.sampled_from(moves), max_size=3))
            order = draw(st.permutations(range(len(own))))
            q = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(own), max_size=len(own)))
            members.append((q, [own[i] for i in order]))
        steps.append(members)
    return n_members, steps


def _walk(steps, n_members=1):
    """The lattice state after steps, each a list of one (q, moves) per member."""
    state = interp._LatticeState([0.5] * n_members, [()] * n_members)
    for members in steps:
        sorted_moves = [interp._sort_moves(np.array(q), moves) for q, moves in members]
        for distinct, _, _ in sorted_moves:
            assert distinct.tolist() == sorted_moves[0][0].tolist()
        state.step(sorted_moves[0][0], *zip(*(m[1:] for m in sorted_moves)))
    return state


@settings(max_examples=200, deadline=None)
@given(lattice_walks())
def test_lattice_step_matches_state_major_sum_bitwise(walk):
    n_members, steps = walk
    expected = []
    for m in range(n_members):
        # states ascending, the member's law entries in its own order: the
        # summation order of the state-major product reduced by np.unique
        # and np.bincount
        sums = {0: 1.0}
        for members in steps:
            q, moves = members[m]
            new = {}
            for key in sorted(sums):
                for qj, (r, s) in zip(q, moves):
                    target = key + (s << (interp._KEY_BITS * r) if r >= 0 else 0)
                    new[target] = new.get(target, 0.0) + sums[key] * qj
            sums = new
        expected.append(sums)
    # one tile per step; one state of the first entry per tile, so that most
    # entries have no states in most tiles; and a few candidates per tile
    for tile in (interp.TILE_CANDIDATES, 1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(interp, "TILE_CANDIDATES", tile)
            state = _walk(steps, n_members)
            for m, sums in enumerate(expected):
                assert state.keys.tolist() == sorted(sums)
                assert state.probs[m].tolist() == [sums[key] for key in sorted(sums)]
                # the one-member state: the member's row does not depend on the others
                alone = _walk([[members[m]] for members in steps])
                assert alone.probs[0].tolist() == state.probs[m].tolist()


def test_lattice_step_limit():
    # 62 unit steps along one direction fill the 7-bit key field; the 63rd
    # stops the row and leaves the state as it was
    state = _walk([[([1.0], [(0, 1)])]] * 62)
    assert state.keys.tolist() == [62] and state.probs[0].tolist() == [1.0]
    steps, layout, q = interp._sort_moves(np.ones(1), [(0, 1)])
    state.step(steps, [layout], [q])
    assert str(state.errors[0]) == "more than 62 product steps"
    assert state.steps_taken == 62 and state.keys.tolist() == [62]
    # steps that move no key never fill a field: 100 of them all run
    state = _walk([[([0.5, 0.5], [(-1, 1), (-1, -1)])]] * 100)
    assert state.errors == {} and state.steps_taken == 100
    assert state.keys.tolist() == [0] and state.probs[0].tolist() == [1.0]


def test_lattice_step_checks_budget_before_building(monkeypatch):
    n_states, n_entries = 20_000, 200
    product_bytes = 8 * n_states * n_entries  # one array of the product
    steps, layout, q = interp._sort_moves(
        np.full(n_entries, 1.0 / n_entries), [(0, 1)] * n_entries
    )

    def traced_step(limit):
        """(state, traced peak bytes, the row's SupportBlowupError or None) of one step."""
        monkeypatch.setattr(interp, "MAX_PRODUCT_STATES", limit)
        state = _walk([])
        state.keys = np.arange(n_states, dtype=np.int64)
        state.probs = [np.full(n_states, 1.0 / n_states)]
        tracemalloc.start()
        state.step(steps, [layout], [q])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return state, peak, state.errors.get(0)

    # within the budget the step holds tiles, never an array of the product
    state, peak, error = traced_step(n_states * n_entries)
    assert error is None and peak < product_bytes // 4
    assert state.steps_taken == 1 and len(state.keys) == n_states
    # past it the row stops before a row of states is allocated, and with
    # no row left the state is not stepped
    state, peak, error = traced_step(n_states * n_entries - 1)
    assert str(error) == (
        f"product of {n_states} states and {n_entries} law entries exceeds "
        f"{n_states * n_entries - 1}"
    )
    assert peak < 8 * n_states
    assert state.probs == [None]
    assert state.steps_taken == 0 and len(state.keys) == n_states
