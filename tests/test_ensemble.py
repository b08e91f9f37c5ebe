"""Unit tests for instance sampling, exact counting, and the Gibbs summaries."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rcsp.ensemble as en
from rcsp.ensemble import (
    GibbsSummary,
    InstanceFormatError,
    NaeInstance,
    RetryExhaustedError,
    clause_resample_sensitivity,
    concentration_experiment,
    count_solutions,
    count_solutions_dfs,
    is_satisfiable,
    is_simple,
    partition_function,
    read_instance,
    sample_instance,
    sat_sweep,
    violation_histogram,
    write_instance,
)
from rcsp.firstmoment import ez_col


def tiny_instance(literals=((0, 0),), model="coloring"):
    # one clause over two degree-1 variables
    return NaeInstance(
        n=2, m=1, k=2, d=1, clauses=((0, 1),), literals=literals,
        model=model,
    )


def test_is_simple():
    assert is_simple(((0, 1, 2), (2, 3, 4)))
    assert not is_simple(((0, 1, 1),))


def test_instance_validation():
    good = tiny_instance()
    assert good.n == 2
    with pytest.raises(ValueError):
        NaeInstance(n=2, m=1, k=2, d=2, clauses=((0, 1),), literals=((0, 0),),
                    model="nae")
    with pytest.raises(ValueError):
        NaeInstance(n=2, m=2, k=2, d=1, clauses=((0, 1),), literals=((0, 0),),
                    model="nae")
    with pytest.raises(ValueError):
        NaeInstance(n=2, m=1, k=2, d=1, clauses=((0, 5),), literals=((0, 0),),
                    model="nae")
    with pytest.raises(ValueError):
        NaeInstance(n=2, m=1, k=2, d=1, clauses=((0, 0),), literals=((0, 0),),
                    model="nae")  # repeated variable, wrong degree
    with pytest.raises(ValueError):
        NaeInstance(n=2, m=1, k=2, d=1, clauses=((0, 1),), literals=((0, 2),),
                    model="nae")
    with pytest.raises(ValueError):
        NaeInstance(n=2, m=1, k=2, d=1, clauses=((0, 1),), literals=((0, 1),),
                    model="coloring")
    with pytest.raises(ValueError):
        tiny_instance(model="xor")
    with pytest.raises(ValueError, match="^clause or literal row count differs from m$"):
        NaeInstance(n=2, m=1, k=2, d=1, clauses=((0, 1),), literals=((0, 0), (0, 0)),
                    model="nae")
    with pytest.raises(ValueError, match="^clause 0 does not have 2 slots$"):
        NaeInstance(n=2, m=1, k=2, d=1, clauses=((0, 1),), literals=((0,),), model="nae")


def test_sampling_is_deterministic():
    a = sample_instance(12, 3, 4, seed=7)
    b = sample_instance(12, 3, 4, seed=7)
    c = sample_instance(12, 3, 4, seed=8)
    assert a == b
    assert a != c
    assert a.simple == is_simple(a.clauses)


def test_sampling_models():
    col = sample_instance(9, 3, 2, seed=0, model="coloring")
    assert col.model == "coloring"
    assert all(not any(li) for li in col.literals)
    nae = sample_instance(9, 3, 2, seed=0, model="nae")
    assert nae.clauses == col.clauses  # literals come after the matching
    assert any(any(li) for li in nae.literals)
    with pytest.raises(ValueError):
        sample_instance(9, 3, 2, seed=0, model="xor")
    with pytest.raises(ValueError):
        sample_instance(8, 3, 2, seed=0)


def test_sampling_require_simple():
    inst = sample_instance(9, 3, 3, seed=5, require_simple=True)
    assert inst.simple
    # a single clause over one degree-2 variable can never be simple
    with pytest.raises(RetryExhaustedError):
        sample_instance(1, 2, 2, seed=0, require_simple=True, max_retries=50)


def test_count_tiny_by_hand():
    assert count_solutions(tiny_instance()) == 2  # 01 and 10
    flipped = tiny_instance(literals=((0, 1),), model="nae")
    assert count_solutions(flipped) == 2  # 00 and 11
    hist = violation_histogram(tiny_instance())
    assert hist == [2, 2]


@pytest.mark.parametrize("model", ("nae", "coloring"))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_count_matches_dfs(model, seed):
    inst = sample_instance(12, 3, 4, seed=seed, model=model)
    assert count_solutions(inst) == count_solutions_dfs(inst)


def test_count_chunked_path(monkeypatch):
    # shrink the tensor block so the outer-counter path actually runs
    monkeypatch.setattr(en, "CHUNK_VARS", 5)
    for seed in (4, 5):
        inst = sample_instance(12, 3, 4, seed=seed)
        assert count_solutions(inst) == count_solutions_dfs(inst)
        hist = violation_histogram(inst)
        assert hist[0] == count_solutions_dfs(inst)
        assert sum(hist) == 2**12


def brute_histogram(inst):
    # the definition itself: a clause is violated when its literal-adjusted
    # values all agree
    hist = [0] * (inst.m + 1)
    for x in itertools.product((0, 1), repeat=inst.n):
        bad = sum(
            len({x[v] ^ lit for v, lit in zip(cl, li)}) == 1
            for cl, li in zip(inst.clauses, inst.literals)
        )
        hist[bad] += 1
    return hist


@settings(max_examples=100, deadline=None)
@given(
    model=st.sampled_from(("nae", "coloring")),
    k=st.sampled_from((2, 4)),
    n=st.integers(1, 12),
    d=st.integers(1, 6),
    chunk=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(model="nae", k=2, n=3, d=2, chunk=1, seed=0)
@example(model="nae", k=2, n=1, d=2, chunk=1, seed=0)  # no block variable
@example(model="coloring", k=2, n=2, d=2, chunk=1, seed=0)  # x_0 alone leads
def test_blocks_match_brute_force(model, k, n, d, chunk, seed):
    # chunk sizes from 1 to n put patterns in the base, in outer-only groups
    # and in mixed groups, and set the Gray walk's length; x_0 always leads,
    # so no chunk puts every pattern in the base.  Small n makes repeated
    # variables common
    assume((n * d) % k == 0)
    inst = sample_instance(n, k, d, seed, model=model)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(en, "CHUNK_VARS", min(chunk, n))
        hist = violation_histogram(inst)
        count = count_solutions(inst)
    assert hist == brute_histogram(inst)
    assert count == count_solutions_dfs(inst) == hist[0]


@settings(max_examples=50, deadline=None)
@given(
    model=st.sampled_from(("nae", "coloring")),
    k=st.sampled_from((2, 3)),
    n=st.integers(1, 10),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_histogram_flip_symmetric(model, k, n, d, seed):
    # the premise of the halved walk, on the definition alone: flipping every
    # variable pairs the assignments and keeps each clause's status
    assume((n * d) % k == 0)
    inst = sample_instance(n, k, d, seed, model=model)
    assert all(c % 2 == 0 for c in brute_histogram(inst))


@pytest.mark.parametrize("n", (1, 12, 17, 24))
def test_blocks_walk_half(n):
    # only x_0 = 0 is enumerated: a walk over both halves fails here if it
    # does not double, and fails the totals checks if it does
    inst = sample_instance(n, 2, 2, seed=n)
    assert sum(block.size for block in en._blocks(inst)) == 2 ** (n - 1)


def test_count_gray_walk_matches_dfs():
    # default CHUNK_VARS at n = 20 leaves four leading variables: x_0 pinned
    # and three flipped by the Gray walk; the literals are random
    inst = sample_instance(20, 4, 4, seed=7)
    assert any(any(li) for li in inst.literals)
    assert count_solutions(inst) == count_solutions_dfs(inst)


def test_count_above_histogram_cap_walks_blocks(monkeypatch):
    # n = 31 is past TENSOR_VARS_LIMIT, the histogram cap, yet the count
    # still walks the blocks; the DFS oracle agrees (unsatisfiable at d = 9)
    inst = sample_instance(31, 3, 9, 0, model="coloring")
    assert inst.n > en.TENSOR_VARS_LIMIT
    monkeypatch.setattr(en, "count_solutions_dfs", None)
    assert count_solutions(inst) == 0
    assert count_solutions_dfs(inst) == 0


def test_blocks_clashing_bits_and_uint16(monkeypatch):
    # clause 0 repeats a variable with clashing literals, so neither side
    # survives and it is never violated; clause 1 repeats one with equal
    # literals and is always violated
    clash = NaeInstance(
        n=2, m=2, k=2, d=2, clauses=((0, 0), (1, 1)), literals=((0, 1), (0, 0)),
        model="nae",
    )
    assert violation_histogram(clash) == brute_histogram(clash) == [0, 4, 0]
    # m = 264 takes the uint16 path; the all-zero coloring violates all 264
    wide = sample_instance(12, 2, 44, seed=3, model="coloring")
    expected = brute_histogram(wide)
    for chunk in (1, 5, 12):
        monkeypatch.setattr(en, "CHUNK_VARS", chunk)
        assert violation_histogram(wide) == expected
        assert count_solutions(wide) == count_solutions_dfs(wide) == expected[0]
    # m = 70000 needs uint32: in uint16 the counts wrapped to 4464 and 34924
    wider = sample_instance(2, 2, 70000, 1, model="coloring")
    assert violation_histogram(wider) == brute_histogram(wider)


def _two_flip_pin_patterns(inst):
    # reference: each side of each clause built in its own flip loop
    patterns = []
    for cl, li in zip(inst.clauses, inst.literals):
        sides = []
        for flip in (0, 1):
            need = {}
            ok = True
            for v, lit in zip(cl, li):
                bit = lit ^ flip
                if need.setdefault(v, bit) != bit:
                    ok = False
                    break
            if ok:
                items = sorted(need.items())
                sides.append((tuple(v for v, _ in items), tuple(b for _, b in items)))
        patterns.append(tuple(sides))
    return patterns


@pytest.mark.parametrize("model", ("nae", "coloring"))
def test_clause_pin_patterns_match_two_flip_reference(model):
    repeats = clashes = 0
    for seed in range(400):
        inst = sample_instance(6, 3, 2 + seed % 4, seed, model=model)
        got = en._clause_pin_patterns(inst)
        assert got == _two_flip_pin_patterns(inst)
        repeats += sum(len(set(cl)) < inst.k for cl in inst.clauses)
        clashes += got.count(())
    assert repeats > 0
    assert (clashes > 0) == (model == "nae")  # all-zero literals never clash


@st.composite
def oracle_sized_instances(draw):
    # the DFS oracle prunes only at full clauses, so its cost follows the
    # solution count: d starts where the expected count 2^n (1 - 2^(1-k))^m
    # falls to 2^6, and at 1 for n <= 6
    model = draw(st.sampled_from(("nae", "coloring")))
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 24))
    d_lo = k * (n - 6) * math.log(2) / (n * -math.log1p(-(2.0 ** (1 - k))))
    d = draw(st.integers(max(1, math.ceil(d_lo)), max(1, math.ceil(d_lo)) + 2 * k))
    assume((n * d) % k == 0)
    return sample_instance(n, k, d, draw(st.integers(0, 2**32 - 1)), model=model)


@settings(max_examples=100, deadline=None)
@given(inst=oracle_sized_instances())
# repeated variables: clashing literals (never violated) beside equal ones
# (always violated); an equal pair forcing the third variable, satisfiable
# and not; and the m = 264 multigraph of the uint16 blocks
@example(inst=NaeInstance(n=2, m=2, k=2, d=2, clauses=((0, 0), (1, 1)),
                          literals=((0, 1), (0, 0)), model="nae"))
@example(inst=NaeInstance(n=2, m=2, k=2, d=2, clauses=((0, 0), (1, 1)),
                          literals=((0, 1), (1, 0)), model="nae"))
@example(inst=NaeInstance(n=2, m=2, k=3, d=3, clauses=((0, 0, 1), (1, 1, 0)),
                          literals=((0, 0, 0), (0, 0, 0)), model="coloring"))
@example(inst=NaeInstance(n=2, m=2, k=3, d=3, clauses=((0, 0, 1), (1, 1, 0)),
                          literals=((0, 0, 0), (1, 1, 0)), model="nae"))
@example(inst=sample_instance(12, 2, 44, seed=3, model="coloring"))
def test_decision_matches_counts(inst):
    assert is_satisfiable(inst) == (count_solutions(inst) > 0) == (count_solutions_dfs(inst) > 0)


def test_decision_past_the_count_cap():
    # n = 60 is past COUNT_VARS_LIMIT; far below and far above d_star(3) =
    # 6.74 the answers are not in doubt
    assert all(is_satisfiable(sample_instance(60, 3, 4, s, model="coloring")) for s in range(3))
    assert not any(is_satisfiable(sample_instance(60, 3, 9, s)) for s in range(3))


@pytest.mark.parametrize("build", (violation_histogram, count_solutions))
def test_blocks_bounded_memory(build):
    inst = sample_instance(24, 3, 9, seed=1, model="coloring")
    tracemalloc.start()
    try:
        build(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_count_size_caps():
    big = sample_instance(36, 3, 1, seed=0)
    with pytest.raises(ValueError):
        count_solutions(big)
    with pytest.raises(ValueError):
        violation_histogram(sample_instance(33, 3, 1, seed=0))


def test_histogram_total_and_zero_bucket():
    inst = sample_instance(14, 2, 2, seed=9)
    hist = violation_histogram(inst)
    assert sum(hist) == 2**14
    assert hist[0] == count_solutions(inst) == count_solutions_dfs(inst)
    assert len(hist) == inst.m + 1


def test_partition_function_properties():
    inst = sample_instance(12, 3, 4, seed=11)
    z0 = partition_function(inst, 0.0)
    assert z0.logZ == pytest.approx(12 * math.log(2.0), rel=1e-15)
    assert z0.free_energy_per_var == pytest.approx(math.log(2.0), rel=1e-15)
    values = [partition_function(inst, b).logZ for b in (0.0, 0.5, 1.0, 2.0, 8.0)]
    assert all(a > b for a, b in zip(values, values[1:]))  # decreasing in beta
    count = count_solutions(inst)
    assert count >= 1
    frozen = partition_function(inst, en.BETA_INFINITY)
    assert frozen.logZ == pytest.approx(math.log(count), abs=1e-9)
    assert frozen.solution_count == count
    for beta in (-1.0, math.nan, math.inf):  # at inf the 0 * inf term is nan
        with pytest.raises(ValueError, match="beta must be >= 0 and finite"):
            partition_function(inst, beta)


def test_gibbs_summary_floor():
    with pytest.raises(ValueError):
        GibbsSummary(beta=1.0, logZ=0.0, solution_count=10, free_energy_per_var=0.0)
    with pytest.raises(ValueError):
        GibbsSummary(beta=1.0, logZ=0.0, solution_count=-1, free_energy_per_var=0.0)
    # with no solutions Z may drop below 1; the floor is vacuous there
    tiny = GibbsSummary(beta=9.0, logZ=-12.0, solution_count=0, free_energy_per_var=-0.5)
    assert tiny.solution_count == 0


def test_partition_function_unsat_regime():
    # overloaded instances usually have no solution; ln Z then sits below 0
    # at large beta and the summary must accept it
    inst = sample_instance(12, 3, 9, seed=100, model="coloring")
    if count_solutions(inst) == 0:
        g = partition_function(inst, 8.0)
        assert g.solution_count == 0
        assert g.logZ < 0.0


def test_swap_slots_involution():
    inst = sample_instance(9, 3, 2, seed=3)
    swapped = en._swap_slots(inst, 0, 4)
    assert en._swap_slots(swapped, 0, 4) == inst
    assert swapped.literals == inst.literals


def test_simple_is_derived(tmp_path):
    inst = sample_instance(9, 3, 3, seed=5, require_simple=True)
    # move another copy of clause 0's slot-1 variable into its slot 0
    v = inst.clauses[0][1]
    s = next(3 * a + j for a, cl in enumerate(inst.clauses[1:], 1) for j, u in enumerate(cl) if u == v)
    swapped = en._swap_slots(inst, 0, s)
    path = tmp_path / "swapped.txt"
    write_instance(swapped, path)
    for x, simple in ((inst, True), (swapped, False), (read_instance(path), False)):
        assert x.simple == is_simple(x.clauses) == simple


def test_resample_sensitivity_bound():
    inst = sample_instance(12, 3, 3, seed=21)
    for beta in (0.5, 2.0):
        worst = clause_resample_sensitivity(inst, beta, trials=8, seed=1)
        assert 0.0 <= worst <= 2.0 * beta + 1e-12
    again = clause_resample_sensitivity(inst, 2.0, trials=8, seed=1)
    assert again == clause_resample_sensitivity(inst, 2.0, trials=8, seed=1)
    with pytest.raises(ValueError):
        clause_resample_sensitivity(sample_instance(27, 3, 1, seed=0), 1.0, 1, 0)
    with pytest.raises(ValueError):
        clause_resample_sensitivity(inst, 1.0, trials=0, seed=0)


def test_concentration_experiment():
    stats = concentration_experiment([6, 12], 3, 2, beta=1.0, samples=4, seed=19)
    assert [s.n for s in stats] == [6, 12]
    for s in stats:
        assert s.samples == 4
        assert s.std is not None and s.std >= 0.0
        assert 0.0 < s.mean < math.log(2.0) + 1e-12
    single = concentration_experiment([6], 3, 2, beta=1.0, samples=1, seed=19)
    assert single[0].std is None
    again = concentration_experiment([6, 12], 3, 2, beta=1.0, samples=4, seed=19)
    assert stats == again
    with pytest.raises(ValueError):
        concentration_experiment([6], 3, 2, beta=1.0, samples=0, seed=0)


def test_sat_sweep():
    points = sat_sweep(3, 12, [2, 9], trials=12, seed=2, model="coloring")
    assert [p.d for p in points] == [2, 9]
    assert all(0.0 <= p.sat_fraction <= 1.0 for p in points)
    assert points[0].sat_fraction > points[1].sat_fraction
    assert points == sat_sweep(3, 12, [2, 9], trials=12, seed=2, model="coloring")
    with pytest.raises(ValueError):
        sat_sweep(3, 12, [2], trials=0, seed=0)


def test_matching_average_equals_expected_count():
    # brute-force the configuration model: averaging the exact solution
    # count over all 6! matchings must reproduce the expected coloring
    # count exactly
    n, k, d = 3, 3, 2
    nd = n * d
    total = Fraction(0)
    for perm in itertools.permutations(range(nd)):
        clauses = tuple(
            tuple(perm[a * k + j] // d for j in range(k)) for a in range(n * d // k)
        )
        inst = NaeInstance(
            n=n, m=nd // k, k=k, d=d, clauses=clauses,
            literals=((0,) * k,) * (nd // k),
            model="coloring",
        )
        total += count_solutions(inst)
    assert total / math.factorial(nd) == ez_col(n, k, d)


def test_file_round_trip(tmp_path):
    for model, seed in (("nae", 31), ("coloring", 32)):
        inst = sample_instance(12, 3, 4, seed=seed, model=model)
        path = tmp_path / f"{model}.txt"
        write_instance(inst, path)
        assert read_instance(path) == inst
        # byte determinism of the writer
        path2 = tmp_path / f"{model}2.txt"
        write_instance(inst, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_read_instance_errors(tmp_path):
    def reject(text, needle):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InstanceFormatError) as err:
            read_instance(path)
        assert needle in str(err.value)

    reject("", "empty file")
    reject("p wrong nae 2 2 1 1\nc 1 0 2 0\n", "header must be")
    reject("p rcsp xor 2 2 1 1\nc 1 0 2 0\n", "unknown model")
    reject("p rcsp nae x 2 1 1\nc 1 0 2 0\n", "expected k")
    reject("p rcsp nae 2 2 1 2\nc 1 0 2 0\n", "n*d = 4 but m*k = 2")
    reject("p rcsp nae 2 2 1 1\n", "promises 1 clause lines, found 0")
    reject("p rcsp nae 2 2 1 1\nd 1 0 2 0\n", "must start with 'c'")
    reject("p rcsp nae 2 2 1 1\nc 1 0\n", "expected 4 tokens")
    reject("p rcsp nae 2 2 1 1\nc 1 0 9 0\n", "variable 9 outside 1..2")
    reject("p rcsp nae 2 2 1 1\nc 1 0 2 3\n", "literal bit must be 0 or 1")
    reject("p rcsp nae 2 2 1 1\nc 1 0 1 1\n", "variable 1 has degree 2")
    reject("p rcsp coloring 2 2 1 1\nc 1 0 2 1\n", "all-zero literals")


def test_read_instance_whitespace_tolerant(tmp_path):
    path = tmp_path / "ws.txt"
    path.write_text("\np rcsp nae 2 2 1 1\n\n   c  1 0   2 1\n\n")
    inst = read_instance(path)
    assert inst.clauses == ((0, 1),)
    assert inst.literals == ((0, 1),)
