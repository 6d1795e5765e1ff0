"""Simulated amplitude-amplification maximum finding and its query ledger."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsearch_reference as reference
from qdtree.qsearch import (
    GROWTH,
    ScoringOracle,
    _below,
    _m_schedule,
    default_repeats,
    durr_hoyer_max,
    query_budget,
    repeated_max,
)


class RecordsEvaluations:
    """Probe that records evaluate() calls independently of the ledger."""

    def __init__(self, scores):
        super().__init__(scores)
        self.evaluated = []

    def evaluate(self, index):
        self.evaluated.append(index)
        return super().evaluate(index)


class CountingOracle(RecordsEvaluations, ScoringOracle):
    pass


class CountingReferenceOracle(RecordsEvaluations, reference.ScoringOracle):
    pass


def test_query_budget_values():
    assert query_budget(16) == pytest.approx(22.5 * 4 + 1.4 * 16, abs=1e-9)
    assert query_budget(1024) == pytest.approx(22.5 * 32 + 1.4 * 100, abs=1e-9)
    # grows strictly but sublinearly past small sizes
    assert query_budget(64) < query_budget(256) < query_budget(1024)
    assert query_budget(4096) < 4096


def test_oracle_charges_every_evaluate():
    o = ScoringOracle([3.0, 1.0, 2.0])
    assert o.queries == 0
    o.evaluate(0)
    assert o.queries == 1
    o.evaluate(0)  # cache hit still costs a query
    assert o.queries == 2
    o.charge(5)
    assert o.queries == 7


def test_oracle_reading_scores_is_free():
    o = ScoringOracle([3.0, 1.0, 2.0])
    assert o.scores[0] == 3.0
    assert o.scores[2] == 2.0
    assert o.queries == 0


def test_oracle_needs_a_candidate():
    with pytest.raises(ValueError):
        ScoringOracle([])


def replayed_hit(rng, m, marked, size):
    """The hit draw the reference's measure() is about to make, read from a
    copy of rng."""
    probe = random.Random()
    probe.setstate(rng.getstate())
    angle = math.asin(math.sqrt(marked / size))
    return probe.random() < math.sin((2 * m + 1) * angle) ** 2


def test_oracle_marked_set_queries():
    # the harness rule durr_hoyer_max is held to, on the reference oracle
    vals = [5.0, 1.0, 3.0, 3.0, 8.0]
    assert ScoringOracle(vals).is_max_score(8.0)
    assert not ScoringOracle(vals).is_max_score(5.0)
    o = reference.ScoringOracle(vals)
    rng = random.Random("marked")
    outcomes = set()
    for m in range(4):
        for _ in range(50):
            hit = replayed_hit(rng, m, 2, len(vals))  # 5.0 and 8.0 are above 3.0
            i = o.measure(3.0, m, rng)
            assert (vals[i] > 3.0) == hit  # strictly above on a hit only
            outcomes.add(hit)
            assert vals[o.measure(8.0, m, rng)] <= 8.0  # nothing is marked
    assert outcomes == {True, False}
    assert o.queries == 0  # the harness side never spends queries


def test_hit_odds_match_a_state_vector_grover_iteration():
    # an independent check of the search's physics: m iterations of "flip
    # the signs of the t marked amplitudes, then reflect about the mean",
    # from the uniform state over K amplitudes, leave the marked states
    # with probability sin^2((2m+1) asin sqrt(t/K)) (Boyer, Brassard,
    # Hoyer & Tapp 1998, Lemma 1), which _hit_odds tabulates
    for size in (1, 2, 3, 4, 5, 8, 12, 16, 33, 64):
        oracle = ScoringOracle(list(range(size)))
        iterations = math.isqrt(size) + 2
        for marked in range(size + 1):
            odds = oracle._hit_odds(marked, iterations)
            state = np.full(size, 1 / math.sqrt(size))
            for m in range(iterations):
                assert abs(np.sum(state[:marked] ** 2) - odds[m]) <= 1e-12, (size, marked, m)
                state[:marked] *= -1
                state = 2 * state.mean() - state
        assert oracle.queries == 0


def test_oracle_handles_comparable_nonnumeric_scores():
    # the search only ever compares scores, so tuples work too
    scores = [(i % 2, i) for i in range(5)]
    o = ScoringOracle(scores)
    assert o.is_max_score((1, 3))
    assert not o.is_max_score((1, 1))
    for seed in range(20):
        best, stats = repeated_max(o, 3, random.Random("tuples-%d" % seed))
        assert stats.succeeded == (best == 3)


#: 16 scores with the top one tied at indices 1 and 4, and the
#: (best, oracle_queries, grover_iterations) of seeds "pin-0".."pin-19",
#: recorded before the harness's marked-set lookups became one measure()
#: call. Any change to the order or number of rng draws moves these.
PIN_SCORES = [
    0.3, 0.9, 0.1, 0.5, 0.9, 0.2, 0.7, 0.05, 0.6, 0.4, 0.8, 0.15, 0.35, 0.55, 0.25, 0.45,
]
PIN_SINGLE = [
    (1, 112, 38), (4, 112, 37), (1, 112, 33), (1, 112, 36), (4, 112, 37),
    (1, 112, 35), (4, 112, 33), (4, 112, 37), (4, 112, 36), (1, 112, 37),
    (4, 112, 39), (1, 112, 32), (1, 112, 37), (1, 112, 38), (4, 112, 37),
    (4, 112, 33), (1, 112, 35), (4, 112, 36), (1, 112, 39), (4, 112, 37),
]
PIN_REPEATED = [
    (1, 336, 114), (4, 336, 108), (1, 336, 100), (1, 336, 109), (4, 336, 112),
    (1, 336, 110), (4, 336, 97), (4, 336, 107), (4, 336, 113), (1, 336, 113),
    (4, 336, 112), (1, 336, 101), (1, 336, 110), (1, 336, 113), (4, 336, 108),
    (4, 336, 106), (1, 336, 104), (4, 336, 114), (1, 336, 108), (4, 336, 112),
]


@pytest.mark.parametrize(
    "search, pinned",
    [
        (durr_hoyer_max, PIN_SINGLE),
        (lambda o, rng: repeated_max(o, 3, rng), PIN_REPEATED),
    ],
    ids=["durr_hoyer_max", "repeated_max"],
)
def test_search_draws_are_pinned(search, pinned):
    runs = []
    for seed in range(20):
        best, stats = search(ScoringOracle(PIN_SCORES), random.Random("pin-%d" % seed))
        runs.append((best, stats.oracle_queries, stats.grover_iterations))
    assert runs == pinned


def test_single_item_search():
    o = ScoringOracle([7.0])
    rng = random.Random("k1")
    best, stats = durr_hoyer_max(o, rng)
    assert best == 0
    assert stats.succeeded
    assert stats.oracle_queries >= 1
    assert stats.oracle_queries <= query_budget(1)


def test_search_is_deterministic_for_fixed_seed():
    rng = random.Random("det")
    vals = [rng.uniform(0, 1) for _ in range(32)]
    runs = []
    for _ in range(2):
        o = ScoringOracle(vals)
        best, stats = durr_hoyer_max(o, random.Random("same-seed"))
        runs.append((best, stats.oracle_queries, stats.grover_iterations))
    assert runs[0] == runs[1]


def test_search_never_exceeds_budget():
    # a search stops only with less than one query of budget left, and no
    # round overdraws it, so the spend is exact whatever the draws
    rng = random.Random("budget")
    for _ in range(300):
        # 1024 is the one K <= 200 000 whose budget is whole (860.0)
        k = rng.choice([*range(1, 70), 128, 256, 1024])
        draw = rng.choice((rng.random, lambda: rng.randrange(3), lambda: 1.0))
        vals = [draw() for _ in range(k)]
        o = ScoringOracle(vals)
        _, stats = durr_hoyer_max(o, rng)
        assert stats.oracle_queries == math.floor(query_budget(k))
        assert o.queries == stats.oracle_queries


def test_search_result_never_worse_than_first_draw():
    rng = random.Random("improve")
    for _ in range(200):
        k = rng.choice([4, 8, 32])
        vals = [rng.uniform(0, 1) for _ in range(k)]
        o = CountingOracle(vals)
        best, _ = durr_hoyer_max(o, rng)
        assert vals[best] >= vals[o.evaluated[0]]


def test_query_ledger_is_coherent():
    # queries = 1 start + (one measurement + 2m iterations) per round, so
    # the ledger and the iteration count must reconcile exactly
    rng = random.Random("ledger")
    for _ in range(100):
        k = rng.choice([4, 16, 64])
        vals = [rng.uniform(0, 1) for _ in range(k)]
        o = CountingOracle(vals)
        _, stats = durr_hoyer_max(o, rng)
        assert o.queries == stats.oracle_queries
        assert len(o.evaluated) == stats.oracle_queries - 2 * stats.grover_iterations


def test_search_finds_unique_max_often():
    # one marked item in 4: a fair success floor for a single run is 1/2
    hits = 0
    trials = 1000
    for t in range(trials):
        o = ScoringOracle([0.1, 0.2, 0.3, 0.9])
        best, stats = durr_hoyer_max(o, random.Random("unique-%d" % t))
        hits += best == 3
        assert stats.succeeded == (best == 3)
    assert hits / trials >= 0.48


def test_search_on_constant_scores_always_succeeds():
    for t in range(50):
        o = ScoringOracle([1.0] * 8)
        best, stats = durr_hoyer_max(o, random.Random("const-%d" % t))
        assert 0 <= best < 8
        assert stats.succeeded


def test_default_repeats_is_log_of_size():
    assert default_repeats(1) == 1
    assert default_repeats(2) == 1
    assert default_repeats(4) == 2
    assert default_repeats(5) == 3
    assert default_repeats(16) == 4
    assert default_repeats(256) == 8


def test_repeated_max_single_repeat_matches_plain_search():
    vals = [0.3, 0.9, 0.1, 0.5]
    a_best, a_stats = durr_hoyer_max(ScoringOracle(vals), random.Random("rep-eq"))
    o = ScoringOracle(vals)
    b_best, b_stats = repeated_max(o, 1, random.Random("rep-eq"))
    assert a_best == b_best
    assert a_stats.oracle_queries == b_stats.oracle_queries


def test_repeated_max_aggregates_queries():
    rng = random.Random("agg")
    vals = [rng.uniform(0, 1) for _ in range(16)]
    o = ScoringOracle(vals)
    _, stats = repeated_max(o, 3, random.Random("agg-run"))
    assert o.queries == stats.oracle_queries
    assert stats.oracle_queries == 3 * math.floor(query_budget(16))


def test_repeated_max_drives_failure_rate_down():
    # 10 independent repeats on a 2-item instance: failures should be
    # essentially extinct
    hits = 0
    trials = 400
    for t in range(trials):
        o = ScoringOracle([1.0, 0.0])
        best, stats = repeated_max(o, 10, random.Random("drive-%d" % t))
        hits += best == 0
    assert hits == trials


def test_repeated_max_success_flag_tracks_truth():
    for t in range(100):
        o = ScoringOracle([0.2, 0.8, 0.4, 0.6])
        best, stats = repeated_max(o, 2, random.Random("flag-%d" % t))
        assert stats.succeeded == (best == 1)


def test_mean_queries_scale_like_sqrt():
    rng = random.Random("slope-quick")
    sizes = (16, 64, 256)
    means = []
    for k in sizes:
        total = 0
        trials = 60
        for t in range(trials):
            vals = [rng.uniform(0, 1) for _ in range(k)]
            o = ScoringOracle(vals)
            _, stats = durr_hoyer_max(o, rng)
            total += stats.oracle_queries
        means.append(total / trials)
    slope = np.polyfit(np.log2(sizes), np.log2(means), 1)[0]
    assert 0.3 <= slope <= 0.7


#: Ratio lists drawn from three values, so ties are common, with -inf (an
#: invalid split) mixed in; an all-invalid list is possible too.
SCORE_LISTS = st.lists(
    st.sampled_from((-math.inf, 0.25, 0.5, 0.75)),
    min_size=1,
    max_size=64,
)


@settings(max_examples=200, deadline=None)
@given(scores=SCORE_LISTS, seed=st.integers(0, 2**32), repeats=st.integers(1, 4))
def test_repeated_max_wins_with_the_best_evaluated_score(scores, seed, repeats):
    # why q_choose_split needs no fallback: a -inf winner means every
    # ratio the searches paid to see was -inf
    o = CountingOracle(scores)
    best, _ = repeated_max(o, repeats, random.Random(seed))
    assert scores[best] == max(scores[i] for i in o.evaluated)


@st.composite
def search_cases(draw):
    """(scores, repeats, seed): K in 1..100, 256 or 1024; tied ratios with
    -inf among them, uniform floats, tied tuples, or an all-invalid list."""
    size = draw(st.one_of(st.integers(1, 100), st.sampled_from((256, 1024))))
    kind = draw(st.sampled_from(("ties", "uniform", "tuples", "invalid")))
    gen = random.Random(draw(st.integers(0, 2**32)))
    if kind == "ties":
        scores = [gen.choice((-math.inf, 0.25, 0.5, 0.75)) for _ in range(size)]
    elif kind == "uniform":
        scores = [gen.random() for _ in range(size)]
    elif kind == "tuples":
        scores = [(gen.randrange(3), gen.randrange(2)) for _ in range(size)]
    else:
        scores = [-math.inf] * size
    return scores, draw(st.integers(1, 8)), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(case=search_cases())
# the whole-number budget, a schedule of one entry, and m_max landing on its cap
@example(case=([(i * 37 % 1024) / 1024 for i in range(1024)], 2, 5))
@example(case=([0.5], 3, 0))
@example(case=(PIN_SCORES, 4, 1))
def test_search_matches_the_reference_draw_for_draw(case):
    scores, repeats, seed = case
    new_oracle, ref_oracle = CountingOracle(scores), CountingReferenceOracle(scores)
    new_rng, ref_rng = random.Random(seed), random.Random(seed)
    assert repeated_max(new_oracle, repeats, new_rng) == reference.repeated_max(
        ref_oracle, repeats, ref_rng
    )
    assert new_oracle.queries == ref_oracle.queries
    assert new_oracle.evaluated == ref_oracle.evaluated
    assert new_rng.getstate() == ref_rng.getstate()


def test_m_schedule_follows_the_reference_recurrence():
    # each entry is int(m_max) after j straight failures, computed as
    # qsearch_reference.durr_hoyer_max computes it, and the last is the cap
    for size in range(1, 4097):
        m_cap = math.sqrt(size)
        m_max = 1.0
        want = [int(m_max)]
        while m_max < m_cap:
            m_max = min(m_max * GROWTH, m_cap)
            want.append(int(m_max))
        schedule = _m_schedule(size)
        assert [n for n, _ in schedule] == want
        assert [k for _, k in schedule] == [n.bit_length() for n in want]
        assert schedule[-1][0] == int(m_cap)


@pytest.mark.parametrize(
    "sizes",
    [range(1, 601), (2**31 - 1, 2**31, 2**32 + 5, 10**12)],
    ids=["1-600", "word-boundaries"],
)
def test_below_draws_what_randrange_draws(sizes):
    for n in sizes:
        ours, theirs = random.Random("below-%d" % n), random.Random("below-%d" % n)
        for _ in range(20):
            assert _below(ours.getrandbits, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()


class RecordingRandom(random.Random):
    """Records the name of every attribute looked up on the rng."""

    def __init__(self, seed):
        self.looked_up = []
        super().__init__(seed)
        self.looked_up.clear()

    def __getattribute__(self, name):
        if name != "looked_up":
            self.looked_up.append(name)
        return super().__getattribute__(name)


def test_search_draws_only_through_random_and_getrandbits():
    rng = RecordingRandom("draws")
    durr_hoyer_max(ScoringOracle(PIN_SCORES), rng)
    repeated_max(ScoringOracle([0.5, -math.inf, 0.5]), 3, rng)
    assert set(rng.looked_up) == {"random", "getrandbits"}
