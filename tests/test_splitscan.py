"""Fast split scanners vs the brute-force reference, plus pinned tallies."""

import math
import random

import numpy as np
import pytest

from qdtree import oracle
from qdtree.counters import BASELINE, TREEMAP, make_backend
from qdtree.criteria import (
    OpTally,
    gain,
    gain_ratio,
    potential_information,
    xlog2x,
)
from qdtree.dataset import (
    DISCRETE,
    REAL,
    Attribute,
    AttributeSchema,
    Dataset,
    SubsetView,
)
from qdtree.splitscan import (
    SplitTest,
    build_real_scan,
    process_attribute,
    process_discrete_attribute,
    real_split_candidates,
    scan_real_attribute,
)
from qdtree.synth import random_dataset, random_schema

ENTROPY_3_1 = 0.8112781244591328
GAIN_3_1_AT_25 = 0.3112781244591328
RATIO_2_2_AT_35 = 0.3836885465963443


def real_data(values, labels):
    schema = AttributeSchema((Attribute("x1", REAL),), class_count=max(labels))
    names = tuple("c%d" % (i + 1) for i in range(max(labels)))
    return Dataset(schema, [values], labels, names)


def disc_data(values, labels, t):
    schema = AttributeSchema((Attribute("c1", DISCRETE, t),), class_count=max(labels))
    names = tuple("c%d" % (i + 1) for i in range(max(labels)))
    return Dataset(schema, [values], labels, names)


def backend_for(data, name=TREEMAP):
    return make_backend(name, data.schema.class_count, OpTally())


def test_split_test_validation():
    SplitTest(0, REAL, theta=1.5)
    SplitTest(1, DISCRETE, branch_count=3)
    with pytest.raises(ValueError):
        SplitTest(0, REAL)  # real needs a threshold
    with pytest.raises(ValueError):
        SplitTest(0, DISCRETE, theta=1.0)
    with pytest.raises(ValueError):
        SplitTest(0, DISCRETE, branch_count=1)
    with pytest.raises(ValueError):
        SplitTest(-1, REAL, theta=0.0)


def test_scan_real_separable_pair():
    data = real_data([1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2])
    score, test = scan_real_attribute(data.full_view(), 0, backend_for(data))
    assert test == SplitTest(0, REAL, theta=2.5)
    assert score.ratio == pytest.approx(1.0, abs=1e-12)


def test_scan_real_prefers_pure_singleton_cut():
    data = real_data([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 2])
    score, test = scan_real_attribute(data.full_view(), 0, backend_for(data))
    assert test.theta == 3.5
    assert score.gain == pytest.approx(ENTROPY_3_1, abs=1e-15)
    assert score.potential == pytest.approx(ENTROPY_3_1, abs=1e-15)
    assert score.ratio == pytest.approx(1.0, abs=1e-12)


def test_scan_real_candidate_table_values():
    data = real_data([1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2])
    cands = real_split_candidates(data.full_view(), 0, backend_for(data))
    assert [theta for theta, _ in cands] == [1.5, 2.5, 3.5]
    by_theta = dict(cands)
    assert by_theta[3.5].gain == pytest.approx(GAIN_3_1_AT_25, abs=1e-15)
    assert by_theta[3.5].potential == pytest.approx(ENTROPY_3_1, abs=1e-15)
    assert by_theta[3.5].ratio == pytest.approx(RATIO_2_2_AT_35, abs=1e-15)
    assert by_theta[1.5].ratio == pytest.approx(RATIO_2_2_AT_35, abs=1e-15)


def test_scan_real_constant_column_returns_nothing():
    data = real_data([5.0, 5.0, 5.0], [1, 2, 1])
    assert scan_real_attribute(data.full_view(), 0, backend_for(data)) is None


def test_scan_real_no_threshold_between_equal_values():
    data = real_data([1.0, 1.0, 2.0, 2.0], [1, 2, 1, 2])
    cands = real_split_candidates(data.full_view(), 0, backend_for(data))
    assert [theta for theta, _ in cands] == [1.5]


def test_scan_real_tie_takes_lowest_threshold():
    # symmetric labels: the 1|3 and 3|1 cuts score identically
    data = real_data([1.0, 2.0, 3.0, 4.0], [1, 2, 2, 1])
    score, test = scan_real_attribute(data.full_view(), 0, backend_for(data))
    cands = dict(real_split_candidates(data.full_view(), 0, backend_for(data)))
    assert cands[1.5].ratio == pytest.approx(cands[3.5].ratio, abs=1e-15)
    assert test.theta == 1.5


def test_prefix_and_suffix_tables_match_from_scratch():
    rng = random.Random("prefix-tables")
    for _ in range(40):
        n = rng.randint(2, 40)
        m = rng.randint(2, 4)
        values = [rng.uniform(0, 4) for _ in range(n)]
        labels = [rng.randint(1, m) for _ in range(n)]
        labels[0] = m  # pin class_count
        data = real_data(values, labels)
        state = build_real_scan(data.full_view(), 0, backend_for(data))
        order = sorted(range(n), key=lambda i: values[i])  # stable
        sorted_labels = [labels[i] for i in order]
        assert state.labels.tolist() == sorted_labels
        for u in range(1, n + 1):
            want = oracle.label_entropy(sorted_labels[:u])
            assert state.prefix_info[u] == pytest.approx(want, abs=1e-9)
        for u in range(1, n + 1):
            want = oracle.label_entropy(sorted_labels[u - 1 :])
            assert state.suffix_info[u] == pytest.approx(want, abs=1e-9)


def test_real_scan_uses_stable_order():
    # equal values keep their row order: rows 1, 3, 0, 2 in that order
    data = real_data([2.0, 1.0, 2.0, 1.0], [1, 1, 2, 2])
    state = build_real_scan(data.full_view(), 0, backend_for(data))
    assert state.labels.tolist() == [1, 2, 1, 2]
    assert list(state.values) == [1.0, 1.0, 2.0, 2.0]


def test_discrete_two_blocks_scores_one():
    data = disc_data([1, 1, 2, 2], [1, 1, 2, 2], 2)
    score, test = process_discrete_attribute(data.full_view(), 0, backend_for(data))
    assert test == SplitTest(0, DISCRETE, branch_count=2)
    assert score.ratio == pytest.approx(1.0, abs=1e-12)


def test_discrete_uninformative_is_valid_zero():
    data = disc_data([1, 2, 1, 2], [1, 1, 2, 2], 2)
    score, _ = process_discrete_attribute(data.full_view(), 0, backend_for(data))
    assert score.valid
    assert score.gain == pytest.approx(0.0, abs=1e-12)
    assert score.ratio == pytest.approx(0.0, abs=1e-12)


def test_discrete_three_sample_hand_values():
    data = disc_data([1, 1, 2], [1, 2, 2], 2)
    score, _ = process_discrete_attribute(data.full_view(), 0, backend_for(data))
    assert score.gain == pytest.approx(0.2516291673878229, abs=1e-15)
    assert score.potential == pytest.approx(0.9182958340544896, abs=1e-15)
    assert score.ratio == pytest.approx(0.2740175421212810, abs=1e-15)


def test_discrete_single_value_returns_nothing():
    data = disc_data([2, 2, 2], [1, 2, 1], 3)
    assert process_discrete_attribute(data.full_view(), 0, backend_for(data)) is None


def test_incremental_matches_batch_on_random_instances():
    rng = random.Random("inc-batch")
    cases = [([1, 2, 2, 3, 1, 2], [1, 1, 2, 2, 1, 2], 3)]
    for _ in range(60):
        n = rng.randint(2, 48)
        t = rng.randint(2, 5)
        m = rng.randint(2, 4)
        values = [rng.randint(1, t) for _ in range(n)]
        labels = [rng.randint(1, m) for _ in range(n)]
        labels[0] = m
        cases.append((values, labels, t))
    for values, labels, t in cases:
        data = disc_data(values, labels, t)
        got = process_discrete_attribute(data.full_view(), 0, backend_for(data))
        parts = [[c for c, w in zip(labels, values) if w == v] for v in range(1, t + 1)]
        if sum(1 for p in parts if p) <= 1:
            assert got is None
            continue
        m = max(labels)
        counts = [[p.count(j) for j in range(1, m + 1)] for p in [labels] + parts]
        batch_gain = gain(counts[0], counts[1:])
        batch = gain_ratio(batch_gain, potential_information([len(p) for p in parts]))
        score, test = got
        assert test.branch_count == t
        assert score.gain == pytest.approx(batch.gain, abs=1e-9)
        assert score.potential == pytest.approx(batch.potential, abs=1e-9)
        if batch.valid:
            assert score.ratio == pytest.approx(batch.ratio, abs=1e-9)
        else:
            assert not score.valid


def test_process_attribute_dispatch():
    schema = AttributeSchema(
        (Attribute("x1", REAL), Attribute("c1", DISCRETE, 2)), class_count=2
    )
    data = Dataset(schema, [[1.0, 2.0], [1, 2]], [1, 2], ("a", "b"))
    backend = backend_for(data)
    r_score, r_test = process_attribute(data.full_view(), 0, backend)
    d_score, d_test = process_attribute(data.full_view(), 1, backend)
    assert r_test.kind == REAL and d_test.kind == DISCRETE
    assert r_score.ratio == d_score.ratio == pytest.approx(1.0, abs=1e-12)


def test_tiny_views_are_unsplittable():
    data = real_data([1.0, 2.0], [1, 2])
    solo = SubsetView(data, [0])
    backend = backend_for(data)
    assert process_attribute(solo, 0, backend) is None
    empty = SubsetView(data, [])
    assert process_attribute(empty, 0, backend) is None


def test_scanner_matches_reference_on_random_views():
    rng = random.Random("scan-vs-ref")
    for i in range(40):
        schema = random_schema(rng.randint(1, 5), rng.randint(2, 4), seed=i)
        data = random_dataset(schema, rng.randint(2, 40), seed=i)
        view = data.full_view()
        backend = backend_for(data, TREEMAP if i % 2 else BASELINE)
        for attr in range(schema.attribute_count):
            got = process_attribute(view, attr, backend)
            want = oracle.attribute_best(view, attr)
            if want is None:
                if got is not None:
                    assert not got[0].valid
                continue
            assert got is not None
            score, test = got
            assert score.gain == pytest.approx(want.gain, abs=1e-9)
            assert score.potential == pytest.approx(want.potential, abs=1e-9)
            if want.valid:
                assert score.ratio == pytest.approx(want.ratio, abs=1e-9)
                if test.kind == REAL:
                    # near-ties may resolve differently across arithmetic
                    # orders, so require membership in the tolerance argmax
                    # set rather than the oracle's own pick
                    table = {
                        c.theta: c
                        for c in oracle.candidates_for_attribute(view, attr)
                    }
                    chosen = table[min(table, key=lambda t: abs(t - test.theta))]
                    assert abs(chosen.theta - test.theta) < 1e-12
                    assert chosen.ratio >= want.ratio - 1e-9
            else:
                assert not score.valid


def test_backends_score_identically():
    rng = random.Random("backend-score")
    for i in range(25):
        schema = random_schema(rng.randint(1, 4), rng.randint(2, 5), seed=100 + i)
        data = random_dataset(schema, rng.randint(2, 30), seed=100 + i)
        view = data.full_view()
        dense = backend_for(data, BASELINE)
        sparse = backend_for(data, TREEMAP)
        for attr in range(schema.attribute_count):
            a = process_attribute(view, attr, dense)
            b = process_attribute(view, attr, sparse)
            if a is None or b is None:
                assert a is None and b is None
                continue
            # bit-identical scores, not merely close: same arithmetic order
            assert a[0].gain == b[0].gain
            assert a[0].potential == b[0].potential
            assert a[0].ratio == b[0].ratio
            assert a[1] == b[1]


@pytest.mark.parametrize(
    "name, element_ops, maintenance_ops",
    [(BASELINE, 36, 38), (TREEMAP, 162, 23)],
)
def test_discrete_scan_tallies_are_pinned(name, element_ops, maintenance_ops):
    # 3 classes over a 4-way attribute: baseline maintenance is allocating
    # and releasing the T-slot branch-size array plus allocating and clearing
    # the M and M*T dense counters: 2*4 + 2*3 + 2*12 = 38
    values = [1, 3, 2, 4, 1, 2, 3, 3, 4, 1, 2, 4, 3, 1, 2, 2, 4, 3]
    labels = [1, 2, 3, 1, 3, 2, 1, 3, 2, 2, 1, 3, 3, 1, 2, 3, 1, 2]
    data = disc_data(values, labels, 4)
    tally = OpTally()
    score, _ = process_discrete_attribute(data.full_view(), 0, make_backend(name, 3, tally))
    assert (tally.element_ops, tally.maintenance_ops) == (element_ops, maintenance_ops)
    assert score.ratio == 0.036553212231202885


@pytest.mark.parametrize(
    "name, element_ops, maintenance_ops",
    [(BASELINE, 24, 12), (TREEMAP, 77, 6)],
)
def test_real_scan_tallies_are_pinned(name, element_ops, maintenance_ops):
    # 12 rows, 3 classes, with ties: baseline maintenance is allocating and
    # clearing the prefix and suffix class counters (4 * M dense slots)
    values = [0.5, 2.0, 1.5, 2.0, 0.25, 3.0, 1.5, 0.75, 2.5, 1.0, 3.0, 0.5]
    labels = [1, 2, 3, 1, 3, 2, 1, 3, 2, 2, 1, 3]
    data = real_data(values, labels)
    tally = OpTally()
    score, test = scan_real_attribute(data.full_view(), 0, make_backend(name, 3, tally))
    assert (tally.element_ops, tally.maintenance_ops) == (element_ops, maintenance_ops)
    assert score.ratio == 0.4110263131819211
    assert test.theta == 0.875


def _counted_information_table(labels, counter):
    # the counted per-sample loop the numpy kernel replaced
    info = [0.0] * (len(labels) + 1)
    h = 0.0
    for u, y in enumerate(labels, 1):
        c = counter.add(y)
        h += xlog2x(c) - xlog2x(c - 1)
        info[u] = max(0.0, math.log2(u) - h / u)
    counter.clear()
    return info


def _counted_candidates(view, attr, backend):
    values = view.values(attr)
    order = np.argsort(values, kind="stable")
    values = values[order]
    labels = view.labels()[order].tolist()
    prefix = _counted_information_table(labels, backend.class_counter())
    suffix = [0.0] + _counted_information_table(labels[::-1], backend.class_counter())[::-1]
    z = len(values)
    out = []
    for u in range(1, z):
        if values[u - 1] == values[u]:
            continue
        left = u / z
        right = 1.0 - left
        g = prefix[z] - left * prefix[u] - right * suffix[u + 1]
        p = -(left * math.log2(left) + right * math.log2(right))
        out.append((float((values[u - 1] + values[u]) / 2.0), gain_ratio(g, p)))
    return out


def _counted_scan(view, attr, backend):
    best = None
    for theta, score in _counted_candidates(view, attr, backend):
        if best is None or best[0].ratio < score.ratio:
            best = (score, theta)
    return best


def _exact(score):
    return (score.gain.hex(), score.potential.hex(), score.ratio.hex(), score.valid)


def _ledger(tally):
    return (tally.element_ops, tally.maintenance_ops, tally.by_level)


@pytest.mark.parametrize("name", [BASELINE, TREEMAP])
def test_real_kernel_matches_counted_loop(name):
    rng = random.Random("kernel-vs-loop-" + name)
    for i in range(120):
        m = rng.choice([2, 3, 5, 16, 64, 200])
        # the first view reaches z = 1621, the smallest count whose np.log2
        # differs from math.log2 in the last bit
        n = 1800 if i == 0 else rng.randint(2, 160)
        spread = 10**6 if i == 0 else rng.choice([1, 3, 12, 1000])  # few values, many ties
        values = [rng.randint(0, spread) / 8.0 for _ in range(n)]
        labels = [rng.randint(1, m) for _ in range(n)]
        labels[0] = m
        data = real_data(values, labels)
        rows = sorted(rng.sample(range(n), n if i == 0 else rng.randint(2, n)))
        view = SubsetView(data, rows)

        got_tally, want_tally = OpTally(level=i % 4), OpTally(level=i % 4)
        got = real_split_candidates(view, 0, make_backend(name, m, got_tally))
        want = _counted_candidates(view, 0, make_backend(name, m, want_tally))
        assert [(t.hex(), _exact(s)) for t, s in got] == [(t.hex(), _exact(s)) for t, s in want]
        assert _ledger(got_tally) == _ledger(want_tally)

        got_tally, want_tally = OpTally(level=i % 4), OpTally(level=i % 4)
        got = scan_real_attribute(view, 0, make_backend(name, m, got_tally))
        want = _counted_scan(view, 0, make_backend(name, m, want_tally))
        if want is None:
            assert got is None
        else:
            assert _exact(got[0]) == _exact(want[0])
            assert got[1] == SplitTest(0, REAL, theta=want[1])
        assert _ledger(got_tally) == _ledger(want_tally)
