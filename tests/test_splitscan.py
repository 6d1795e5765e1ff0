"""Fast split scanners vs the brute-force reference, plus pinned tallies."""

import math
import random
import warnings

import numpy as np
import pytest
from avl_reference import SparseClassCounter as AvlReference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdtree import oracle
from qdtree.counters import BASELINE, TREEMAP, OpTally, make_backend
from qdtree.criteria import gain_ratio, xlog2x
from qdtree.dataset import (
    DISCRETE,
    REAL,
    Attribute,
    AttributeSchema,
    Dataset,
    SubsetView,
)
from qdtree import splitscan
from qdtree.splitscan import (
    CountTables,
    LevelBatch,
    SplitTest,
    build_real_scan,
    process_attribute,
    process_discrete_attribute,
    _scan_tables,
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
    return make_backend(name)


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


def test_huge_values_split_at_a_finite_midpoint():
    # the sums -1.7e308 + -1e308 and 1e308 + 1.5e308 overflow, so those
    # thresholds add halves instead; every other midpoint keeps its bits,
    # and the independent oracle makes the same thresholds
    values = [-1.7e308, -1e308, 0.5, 1.5, 1e308, 1.5e308]
    data = real_data(values, [1, 2, 1, 2, 1, 2])
    expected = [-1.7e308 / 2.0 + -1e308 / 2.0, (-1e308 + 0.5) / 2.0, 1.0,
                (1.5 + 1e308) / 2.0, 1e308 / 2.0 + 1.5e308 / 2.0]
    assert all(math.isfinite(theta) for theta in expected)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cands = real_split_candidates(data.full_view(), 0, backend_for(data))
    assert [theta for theta, _ in cands] == expected
    assert [c.theta for c in oracle.candidates_for_attribute(data.full_view(), 0)] == expected


@pytest.mark.parametrize("lo", [1.0000000000000002, 5e-324, -1.5e-323])
def test_adjacent_values_split_at_the_lower_one(lo):
    # the midpoint of lo and the float above it rounds up to that float,
    # so the threshold falls back to lo; the oracle makes the same one
    hi = math.nextafter(lo, math.inf)
    assert (lo + hi) / 2.0 == hi
    data = real_data([lo, hi, lo, hi], [1, 2, 1, 2])
    assert [t for t, _ in real_split_candidates(data.full_view(), 0, backend_for(data))] == [lo]
    assert [c.theta for c in oracle.candidates_for_attribute(data.full_view(), 0)] == [lo]


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


@pytest.mark.parametrize("z", [2, 3, 7, 100, 999, 8000])
def test_scan_tables_match_the_scalar_formulas_bit_for_bit(z):
    left, right, potential = _scan_tables(z)
    want_left = [u / z for u in range(1, z)]
    want_right = [1.0 - f for f in want_left]
    want_potential = [
        -(f * math.log2(f) + r * math.log2(r)) for f, r in zip(want_left, want_right)
    ]
    assert left.tobytes() == np.array(want_left).tobytes()
    assert right.tobytes() == np.array(want_right).tobytes()
    assert potential.tobytes() == np.array(want_potential).tobytes()


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
        batch_gain = oracle.gain(counts[0], counts[1:])
        batch = gain_ratio(batch_gain, oracle.entropy([len(p) for p in parts]))
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
    score, _ = process_discrete_attribute(data.full_view(), 0, make_backend(name, tally))
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
    score, test = scan_real_attribute(data.full_view(), 0, make_backend(name, tally))
    assert (tally.element_ops, tally.maintenance_ops) == (element_ops, maintenance_ops)
    assert score.ratio == 0.4110263131819211
    assert test.theta == 0.875


class _DenseReference:
    """A dense array of `size` counters, as the baseline backend books it:
    allocation and clearing touch every slot, each add one slot."""

    def __init__(self, size, tally):
        self.slots = [0] * (size + 1)
        self.tally = tally
        tally.maintenance(size)

    def add(self, key):
        self.tally.element()
        self.slots[key] += 1
        return self.slots[key]

    def clear(self):
        self.tally.maintenance(len(self.slots) - 1)


def _counter(name, size, tally):
    # the counting structure each backend's ledger stands for
    return _DenseReference(size, tally) if name == BASELINE else AvlReference(tally)


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


def _counted_candidates(view, attr, name, tally):
    values = view.values(attr)
    order = np.argsort(values, kind="stable")
    values = values[order]
    labels = view.labels()[order].tolist()
    m = view.base.schema.class_count
    prefix = _counted_information_table(labels, _counter(name, m, tally))
    suffix = [0.0] + _counted_information_table(labels[::-1], _counter(name, m, tally))[::-1]
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


def _counted_scan(view, attr, name, tally):
    best = None
    for theta, score in _counted_candidates(view, attr, name, tally):
        if best is None or best[0].ratio < score.ratio:
            best = (score, theta)
    return best


def _counted_discrete(view, attr, name, tally):
    # the counted per-sample loop the discrete kernel replaced
    t = view.base.schema.domain_size(attr)
    m = view.base.schema.class_count
    values = view.values(attr).tolist()
    labels = view.labels().tolist()
    z = len(values)
    tally.maintenance(2 * t)
    class_counts = _counter(name, m, tally)
    pair_counts = _counter(name, m * t, tally)
    sizes = [0] * (t + 1)
    size_h = class_h = pair_h = 0.0
    branches = 0
    for v, y in zip(values, labels):
        c = pair_counts.add((y - 1) * t + v)
        pair_h += xlog2x(c) - xlog2x(c - 1)
        c = class_counts.add(y)
        class_h += xlog2x(c) - xlog2x(c - 1)
        sizes[v] += 1
        if sizes[v] == 1:
            branches += 1
        size_h += xlog2x(sizes[v]) - xlog2x(sizes[v] - 1)
    class_counts.clear()
    pair_counts.clear()
    if branches <= 1:
        return None
    parent = max(0.0, math.log2(z) - class_h / z)
    potential = max(0.0, math.log2(z) - size_h / z)
    score = gain_ratio(parent - (size_h - pair_h) / z, potential)
    return score, SplitTest(attr, DISCRETE, branch_count=t)


def _counted_attribute(view, attr, name, tally):
    if len(view) < 2:
        return None
    if not view.base.schema.is_real(attr):
        return _counted_discrete(view, attr, name, tally)
    best = _counted_scan(view, attr, name, tally)
    return None if best is None else (best[0], SplitTest(attr, REAL, theta=best[1]))


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
        got = real_split_candidates(view, 0, make_backend(name, got_tally))
        want = _counted_candidates(view, 0, name, want_tally)
        assert [(t.hex(), _exact(s)) for t, s in got] == [(t.hex(), _exact(s)) for t, s in want]
        assert _ledger(got_tally) == _ledger(want_tally)

        got_tally, want_tally = OpTally(level=i % 4), OpTally(level=i % 4)
        got = scan_real_attribute(view, 0, make_backend(name, got_tally))
        want = _counted_scan(view, 0, name, want_tally)
        if want is None:
            assert got is None
        else:
            assert _exact(got[0]) == _exact(want[0])
            assert got[1] == SplitTest(0, REAL, theta=want[1])
        assert _ledger(got_tally) == _ledger(want_tally)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    m=st.sampled_from([2, 3, 5, 16, 200]),
    n=st.integers(1, 1200),
    level=st.integers(0, 3),
)
@example(seed=0, m=5, n=1200, level=2)  # 881 rows over discrete, real, discrete, real
@example(seed=1, m=200, n=1200, level=1)  # 819 rows over two discrete attributes
def test_kernels_match_counted_loops_on_random_views(seed, m, n, level):
    # mixed real and discrete attributes on a random subset view, up to
    # 1200 rows, so the treemap ledger replays short and long scans alike
    rng = random.Random(seed)
    attributes, columns = [], []
    for a in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            spread = rng.choice([1, 3, 12, 1000])  # few values, many ties
            attributes.append(Attribute("x%d" % a, REAL))
            columns.append([rng.randint(0, spread) / 8.0 for _ in range(n)])
        else:
            t = rng.randint(2, 6)
            attributes.append(Attribute("c%d" % a, DISCRETE, t))
            columns.append([rng.randint(1, t) for _ in range(n)])
    labels = [rng.randint(1, m) for _ in range(n)]
    data = Dataset(
        AttributeSchema(tuple(attributes), m), columns, labels,
        tuple("k%d" % (j + 1) for j in range(m)),
    )
    view = SubsetView(data, sorted(rng.sample(range(n), rng.randint(0, n))))
    for attr in range(len(attributes)):
        for name in (BASELINE, TREEMAP):
            got_tally, want_tally = OpTally(level=level), OpTally(level=level)
            got = process_attribute(view, attr, make_backend(name, got_tally))
            want = _counted_attribute(view, attr, name, want_tally)
            if want is None:
                assert got is None
            else:
                assert (_exact(got[0]), got[1]) == (_exact(want[0]), want[1])
            assert _ledger(got_tally) == _ledger(want_tally)


def test_step_table_matches_xlog2x_differences_as_it_grows():
    tables = CountTables()
    for n in (300, 20000):  # grown in two stages
        tables.cover(n)
        assert len(tables.step) == len(tables.log2c_array) == len(tables.step_array) > n
        want = [0.0] + [xlog2x(c) - xlog2x(c - 1) for c in range(1, n + 1)]
        assert [s.hex() for s in tables.step[: n + 1]] == [w.hex() for w in want]
        assert [s.hex() for s in tables.step_array[: n + 1].tolist()] == [w.hex() for w in want]
        logs = [0.0] + [math.log2(c) for c in range(1, n + 1)]
        assert tables.log2c_array[: n + 1].tolist() == logs
    size = len(tables.step)
    assert tables.cover(size - 1) is tables and len(tables.step) == size


def _discrete_view(m, n, seed):
    rng = random.Random(seed)
    domains = [2, 3, 4, 2, 6]
    schema = AttributeSchema(
        tuple(Attribute("c%d" % a, DISCRETE, t) for a, t in enumerate(domains)), m
    )
    columns = [[rng.randint(1, t) for _ in range(n)] for t in domains]
    labels = [rng.randint(1, m) for _ in range(n)]
    data = Dataset(schema, columns, labels, tuple("k%d" % (j + 1) for j in range(m)))
    return SubsetView(data, sorted(rng.sample(range(n), n // 2)))


@pytest.mark.parametrize("name", [BASELINE, TREEMAP])
def test_one_view_shares_its_class_pass_with_exact_ledgers(name):
    # every attribute of one view, scored twice at two levels with one
    # backend, books what as many independent counted scans book
    view = _discrete_view(5, 80, "shared-class-pass")
    d = view.base.schema.attribute_count
    got_tally, want_tally = OpTally(), OpTally()
    backend = make_backend(name, got_tally)
    for level in (1, 3):
        got_tally.level = want_tally.level = level
        for attr in range(d):
            got = process_attribute(view, attr, backend)
            want = _counted_discrete(view, attr, name, want_tally)
            assert (_exact(got[0]), got[1]) == (_exact(want[0]), want[1])
    assert _ledger(got_tally) == _ledger(want_tally)
    assert set(got_tally.by_level) == {1, 3}


def test_class_pass_is_not_shared_across_backends_or_views():
    view = _discrete_view(5, 80, "class-pass-keys")
    # the same label column under a schema with more classes: equal labels,
    # but a dense class counter of another size
    base = view.base
    wider = Dataset(
        AttributeSchema(base.schema.attributes, 9),
        base.columns, base.labels, tuple("k%d" % (j + 1) for j in range(9)),
    )
    twin = SubsetView(wider, view.indices)
    assert twin.labels().tolist() == view.labels().tolist()
    for target, name in ((view, BASELINE), (twin, BASELINE), (twin, TREEMAP), (view, TREEMAP)):
        got_tally, want_tally = OpTally(level=2), OpTally(level=2)
        got = process_attribute(target, 1, make_backend(name, got_tally))
        want = _counted_discrete(target, 1, name, want_tally)
        assert (_exact(got[0]), got[1]) == (_exact(want[0]), want[1])
        assert _ledger(got_tally) == _ledger(want_tally)


def _level(seed, m, lengths, pure_share, constant_share, real):
    """A dataset and the views of one level over it: views of the given
    lengths over shuffled rows (a few rows belong to no view), each pure
    with odds pure_share and each discrete attribute constant on a view
    with odds constant_share; domains of 2 to 50 values."""
    rng = random.Random(seed)
    n = sum(lengths) + rng.randint(0, 20)
    domains = [rng.choice([2, 3, 4, 7, 50, rng.randint(2, 50)]) for _ in range(rng.randint(1, 4))]
    columns = [[rng.randint(1, t) for _ in range(n)] for t in domains]
    labels = [rng.randint(1, m) for _ in range(n)]
    order = rng.sample(range(n), n)
    views, start = [], 0
    for z in lengths:
        rows = sorted(order[start : start + z])
        start += z
        if rng.random() < pure_share:
            y = rng.randint(1, m)
            for r in rows:
                labels[r] = y
        for col, t in zip(columns, domains):
            if rng.random() < constant_share:
                v = rng.randint(1, t)
                for r in rows:
                    col[r] = v
        views.append(rows)
    attributes = [Attribute("c%d" % a, DISCRETE, t) for a, t in enumerate(domains)]
    if real:
        attributes.insert(1, Attribute("x", REAL))
        columns.insert(1, [rng.randint(0, 9) / 4.0 for _ in range(n)])
    data = Dataset(
        AttributeSchema(tuple(attributes), m), columns, labels,
        tuple("k%d" % (j + 1) for j in range(m)),
    )
    return [SubsetView(data, rows) for rows in views]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    m=st.one_of(st.sampled_from([1, 2, 64, 256]), st.integers(1, 256)),
    long_view=st.one_of(st.just(0), st.integers(2, 4000)),
    short_views=st.integers(0, 80),
    pure_share=st.sampled_from([0.0, 0.3, 1.0]),
    constant_share=st.sampled_from([0.0, 0.3, 1.0]),
    real=st.booleans(),
    level=st.integers(0, 5),
)
@example(seed=0, m=256, long_view=4000, short_views=80, pure_share=0.3,
         constant_share=0.3, real=True, level=3)
@example(seed=1, m=2, long_view=3000, short_views=0, pure_share=0.0,
         constant_share=0.0, real=False, level=0)
@example(seed=2, m=1, long_view=0, short_views=1, pure_share=1.0,
         constant_share=1.0, real=False, level=1)
def test_level_batch_matches_per_view_scans(
    seed, m, long_view, short_views, pure_share, constant_share, real, level
):
    # one long view among many short ones (2 to 5 rows), pure views and
    # constant attributes: every (view, attribute) result and both ledgers
    # of the batch equal those of process_attribute scanning each view
    rng = random.Random(seed)
    lengths = [rng.randint(2, 5) for _ in range(short_views)]
    if long_view:
        lengths.insert(rng.randint(0, len(lengths)), long_view)
    if not lengths:
        lengths = [2]
    views = _level(seed, m, lengths, pure_share, constant_share, real)
    schema = views[0].base.schema
    batch = LevelBatch(views)
    assert set(batch.scans) == {a for a in range(schema.attribute_count) if not schema.is_real(a)}
    for name in (BASELINE, TREEMAP):
        got_tally, want_tally = OpTally(level=level), OpTally(level=level)
        got_backend, want_backend = make_backend(name, got_tally), make_backend(name, want_tally)
        for view in views:
            for attr in range(schema.attribute_count):
                got = process_attribute(view, attr, got_backend, batch)
                want = process_attribute(view, attr, want_backend)
                if want is None:
                    assert got is None
                else:
                    assert (_exact(got[0]), got[1]) == (_exact(want[0]), want[1])
        assert _ledger(got_tally) == _ledger(want_tally)


@pytest.mark.parametrize("t", [10**15, 10**30])  # too large to allocate, to index
@pytest.mark.parametrize("spread", [1, 3])  # a constant column keeps only the branch sizes
def test_level_batch_refuses_the_domains_the_per_view_scan_refuses(t, spread):
    # 150 views of 2 rows: the dense counts the per-view scan keeps are
    # refused with the same error before any view is scored
    rng = random.Random(t)
    data = disc_data([rng.randint(1, spread) for _ in range(300)], [1, 2] * 150, t)
    views = [SubsetView(data, [r, r + 1]) for r in range(0, 300, 2)]
    with pytest.raises((MemoryError, OverflowError)) as per_view:
        process_discrete_attribute(views[0], 0, make_backend(BASELINE))
    with pytest.raises(type(per_view.value)):
        LevelBatch(views)


def test_level_batch_refuses_keys_that_would_wrap(monkeypatch):
    # the segment-offset keys stop below the int64 limit; a level whose
    # keys would pass it raises instead of wrapping
    views = _level(3, 4, [3] * 10, 0.0, 0.0, False)
    t = max(a.domain_size for a in views[0].base.schema.attributes)
    monkeypatch.setattr(splitscan, "_INT64_MAX", 10 * (4 * t + 1) - 1)
    with pytest.raises(OverflowError):
        LevelBatch(views)
    monkeypatch.setattr(splitscan, "_INT64_MAX", 10 * (4 * t + 1))
    LevelBatch(views)


def test_only_levels_worth_it_are_batched():
    views = _level(4, 5, [3] * 20 + [600], 0.0, 0.0, True)
    assert splitscan.batch_level(views[-1:]) is None  # 650 < 700
    assert isinstance(splitscan.batch_level(views[:14]), LevelBatch)  # 42 + 700
    assert splitscan.batch_level(views[:13]) is None  # 39 + 650
    real = Dataset(
        AttributeSchema((Attribute("x", REAL),), 2), [[0.5] * 4000], [1, 2] * 2000, ("a", "b")
    )
    assert splitscan.batch_level([real.full_view()]) is None


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    m=st.sampled_from([1, 2, 5, 64]),
    lengths=st.lists(st.integers(2, 40), min_size=1, max_size=30),
    pure_share=st.sampled_from([0.0, 0.5]),
    level=st.integers(0, 3),
)
@example(seed=0, m=64, lengths=[40] * 30, pure_share=0.0, level=2)
def test_a_constant_attribute_books_its_explicit_pair_keys(seed, m, lengths, pure_share, level):
    # every discrete attribute is constant on every view, so no pair stream
    # is built; the tally must still equal the one booked by feeding each
    # view's labels and explicit pair keys (y - 1) * T + v to backend.cost,
    # through the per-view scan and through a LevelBatch alike
    views = _level(seed, m, lengths, pure_share, 1.0, False)
    schema = views[0].base.schema
    batch = LevelBatch(views)
    for name in (BASELINE, TREEMAP):
        want_tally = OpTally(level=level)
        want = make_backend(name, want_tally)
        for view in views:
            labels = view.labels()
            for attr in range(schema.attribute_count):
                t = schema.domain_size(attr)
                values = view.values(attr)
                assert len(set(values.tolist())) == 1
                want.book(labels, m)
                want.book((labels - 1) * t + values, m * t)
                want.charge(0, 2 * t)
        for scan_batch in (None, batch):
            got_tally = OpTally(level=level)
            got = make_backend(name, got_tally)
            for view in views:
                for attr in range(schema.attribute_count):
                    assert process_attribute(view, attr, got, scan_batch) is None
            assert _ledger(got_tally) == _ledger(want_tally)
