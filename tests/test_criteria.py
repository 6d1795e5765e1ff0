"""Split-quality arithmetic: entropy, gain, potential, ratio ordering.

Entropy, gain and potential come from their definitions in qdtree.oracle;
the rest is the scanners' arithmetic in qdtree.criteria.
"""

import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtree.counters import OpTally, SparseClassCounter
from qdtree.criteria import INVALID_SPLIT, SplitScore, gain_ratio, running_counts, xlog2x
from qdtree.oracle import entropy, gain

# Hand-checked reference values, full double precision.
ENTROPY_3_1 = 0.8112781244591328
ENTROPY_2_1 = 0.9182958340544896
GAIN_3_1_SPLIT = 0.3112781244591328


def hist(a=0, b=0):
    # class counts of classes 1 and 2, so branch vectors line up
    return (a, b)


def class_counts(labels, m=3):
    return [labels.count(j) for j in range(1, m + 1)]


def test_xlog2x_edge_cases():
    assert xlog2x(0) == 0.0
    assert xlog2x(1) == 0.0
    assert xlog2x(2) == 2.0
    assert xlog2x(4) == 8.0
    assert xlog2x(3) == pytest.approx(3 * math.log2(3), abs=1e-15)


def test_information_uniform_two_classes():
    assert entropy(hist(a=2, b=2)) == pytest.approx(1.0, abs=1e-12)


def test_information_pure():
    assert entropy(hist(a=4)) == 0.0


def test_information_three_one():
    assert entropy(hist(a=3, b=1)) == pytest.approx(ENTROPY_3_1, abs=1e-15)


def test_information_two_one():
    assert entropy(hist(a=2, b=1)) == pytest.approx(ENTROPY_2_1, abs=1e-15)


def test_information_bounds_random():
    rng = random.Random("info-bounds")
    for _ in range(200):
        m = rng.randint(1, 6)
        counts = [rng.randint(1, 9) for _ in range(m)]
        v = entropy(counts)
        assert -1e-12 <= v <= math.log2(m) + 1e-12


def test_gain_perfect_split():
    parent = hist(a=2, b=2)
    assert gain(parent, [hist(a=2), hist(b=2)]) == pytest.approx(1.0, abs=1e-12)


def test_gain_uninformative_split():
    parent = hist(a=2, b=2)
    branches = [hist(a=1, b=1), hist(a=1, b=1)]
    assert gain(parent, branches) == pytest.approx(0.0, abs=1e-12)


def test_gain_three_one():
    parent = hist(a=3, b=1)
    branches = [hist(a=2), hist(a=1, b=1)]
    assert gain(parent, branches) == pytest.approx(GAIN_3_1_SPLIT, abs=1e-15)


def test_gain_never_negative_random():
    # entropy is concave, so any partition of the parent cannot gain < 0
    rng = random.Random("gain-nonneg")
    for _ in range(200):
        labels = [rng.randint(1, 3) for _ in range(rng.randint(2, 20))]
        cut = rng.randint(0, len(labels))
        branches = [class_counts(labels[:cut]), class_counts(labels[cut:])]
        assert gain(class_counts(labels), branches) >= -1e-9


def test_potential_information_values():
    assert entropy([2, 2]) == pytest.approx(1.0, abs=1e-12)
    assert entropy([4, 0]) == pytest.approx(0.0, abs=1e-12)
    assert entropy([1, 3]) == pytest.approx(ENTROPY_3_1, abs=1e-15)


def test_gain_ratio_plain():
    s = gain_ratio(0.5, 1.0)
    assert s.valid
    assert s.ratio == pytest.approx(0.5, abs=1e-15)
    assert s.gain == 0.5 and s.potential == 1.0


def test_gain_ratio_zero_potential_is_invalid():
    s = gain_ratio(0.0, 0.0)
    assert not s.valid
    assert s.ratio == INVALID_SPLIT.ratio == -math.inf


def test_gain_ratio_negative_potential_rejected():
    with pytest.raises(ValueError):
        gain_ratio(0.1, -0.5)


def test_invalid_split_loses_every_comparison():
    tiny = gain_ratio(1e-15, 1.0)  # worst valid ratio still beats the sentinel
    assert INVALID_SPLIT.ratio < tiny.ratio
    assert not (tiny.ratio < INVALID_SPLIT.ratio)
    assert INVALID_SPLIT.ratio <= INVALID_SPLIT.ratio
    assert not (INVALID_SPLIT.ratio < INVALID_SPLIT.ratio)


def test_score_ordering_is_by_ratio():
    a = gain_ratio(0.4, 0.8)
    b = gain_ratio(0.3, 0.4)
    assert a.ratio < b.ratio  # 0.5 < 0.75
    assert b.ratio > a.ratio
    assert a.ratio != b.ratio
    assert max([a, b, INVALID_SPLIT], key=lambda s: s.ratio) is b


def test_score_order_equality_vs_identity():
    # equal ratios from different (gain, potential) pairs tie in the rank,
    # while the scores themselves differ field by field
    a = gain_ratio(0.2, 0.4)
    b = gain_ratio(0.3, 0.6)
    assert a.ratio == b.ratio
    assert a != b
    assert (a.gain, a.potential) != (b.gain, b.potential)


def test_score_sorting_total_order():
    rng = random.Random("score-sort")
    scores = [INVALID_SPLIT]
    for _ in range(50):
        p = rng.uniform(0.1, 2.0)
        scores.append(gain_ratio(rng.uniform(0.0, 1.0) * p, p))
    ordered = sorted(scores, key=lambda s: s.ratio)
    assert ordered[0] is INVALID_SPLIT
    for lo, hi in zip(ordered, ordered[1:]):
        assert lo.ratio <= hi.ratio


def test_split_score_equality_and_hash_agree():
    a = SplitScore(0.25, 0.5, 0.5)
    b = SplitScore(0.25, 0.5, 0.5)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert gain_ratio(0.0, 0.0) == INVALID_SPLIT
    assert len({gain_ratio(0.0, 0.0), INVALID_SPLIT}) == 1
    # scores rank by their ratios; the scores themselves have no order
    with pytest.raises(TypeError):
        operator.lt(a, b)


def test_argmax_invariant_under_log_base():
    # the ratio is a quotient of two entropies, so rescaling both by ln 2
    # must leave the argmax alone
    rng = random.Random("log-base")
    for _ in range(50):
        pairs = []
        while len(pairs) < 6:
            g = rng.uniform(0.01, 0.99)
            p = rng.uniform(g, 2.0)
            pairs.append((g, p))
        by_ratio = max(range(6), key=lambda i: pairs[i][0] / pairs[i][1])
        ln2 = math.log(2.0)
        by_nat = max(range(6), key=lambda i: (pairs[i][0] * ln2) / (pairs[i][1] * ln2))
        assert by_ratio == by_nat


# --- ordered sparse counter ---


def test_sparse_counter_basic_ops():
    c = SparseClassCounter(OpTally())
    assert c.get(5) == 0
    c.add(5)
    c.add(5)
    c.add(1)
    assert c.add(5) == 3
    assert c.get(5) == 3
    assert c.get(1) == 1
    c.clear()
    assert c.get(5) == 0
    assert c.get(1) == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=40), st.integers(1, 3)),
        max_size=120,
    )
)
def test_sparse_counter_matches_dict(ops):
    c = SparseClassCounter(OpTally())
    shadow = {}
    for key, times in ops:
        for _ in range(times):
            shadow[key] = shadow.get(key, 0) + 1
            assert c.add(key) == shadow[key]
        assert c.get(key) == shadow[key]
    for key in range(1, 41):
        assert c.get(key) == shadow.get(key, 0)


def test_sparse_counter_logarithmic_access_cost():
    # element charges per access stay O(log s): generous constant, tight
    # enough to catch a degenerate list-shaped tree
    tally = OpTally()
    c = SparseClassCounter(tally)
    n = 512
    for key in range(1, n + 1):  # ascending inserts are the classic worst case
        before = tally.element_ops
        c.add(key)
        assert tally.element_ops - before <= 4 * (math.log2(key + 1) + 1)
    before = tally.element_ops
    c.get(n)
    assert tally.element_ops - before <= 3 * math.log2(n)


def test_sparse_counter_maintenance_charges_scale_with_size():
    tally = OpTally()
    c = SparseClassCounter(tally)
    for key in range(1, 9):
        c.add(key)
    before = tally.maintenance_ops
    c.get(4)
    assert tally.maintenance_ops == before
    c.clear()
    assert tally.maintenance_ops - before == 8


def test_tally_levels_bucket_maintenance():
    tally = OpTally()
    c = SparseClassCounter(tally)
    c.add(1)
    tally.level = 3
    c.clear()
    assert tally.by_level.get(3) == 1


@settings(max_examples=200, deadline=None)
@given(
    bound=st.sampled_from([1, 2, 7, 300, 1 << 16, (1 << 16) + 1, 1 << 40]),
    data=st.data(),
)
def test_running_counts_match_a_counting_loop_under_any_key_bound(bound, data):
    # keys under a 16-bit bound are sorted as uint16, the others as they come
    keys = data.draw(st.lists(st.integers(0, bound - 1), max_size=300))
    seen = {}
    want = []
    for k in keys:
        seen[k] = seen.get(k, 0) + 1
        want.append(seen[k])
    array = np.array(keys, dtype=np.int64)
    assert running_counts(array).tolist() == want
    assert running_counts(array, bound).tolist() == want
