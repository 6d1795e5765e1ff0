"""Counter backends: what the dense and ordered-map ledgers book for a scan."""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdtree.builder import BuildConfig, serialize_model, train
from qdtree.counters import (
    BASELINE,
    TREEMAP,
    DenseBackend,
    OpTally,
    SparseClassCounter,
    TreeMapBackend,
    _height,
    make_backend,
)
from qdtree.synth import planted_dataset


def _ledger(tally):
    return (tally.element_ops, tally.maintenance_ops, tally.by_level)


def _sparse_loop_ledger(keys, level):
    # a fresh ordered map fed one add per key, then cleared
    tally = OpTally(level=level)
    counter = SparseClassCounter(tally)
    for key in keys:
        counter.add(key)
    counter.clear()
    return _ledger(tally)


def test_dense_counter_charges_size_for_sweeps():
    # allocating and clearing 8 slots, one touch per key
    tally = OpTally()
    make_backend(BASELINE, tally).book([1, 3, 1], 8)
    assert (tally.element_ops, tally.maintenance_ops) == (3, 16)


def test_pair_counter_charges_product_size():
    # a 3-class, 4-way class-branch table has 12 dense slots
    tally = OpTally()
    make_backend(BASELINE, tally).book([(3 - 1) * 4 + 2, 4], 3 * 4)
    assert (tally.element_ops, tally.maintenance_ops) == (2, 24)


def test_make_backend_names():
    assert isinstance(make_backend(BASELINE), DenseBackend)
    assert isinstance(make_backend(TREEMAP), TreeMapBackend)
    with pytest.raises(ValueError):
        make_backend("btree")


def test_backends_agree_on_random_histories():
    # each backend books what its counting structure would: the dense array
    # in closed form, the ordered map by replaying the adds
    rng = random.Random("counter-hist")
    for i in range(20):
        keys = [rng.randint(1, 12) for _ in range(rng.randint(0, 300))]
        dense, sparse = OpTally(level=i % 3), OpTally(level=i % 3)
        make_backend(BASELINE, dense).book(keys, 12)
        make_backend(TREEMAP, sparse).book(keys, 12)
        assert _ledger(dense) == (len(keys), 24, {i % 3: 24})
        assert _ledger(sparse) == _sparse_loop_ledger(keys, i % 3)


def test_pair_backends_agree_on_random_histories():
    # both backends take the flat slot (j - 1) * T + w, which gives every
    # (class, branch) pair of a 5 x 3 table its own key
    rng = random.Random("pair-hist")
    pairs = [(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(300)]
    keys = [(j - 1) * 3 + w for j, w in pairs]
    assert sorted(set(keys)) == list(range(1, 16))
    dense, sparse = OpTally(), OpTally()
    make_backend(BASELINE, dense).book(keys, 5 * 3)
    make_backend(TREEMAP, sparse).book(keys, 5 * 3)
    assert _ledger(dense) == (300, 30, {0: 30})
    assert _ledger(sparse) == _sparse_loop_ledger(keys, 0)
    assert sparse.maintenance_ops == 15  # clearing the 15 stored pairs


def test_sparse_costs_independent_of_class_count():
    # the whole point of the treemap backend: touching s distinct classes
    # costs the same no matter how large the nominal class universe is
    costs = []
    for m in (4, 64, 4096):
        tally = OpTally()
        make_backend(TREEMAP, tally).book([1, 2, 3], m)
        costs.append((tally.element_ops, tally.maintenance_ops))
    assert costs[0] == costs[1] == costs[2]


def test_dense_costs_grow_with_class_count():
    totals = []
    for m in (4, 64, 4096):
        tally = OpTally()
        make_backend(BASELINE, tally).book([1], m)
        totals.append(tally.maintenance_ops)
    assert totals[0] < totals[1] < totals[2]
    assert totals[2] == totals[0] * 1024  # 2 sweeps of M slots each


def _book_matches_loop(keys):
    # one replay through the treemap ledger against a loop of add(k) on a
    # fresh counter, for the keys as a list and as an array
    for batch in (keys, np.array(keys, dtype=np.int64)):
        tally = OpTally(level=2)
        TreeMapBackend(tally).book(batch, 64)
        assert _ledger(tally) == _sparse_loop_ledger(keys, 2)


def _sorted_by_class():
    rng = random.Random("sorted-by-class")
    return sorted(rng.randint(1, 40) for _ in range(8000))


# each input with the (element, maintenance) ops its replay books, recorded
# before the ledger drove add; the last one is 8000 keys sorted by class:
# long runs of one key between few inserts
REPLAY_EDGES = [
    ([], (0, 0)),
    ([5] * 1024, (2047, 1)),
    (list(range(1, 1025)), (20471, 1024)),
    (list(range(1024, 0, -1)), (20471, 1024)),
    (_sorted_by_class(), (73056, 40)),
]


@pytest.mark.parametrize(
    "keys, expected",
    REPLAY_EDGES,
    ids=["empty", "repeated", "distinct", "descending", "sorted-by-class"],
)
def test_add_all_edge_cases_match_add_loop(keys, expected):
    assert TreeMapBackend().cost(keys, 64) == expected
    _book_matches_loop(keys)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=40), max_size=1500))
@example(sorted(range(1, 40), reverse=True) * 4)
def test_add_all_matches_add_loop(keys):
    _book_matches_loop(keys)


def _in_order(counter):
    # the counter's nodes in key order, walked with an explicit stack
    nodes, stack, node = [], [], counter._root
    while stack or node is not None:
        while node is not None:
            stack.append(node)
            node = node.left
        node = stack.pop()
        nodes.append(node)
        node = node.right
    return nodes


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-60, max_value=60), max_size=200))
@example(list(range(64)) + list(range(-1, -64, -1)))
def test_add_keeps_the_avl_invariants(keys):
    counter = SparseClassCounter()
    for i, key in enumerate(keys):
        counter.add(key)
        nodes = _in_order(counter)
        order = [node.key for node in nodes]
        assert all(a < b for a, b in zip(order, order[1:]))
        for node in nodes:
            left, right = _height(node.left), _height(node.right)
            assert node.height == 1 + max(left, right)
            assert abs(left - right) <= 1
        assert len(nodes) == counter._size
        assert {node.key: node.value for node in nodes} == Counter(keys[: i + 1])


def test_treemap_build_with_long_scans_is_pinned():
    # every scan of this build books 754 to 4000 keys, so the pinned
    # ledgers and model bytes cover long treemap replays
    tree = train(planted_dataset(4000, 8, 3, 0), BuildConfig(max_height=3, backend=TREEMAP))
    tally = tree.stats.tally
    assert (tally.element_ops, tally.maintenance_ops, tally.by_level) == (
        777923, 384, {0: 128, 1: 128, 2: 128}
    )
    assert hashlib.sha256(serialize_model(tree).encode("utf-8")).hexdigest() == (
        "c56f816da26fb7127bece3f9912065a5983a37c1c9c0268589c7a450a2b273a5"
    )
