"""Counter backends: what the dense and ordered-map ledgers book for a scan."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdtree.counters import (
    BASELINE,
    REPLAY_CUTOFF,
    TREEMAP,
    DenseBackend,
    OpTally,
    SparseClassCounter,
    TreeMapBackend,
    make_backend,
)


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


def _add_all_matches_loop(keys):
    # add_all on one fresh counter against a loop of add(k) on another
    batch_tally, loop_tally = OpTally(level=2), OpTally(level=2)
    batch, loop = SparseClassCounter(batch_tally), SparseClassCounter(loop_tally)
    batch.add_all(keys)
    for k in keys:
        loop.add(k)
    assert batch.items() == loop.items()
    assert _ledger(batch_tally) == _ledger(loop_tally)


# all but the empty batch are long enough for the grouped replay
ADD_ALL_EDGES = [
    [],
    [5] * (2 * REPLAY_CUTOFF),
    list(range(1, 2 * REPLAY_CUTOFF + 1)),
    list(range(2 * REPLAY_CUTOFF, 0, -1)),
]


@pytest.mark.parametrize("keys", ADD_ALL_EDGES, ids=["empty", "repeated", "distinct", "descending"])
def test_add_all_edge_cases_match_add_loop(keys):
    _add_all_matches_loop(keys)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=40), max_size=2 * REPLAY_CUTOFF))
@example(sorted(range(1, 40), reverse=True) * 4)
def test_add_all_matches_add_loop(keys):
    _add_all_matches_loop(keys)


@pytest.mark.parametrize("size", [REPLAY_CUTOFF - 1, REPLAY_CUTOFF, REPLAY_CUTOFF + 1])
def test_add_all_books_the_add_loop_around_the_cutoff(size):
    # the grouped replay takes over at REPLAY_CUTOFF keys; on either side it
    # books what the plain add loop books, for few and for many distinct keys
    rng = random.Random("cutoff-%d" % (size,))
    for spread in (2, 16, 1000):
        _add_all_matches_loop([rng.randint(1, spread) for _ in range(size)])


def test_add_all_continues_from_stored_counts():
    # keys already stored are re-adds, not inserts, and counts run on
    for keys in ([3, 6, 1, 2, 3, 6, 5], [3, 6, 1, 2, 3, 6, 5] * REPLAY_CUTOFF):
        batch_tally, loop_tally = OpTally(), OpTally()
        batch, loop = SparseClassCounter(batch_tally), SparseClassCounter(loop_tally)
        for k in (3, 1, 3):
            batch.add(k)
            loop.add(k)
        batch.add_all(keys)
        for k in keys:
            loop.add(k)
        assert batch.items() == loop.items()
        assert batch_tally == loop_tally
    assert batch.items() == [(k, keys.count(k) + (3, 1, 3).count(k)) for k in (1, 2, 3, 5, 6)]
