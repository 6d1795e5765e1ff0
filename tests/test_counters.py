"""Counter backends: dense arrays vs the ordered sparse map, and their costs."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdtree.counters import (
    BASELINE,
    TREEMAP,
    DenseBackend,
    DenseCounter,
    TreeMapBackend,
    make_backend,
)
from qdtree.criteria import OpTally, SparseClassCounter


def test_dense_counter_get_add_clear():
    c = DenseCounter(4, OpTally())
    assert c.get(3) == 0
    c.add(3)
    c.add(1)
    assert c.add(3) == 2
    assert c.get(3) == 2
    assert c.items() == [(1, 1), (3, 2)]
    c.clear()
    assert c.items() == []


def test_dense_counter_rejects_out_of_range_keys():
    c = DenseCounter(4, OpTally())
    with pytest.raises(KeyError):
        c.get(0)
    with pytest.raises(KeyError):
        c.add(5)


def test_dense_counter_charges_size_for_sweeps():
    tally = OpTally()
    c = DenseCounter(8, tally)  # construction zeroes all slots
    assert tally.maintenance_ops == 8
    c.add(1)
    c.get(1)
    assert tally.element_ops == 2
    c.items()
    assert tally.maintenance_ops == 16
    c.clear()
    assert tally.maintenance_ops == 24


def test_pair_counter_charges_product_size():
    tally = OpTally()
    c = make_backend(BASELINE, 3, tally).pair_counter(4)
    assert tally.maintenance_ops == 12
    c.items()
    assert tally.maintenance_ops == 24
    c.clear()
    assert tally.maintenance_ops == 36


def test_pair_counter_rejects_out_of_range():
    c = make_backend(BASELINE, 2).pair_counter(2)
    c.add(4)  # the last flat slot, (2 - 1) * 2 + 2
    with pytest.raises(KeyError):
        c.get(5)
    with pytest.raises(KeyError):
        c.add(0)


def test_make_backend_names():
    assert isinstance(make_backend(BASELINE, 4), DenseBackend)
    assert isinstance(make_backend(TREEMAP, 4), TreeMapBackend)
    with pytest.raises(ValueError):
        make_backend("btree", 4)


def test_backend_counter_types():
    dense = make_backend(BASELINE, 3)
    assert isinstance(dense.class_counter(), DenseCounter)
    assert isinstance(dense.pair_counter(2), DenseCounter)
    sparse = make_backend(TREEMAP, 3)
    assert isinstance(sparse.class_counter(), SparseClassCounter)
    assert isinstance(sparse.pair_counter(2), SparseClassCounter)


def test_backends_agree_on_random_histories():
    rng = random.Random("counter-hist")
    dense = make_backend(BASELINE, 12)
    sparse = make_backend(TREEMAP, 12)
    for _ in range(20):
        a, b = dense.class_counter(), sparse.class_counter()
        for _ in range(200):
            key = rng.randint(1, 12)
            for _ in range(rng.choice([1, 1, 1, 2])):
                a.add(key)
                b.add(key)
            probe = rng.randint(1, 12)
            assert a.get(probe) == b.get(probe)
        assert a.items() == b.items()
        a.clear()
        b.clear()
        assert a.items() == b.items() == []


def test_pair_backends_agree_on_random_histories():
    # both backends take the flat slot (j - 1) * T + w, which gives every
    # (class, branch) pair of a 5 x 3 table its own key
    rng = random.Random("pair-hist")
    dense = make_backend(BASELINE, 5)
    sparse = make_backend(TREEMAP, 5)
    a, b = dense.pair_counter(3), sparse.pair_counter(3)
    seen = {}
    for _ in range(300):
        pair = (rng.randint(1, 5), rng.randint(1, 3))
        key = (pair[0] - 1) * 3 + pair[1]
        a.add(key)
        b.add(key)
        seen[pair] = seen.get(pair, 0) + 1
        assert a.get(key) == b.get(key) == seen[pair]
    assert len(seen) == 15
    assert a.items() == b.items() == [
        ((j - 1) * 3 + w, seen[j, w]) for j in range(1, 6) for w in range(1, 4)
    ]


def test_sparse_costs_independent_of_class_count():
    # the whole point of the treemap backend: touching s distinct classes
    # costs the same no matter how large the nominal class universe is
    costs = []
    for m in (4, 64, 4096):
        tally = OpTally()
        backend = make_backend(TREEMAP, m, tally)
        c = backend.class_counter()
        for key in (1, 2, 3):
            c.add(key)
        c.items()
        c.clear()
        costs.append((tally.element_ops, tally.maintenance_ops))
    assert costs[0] == costs[1] == costs[2]


def test_dense_costs_grow_with_class_count():
    totals = []
    for m in (4, 64, 4096):
        tally = OpTally()
        backend = make_backend(BASELINE, m, tally)
        c = backend.class_counter()
        c.add(1)
        c.items()
        c.clear()
        totals.append(tally.maintenance_ops)
    assert totals[0] < totals[1] < totals[2]
    assert totals[2] == totals[0] * 1024  # 3 sweeps of M slots each


def _add_all_matches_loop(make, keys):
    # add_all on one fresh counter against a loop of add(k) on another
    batch_tally, loop_tally = OpTally(level=2), OpTally(level=2)
    batch, loop = make(batch_tally), make(loop_tally)
    assert batch.add_all(keys).tolist() == [loop.add(k) for k in keys]
    assert batch.items() == loop.items()
    assert (batch_tally.element_ops, batch_tally.maintenance_ops, batch_tally.by_level) == (
        loop_tally.element_ops,
        loop_tally.maintenance_ops,
        loop_tally.by_level,
    )


ADD_ALL_EDGES = [
    [],
    [5] * 30,
    list(range(1, 41)),
    list(range(40, 0, -1)),
]


@pytest.mark.parametrize("keys", ADD_ALL_EDGES, ids=["empty", "repeated", "distinct", "descending"])
def test_add_all_edge_cases_match_add_loop(keys):
    _add_all_matches_loop(lambda tally: DenseCounter(40, tally), keys)
    _add_all_matches_loop(SparseClassCounter, keys)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=40), max_size=200))
@example(sorted(range(1, 40), reverse=True) * 2)
def test_add_all_matches_add_loop(keys):
    _add_all_matches_loop(lambda tally: DenseCounter(40, tally), keys)
    _add_all_matches_loop(SparseClassCounter, keys)


def test_add_all_continues_from_stored_counts():
    # keys already stored are re-adds, not inserts, and counts run on
    for make in (lambda tally: DenseCounter(6, tally), SparseClassCounter):
        batch_tally, loop_tally = OpTally(), OpTally()
        batch, loop = make(batch_tally), make(loop_tally)
        for k in (3, 1, 3):
            batch.add(k)
            loop.add(k)
        keys = [3, 6, 1, 2, 3, 6, 5]
        assert batch.add_all(keys).tolist() == [loop.add(k) for k in keys] == [3, 1, 2, 1, 4, 2, 1]
        assert batch.items() == loop.items()
        assert batch_tally == loop_tally


def test_dense_add_all_rejects_out_of_range_keys():
    tally = OpTally()
    c = DenseCounter(4, tally)
    with pytest.raises(KeyError):
        c.add_all([1, 5, 2])
    assert c.items() == []
    assert tally.element_ops == 0
