"""Counter backends: what the dense and ordered-map ledgers book for a scan."""

import hashlib
import random

import numpy as np
import pytest
from avl_reference import SparseClassCounter as ReferenceCounter
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdtree.builder import BuildConfig, serialize_model, train
from qdtree.counters import (
    BASELINE,
    TREEMAP,
    DenseBackend,
    OpTally,
    TreeMapBackend,
    _insert,
    make_backend,
)
from qdtree.criteria import running_counts
from qdtree.dataset import REAL, Attribute, AttributeSchema, Dataset, SubsetView
from qdtree.splitscan import build_real_scan, process_attribute
from qdtree.synth import class_names, planted_dataset, random_dataset, random_schema


def _ledger(tally):
    return (tally.element_ops, tally.maintenance_ops, tally.by_level)


def _sparse_loop_ledger(keys, level):
    # a fresh object-node reference map fed one add per key, then cleared
    tally = OpTally(level=level)
    counter = ReferenceCounter(tally)
    for key in keys:
        counter.add(key)
    counter.clear()
    return _ledger(tally)


def _reference_cost(keys):
    # the (element, maintenance) ops the object-node reference books for a scan
    return _sparse_loop_ledger(keys, 0)[:2]


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


def _put(key, root, tree):
    # key put into the bare parallel-list tree (keys, left, right, height)
    # through _insert, below the path a search for it passes; a stored key
    # changes nothing. Returns (root, rotations).
    keys, left, right, _ = tree
    path, node = [], root
    while node and key != keys[node]:
        path.append(node)
        node = left[node] if key < keys[node] else right[node]
    if node:
        return root, 0
    return _insert(key, path, *tree)


def _in_order(root, left, right):
    # the tree's node numbers in key order, walked with an explicit stack
    nodes, stack, node = [], [], root
    while stack or node:
        while node:
            stack.append(node)
            node = left[node]
        node = stack.pop()
        nodes.append(node)
        node = right[node]
    return nodes


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-60, max_value=60), max_size=200))
@example(list(range(64)) + list(range(-1, -64, -1)))
def test_add_keeps_the_avl_invariants(keys):
    tree = stored, left, right, height = [None], [0], [0], [0]
    root = 0
    for i, key in enumerate(keys):
        root, _ = _put(key, root, tree)
        nodes = _in_order(root, left, right)
        order = [stored[node] for node in nodes]
        assert order == sorted(set(keys[: i + 1]))
        for node in nodes:
            lower, upper = height[left[node]], height[right[node]]
            assert height[node] == 1 + max(lower, upper)
            assert abs(lower - upper) <= 1
        assert len(nodes) == len(stored) - 1
    # node 0, the empty tree, is never written
    assert (stored[0], height[0], left[0], right[0]) == (None, 0, 0, 0)


def _view_ledger(view):
    # what scoring every attribute of the view books on treemap
    tally = OpTally(level=len(view) % 3)
    backend = make_backend(TREEMAP, tally)
    for attr in range(view.base.schema.attribute_count):
        process_attribute(view, attr, backend)
    return _ledger(tally)


def _reference_view_ledger(view):
    # the same scans written out key by key and costed by the object-node
    # reference: a real scan adds the labels in the stable order of its
    # values, then reversed; a discrete scan adds the labels and the
    # class-branch pairs (y - 1) * T + v, and books 2T for its branch sizes
    tally = OpTally(level=len(view) % 3)
    if len(view) < 2:
        return _ledger(tally)
    schema = view.base.schema
    labels = view.labels()
    for attr in range(schema.attribute_count):
        values = view.values(attr)
        if schema.is_real(attr):
            ordered = labels[np.argsort(values, kind="stable")].tolist()
            streams, extra = [ordered, ordered[::-1]], 0
        else:
            t = schema.domain_size(attr)
            streams = [labels.tolist(), ((labels - 1) * t + values).tolist()]
            extra = 2 * t
        for keys in streams:
            element, maintenance = _reference_cost(keys)
            tally.element(element)
            tally.maintenance(maintenance)
        tally.maintenance(extra)
    return _ledger(tally)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=2, max_value=70),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=10**6),
    st.data(),
)
def test_treemap_views_book_what_the_reference_books(d, classes, rows, seed, data):
    # every scan of a random mixed-attribute view, constant attributes
    # included, books what its key streams cost on the object-node
    # reference map
    base = random_dataset(random_schema(d, classes, seed), rows, seed)
    rows_strategy = st.integers(min_value=0, max_value=rows - 1)
    view = SubsetView(base, data.draw(st.lists(rows_strategy, unique=True, max_size=rows)))
    assert _view_ledger(view) == _reference_view_ledger(view)


def _runs(draw_keys):
    # key streams made of runs: a few keys, each repeated in runs of 1 to
    # 60, interleaved
    return st.lists(
        st.tuples(draw_keys, st.integers(min_value=1, max_value=60)), max_size=40
    ).map(lambda runs: [key for key, n in runs for _ in range(n)])


def _pair_streams():
    # class-branch pair keys (y - 1) * T + v of a view sorted by class, as
    # a real scan sorts its labels: runs of one class, values interleaved
    return st.integers(min_value=2, max_value=6).flatmap(
        lambda t: st.lists(
            st.tuples(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=t)),
            max_size=600,
        ).map(lambda pairs: [(y - 1) * t + v for y, v in sorted(pairs, key=lambda p: p[0])])
    )


_SCAN_STREAMS = st.one_of(
    st.lists(st.integers(min_value=-500, max_value=500), unique=True, max_size=400),
    st.lists(st.integers(min_value=1, max_value=400), unique=True, max_size=400).map(sorted),
    st.lists(st.integers(min_value=1, max_value=400), unique=True, max_size=400).map(
        lambda keys: sorted(keys, reverse=True)
    ),
    st.lists(st.integers(min_value=1, max_value=6), min_size=100, max_size=900),
    _runs(st.integers(min_value=1, max_value=12)),
    _pair_streams(),
)


@settings(max_examples=200, deadline=None)
@given(_SCAN_STREAMS, st.integers(min_value=1, max_value=4096))
@example([3, 1, 2], 3)  # a double rotation at the root of a three-key tree
@example([5, 2, 8, 1, 4, 3], 8)  # a double rotation at the root, subtrees below it
@example([40] * 300 + [1] * 300 + [80] * 300, 80)  # a few keys, each repeated hundreds of times
def test_treemap_cost_matches_the_reference_replay(keys, slots):
    # all-distinct, ascending, descending and repeat-heavy streams, runs
    # and sorted pair streams: the count-free replay books what the
    # object-node reference does
    assert TreeMapBackend().cost(keys, slots) == _reference_cost(keys)


def _counted_streams():
    # class keys in 1..M for M up to 200: any stream, all keys distinct, one
    # key repeated, and a stream whose last key is new (0, below every key)
    return st.integers(min_value=1, max_value=200).flatmap(
        lambda m: st.one_of(
            st.lists(st.integers(min_value=1, max_value=m), max_size=600),
            st.permutations(range(1, m + 1)),
            st.integers(min_value=0, max_value=300).map(lambda n: [m] * n),
            st.lists(st.integers(min_value=1, max_value=m), max_size=300).map(
                lambda keys: keys + [0]
            ),
        )
    )


@settings(max_examples=200, deadline=None)
@given(st.one_of(_counted_streams(), _SCAN_STREAMS))
@example([])
@example([5] * 40 + [3])  # the last key is the only other one
def test_treemap_key_cost_from_running_counts_matches_the_replay(keys):
    # replaying only the head, up to the last count of 1, and gathering the
    # tail's costs from the final tree books what the full replay and the
    # object-node reference book, for lists and arrays alike
    want = _reference_cost(keys)
    counts = running_counts(np.array(keys, dtype=np.int64))
    ledger = TreeMapBackend()
    got = ledger.key_cost(keys, counts)
    assert got == ledger.key_cost(keys) == want
    assert all(type(part) is int for part in got)
    assert ledger.key_cost(np.array(keys, dtype=np.int64), counts) == want
    assert ledger.cost(keys, 7, counts) == ledger.cost(keys, 7)
    assert DenseBackend().key_cost(keys, counts) == DenseBackend().key_cost(keys)


class _CountedBooks(TreeMapBackend):
    # records every stream it is asked to book, with the counts given
    def __init__(self):
        super().__init__()
        self.books = []

    def book(self, keys, slots, counts=None):
        self.books.append((np.array(keys), slots, counts))
        super().book(keys, slots, counts)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 7, 70, (1 << 16) - 1, 1 << 16, (1 << 16) + 3]), st.data())
def test_a_real_scan_books_each_direction_with_its_running_counts(classes, data):
    # the forward counts a real scan books with, counted under the bound
    # M + 1, and the mirrored backward ones are the running counts of the
    # streams they go with; past M + 1 = 2**16 the labels must be sorted as
    # they come, since 16 bits would fold label M onto label M - 2**16
    pool = st.sampled_from(sorted({1, 2, classes, max(1, classes - (1 << 16))}))
    rows = data.draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=5), pool | st.integers(1, classes)),
            min_size=2,
            max_size=300,
        )
    )
    schema = AttributeSchema((Attribute("x", REAL),), classes)
    values, labels = zip(*rows)
    view = Dataset(schema, [values], labels, class_names(classes)).full_view()
    backend = _CountedBooks()
    build_real_scan(view, 0, backend)
    labels = view.labels()[np.argsort(view.values(0), kind="stable")]
    assert len(backend.books) == 2
    for (keys, slots, counts), want in zip(backend.books, (labels, labels[::-1])):
        assert slots == classes
        assert keys.tolist() == want.tolist()
        assert counts.tolist() == running_counts(want).tolist()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), max_size=200),
    st.lists(st.integers(min_value=0, max_value=200), max_size=12),
)
def test_sliced_key_cost_sums_the_key_cost_of_each_slice(keys, cuts):
    # slices of any length, empty ones and overlapping ones included
    n = len(keys)
    starts = np.array([min(c, n) for c in cuts[0::2]], dtype=np.int64)
    ends = np.array([max(min(c, n), lo) for c, lo in zip(cuts[1::2], starts)], dtype=np.int64)
    starts = starts[: len(ends)]
    for backend in (DenseBackend(), TreeMapBackend()):
        want = [backend.key_cost(keys[lo:hi]) for lo, hi in zip(starts.tolist(), ends.tolist())]
        got = backend.sliced_key_cost(np.array(keys, dtype=np.int64), starts, ends)
        assert got == (tuple(map(sum, zip(*want))) or (0, 0))
        assert all(type(part) is int for part in got)


@pytest.mark.parametrize(
    "keys, depth, root", [([3, 1, 2], 2, 2), ([5, 2, 8, 1, 4, 3], 3, 4)]
)
def test_a_double_rotation_at_the_root_is_booked_twice(keys, depth, root):
    # the last key lands below depth nodes, on the inner side of the root's
    # taller child: the root's inner grandchild is lifted twice and becomes
    # the root, and both rotations are booked visits
    tree = [None], [0], [0], [0]
    top = 0
    for key in keys[:-1]:
        top, _ = _put(key, top, tree)
    top, rotations = _put(keys[-1], top, tree)
    assert (tree[0][top], rotations) == (root, 2)
    ledger = TreeMapBackend()
    booked = ledger.cost(keys, 1)[0] - ledger.cost(keys[:-1], 1)[0]
    assert booked == 2 * depth + 1 + 2
    assert ledger.cost(keys, 1) == _reference_cost(keys)


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
