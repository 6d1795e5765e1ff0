"""Classical tree growth, prediction, serialization, and cost accounting."""

import math
import random

import pytest

from qdtree import oracle
from qdtree.builder import (
    BACKENDS,
    BuildConfig,
    BuildStats,
    DecisionTree,
    Internal,
    Leaf,
    choose_split,
    classify,
    document_to_tree,
    format_tree,
    load_model,
    route,
    save_model,
    serialize_model,
    train,
    training_accuracy,
    tree_height,
    tree_to_document,
)
from qdtree.counters import BASELINE, TREEMAP, make_backend
from qdtree.criteria import OpTally
from qdtree.dataset import (
    DISCRETE,
    REAL,
    Attribute,
    AttributeSchema,
    DataFormatError,
    Dataset,
)
from qdtree.qbuilder import q_train
from qdtree.synth import grid_dataset, planted_dataset, random_dataset, random_schema


def xor_data():
    schema = AttributeSchema((Attribute("x1", REAL), Attribute("x2", REAL)), 2)
    return Dataset(
        schema,
        [[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]],
        [1, 2, 2, 1],
        ("a", "b"),
    )


def test_config_validation():
    BuildConfig()
    with pytest.raises(ValueError):
        BuildConfig(max_height=-1)
    with pytest.raises(ValueError):
        BuildConfig(min_split=1)
    with pytest.raises(ValueError):
        BuildConfig(backend="btree")
    with pytest.raises(ValueError):
        BuildConfig(backend="quantum")  # needs a seed
    BuildConfig(backend="quantum", seed=0)
    assert set(BACKENDS) == {"baseline", "treemap", "quantum"}


def test_choose_split_takes_best_ratio():
    schema = AttributeSchema((Attribute("x1", REAL), Attribute("x2", REAL)), 2)
    # x2 separates perfectly, x1 only partially
    data = Dataset(
        schema,
        [[1.0, 2.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0]],
        [1, 1, 2, 2],
        ("a", "b"),
    )
    backend = make_backend(TREEMAP, 2, OpTally())
    attr, test, score = choose_split(data.full_view(), backend)
    assert attr == 1 and test.theta == 2.5


def test_choose_split_tie_takes_lowest_attribute():
    schema = AttributeSchema((Attribute("x1", REAL), Attribute("x2", REAL)), 2)
    data = Dataset(schema, [[1.0, 2.0], [1.0, 2.0]], [1, 2], ("a", "b"))
    backend = make_backend(TREEMAP, 2, OpTally())
    attr, test, score = choose_split(data.full_view(), backend)
    assert attr == 0


def test_choose_split_no_candidates():
    schema = AttributeSchema((Attribute("x1", REAL),), 2)
    data = Dataset(schema, [[3.0, 3.0]], [1, 2], ("a", "b"))
    backend = make_backend(TREEMAP, 2, OpTally())
    assert choose_split(data.full_view(), backend) is None


def test_choose_split_agrees_with_reference_argmax():
    rng = random.Random("choose-vs-ref")
    for i in range(30):
        schema = random_schema(rng.randint(1, 5), rng.randint(2, 4), seed=200 + i)
        data = random_dataset(schema, rng.randint(2, 32), seed=200 + i)
        view = data.full_view()
        backend = make_backend(TREEMAP, schema.class_count, OpTally())
        got = choose_split(view, backend)
        best_set = oracle.argmax_attributes(view, tol=1e-9)
        if got is None:
            assert best_set == set()
        else:
            assert got[0] in best_set


def test_train_single_row_is_a_leaf():
    schema = AttributeSchema((Attribute("x1", REAL),), 1)
    data = Dataset(schema, [[1.0]], [1], ("only",))
    tree = train(data)
    assert isinstance(tree.root, Leaf)
    assert tree.root.class_index == 1
    assert training_accuracy(tree, data) == 1.0


def test_train_pure_labels_never_split():
    schema = AttributeSchema((Attribute("x1", REAL),), 2)
    data = Dataset(schema, [[1.0, 2.0, 3.0]], [2, 2, 2], ("a", "b"))
    tree = train(data)
    assert isinstance(tree.root, Leaf) and tree.root.class_index == 2


def test_train_height_zero_forces_majority_leaf():
    data = xor_data()
    tree = train(data, BuildConfig(max_height=0))
    assert isinstance(tree.root, Leaf)
    assert tree.root.class_index == 1  # tie breaks to the lower class
    assert training_accuracy(tree, data) == 0.5


def test_leaf_support_counts_and_majority():
    schema = AttributeSchema((Attribute("x1", REAL),), 3)
    data = Dataset(schema, [[1.0, 2.0, 3.0, 4.0, 5.0]], [2, 1, 2, 3, 2], ("a", "b", "c"))
    tree = train(data, BuildConfig(max_height=0))
    assert tree.root.support == (1, 3, 1)
    assert all(type(c) is int for c in tree.root.support)
    assert tree.root.class_index == 2


def test_leaf_majority_tie_takes_lowest_class():
    schema = AttributeSchema((Attribute("x1", REAL),), 3)
    data = Dataset(schema, [[1.0, 2.0, 3.0, 4.0]], [3, 1, 1, 3], ("a", "b", "c"))
    tree = train(data, BuildConfig(max_height=0))
    assert tree.root.support == (2, 0, 2)
    assert tree.root.class_index == 1


def test_train_xor_needs_two_levels():
    data = xor_data()
    assert oracle.exhaustive_depth1_accuracy(data.full_view()) == 0.5
    tree = train(data, BuildConfig(max_height=2))
    assert tree_height(tree.root) == 2
    assert training_accuracy(tree, data) == 1.0
    assert tree.stats.internal_nodes == 3


def test_train_respects_height_limit():
    rng = random.Random("height-limit")
    for i in range(10):
        schema = random_schema(3, 3, seed=300 + i)
        data = random_dataset(schema, 40, seed=300 + i)
        h = rng.randint(0, 3)
        tree = train(data, BuildConfig(max_height=h))
        assert tree_height(tree.root) <= h


def test_train_respects_min_split():
    data = xor_data()
    tree = train(data, BuildConfig(max_height=5, min_split=5))
    assert isinstance(tree.root, Leaf)


def test_node_supports_are_consistent():
    data = planted_dataset(80, 6, 2, seed=3)
    tree = train(data, BuildConfig(max_height=4))

    def walk(node):
        if isinstance(node, Leaf):
            return
        total = sum(node.support)
        child_sum = 0
        for ch in node.children:
            # empty branches inherit the parent support, skip those
            if ch.support is not node.support:
                child_sum += sum(ch.support)
            walk(ch)
        assert child_sum <= total

    assert sum(tree.root.support) == 80
    walk(tree.root)


def test_classify_real_and_discrete_paths():
    schema = AttributeSchema(
        (Attribute("x1", REAL), Attribute("c1", DISCRETE, 2)), 2
    )
    data = Dataset(schema, [[1.0, 2.0, 1.0, 2.0], [1, 1, 2, 2]], [1, 2, 1, 2], ("a", "b"))
    tree = train(data, BuildConfig(max_height=3))
    for i in range(4):
        assert classify(tree, data.row(i)) == data.labels[i]
    # boundary goes left: the learned threshold is 1.5
    assert classify(tree, (1.5, 1)) == classify(tree, (1.0, 1))


def test_classify_rejects_out_of_domain_discrete():
    schema = AttributeSchema((Attribute("c1", DISCRETE, 2),), 2)
    data = Dataset(schema, [[1, 1, 2, 2]], [1, 1, 2, 2], ("a", "b"))
    tree = train(data)
    for value in (3, 0, 7.0):
        with pytest.raises(DataFormatError) as e:
            classify(tree, (value,))
        assert str(e.value) == "value %r of attribute index 0 outside 1..2" % (value,)


def test_classify_rejects_non_finite_real():
    # the CSV reader and load_model refuse these too; none may reach a leaf
    schema = AttributeSchema((Attribute("x1", REAL),), 2)
    data = Dataset(schema, [[1.0, 2.0]], [1, 2], ("a", "b"))
    tree = train(data)
    for value in (math.nan, math.inf, -math.inf, "nan", "inf", "-inf", "1e400"):
        with pytest.raises(DataFormatError) as e:
            classify(tree, (value,))
        assert str(e.value) == "value %r of attribute index 0 is not finite" % (value,)
    assert classify(tree, ("1e300",)) == 2


def test_classify_xor_exactly():
    data = xor_data()
    tree = train(data, BuildConfig(max_height=2))
    got = [classify(tree, data.row(i)) for i in range(4)]
    assert got == list(data.labels)


def test_empty_branch_gets_parent_majority_leaf():
    schema = AttributeSchema((Attribute("c1", DISCRETE, 3),), 2)
    # value 3 never occurs; its branch must still exist for prediction
    data = Dataset(schema, [[1, 1, 2, 2]], [1, 1, 2, 2], ("a", "b"))
    tree = train(data)
    assert isinstance(tree.root, Internal)
    assert len(tree.root.children) == 3
    fallback = tree.root.children[2]
    assert isinstance(fallback, Leaf)
    assert fallback.class_index == 1
    assert classify(tree, (3,)) == 1


def test_backends_build_identical_trees():
    for i in range(10):
        schema = random_schema(4, 3, seed=400 + i)
        data = random_dataset(schema, 48, seed=400 + i)
        a = train(data, BuildConfig(max_height=3, backend=BASELINE))
        b = train(data, BuildConfig(max_height=3, backend=TREEMAP))
        assert serialize_model(a) == serialize_model(b)


def test_evaluations_count_attribute_visits():
    data = planted_dataset(64, 16, 2, seed=0)
    tree = train(data, BuildConfig(max_height=4))
    k = tree.stats.internal_nodes
    assert k >= 3
    # choose_split scores every attribute once per realized or attempted node
    assert tree.stats.evaluations % data.schema.attribute_count == 0
    assert tree.stats.evaluations >= k * data.schema.attribute_count


def test_counter_ops_flat_for_treemap_growing_for_baseline():
    flat = []
    growing = []
    for m in (4, 64):
        data = grid_dataset(128, 4, seed=0, class_count=m)
        t = train(data, BuildConfig(max_height=4, backend=TREEMAP))
        b = train(data, BuildConfig(max_height=4, backend=BASELINE))
        flat.append(t.stats.counter_ops)
        growing.append(b.stats.counter_ops)
    assert flat[0] == flat[1]
    assert growing[1] >= 8 * growing[0]


def test_quantum_backend_refuses_plain_train():
    data = xor_data()
    with pytest.raises(ValueError):
        train(data, BuildConfig(backend="quantum", seed=1))


def test_model_document_shape():
    data = xor_data()
    tree = train(data, BuildConfig(max_height=2))
    doc = tree_to_document(tree)
    assert list(doc) == ["schema", "class_label_mapping", "root"]
    assert doc["schema"]["class_count"] == 2
    assert doc["class_label_mapping"] == ["a", "b"]
    root = doc["root"]
    assert root["kind"] == "internal" and root["attr"] in (0, 1)
    assert "theta" in root
    assert len(root["children"]) == 2


def test_model_roundtrip_bytes_and_predictions(tmp_path):
    data = planted_dataset(60, 5, 2, seed=9)
    tree = train(data, BuildConfig(max_height=4))
    path = tmp_path / "model.json"
    save_model(tree, path)
    again = load_model(path)
    assert serialize_model(again) == serialize_model(tree)
    for i in range(data.n_rows):
        assert classify(again, data.row(i)) == classify(tree, data.row(i))


def test_document_to_tree_rejects_garbage():
    with pytest.raises((DataFormatError, KeyError, ValueError)):
        document_to_tree({"root": {"kind": "real"}})


def discrete_document():
    schema = AttributeSchema((Attribute("c1", DISCRETE, 2),), 2)
    data = Dataset(schema, [[1, 1, 2, 2]], [1, 1, 2, 2], ("a", "b"))
    return tree_to_document(train(data))


def test_document_to_tree_rejects_branch_count_off_domain():
    doc = discrete_document()
    assert document_to_tree(doc).root.test.branch_count == 2
    root = doc["root"]
    root["branch_count"] = 3
    root["children"].append(dict(root["children"][0]))
    with pytest.raises(DataFormatError):
        document_to_tree(doc)


@pytest.mark.parametrize(
    "field, value",
    [
        ("branch_count", 2.0),  # equal to the domain size, but no JSON integer
        ("branch_count", True),
        ("domain_size", 2.0),
        ("name", 5),
        ("kind", ["discrete"]),
    ],
)
def test_document_to_tree_rejects_wrong_json_types(field, value):
    doc = discrete_document()
    if field == "branch_count":
        doc["root"][field] = value
    else:
        doc["schema"]["attributes"][0][field] = value
    with pytest.raises(DataFormatError):
        document_to_tree(doc)


def test_serialized_model_is_byte_stable():
    data = xor_data()
    a = serialize_model(train(data, BuildConfig(max_height=2)))
    b = serialize_model(train(data, BuildConfig(max_height=2)))
    assert a == b
    assert a.endswith("\n")


def test_format_tree_renders_paths():
    data = xor_data()
    tree = train(data, BuildConfig(max_height=2))
    text = format_tree(tree)
    assert "x1 <= 0.5" in text or "x2 <= 0.5" in text
    assert "=>" in text


def test_stats_report_leaf_and_node_counts():
    data = xor_data()
    tree = train(data, BuildConfig(max_height=2))
    assert tree.stats.internal_nodes == 3
    assert tree.stats.leaves == 4


def reference_classify(tree, x):
    """The per-row walk that route replaced, kept as its reference."""
    node = tree.root
    while isinstance(node, Internal):
        test = node.test
        value = x[test.attr]
        if test.kind == REAL:
            node = node.children[0] if float(value) <= test.theta else node.children[1]
        else:
            w = int(value)
            if not 1 <= w <= test.branch_count:
                raise DataFormatError(
                    "value %r of attribute index %d outside 1..%d"
                    % (value, test.attr, test.branch_count)
                )
            node = node.children[w - 1]
    return node.class_index


def _has_empty_branch(node):
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Internal):
            if any(isinstance(c, Leaf) and c.support is node.support for c in node.children):
                return True
            stack.extend(node.children)
    return False


def _equivalence_trees():
    for i in range(24):
        schema = random_schema(4, 3, seed=700 + i, kinds=("mixed", "discrete")[i % 2])
        data = random_dataset(schema, 40 + 5 * i, seed=700 + i)
        fresh = random_dataset(schema, 60, seed=900 + i)
        for backend in (BASELINE, TREEMAP):
            yield train(data, BuildConfig(max_height=4, backend=backend)), data, fresh
        if i % 3 == 0:
            config = BuildConfig(max_height=4, backend="quantum", seed=i)
            yield q_train(data, config).tree, data, fresh


def test_route_matches_per_row_walk():
    empty_branches = 0
    for tree, data, fresh in _equivalence_trees():
        empty_branches += _has_empty_branch(tree.root)
        for rows in (data, fresh):
            expected = [reference_classify(tree, rows.row(i)) for i in range(rows.n_rows)]
            assert route(tree, rows.columns).tolist() == expected
            assert [classify(tree, rows.row(i)) for i in range(rows.n_rows)] == expected
        hits = sum(reference_classify(tree, data.row(i)) == y for i, y in enumerate(data.labels))
        assert training_accuracy(tree, data) == hits / data.n_rows
    assert empty_branches >= 10
