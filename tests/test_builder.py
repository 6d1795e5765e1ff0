"""Classical tree growth, prediction, serialization, and cost accounting."""

import contextlib
import hashlib
import json
import math
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from nested_arrays import nested, nested_in_itself

from qdtree import builder, jsonio, oracle, qbuilder, splitscan
from qdtree.builder import (
    BACKENDS,
    BuildConfig,
    BuildStats,
    DecisionTree,
    Internal,
    Leaf,
    _CHUNK,
    choose_split,
    classify,
    grow,
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
from qdtree.dataset import (
    DISCRETE,
    REAL,
    Attribute,
    AttributeSchema,
    DataFormatError,
    Dataset,
    branch_masks,
    partition,
)
from qdtree.qbuilder import q_train, serialize_report
from qdtree.splitscan import SplitTest
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


@pytest.mark.parametrize("verify", ["no", 1, None])
def test_config_rejects_a_verify_that_is_not_a_bool(verify):
    # verify="no" used to turn verification on
    with pytest.raises(ValueError, match="verify must be a bool"):
        BuildConfig(backend="quantum", seed=0, verify=verify)


def test_config_rejects_a_string_seed():
    # q_train would fail later formatting the seed with %d
    with pytest.raises(ValueError, match="seed must be an integer"):
        BuildConfig(backend="quantum", seed="7")


def test_config_rejects_a_fractional_or_bool_seed():
    # seed=1.5 would silently build the tree of seed=1
    for seed in (1.5, True):
        with pytest.raises(ValueError, match="seed must be an integer"):
            BuildConfig(backend="quantum", seed=seed)
    assert BuildConfig(backend="quantum", seed=np.int64(7)).seed == 7


@pytest.mark.parametrize(
    "field,value",
    [
        ("max_height", "3"),  # a bare TypeError from the comparison
        ("max_height", 2.5),  # a height no level can reach exactly
        ("max_height", True),
        ("min_split", 2.5),
        ("min_split", "2"),
        ("min_split", True),
    ],
)
def test_config_rejects_a_height_or_split_size_that_is_not_an_integer(field, value):
    with pytest.raises(ValueError, match="%s must be an integer" % field):
        BuildConfig(**{field: value})


def test_config_accepts_numpy_integer_knobs():
    config = BuildConfig(max_height=np.int64(3), min_split=np.int32(4))
    assert (config.max_height, config.min_split) == (3, 4)


def test_choose_split_takes_best_ratio():
    schema = AttributeSchema((Attribute("x1", REAL), Attribute("x2", REAL)), 2)
    # x2 separates perfectly, x1 only partially
    data = Dataset(
        schema,
        [[1.0, 2.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0]],
        [1, 1, 2, 2],
        ("a", "b"),
    )
    backend = make_backend(TREEMAP)
    attr, test, score = choose_split(data.full_view(), backend)
    assert attr == 1 and test.theta == 2.5


def test_choose_split_tie_takes_lowest_attribute():
    schema = AttributeSchema((Attribute("x1", REAL), Attribute("x2", REAL)), 2)
    data = Dataset(schema, [[1.0, 2.0], [1.0, 2.0]], [1, 2], ("a", "b"))
    backend = make_backend(TREEMAP)
    attr, test, score = choose_split(data.full_view(), backend)
    assert attr == 0


def test_choose_split_no_candidates():
    schema = AttributeSchema((Attribute("x1", REAL),), 2)
    data = Dataset(schema, [[3.0, 3.0]], [1, 2], ("a", "b"))
    backend = make_backend(TREEMAP)
    assert choose_split(data.full_view(), backend) is None


def test_choose_split_agrees_with_reference_argmax():
    rng = random.Random("choose-vs-ref")
    for i in range(30):
        schema = random_schema(rng.randint(1, 5), rng.randint(2, 4), seed=200 + i)
        data = random_dataset(schema, rng.randint(2, 32), seed=200 + i)
        view = data.full_view()
        backend = make_backend(TREEMAP)
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
    for value in (3, 0, 7.0, 10**400):
        with pytest.raises(DataFormatError) as e:
            classify(tree, (value,))
        assert str(e.value) == "attribute 'c1' holds values outside 1..2"


def test_classify_rejects_non_integral_discrete():
    # int() used to truncate 1.5 to 1 and fail on inf and nan with bare
    # OverflowError and ValueError; whole floats and numeric strings route
    schema = AttributeSchema((Attribute("c1", DISCRETE, 2),), 2)
    data = Dataset(schema, [[1, 1, 2, 2]], [1, 1, 2, 2], ("a", "b"))
    tree = train(data)
    for value in (1.5, 0.5, "1.5"):
        with pytest.raises(DataFormatError) as e:
            classify(tree, (value,))
        assert str(e.value) == "attribute 'c1' holds values that are not whole numbers"
    for value in (math.inf, -math.inf, math.nan, "nan"):
        with pytest.raises(DataFormatError) as e:
            classify(tree, (value,))
        assert str(e.value) == "attribute 'c1' holds values that are not finite"
    # float(np.array(True)) is 1.0, so a 0-d bool array routed as the value 1
    for value in (True, None, "two", np.bool_(False), np.array(True)):
        with pytest.raises(DataFormatError) as e:
            classify(tree, (value,))
        assert str(e.value) == "attribute 'c1' holds values that are not numbers"
    assert [classify(tree, (v,)) for v in (2.0, 1.0, 2, np.int64(1), "2")] == [2, 1, 2, 1, 2]


def test_classify_rejects_non_finite_real():
    # the CSV reader and load_model refuse these too; none may reach a leaf
    schema = AttributeSchema((Attribute("x1", REAL),), 2)
    data = Dataset(schema, [[1.0, 2.0]], [1, 2], ("a", "b"))
    tree = train(data)
    for value in (math.nan, math.inf, -math.inf, "nan", "inf", "-inf", "1e400", 10**400):
        with pytest.raises(DataFormatError) as e:
            classify(tree, (value,))
        assert str(e.value) == "attribute 'x1' holds values that are not finite"
    assert classify(tree, ("1e300",)) == 2
    for value in ("abc", None, False, np.array(False, dtype=object)):
        with pytest.raises(DataFormatError) as e:
            classify(tree, (value,))
        assert str(e.value) == "attribute 'x1' holds values that are not numbers"


def test_classify_rejects_malformed_vectors():
    # a vector of the wrong length, a string or a non-sequence must never
    # reach a leaf, nor end in a bare IndexError or TypeError
    schema = AttributeSchema((Attribute("x1", REAL), Attribute("c1", DISCRETE, 2)), 2)
    data = Dataset(schema, [[1.0, 2.0, 1.0, 2.0], [1, 1, 2, 2]], [1, 2, 1, 2], ("a", "b"))
    tree = train(data, BuildConfig(max_height=3))
    for x, n in (((1,), 1), ((1, 0.5, 9), 3), ([], 0), (np.array([1.0, 1, 1]), 3)):
        with pytest.raises(DataFormatError) as e:
            classify(tree, x)
        assert str(e.value) == "expected 2 attribute values, got %d" % (n,)
    for x in (5, "12", b"12", {1, 2}, None, np.array(1.0), np.array([[1.0, 1]])):
        with pytest.raises(DataFormatError) as e:
            classify(tree, x)
        assert str(e.value) == (
            "expected a sequence of 2 attribute values, got %s" % (type(x).__name__,)
        )
    assert [classify(tree, x) for x in ((2.0, 1), [2.0, 1], np.array([2.0, 1]))] == [2, 2, 2]


def test_classify_names_the_first_refused_attribute_in_schema_order():
    # the real and discrete values are checked in separate calls; either
    # may hold the first bad value
    schema = AttributeSchema(
        (Attribute("c1", DISCRETE, 2), Attribute("x1", REAL), Attribute("c2", DISCRETE, 3)), 2
    )
    tree = DecisionTree(Leaf(1, (0, 0)), schema, ("a", "b"), BuildStats())
    for row, message in (
        ((1, "abc", 4), "attribute 'x1' holds values that are not numbers"),
        ((0, math.nan, 1), "attribute 'c1' holds values outside 1..2"),
        ((2, 1.0, 3.5), "attribute 'c2' holds values that are not whole numbers"),
        ((3, 1.0, 4), "attribute 'c1' holds values outside 1..2"),
    ):
        with pytest.raises(DataFormatError) as e:
            classify(tree, row)
        assert str(e.value) == message
    assert classify(tree, (2, 1.0, 3)) == 1


def test_classify_refuses_arrays_nested_past_float_recursion():
    # float() recursed once per level and ended in a bare RecursionError;
    # numpy's own repr of the deep array recurses, so it cannot be an
    # explicit Hypothesis example. An array is not a number at any depth:
    # float() read a 0-d one, or one nested 50 deep, as the number it held
    schema = AttributeSchema((Attribute("x1", REAL), Attribute("c1", DISCRETE, 2)), 2)
    tree = DecisionTree(Leaf(1, (0, 0)), schema, ("a", "b"), BuildStats())
    for value in (
        nested_in_itself(),
        nested(np.array(1.0), 3000),
        nested(np.array(1), 50),
        np.array(1.0),
        np.array(1 + 2j),
        np.array([1]),
        [1.0],
    ):
        for row, name in (((value, 1), "x1"), ((1.0, value), "c1")):
            with pytest.raises(DataFormatError) as e:
                classify(tree, row)
            assert str(e.value) == "attribute %r holds values that are not numbers" % (name,)


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
        flat.append(t.stats.tally.maintenance_ops)
        growing.append(b.stats.tally.maintenance_ops)
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


def test_only_string_class_labels_reach_a_model(tmp_path):
    # load_model reads string labels only, so a dataset refuses the others
    # rather than train a tree whose saved model cannot be read back
    schema = AttributeSchema((Attribute("x", REAL),), 2)
    with pytest.raises(ValueError, match="class labels must be strings"):
        Dataset(schema, [[1.0, 2.0]], [1, 2], (1, 2))
    tree = train(Dataset(schema, [[1.0, 2.0]], [1, 2], ("1", "2")))
    path = tmp_path / "model.json"
    save_model(tree, path)
    again = load_model(path)
    assert again.class_labels == ("1", "2")
    assert serialize_model(again) == serialize_model(tree)


def test_numpy_integer_sizes_reach_the_model_as_ints(tmp_path):
    # Attribute and AttributeSchema kept the np.int64, and the model writer
    # failed on it with json's bare TypeError
    attrs = (Attribute("c", DISCRETE, np.int64(3)), Attribute("x", REAL))
    schema = AttributeSchema(attrs, np.int64(2))
    assert type(schema.domain_size(0)) is int and type(schema.class_count) is int
    data = Dataset(schema, [[1, 2, 3, 1], [0.5, 1.5, 2.5, 3.5]], [1, 2, 2, 1], ("a", "b"))
    tree = train(data)
    save_model(tree, tmp_path / "m.json")
    assert serialize_model(load_model(tmp_path / "m.json")) == serialize_model(tree)


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


def _reference_node_document(node):
    """The recursive node emitter that write_model replaced. A threshold
    goes in as its format_float text, which reference_model_text unquotes."""
    if isinstance(node, Leaf):
        return {"kind": "leaf", "class": node.class_index, "support": node.support}
    doc = {"kind": "internal", "attr": node.test.attr}
    if node.test.kind == REAL:
        doc["theta"] = jsonio.format_float(node.test.theta)
    else:
        doc["branch_count"] = node.test.branch_count
    doc["support"] = node.support
    doc["children"] = [_reference_node_document(child) for child in node.children]
    return doc


def reference_model_text(tree):
    attrs = []
    for a in tree.schema.attributes:
        entry = {"name": a.name, "kind": a.kind}
        if a.kind == DISCRETE:
            entry["domain_size"] = a.domain_size
        attrs.append(entry)
    doc = {
        "schema": {"class_count": tree.schema.class_count, "attributes": attrs},
        "class_label_mapping": list(tree.class_labels),
        "root": _reference_node_document(tree.root),
    }
    # a quote inside a JSON string is escaped, so only a theta field's own
    # value can follow an unescaped '"theta": "'
    text = json.dumps(doc, indent=2)
    return re.sub(r'"theta": "([^"]*)"', r'"theta": \1', text) + "\n"


def assert_written_as_reference(tree, path):
    text = serialize_model(tree)
    assert text == reference_model_text(tree)
    save_model(tree, path)
    assert path.read_bytes() == text.encode("utf-8")
    return text


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    d=st.integers(1, 4),
    m=st.integers(1, 5),
    n=st.integers(1, 40),
    height=st.integers(0, 5),
    backend=st.sampled_from(["baseline", "treemap", "quantum", "quantum-verify"]),
)
def test_writer_matches_recursive_emitter(tmp_path_factory, seed, d, m, n, height, backend):
    data = random_dataset(random_schema(d, m, seed, kinds="mixed", max_domain=4), n, seed)
    if backend.startswith("quantum"):
        config = BuildConfig(
            max_height=height, backend="quantum", seed=seed, verify=backend.endswith("verify")
        )
        tree = q_train(data, config).tree
    else:
        tree = train(data, BuildConfig(max_height=height, backend=backend))
    assert_written_as_reference(tree, tmp_path_factory.mktemp("model") / "m.json")


def test_writer_matches_recursive_emitter_across_chunks(tmp_path):
    schema = random_schema(8, 32, "chunks", kinds="discrete", max_domain=4)
    tree = train(random_dataset(schema, 400, "chunks"))
    text = assert_written_as_reference(tree, tmp_path / "m.json")
    assert len(text) > 8 * _CHUNK


def test_writer_matches_recursive_emitter_on_a_leaf_root(tmp_path):
    data = xor_data()
    tree = train(data, BuildConfig(max_height=0))
    assert isinstance(tree.root, Leaf)
    text = assert_written_as_reference(tree, tmp_path / "m.json")
    assert tree_to_document(tree)["root"] == {"kind": "leaf", "class": 1, "support": [2, 2]}
    assert serialize_model(load_model(tmp_path / "m.json")) == text


def _recursive_grow(view, config, stats, choose, level=0, support=None):
    """The recursive growth that grow replaced, over the same form_tree step,
    passing each child the support form_tree counted for it."""
    if support is None:
        support = builder.support_of(view)
    node, todo = builder.form_tree(view, support, level, config, stats, choose)
    for slot, part, part_support in todo:
        node.children[slot] = _recursive_grow(part, config, stats, choose, level + 1, part_support)
    return node


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    d=st.integers(1, 4),
    m=st.integers(1, 5),
    n=st.integers(1, 40),
    height=st.integers(0, 5),
    backend=st.sampled_from(["baseline", "treemap", "quantum", "quantum-verify"]),
)
def test_grower_matches_recursive_growth(seed, d, m, n, height, backend):
    # the quantum searches draw from one rng in the order the steps run, so
    # equal reports and rng states show that the stack grows in preorder
    data = random_dataset(random_schema(d, m, seed, kinds="mixed", max_domain=4), n, seed)

    def build():
        if backend.startswith("quantum"):
            rng = random.Random(seed)
            config = BuildConfig(
                max_height=height, backend="quantum", seed=seed, verify=backend.endswith("verify")
            )
            report = q_train(data, config, rng)
            return report.tree, (serialize_report(report), rng.getstate())
        return train(data, BuildConfig(max_height=height, backend=backend)), ()

    tree, searches = build()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builder, "grow", _recursive_grow)
        patch.setattr(qbuilder, "grow", _recursive_grow)
        reference, reference_searches = build()
    assert serialize_model(tree) == serialize_model(reference)
    # node and leaf counts, evaluations, both op counts and by_level
    assert tree.stats == reference.stats
    assert searches == reference_searches


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    d=st.integers(1, 6),
    m=st.integers(1, 8),
    n=st.integers(1, 300),
    height=st.integers(0, 8),
    min_split=st.integers(2, 5),
    backend=st.sampled_from([BASELINE, TREEMAP]),
)
# a level with no view to score is handed no view and books nothing, not a
# 0 at its level
@example(seed=0, d=2, m=1, n=2, height=1, min_split=2, backend=BASELINE)
def test_every_level_batched_matches_the_per_view_loop(seed, d, m, n, height, min_split, backend):
    # with the cutoff at zero every level is batched, and with it out of
    # reach none is; small builds rarely reach the batch otherwise
    data = random_dataset(random_schema(d, m, seed, kinds="mixed", max_domain=5), n, seed)
    config = BuildConfig(max_height=height, min_split=min_split, backend=backend)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splitscan, "BATCH_MIN_ROWS", 0)
        batched = train(data, config)
        patch.setattr(splitscan, "BATCH_MIN_ROWS", 10**12)
        looped = train(data, config)
    assert serialize_model(batched) == serialize_model(looped)
    assert batched.stats == looped.stats


def test_level_order_hands_each_level_to_the_hook_before_stepping_it():
    # a 3-way split of 9 rows, then 3-way splits of each child
    schema = AttributeSchema((Attribute("a", DISCRETE, 3), Attribute("b", DISCRETE, 3)), 9)
    a = [1, 1, 1, 2, 2, 2, 3, 3, 3]
    b = [1, 2, 3] * 3
    data = Dataset(schema, [a, b], list(range(1, 10)), tuple("k%d" % j for j in range(9)))
    steps = []
    stats = BuildStats()
    backend = make_backend(BASELINE, stats.tally)

    class Chooser:
        # records what grow hands it, and splits as train does
        def start_level(self, views, level):
            steps.append(("level", level, [len(v) for v in views]))

        def __call__(self, view):
            steps.append(("choose", len(view)))
            choice = choose_split(view, backend, stats)
            return None if choice is None else choice[1]

    tree = grow(data.full_view(), BuildConfig(), stats, Chooser())
    # level 2's nine 1-row views are pure, so the hook gets none of them
    assert steps == [
        ("level", 0, [9]), ("choose", 9),
        ("level", 1, [3, 3, 3]), ("choose", 3), ("choose", 3), ("choose", 3),
        ("level", 2, []),
    ]
    assert serialize_model(DecisionTree(tree, schema, data.class_labels, stats)) == (
        serialize_model(train(data))
    )
    assert stats == train(data).stats


def _stopping_kind(node, min_split):
    """Why a node of a tree grown with min_split stopped or went on: "split",
    "pure" (one class on min_split rows or more), "small" (two classes or
    more on fewer rows), or None."""
    rows, classes = sum(node.support), sum(map(bool, node.support))
    if isinstance(node, Internal):
        return "split"
    if classes == 1 and rows >= min_split:
        return "pure"
    return "small" if classes > 1 and rows < min_split else None


@pytest.mark.parametrize("backend", [BASELINE, TREEMAP])
def test_each_level_batch_holds_exactly_the_views_form_tree_scores(backend):
    # with every level batched, on levels that mix pure views, views under
    # min_split and views that form_tree splits, each batch holds the views
    # its level scores, in step order: it books no view twice or never, and
    # the batched views number evaluations / d
    rng = random.Random("batch-scored")
    # a0 = 1 is pure, a0 = 2 holds 3 mixed rows, a0 = 3 splits the same way
    # again on a1; a2 and the labels left None are noise
    rows = [(1, None, 1)] * 20 + [(2, None, y) for y in (1, 2, 3)]
    rows += [(3, 1, 2)] * 20 + [(3, 2, y) for y in (1, 2, 3)] + [(3, 3, None)] * 40
    rows = [(a0, a1 or rng.randint(1, 3), rng.randint(1, 3), y or rng.randint(1, 3))
            for a0, a1, y in rows]
    *columns, labels = map(list, zip(*rows))
    schema = AttributeSchema(tuple(Attribute("a%d" % j, DISCRETE, 3) for j in range(3)), 3)
    data = Dataset(schema, columns, labels, ("x", "y", "z"))
    config = BuildConfig(max_height=5, min_split=6, backend=backend)
    batched, scored = {}, {}

    class RecordedBatch(splitscan.LevelBatch):
        def __init__(self, views, backend):
            super().__init__(views, backend)
            assert backend.tally.level not in batched
            batched[backend.tally.level] = list(views)

    def recorded_choose_split(view, backend, stats=None, batch=None):
        scored.setdefault(stats.tally.level, []).append(view)
        return choose_split(view, backend, stats, batch)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splitscan, "BATCH_MIN_ROWS", 0)
        patch.setattr(splitscan, "LevelBatch", RecordedBatch)
        patch.setattr(builder, "choose_split", recorded_choose_split)
        tree = train(data, config)
    # the premise: levels 1 and 2 each hold all three kinds of view
    kinds, level = [], [tree.root]
    while level:
        kinds.append({_stopping_kind(node, config.min_split) for node in level})
        level = [child for node in level if isinstance(node, Internal) for child in node.children]
    assert kinds[1] >= {"split", "pure", "small"} <= kinds[2]
    assert batched == scored
    assert sum(map(len, batched.values())) == tree.stats.evaluations // schema.attribute_count


# support counts: absent entries are 0, so most of a wide support is zeros
NONZERO_COUNTS = st.one_of(st.integers(1, 9), st.integers(1, 10**30), st.integers(2**63, 10**30))


@st.composite
def hand_built_trees(draw):
    """A tree built node by node over a drawn schema with 1..70 classes.
    Each support is drawn on its own, so a child may count more than its
    root; real thresholds are k + 0.5, which JSON writes as format_float
    does."""
    m = draw(st.integers(1, 70))
    kinds = draw(st.lists(st.sampled_from([0, 2, 3]), min_size=1, max_size=3))
    schema = AttributeSchema(
        tuple(
            Attribute("a%d" % j, REAL) if t == 0 else Attribute("a%d" % j, DISCRETE, t)
            for j, t in enumerate(kinds)
        ),
        m,
    )

    def node(height):
        support = [0] * m
        nonzero = draw(st.dictionaries(st.integers(0, m - 1), NONZERO_COUNTS, max_size=5))
        for c, count in nonzero.items():
            support[c] = count
        if height == 0 or draw(st.booleans()):
            return Leaf(draw(st.integers(1, m)), tuple(support))
        attr = draw(st.integers(0, len(kinds) - 1))
        if schema.is_real(attr):
            test, arity = SplitTest(attr, REAL, theta=draw(st.integers(-1000, 1000)) + 0.5), 2
        else:
            arity = schema.domain_size(attr)
            test = SplitTest(attr, DISCRETE, branch_count=arity)
        return Internal(test, [node(height - 1) for _ in range(arity)], tuple(support))

    labels = tuple("class %d" % c for c in range(1, m + 1))
    return DecisionTree(node(draw(st.integers(0, 3))), schema, labels, BuildStats())


def _plain_document(tree):
    """The model document of tree, by a recursive walk in field order."""

    def walk(node):
        if isinstance(node, Leaf):
            return {"kind": "leaf", "class": node.class_index, "support": list(node.support)}
        doc = {"kind": "internal", "attr": node.test.attr}
        if node.test.kind == REAL:
            doc["theta"] = node.test.theta
        else:
            doc["branch_count"] = node.test.branch_count
        doc["support"] = list(node.support)
        doc["children"] = [walk(child) for child in node.children]
        return doc

    attrs = []
    for a in tree.schema.attributes:
        attrs.append({"name": a.name, "kind": a.kind})
        if a.kind == DISCRETE:
            attrs[-1]["domain_size"] = a.domain_size
    return {
        "schema": {"class_count": tree.schema.class_count, "attributes": attrs},
        "class_label_mapping": list(tree.class_labels),
        "root": walk(tree.root),
    }


@settings(max_examples=100, deadline=None)
@given(tree=hand_built_trees())
def test_writer_matches_a_plain_walk_on_hand_built_trees(tmp_path_factory, tree):
    text = serialize_model(tree)
    assert text == jsonio.dumps(_plain_document(tree)) + "\n"
    path = tmp_path_factory.mktemp("model") / "m.json"
    save_model(tree, path)
    assert path.read_text(encoding="utf-8") == text
    assert serialize_model(load_model(path)) == text


ODD_LABELS = ("", 'say "hi"', "tab\there\x00nul", "café \U0001F333 back\\slash")
ODD_NAMES = ("", 'x "q"\t\x00', "über \U0001F600 \\")


def test_model_header_escapes_odd_labels_and_names(tmp_path):
    # labels and attribute names with non-ASCII, quotes, a tab, NUL, an
    # emoji, a backslash and the empty string keep their pinned bytes
    schema = AttributeSchema(
        (Attribute(ODD_NAMES[0], REAL), Attribute(ODD_NAMES[1], DISCRETE, 3),
         Attribute(ODD_NAMES[2], REAL)),
        4,
    )
    data = Dataset(
        schema,
        [[0.5, 1.5, 2.5, 3.5, 0.25, 1.25, 2.25, 3.25],
         [1, 2, 3, 1, 2, 3, 1, 2],
         [-1.0, -1.0, 2.0, 2.0, -1.0, -1.0, 2.0, 2.0]],
        [1, 2, 3, 4, 1, 2, 3, 4],
        ODD_LABELS,
    )
    tree = train(data)
    text = assert_written_as_reference(tree, tmp_path / "m.json")
    assert '"x \\"q\\"\\t\\u0000"' in text and '"caf\\u00e9 \\ud83c\\udf33 back\\\\slash"' in text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "eff761974de84a005de7c5ce29b866c58fc6734f658db23c2858ae11fd895b14"
    )
    loaded = load_model(tmp_path / "m.json")
    assert loaded.class_labels == ODD_LABELS
    assert tuple(a.name for a in loaded.schema.attributes) == ODD_NAMES


def _walk_from(value, steps):
    # the float steps adjacent floats from value, toward zero (up from zero)
    toward = -math.inf if value > 0 else math.inf
    for _ in range(steps):
        value = math.nextafter(value, toward)
    return value


# starting points whose neighbours are adjacent normal, subnormal and
# near-maximal floats
NEIGHBOURHOODS = [1.0, -1.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300,
                  sys.float_info.max, -sys.float_info.max]


@settings(max_examples=40, deadline=None)
@given(
    starts=st.lists(st.sampled_from(NEIGHBOURHOODS), min_size=1, max_size=2),
    rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3)),
                  min_size=2, max_size=12),
    seed=st.integers(0, 100),
)
def test_every_split_separates_its_training_rows(starts, rows, seed):
    # each real threshold lies below the upper of its two values, so every
    # internal node sends its training rows to at least two children
    schema = AttributeSchema(
        tuple(Attribute("x%d" % i, REAL) for i in range(len(starts))), 3
    )
    columns = [[_walk_from(start, row[i]) for row in rows] for i, start in enumerate(starts)]
    data = Dataset(schema, columns, [row[2] for row in rows], ("a", "b", "c"))
    trees = [train(data, BuildConfig(backend=name)) for name in (BASELINE, TREEMAP)]
    trees.append(q_train(data, BuildConfig(backend="quantum", seed=seed)).tree)
    for tree in trees:
        stack = [(tree.root, data.full_view())]
        while stack:
            node, view = stack.pop()
            if isinstance(node, Leaf):
                continue
            children = partition(view, node.test)
            assert sum(len(child) > 0 for child in children) >= 2
            stack.extend(zip(node.children, children))


def test_model_write_streams(tmp_path):
    # the file gets the model in chunks, so the write never holds the text
    schema = random_schema(12, 64, "stream", kinds="discrete", max_domain=4)
    tree = train(random_dataset(schema, 1000, "stream"))
    path = tmp_path / "m.json"
    tracemalloc.start()
    try:
        save_model(tree, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4_000_000
    assert peak < size / 4


def _chain_tree(levels):
    """A real-attribute chain: node k splits at k + 0.5, its left child is a
    class-1 leaf and its right child the next node; the last is class 2."""
    schema = AttributeSchema((Attribute("x", REAL),), 2)
    node = Leaf(2, (0, 1))
    for k in reversed(range(levels)):
        node = Internal(SplitTest(0, REAL, theta=k + 0.5), [Leaf(1, (1, 0)), node], (1, 1))
    return DecisionTree(node, schema, ("a", "b"), BuildStats())


def test_model_too_deep_for_the_stdlib_decoder_writes_and_loads(tmp_path):
    # 600 levels nest about 1200 JSON containers; the indented text grows
    # with the square of the depth (13.8 MB here)
    tree = _chain_tree(600)
    path = tmp_path / "m.json"
    save_model(tree, path)
    text = path.read_text()
    with pytest.raises(RecursionError):
        json.loads(text)
    again = load_model(path)
    assert tree_height(again.root) == 600
    assert serialize_model(again) == text == serialize_model(tree)
    assert classify(again, (1e9,)) == 2 and classify(again, (234.0,)) == 1
    assert len(format_tree(again).splitlines()) == 2 * 600


def test_tree_height_walks_a_100000_level_chain():
    # the leaves are shared, so the chain costs one Internal per level
    left, node = Leaf(1, (1, 0)), Leaf(2, (0, 1))
    for k in range(100_000):
        node = Internal(SplitTest(0, REAL, theta=k + 0.5), [left, node], (1, 1))
    assert tree_height(node) == 100_000
    assert tree_height(left) == 0


def _recursive_height(node):
    if isinstance(node, Leaf):
        return 0
    return 1 + max(map(_recursive_height, node.children))


@settings(max_examples=30, deadline=None)
@given(tree=hand_built_trees())
def test_tree_height_matches_a_recursive_walk_on_hand_built_trees(tree):
    assert tree_height(tree.root) == _recursive_height(tree.root)


def _edge_supports(m):
    """Supports over m classes with no non-zero count, or with non-zero
    counts at slot 0, at slot m - 1 and in adjacent slots; slots outside
    0..m-1 are dropped."""
    patterns = [
        {0: 3, 1: 10**20},
        {m - 2: 4, m - 1: 1},
        {},
        {0: 1, m - 1: 2},
        {m // 2: 1, m // 2 + 1: 2, m // 2 + 2: 3},
        {0: 5},
        {m - 1: 7},
    ]
    return [
        tuple(pattern.get(c, 0) for c in range(m))
        for pattern in patterns
        if all(0 <= c < m for c in pattern)
    ]


def _spine_tree(m, levels):
    """A spine of `levels` internal nodes, alternating a three-way discrete
    test and a real one, whose other children are leaves. Node supports
    cycle through _edge_supports(m) in the order the nodes are made."""
    schema = AttributeSchema((Attribute("x", REAL), Attribute("c", DISCRETE, 3)), m)
    supports = _edge_supports(m)
    made = []

    def support():
        made.append(supports[len(made) % len(supports)])
        return made[-1]

    node = Leaf(m, support())
    for k in range(levels):
        if k % 2:
            node = Internal(SplitTest(0, REAL, theta=k + 0.5), [Leaf(1, support()), node], support())
        else:
            children = [Leaf(1, support()), node, Leaf(m, support())]
            node = Internal(SplitTest(1, DISCRETE, branch_count=3), children, support())
    labels = tuple("class %d" % c for c in range(1, m + 1))
    return DecisionTree(node, schema, labels, BuildStats())


@pytest.mark.parametrize(
    "m, levels",
    [(65_536, 1), (1, 4), (2, 3), (5, 10), (64, 12)],
    ids=["wide", "one-class", "two-class", "deep", "deep-64"],
)
def test_writer_matches_both_references_on_edge_supports(tmp_path, m, levels):
    # the writer skips zero counts, so pin where the skipping can go wrong:
    # runs at either end, adjacent counts, an all-zero support, M = 1 and
    # the long separators of nodes 8 or more levels down
    tree = _spine_tree(m, levels)
    text = assert_written_as_reference(tree, tmp_path / "m.json")
    assert text == jsonio.dumps(_plain_document(tree)) + "\n"
    assert serialize_model(load_model(tmp_path / "m.json")) == text


class _PeakPerWrite:
    """A text file that records, after each write, the tracemalloc peak
    since the previous write ended, or since tracing started."""

    def __init__(self, fh):
        self.fh = fh
        self.peaks = []

    def write(self, text):
        self.fh.write(text)
        self.peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()


def test_writing_a_65536_class_model_holds_about_one_chunk_and_one_support(
    tmp_path, monkeypatch
):
    tree = _spine_tree(65_536, 1)
    path = tmp_path / "m.json"
    files = []
    atomically = builder.write_atomically

    @contextlib.contextmanager
    def recorded(path):
        with atomically(path) as fh:
            files.append(_PeakPerWrite(fh))
            yield files[-1]

    monkeypatch.setattr(builder, "write_atomically", recorded)
    tracemalloc.start()
    try:
        save_model(tree, path)
    finally:
        tracemalloc.stop()
    text = path.read_text(encoding="utf-8")
    assert text == serialize_model(tree)
    supports = re.findall(r'"support": \[[^\]]*\]', text)
    longest = max(map(len, supports))
    assert len(supports) == 4 and longest > 8 * _CHUNK
    # a chunk ends with at most one node, and its write holds the chunk's
    # pieces, its text and its encoded bytes. The first chunk carries the
    # header, whose jsonio.dumps of M labels costs O(M) on its own, and is
    # freed only after its write, so the peaks from the third node on show
    # what a node costs. A memo of the support texts, or of the zero runs
    # per depth, would not fit.
    peaks = files[0].peaks
    assert len(peaks) == 5
    assert max(peaks[2:]) < 4 * _CHUNK + 3 * longest


def test_a_model_with_crlf_line_endings_loads_the_same_tree(tmp_path):
    tree = _spine_tree(5, 4)
    text = serialize_model(tree)
    path = tmp_path / "m.json"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    assert serialize_model(load_model(path)) == text


def assert_routes_as_the_per_row_walk(tree, columns):
    rows = list(zip(*(column.tolist() for column in columns)))
    expected = [reference_classify(tree, row) for row in rows]
    assert route(tree, columns).tolist() == expected
    assert [classify(tree, row) for row in rows] == expected


def _thresholds(tree):
    """The thresholds of tree's real tests, by attribute."""
    found = {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Internal):
            if node.test.kind == REAL:
                found.setdefault(node.test.attr, []).append(node.test.theta)
            stack.extend(node.children)
    return found


def _near(thetas):
    """Each threshold and the floats on either side of it."""
    return [math.nextafter(t, toward) for t in thetas for toward in (-math.inf, t, math.inf)]


@st.composite
def routed_columns(draw):
    """A hand-built tree and 0..40 rows for it, one array per attribute. A
    real value is often a threshold of the tree or a float next to one."""
    tree = draw(hand_built_trees())
    near = _thresholds(tree)
    n = draw(st.integers(0, 40))
    columns = []
    for attr, a in enumerate(tree.schema.attributes):
        if a.kind == DISCRETE:
            values = st.integers(1, a.domain_size)
        else:
            values = st.floats(-1100, 1100)
            if attr in near:
                values = st.one_of(st.sampled_from(_near(near[attr])), values)
        columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), float))
    return tree, columns


@settings(max_examples=150, deadline=None)
@given(case=routed_columns())
@example(case=(_chain_tree(0), [np.array([0.5, 3.0])]))
@example(case=(_chain_tree(2), [np.empty(0)]))
def test_route_and_classify_match_the_per_row_walk_on_hand_built_trees(case):
    assert_routes_as_the_per_row_walk(*case)


def test_route_and_classify_match_the_per_row_walk_on_a_bushy_discrete_tree():
    # 64 classes over domains of up to 4 values, as on discrete-bushy, so
    # over 200 branches are leaves no training row reached
    schema = random_schema(12, 64, 7, kinds="discrete", max_domain=4)
    data = random_dataset(schema, 600, 7)
    tree = train(data, BuildConfig(max_height=8))
    empty, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Internal):
            empty += sum(child.support is node.support for child in node.children)
            stack.extend(node.children)
    assert empty > 200
    for rows in (data, random_dataset(schema, 600, 8)):
        assert_routes_as_the_per_row_walk(tree, rows.columns)


def test_route_and_classify_match_the_per_row_walk_on_a_600_level_chain():
    tree = _chain_tree(600)
    values = _near([k + 0.5 for k in range(0, 600, 7)]) + [-1e300, 1e9, 599.75]
    assert_routes_as_the_per_row_walk(tree, [np.array(values)])


@settings(max_examples=100, deadline=None)
@given(
    test=st.one_of(
        st.floats(-1e300, 1e300).map(lambda theta: SplitTest(0, REAL, theta=theta)),
        st.integers(2, 6).map(lambda t: SplitTest(0, DISCRETE, branch_count=t)),
    ),
    data=st.data(),
)
def test_route_classify_and_branch_masks_share_one_branch_rule(test, data):
    # route and classify each restate the rule of branch_masks; a one-node
    # tree whose child i is class i + 1 holds all three to the same child
    if test.kind == REAL:
        attribute, arity = Attribute("x", REAL), 2
        values = st.one_of(st.sampled_from(_near([test.theta])), st.floats(-1e300, 1e300))
    else:
        attribute, arity = Attribute("x", DISCRETE, test.branch_count), test.branch_count
        values = st.integers(1, arity)
    values = np.array(data.draw(st.lists(values, max_size=30)), float)
    schema = AttributeSchema((attribute,), arity)
    leaves = [Leaf(i + 1, (0,) * arity) for i in range(arity)]
    tree = DecisionTree(Internal(test, leaves, (0,) * arity), schema, ("c",) * arity, BuildStats())
    masks = np.array(branch_masks(values, test)).reshape(arity, len(values))
    assert (masks.sum(axis=0) == 1).all()
    expected = (masks.argmax(axis=0) + 1).tolist()
    assert route(tree, [values]).tolist() == expected
    assert [classify(tree, (v,)) for v in values.tolist()] == expected


# values of every kind that classify or Dataset may be handed
ODD_VALUES = st.one_of(
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.integers(-2, 8).map(np.int64),
    st.sampled_from([10**400, -(10**400), 2**63, 2**64, np.uint64(2**64 - 1)]),
    st.one_of(st.integers(-2, 8), st.floats()).map(str),
    st.text(max_size=4),
    st.binary(max_size=3),
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.complex_numbers(),
    st.complex_numbers().map(np.complex128),
)


@settings(max_examples=400, deadline=None)
@given(high=st.one_of(st.none(), st.integers(2, 6)), value=ODD_VALUES)
@example(high=None, value=1 + 2j)
@example(high=2, value=10**400)
@example(high=None, value="1\x00")  # numpy drops trailing NULs from a string array
@example(high=None, value=nested_in_itself())  # float() recursed without end
def test_classify_and_dataset_share_one_value_rule(high, value):
    # both hold a value to dataset.checked_values: they accept the same
    # values, and refuse the others with the same message
    attribute = Attribute("x", REAL) if high is None else Attribute("x", DISCRETE, high)
    schema = AttributeSchema((attribute,), 2)
    tree = DecisionTree(Leaf(1, (0, 0)), schema, ("a", "b"), BuildStats())
    outcomes = []
    for call in (
        lambda: classify(tree, (value,)),
        lambda: Dataset(schema, [[value, value]], [1, 2], ("a", "b")),
    ):
        try:
            call()
            outcomes.append("accepted")
        except DataFormatError as e:
            outcomes.append(str(e))
    assert outcomes[0] == outcomes[1]


def test_loader_reports_the_first_bad_node_in_preorder():
    doc = tree_to_document(_chain_tree(3))
    doc["root"]["children"][1]["children"][0]["class"] = 7
    doc["root"]["children"][1]["children"][1]["attr"] = 5
    with pytest.raises(DataFormatError, match="leaf class 7 is not an integer in 1..2"):
        document_to_tree(doc)


def reference_format_tree(tree):
    """The recursive rendering that format_tree replaced."""
    names = [a.name for a in tree.schema.attributes]
    lines = []

    def leaf_text(node):
        return "=> %s  (n=%d)" % (tree.class_labels[node.class_index - 1], sum(node.support))

    def walk(node, pad):
        if isinstance(node, Leaf):
            lines.append(pad + leaf_text(node))
            return
        test = node.test
        if test.kind == REAL:
            conditions = [
                "%s <= %s" % (names[test.attr], test.theta),
                "%s > %s" % (names[test.attr], test.theta),
            ]
        else:
            conditions = [
                "%s = %d" % (names[test.attr], w)
                for w in range(1, test.branch_count + 1)
            ]
        for condition, child in zip(conditions, node.children):
            if isinstance(child, Leaf):
                lines.append("%s%s %s" % (pad, condition, leaf_text(child)))
            else:
                lines.append(pad + condition + ":")
                walk(child, pad + "    ")

    walk(tree.root, "")
    return "\n".join(lines)


def test_format_tree_matches_recursive_rendering():
    trees = [tree for tree, _, _ in _equivalence_trees()]
    trees.append(train(xor_data(), BuildConfig(max_height=0)))
    for tree in trees:
        assert format_tree(tree) == reference_format_tree(tree)


def test_format_tree_renders_a_1000_row_staircase():
    # height 499: the recursive rendering would need about 500 frames
    n = 1000
    schema = AttributeSchema((Attribute("x1", REAL),), 2)
    labels = [(i // 2) % 2 + 1 for i in range(n)]
    data = Dataset(schema, [[float(i) for i in range(n)]], labels, ("x", "y"))
    tree = train(data, BuildConfig(max_height=5000))
    assert tree_height(tree.root) == 499
    lines = format_tree(tree).splitlines()
    assert len(lines) == 2 * 499
    assert max(len(line) - len(line.lstrip(" ")) for line in lines) == 4 * 498
