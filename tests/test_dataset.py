"""Schema, column-store dataset, subset views, partitioning, and file IO."""

import array
import csv
import re
import sys
import threading
from functools import partial
from unittest import mock

import numpy as np
import pytest
from csv_reference import LINE_BREAKS
from csv_reference import read_csv as reference_read_csv
from hypothesis import example, given, settings
from hypothesis import strategies as st
from nested_arrays import nested, nested_in_itself

from qdtree import dataset
from qdtree.builder import (
    BuildStats,
    DecisionTree,
    Leaf,
    classify,
    document_to_tree,
    train,
    tree_to_document,
)
from qdtree.counters import TREEMAP, make_backend
from qdtree.dataset import (
    DISCRETE,
    REAL,
    Attribute,
    AttributeSchema,
    DataFormatError,
    Dataset,
    SubsetView,
    checked_values,
    load_csv,
    load_feature_rows,
    partition,
    read_schema,
    save_csv,
    write_schema,
)
from qdtree.splitscan import SplitTest, process_attribute


def two_column_data():
    schema = AttributeSchema(
        (Attribute("x1", REAL), Attribute("color", DISCRETE, 3)),
        class_count=2,
    )
    cols = [[0.5, 1.5, 2.5, 3.5], [1, 2, 2, 3]]
    return Dataset(schema, cols, [1, 1, 2, 2], ("yes", "no"))


def test_attribute_validation():
    Attribute("a", REAL)
    Attribute("b", DISCRETE, 2)
    with pytest.raises(ValueError):
        Attribute("a", REAL, 3)  # real attributes have no domain
    with pytest.raises(ValueError):
        Attribute("b", DISCRETE)  # discrete ones need one
    with pytest.raises(ValueError):
        Attribute("b", DISCRETE, 1)  # at least two branches
    with pytest.raises(ValueError):
        Attribute("c", "ordinal", 2)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Attribute(3, REAL), "attribute name must be a string"),
        (lambda: AttributeSchema(("a",), 2), "schema entries must be Attributes"),
    ],
    ids=["name-not-a-string", "entry-not-an-attribute"],
)
def test_attribute_and_schema_reject_wrong_types(make, message):
    # both used to die on an attribute lookup, with an AttributeError
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("name", [" x", "x ", "\tx", "x\n", "\x1cx", "x\u3000"])
def test_attribute_rejects_a_name_with_outer_whitespace(name):
    # every reader strips names, so write_schema then read_schema would
    # hand back a different attribute
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        Attribute(name, REAL)
    with pytest.raises(ValueError, match="leading or trailing whitespace"):
        Attribute(name, DISCRETE, 2)


def test_attribute_rejects_a_domain_size_that_is_not_an_integer():
    # train would fail later multiplying the class-branch table by 2.5
    for size in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="integer domain size"):
            Attribute("c", DISCRETE, size)
    assert Attribute("c", DISCRETE, np.int64(3)).domain_size == 3


def test_schema_rejects_a_class_count_that_is_not_an_integer():
    for count in (2.0, True):
        with pytest.raises(ValueError, match="integer class count"):
            AttributeSchema((Attribute("a", REAL),), count)


def test_schema_validation():
    with pytest.raises(ValueError):
        AttributeSchema((Attribute("a", REAL), Attribute("a", REAL)), 2)
    with pytest.raises(ValueError):
        AttributeSchema((Attribute("a", REAL),), 0)
    s = AttributeSchema((Attribute("a", REAL), Attribute("b", DISCRETE, 4)), 3)
    assert s.attribute_count == 2
    assert s.is_real(0) and not s.is_real(1)
    assert s.domain_size(1) == 4


def test_dataset_column_types():
    data = two_column_data()
    assert data.columns[0].dtype == np.float64
    assert data.columns[1].dtype == np.int64
    assert data.n_rows == 4
    assert data.row(2) == (2.5, 2)
    assert data.label_name(1) == "yes"


def test_dataset_arrays_are_read_only(tmp_path):
    data = two_column_data()
    save_csv(data, tmp_path / "d.csv")
    loaded = load_csv(tmp_path / "d.csv", data.schema.attributes)
    for array in (*data.columns, data.labels, *loaded.columns, loaded.labels):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def _scores(data):
    view = data.full_view()
    return [process_attribute(view, j, make_backend(TREEMAP)) for j in range(2)]


@pytest.mark.parametrize(
    "floats, ints",
    [(np.array, np.array), (partial(array.array, "d"), partial(array.array, "q"))],
    ids=["ndarray", "buffer"],
)
def test_a_later_write_to_the_callers_arrays_changes_no_score(floats, ints):
    # a discrete column [1, 1, 2, 2] under labels [1, 1, 2, 2] has gain 1.0,
    # and rewritten to [1, 2, 1, 2] it would have gain 0.0
    schema = two_column_data().schema
    real, color, labels = [0.5, 1.5, 2.5, 3.5], [1, 1, 2, 2], [1, 1, 2, 2]
    given = [floats(real), ints(color), ints(labels)]
    data = Dataset(schema, given[:2], given[2], ("yes", "no"))
    for array, new in zip(given, ([0.5, 2.5, 1.5, 3.5], [1, 2, 1, 2], [2, 1, 1, 2])):
        for i, value in enumerate(new):
            array[i] = value
    scores = _scores(data)
    assert scores == _scores(Dataset(schema, [real, color], labels, ("yes", "no")))
    assert scores[1][0].gain == 1.0


def test_dataset_keeps_a_read_only_array_as_it_stands():
    frozen = [np.array([0.5, 1.5, 2.5, 3.5]), np.array([1, 2, 2, 3]), np.array([1, 1, 2, 2])]
    for array in frozen:
        array.flags.writeable = False
    data = Dataset(two_column_data().schema, frozen[:2], frozen[2], ("yes", "no"))
    assert data.columns[0] is frozen[0] and data.columns[1] is frozen[1]
    assert data.labels is frozen[2]


def test_dataset_rejects_out_of_domain_discrete():
    schema = AttributeSchema((Attribute("c", DISCRETE, 2),), 2)
    with pytest.raises(DataFormatError):
        Dataset(schema, [[1, 3]], [1, 2], ("a", "b"))
    with pytest.raises(DataFormatError):
        Dataset(schema, [[0, 1]], [1, 2], ("a", "b"))


@pytest.mark.parametrize("value", [1.5, 0.999, float("inf"), float("nan"), "x", 1 + 5j])
def test_dataset_rejects_discrete_values_that_are_not_whole(value):
    schema = AttributeSchema((Attribute("c", DISCRETE, 2),), 2)
    with pytest.raises(DataFormatError, match="attribute 'c'"):
        Dataset(schema, [[value, 1]], [1, 2], ("a", "b"))


@pytest.mark.parametrize("label", [1.7, float("inf"), float("nan"), 1 + 2j])
def test_dataset_rejects_labels_that_are_not_whole(label):
    schema = AttributeSchema((Attribute("c", DISCRETE, 2),), 2)
    with pytest.raises(DataFormatError, match="class indices"):
        Dataset(schema, [[1, 2]], [label, 2], ("a", "b"))


@pytest.mark.parametrize(
    "huge",
    [2**70, 10**400, 2**64 - 1, np.uint64(2**64 - 1)],
    ids=["2**70", "10**400", "2**64-1", "uint64_max"],
)
def test_dataset_huge_whole_numbers_are_outside_the_domain(huge):
    schema = AttributeSchema((Attribute("c", DISCRETE, 2),), 2)
    with pytest.raises(DataFormatError, match=r"^attribute 'c' holds values outside 1\.\.2$"):
        Dataset(schema, [[huge, 1]], [1, 2], ("a", "b"))
    with pytest.raises(DataFormatError, match=r"^class indices outside 1\.\.2$"):
        Dataset(schema, [[1, 2]], [huge, 2], ("a", "b"))


def test_dataset_accepts_whole_floats():
    schema = AttributeSchema((Attribute("c", DISCRETE, 2),), 2)
    data = Dataset(schema, [[2.0, 1.0]], [1.0, 2.0], ("a", "b"))
    assert data.columns[0].dtype == data.labels.dtype == np.int64
    assert data.columns[0].tolist() == [2, 1]
    assert data.labels.tolist() == [1, 2]


def test_dataset_rejects_non_finite_reals():
    schema = AttributeSchema((Attribute("x", REAL),), 2)
    with pytest.raises(DataFormatError):
        Dataset(schema, [[1.0, float("nan")]], [1, 2], ("a", "b"))
    with pytest.raises(DataFormatError):
        Dataset(schema, [[float("inf"), 0.0]], [1, 2], ("a", "b"))
    # float() refuses this int, where numpy raised a bare OverflowError; the
    # CSV reader reads its digits as inf
    with pytest.raises(DataFormatError, match=r"^attribute 'x' holds values that are not finite$"):
        Dataset(schema, [[10**400, 1.0]], [1, 2], ("a", "b"))
    # a cast to float would keep 1.0 and drop the imaginary part
    with pytest.raises(DataFormatError, match="attribute 'x' holds values that are complex"):
        Dataset(schema, [[1 + 2j, 2]], [1, 2], ("a", "b"))


def _one_column_schema(kind):
    attribute = Attribute("x", REAL) if kind == REAL else Attribute("x", DISCRETE, 2)
    return AttributeSchema((attribute,), 2)


# a real column raised a bare ValueError or TypeError for the first two and
# took None for NaN; a discrete one called an object complex "not numbers"
# and None "not finite whole numbers". An array among the values is not a
# number at any depth: np.asarray unwrapped a 0-d one to the number it
# held, and a ragged sequence raised numpy's own "inhomogeneous shape"
@pytest.mark.parametrize(
    "column, kind_of_value",
    [
        (["a", "b"], "not numbers"),
        (np.array([1 + 2j, 2], dtype=object), "complex numbers"),
        ([None, 1.0], "not numbers"),
        ([nested_in_itself(), 1.0], "not numbers"),
        ([nested(np.array(1.0), 3000), 1.0], "not numbers"),
        ([np.array(1.0), 2.0], "not numbers"),
        ([np.array(1 + 2j), 2.0], "not numbers"),
        ([[1.0], 2.0], "not numbers"),
        ([np.array([1.0]), 2.0], "not numbers"),
    ],
    ids=[
        "strings",
        "object_complex",
        "none",
        "nested_in_itself",
        "nested_3000_deep",
        "0d_array",
        "complex_in_0d_array",
        "ragged_list",
        "ragged_array",
    ],
)
@pytest.mark.parametrize("kind", [REAL, DISCRETE])
def test_dataset_names_values_that_are_not_numbers(kind, column, kind_of_value):
    schema = _one_column_schema(kind)
    want = r"^attribute 'x' holds values that are %s$" % kind_of_value
    with pytest.raises(DataFormatError, match=want):
        Dataset(schema, [column], [1, 2], ("a", "b"))
    with pytest.raises(DataFormatError, match=r"^class indices that are %s$" % kind_of_value):
        Dataset(schema, [[1, 2]], column, ("a", "b"))


def _frames_down(frames, call):
    """What call() returns or raises, run frames Python frames below the top
    of a new thread's stack, so that the test runner's frames do not count."""
    out = {}

    def down(depth):
        return call() if depth == 0 else down(depth - 1)

    def run():
        try:
            out["value"] = down(frames)
        except Exception as exc:
            out["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    if "error" in out:
        raise out["error"]
    return out["value"]


@pytest.mark.parametrize("frames", [0, 400])
def test_nesting_verdict_does_not_depend_on_the_stack(frames):
    # float() recursed once per level of nesting, and a RecursionError it
    # raised was read as "not numbers": 900 levels read as 1.0 at the top
    # of a stack and were refused from 400 frames down. An array is not a
    # number at any depth, so no value rule looks inside one
    schema = _one_column_schema(REAL)
    tree = DecisionTree(Leaf(1, (0, 0)), schema, ("a", "b"), BuildStats())
    data = two_column_data()
    for value in (nested(np.array(1.0), 50), nested(np.array(1.0), 3000), nested_in_itself()):
        column = np.empty(1, object)
        column[0] = value
        for call in (
            lambda: checked_values(column, None, "values"),
            lambda: Dataset(schema, [[value, 1.0]], [1, 2], ("a", "b")),
            lambda: Dataset(schema, [[1.0, 2.0]], [value, 1], ("a", "b")),
            lambda: classify(tree, (value,)),
        ):
            with pytest.raises(DataFormatError, match=r" that are not numbers$"):
                _frames_down(frames, call)
        with pytest.raises(ValueError, match=r"^row indices must be integers"):
            _frames_down(frames, lambda: SubsetView(data, [value, 0]))


def test_checked_values_takes_one_bound_per_value():
    bounds = [2, 3, 2]
    values = checked_values(np.array([2, 3.0, "1"], object), bounds, "values")
    assert values.dtype == np.int64 and values.tolist() == [2, 3, 1]
    for row in ([3, 3, 1], [2, 3, 3], [0, 1, 1]):
        with pytest.raises(DataFormatError, match=r"^values outside 1\.\."):
            checked_values(np.array(row), bounds, "values")


# each was cast to a number: a date to its day count, a time span to its
# count of units and a bool to 0 or 1
@pytest.mark.parametrize(
    "column",
    [
        np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"),
        np.array([1, 2], dtype="timedelta64[s]"),
        np.array([True, True]),
        np.array([True, 2], dtype=object),
        np.array([np.True_, 2.0], dtype=object),
        np.array([np.array(True), 2.0], dtype=object),
    ],
    ids=["datetime64", "timedelta64", "bool", "object_bool", "object_numpy_bool", "object_0d_bool"],
)
@pytest.mark.parametrize("kind", [REAL, DISCRETE])
def test_dataset_refuses_bools_dates_and_time_spans(kind, column):
    schema = _one_column_schema(kind)
    with pytest.raises(DataFormatError, match=r"^attribute 'x' holds values that are not numbers$"):
        Dataset(schema, [column], [1, 2], ("a", "b"))
    with pytest.raises(DataFormatError, match=r"^class indices that are not numbers$"):
        Dataset(schema, [[1, 2]], column, ("a", "b"))


# np.asarray promoted each bool among numbers to 0 or 1 before any check
# saw it, also a bool in a 0-d array
@pytest.mark.parametrize(
    "column",
    [
        [True, 2],
        [2.5, False],
        [np.True_, 2],
        (np.False_, 1.0),
        [np.array(True), 2],
        (2.5, np.array(False, dtype=object)),
    ],
    ids=[
        "bool_int",
        "float_bool",
        "numpy_bool_int",
        "tuple_numpy_bool_float",
        "0d_bool_int",
        "tuple_float_0d_object_bool",
    ],
)
@pytest.mark.parametrize("kind", [REAL, DISCRETE])
def test_dataset_refuses_bools_among_numbers_in_a_sequence(kind, column):
    schema = _one_column_schema(kind)
    with pytest.raises(DataFormatError, match=r"^attribute 'x' holds values that are not numbers$"):
        Dataset(schema, [column], [1, 2], ("a", "b"))
    with pytest.raises(DataFormatError, match=r"^class indices that are not numbers$"):
        Dataset(schema, [[1, 2]], column, ("a", "b"))


@pytest.mark.parametrize("kind", [REAL, DISCRETE])
def test_dataset_reads_numeric_strings_as_numbers(kind):
    labels = np.array(["1", 2.0], dtype=object)
    for column in (["2", "1"], np.array(["2", 1], dtype=object)):
        data = Dataset(_one_column_schema(kind), [column], labels, ("a", "b"))
        assert data.columns[0].tolist() == [2, 1] and data.labels.tolist() == [1, 2]


def _label_refusals(labels):
    """The messages with which Dataset and the model loader refuse labels
    for two classes."""
    schema = _one_column_schema(REAL)
    with pytest.raises(DataFormatError) as made:
        Dataset(schema, [[1.0, 2.0]], [1, 2], labels)
    doc = tree_to_document(train(Dataset(schema, [[1.0, 2.0]], [1, 2], ("a", "b"))))
    doc["class_label_mapping"] = list(labels)
    with pytest.raises(DataFormatError) as loaded:
        document_to_tree(doc)
    return str(made.value), str(loaded.value)


@pytest.mark.parametrize("line_break", sorted(LINE_BREAKS) + ["\r\n"], ids=ascii)
def test_dataset_refuses_a_class_label_with_a_line_break(line_break):
    # predict prints each label as one line of its output
    label = "a%sb" % (line_break,)
    message = "class label %r holds a line break" % (label,)
    assert _label_refusals(("c", label)) == (message, message)


# Dataset raised a bare ValueError with messages of its own for the first
# three, where the model loader raised DataFormatError
@pytest.mark.parametrize(
    "labels, message",
    [
        (("a",), "1 class labels for 2 classes"),
        (("a", "b", "c"), "3 class labels for 2 classes"),
        (("a", 2), "class labels must be strings, got 2"),
        (("a", None), "class labels must be strings, got None"),
        (("a", "b\nc"), "class label 'b\\nc' holds a line break"),
    ],
    ids=["too_few", "too_many", "int", "none", "line_break"],
)
def test_dataset_and_model_loader_share_one_class_label_rule(labels, message):
    assert _label_refusals(labels) == (message, message)


@pytest.mark.parametrize("names", ["ab", b"ab"], ids=["str", "bytes"])
def test_dataset_refuses_class_labels_given_as_one_string(names):
    # tuple("ab") named the two classes 'a' and 'b'
    with pytest.raises(DataFormatError) as e:
        Dataset(_one_column_schema(REAL), [[1.0, 2.0]], [1, 2], names)
    assert str(e.value) == "class labels must be a sequence of strings, got %r" % (names,)


# tuple() took any iterable: a set named the classes in string-hash order,
# which changes from one process to the next, and None ended in a bare
# TypeError
@pytest.mark.parametrize(
    "make",
    [lambda: {"a", "b"}, lambda: (c for c in ("a", "b")), lambda: None],
    ids=["set", "generator", "none"],
)
def test_dataset_refuses_class_labels_that_are_not_a_sequence(make):
    with pytest.raises(DataFormatError) as e:
        Dataset(_one_column_schema(REAL), [[1.0, 2.0]], [1, 2], make())
    assert re.fullmatch(r"class labels must be a sequence of strings, got .+", str(e.value))


@pytest.mark.parametrize(
    "names", [["a", "b"], ("a", "b"), np.array(["a", "b"])], ids=["list", "tuple", "array"]
)
def test_dataset_takes_class_labels_as_a_list_tuple_or_1d_array(names):
    data = Dataset(_one_column_schema(REAL), [[1.0, 2.0]], [1, 2], names)
    assert data.class_labels == ("a", "b")


def test_dataset_refuses_a_column_too_many():
    with pytest.raises(ValueError, match="^2 columns for 1 attributes$"):
        Dataset(_one_column_schema(REAL), [[1.0, 2.0], [1.0, 2.0]], [1, 2], ("a", "b"))


def test_line_breaks_are_those_of_splitlines():
    every = map(chr, range(sys.maxunicode + 1))
    assert [c for c in every if dataset.breaks_lines(c)] == sorted(LINE_BREAKS)
    assert not dataset.breaks_lines("") and not dataset.breaks_lines("tab\there\x00nul")


def test_load_csv_names_the_line_of_a_label_with_a_line_break(tmp_path):
    attrs = (Attribute("x", REAL),)
    path = tmp_path / "train.csv"
    # the quoted label ends on line 3
    path.write_text('x,class\n1,"a\nb"\n2,c\n3,c\n')
    with pytest.raises(DataFormatError) as e:
        load_csv(path, attrs)
    assert str(e.value) == "%s line 3: class label 'a\\nb' holds a line break" % (path,)
    # a bad cell on an earlier row is reported first
    path.write_text('x,class\noops,c\n1,"a\nb"\n')
    with pytest.raises(DataFormatError, match="line 2, column 'x'"):
        load_csv(path, attrs)
    # a separator the csv module keeps in an unquoted field
    path.write_text("x,class\n1,c\n2,a\x1cb\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as e:
        load_csv(path, attrs)
    assert str(e.value) == "%s line 3: class label 'a\\x1cb' holds a line break" % (path,)
    # prediction ignores a trailing class column
    assert load_feature_rows(path, attrs)[0].tolist() == [1.0, 2.0]


def test_dataset_rejects_bad_labels_and_shapes():
    schema = AttributeSchema((Attribute("x", REAL),), 2)
    with pytest.raises(DataFormatError):
        Dataset(schema, [[1.0, 2.0]], [1, 3], ("a", "b"))
    with pytest.raises(DataFormatError):
        Dataset(schema, [[]], [], ("a", "b"))
    with pytest.raises(ValueError):
        Dataset(schema, [[1.0, 2.0]], [1, 2], ("a",))
    with pytest.raises(ValueError):
        Dataset(schema, [[1.0]], [1, 2], ("a", "b"))


@pytest.mark.parametrize("kind", [REAL, DISCRETE])
def test_dataset_rejects_a_column_of_rows(kind):
    # an (n, 1) column used to be stored as given, and train then died in
    # the scans with a bare TypeError
    attribute = Attribute("x", REAL) if kind == REAL else Attribute("x", DISCRETE, 2)
    schema = AttributeSchema((attribute,), 2)
    with pytest.raises(ValueError, match=r"column 'x' must be one-dimensional, got shape \(2, 1\)"):
        Dataset(schema, [[[1], [2]]], [1, 2], ("a", "b"))


@pytest.mark.parametrize("labels", [1, [[1, 2]]], ids=["scalar", "row"])
def test_dataset_rejects_labels_that_are_not_a_vector(labels):
    schema = AttributeSchema((Attribute("x", REAL),), 2)
    with pytest.raises(ValueError, match="class indices must be one-dimensional"):
        Dataset(schema, [[1.0, 2.0]], labels, ("a", "b"))


@pytest.mark.parametrize("indices", [3, [[1, 2]]], ids=["scalar", "row"])
def test_subset_view_rejects_indices_that_are_not_a_vector(indices):
    # a scalar raised a bare TypeError, and [[1, 2]] was reported as
    # holding duplicate indices
    with pytest.raises(ValueError, match="row indices must be one-dimensional"):
        SubsetView(two_column_data(), indices)


def test_subset_view_basics():
    data = two_column_data()
    v = SubsetView(data, [2, 0])
    assert len(v) == 2
    assert list(v.labels()) == [2, 1]
    assert list(v.values(0)) == [2.5, 0.5]


def test_subset_view_rejects_bad_indices():
    data = two_column_data()
    with pytest.raises(IndexError):
        SubsetView(data, [0, 4])
    with pytest.raises(IndexError):
        SubsetView(data, [-1])
    with pytest.raises(ValueError, match="duplicate"):
        SubsetView(data, [1, 3, 1])
    with pytest.raises(ValueError, match="integers"):
        SubsetView(data, [0.5, 1])
    with pytest.raises(ValueError, match="integers"):
        SubsetView(data, [True, False])
    with pytest.raises(ValueError, match="row indices must be integers"):
        SubsetView(data, [nested_in_itself(), 0])
    with pytest.raises(ValueError, match="row indices must be integers"):
        SubsetView(data, [nested(np.array(1), 3000), 0])
    # np.asarray unwrapped the 0-d array, which selected row 1, and a
    # ragged list raised numpy's own "inhomogeneous shape"
    for indices in ([np.array(1), 0], [[1], 0], [np.array([1]), 0]):
        with pytest.raises(ValueError, match="row indices must be integers"):
            SubsetView(data, indices)
    assert len(SubsetView(data, [])) == 0


@pytest.mark.parametrize(
    "indices", [[True, 2], [np.True_, 2], (0, np.False_), [np.array(True), 0]]
)
def test_subset_view_refuses_bools_among_row_indices(indices):
    # [True, 2] selected rows [1, 2], and [np.array(True), 0] rows [1, 0]
    with pytest.raises(ValueError, match="row indices must be integers"):
        SubsetView(two_column_data(), indices)


def test_partition_real_keeps_row_order():
    data = two_column_data()
    v = data.full_view()
    low, high = partition(v, SplitTest(0, REAL, theta=2.0))
    assert list(low.values(0)) == [0.5, 1.5]
    assert list(high.values(0)) == [2.5, 3.5]
    # boundary value goes to the low branch
    low2, high2 = partition(v, SplitTest(0, REAL, theta=2.5))
    assert list(low2.values(0)) == [0.5, 1.5, 2.5]
    assert list(high2.values(0)) == [3.5]


def test_partition_discrete_covers_every_branch():
    data = two_column_data()
    parts = partition(data.full_view(), SplitTest(1, DISCRETE, branch_count=3))
    assert [len(p) for p in parts] == [1, 2, 1]
    assert list(parts[1].labels()) == [1, 2]
    # empty branches appear as empty views, not gaps
    sub = SubsetView(data, [0, 3])
    parts = partition(sub, SplitTest(1, DISCRETE, branch_count=3))
    assert [len(p) for p in parts] == [1, 0, 1]


def test_partition_preserves_multiset_of_rows():
    data = two_column_data()
    v = data.full_view()
    parts = partition(v, SplitTest(0, REAL, theta=1.5))
    got = sorted(i for p in parts for i in p.indices)
    assert got == [0, 1, 2, 3]


def test_schema_file_roundtrip(tmp_path):
    attrs = (
        Attribute("x1", REAL),
        Attribute("color", DISCRETE, 3),
        Attribute("x2", REAL),
    )
    path = tmp_path / "schema.csv"
    write_schema(attrs, path)
    assert read_schema(path) == attrs


def test_schema_file_quotes_names_like_save_csv(tmp_path):
    # names with a comma, a quote or a line break round-trip through the
    # quoted form; plain names keep their unquoted bytes
    attrs = (
        Attribute("a,b", REAL),
        Attribute('say "hi"', DISCRETE, 3),
        Attribute("two\nlines", REAL),
        Attribute("x1", REAL),
        Attribute("c", DISCRETE, 3),
    )
    path = tmp_path / "schema.csv"
    write_schema(attrs, path)
    assert read_schema(path) == attrs
    assert path.read_bytes().endswith(b"\nx1,real\nc,discrete,3\n")


def test_schema_file_skips_blank_lines_between_attributes(tmp_path):
    path = tmp_path / "schema.csv"
    path.write_text("x1,real\n\ncolor,discrete,3\n   \nx2,real\n\n")
    assert read_schema(path) == (
        Attribute("x1", REAL),
        Attribute("color", DISCRETE, 3),
        Attribute("x2", REAL),
    )


def test_read_schema_reports_offending_line(tmp_path):
    path = tmp_path / "schema.csv"
    path.write_text("x1,real\ncolor,discrete,many\n")
    with pytest.raises(DataFormatError) as e:
        read_schema(path)
    assert "line 2" in str(e.value)
    path.write_text("x1,real,3\n")
    with pytest.raises(DataFormatError):
        read_schema(path)
    path.write_text("")
    with pytest.raises(DataFormatError):
        read_schema(path)


def test_csv_roundtrip(tmp_path):
    data = two_column_data()
    path = tmp_path / "train.csv"
    save_csv(data, path)
    again = load_csv(path, data.schema.attributes)
    assert again.class_labels == data.class_labels
    assert list(again.labels) == list(data.labels)
    for j in range(2):
        assert list(again.columns[j]) == list(data.columns[j])


def test_load_csv_label_order_is_first_appearance(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text("x1,class\n1.0,zebra\n2.0, ant\n3.0,zebra \n")
    data = load_csv(path, (Attribute("x1", REAL),))
    assert data.class_labels == ("zebra", "ant")
    assert list(data.labels) == [1, 2, 1]


def test_load_csv_rejects_header_mismatch(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text("x9,class\n1.0,a\n")
    with pytest.raises(DataFormatError):
        load_csv(path, (Attribute("x1", REAL),))


def test_load_csv_names_bad_cell(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text("x1,color,class\n1.0,2,a\noops,1,b\n")
    attrs = (Attribute("x1", REAL), Attribute("color", DISCRETE, 3))
    with pytest.raises(DataFormatError) as e:
        load_csv(path, attrs)
    msg = str(e.value)
    assert "line 3" in msg and "x1" in msg
    path.write_text("x1,color,class\n1.0,7,a\n")
    with pytest.raises(DataFormatError) as e:
        load_csv(path, attrs)
    assert "outside 1..3" in str(e.value)


def test_errors_after_a_multiline_field_name_the_physical_line(tmp_path):
    # the quoted cell spans lines 2 and 3, so `zzz` sits on line 4
    path = tmp_path / "train.csv"
    path.write_text('x1,x2,class\n1,"2\n",a\n1,zzz,c\n')
    attrs = (Attribute("x1", REAL), Attribute("x2", REAL))
    with pytest.raises(DataFormatError) as e:
        load_csv(path, attrs)
    assert str(e.value) == "%s line 4, column 'x2': 'zzz' is not a number" % (path,)
    path.write_text('x1,x2\n1,"2\n"\n1,zzz\n')
    with pytest.raises(DataFormatError) as e:
        load_feature_rows(path, attrs)
    assert str(e.value) == "%s line 4, column 'x2': 'zzz' is not a number" % (path,)
    path = tmp_path / "schema.csv"
    path.write_text('"x\n1",real\nx2,discrete,many\n')
    with pytest.raises(DataFormatError) as e:
        read_schema(path)
    assert str(e.value) == "%s line 3: 'many' is not a domain size" % (path,)


def test_load_feature_rows_tolerates_label_column(tmp_path):
    attrs = (Attribute("x1", REAL), Attribute("color", DISCRETE, 3))
    bare = tmp_path / "bare.csv"
    bare.write_text("x1,color\n1.5,2\n2.5,3\n")
    labeled = tmp_path / "labeled.csv"
    labeled.write_text("x1,color,class\n1.5,2,a\n2.5,3,b\n")
    columns = [col.tolist() for col in load_feature_rows(bare, attrs)]
    assert columns == [col.tolist() for col in load_feature_rows(labeled, attrs)]
    assert columns == [[1.5, 2.5], [2, 3]]


def test_load_feature_rows_rejects_unknown_header(tmp_path):
    attrs = (Attribute("x1", REAL),)
    path = tmp_path / "rows.csv"
    path.write_text("x1,extra\n1.0,2\n")
    with pytest.raises(DataFormatError):
        load_feature_rows(path, attrs)


# Every reader message, pinned byte for byte for both entry points. A
# whitespace-padded header shows the two header-mismatch forms: load_csv
# prints the raw header and the columns with `class`, load_feature_rows the
# stripped header and the attribute names only.
READER_ATTRS = (Attribute("x1", REAL), Attribute("color", DISCRETE, 3))
READER_CASES = [
    ("missing-header", "", "%(p)s: missing header row", "%(p)s: missing header row"),
    (
        "header-mismatch",
        " x1 , extra \n1.0,2\n",
        "%(p)s: header [' x1 ', ' extra '] does not match schema columns"
        " ['x1', 'color', 'class']",
        "%(p)s: header ['x1', 'extra'] does not match schema columns ['x1', 'color']",
    ),
    (
        "wrong-width",
        "%(h)s\n1.0,2%(c)s\n1.0%(c)s\n",
        "%(p)s line 3: expected %(want)d fields, got %(got)d",
        "%(p)s line 3: expected %(want)d fields, got %(got)d",
    ),
    (
        "not-a-number",
        "%(h)s\n oops ,2%(c)s\n",
        "%(p)s line 2, column 'x1': 'oops' is not a number",
        "%(p)s line 2, column 'x1': 'oops' is not a number",
    ),
    (
        "non-finite",
        "%(h)s\n1.0,2%(c)s\ninf,1%(c)s\n",
        "%(p)s line 3, column 'x1': values must be finite",
        "%(p)s line 3, column 'x1': values must be finite",
    ),
    (
        "not-an-integer",
        "%(h)s\n1.0, 2.5 %(c)s\n",
        "%(p)s line 2, column 'color': '2.5' is not an integer",
        "%(p)s line 2, column 'color': '2.5' is not an integer",
    ),
    (
        "out-of-domain",
        "%(h)s\n1.0,7%(c)s\n",
        "%(p)s line 2, column 'color': value 7 outside 1..3",
        "%(p)s line 2, column 'color': value 7 outside 1..3",
    ),
    (
        "first-error-wins",
        "%(h)s\nnan,1%(c)s\n\n2.0,1%(c)s\n1.0\n",
        "%(p)s line 2, column 'x1': values must be finite",
        "%(p)s line 2, column 'x1': values must be finite",
    ),
]


@pytest.mark.parametrize(
    "content,csv_message,rows_message",
    [case[1:] for case in READER_CASES],
    ids=[case[0] for case in READER_CASES],
)
def test_reader_messages_are_pinned(tmp_path, content, csv_message, rows_message):
    path = tmp_path / "in.csv"
    path.write_text(content % {"h": "x1,color,class", "c": ",a"})
    with pytest.raises(DataFormatError) as e:
        load_csv(path, READER_ATTRS)
    assert str(e.value) == csv_message % {"p": path, "want": 3, "got": 2}
    for header, tail, want in (("x1,color", "", 2), ("x1,color,class", ",a", 3)):
        path.write_text(content % {"h": header, "c": tail})
        with pytest.raises(DataFormatError) as e:
            load_feature_rows(path, READER_ATTRS)
        assert str(e.value) == rows_message % {"p": path, "want": want, "got": want - 1}


def test_empty_training_set_message_is_pinned(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("x1,color,class\n\n")
    with pytest.raises(DataFormatError) as e:
        load_csv(path, READER_ATTRS)
    assert str(e.value) == "%s: empty training set" % (path,)


def _first_error_file(path, labeled):
    # a bad cell on line 4102 sits in the second block, ahead of a field
    # the csv module rejects on line 4153
    tail = ",a" if labeled else ""
    lines = ["x1,color,class" if labeled else "x1,color"]
    lines += ["1.0,1" + tail] * 4100 + ["oops,1" + tail] + ["1.0,1" + tail] * 50
    lines.append('1.0,"%s"%s' % ("x" * 200_000, tail))
    path.write_text("\n".join(lines) + "\n")


def test_a_bad_cell_wins_over_a_later_reader_error(tmp_path):
    path = tmp_path / "in.csv"
    want = "%s line 4102, column 'x1': 'oops' is not a number" % (path,)
    _first_error_file(path, labeled=True)
    with pytest.raises(DataFormatError) as e:
        load_csv(path, READER_ATTRS)
    assert str(e.value) == want
    _first_error_file(path, labeled=False)
    with pytest.raises(DataFormatError) as e:
        load_feature_rows(path, READER_ATTRS)
    assert str(e.value) == want


# The block reader against the per-cell reader it replaced. Cells are
# padded with every character str.isspace accepts: float() and int() take
# all of them but U+001C..U+001F, which only str.strip removes, so those
# blocks parse through the per-cell path.
PADDING = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
GOOD_REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    # digit separators, and Arabic-Indic, Persian and fullwidth digits
    st.sampled_from(
        ["1_0", "1_000.5", "-0", "1e-400", "+.5", "\u0663", "\u06f1\u06f2.\u06f5", "\uff11"]
    ),
)
GOOD_INTS = st.one_of(
    st.integers(1, 3).map(str),
    st.sampled_from(["+2", "03", "0_1", "\u0663", "\uff12"]),
)
BAD_CELLS = st.sampled_from(
    [
        "nan", "-inf", "Infinity", "1e400", "-1e400", "oops", "", "2.5", "0", "4", "-1",
        "1__0", "_1", "1_", "0x10", "1" * 5000, str(2**63), str(2**63 - 1), str(-(2**63) - 1),
    ]
)
LABELS = st.text(alphabet='ab \t\n,"\x1c', max_size=3)
TOO_LONG = "7" * (csv.field_size_limit() + 1)


def _padded(cells):
    pad = st.text(alphabet=PADDING, max_size=2)
    return st.tuples(pad, cells, pad).map("".join)


def _csv_line(cells):
    return ",".join(
        '"%s"' % c.replace('"', '""') if any(ch in c for ch in ',"\r\n') else c for c in cells
    )


@st.composite
def reader_files(draw):
    """CSV text for READER_ATTRS with or without a class column: good rows,
    blank lines, and faults at up to three drawn rows: a bad cell, a wrong
    width or a field over the csv module's limit."""
    width = draw(st.sampled_from([2, 3]))
    rows = [
        [draw(_padded(GOOD_REALS)), draw(_padded(GOOD_INTS))] + [draw(LABELS)] * (width == 3)
        for _ in range(draw(st.integers(0, 12)))
    ]
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3, unique=True)) if rows else ():
        row = rows[i]
        fault = draw(st.sampled_from(["cell", "cell", "width", "reader"]))
        if fault == "cell":
            row[draw(st.integers(0, 1))] = draw(_padded(BAD_CELLS))
        elif fault == "width":
            row[:] = row[:-1] if draw(st.booleans()) else row + ["1"]
        else:
            row[draw(st.integers(0, len(row) - 1))] = TOO_LONG
    lines = [",".join(["x1", "color", "class"][:width])]
    for row in rows:
        lines += [""] * draw(st.integers(0, 1)) + [_csv_line(row)]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def reader_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "in.csv"


def _read_both(path, labeled):
    results = []
    for read in (dataset._read_csv, reference_read_csv):
        try:
            cols, labels = read(path, READER_ATTRS, labeled)
        except DataFormatError as e:
            results.append(str(e))
        else:
            cols = [np.asarray(col) for col in cols]
            results.append(([(col.dtype, col.shape, col.tobytes()) for col in cols], labels))
    return results


@settings(max_examples=300, deadline=None)
@given(text=reader_files(), labeled=st.booleans(), block_rows=st.integers(1, 5))
# a width error after a bad cell in the same block
@example(text="x1,color\noops,1\n1.0\n", labeled=False, block_rows=4)
# a bad cell read before a field over the csv module's limit
@example(text="x1,color\n1,1\noops,1\n1,%s\n" % TOO_LONG, labeled=False, block_rows=4)
# a bad cell in the block before a width error
@example(text="x1,color\n1,1\n1,0\n1,1,1\n", labeled=False, block_rows=2)
# separator characters that only str.strip removes, in a block that parses
@example(text="x1,color\n\x1c1.5\x1f,\x1e2\x1d\n1,1\n", labeled=False, block_rows=1)
@example(text="x1,color,class\n", labeled=True, block_rows=1)
# int64 overflow, which numpy raises as OverflowError
@example(text="x1,color\n1,%d\n" % 2**63, labeled=False, block_rows=1)
def test_block_reader_matches_the_per_cell_reader(reader_path, text, labeled, block_rows):
    reader_path.write_text(text, encoding="utf-8")
    with mock.patch.object(dataset, "BLOCK_ROWS", block_rows):
        got, want = _read_both(reader_path, labeled)
    assert got == want
