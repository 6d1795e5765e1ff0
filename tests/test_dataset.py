"""Schema, column-store dataset, subset views, partitioning, and file IO."""

import numpy as np
import pytest

from qdtree.dataset import (
    DISCRETE,
    REAL,
    Attribute,
    AttributeSchema,
    DataFormatError,
    Dataset,
    SubsetView,
    load_csv,
    load_feature_rows,
    partition,
    read_schema,
    save_csv,
    write_schema,
)
from qdtree.splitscan import SplitTest


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


def test_dataset_rejects_out_of_domain_discrete():
    schema = AttributeSchema((Attribute("c", DISCRETE, 2),), 2)
    with pytest.raises(DataFormatError):
        Dataset(schema, [[1, 3]], [1, 2], ("a", "b"))
    with pytest.raises(DataFormatError):
        Dataset(schema, [[0, 1]], [1, 2], ("a", "b"))


def test_dataset_rejects_non_finite_reals():
    schema = AttributeSchema((Attribute("x", REAL),), 2)
    with pytest.raises(DataFormatError):
        Dataset(schema, [[1.0, float("nan")]], [1, 2], ("a", "b"))
    with pytest.raises(DataFormatError):
        Dataset(schema, [[float("inf"), 0.0]], [1, 2], ("a", "b"))


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
    # the quoted label spans lines 2 and 3, so `zzz` sits on line 4
    path = tmp_path / "train.csv"
    path.write_text('x1,x2,class\n1,2,"a\nb"\n1,zzz,c\n')
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
