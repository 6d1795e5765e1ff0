"""Training-data model: attribute schema, CSV ingestion and row subsets.

Attributes are either real-valued or discrete over {1..T}. Class labels in
files are arbitrary strings; ingestion maps them to 1..M in order of first
appearance and keeps the mapping on the dataset so models can report the
original names.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

REAL = "real"
DISCRETE = "discrete"


class DataFormatError(ValueError):
    """A CSV or schema file deviates from the declared format."""


@dataclass(frozen=True)
class Attribute:
    """One column of the training matrix."""

    name: str
    kind: str
    domain_size: int | None = None

    def __post_init__(self):
        if self.kind not in (REAL, DISCRETE):
            raise ValueError("attribute kind must be %r or %r, got %r" % (REAL, DISCRETE, self.kind))
        if self.kind == DISCRETE:
            if self.domain_size is None or self.domain_size < 2:
                raise ValueError("discrete attribute %r needs a domain size of at least 2" % (self.name,))
        elif self.domain_size is not None:
            raise ValueError("real attribute %r cannot declare a domain size" % (self.name,))


@dataclass(frozen=True)
class AttributeSchema:
    attributes: tuple
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if not self.attributes:
            raise ValueError("a schema needs at least one attribute")
        if self.class_count < 1:
            raise ValueError("a schema needs at least one class")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")

    @property
    def attribute_count(self):
        return len(self.attributes)

    def is_real(self, attr):
        return self.attributes[attr].kind == REAL

    def domain_size(self, attr):
        return self.attributes[attr].domain_size


class Dataset:
    """Immutable training matrix with labels, stored column-wise."""

    def __init__(self, schema, columns, labels, class_labels):
        self.schema = schema
        self.columns = []
        for j, col in enumerate(columns):
            kind = schema.attributes[j].kind if j < schema.attribute_count else REAL
            dtype = np.float64 if kind == REAL else np.int64
            self.columns.append(np.asarray(col, dtype=dtype))
        self.labels = np.asarray(labels, dtype=np.int64)
        self.class_labels = tuple(class_labels)
        self._validate()

    def _validate(self):
        n = len(self.labels)
        if n < 1:
            raise DataFormatError("empty training set")
        if len(self.columns) != self.schema.attribute_count:
            raise ValueError(
                "%d columns for %d attributes" % (len(self.columns), self.schema.attribute_count)
            )
        for j, col in enumerate(self.columns):
            a = self.schema.attributes[j]
            if len(col) != n:
                raise ValueError("column %r has %d values for %d rows" % (a.name, len(col), n))
            if a.kind == REAL:
                if not np.all(np.isfinite(col)):
                    raise DataFormatError("non-finite value in attribute %r" % (a.name,))
            else:
                if len(col) and (col.min() < 1 or col.max() > a.domain_size):
                    raise DataFormatError(
                        "attribute %r holds values outside 1..%d" % (a.name, a.domain_size)
                    )
        if self.labels.min() < 1 or self.labels.max() > self.schema.class_count:
            raise DataFormatError("class indices outside 1..%d" % (self.schema.class_count,))
        if len(self.class_labels) != self.schema.class_count:
            raise ValueError("need one label name per class")

    @property
    def n_rows(self):
        return len(self.labels)

    def column(self, attr):
        return self.columns[attr]

    def row(self, i):
        return tuple(self.columns[j][i] for j in range(self.schema.attribute_count))

    def full_view(self):
        return SubsetView(self, np.arange(self.n_rows, dtype=np.int64))

    def label_name(self, class_index):
        return self.class_labels[class_index - 1]


class SubsetView:
    """An ordered, duplicate-free selection of dataset rows by index."""

    __slots__ = ("base", "indices")

    def __init__(self, base, indices):
        self.base = base
        self.indices = np.asarray(indices, dtype=np.int64)
        if len(self.indices):
            if self.indices.min() < 0 or self.indices.max() >= base.n_rows:
                raise IndexError("row index outside 0..%d" % (base.n_rows - 1,))
            if len(np.unique(self.indices)) != len(self.indices):
                raise ValueError("duplicate row indices in view")

    def __len__(self):
        return len(self.indices)

    def labels(self):
        return self.base.labels[self.indices]

    def values(self, attr):
        return self.base.column(attr)[self.indices]


def _subview(view, mask):
    """The rows of a checked view that mask selects, in order.

    A boolean-mask subset cannot repeat a row or leave the range, so it
    skips the bounds and duplicate checks of SubsetView.__init__.
    """
    child = object.__new__(SubsetView)
    child.base = view.base
    child.indices = view.indices[mask]
    return child


def branch_masks(values, test):
    """The branch rule: one boolean mask over values per child of a node test.

    A real test sends x <= theta to its first child and the rest to its
    second; a discrete test sends x == w to child w, for w in 1..T.
    """
    if test.kind == REAL:
        left = values <= test.theta
        return [left, ~left]
    return [values == w for w in range(1, test.branch_count + 1)]


def partition(view, test):
    """Splits a view by a node test, preserving row order; discrete tests
    give one view per domain value, empty views permitted."""
    return [_subview(view, mask) for mask in branch_masks(view.values(test.attr), test)]


def _records(reader, path):
    """(line, row) for the rows of a csv.reader, where line is the physical
    line the record ends on, so a quoted field that spans lines does not
    shift the numbers of later records. A record the csv module rejects,
    such as a field over its size limit, raises DataFormatError naming the
    line."""
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as e:
        raise DataFormatError("%s line %d: %s" % (path, reader.line_num, e)) from None


def read_schema(path):
    """Parses the sidecar schema: one `name,real` or `name,discrete,T` line per attribute."""
    attrs = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in _records(csv.reader(fh), path):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            name = row[0].strip()
            kind = row[1].strip().lower() if len(row) > 1 else ""
            if kind == REAL and len(row) == 2:
                attrs.append(Attribute(name, REAL))
            elif kind == DISCRETE and len(row) == 3:
                try:
                    t = int(row[2])
                except ValueError:
                    raise DataFormatError(
                        "%s line %d: %r is not a domain size" % (path, lineno, row[2])
                    ) from None
                attrs.append(Attribute(name, DISCRETE, t))
            else:
                raise DataFormatError(
                    "%s line %d: expected 'name,real' or 'name,discrete,T'" % (path, lineno)
                )
    if not attrs:
        raise DataFormatError("%s declares no attributes" % (path,))
    return tuple(attrs)


def write_schema(attributes, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for a in attributes:
            if a.kind == REAL:
                fh.write("%s,%s\n" % (a.name, REAL))
            else:
                fh.write("%s,%s,%d\n" % (a.name, DISCRETE, a.domain_size))


def _parse_value(token, attribute, path, lineno):
    token = token.strip()
    if attribute.kind == REAL:
        try:
            v = float(token)
        except ValueError:
            raise DataFormatError(
                "%s line %d, column %r: %r is not a number"
                % (path, lineno, attribute.name, token)
            ) from None
        if not math.isfinite(v):
            raise DataFormatError(
                "%s line %d, column %r: values must be finite" % (path, lineno, attribute.name)
            )
        return v
    try:
        v = int(token)
    except ValueError:
        raise DataFormatError(
            "%s line %d, column %r: %r is not an integer" % (path, lineno, attribute.name, token)
        ) from None
    if not 1 <= v <= attribute.domain_size:
        raise DataFormatError(
            "%s line %d, column %r: value %d outside 1..%d"
            % (path, lineno, attribute.name, v, attribute.domain_size)
        )
    return v


def _read_csv(path, attributes, labeled):
    """The one CSV loop: returns a list of parsed values per attribute and,
    when labeled, every row's stripped label. The header is the attribute
    names plus `class`; an unlabeled read may also omit `class`."""
    names = [a.name for a in attributes]
    expected = names + ["class"] if labeled else names
    cols = [[] for _ in attributes]
    labels = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _records(csv.reader(fh), path)
        _, header = next(reader, (None, None))
        if header is None:
            raise DataFormatError("%s: missing header row" % (path,))
        stripped = [h.strip() for h in header]
        if stripped not in (expected, names + ["class"]):
            raise DataFormatError(
                "%s: header %r does not match schema columns %r"
                % (path, header if labeled else stripped, expected)
            )
        width = len(header)
        for lineno, row in reader:
            if not row:
                continue
            if len(row) != width:
                raise DataFormatError(
                    "%s line %d: expected %d fields, got %d" % (path, lineno, width, len(row))
                )
            for col, a, token in zip(cols, attributes, row):
                col.append(_parse_value(token, a, path, lineno))
            if labeled:
                labels.append(row[-1].strip())
    return cols, labels


def load_csv(path, attributes):
    """Loads a labeled CSV whose header is the attribute names plus `class`."""
    attributes = tuple(attributes)
    cols, labels = _read_csv(path, attributes, labeled=True)
    if not labels:
        raise DataFormatError("%s: empty training set" % (path,))
    mapping = {}
    indices = [mapping.setdefault(label, len(mapping) + 1) for label in labels]
    schema = AttributeSchema(attributes, class_count=len(mapping))
    return Dataset(schema, cols, indices, tuple(mapping))


def save_csv(data, path):
    """Writes a dataset back out in the load_csv format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([a.name for a in data.schema.attributes] + ["class"])
        for i in range(data.n_rows):
            row = []
            for j, a in enumerate(data.schema.attributes):
                v = data.columns[j][i]
                row.append(repr(float(v)) if a.kind == REAL else str(int(v)))
            row.append(data.label_name(int(data.labels[i])))
            writer.writerow(row)


def load_feature_rows(path, attributes):
    """Reads feature columns for prediction, one array per attribute.

    The header must list the attribute names; a trailing `class` column is
    tolerated and ignored so training files can be fed back in.
    """
    cols, _ = _read_csv(path, tuple(attributes), labeled=False)
    return [np.asarray(col) for col in cols]
