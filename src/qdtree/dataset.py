"""Training-data model: attribute schema, CSV ingestion and row subsets.

Attributes are either real-valued or discrete over {1..T}. Class labels in
files are arbitrary strings; ingestion maps them to 1..M in order of first
appearance and keeps the mapping on the dataset so models can report the
original names.
"""

import csv
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

REAL = "real"
DISCRETE = "discrete"


class DataFormatError(ValueError):
    """A CSV or schema file deviates from the declared format."""


def is_integer(value):
    """Whether value is an integer of any integral type other than bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_vector(x):
    """Whether x is a sequence (not a str, bytes or bytearray) or a 1-D
    array: the shape of an attribute row and of a class-label list."""
    return not isinstance(x, (str, bytes, bytearray)) and (
        isinstance(x, Sequence) or (isinstance(x, np.ndarray) and x.ndim == 1)
    )


@dataclass(frozen=True)
class Attribute:
    """One column of the training matrix."""

    name: str
    kind: str
    domain_size: int | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError("attribute name must be a string, got %r" % (self.name,))
        # every reader strips names, so a padded one could not be read back
        if self.name != self.name.strip():
            raise ValueError("attribute name %r has leading or trailing whitespace" % (self.name,))
        if self.kind not in (REAL, DISCRETE):
            raise ValueError("attribute kind must be %r or %r, got %r" % (REAL, DISCRETE, self.kind))
        if self.kind == DISCRETE:
            if not is_integer(self.domain_size) or self.domain_size < 2:
                raise ValueError(
                    "discrete attribute %r needs an integer domain size of at least 2" % (self.name,)
                )
            # a numpy integer would reach the model writer, which json refuses
            object.__setattr__(self, "domain_size", int(self.domain_size))
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
        for a in self.attributes:
            if not isinstance(a, Attribute):
                raise ValueError("schema entries must be Attributes, got %r" % (a,))
        if not is_integer(self.class_count) or self.class_count < 1:
            raise ValueError("a schema needs an integer class count of at least 1")
        object.__setattr__(self, "class_count", int(self.class_count))
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


_BOOLS = (bool, np.bool_)
_COMPLEX = (complex, np.complexfloating)


def _holds(values, types):
    """Whether a sequence or object array holds a value of one of types."""
    return any(issubclass(t, types) for t in set(map(type, values)))


def _flat(values, what):
    """values as an array, once it is one-dimensional. A sequence holding a
    bool, which np.asarray would make 0 or 1, an array, which it would
    unwrap, or a string, whose trailing NULs it would drop, becomes an
    object array, and so does a ragged sequence, which np.asarray refuses,
    so that each value reaches _numbers as it stands."""
    try:
        array = np.asarray(values)
    except ValueError:
        return np.fromiter(values, object)
    if array.ndim != 1:
        raise ValueError("%s must be one-dimensional, got shape %s" % (what, array.shape))
    if not isinstance(values, np.ndarray) and (
        array.dtype.kind in "SU" or _holds(values, _BOOLS + (np.ndarray,))
    ):
        return np.fromiter(values, object, len(array))
    return array


def _numbers(values, what):
    """values as a float64 array, once each is a real number.

    A complex value raises DataFormatError `<what> that are complex
    numbers`, since a cast would drop its imaginary part; any other value
    float() refuses raises `<what> that are not numbers`, and so do bools,
    dates and time spans, which a cast would read as 0 or 1 and as counts
    of time units, and arrays, which are not numbers at any depth. An
    object array goes through float() value by value, because numpy's cast
    would make None a NaN. Numeric strings are numbers. A number too large
    for a float raises OverflowError.
    """
    values = np.asarray(values)
    kind = values.dtype.kind
    try:
        if kind == "O" and not _holds(values, _BOOLS + _COMPLEX + (np.ndarray,)):
            return np.fromiter(map(float, values), np.float64, len(values))
        if kind not in "bcmMO":
            return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        pass
    if kind == "c" or (kind == "O" and _holds(values, _COMPLEX)):
        raise DataFormatError("%s that are complex numbers" % (what,))
    raise DataFormatError("%s that are not numbers" % (what,))


def checked_values(values, high, what):
    """values as a float64 array of finite numbers when high is None, or as
    an int64 array of whole numbers in 1..high, where high is one bound or
    a sequence of one bound per value: the one value rule of Dataset
    columns and labels, classify and the CSV reader's block parse.

    Any other value raises DataFormatError, with one message per kind of
    failure: `<what> that are not numbers` or `... that are complex
    numbers` (see _numbers), `... that are not finite`, `... that are not
    whole numbers` or `<what> outside 1..<high>`. A whole number too large
    for a float is outside the domain; a real one is not finite, as its
    digits are in the CSV reader, where float() reads them as inf.
    """
    values = np.asarray(values)
    if high is None or values.dtype.kind not in "iu":
        try:
            values = _numbers(values, what)
        except OverflowError:
            if high is None:
                raise DataFormatError("%s that are not finite" % (what,)) from None
            raise DataFormatError("%s outside 1..%s" % (what, high)) from None
        if not np.isfinite(values).all():
            raise DataFormatError("%s that are not finite" % (what,))
        if high is None:
            return values
        if not (values == np.floor(values)).all():
            raise DataFormatError("%s that are not whole numbers" % (what,))
    if len(values) and (values.min() < 1 or (values > high).any()):
        raise DataFormatError("%s outside 1..%s" % (what, high))
    return values.astype(np.int64, copy=False)


def breaks_lines(text):
    """Whether text holds a character at which str.splitlines breaks it:
    \\n, \\r, \\v, \\f, \\x1c-\\x1e, \\x85, \\u2028 or \\u2029. Predict
    prints each class label as one line."""
    return "".join(text.splitlines()) != text


def check_class_labels(labels, count):
    """labels as a tuple, once it is a vector (see is_vector; a set's order
    can change between runs) of count strings, none holding a line break:
    the one class-label rule of Dataset and the model loader. A model file
    keeps only string labels, and predict prints each as one line. Any
    other labels raise DataFormatError.
    """
    if not is_vector(labels):
        raise DataFormatError("class labels must be a sequence of strings, got %r" % (labels,))
    labels = tuple(labels)
    if len(labels) != count:
        raise DataFormatError("%d class labels for %d classes" % (len(labels), count))
    for label in labels:
        if not isinstance(label, str):
            raise DataFormatError("class labels must be strings, got %r" % (label,))
        if breaks_lines(label):
            raise DataFormatError("class label %r holds a line break" % (label,))
    return labels


def _read_only(stored, given):
    """stored, the array a Dataset keeps for the caller's given, made
    read-only. When the caller could still write to stored, because it is
    given itself or a view of memory it does not own, as np.asarray makes
    of a buffer, a copy is frozen instead. An array that is already
    read-only is kept as it stands."""
    if stored.flags.writeable:
        if stored is given or not stored.flags.owndata:
            stored = stored.copy()
        stored.flags.writeable = False
    return stored


class Dataset:
    """Immutable training matrix with labels, stored column-wise.

    The columns and labels are read-only arrays, so what the scanners derive
    from them once per dataset stays true. A writeable array passed in is
    copied, and one passed in read-only is kept, so its memory must not
    change while the dataset lives."""

    def __init__(self, schema, columns, labels, class_labels):
        self.schema = schema
        columns = list(columns)
        if len(columns) != schema.attribute_count:
            raise ValueError(
                "%d columns for %d attributes" % (len(columns), schema.attribute_count)
            )
        flat = [_flat(col, "column %r" % (a.name,)) for a, col in zip(schema.attributes, columns)]
        self.columns = [
            _read_only(
                checked_values(col, a.domain_size, "attribute %r holds values" % (a.name,)), given
            )
            for a, col, given in zip(schema.attributes, flat, columns)
        ]
        self.labels = _read_only(
            checked_values(_flat(labels, "class indices"), schema.class_count, "class indices"),
            labels,
        )
        self._validate()
        self.class_labels = check_class_labels(class_labels, schema.class_count)

    def _validate(self):
        n = len(self.labels)
        if n < 1:
            raise DataFormatError("empty training set")
        for a, col in zip(self.schema.attributes, self.columns):
            if len(col) != n:
                raise ValueError("column %r has %d values for %d rows" % (a.name, len(col), n))

    @property
    def n_rows(self):
        return len(self.labels)

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
        indices = _flat(indices, "row indices")
        if len(indices) and indices.dtype.kind not in "iu":
            raise ValueError("row indices must be integers, got %s" % (indices.dtype,))
        self.indices = indices.astype(np.int64, copy=False)
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
        return self.base.columns[attr][self.indices]


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


# Rows parsed together: enough to spread numpy's per-call cost over many
# cells, few enough that a block's strings stay small beside the columns.
# Timed in one process on the benchmark's files, 1024-row blocks read a
# 16 000-row file of 8 real columns 4-9% faster than 4096-row blocks and
# 3-4% faster than 512-row ones; on 6000-row files of 12 discrete columns
# every size from 512 to 4096 was within 7%.
BLOCK_ROWS = 1024


def _blocks(reader, path):
    """(lines, rows) blocks of up to BLOCK_ROWS non-blank records of a
    csv.reader: rows holds the reader's own lists, and lines the physical
    line each record ends on, so a quoted field that spans lines does not
    shift the numbers of later records. The first record, the header of a
    data file, comes out alone as the first block, even when it is blank.

    A record the csv module rejects, such as a field over its size limit,
    raises DataFormatError naming the line. So does a byte that is not
    UTF-8, naming only the file: the decoder reads ahead of the records, so
    neither its line nor its offset is the file's. The records read before
    the error come out first, so that a bad cell ahead of it is the one
    reported."""
    lines, rows = [], []
    error = None
    try:
        for row in reader:
            yield [reader.line_num], [row]
            break
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
                if len(rows) == BLOCK_ROWS:
                    yield lines, rows
                    lines, rows = [], []
    except csv.Error as e:
        error = DataFormatError("%s line %d: %s" % (path, reader.line_num, e))
    except UnicodeDecodeError as e:
        error = DataFormatError("%s is not UTF-8 text: %s" % (path, e.reason))
    if rows:
        yield lines, rows
    if error is not None:
        raise error


def read_schema(path):
    """Parses the sidecar schema: one `name,real` or `name,discrete,T` line per attribute."""
    attrs = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lines, rows in _blocks(csv.reader(fh), path):
            for lineno, row in zip(lines, rows):
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
    """Writes the read_schema format, quoting names as save_csv does."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for a in attributes:
            writer.writerow([a.name, REAL] if a.kind == REAL else [a.name, DISCRETE, a.domain_size])


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


_PARSERS = {REAL: (float, np.float64), DISCRETE: (int, np.int64)}


def _parse_columns(rows, attributes):
    """One array per attribute for rows of the right width, parsed a column
    at a time, or None when a token does not parse as it stands or a value
    breaks the rule of checked_values."""
    try:
        return [
            checked_values(np.fromiter(map(parse, tokens), dtype, len(rows)), a.domain_size, a.name)
            for a, tokens in zip(attributes, zip(*rows))
            for parse, dtype in [_PARSERS[a.kind]]
        ]
    except (ValueError, OverflowError):
        return None


def _parse_cells(lines, rows, attributes, width, path, labeled):
    """The block's columns parsed cell by cell, in row order: raises the
    first bad width, cell or, when labeled, class label with a line break,
    naming its line, and parses a token that `float` or `int` accepts only
    once stripped."""
    cols = [[] for _ in attributes]
    for lineno, row in zip(lines, rows):
        if len(row) != width:
            raise DataFormatError(
                "%s line %d: expected %d fields, got %d" % (path, lineno, width, len(row))
            )
        for col, a, token in zip(cols, attributes, row):
            col.append(_parse_value(token, a, path, lineno))
        if labeled and breaks_lines(row[-1].strip()):
            raise DataFormatError(
                "%s line %d: class label %r holds a line break" % (path, lineno, row[-1].strip())
            )
    return [np.array(col, _PARSERS[a.kind][1]) for a, col in zip(attributes, cols)]


def _read_csv(path, attributes, labeled):
    """The one CSV loop: returns an array of parsed values per attribute
    and, when labeled, every row's stripped label. The header is the
    attribute names plus `class`; an unlabeled read may also omit `class`.
    A label with a line break is an error, since predict prints each label
    as one line.

    Cells are parsed a block of rows at a time, one column per call; a
    block that fails goes through the per-cell path, which reports the
    first error in row order."""
    names = [a.name for a in attributes]
    expected = names + ["class"] if labeled else names
    parts = [[] for _ in attributes]
    labels = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        blocks = _blocks(csv.reader(fh), path)
        for _, (header,) in blocks:
            break
        else:
            raise DataFormatError("%s: missing header row" % (path,))
        stripped = [h.strip() for h in header]
        if stripped not in (expected, names + ["class"]):
            raise DataFormatError(
                "%s: header %r does not match schema columns %r"
                % (path, header if labeled else stripped, expected)
            )
        width = len(header)
        for lines, rows in blocks:
            tail = [row[-1].strip() for row in rows] if labeled else []
            columns = None
            if set(map(len, rows)) == {width} and not any(map(breaks_lines, set(tail))):
                columns = _parse_columns(rows, attributes)
            if columns is None:
                columns = _parse_cells(lines, rows, attributes, width, path, labeled)
            for part, values in zip(parts, columns):
                part.append(values)
            labels.extend(tail)
            # free this block's strings before the next block is read
            del lines, rows
    # with no rows, every column is an empty float64 array
    return [np.concatenate(part) if part else np.empty(0) for part in parts], labels


def load_csv(path, attributes):
    """Loads a labeled CSV whose header is the attribute names plus `class`."""
    attributes = tuple(attributes)
    cols, labels = _read_csv(path, attributes, labeled=True)
    if not labels:
        raise DataFormatError("%s: empty training set" % (path,))
    # the reader's arrays are its own: frozen, Dataset keeps them uncopied
    for col in cols:
        col.flags.writeable = False
    mapping = {}
    indices = [mapping.setdefault(label, len(mapping) + 1) for label in labels]
    schema = AttributeSchema(attributes, class_count=len(mapping))
    return Dataset(schema, cols, indices, tuple(mapping))


def save_csv(data, path):
    """Writes a dataset back out in the load_csv format. csv.writer writes
    a float as its repr and an int as its str, which load_csv reads back."""
    labels = [data.class_labels[c - 1] for c in data.labels.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([a.name for a in data.schema.attributes] + ["class"])
        writer.writerows(zip(*[column.tolist() for column in data.columns], labels))


def load_feature_rows(path, attributes):
    """Reads feature columns for prediction, one array per attribute.

    The header must list the attribute names; a trailing `class` column is
    tolerated and ignored so training files can be fed back in.
    """
    cols, _ = _read_csv(path, tuple(attributes), labeled=False)
    return cols
