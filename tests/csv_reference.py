"""The per-cell CSV reader that qdtree.dataset._read_csv replaced, kept as
the reference its block reader is checked against: it parses every cell on
its own with `_parse_value`, in row order, refuses a class label that holds
a line break, and returns a list of values per attribute. Both must give
the same columns, the same labels, or the same DataFormatError message for
any file.
"""

import csv
import math

from qdtree.dataset import REAL, DataFormatError, _records


# the characters str.splitlines breaks at; predict prints a label as one line
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


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


def read_csv(path, attributes, labeled):
    """The one CSV loop: returns a list of parsed values per attribute and,
    when labeled, every row's stripped label. The header is the attribute
    names plus `class`; an unlabeled read may also omit `class`."""
    names = [a.name for a in attributes]
    expected = names + ["class"] if labeled else names
    cols = [[] for _ in attributes]
    labels = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
                label = row[-1].strip()
                if any(c in label for c in LINE_BREAKS):
                    raise DataFormatError(
                        "%s line %d: class label %r holds a line break" % (path, lineno, label)
                    )
                labels.append(label)
    return cols, labels
