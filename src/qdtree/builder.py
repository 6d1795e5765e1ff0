"""Decision-tree construction.

`form_tree` is the one growth loop: depth-first recursive partitioning that
asks a split chooser for each node's test. The classical chooser here scores
every attribute with the split scanners and takes the gain-ratio argmax; the
quantum builder passes a chooser that searches instead. Two interchangeable
counter backends (dense arrays, sparse ordered maps) feed the scanners; they
produce byte-identical trees and differ only in their operation tallies.
"""

import contextlib
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import countOf

import numpy as np

from . import jsonio
from .counters import BASELINE, TREEMAP, OpTally, make_backend
from .criteria import INVALID_SPLIT
from .dataset import (
    DISCRETE,
    REAL,
    Attribute,
    AttributeSchema,
    DataFormatError,
    branch_masks,
    partition,
)
from .splitscan import SplitTest, process_attribute

QUANTUM = "quantum"
BACKENDS = (BASELINE, TREEMAP, QUANTUM)


@dataclass
class BuildConfig:
    """Knobs shared by the classical and quantum builders.

    max_height bounds node depth (0 forces a single leaf). min_split is the
    smallest subset still worth scanning. verify asks the quantum builder to
    also record each node's classically best attribute.
    """

    max_height: int = 10
    min_split: int = 2
    backend: str = BASELINE
    seed: int | None = None
    verify: bool = False

    def __post_init__(self):
        if self.max_height < 0:
            raise ValueError("max_height must be >= 0")
        if self.min_split < 2:
            raise ValueError("min_split must be >= 2")
        if self.backend not in BACKENDS:
            raise ValueError("backend must be one of %s" % (", ".join(BACKENDS),))
        if self.backend == QUANTUM and self.seed is None:
            raise ValueError("the quantum backend needs an explicit seed")


@dataclass
class BuildStats:
    """Instrumentation accumulated over one build.

    evaluations counts scoring passes over (view, attribute) pairs. The
    tally's maintenance_ops is the structure-sized counter work whose growth
    with the class count separates the two backends.
    """

    internal_nodes: int = 0
    leaves: int = 0
    evaluations: int = 0
    tally: OpTally = field(default_factory=OpTally)

    @property
    def counter_ops(self):
        return self.tally.maintenance_ops


@dataclass
class Leaf:
    """support holds the node's M class counts, class 1 first."""

    class_index: int
    support: tuple


@dataclass
class Internal:
    test: SplitTest
    children: list
    support: tuple


@dataclass
class DecisionTree:
    root: object
    schema: AttributeSchema
    class_labels: tuple
    stats: BuildStats


def score_attributes(view, backend, stats=None):
    """One scoring pass per attribute of a view: [(SplitScore, SplitTest)]
    for attributes 0..d-1, with (INVALID_SPLIT, None) for an attribute that
    has no candidate split. Both choosers read this list, and it is the only
    place where stats.evaluations grows."""
    d = view.base.schema.attribute_count
    if stats is not None:
        stats.evaluations += d
    return [process_attribute(view, attr, backend) or (INVALID_SPLIT, None) for attr in range(d)]


def first_best(ratios):
    """Index of the first greatest ratio, or None when every ratio is -inf
    (no valid split). This is the one tie rule: the classical argmax and the
    verified optimum both pick with it."""
    best = max(range(len(ratios)), key=ratios.__getitem__)
    return None if ratios[best] == -math.inf else best


def choose_split(view, backend, stats=None):
    """Gain-ratio argmax over all attributes of a view.

    Returns (attr, SplitTest, SplitScore) or None when no attribute admits a
    valid candidate. Ties keep the lowest attribute index; threshold ties
    within an attribute were already resolved toward the lowest threshold.
    """
    results = score_attributes(view, backend, stats)
    attr = first_best([score.ratio for score, _ in results])
    return None if attr is None else (attr, results[attr][1], results[attr][0])


def form_tree(view, level, config, stats, choose):
    """Recursive growth: leaf on purity, height, size, or no split found.

    choose(view) returns the node's SplitTest or None. A branch no training
    sample takes becomes a leaf labeled with the parent majority; its
    recorded support is the parent distribution the label came from.
    """
    m = view.base.schema.class_count
    support = tuple(np.bincount(view.labels(), minlength=m + 1)[1:].tolist())
    # the lowest class wins a tie
    majority = support.index(max(support)) + 1
    test = None
    if (
        m - support.count(0) > 1
        and level < config.max_height
        and len(view) >= config.min_split
    ):
        stats.tally.level = level
        test = choose(view)
    if test is None:
        stats.leaves += 1
        return Leaf(majority, support)
    stats.internal_nodes += 1
    children = []
    for part in partition(view, test):
        if len(part) == 0:
            stats.leaves += 1
            children.append(Leaf(majority, support))
        else:
            children.append(form_tree(part, level + 1, config, stats, choose))
    return Internal(test, children, support)


def train(data, config=None):
    """Grows a DecisionTree over the full dataset.

    Baseline and treemap backends produce identical trees; quantum builds
    live in the sibling module of this one.
    """
    config = config if config is not None else BuildConfig()
    if config.backend == QUANTUM:
        raise ValueError("use the quantum builder for quantum-searched trees")
    stats = BuildStats()
    backend = make_backend(config.backend, stats.tally)

    def choose(view):
        choice = choose_split(view, backend, stats)
        return None if choice is None else choice[1]

    root = form_tree(data.full_view(), 0, config, stats, choose)
    return DecisionTree(root, data.schema, data.class_labels, stats)


def route(tree, columns):
    """Leaf class index of every row, given one value array per attribute.

    Row-index arrays go down the tree on an explicit stack, split by
    `branch_masks`; subtrees no row reaches are skipped. Discrete values
    must lie in their domains, as the reader, Dataset and load_model ensure.
    """
    classes = np.zeros(len(columns[0]), dtype=np.int64)
    stack = [(tree.root, np.arange(len(classes)))]
    while stack:
        node, rows = stack.pop()
        if isinstance(node, Leaf):
            classes[rows] = node.class_index
        elif len(rows):
            masks = branch_masks(columns[node.test.attr][rows], node.test)
            stack.extend(zip(node.children, (rows[mask] for mask in masks)))
    return classes


def classify(tree, x):
    """Routes one attribute vector: a sequence (not a string) or 1-D array
    of exactly d values. Each value must convert to a finite float, and a
    discrete one must also be a whole number inside its domain; anything
    else raises DataFormatError, as the CSV reader would."""
    d = tree.schema.attribute_count
    if isinstance(x, (str, bytes, bytearray)) or not (
        isinstance(x, Sequence) or (isinstance(x, np.ndarray) and x.ndim == 1)
    ):
        raise DataFormatError(
            "expected a sequence of %d attribute values, got %s" % (d, type(x).__name__)
        )
    if len(x) != d:
        raise DataFormatError("expected %d attribute values, got %d" % (d, len(x)))
    columns = []
    for attr, a in enumerate(tree.schema.attributes):
        value = x[attr]
        try:
            if isinstance(value, (bool, np.bool_)):
                raise TypeError
            number = float(value)
        except (TypeError, ValueError):
            raise DataFormatError(
                "value %r of attribute index %d is not a number" % (value, attr)
            ) from None
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise DataFormatError("value %r of attribute index %d is not finite" % (value, attr))
        if a.kind == DISCRETE:
            if not number.is_integer():
                raise DataFormatError(
                    "value %r of attribute index %d is not a whole number" % (value, attr)
                )
            if not 1 <= number <= a.domain_size:
                raise DataFormatError(
                    "value %r of attribute index %d outside 1..%d" % (value, attr, a.domain_size)
                )
            number = int(number)
        columns.append(np.array([number]))
    return int(route(tree, columns)[0])


def training_accuracy(tree, data):
    return np.count_nonzero(route(tree, data.columns) == data.labels) / data.n_rows


def tree_height(node):
    """Edges on the longest root-to-leaf path, walked without recursion."""
    height = 0
    stack = [(node, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Leaf):
            height = max(height, depth)
        else:
            stack.extend((child, depth + 1) for child in node.children)
    return height


def _node_document(node):
    if isinstance(node, Leaf):
        return {"kind": "leaf", "class": node.class_index, "support": node.support}
    doc = {"kind": "internal", "attr": node.test.attr}
    if node.test.kind == REAL:
        doc["theta"] = node.test.theta
    else:
        doc["branch_count"] = node.test.branch_count
    doc["support"] = node.support
    doc["children"] = [_node_document(child) for child in node.children]
    return doc


def tree_to_document(tree):
    """Plain-data form of a tree, stable field order, ready for emission.

    Attribute indices in the document are 0-based positions in the schema's
    attribute list; class indices are the 1-based internal ones, with
    class_label_mapping[c-1] giving the original label string. Each node's
    support is the node's own count tuple, not a copy; it emits as a JSON
    array.
    """
    attrs = []
    for a in tree.schema.attributes:
        entry = {"name": a.name, "kind": a.kind}
        if a.kind == DISCRETE:
            entry["domain_size"] = a.domain_size
        attrs.append(entry)
    return {
        "schema": {"class_count": tree.schema.class_count, "attributes": attrs},
        "class_label_mapping": list(tree.class_labels),
        "root": _node_document(tree.root),
    }


def _typed(value, types, field):
    """value itself if its type is one of types, else DataFormatError."""
    if type(value) not in types:
        raise DataFormatError("model field %s has the wrong type: %r" % (field, value))
    return value


def _node_from_document(doc, schema):
    """Rebuilds one node, checking it against the schema so that a loaded
    tree can route every in-domain row to a leaf class in 1..M.

    Integer fields must be JSON integers and a threshold a JSON number;
    the checks use type(), not isinstance, so that a JSON true or false is
    rejected, and run inline because every node of a model passes them.
    """
    m = schema.class_count
    support = doc["support"]
    if len(support) != m:
        raise DataFormatError("node support has %d entries for %d classes" % (len(support), m))
    if countOf(map(type, support), int) != m or min(support) < 0:
        raise DataFormatError("node support entries must be non-negative integers")
    support = tuple(support)
    if doc["kind"] == "leaf":
        class_index = doc["class"]
        if type(class_index) is not int or not 1 <= class_index <= m:
            raise DataFormatError("leaf class %r is not an integer in 1..%d" % (class_index, m))
        return Leaf(class_index, support)
    if doc["kind"] != "internal":
        raise DataFormatError("unknown node kind %r" % (doc.get("kind"),))
    attr = doc["attr"]
    if type(attr) is not int or not 0 <= attr < schema.attribute_count:
        raise DataFormatError(
            "node attribute %r is not an integer in 0..%d" % (attr, schema.attribute_count - 1)
        )
    if schema.is_real(attr) != ("theta" in doc):
        raise DataFormatError(
            "node test does not match the kind of attribute %d (%s)"
            % (attr, schema.attributes[attr].kind)
        )
    if "theta" in doc:
        theta = doc["theta"]
        if type(theta) not in (int, float) or not math.isfinite(theta):
            raise DataFormatError("node threshold %r is not a finite number" % (theta,))
        test = SplitTest(attr, REAL, theta=float(theta))
        arity = 2
    else:
        arity = doc["branch_count"]
        if type(arity) is not int or arity != schema.domain_size(attr):
            raise DataFormatError(
                "node branch count %r is not the domain size %d of attribute %d"
                % (arity, schema.domain_size(attr), attr)
            )
        test = SplitTest(attr, DISCRETE, branch_count=arity)
    if len(doc["children"]) != arity:
        raise DataFormatError(
            "node on attribute %d has %d children, expected %d"
            % (attr, len(doc["children"]), arity)
        )
    children = [_node_from_document(child, schema) for child in doc["children"]]
    return Internal(test, children, support)


def document_to_tree(doc):
    """Rebuilds a tree from its plain-data form.

    A document that is not a model over its own schema raises
    DataFormatError, also when a field is missing or of the wrong JSON type;
    a schema that `Attribute` or `AttributeSchema` rejects raises their
    ValueError.
    """
    try:
        attrs = [
            Attribute(
                _typed(entry["name"], (str,), "name"),
                _typed(entry["kind"], (str,), "kind"),
                _typed(entry.get("domain_size"), (int, type(None)), "domain_size"),
            )
            for entry in doc["schema"]["attributes"]
        ]
        schema = AttributeSchema(
            tuple(attrs), _typed(doc["schema"]["class_count"], (int,), "class_count")
        )
        class_labels = tuple(_typed(doc["class_label_mapping"], (list,), "class_label_mapping"))
        if len(class_labels) != schema.class_count:
            raise DataFormatError(
                "%d class labels for %d classes" % (len(class_labels), schema.class_count)
            )
        if countOf(map(type, class_labels), str) != len(class_labels):
            raise DataFormatError("class labels must be strings")
        root = _node_from_document(doc["root"], schema)
    except (AttributeError, KeyError, OverflowError, TypeError) as exc:
        raise DataFormatError(
            "malformed model document (%s: %s)" % (type(exc).__name__, exc)
        ) from None
    return DecisionTree(root, schema, class_labels, BuildStats())


def serialize_model(tree):
    return jsonio.dumps(tree_to_document(tree)) + "\n"


def write_atomically(path, text):
    """Writes text to a temporary file in path's directory and renames it
    into place, so a write that fails leaves no partial file at path; an
    OSError names path rather than the temporary file."""
    head, tail = os.path.split(os.fspath(path))
    partial = os.path.join(head, ".%s.%d.tmp" % (tail, os.getpid()))
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(partial, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        if isinstance(exc, OSError):
            raise OSError("cannot write %s: %s" % (path, exc.strerror)) from None
        raise


def save_model(tree, path):
    write_atomically(path, serialize_model(tree))


def load_model(path):
    """Reads a model file; a document nested past the interpreter's
    recursion limit raises DataFormatError like any other malformed one."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return document_to_tree(jsonio.loads(text))
    except RecursionError:
        raise DataFormatError("model document nested too deeply") from None


def format_tree(tree):
    """Indented text rendering, one branch condition per line."""
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
