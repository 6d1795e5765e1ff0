"""Decision-tree construction.

`grow` is the one growth loop: partitioning in `form_tree` steps on an
explicit queue, each asking a split chooser for one node's test. The
classical chooser scores every attribute with the split scanners and takes
the gain-ratio argmax; the quantum builder passes one that searches instead.
Classical builds grow level by level, so that each level's discrete
attributes can be scored by one batched kernel (`splitscan.LevelBatch`)
before its first node is stepped; quantum builds grow in preorder, because
their searches draw from one rng in the order the steps run. A node's
result does not depend on the order, so both give the trees, counts and
ledgers a preorder build gives. Two interchangeable counter backends (dense
arrays, sparse ordered maps) feed the scanners, giving byte-identical trees
that differ only in operation tallies.
"""

import contextlib
import io
import math
import os
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
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
    is_integer,
    partition,
)
from .splitscan import SplitTest, batch_level, process_attribute

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
        if not is_integer(self.max_height) or self.max_height < 0:
            raise ValueError("max_height must be an integer >= 0, got %r" % (self.max_height,))
        if not is_integer(self.min_split) or self.min_split < 2:
            raise ValueError("min_split must be an integer >= 2, got %r" % (self.min_split,))
        if self.backend not in BACKENDS:
            raise ValueError("backend must be one of %s" % (", ".join(BACKENDS),))
        if self.backend == QUANTUM and self.seed is None:
            raise ValueError("the quantum backend needs an explicit seed")
        if self.seed is not None and not is_integer(self.seed):
            raise ValueError("seed must be an integer, got %r" % (self.seed,))
        if not isinstance(self.verify, bool):
            raise ValueError("verify must be a bool, got %r" % (self.verify,))


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


def score_attributes(view, backend, stats=None, batch=None):
    """One scoring pass per attribute of a view: [(SplitScore, SplitTest)]
    for attributes 0..d-1, with (INVALID_SPLIT, None) for an attribute that
    has no candidate split. Both choosers read this list, and it is the only
    place where stats.evaluations grows. batch is the view's LevelBatch, if
    its level was batched."""
    d = view.base.schema.attribute_count
    if stats is not None:
        stats.evaluations += d
    return [
        process_attribute(view, attr, backend, batch) or (INVALID_SPLIT, None)
        for attr in range(d)
    ]


def first_best(ratios):
    """Index of the first greatest ratio, or None when every ratio is -inf
    (no valid split). This is the one tie rule: the classical argmax and the
    verified optimum both pick with it."""
    best = max(range(len(ratios)), key=ratios.__getitem__)
    return None if ratios[best] == -math.inf else best


def choose_split(view, backend, stats=None, batch=None):
    """Gain-ratio argmax over all attributes of a view.

    Returns (attr, SplitTest, SplitScore) or None when no attribute admits a
    valid candidate. Ties keep the lowest attribute index; threshold ties
    within an attribute were already resolved toward the lowest threshold.
    """
    results = score_attributes(view, backend, stats, batch)
    attr = first_best([score.ratio for score, _ in results])
    return None if attr is None else (attr, results[attr][1], results[attr][0])


def form_tree(view, level, config, stats, choose):
    """One growth step: view's node (a leaf on purity, height, size, or no
    split found) and the (slot, child view) pairs still to grow into its
    children, in branch order. choose(view) returns the node's SplitTest or
    None. A branch no training sample takes becomes a leaf labeled with the
    parent majority; its recorded support is the parent distribution the
    label came from.
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
        return Leaf(majority, support), ()
    stats.internal_nodes += 1
    parts = partition(view, test)
    todo = [(slot, part) for slot, part in enumerate(parts) if len(part)]
    stats.leaves += len(parts) - len(todo)
    children = [None if len(part) else Leaf(majority, support) for part in parts]
    return Internal(test, children, support), todo


def grow(view, config, stats, choose):
    """Grows the tree under view in form_tree steps on an explicit queue,
    queueing each node's children in branch order.

    A chooser with a start_level(views, level) hook grows in level order:
    the queue is popped first in, first out, and when the first view of a
    level is popped the queue holds exactly that level, which the hook gets
    before any of it is stepped. Any other chooser grows in preorder, with
    the queue popped last in, first out.
    """
    start_level = getattr(choose, "start_level", None)
    preorder = start_level is None
    top = [None]
    queue = deque([(top, 0, view, 0)])
    pop = queue.pop if preorder else queue.popleft
    level = -1
    while queue:
        if not preorder and queue[0][3] > level:
            level = queue[0][3]
            start_level([entry[2] for entry in queue], level)
        siblings, slot, part, depth = pop()
        node, todo = form_tree(part, depth, config, stats, choose)
        siblings[slot] = node
        queue.extend(
            (node.children, i, child, depth + 1)
            for i, child in (reversed(todo) if preorder else todo)
        )
    return top[0]


class _ArgmaxChooser:
    """The classical chooser: the SplitTest of choose_split on a view.

    grow hands it each level before stepping it, and the views of the
    level that form_tree may split are scored in one batch when
    splitscan.batch_level finds that worth it; a level it was never handed
    is scored view by view.
    """

    def __init__(self, config, backend, stats):
        self.config = config
        self.backend = backend
        self.stats = stats
        self.batch = None

    def start_level(self, views, level):
        self.batch = None
        if level < self.config.max_height:
            min_split = self.config.min_split
            self.batch = batch_level([view for view in views if len(view) >= min_split])

    def __call__(self, view):
        choice = choose_split(view, self.backend, self.stats, self.batch)
        return None if choice is None else choice[1]


def train(data, config=None):
    """Grows a DecisionTree over the full dataset, level by level.

    Baseline and treemap backends produce identical trees; quantum builds
    live in the sibling module of this one.
    """
    config = config if config is not None else BuildConfig()
    if config.backend == QUANTUM:
        raise ValueError("use the quantum builder for quantum-searched trees")
    stats = BuildStats()
    backend = make_backend(config.backend, stats.tally)
    root = grow(data.full_view(), config, stats, _ArgmaxChooser(config, backend, stats))
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


def tree_to_document(tree):
    """Plain-data form of a tree: the parse of its model text.

    Attribute indices in the document are 0-based positions in the schema's
    attribute list; class indices are the 1-based internal ones, with
    class_label_mapping[c-1] giving the original label string.
    """
    return jsonio.loads(serialize_model(tree))


# characters the model writer gathers before each write to its file
_CHUNK = 1 << 16


def _node_layouts(dep):
    """Text of one node written at JSON depth dep, fields in document
    order: the leaf template, the real and discrete internal heads (each
    ending where the first child starts), the separator between support
    entries or children, and the closing text of an internal node."""
    p0, p1, p2 = (" " * (jsonio.INDENT * k) for k in (dep, dep + 1, dep + 2))
    support = p1 + '"support": [\n' + p2 + "%s\n" + p1 + "]"

    def head(test_field):
        return (
            "{\n" + p1 + '"kind": "internal",\n' + p1 + '"attr": %d,\n'
            + p1 + '"' + test_field + '": %s,\n' + support + ",\n"
            + p1 + '"children": [\n' + p2
        )

    return (
        "{\n" + p1 + '"kind": "leaf",\n' + p1 + '"class": %d,\n' + support + "\n" + p0 + "}",
        head("theta"),
        head("branch_count"),
        ",\n" + p2,
        "\n" + p1 + "]\n" + p0 + "}",
    )


def _write_model(tree, fh):
    """Writes the model text of tree to the text file fh, in chunks of about
    _CHUNK characters, walking the tree in preorder on an explicit stack.

    This is the one statement of the node layout. The header goes through
    jsonio.dumps; each node is written at two JSON levels below its parent,
    followed by the separator before its next sibling. A stack entry is
    (node, depth, text after it), or (None, 0, text) for the closing text
    of an internal node, pushed beneath its children.
    """
    attrs = []
    for a in tree.schema.attributes:
        entry = {"name": a.name, "kind": a.kind}
        if a.kind == DISCRETE:
            entry["domain_size"] = a.domain_size
        attrs.append(entry)
    header = jsonio.dumps(
        {
            "schema": {"class_count": tree.schema.class_count, "attributes": attrs},
            "class_label_mapping": list(tree.class_labels),
        }
    )
    # the header object without its closing "\n}", then the root field
    out = [header[:-2], ',\n%s"root": ' % (" " * jsonio.INDENT,)]
    size = 0
    layouts = []
    stack = [(tree.root, 1, "\n}\n")]
    while stack:
        node, dep, after = stack.pop()
        if node is None:
            piece = after
        else:
            while len(layouts) <= dep:
                layouts.append(_node_layouts(len(layouts)))
            leaf, real, discrete, sep, close = layouts[dep]
            support = sep.join(map(str, node.support))
            if isinstance(node, Leaf):
                piece = leaf % (node.class_index, support) + after
            else:
                test = node.test
                if test.kind == REAL:
                    piece = real % (test.attr, jsonio.format_float(test.theta), support)
                else:
                    piece = discrete % (test.attr, test.branch_count, support)
                children = node.children
                stack.append((None, 0, close + after))
                stack.append((children[-1], dep + 2, ""))
                stack.extend((child, dep + 2, sep) for child in reversed(children[:-1]))
        out.append(piece)
        size += len(piece)
        if size >= _CHUNK:
            fh.write("".join(out))
            out.clear()
            size = 0
    fh.write("".join(out))


def _typed(value, types, field):
    """value itself if its type is one of types, else DataFormatError."""
    if type(value) not in types:
        raise DataFormatError("model field %s has the wrong type: %r" % (field, value))
    return value


def _node_from_document(doc, schema):
    """Rebuilds a tree from its root document in preorder, on an explicit
    stack, checking each node against the schema so that a loaded tree can
    route every in-domain row to a leaf class in 1..M.

    Integer fields must be JSON integers and a threshold a JSON number;
    the checks use type(), not isinstance, so that a JSON true or false is
    rejected, and run inline because every node of a model passes them.
    """
    m = schema.class_count
    top = []
    stack = [(doc, top)]
    while stack:
        doc, siblings = stack.pop()
        support = doc["support"]
        if len(support) != m:
            raise DataFormatError(
                "node support has %d entries for %d classes" % (len(support), m)
            )
        if countOf(map(type, support), int) != m or min(support) < 0:
            raise DataFormatError("node support entries must be non-negative integers")
        support = tuple(support)
        if doc["kind"] == "leaf":
            class_index = doc["class"]
            if type(class_index) is not int or not 1 <= class_index <= m:
                raise DataFormatError(
                    "leaf class %r is not an integer in 1..%d" % (class_index, m)
                )
            siblings.append(Leaf(class_index, support))
            continue
        if doc["kind"] != "internal":
            raise DataFormatError("unknown node kind %r" % (doc.get("kind"),))
        attr = doc["attr"]
        if type(attr) is not int or not 0 <= attr < schema.attribute_count:
            raise DataFormatError(
                "node attribute %r is not an integer in 0..%d"
                % (attr, schema.attribute_count - 1)
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
        children = doc["children"]
        if len(children) != arity:
            raise DataFormatError(
                "node on attribute %d has %d children, expected %d"
                % (attr, len(children), arity)
            )
        node = Internal(test, [], support)
        siblings.append(node)
        # children are popped, and so appended, in document order
        stack.extend(zip(reversed(children), repeat(node.children)))
    return top[0]


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
    """The model text of tree, as save_model writes it."""
    buffer = io.StringIO()
    _write_model(tree, buffer)
    return buffer.getvalue()


@contextlib.contextmanager
def write_atomically(path):
    """Yields a text file in path's directory and renames it into place when
    the block ends, so a write that fails, even halfway, leaves no partial
    file at path; an OSError names path rather than the temporary file."""
    head, tail = os.path.split(os.fspath(path))
    partial = os.path.join(head, ".%s.%d.tmp" % (tail, os.getpid()))
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        if isinstance(exc, OSError):
            raise OSError("cannot write %s: %s" % (path, exc.strerror)) from None
        raise


def save_model(tree, path):
    """Streams the model text of tree into path."""
    with write_atomically(path) as fh:
        _write_model(tree, fh)


def load_model(path):
    """Reads a model file of any depth; a document whose checks still
    exceed the interpreter's recursion limit raises DataFormatError like
    any other malformed one."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return document_to_tree(jsonio.loads(text))
    except RecursionError:
        raise DataFormatError("model document nested too deeply") from None


def format_tree(tree):
    """Indented text rendering, one branch condition per line, written in
    preorder from an explicit stack."""
    names = [a.name for a in tree.schema.attributes]
    labels = tree.class_labels

    def leaf_text(node):
        return "=> %s  (n=%d)" % (labels[node.class_index - 1], sum(node.support))

    if isinstance(tree.root, Leaf):
        return leaf_text(tree.root)
    lines = []
    # an entry is a finished line or a (subtree, pad) still to render
    stack = [(tree.root, "")]
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            lines.append(entry)
            continue
        node, pad = entry
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
        for condition, child in reversed(list(zip(conditions, node.children))):
            if isinstance(child, Leaf):
                stack.append("%s%s %s" % (pad, condition, leaf_text(child)))
            else:
                stack.append((child, pad + "    "))
                stack.append(pad + condition + ":")
    return "\n".join(lines)
