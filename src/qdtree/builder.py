"""Decision-tree construction.

`grow` is the one growth loop: partitioning in `form_tree` steps on an
explicit queue, each asking a split chooser for one node's test. The
classical chooser scores every attribute with the split scanners and takes
the gain-ratio argmax; the quantum builder passes one that searches instead.
Classical builds grow level by level, so that each level's discrete
attributes can be scored and booked by one batched kernel
(`splitscan.LevelBatch`) before its first node is stepped; quantum builds
grow in preorder, because their searches draw from one rng in the order
the steps run. A node's result does not depend on the order, so both give
the trees, counts and ledgers a preorder build gives. Two interchangeable
counter backends (dense arrays, sparse ordered maps) feed the scanners,
giving byte-identical trees that differ only in operation tallies.
"""

import contextlib
import io
import json
import math
import os
from collections import deque
from dataclasses import dataclass, field
from itertools import compress, repeat
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
    check_class_labels,
    checked_values,
    is_integer,
    is_vector,
    partition,
)
from .splitscan import SplitTest, batch_level, discrete_scores, process_attribute

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
    place where stats.evaluations grows. The view's discrete scores are read
    from batch, its level's LevelBatch, when that holds the view, or else
    from one splitscan.discrete_scores pass made here."""
    d = view.base.schema.attribute_count
    if stats is not None:
        stats.evaluations += d
    scores = None if batch is None else batch.scores(view)
    if scores is None:
        scores = discrete_scores(view, backend)
    return [
        process_attribute(view, attr, backend, scores) or (INVALID_SPLIT, None)
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


def support_of(view):
    """The view's M class counts, class 1 first."""
    m = view.base.schema.class_count
    return tuple(np.bincount(view.labels(), minlength=m + 1)[1:].tolist())


def splits(view, support, level, config):
    """The stopping rule, tested once per node before any attribute is
    scored: a view is split only if it holds two classes or more, sits
    above level max_height and has at least min_split rows."""
    classes = len(support) - support.count(0)
    return classes > 1 and level < config.max_height and len(view) >= config.min_split


def form_tree(view, support, level, config, stats, choose):
    """One growth step: view's node (a leaf where splits says stop or no
    split is found) and the (slot, child view, child support) triples
    still to grow into its children, in branch order. choose(view) returns
    the node's SplitTest or None. A branch no training sample takes becomes
    a leaf labeled with the parent majority; its recorded support is the
    parent distribution the label came from.
    """
    # the lowest class wins a tie
    majority = support.index(max(support)) + 1
    test = None
    if splits(view, support, level, config):
        stats.tally.level = level
        test = choose(view)
    if test is None:
        stats.leaves += 1
        return Leaf(majority, support), ()
    stats.internal_nodes += 1
    parts = partition(view, test)
    todo = [(slot, part, support_of(part)) for slot, part in enumerate(parts) if len(part)]
    stats.leaves += len(parts) - len(todo)
    children = [None if len(part) else Leaf(majority, support) for part in parts]
    return Internal(test, children, support), todo


def grow(view, config, stats, choose):
    """Grows the tree under view in form_tree steps on an explicit queue,
    queueing each node's children in branch order with their supports.

    A chooser with a start_level(views, level) hook grows in level order:
    the queue is popped first in, first out, and when the first view of a
    level is popped the queue holds exactly that level; the hook gets the
    views of it that splits passes before any of it is stepped. Any other
    chooser grows in preorder, with the queue popped last in, first out.
    """
    start_level = getattr(choose, "start_level", None)
    preorder = start_level is None
    top = [None]
    queue = deque([(top, 0, view, support_of(view), 0)])
    pop = queue.pop if preorder else queue.popleft
    level = -1
    while queue:
        if not preorder and queue[0][4] > level:
            level = queue[0][4]
            start_level([v for _, _, v, s, _ in queue if splits(v, s, level, config)], level)
        siblings, slot, part, support, depth = pop()
        node, todo = form_tree(part, support, depth, config, stats, choose)
        siblings[slot] = node
        for entry in reversed(todo) if preorder else todo:
            queue.append((node.children, *entry, depth + 1))
    return top[0]


class _ArgmaxChooser:
    """The classical chooser: the SplitTest of choose_split on a view.

    grow hands it the views of each level that form_tree will ask it to
    split, before stepping the level, and they are scored in one batch
    when splitscan.batch_level finds that worth it; the batch books their
    discrete scans at the level as it is made, and score_attributes reads
    each view's score table from it. A view no batch holds, as on a level
    it was never handed, is scored by its own discrete_scores pass.
    """

    def __init__(self, backend, stats):
        self.backend = backend
        self.stats = stats
        self.batch = None

    def start_level(self, views, level):
        self.stats.tally.level = level
        self.batch = batch_level(views, self.backend)

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
    root = grow(data.full_view(), config, stats, _ArgmaxChooser(backend, stats))
    return DecisionTree(root, data.schema, data.class_labels, stats)


def route(tree, columns):
    """Leaf class index of every row, given one value array per attribute.

    The nodes go breadth-first into arrays, a node's children side by side,
    and each pass moves every row in play one level down by whole-array ops,
    under the rule of `branch_masks`: to its node's base plus x > theta at a
    real test, or plus x at a discrete test, whose base is one below its
    first child. A leaf is its own base, with theta inf; rows at leaves are
    dropped once they are half of those in play. Discrete values must lie
    in their domains, as the reader, Dataset and load_model ensure.
    """
    nodes, table = [tree.root], []
    # the loop reads nodes as it extends them, so it visits them breadth-first
    for node in nodes:
        if isinstance(node, Leaf):
            table.append((0, math.inf, len(table), node.class_index))
        else:
            test = node.test
            table.append((test.attr, test.theta, len(nodes) - (test.kind == DISCRETE), 0))
            nodes.extend(node.children)
    # a discrete test's theta, None, becomes NaN
    attrs, thetas, bases, leaf_classes = map(np.array, zip(*table), (int, float, int, int))
    n = len(columns[0])
    values = np.stack(columns).astype(np.float64, copy=False).ravel()
    offsets, discrete = attrs * n, np.isnan(thetas)
    rows, at, leaves = np.arange(n), np.zeros(n, np.int64), np.zeros(n, np.int64)
    while len(rows):
        x = values[offsets[at] + rows]
        after = bases[at] + np.where(discrete[at], x, x > thetas[at]).astype(np.int64)
        moved = after != at
        if 2 * np.count_nonzero(moved) <= len(rows):
            leaves[rows] = after
            rows, after = rows[moved], after[moved]
        at = after
    return leaf_classes[leaves]


def classify(tree, x):
    """Routes one attribute vector (see dataset.is_vector) of exactly d
    values. The values are held to dataset.checked_values, the real ones in
    one call and the discrete ones in another, so a value that Dataset
    would refuse in its attribute's column raises DataFormatError with
    Dataset's message, for the first such attribute in schema order."""
    attributes = tree.schema.attributes
    d = len(attributes)
    if not is_vector(x):
        raise DataFormatError(
            "expected a sequence of %d attribute values, got %s" % (d, type(x).__name__)
        )
    if len(x) != d:
        raise DataFormatError("expected %d attribute values, got %d" % (d, len(x)))
    values = np.fromiter(x, object, d)
    reals = [j for j, a in enumerate(attributes) if a.kind == REAL]
    discrete = [j for j, a in enumerate(attributes) if a.kind == DISCRETE]
    numbers = np.empty(d, object)
    try:
        for at, high in ((reals, None), (discrete, [attributes[j].domain_size for j in discrete])):
            if at:
                numbers[at] = checked_values(values[at], high, "values").tolist()
    except DataFormatError:
        for j, a in enumerate(attributes):
            what = "attribute %r holds values" % (a.name,)
            checked_values(values[j : j + 1], a.domain_size, what)
        raise
    node = tree.root
    while isinstance(node, Internal):
        number = numbers[node.test.attr]
        node = node.children[number > node.test.theta if node.test.kind == REAL else number - 1]
    return node.class_index


def training_accuracy(tree, data):
    return np.count_nonzero(route(tree, data.columns) == data.labels) / data.n_rows


def tree_height(node):
    """Edges on the longest root-to-leaf path, walked one level at a time
    without recursion: the height is the number of levels below the root."""
    height = -1
    level = [node]
    while level:
        height += 1
        level = [child for n in level if isinstance(n, Internal) for child in n.children]
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
    order, cut where its support entries go: the leaf head and the real
    and discrete internal heads (each ending where the first entry
    starts), the separator between support entries or children, the text
    from an internal node's last entry to its first child, and the
    closing text of a node, which also ends a leaf's support."""
    p0, p1, p2 = (" " * (jsonio.INDENT * k) for k in (dep, dep + 1, dep + 2))
    support = p1 + '"support": [\n' + p2

    def head(test_field):
        return (
            "{\n" + p1 + '"kind": "internal",\n' + p1 + '"attr": %d,\n'
            + p1 + '"' + test_field + '": %s,\n' + support
        )

    return (
        "{\n" + p1 + '"kind": "leaf",\n' + p1 + '"class": %d,\n' + support,
        head("theta"),
        head("branch_count"),
        ",\n" + p2,
        "\n" + p1 + "],\n" + p1 + '"children": [\n' + p2,
        "\n" + p1 + "]\n" + p0 + "}",
    )


class _Numerals(dict):
    """The decimal text of each count, formatted on first use."""

    def __missing__(self, count):
        text = self[count] = str(count)
        return text


def _write_model(tree, fh):
    """Writes the model text of tree to the text file fh, in chunks of about
    _CHUNK characters, walking the tree in preorder on an explicit stack.

    This is the one statement of the node layout. The header's schema goes
    through jsonio.dumps and its class labels one at a time through
    json.dumps; each node is written at two JSON levels below its parent,
    followed by the separator before its next sibling. A stack entry is
    (node, depth, text after it), or (None, 0, text) for the closing text
    of an internal node, pushed beneath its children.

    A support is written from its non-zero counts: on a bushy tree most of
    the M counts of most nodes are 0. Each run of k zeros is one repeated
    string, and each non-zero count goes through one numeral table per
    write, so a distinct count is formatted once. The table holds only the
    counts written, however large.
    """
    attrs = []
    for a in tree.schema.attributes:
        entry = {"name": a.name, "kind": a.kind}
        if a.kind == DISCRETE:
            entry["domain_size"] = a.domain_size
        attrs.append(entry)
    # the header object without its closing "\n}": the M class labels
    # follow the schema in the layout jsonio.dumps gives a list, each one
    # through the C string encoder of json.dumps, and go out in chunks like
    # the nodes, so that the header costs about a chunk, not O(M)
    p1, p2 = (" " * (jsonio.INDENT * k) for k in (1, 2))
    out = [
        jsonio.dumps(
            {"schema": {"class_count": tree.schema.class_count, "attributes": attrs}}
        )[:-2],
        ",\n%s\"class_label_mapping\": [" % (p1,),
    ]
    append = out.append
    size = len(out[0]) + len(out[1])
    sep, comma = "\n" + p2, ",\n" + p2
    for label in tree.class_labels:
        text = json.dumps(label)
        append(sep)
        append(text)
        size += len(sep) + len(text)
        sep = comma
        if size >= _CHUNK:
            fh.write("".join(out))
            out.clear()
            size = 0
    append("\n%s],\n%s\"root\": " % (p1, p1))
    size += len(out[-1])
    layouts = []
    numeral = _Numerals().__getitem__
    m = tree.schema.class_count
    stack = [(tree.root, 1, "\n}\n")]
    while stack:
        node, dep, after = stack.pop()
        if node is None:
            append(after)
            size += len(after)
        else:
            while len(layouts) <= dep:
                layouts.append(_node_layouts(len(layouts)))
            leaf, real, discrete, sep, middle, close = layouts[dep]
            if isinstance(node, Leaf):
                head = leaf % node.class_index
                tail = close + after
            else:
                test = node.test
                if test.kind == REAL:
                    head = real % (test.attr, jsonio.format_float(test.theta))
                else:
                    head = discrete % (test.attr, test.branch_count)
                tail = middle
                children = node.children
                stack.append((None, 0, close + after))
                stack.append((children[-1], dep + 2, ""))
                stack.extend((child, dep + 2, sep) for child in reversed(children[:-1]))
            append(head)
            # the node's text, counting each support entry as one digit
            size += len(head) + len(tail) + (m - 1) * len(sep) + m
            # entries before `start` are written, each followed by sep,
            # which the last entry drops
            support = node.support
            zero, start = "0" + sep, 0
            for i in compress(range(m), support):
                if i > start:
                    append(zero * (i - start))
                text = numeral(support[i])
                append(text)
                append(sep)
                size += len(text) - 1
                start = i + 1
            if start < m:
                append(zero * (m - 1 - start))
                append("0")
            else:
                out.pop()  # the separator after entry m - 1
            append(tail)
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
        class_labels = check_class_labels(
            _typed(doc["class_label_mapping"], (list,), "class_label_mapping"), schema.class_count
        )
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
    """Reads a model file of any depth. Every refusal is a DataFormatError
    that names the file: a byte that is not UTF-8 gives the file's own
    offset, text that is not JSON gives JSON's message and position, and a
    document that is not a model, or whose checks still exceed the
    interpreter's recursion limit, gives the check's message. The file's
    bytes are decoded once and dropped before the parse."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        return document_to_tree(jsonio.loads(text))
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            "%s is not UTF-8 text: %s at byte %d" % (path, exc.reason, exc.start)
        ) from None
    except json.JSONDecodeError as exc:
        raise DataFormatError("%s is not a JSON document: %s" % (path, exc)) from None
    except RecursionError:
        raise DataFormatError("%s: model document nested too deeply" % (path,)) from None
    except ValueError as exc:  # after its subclasses above
        raise DataFormatError("%s: %s" % (path, exc)) from None


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
