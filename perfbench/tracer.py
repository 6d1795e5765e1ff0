"""In-memory span recording around qdtree's public functions.

The wrappers live here, not in the package: installing them rebinds each
traced function in every qdtree module that holds a reference to it, because
`builder`, `qbuilder` and `cli` bind names such as `partition`,
`process_attribute` and `load_csv` at import time, and patching only the
defining module would miss those copies. Recursive functions (`form_tree`,
`q_form_tree`) look themselves up as module globals, so every level of the
recursion is recorded. `restore()` puts every original back.

Hot per-element helpers (`criteria`, `counters`, `jsonio.format_float`) are
left unwrapped on purpose: a span per counter update would cost more than
the work it measures. Their time lands in the self time of the wrapped
caller, and their work is read from the exact `OpTally` counts instead.
"""

import importlib
import json
import sys
import time

# (module, function) pairs that get a span in traced mode.
TRACED = {
    "dataset": ("load_csv", "load_feature_rows", "partition"),
    "splitscan": (
        "process_attribute",
        "scan_real_attribute",
        "real_split_candidates",
        "build_real_scan",
        "process_discrete_attribute",
    ),
    "builder": (
        "train",
        "form_tree",
        "choose_split",
        "classify",
        "training_accuracy",
        "save_model",
        "serialize_model",
        "tree_to_document",
        "load_model",
        "document_to_tree",
    ),
    "qsearch": ("repeated_max",),
    "qbuilder": (
        "q_train",
        "q_form_tree",
        "q_choose_split",
        "save_report",
        "serialize_report",
        "report_to_document",
    ),
    "jsonio": ("dumps", "loads"),
    "cli": ("main", "cmd_train", "cmd_predict"),
}

# Functions whose results feed the exact ledgers; hooked in both modes.
CAPTURED = {"builder": ("train",), "qbuilder": ("q_train",), "qsearch": ("repeated_max",)}


class Ledger:
    """Counts taken from the program's own return values during one call."""

    def __init__(self):
        self.tree = None
        self.report = None
        self.searches = 0
        self.search_queries = 0
        self.grover_iterations = 0
        self.rows_scanned = 0

    def on_result(self, name, result):
        if name == "builder.train":
            self.tree = result
        elif name == "qbuilder.q_train":
            self.report = result
            self.tree = result.tree
        elif name == "qsearch.repeated_max":
            stats = result[1]
            self.searches += 1
            self.search_queries += stats.oracle_queries
            self.grover_iterations += stats.grover_iterations


class Recorder:
    """Spans of one call: parallel lists indexed by span id.

    parents[i] is the id of the innermost span open when span i started,
    or -1 for a root.
    """

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.stack = [-1]


class Tracer:
    """Installs wrappers; `spans=False` installs only the ledger hooks."""

    def __init__(self, spans):
        self.spans = spans
        self.ledger = Ledger()
        self.recorder = Recorder()
        self._saved = []

    def reset(self):
        self.ledger = Ledger()
        self.recorder = Recorder()

    def _wrap(self, mod_name, fn_name, fn):
        tracer = self
        name = "%s.%s" % (mod_name, fn_name)
        capture = fn_name in CAPTURED.get(mod_name, ())
        rows = name == "splitscan.process_attribute"
        perf_counter = time.perf_counter

        if not self.spans:
            def hooked(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer.ledger.on_result(name, result)
                return result

            return hooked

        def traced(*args, **kwargs):
            rec = tracer.recorder
            sid = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec.stack[-1])
            rec.ends.append(0.0)
            rec.stack.append(sid)
            if rows:
                tracer.ledger.rows_scanned += len(args[0])
            rec.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[sid] = perf_counter()
                rec.stack.pop()
            if capture:
                tracer.ledger.on_result(name, result)
            return result

        return traced

    def install(self):
        table = TRACED if self.spans else CAPTURED
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "qdtree" or key.startswith("qdtree."))
        ]
        for mod_name, fns in table.items():
            home = importlib.import_module("qdtree." + mod_name)
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(mod_name, fn_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


GROWTH = ("builder.form_tree", "qbuilder.q_form_tree")
CHOOSERS = ("builder.choose_split", "qbuilder.q_choose_split")


def self_times(rec):
    """Per-function self time: span duration minus its direct children's."""
    child = [0.0] * len(rec.names)
    for sid, parent in enumerate(rec.parents):
        if parent >= 0:
            child[parent] += rec.ends[sid] - rec.starts[sid]
    out = {}
    for sid, name in enumerate(rec.names):
        out[name] = out.get(name, 0.0) + (rec.ends[sid] - rec.starts[sid] - child[sid])
    return out


def node_times(rec):
    """Wall time of each split attempt, in seconds.

    A node's time is its growth span minus the growth spans of its children,
    so it covers the node's histogram, split choice and partition; leaves
    that never reached a split choice are left out.
    """
    nested = [0.0] * len(rec.names)
    chose = [False] * len(rec.names)
    for sid, parent in enumerate(rec.parents):
        if parent < 0:
            continue
        name = rec.names[sid]
        if name in GROWTH:
            nested[parent] += rec.ends[sid] - rec.starts[sid]
        elif name in CHOOSERS:
            chose[parent] = True
    return [
        rec.ends[sid] - rec.starts[sid] - nested[sid]
        for sid, name in enumerate(rec.names)
        if name in GROWTH and chose[sid]
    ]


def count(rec, name):
    return sum(1 for n in rec.names if n == name)


def dump(rec, path, origin):
    """Writes spans as [name, start_ns, end_ns, parent] rows."""
    rows = [
        [name, int((start - origin) * 1e9), int((end - origin) * 1e9), parent]
        for name, start, end, parent in zip(rec.names, rec.starts, rec.ends, rec.parents)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["name", "start_ns", "end_ns", "parent"], "spans": rows}, fh)
