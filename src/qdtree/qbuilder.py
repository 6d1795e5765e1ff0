"""Tree growth with quantum-searched split selection.

Growth is `builder.grow`, one `form_tree` step per node; this module
supplies the search chooser and the per-node report. The chooser has no
level hook, so the nodes grow in preorder, the order in which the searches
draw from the build's one rng (classical builds grow level by level). Each
node's attribute argmax runs through repeated simulated quantum maximum
finding instead of a full sweep. When the search returns a suboptimal
attribute the build keeps it and proceeds: the per-node report records the
divergence, and the whole-tree success claim is about exactly this behavior.

One oracle query = one scoring pass over (view, attribute), so per-node
query counts are comparable to the classical builder's d evaluations. The
probability-level simulation needs every attribute's true score to size the
marked set, so each attempt scores every attribute exactly once with
`builder.score_attributes`, the pass the classical chooser makes, and the
search reads their gain ratios through a counted `ScoringOracle`; query
accounting, not wall time, is the quantum-observable ledger.
"""

import random
from dataclasses import dataclass, field

from . import jsonio
from .builder import (
    QUANTUM, BuildStats, DecisionTree, first_best, grow, score_attributes, write_atomically
)
from .counters import TREEMAP, make_backend
from .qsearch import ScoringOracle, default_repeats, repeated_max


@dataclass
class NodeRecord:
    """One split-search attempt; QBuildReport.per_node lists them in the
    order the build ran them (preorder).

    chosen_attr and its split test are None when the search ended in
    no-split (the view became a leaf). true_best_attr and correct are filled
    only under config.verify; correct is the search's own success flag: the
    outcome's gain ratio equals the classical optimum's, so any member of
    the argmax set counts as a success, and a no-split is correct exactly
    when no attribute has a valid split.
    """

    chosen_attr: int | None
    test: object
    true_best_attr: int | None
    oracle_queries: int
    repeats: int
    correct: bool | None


@dataclass
class QBuildReport:
    """Per-attempt search log for one quantum build.

    Every query the build spends appears in exactly one per_node row, and
    both totals are derived from those rows. nodes_correct counts only
    verified-correct rows that realized an internal node, which keeps it
    bounded by the internal node count.
    """

    tree: DecisionTree = None
    per_node: list = field(default_factory=list)
    verified: bool = False

    @property
    def total_oracle_queries(self):
        return sum(r.oracle_queries for r in self.per_node)

    @property
    def nodes_correct(self):
        return sum(1 for r in self.per_node if r.chosen_attr is not None and r.correct)


def q_choose_split(view, backend, rng, stats=None, verify=False):
    """Attribute selection by repeated quantum maximum search over the
    attributes' gain ratios.

    An attribute with no candidate split ranks -inf, below every valid
    ratio. The batch winner is the best ratio the searches evaluated, so a
    -inf winner means every evaluated attribute is invalid, and the attempt
    ends in no-split (chosen_attr None). Returns the attempt's NodeRecord,
    which carries the chosen SplitTest.
    """
    results = score_attributes(view, backend, stats)
    ratios = [score.ratio for score, _ in results]
    reps = default_repeats(len(ratios))
    winner, sstats = repeated_max(ScoringOracle(ratios), reps, rng)
    score, test = results[winner]
    if not score.valid:
        winner = None

    true_best = correct = None
    if verify:
        true_best = first_best(ratios)
        correct = sstats.succeeded
    return NodeRecord(winner, test, true_best, sstats.oracle_queries, reps, correct)


def q_form_tree(view, config, backend, rng, stats, report):
    """Grows the tree under view with q_choose_split as the chooser.

    Every search attempt, including one that ends in no-split, gets a
    per_node row.
    """

    def choose(node_view):
        record = q_choose_split(node_view, backend, rng, stats=stats, verify=config.verify)
        report.per_node.append(record)
        return record.test

    return grow(view, config, stats, choose)


def q_train(data, config, rng=None):
    """Grows a tree with quantum-searched splits and returns its report.

    Deterministic for a fixed config.seed (or a caller-supplied rng). The
    scanners are the classical ones, with the treemap backend booking their
    counter ops, so scoring arithmetic is identical to the classical build.
    A run whose every attempt verifies reproduces the classical tree byte
    for byte when each attempt's argmax is unique; under ties each split is
    still a classical optimum, but the tree can differ.
    """
    if config.backend != QUANTUM:
        raise ValueError("q_train grows quantum-searched trees only")
    if rng is None:
        rng = random.Random("qtree-%d" % (config.seed,))
    stats = BuildStats()
    backend = make_backend(TREEMAP, stats.tally)
    report = QBuildReport(verified=config.verify)
    root = q_form_tree(data.full_view(), config, backend, rng, stats, report)
    report.tree = DecisionTree(root, data.schema, data.class_labels, stats)
    return report


def report_to_document(report):
    """Plain-data form of a QBuildReport, stable field order."""
    rows = [
        {
            "node": node,
            "chosen_attr": r.chosen_attr,
            "true_best_attr": r.true_best_attr,
            "oracle_queries": r.oracle_queries,
            "repeats": r.repeats,
            "correct": r.correct,
        }
        for node, r in enumerate(report.per_node)
    ]
    return {
        "internal_nodes": report.tree.stats.internal_nodes,
        "total_oracle_queries": report.total_oracle_queries,
        "verified": report.verified,
        "nodes_correct": report.nodes_correct if report.verified else None,
        "per_node": rows,
    }


def serialize_report(report):
    return jsonio.dumps(report_to_document(report)) + "\n"


def save_report(report, path):
    with write_atomically(path) as fh:
        fh.write(serialize_report(report))
