"""Quantum-searched tree growth: reports, determinism, and success rates."""

import itertools
import math
import random

import pytest

from qdtree import jsonio
from qdtree.builder import (
    BuildConfig,
    BuildStats,
    Leaf,
    score_attributes,
    serialize_model,
    train,
)
from qdtree.counters import TREEMAP, make_backend
from qdtree.dataset import REAL, Attribute, AttributeSchema, Dataset, partition
from qdtree.oracle import argmax_attributes
from qdtree.qbuilder import (
    q_choose_split,
    q_train,
    report_to_document,
    save_report,
    serialize_report,
)
from qdtree.qsearch import default_repeats, query_budget
from qdtree.synth import planted_dataset, random_dataset, random_schema


def qconfig(**kw):
    kw.setdefault("backend", "quantum")
    kw.setdefault("seed", 0)
    kw.setdefault("max_height", 4)
    return BuildConfig(**kw)


def test_qtrain_requires_quantum_backend():
    data = planted_dataset(32, 4, 1, seed=0)
    with pytest.raises(ValueError):
        q_train(data, BuildConfig(backend="treemap"))


def test_single_attribute_always_matches_classical():
    data = planted_dataset(40, 1, 1, seed=2)
    classical = train(data, BuildConfig(max_height=3, backend=TREEMAP))
    for seed in range(5):
        report = q_train(data, qconfig(seed=seed, max_height=3))
        assert serialize_model(report.tree) == serialize_model(classical)


def test_unsplittable_view_becomes_leaf_with_logged_attempt():
    schema = AttributeSchema((Attribute("x1", REAL),), 2)
    data = Dataset(schema, [[3.0, 3.0]], [1, 2], ("a", "b"))
    report = q_train(data, qconfig(verify=True))
    assert isinstance(report.tree.root, Leaf)
    assert report.tree.stats.internal_nodes == 0
    assert len(report.per_node) == 1
    row = report.per_node[0]
    assert row.chosen_attr is None
    assert row.correct is True  # nothing to find, and nothing was claimed
    assert report.nodes_correct == 0  # never counts non-nodes
    assert report.total_oracle_queries == row.oracle_queries > 0


def test_report_invariants_on_planted_data():
    data = planted_dataset(64, 16, 2, seed=0)
    report = q_train(data, qconfig(seed=7, verify=True))
    k = report.tree.stats.internal_nodes
    assert k >= 1
    assert report.nodes_correct <= k
    assert report.total_oracle_queries == sum(
        r.oracle_queries for r in report.per_node
    )
    rows = report_to_document(report)["per_node"]
    assert [row["node"] for row in rows] == list(range(len(report.per_node)))
    # each row carries the test its node was built with
    made = [r for r in report.per_node if r.chosen_attr is not None]
    assert len(made) == k
    assert all(r.test.attr == r.chosen_attr for r in made)
    cap = 4 * query_budget(16)  # default repeats for d=16 is 4
    for row in report.per_node:
        assert row.repeats == 4
        assert row.oracle_queries <= cap


def _has_empty_branch(node):
    """True when some internal node has a branch no training row takes.

    Such a branch's leaf carries the parent's support, so the children's
    totals add up to more than the parent's.
    """
    if isinstance(node, Leaf):
        return False
    if sum(sum(child.support) for child in node.children) > sum(node.support):
        return True
    return any(_has_empty_branch(child) for child in node.children)


def test_fully_correct_run_reproduces_classical_tree():
    discrete = random_dataset(
        random_schema(5, 3, "q-empty", kinds="discrete", max_domain=4), 40, "q-empty"
    )
    for data in (planted_dataset(64, 16, 2, seed=0), discrete):
        classical = train(data, BuildConfig(max_height=4, backend=TREEMAP))
        # a correct search may return any member of a tied argmax set, while
        # the classical sweep keeps the lowest index; walk the seeds until
        # every search returned exactly the classical attribute
        for seed in range(64):
            report = q_train(data, qconfig(seed=seed, verify=True))
            if all(r.chosen_attr == r.true_best_attr for r in report.per_node):
                break
        else:
            pytest.fail("no seed reproduced every classical choice")
        assert all(r.correct for r in report.per_node)
        assert serialize_model(report.tree) == serialize_model(classical)
        assert report.tree.stats == classical.stats
    assert _has_empty_branch(classical.root)


def test_a_verified_run_can_differ_from_the_classical_tree_under_ties():
    # every attempt verifies, yet one picks a tied attribute other than the
    # classical sweep's first one: each split is still a classical optimum
    data = random_dataset(
        random_schema(4, 3, "ties", kinds="discrete", max_domain=3), 40, "ties"
    )
    classical = train(data, BuildConfig(max_height=3, backend=TREEMAP))
    report = q_train(data, qconfig(seed=0, max_height=3, verify=True))
    assert all(r.correct for r in report.per_node)
    assert any(r.chosen_attr != r.true_best_attr for r in report.per_node)
    assert serialize_model(report.tree) != serialize_model(classical)
    backend = make_backend(TREEMAP, BuildStats().tally)
    stack = [(report.tree.root, data.full_view())]
    internal = 0
    while stack:
        node, view = stack.pop()
        if isinstance(node, Leaf):
            continue
        internal += 1
        ratios = [score.ratio for score, _ in score_attributes(view, backend)]
        assert ratios[node.test.attr] == max(ratios) > -math.inf
        stack.extend(zip(node.children, partition(view, node.test)))
    assert internal == report.tree.stats.internal_nodes


def test_qtrain_is_deterministic_per_seed():
    data = planted_dataset(64, 8, 2, seed=1)
    a = q_train(data, qconfig(seed=3, verify=True))
    b = q_train(data, qconfig(seed=3, verify=True))
    assert serialize_model(a.tree) == serialize_model(b.tree)
    assert serialize_report(a) == serialize_report(b)


def test_unverified_report_leaves_truth_fields_empty():
    data = planted_dataset(48, 6, 1, seed=4)
    report = q_train(data, qconfig(seed=1))
    assert not report.verified
    for row in report.per_node:
        assert row.true_best_attr is None and row.correct is None
    doc = report_to_document(report)
    assert doc["nodes_correct"] is None


def test_report_document_shape_and_roundtrip(tmp_path):
    data = planted_dataset(64, 8, 2, seed=5)
    report = q_train(data, qconfig(seed=2, verify=True))
    doc = report_to_document(report)
    assert list(doc) == [
        "internal_nodes",
        "total_oracle_queries",
        "verified",
        "nodes_correct",
        "per_node",
    ]
    assert doc["internal_nodes"] == report.tree.stats.internal_nodes
    parsed = jsonio.loads(serialize_report(report))
    assert parsed == doc
    path = tmp_path / "report.json"
    save_report(report, path)
    assert path.read_text() == serialize_report(report)


def test_choose_split_fallback_sweep_spends_nothing_extra():
    # all-constant columns: every score is invalid, the sweep finds nothing
    schema = AttributeSchema((Attribute("x1", REAL), Attribute("x2", REAL)), 2)
    data = Dataset(schema, [[1.0, 1.0], [2.0, 2.0]], [1, 2], ("a", "b"))
    backend = make_backend(TREEMAP)
    stats = BuildStats()
    choice = q_choose_split(
        data.full_view(), backend, random.Random("fallback"), stats=stats
    )
    assert choice.chosen_attr is None and choice.test is None
    assert choice.oracle_queries <= 2 * query_budget(2)


def test_per_node_success_rate_on_unique_best():
    # depth-1 plant: exactly one attribute carries the signal
    data = planted_dataset(48, 4, 1, seed=11)
    view = data.full_view()
    best = argmax_attributes(view, tol=1e-9)
    assert len(best) == 1
    backend = make_backend(TREEMAP)
    hits = 0
    trials = 800
    for t in range(trials):
        choice = q_choose_split(
            view, backend, random.Random("node-%d" % t), verify=True
        )
        assert choice.repeats == 2
        hits += choice.correct
    # two repeats guarantee >= 3/4; the measured rate should clear it easily
    assert hits / trials >= 0.75


def test_verify_records_truth_against_reference():
    data = planted_dataset(48, 4, 1, seed=11)
    view = data.full_view()
    best = argmax_attributes(view, tol=1e-9)
    backend = make_backend(TREEMAP)
    for t in range(20):
        choice = q_choose_split(
            view, backend, random.Random("truth-%d" % t), verify=True
        )
        assert choice.true_best_attr in best
        assert choice.correct == (choice.chosen_attr in best)


class _NeverHits(random.Random):
    # every amplified measurement misses and every index draw is 0, so each
    # search starts on attribute 0 and only ever measures the lowest-scored
    # attribute, which never beats it
    def random(self):
        return 1 - 2**-53

    def getrandbits(self, k):
        return 0


def test_verify_records_a_failed_search():
    data = planted_dataset(48, 4, 1, seed=11)
    choice = q_choose_split(
        data.full_view(), make_backend(TREEMAP), _NeverHits(), verify=True
    )
    assert (choice.chosen_attr, choice.true_best_attr, choice.correct) == (0, 2, False)


def test_evaluations_track_scoring_passes():
    data = planted_dataset(64, 8, 2, seed=6)
    report = q_train(data, qconfig(seed=9))
    d = data.schema.attribute_count
    attempts = len(report.per_node)
    assert report.tree.stats.evaluations == attempts * d


def test_per_node_queries_grow_like_sqrt_of_attribute_count():
    # every search spends its whole budget, 22.5*sqrt(d) + 1.4*log2(d)^2
    # rounded down, and a node runs default_repeats(d) of them, whatever
    # the draws
    for d, cost in ((4, 100), (16, 448), (64, 1380), (256, 3592)):
        assert default_repeats(d) * math.floor(query_budget(d)) == cost
        view = planted_dataset(32, d, 1, seed=21).full_view()
        backend = make_backend(TREEMAP)
        for t in range(10):
            choice = q_choose_split(view, backend, random.Random("slope-%d-%d" % (d, t)))
            assert choice.oracle_queries == cost


def test_a_quantum_attempt_costs_fewer_queries_than_d_from_d_179011():
    # an attempt's ceil(log2 d) searches of floor(22.5 sqrt(d) + 1.4 log2(d)^2)
    # queries first cost less than a classical attempt's d scoring passes at
    # d = 179 011, and stay below from there, also just past each power of
    # two, where one more search is made
    def queries(d):
        return default_repeats(d) * math.floor(query_budget(d))

    assert next(d for d in itertools.count(1) if queries(d) < d) == 179_011
    assert all(queries(2**k + 1) < 2**k + 1 for k in range(18, 48))
