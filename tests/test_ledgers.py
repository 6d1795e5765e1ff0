"""Whole-build ledger pins: counted work, tree shape and output bytes.

The counted quantities (evaluations, element and maintenance ops, oracle
queries) are the paper's cost model, so a refactor of the scanners or the
growth loop must leave every one of them, and the model/report bytes, as
they are.
"""

import hashlib

import pytest

from qdtree.builder import QUANTUM, BuildConfig, serialize_model, train
from qdtree.counters import BASELINE, TREEMAP
from qdtree.qbuilder import q_train, serialize_report
from qdtree.synth import planted_dataset, random_dataset, random_schema

DISCRETE_MODEL = "577cfafb287f0bdfd838b47e4ae1cabe57c8070799e7b614222b33d6da6cdf51"


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ledger(tree):
    s = tree.stats
    return (
        s.internal_nodes,
        s.leaves,
        s.evaluations,
        s.tally.element_ops,
        s.tally.maintenance_ops,
        s.tally.by_level,
        sha256(serialize_model(tree)),
    )


def discrete_data():
    schema = random_schema(6, 5, "pin", kinds="discrete", max_domain=4)
    return random_dataset(schema, 300, "pin")


@pytest.mark.parametrize(
    "backend, element_ops, maintenance_ops, by_level",
    [
        (BASELINE, 14208, 23088, {0: 312, 1: 1248, 2: 4992, 3: 16536}),
        (TREEMAP, 68862, 7161, {0: 177, 1: 645, 2: 1995, 3: 4344}),
    ],
)
def test_discrete_build_ledger_is_pinned(backend, element_ops, maintenance_ops, by_level):
    tree = train(discrete_data(), BuildConfig(max_height=4, backend=backend))
    assert ledger(tree) == (
        74, 187, 444, element_ops, maintenance_ops, by_level, DISCRETE_MODEL
    )


def test_real_build_ledger_is_pinned():
    tree = train(planted_dataset(400, 4, 2, 0), BuildConfig(max_height=4, backend=TREEMAP))
    assert ledger(tree) == (
        3, 4, 12, 21584, 64, {0: 32, 1: 32},
        "7bc7e3daa750849b5aa26b37940d95bdb4ceab9978e7cb57756cb2e83723a539",
    )


def test_quantum_build_ledger_is_pinned():
    data = random_dataset(random_schema(5, 4, "pin-mixed"), 200, "pin-mixed")
    report = q_train(data, BuildConfig(max_height=4, backend=QUANTUM, seed=0, verify=True))
    assert ledger(report.tree) == (
        4, 5, 20, 39744, 448, {0: 112, 1: 112, 2: 112, 3: 112},
        "3ebd1e448df19b5e653fe89d2180f94b92d0e0f3ba52a34e77f46ccc59b98b97",
    )
    assert (report.total_oracle_queries, report.nodes_correct) == (684, 4)
    assert sha256(serialize_report(report)) == (
        "913a8ed2c805cbad4a8c37171ea00b4a40ffbd1c22c46044f44652d838c94717"
    )


def test_quantum_no_split_build_ledger_is_pinned():
    # three binary attributes, so deep views run out of valid splits: 8 of
    # the 15 search attempts end in no-split
    schema = random_schema(3, 4, "pin-nosplit", kinds="discrete", max_domain=2)
    data = random_dataset(schema, 200, "pin-nosplit")
    report = q_train(data, BuildConfig(max_height=6, backend=QUANTUM, seed=0, verify=True))
    assert ledger(report.tree) == (
        7, 8, 45, 21389, 584, {0: 48, 1: 88, 2: 160, 3: 288},
        "c159385d1689dc2388b6db2ec398a0e5c0c2f978c9c82a71513c61ea0368bbde",
    )
    assert len(report.per_node) == 15
    assert sum(r.chosen_attr is None for r in report.per_node) == 8
    assert (report.total_oracle_queries, report.nodes_correct) == (1260, 7)
    assert sha256(serialize_report(report)) == (
        "2733b15530939d07d56f5ae9821bd2b83237087a23284352d332cfc7418d28d6"
    )


def test_bushy_quantum_build_ledger_is_pinned():
    # shaped like perfbench's quantum-bushy: 64 classes, so deep views
    # replay long all-distinct pair streams on the treemap ledger, and
    # views below a split hold constant attributes
    schema = random_schema(12, 64, "pin-bushy", kinds="discrete", max_domain=4)
    data = random_dataset(schema, 400, "pin-bushy")
    report = q_train(data, BuildConfig(max_height=8, backend=QUANTUM, seed=0, verify=True))
    assert ledger(report.tree) == (
        278, 604, 3336, 408369, 62569,
        {0: 2816, 1: 6157, 2: 8704, 3: 11133, 4: 14387, 5: 14195, 6: 4805, 7: 372},
        "0ed89227536ca8ae869ff6dd5ba4367cb4312eb9da189b931875f2e7be827bf9",
    )
    assert (report.total_oracle_queries, report.nodes_correct, len(report.per_node)) == (
        105640, 278, 278
    )
    assert sha256(serialize_report(report)) == (
        "020bddf8068d3af094735d28707f4111fe8758bb062609d079662c46bcde7160"
    )


def test_batched_treemap_build_ledger_is_pinned():
    # large enough that every scored level is one LevelBatch, whose views
    # below the root hold constant attributes (994 of the 2160 scores)
    schema = random_schema(8, 16, "pin-levels", kinds="discrete", max_domain=4)
    data = random_dataset(schema, 1500, "pin-levels")
    tree = train(data, BuildConfig(max_height=5, backend=TREEMAP))
    assert ledger(tree) == (
        270, 525, 2160, 842727, 54656, {0: 596, 1: 2189, 2: 7237, 3: 16599, 4: 28035},
        "4295d1b81eaafa9242cadee3445ca667bed5dd184301cde42b6197ae321a5a71",
    )
