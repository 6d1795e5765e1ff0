"""perfbench's quantum ledger must add up against the build's own report.

perfbench/run.py checks, on a bench run only, that the searches its tracer
captures from qsearch.repeated_max are the report's rows and spend its
queries. This runs the same check on a small quantum build, and also that
the queries less two per Grover iteration are the evaluate() calls made.
"""

from test_perfbench_names import load_tracer

from qdtree.builder import BuildConfig
from qdtree.qbuilder import q_train
from qdtree.qsearch import ScoringOracle
from qdtree.synth import random_dataset, random_schema


def test_captured_searches_add_up_to_the_report(monkeypatch):
    tracer = load_tracer()
    data = random_dataset(
        random_schema(6, 4, "ledger", kinds="discrete", max_domain=4), 120, "ledger"
    )
    evaluated = []
    evaluate = ScoringOracle.evaluate

    def counted(oracle, index):
        evaluated.append(index)
        return evaluate(oracle, index)

    monkeypatch.setattr(ScoringOracle, "evaluate", counted)
    with tracer.Tracer(spans=False) as traced:
        report = q_train(data, BuildConfig(backend="quantum", seed=0))
    ledger = traced.ledger
    assert ledger.searches == len(report.per_node) > 1
    assert ledger.search_queries == report.total_oracle_queries
    assert report.total_oracle_queries - 2 * ledger.grover_iterations == len(evaluated)
