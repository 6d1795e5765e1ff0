"""The benchmark tracer patches qdtree functions by name; keep those names alive.

perfbench/tracer.py looks functions up with getattr on qdtree.<module> when a
traced run starts, so renaming or deleting one of them breaks every
`--trace 1` repetition. This test reads the tracer's tables without
importing perfbench as a package.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from qdtree import splitscan
from qdtree.builder import BuildConfig, train
from qdtree.qbuilder import q_train
from qdtree.synth import random_dataset, random_schema

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_and_captured_functions_resolve():
    tracer = load_tracer()
    names = [
        (mod_name, fn_name)
        for table in (tracer.TRACED, tracer.CAPTURED)
        for mod_name, fns in table.items()
        for fn_name in fns
    ]
    names += [tuple(dotted.split(".")) for dotted in tracer.GROWTH + tracer.CHOOSERS]
    assert names
    for mod_name, fn_name in names:
        module = importlib.import_module("qdtree." + mod_name)
        assert callable(getattr(module, fn_name, None)), "qdtree.%s.%s" % (mod_name, fn_name)


def test_one_traced_growth_node_per_split_attempt():
    # builder.node_ms_* are read from growth spans that have a chooser child;
    # every split attempt scores all d attributes, so a grower that stops
    # giving each node its own growth span shows up as a count mismatch
    tracer = load_tracer()
    d = 4
    data = random_dataset(
        random_schema(d, 3, "trace-nodes", kinds="discrete", max_domain=4), 60, "trace-nodes"
    )
    builds = (
        lambda: train(data, BuildConfig(backend="baseline")).stats,
        lambda: q_train(data, BuildConfig(backend="quantum", seed=0)).tree.stats,
    )
    for build in builds:
        with tracer.Tracer(spans=True) as traced:
            stats = build()
        assert stats.evaluations % d == 0
        assert len(tracer.node_times(traced.recorder)) == stats.evaluations // d > 1


def test_each_chooser_span_holds_d_scoring_spans(monkeypatch):
    # perfbench checks evals against the number of scoring spans, so every
    # split attempt must score each attribute exactly once under its chooser,
    # also where its discrete scores are read from a LevelBatch
    tracer = load_tracer()
    d = 4
    data = random_dataset(random_schema(d, 3, "trace-scans"), 60, "trace-scans")
    batches = []

    class CountedBatch(splitscan.LevelBatch):
        def __init__(self, views, backend):
            super().__init__(views, backend)
            batches.append(len(views))

    def batched():
        with monkeypatch.context() as patch:
            patch.setattr(splitscan, "BATCH_MIN_ROWS", 0)
            patch.setattr(splitscan, "LevelBatch", CountedBatch)
            train(data, BuildConfig(backend="baseline"))
        assert len(batches) > 1

    builds = (
        lambda: train(data, BuildConfig(backend="baseline")),
        batched,
        lambda: q_train(data, BuildConfig(backend="quantum", seed=0)),
    )
    for build in builds:
        with tracer.Tracer(spans=True) as traced:
            build()
        rec = traced.recorder
        scans = Counter()
        for sid, name in enumerate(rec.names):
            if name == "splitscan.process_attribute":
                parent = rec.parents[sid]
                while parent >= 0 and rec.names[parent] not in tracer.CHOOSERS:
                    parent = rec.parents[parent]
                scans[parent] += 1
        choosers = [sid for sid, name in enumerate(rec.names) if name in tracer.CHOOSERS]
        assert len(choosers) > 1
        assert scans == dict.fromkeys(choosers, d)
