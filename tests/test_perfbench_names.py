"""The benchmark tracer patches qdtree functions by name; keep those names alive.

perfbench/tracer.py looks functions up with getattr on qdtree.<module> when a
traced run starts, so renaming or deleting one of them breaks every
`--trace 1` repetition. This test reads the tracer's tables without
importing perfbench as a package.
"""

import importlib
import importlib.util
from pathlib import Path

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
