"""Smoke tests for the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = 0.05
COUNTED = (
    "splitscan.evals",
    "counters.maintenance_ops",
    "counters.element_ops",
    "builder.internal_nodes",
    "builder.leaves",
    "qsearch.oracle_queries",
    "qsearch.grover_iterations",
    "qbuilder.attempts",
    "jsonio.model_bytes",
)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, section):
    result, lines = run.run(run.WORKLOADS[workload], 0, 0.0, trace, scale=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_runs_repeat_their_ledgers(workload):
    first, _ = run.run(run.WORKLOADS[workload], 5, 0.0, 1, scale=TINY)
    second, _ = run.run(run.WORKLOADS[workload], 5, 0.0, 1, scale=TINY)
    assert first["metrics"]["fail_ratio"]["value"] == 0.0
    for name in COUNTED:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_program():
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
        done = subprocess.run(
            SPEC["command"] + ["--workload", "real-large", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
