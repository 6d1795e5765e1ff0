"""Acceptance gate: the package's headline guarantees at advertised sizes.

Each check prints one [PASS]/[FAIL] line with its measured numbers and its
tolerance, then asserts. Sizes, thresholds, and runtime ceilings are the
ones the package advertises in README.md; ground truth comes from the
brute-force reference module and from seeded Monte-Carlo runs.
"""

import time

import pytest

from qdtree import verify
from qdtree.cli import main as cli_main


def announce(capsys, number, name, passed, detail):
    with capsys.disabled():
        print(
            "[%s] A%d %s: %s" % ("PASS" if passed else "FAIL", number, name, detail)
        )
    assert passed, "A%d %s: %s" % (number, name, detail)


def test_a1_scanner_matches_reference_scores(capsys):
    # 200 random instances, every candidate of every attribute, and the
    # chosen split, all within 1e-9 of brute force; under a minute
    t0 = time.perf_counter()
    res = verify.oracle_equivalence(instances=200, seed=1)
    elapsed = time.perf_counter() - t0
    detail = (
        "instances=%d candidates=%d max_delta=%.3g tol=%g argmax_failures=%d (%.1fs<60s)"
        % (
            res["instances"],
            res["candidates"],
            res["max_delta"],
            res["tolerance"],
            res["argmax_failures"],
            elapsed,
        )
    )
    announce(capsys, 1, "scanner-vs-reference", res["passed"] and elapsed < 60, detail)


def test_a2_prefix_suffix_tables_match_direct_recount(capsys):
    res = verify.prefix_consistency(subsets=100, seed=2)
    detail = "subsets=%d max_delta=%.3g tol=%g" % (
        res["subsets"],
        res["max_delta"],
        res["tolerance"],
    )
    announce(capsys, 2, "entropy-table-consistency", res["passed"], detail)


def test_a3_incremental_discrete_matches_batch(capsys):
    res = verify.incremental_discrete(instances=200, seed=3)
    detail = "instances=%d max_delta=%.3g tol=%g" % (
        res["instances"],
        res["max_delta"],
        res["tolerance"],
    )
    announce(capsys, 3, "one-pass-discrete-scoring", res["passed"], detail)


def test_a4_backends_identical_trees_and_cost_separation(capsys):
    ident = verify.backend_identity(datasets=100, seed=4)
    scale = verify.counter_scaling(n=512, d=4, grid=(4, 64, 256), seed=4, min_ratio=8.0)
    passed = ident["passed"] and scale["passed"]
    detail = (
        "datasets=%d mismatches=%d | treemap_ops=%s baseline_ops=%s growth=%.1fx (>=8x)"
        % (
            ident["datasets"],
            ident["mismatches"],
            scale["treemap_ops"],
            scale["baseline_ops"],
            scale["growth"],
        )
    )
    announce(capsys, 4, "backend-identity-and-cost", passed, detail)


def test_a5_single_search_success_floor(capsys):
    t0 = time.perf_counter()
    res = verify.search_success(trials=2000, sizes=(8, 32, 128), seed=5, threshold=0.48)
    elapsed = time.perf_counter() - t0
    detail = "trials=%d rates=%s floor=%.2f (%.1fs<120s)" % (
        res["trials"],
        {k: round(v, 4) for k, v in res["rates"].items()},
        res["threshold"],
        elapsed,
    )
    announce(capsys, 5, "single-search-success", res["passed"] and elapsed < 120, detail)


def test_a6_repeated_search_per_node_success(capsys):
    res = verify.repetition_success(
        trials=5000, d=16, n=64, seed=6, threshold=0.93
    )
    detail = "trials=%d d=16 repeats=%d rate=%.4f floor=%.2f nominal=%.4f strict_best=%s" % (
        res["trials"],
        res["repeats"],
        res["rate"],
        res["threshold"],
        res["nominal_bound"],
        res["strict_best"],
    )
    announce(capsys, 6, "per-node-success", res["passed"], detail)


def test_a7_query_growth_is_square_root_like(capsys):
    res = verify.query_scaling(
        sizes=(4, 16, 64, 256, 1024), trials=200, seed=7, slope_range=(0.35, 0.65)
    )
    detail = "sizes=%s means=%s slope=%.3f in [%.2f,%.2f] cap_violations=%d" % (
        list(res["sizes"]),
        [round(m, 1) for m in res["means"]],
        res["slope"],
        res["slope_range"][0],
        res["slope_range"][1],
        res["cap_violations"],
    )
    announce(capsys, 7, "query-scaling", res["passed"], detail)


def test_a8_whole_tree_match_frequency(capsys):
    t0 = time.perf_counter()
    res = verify.whole_tree_match(builds=1000, d=16, n=64, depth=2, seed=8, slack=0.05)
    elapsed = time.perf_counter() - t0
    detail = "builds=%d k=%d rate=%.4f bound=%.4f cap_violations=%d (%.1fs<300s)" % (
        res["builds"],
        res["internal_nodes"],
        res["rate"],
        res["bound"],
        res["cap_violations"],
        elapsed,
    )
    announce(capsys, 8, "whole-tree-match", res["passed"] and elapsed < 300, detail)


def test_a9_end_to_end_byte_determinism(tmp_path, capsys):
    from qdtree.dataset import save_csv, write_schema
    from qdtree.synth import planted_dataset

    data = planted_dataset(96, 8, 2, seed=9)
    csv = tmp_path / "train.csv"
    sch = tmp_path / "train.schema"
    save_csv(data, csv)
    write_schema(data.schema.attributes, sch)

    snapshots = []
    for round_dir in ("one", "two"):
        d = tmp_path / round_dir
        d.mkdir()
        rc = cli_main(
            ["train", "--data", str(csv), "--schema", str(sch),
             "--out", str(d / "model.json"), "--backend", "quantum",
             "--seed", "17", "--verify", "--report", str(d / "report.json"),
             "--max-height", "4"]
        )
        assert rc == 0
        rc = cli_main(
            ["bench", "--backends", "baseline,treemap,quantum", "--n", "64",
             "--d", "4", "--m", "4,64", "--seeds", "0",
             "--max-height", "3", "--out", str(d / "bench.csv")]
        )
        assert rc == 0
        snapshots.append(
            (
                (d / "model.json").read_bytes(),
                (d / "report.json").read_bytes(),
                (d / "bench.csv").read_bytes(),
            )
        )
    capsys.readouterr()  # drop train/bench chatter from the criterion line
    same = snapshots[0] == snapshots[1]
    sizes = [len(b) for b in snapshots[0]]
    detail = "model/report/bench re-runs byte-identical=%s bytes=%s" % (same, sizes)
    announce(capsys, 9, "end-to-end-determinism", same, detail)
