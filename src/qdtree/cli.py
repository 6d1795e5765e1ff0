"""Command-line surface: train, predict, bench, verify.

    qdtree train   --data d.csv --schema d.schema --out model.json
    qdtree predict --model model.json --data rows.csv
    qdtree bench   --backends baseline,treemap --n 512 --d 4 --m 4,64,256
    qdtree verify  --suite all

Every command is deterministic given its seed arguments. Bench output is a
fixed-header CSV that is byte-stable across runs; wall-clock timing is
opt-in (--timing) precisely because real timestamps would break that.
"""

import argparse
import sys
import time

from . import verify as verify_suites
from .builder import (
    QUANTUM,
    BuildConfig,
    load_model,
    route,
    serialize_model,
    train,
    training_accuracy,
    tree_height,
    write_atomically,
)
from .counters import BASELINE, TREEMAP
from .dataset import DataFormatError, load_csv, load_feature_rows, read_schema
from .qbuilder import q_train, serialize_report
from .synth import grid_dataset

BENCH_HEADER = "backend,N,d,M,seed,evals,counter_ops,queries,success,wall_ms"


def _int_list(text):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("expected an integer >= %d" % (low,))
        return value

    return integer


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qdtree",
        description="Decision-tree construction with dense, sparse-counter "
        "and simulated quantum-search backends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="grow a tree from a labeled CSV")
    p.add_argument("--data", required=True, help="training CSV (attributes + class column)")
    p.add_argument("--schema", required=True, help="schema file, one attribute per line")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--backend", default=BASELINE, choices=[BASELINE, TREEMAP, QUANTUM])
    p.add_argument("--max-height", type=int, default=10)
    p.add_argument("--min-split", type=int, default=2)
    p.add_argument("--seed", type=int, default=None, help="required for the quantum backend")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write the per-node search report (quantum backend)")
    p.add_argument("--verify", action="store_true",
                   help="also record each node's classically best attribute")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify rows with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True,
                   help="CSV of attribute rows; a trailing class column is ignored")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="emit a synthetic-build metrics table")
    p.add_argument("--backends", default="baseline,treemap",
                   help="comma-separated subset of baseline,treemap,quantum")
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--d", type=_int_list, default=[4], metavar="LIST")
    p.add_argument("--m", type=_int_list, default=[4, 64, 256], metavar="LIST")
    p.add_argument("--seeds", type=_int_list, default=[0], metavar="LIST")
    p.add_argument("--max-height", type=_at_least(0), default=4)
    p.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    p.add_argument("--timing", action="store_true",
                   help="fill wall_ms with real timings (breaks byte-stability)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run randomized self-check suites")
    p.add_argument("--suite", default="all", choices=["all", "oracle", "backend", "quantum"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=_at_least(1), default=None)
    p.add_argument("--trials", type=_at_least(1), default=None)
    p.add_argument("--builds", type=_at_least(1), default=None)
    p.add_argument("--d", type=_at_least(2), default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def cmd_train(args):
    try:
        attributes = read_schema(args.schema)
        data = load_csv(args.data, attributes)
        config = BuildConfig(
            max_height=args.max_height,
            min_split=args.min_split,
            backend=args.backend,
            seed=args.seed,
            verify=args.verify,
        )
    except (DataFormatError, OSError, ValueError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    try:
        if args.backend == QUANTUM:
            report = q_train(data, config)
            tree = report.tree
        else:
            report = None
            tree = train(data, config)
        # the model goes last, so a failed write leaves no new model behind
        model_text = serialize_model(tree)
        if report is not None and args.report:
            write_atomically(args.report, serialize_report(report))
        write_atomically(args.out, model_text)
    except RecursionError:
        # the grower and the model writer still recurse once per tree level
        print("error: the tree is too deep to grow or serialize", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):
        # a discrete scan allocates one count per value of the declared domain
        print("error: out of memory; is a discrete domain size too large?", file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    extra = "" if report is None else " queries=%d" % (report.total_oracle_queries,)
    if report is None and args.report:
        print("warning: only the quantum backend produces a report", file=sys.stderr)
    print(
        "wrote %s: internal nodes=%d leaves=%d height=%d train_acc=%.4f%s"
        % (
            args.out,
            tree.stats.internal_nodes,
            tree.stats.leaves,
            tree_height(tree.root),
            training_accuracy(tree, data),
            extra,
        )
    )
    return 0


def cmd_predict(args):
    try:
        tree = load_model(args.model)
        columns = load_feature_rows(args.data, tree.schema.attributes)
    except (DataFormatError, OSError, KeyError, ValueError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    lines = ["%s\n" % (label,) for label in tree.class_labels]
    sys.stdout.write("".join(lines[c - 1] for c in route(tree, columns).tolist()))
    return 0


def _bench_rows(args, backends):
    rows = []
    for backend in backends:
        for d in args.d:
            for m in args.m:
                for seed in args.seeds:
                    data = grid_dataset(args.n, d, seed, class_count=m)
                    started = time.perf_counter()
                    if backend == QUANTUM:
                        config = BuildConfig(
                            max_height=args.max_height,
                            backend=QUANTUM,
                            seed=seed,
                            verify=True,
                        )
                        report = q_train(data, config)
                        stats = report.tree.stats
                        queries = report.total_oracle_queries
                        k = stats.internal_nodes
                        success = report.nodes_correct / k if k else 1.0
                    else:
                        tree = train(data, BuildConfig(max_height=args.max_height, backend=backend))
                        stats = tree.stats
                        queries = 0
                        success = 1.0
                    elapsed = time.perf_counter() - started
                    wall_ms = int(round(elapsed * 1000.0)) if args.timing else 0
                    rows.append(
                        "%s,%d,%d,%d,%d,%d,%d,%d,%.6f,%d"
                        % (
                            backend,
                            args.n,
                            d,
                            m,
                            seed,
                            stats.evaluations,
                            stats.tally.maintenance_ops,
                            queries,
                            success,
                            wall_ms,
                        )
                    )
    return rows


def cmd_bench(args):
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    for backend in backends:
        if backend not in (BASELINE, TREEMAP, QUANTUM):
            print("error: unknown backend %r" % (backend,), file=sys.stderr)
            return 2
    if min(args.m) < 4 or min(args.d) < 2 or args.n < 4:
        print("error: bench needs n >= 4, d >= 2 and M >= 4", file=sys.stderr)
        return 2
    lines = [BENCH_HEADER]
    lines.extend(_bench_rows(args, backends))
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            write_atomically(args.out, text)
        except OSError as exc:
            print("error: %s" % (exc,), file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def _format_value(value):
    if isinstance(value, float):
        return "%.6g" % (value,)
    if isinstance(value, dict):
        return "{%s}" % (
            ", ".join("%s: %s" % (k, _format_value(v)) for k, v in value.items()),
        )
    if isinstance(value, list):
        return "[%s]" % (", ".join(_format_value(v) for v in value),)
    return str(value)


def cmd_verify(args):
    groups = ["oracle", "backend", "quantum"] if args.suite == "all" else [args.suite]
    failures = 0
    for group in groups:
        results = verify_suites.run_suite(
            group,
            seed=args.seed,
            instances=args.instances,
            trials=args.trials,
            builds=args.builds,
            d=args.d,
        )
        for res in results:
            status = "PASS" if res["passed"] else "FAIL"
            detail = " ".join(
                "%s=%s" % (key, _format_value(val))
                for key, val in res.items()
                if key not in ("name", "passed")
            )
            print("[%s] %s: %s" % (status, res["name"], detail))
            if not res["passed"]:
                failures += 1
    if failures:
        print("%d suite(s) failed" % (failures,), file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
