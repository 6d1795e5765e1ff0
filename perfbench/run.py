"""qdtree benchmark: seeded workloads driven through the real CLI path.

    python3 perfbench/run.py --workload real-large --seed 0 --seconds 20 --trace 0

One process, one thread, closed loop: each repetition runs `qdtree train`
(CSV + schema -> model JSON) and then `qdtree predict` in-process through
`qdtree.cli.main`, and the next repetition starts only when both returned.
The program sees nothing but the generated CSV and schema files.

`--trace 0` reports the end-to-end metrics. Their times are relative: each
train and predict call is divided by the time of a fixed reference block
run right before and after it (see `reference_timer`), which cancels most
of the drift in a shared machine's speed. `--trace 1` alternates
untraced repetitions with traced ones, whose spans give the per-layer
metrics, and reports the raw wall times there; see perfbench/README.md
for the metric table. Every repetition, traced or not, is checked against
the golden ledger (seeds recorded in golden.json) or against the run's
first repetition (any other seed). The last stdout line is the JSON result.
"""

import os

# Pin native thread pools before numpy is imported through qdtree.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer, count, dump, node_times, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3          # set-ups per run; setup_s is their median
# setup_s is quoted at the machine speed at which the reference block takes
# this long, so it reads in seconds but does not drift with the machine
REF_SCALE_S = 0.05
MIN_REPS = 3        # measured repetitions per run, whatever --seconds says
GOLDEN = HERE / "golden.json"


def import_program():
    """Imports qdtree from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qdtree
    import qdtree.cli

    if Path(qdtree.__file__).resolve().parent != src / "qdtree":
        raise ImportError("qdtree was imported from %s, not %s" % (qdtree.__file__, src))
    return qdtree


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_train: int
    n_predict: int
    train_args: tuple
    real_planted: bool = False
    quantum: bool = False

    def datasets(self, seed, scale):
        from qdtree.synth import planted_dataset, random_dataset, random_schema

        n = max(16, int(self.n_train * scale))
        m = max(16, int(self.n_predict * scale))
        if self.real_planted:
            # same hidden tree for both files; the larger file has new rows
            return planted_dataset(n, 8, 3, seed), planted_dataset(m, 8, 3, seed)
        # the schema is part of the workload's shape, so its seed is fixed:
        # --seed varies the rows only
        schema = random_schema(12, 64, self.name, kinds="discrete", max_domain=4)
        return (
            random_dataset(schema, n, "%s-train-%d" % (self.name, seed)),
            random_dataset(schema, m, "%s-predict-%d" % (self.name, seed)),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "real-large",
            "planted 8000x8 real rows on treemap: the sorted real-attribute scan "
            "does nearly all the work over 7 nodes",
            8000,
            16000,
            ("--backend", "treemap", "--max-height", "8"),
            real_planted=True,
        ),
        Workload(
            "discrete-bushy",
            "3000 noise rows, 12 discrete attributes, 64 classes on baseline: "
            "~1900 tiny nodes, per-node overhead and a 15 MB model",
            3000,
            6000,
            ("--backend", "baseline", "--max-height", "8"),
        ),
        Workload(
            "quantum-bushy",
            "1000 noise rows on the quantum backend with --verify --report: "
            "the only workload that reaches qsearch and qbuilder",
            1000,
            4000,
            ("--backend", "quantum", "--max-height", "8", "--verify"),
            quantum=True,
        ),
    )
}

END_TO_END = (
    ("train_rel", "ref"),
    ("predict_rel", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("train_s", "s"),
    ("train_cpu_s", "s"),
    ("predict_rows_per_s", "rows/s"),
    ("ref_s", "s"),
    ("setup_wall_s", "s"),
    ("dataset.load_csv_s", "s"),
    ("dataset.load_feature_rows_s", "s"),
    ("dataset.partition_s", "s"),
    ("dataset.partition_calls", "count"),
    ("splitscan.build_real_scan_s", "s"),
    ("splitscan.real_candidates_s", "s"),
    ("splitscan.discrete_s", "s"),
    ("splitscan.evals", "count"),
    ("splitscan.rows_scanned", "count"),
    ("splitscan.ns_per_row", "ns/row"),
    ("counters.maintenance_ops", "count"),
    ("counters.element_ops", "count"),
    ("builder.grow_self_s", "s"),
    ("builder.choose_split_s", "s"),
    ("builder.node_ms_p50", "ms"),
    ("builder.node_ms_p99", "ms"),
    ("builder.internal_nodes", "count"),
    ("builder.leaves", "count"),
    ("builder.save_model_s", "s"),
    ("builder.load_model_s", "s"),
    ("builder.classify_s", "s"),
    ("builder.training_accuracy_s", "s"),
    ("qsearch.repeated_max_s", "s"),
    ("qsearch.oracle_queries", "count"),
    ("qsearch.grover_iterations", "count"),
    ("qsearch.queries_per_eval", "ratio"),
    ("qsearch.success_rate", "ratio"),
    ("qbuilder.q_choose_split_s", "s"),
    ("qbuilder.attempts", "count"),
    ("qbuilder.save_report_s", "s"),
    ("jsonio.dumps_s", "s"),
    ("jsonio.loads_s", "s"),
    ("jsonio.model_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.train_s", "s"),
    ("trace.predict_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace_overhead_ratio", "ratio"),
    ("fail_ratio", "ratio"),
)

# Self-time buckets: each traced function belongs to at most one, so the
# buckets plus trace.unattributed_s add up to traced train + predict time.
BUCKETS = {
    "dataset.load_csv_s": ("dataset.load_csv",),
    "dataset.load_feature_rows_s": ("dataset.load_feature_rows",),
    "dataset.partition_s": ("dataset.partition",),
    "splitscan.build_real_scan_s": ("splitscan.build_real_scan",),
    "splitscan.real_candidates_s": (
        "splitscan.real_split_candidates",
        "splitscan.scan_real_attribute",
    ),
    "splitscan.discrete_s": ("splitscan.process_discrete_attribute",),
    "builder.grow_self_s": (
        "builder.train",
        "builder.form_tree",
        "qbuilder.q_train",
        "qbuilder.q_form_tree",
    ),
    "builder.choose_split_s": ("builder.choose_split",),
    "builder.save_model_s": (
        "builder.save_model",
        "builder.serialize_model",
        "builder.tree_to_document",
    ),
    "builder.load_model_s": ("builder.load_model", "builder.document_to_tree"),
    "builder.classify_s": ("builder.classify",),
    "builder.training_accuracy_s": ("builder.training_accuracy",),
    "qsearch.repeated_max_s": ("qsearch.repeated_max",),
    "qbuilder.q_choose_split_s": ("qbuilder.q_choose_split",),
    "qbuilder.save_report_s": (
        "qbuilder.save_report",
        "qbuilder.serialize_report",
        "qbuilder.report_to_document",
    ),
    "jsonio.dumps_s": ("jsonio.dumps",),
    "jsonio.loads_s": ("jsonio.loads",),
    "cli.self_s": ("cli.main", "cli.cmd_train", "cli.cmd_predict"),
}
SPLITSCAN_SPANS = (
    "splitscan.process_attribute",
    "splitscan.scan_real_attribute",
    "splitscan.real_split_candidates",
    "splitscan.build_real_scan",
    "splitscan.process_discrete_attribute",
)


def reference_timer():
    """Returns a function that runs a fixed block of work and returns its
    wall time.

    On a shared virtual machine the same code runs up to 60% slower for
    seconds to minutes at a time, in CPU time as much as in wall time, as
    neighbours load the host. Dividing a call's time by this block's time,
    measured right before and after the call, cancels most of that. The
    block mixes the kinds of work qdtree does (dictionary counting, a
    stable numpy sort with prefix sums, a JSON round trip, parsing floats
    from CSV text), so it slows down with the machine in about the same
    proportion, and it uses nothing from qdtree, so no change to the
    program changes it. It takes about 50 ms.
    """
    import numpy

    rng = random.Random(0)
    values = numpy.random.default_rng(0).random(8000)
    doc = {"k%d" % i: [rng.random() for _ in range(20)] for i in range(300)}
    text = "\n".join(",".join("%.6f" % rng.random() for _ in range(8)) for _ in range(2000))

    def timed():
        started = time.perf_counter()
        counts = {}
        for i in range(60000):
            counts[i % 977] = counts.get(i % 977, 0) + 1
        for _ in range(40):
            numpy.cumsum(values[numpy.argsort(values, kind="stable")])
        json.loads(json.dumps(doc))
        [[float(x) for x in line.split(",")] for line in text.splitlines()]
        return time.perf_counter() - started

    return timed


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def route(doc, row):
    """Classifies one row by walking the model document directly.

    Written against the documented model format, independently of
    qdtree.builder.classify, so predictions can be checked against it.
    """
    node = doc["root"]
    while node["kind"] == "internal":
        value = row[node["attr"]]
        if "theta" in node:
            node = node["children"][0 if float(value) <= node["theta"] else 1]
        else:
            node = node["children"][int(value) - 1]
    return doc["class_label_mapping"][node["class"] - 1]


class Checks:
    """Counts correctness checks; a failed one is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("check failed: %s" % (what,), file=sys.stderr)
        return ok


class Bench:
    """One workload at one seed: its input files and its repetitions."""

    def __init__(self, workload, seed, scale, workdir):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.dir = workdir
        self.train_csv = str(workdir / "train.csv")
        self.schema = str(workdir / "train.schema")
        self.predict_csv = str(workdir / "predict.csv")
        self.model = str(workdir / "model.json")
        self.report = str(workdir / "report.json")
        self.checks = Checks()
        self.reference = None
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        if scale == 1.0:
            self.reference = golden.get(workload.name, {}).get(str(seed))
        self.verified = False
        self.time_reference = reference_timer()

    def setup(self):
        """Generates the datasets and writes the CSV and schema files."""
        from qdtree.dataset import save_csv, write_schema

        self.dir.mkdir(parents=True, exist_ok=True)
        self.train_data, self.predict_data = self.workload.datasets(self.seed, self.scale)
        save_csv(self.train_data, self.train_csv)
        write_schema(self.train_data.schema.attributes, self.schema)
        save_csv(self.predict_data, self.predict_csv)

    def inputs_digest(self):
        h = hashlib.sha256()
        for path in (self.train_csv, self.schema, self.predict_csv):
            h.update(Path(path).read_bytes())
        return h.hexdigest()

    def train_argv(self):
        argv = ["train", "--data", self.train_csv, "--schema", self.schema, "--out", self.model]
        argv += list(self.workload.train_args)
        if self.workload.quantum:
            argv += ["--seed", str(self.seed), "--report", self.report]
        return argv

    def rep(self, tracer):
        """One closed-loop repetition: train, then predict, each timed and
        bracketed by timings of the reference block."""
        from qdtree import cli

        gc.collect()
        tracer.reset()
        ref_before = self.time_reference()
        out = io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out):
            train_rc = cli.main(self.train_argv())
        train_s = time.perf_counter() - wall0
        train_cpu_s = time.process_time() - cpu0
        train_rec, ledger = tracer.recorder, tracer.ledger

        gc.collect()
        tracer.reset()
        ref_between = self.time_reference()
        pred = io.StringIO()
        wall0 = time.perf_counter()
        with contextlib.redirect_stdout(pred):
            predict_rc = cli.main(["predict", "--model", self.model, "--data", self.predict_csv])
        predict_s = time.perf_counter() - wall0
        ref_after = self.time_reference()
        return {
            "train_s": train_s,
            "train_cpu_s": train_cpu_s,
            "predict_s": predict_s,
            "train_rel": train_s / ((ref_before + ref_between) / 2),
            "predict_rel": predict_s / ((ref_between + ref_after) / 2),
            "ref_s": statistics.median((ref_before, ref_between, ref_after)),
            "train_rc": train_rc,
            "predict_rc": predict_rc,
            "train_out": out.getvalue(),
            "predictions": pred.getvalue(),
            "ledger": ledger,
            "train_rec": train_rec,
            "predict_rec": tracer.recorder,
        }

    def fingerprint(self, sample):
        """The output bytes and exact counted ledgers of one repetition."""
        ledger = sample["ledger"]
        stats = ledger.tree.stats
        report = ledger.report
        line = sample["train_out"]
        acc = line.split("train_acc=")[1].split()[0]
        return {
            "inputs": self.inputs_digest(),
            "model": sha256(Path(self.model).read_bytes()),
            "report": sha256(Path(self.report).read_bytes()) if report else None,
            "predictions": sha256(sample["predictions"].encode()),
            "train_acc": acc,
            "evals": stats.evaluations,
            "counter_ops": stats.tally.maintenance_ops,
            "element_ops": stats.tally.element_ops,
            "internal_nodes": stats.internal_nodes,
            "leaves": stats.leaves,
            "oracle_queries": report.total_oracle_queries if report else 0,
            "grover_iterations": ledger.grover_iterations,
            "nodes_correct": report.nodes_correct if report else 0,
            "attempts": len(report.per_node) if report else 0,
        }

    def verify_once(self, sample, fp):
        """Checks made on the first repetition only, independently of golden
        data: the later ones must reproduce its bytes exactly."""
        expect = self.checks.expect
        doc = json.loads(Path(self.model).read_text())
        predicted = sample["predictions"].splitlines()
        routed = [route(doc, self.predict_data.row(i)) for i in range(self.predict_data.n_rows)]
        expect(predicted == routed, "predictions differ from routing the model document")
        hits = sum(
            route(doc, self.train_data.row(i)) == self.train_data.label_name(int(y))
            for i, y in enumerate(self.train_data.labels)
        )
        acc = "%.4f" % (hits / self.train_data.n_rows,)
        expect(acc == fp["train_acc"], "train_acc %s, routing gives %s" % (fp["train_acc"], acc))
        ledger = sample["ledger"]
        if ledger.report is not None:
            report = json.loads(Path(self.report).read_text())
            rows = sum(r["oracle_queries"] for r in report["per_node"])
            expect(
                report["total_oracle_queries"] == rows == ledger.search_queries,
                "oracle queries: report %d, rows %d, searches %d"
                % (report["total_oracle_queries"], rows, ledger.search_queries),
            )
            expect(report["internal_nodes"] == fp["internal_nodes"], "report internal_nodes")
            expect(0 <= report["nodes_correct"] <= report["internal_nodes"], "nodes_correct bound")
            expect(len(report["per_node"]) == ledger.searches, "one report row per search")

    def check(self, sample):
        """All checks of one repetition; returns its fingerprint or None."""
        expect = self.checks.expect
        if not (expect(sample["train_rc"] == 0, "train exit code %r" % (sample["train_rc"],))
                and expect(sample["predict_rc"] == 0, "predict exit code %r" % (sample["predict_rc"],))):
            return None
        fp = self.fingerprint(sample)
        if self.workload.real_planted:
            expect(fp["train_acc"] == "1.0000", "real-large train_acc %s != 1.0000" % (fp["train_acc"],))
        if sample["train_rec"].names:
            scans = count(sample["train_rec"], "splitscan.process_attribute")
            expect(scans == fp["evals"], "evals %d but %d scoring spans" % (fp["evals"], scans))
        if not self.verified:
            self.verify_once(sample, fp)
            self.verified = True
        if self.reference is None:
            self.reference = fp
        for key, want in self.reference.items():
            expect(fp.get(key) == want, "%s: %r, expected %r" % (key, fp.get(key), want))
        return fp


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def layer_metrics(sample, fp, workload):
    """Per-layer values of one traced repetition."""
    train_self = self_times(sample["train_rec"])
    both = dict(train_self)
    for name, value in self_times(sample["predict_rec"]).items():
        both[name] = both.get(name, 0.0) + value
    out = {key: sum(both.get(n, 0.0) for n in names) for key, names in BUCKETS.items()}
    rows = sample["ledger"].rows_scanned
    scan_s = sum(both.get(n, 0.0) for n in SPLITSCAN_SPANS)
    nodes = sorted(node_times(sample["train_rec"])) or [0.0]
    evals = fp["evals"]
    internal = fp["internal_nodes"]
    out.update(
        {
            "dataset.partition_calls": count(sample["train_rec"], "dataset.partition"),
            "splitscan.evals": evals,
            "splitscan.rows_scanned": rows,
            "splitscan.ns_per_row": scan_s / rows * 1e9 if rows else 0.0,
            "counters.maintenance_ops": fp["counter_ops"],
            "counters.element_ops": fp["element_ops"],
            "builder.node_ms_p50": statistics.median(nodes) * 1e3,
            "builder.node_ms_p99": nodes[min(len(nodes) - 1, int(0.99 * len(nodes)))] * 1e3,
            "builder.internal_nodes": internal,
            "builder.leaves": fp["leaves"],
            "qsearch.oracle_queries": fp["oracle_queries"],
            "qsearch.grover_iterations": fp["grover_iterations"],
            "qsearch.queries_per_eval": fp["oracle_queries"] / evals if workload.quantum else 0.0,
            "qsearch.success_rate": (
                fp["nodes_correct"] / internal if workload.quantum and internal else 1.0
            ),
            "qbuilder.attempts": fp["attempts"],
            "jsonio.model_bytes": os.path.getsize(sample["model_path"]),
            "trace.train_s": sample["train_s"],
            "trace.train_rel": sample["train_rel"],
            "trace.predict_s": sample["predict_s"],
        }
    )
    out["trace.unattributed_s"] = (
        sample["train_s"] + sample["predict_s"] - sum(out[key] for key in BUCKETS)
    )
    return out


def environment():
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def run(workload, seed, seconds, trace, scale=1.0, out_dir=None):
    """Runs one benchmark and returns (result dict, printable summary lines)."""
    workdir = HERE / ".work" / ("%s-s%d-p%d" % (workload.name, seed, os.getpid()))
    bench = Bench(workload, seed, scale, workdir)
    hooks = Tracer(spans=False)
    spans = Tracer(spans=True)
    reps = failed_reps = 0
    # only numbers outlive a repetition: holding its tree or spans would grow
    # the heap that later repetitions' garbage collections must scan
    samples, layers, setup_times, setup_wall = [], [], [], []
    last_traced = None

    def attempt(tracer, timed):
        """Runs and checks one repetition; returns its timings unless it
        raised or exited non-zero. Failed checks count, but keep the timing."""
        nonlocal reps, failed_reps, last_traced
        reps += 1
        before = bench.checks.failed
        sample = fp = None
        try:
            with tracer:
                sample = bench.rep(tracer)
            sample["model_path"] = bench.model
            fp = bench.check(sample)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            bench.checks.expect(False, "repetition raised")
        if bench.checks.failed != before:
            failed_reps += 1
        if fp is None:
            return None
        timing = {
            key: sample[key]
            for key in ("train_s", "train_cpu_s", "predict_s", "train_rel", "predict_rel", "ref_s")
        }
        if timed and tracer.spans:
            layers.append(layer_metrics(sample, fp, workload))
            last_traced = sample
        elif timed:
            samples.append(timing)
        return timing

    try:
        for _ in range(SETUPS):
            started = time.perf_counter()
            bench.setup()
            generated = time.perf_counter() - started
            timing = attempt(hooks, timed=False)
            if timing is None:
                raise RuntimeError("the warm-up repetition did not complete")
            setup_wall.append(generated + timing["train_s"] + timing["predict_s"])
            setup_times.append(setup_wall[-1] / timing["ref_s"] * REF_SCALE_S)

        started = time.perf_counter()
        while (
            time.perf_counter() - started < seconds
            or len(samples) < MIN_REPS
            or (trace and len(layers) < MIN_REPS)
        ):
            if reps > 10 * MIN_REPS and len(samples) < MIN_REPS:
                raise RuntimeError("repetitions keep failing")
            if not trace:
                attempt(hooks, timed=True)
                continue
            # alternate which side of a pair runs first, so drift in machine
            # speed does not bias trace_overhead_ratio
            pair = (hooks, spans) if len(layers) % 2 == 0 else (spans, hooks)
            for tracer in pair:
                attempt(tracer, timed=True)
        if out_dir is not None and last_traced is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            for phase in ("train", "predict"):
                rec = last_traced[phase + "_rec"]
                dump(
                    rec,
                    out_dir / ("trace-%s-s%d-%s.json" % (workload.name, seed, phase)),
                    rec.starts[0],
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = []
    rows = bench.predict_data.n_rows
    train = [s["train_s"] for s in samples]
    train_rel = [s["train_rel"] for s in samples]
    raw = {
        "train_s": statistics.median(train),
        "train_cpu_s": statistics.median(s["train_cpu_s"] for s in samples),
        "predict_rows_per_s": statistics.median(rows / s["predict_s"] for s in samples),
        "ref_s": statistics.median(s["ref_s"] for s in samples),
        "setup_wall_s": statistics.median(setup_wall),
    }
    if trace:
        # counts repeat exactly (checked), so median_low keeps them integers
        values = {
            name: (statistics.median_low if unit == "count" else statistics.median)(
                layer[name] for layer in layers
            )
            for name, unit in PER_LAYER
            if name not in raw and name not in ("trace_overhead_ratio", "fail_ratio")
        }
        values.update(raw)
        values["trace_overhead_ratio"] = statistics.median(
            layer["trace.train_rel"] for layer in layers
        ) / statistics.median(train_rel)
        values["fail_ratio"] = bench.checks.failed / bench.checks.attempted
        units = PER_LAYER
        counted = len(layers)
    else:
        values = {
            "train_rel": statistics.median(train_rel),
            "predict_rel": statistics.median(s["predict_rel"] for s in samples),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        counted = len(samples)
    env = environment()
    lines.append("# env: " + json.dumps(env, sort_keys=True))
    lines.append(
        "# workload=%s seed=%d trace=%d measured reps=%d (+%d untraced) set-ups=%d checks=%d failed=%d"
        % (workload.name, seed, trace, counted, len(samples) if trace else 0, SETUPS,
           bench.checks.attempted, bench.checks.failed)
    )
    for name, unit in units:
        lines.append("%-30s %16.6f %s" % (name, values[name], unit))
    if not trace:
        q1, q3 = quartiles(train_rel)
        lines.append("# train_rel median of %d, quartiles %.4f..%.4f" % (len(train_rel), q1, q3))
        lines.append(
            "# raw medians: " + ", ".join("%s %.6g" % (name, raw[name]) for name in sorted(raw))
        )
    result = {
        "correct": failed_reps == 0,
        "attempted": reps,
        "failed": failed_reps,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    return result, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print("error: cannot import qdtree from this checkout: %s" % (exc,), file=sys.stderr)
        return 2
    try:
        result, lines = run(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace, out_dir=HERE / ".out"
        )
    except RuntimeError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
