"""Command-line entry points: train, predict, bench, verify."""

import errno
import json
import subprocess
import sys

import pytest

from qdtree import builder
from qdtree import verify as verify_suites
from qdtree.builder import load_model, serialize_model
from qdtree.cli import BENCH_HEADER, main
from qdtree.dataset import Attribute, AttributeSchema, Dataset, save_csv, write_schema
from qdtree.synth import planted_dataset, random_dataset, random_schema


def write_xor(tmp_path):
    schema = AttributeSchema((Attribute("x1", "real"), Attribute("x2", "real")), 2)
    data = Dataset(
        schema,
        [[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]],
        [1, 2, 2, 1],
        ("A", "B"),
    )
    csv = tmp_path / "xor.csv"
    sch = tmp_path / "xor.schema"
    save_csv(data, csv)
    write_schema(schema.attributes, sch)
    return csv, sch


def write_planted(tmp_path, n=64, d=6, depth=2, seed=0):
    data = planted_dataset(n, d, depth, seed)
    csv = tmp_path / "plant.csv"
    sch = tmp_path / "plant.schema"
    save_csv(data, csv)
    write_schema(data.schema.attributes, sch)
    return csv, sch


def run(args):
    return main([str(a) for a in args])


def test_train_writes_model(tmp_path, capsys):
    csv, sch = write_xor(tmp_path)
    out = tmp_path / "model.json"
    assert run(["train", "--data", csv, "--schema", sch, "--out", out]) == 0
    text = out.read_text()
    assert text.startswith("{") and text.endswith("\n")
    summary = capsys.readouterr().out
    assert "nodes" in summary or "leaves" in summary


def test_train_is_byte_stable_across_runs_and_backends(tmp_path):
    csv, sch = write_planted(tmp_path)
    outs = []
    for name, backend in (("a", "baseline"), ("b", "treemap"), ("c", "baseline")):
        out = tmp_path / ("%s.json" % name)
        assert run(
            ["train", "--data", csv, "--schema", sch, "--out", out,
             "--backend", backend, "--max-height", 4]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_train_missing_file_exits_two(tmp_path, capsys):
    sch = tmp_path / "s.schema"
    sch.write_text("x1,real\n")
    code = run(["train", "--data", tmp_path / "nope.csv", "--schema", sch,
                "--out", tmp_path / "m.json"])
    assert code == 2
    assert capsys.readouterr().err != ""


def test_train_bad_cell_names_the_line(tmp_path, capsys):
    sch = tmp_path / "s.schema"
    sch.write_text("x1,real\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,class\n1.0,a\nzzz,b\n")
    code = run(["train", "--data", bad, "--schema", sch, "--out", tmp_path / "m.json"])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_train_refuses_a_label_with_a_line_break(tmp_path, capsys):
    # predict printed the label as two lines: four lines for three rows
    sch = tmp_path / "s.schema"
    sch.write_text("x1,real\n")
    bad = tmp_path / "bad.csv"
    bad.write_text('x1,class\n1,"a\nb"\n2,c\n3,c\n')
    model = tmp_path / "m.json"
    assert run(["train", "--data", bad, "--schema", sch, "--out", model]) == 2
    err = capsys.readouterr().err
    assert err == "error: %s line 3: class label 'a\\nb' holds a line break\n" % (bad,)
    assert not model.exists()


def test_train_quantum_requires_seed(tmp_path, capsys):
    csv, sch = write_xor(tmp_path)
    code = run(["train", "--data", csv, "--schema", sch,
                "--out", tmp_path / "m.json", "--backend", "quantum"])
    assert code == 2


def test_train_quantum_writes_model_and_report(tmp_path):
    csv, sch = write_planted(tmp_path)
    model = tmp_path / "m.json"
    report = tmp_path / "r.json"
    assert run(
        ["train", "--data", csv, "--schema", sch, "--out", model,
         "--backend", "quantum", "--seed", 7, "--verify",
         "--report", report, "--max-height", 4]
    ) == 0
    assert model.exists() and report.exists()
    first = (model.read_bytes(), report.read_bytes())
    assert run(
        ["train", "--data", csv, "--schema", sch, "--out", model,
         "--backend", "quantum", "--seed", 7, "--verify",
         "--report", report, "--max-height", 4]
    ) == 0
    assert (model.read_bytes(), report.read_bytes()) == first


def test_train_classical_with_report_warns_and_writes_no_report(tmp_path, capsys):
    csv, sch = write_xor(tmp_path)
    model = tmp_path / "m.json"
    report = tmp_path / "r.json"
    assert run(
        ["train", "--data", csv, "--schema", sch, "--out", model,
         "--backend", "baseline", "--report", report]
    ) == 0
    assert model.exists() and not report.exists()
    captured = capsys.readouterr()
    assert captured.err == "warning: only the quantum backend produces a report\n"
    assert "queries=" not in captured.out


@pytest.mark.parametrize("out", ["m.json", "./m.json"])
def test_train_refuses_a_report_at_the_model_path(tmp_path, monkeypatch, capsys, out):
    # train writes the report before the model, so one path would keep
    # only the model
    csv, sch = write_planted(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = run(["train", "--data", csv, "--schema", sch, "--out", out,
                "--backend", "quantum", "--seed", 1, "--report", "m.json"])
    assert code == 2
    assert capsys.readouterr().err == "error: --report and --out name the same file %s\n" % (out,)
    assert not (tmp_path / "m.json").exists()


def _with_byte(path, at):
    data = path.read_bytes()
    path.write_bytes(data[:at] + b"\xff" + data[at:])


def test_predict_names_a_model_that_is_not_utf8_and_its_offset(tmp_path, capsys):
    csv, sch = write_xor(tmp_path)
    model = tmp_path / "m.json"
    assert run(["train", "--data", csv, "--schema", sch, "--out", model]) == 0
    capsys.readouterr()
    at = model.stat().st_size - 10
    _with_byte(model, at)
    assert run(["predict", "--model", model, "--data", csv]) == 2
    assert capsys.readouterr().err == (
        "error: %s is not UTF-8 text: invalid start byte at byte %d\n" % (model, at)
    )


@pytest.mark.parametrize(
    "keep,position",
    [(0, "Expecting value: line 1 column 1 (char 0)"),
     (11, "Unterminated string starting at: line 2 column 3 (char 4)")],
    ids=["empty", "truncated"],
)
def test_predict_names_a_model_that_is_not_json(tmp_path, capsys, keep, position):
    csv, sch = write_xor(tmp_path)
    model = tmp_path / "m.json"
    assert run(["train", "--data", csv, "--schema", sch, "--out", model]) == 0
    capsys.readouterr()
    model.write_bytes(model.read_bytes()[:keep])
    assert run(["predict", "--model", model, "--data", csv]) == 2
    assert capsys.readouterr().err == "error: %s is not a JSON document: %s\n" % (model, position)


def test_train_names_a_csv_that_is_not_utf8(tmp_path, capsys):
    # the decoder reads ahead in chunks, so its offset is not the file's
    sch = tmp_path / "s.schema"
    sch.write_text("x1,real\n")
    bad = tmp_path / "t.csv"
    bad.write_text("x1,class\n" + "1.0,a\n" * 10_000)
    _with_byte(bad, 50_000)
    model = tmp_path / "m.json"
    assert run(["train", "--data", bad, "--schema", sch, "--out", model]) == 2
    assert capsys.readouterr().err == "error: %s is not UTF-8 text: invalid start byte\n" % (bad,)
    assert not model.exists()


def test_train_names_a_schema_that_is_not_utf8(tmp_path, capsys):
    csv, sch = write_xor(tmp_path)
    _with_byte(sch, 1)
    assert run(["train", "--data", csv, "--schema", sch, "--out", tmp_path / "m.json"]) == 2
    assert capsys.readouterr().err == "error: %s is not UTF-8 text: invalid start byte\n" % (sch,)


def test_predict_round_trips_training_labels(tmp_path, capsys):
    csv, sch = write_xor(tmp_path)
    model = tmp_path / "m.json"
    run(["train", "--data", csv, "--schema", sch, "--out", model,
         "--max-height", 2])
    capsys.readouterr()
    assert run(["predict", "--model", model, "--data", csv]) == 0
    assert capsys.readouterr().out.split() == ["A", "B", "B", "A"]


def test_files_with_a_utf8_byte_order_mark_train_and_predict(tmp_path, capsys):
    # Excel's "CSV UTF-8" starts the file with U+FEFF; a mark on either the
    # schema or the data must not reach the column names
    schema = "x,real\nc,discrete,2\n"
    data = "x,c,class\n0.5,1,a\n1.5,2,b\n0.25,1,a\n2.5,2,b\n"
    sch, csv, model = tmp_path / "s.schema", tmp_path / "t.csv", tmp_path / "m.json"
    models = []
    for schema_mark, data_mark in (("\ufeff", ""), ("", "\ufeff")):
        sch.write_text(schema_mark + schema, encoding="utf-8")
        csv.write_text(data_mark + data, encoding="utf-8")
        assert run(["train", "--data", csv, "--schema", sch, "--out", model]) == 0
        capsys.readouterr()
        assert run(["predict", "--model", model, "--data", csv]) == 0
        assert capsys.readouterr().out.split() == ["a", "b", "a", "b"]
        models.append(model.read_bytes())
    assert models[0] == models[1]


def test_predict_rejects_out_of_domain_value(tmp_path, capsys):
    sch = tmp_path / "s.schema"
    sch.write_text("c1,discrete,2\n")
    train_csv = tmp_path / "t.csv"
    train_csv.write_text("c1,class\n1,a\n1,a\n2,b\n2,b\n")
    model = tmp_path / "m.json"
    run(["train", "--data", train_csv, "--schema", sch, "--out", model])
    capsys.readouterr()
    bad = tmp_path / "q.csv"
    bad.write_text("c1\n1\n3\n")
    code = run(["predict", "--model", model, "--data", bad])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def _attr_out_of_range(doc):
    doc["root"]["attr"] = 7


def _child_dropped(doc):
    doc["root"]["children"].pop()


def _leaf_class_out_of_range(doc):
    doc["root"]["children"][0]["class"] = 9


def _real_node_made_discrete(doc):
    root = doc["root"]
    del root["theta"]
    root["branch_count"] = 5
    root["children"] += [dict(root["children"][0]) for _ in range(3)]


def _support_too_short(doc):
    doc["root"]["support"].pop()


def _support_not_a_list(doc):
    doc["root"]["support"] = 5


def _children_a_string(doc):
    doc["root"]["children"] = "ab"


def _child_not_an_object(doc):
    doc["root"]["children"][1] = 7


def _root_a_list(doc):
    doc["root"] = []


def _attributes_not_a_list(doc):
    doc["schema"] = {"attributes": 3}


def _theta_not_finite(doc):
    doc["root"]["theta"] = float("nan")


def _class_label_missing(doc):
    doc["class_label_mapping"].pop()


def _support_entry(kind, value):
    def mutate(doc):
        doc["root"]["support"][0] = value

    mutate.__name__ = "_support_entry_" + kind
    return mutate


def _set(name, value, *path):
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    mutate.__name__ = "_set_" + name
    return mutate


def _class_labels_as(kind, make):
    def mutate(doc):
        names = "abcdefghijklmnop"[: doc["schema"]["class_count"]]
        doc["class_label_mapping"] = make(names)

    mutate.__name__ = "_class_labels_as_" + kind
    return mutate


def _class_count_a_float(doc):
    doc["schema"]["class_count"] = float(doc["schema"]["class_count"])


def _theta_a_string(doc):
    doc["root"]["theta"] = str(doc["root"]["theta"])


@pytest.mark.parametrize(
    "mutate",
    [
        _attr_out_of_range,
        _child_dropped,
        _leaf_class_out_of_range,
        _real_node_made_discrete,
        _support_too_short,
        _support_not_a_list,
        _children_a_string,
        _child_not_an_object,
        _root_a_list,
        _attributes_not_a_list,
        _theta_not_finite,
        _class_label_missing,
        _support_entry("negative", -1),
        _support_entry("float", 2.5),
        _support_entry("string", "3"),
        _support_entry("bool", True),
        _support_entry("null", None),
        _set("leaf_class_float", 1.7, "root", "children", 0, "class"),
        _set("leaf_class_string", "2", "root", "children", 0, "class"),
        _set("leaf_class_bool", True, "root", "children", 0, "class"),
        _set("attr_bool", True, "root", "attr"),
        _class_count_a_float,
        _theta_a_string,
        _set("theta_bool", True, "root", "theta"),
        _set("theta_huge_int", 10**400, "root", "theta"),
        _set("class_label_null", None, "class_label_mapping", 0),
        _set("class_label_line_break", "a\nb", "class_label_mapping", 0),
        _class_labels_as("string", str),
        _class_labels_as("object", lambda names: {c: i for i, c in enumerate(names, 1)}),
    ],
)
def test_predict_rejects_malformed_model(tmp_path, capsys, mutate):
    csv, sch = write_planted(tmp_path, n=60, d=3, depth=1, seed=2)
    model = tmp_path / "m.json"
    assert run(["train", "--data", csv, "--schema", sch, "--out", model]) == 0
    doc = json.loads(model.read_text())
    assert doc["root"]["kind"] == "internal" and "theta" in doc["root"]
    mutate(doc)
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["predict", "--model", model, "--data", csv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_predict_rejects_an_unknown_node_kind(tmp_path, capsys):
    csv, sch = write_planted(tmp_path, n=60, d=3, depth=1, seed=2)
    model = tmp_path / "m.json"
    assert run(["train", "--data", csv, "--schema", sch, "--out", model]) == 0
    doc = json.loads(model.read_text())
    doc["root"]["kind"] = "branch"
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["predict", "--model", model, "--data", csv]) == 2
    assert capsys.readouterr().err == "error: unknown node kind 'branch'\n"


def test_predict_rejects_a_padded_attribute_name(tmp_path, capsys):
    # no reader could match a name with outer whitespace to a header
    csv, sch = write_planted(tmp_path, n=60, d=3, depth=1, seed=2)
    model = tmp_path / "m.json"
    assert run(["train", "--data", csv, "--schema", sch, "--out", model]) == 0
    doc = json.loads(model.read_text())
    doc["schema"]["attributes"][0]["name"] = " a0"
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["predict", "--model", model, "--data", csv]) == 2
    assert capsys.readouterr().err == (
        "error: attribute name ' a0' has leading or trailing whitespace\n"
    )


def _model_text(root):
    head = json.dumps(
        {
            "schema": {"class_count": 2, "attributes": [{"name": "x", "kind": "real"}]},
            "class_label_mapping": ["A", "B"],
        }
    )
    return head[:-1] + ', "root": ' + root + "}"


def test_predict_reads_deeply_nested_model(tmp_path, capsys):
    # too deep for the recursive stdlib decoder; the iterative parse and
    # the explicit-stack loader read it
    leaf = '{"kind": "leaf", "class": 1, "support": [1, 0]}'
    internal = (
        '{"kind": "internal", "attr": 0, "theta": 0.5, "support": [1, 0], "children": ['
    )
    depth = 1000
    model = tmp_path / "deep.json"
    model.write_text(_model_text((internal + leaf + ", ") * depth + leaf + "]}" * depth))
    rows = tmp_path / "rows.csv"
    rows.write_text("x\n0.25\n")
    assert run(["predict", "--model", model, "--data", rows]) == 0
    assert capsys.readouterr().out == "A\n"


def test_predict_names_a_deeply_nested_model_that_is_not_json(tmp_path, capsys):
    # too deep for the recursive decoder: the iterative parse finds the
    # document's closing brace where the innermost list expects ',' or ']'
    leaf = '{"kind": "leaf", "class": 1, "support": [1, 0]}'
    text = _model_text('{"kind": "internal", "children": [' * 1000 + leaf)
    model = tmp_path / "deep.json"
    model.write_text(text)
    rows = tmp_path / "rows.csv"
    rows.write_text("x\n0.25\n")
    assert run(["predict", "--model", model, "--data", rows]) == 2
    at = len(text) - 1
    assert capsys.readouterr().err == (
        "error: %s is not a JSON document: Expecting ',' delimiter: line 1 column %d (char %d)\n"
        % (model, at + 1, at)
    )


def test_predict_rejects_hostile_nesting(tmp_path, capsys):
    # parses, but the check that names the bad leaf class cannot print it
    depth = 100_000
    model = tmp_path / "deep.json"
    nested = "[" * depth + "]" * depth
    model.write_text(_model_text('{"kind": "leaf", "class": %s, "support": [1, 0]}' % (nested,)))
    rows = tmp_path / "rows.csv"
    rows.write_text("x\n0.25\n")
    assert run(["predict", "--model", model, "--data", rows]) == 2
    err = capsys.readouterr().err
    assert err == "error: model document nested too deeply\n"


def test_bench_emits_stable_table(tmp_path, capsys):
    args = ["bench", "--n", 64, "--d", "4", "--m", "4,16", "--seeds", "0",
            "--max-height", 3]
    assert run(args) == 0
    first = capsys.readouterr().out
    lines = first.strip().splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 1 + 2 * 2  # two backends x two class counts
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_bench_counter_column_separates_backends(tmp_path, capsys):
    assert run(["bench", "--n", 128, "--d", "4", "--m", "4,64", "--seeds", "0",
                "--max-height", 4]) == 0
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    by_key = {(r[0], int(r[3])): r for r in rows}
    base4 = int(by_key[("baseline", 4)][6])
    base64 = int(by_key[("baseline", 64)][6])
    tm4 = int(by_key[("treemap", 4)][6])
    tm64 = int(by_key[("treemap", 64)][6])
    assert tm4 == tm64
    assert base64 >= 8 * base4
    # same trees, same scoring passes
    assert by_key[("baseline", 4)][5] == by_key[("treemap", 4)][5]
    # classical rows spend no search queries and always "succeed"
    assert by_key[("baseline", 4)][7] == "0"
    assert by_key[("baseline", 4)][8] == "1.000000"


def test_bench_quantum_rows_report_success(tmp_path, capsys):
    assert run(["bench", "--backends", "treemap,quantum", "--n", 64, "--d", "4",
                "--m", "4", "--seeds", "1", "--max-height", 3]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    q = next(r for r in rows if r[0] == "quantum")
    assert int(q[7]) > 0
    assert 0.0 <= float(q[8]) <= 1.0


def test_bench_timing_fills_only_wall_ms(capsys):
    args = ["bench", "--backends", "baseline,quantum", "--n", 64, "--d", "4", "--m", "4",
            "--seeds", "0,1", "--max-height", 3]
    assert run(args) == 0
    plain = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert run(args + ["--timing"]) == 0
    timed = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert timed[0] == plain[0] == BENCH_HEADER.split(",")
    assert len(timed) == len(plain) == 5
    wall = plain[0].index("wall_ms")
    for got, want in zip(timed[1:], plain[1:]):
        assert got[:wall] + got[wall + 1:] == want[:wall] + want[wall + 1:]
        assert want[wall] == "0"
        assert got[wall].isdigit()  # a non-negative integer


def test_bench_writes_file_when_asked(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--n", 64, "--d", "4", "--m", "4", "--seeds", "0",
                "--max-height", 2, "--out", out]) == 0
    assert out.read_text().splitlines()[0] == BENCH_HEADER


def test_bench_rejects_bad_grid(capsys):
    assert run(["bench", "--m", "3"]) == 2
    assert run(["bench", "--backends", "baseline,btree"]) == 2
    # an empty backend list printed the header alone and exited 0
    capsys.readouterr()
    assert run(["bench", "--backends", ","]) == 2
    assert capsys.readouterr() == ("", "error: bench needs at least one backend\n")


def test_verify_oracle_suite_reports_pass(capsys):
    assert run(["verify", "--suite", "oracle", "--instances", 15]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_verify_backend_suite_reports_pass(capsys):
    assert run(["verify", "--suite", "backend", "--instances", 10]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") >= 2


def test_verify_quantum_suite_small_sizes(capsys):
    assert run(["verify", "--suite", "quantum", "--trials", 150,
                "--builds", 60]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") >= 4
    assert "[FAIL]" not in out


def test_verify_exits_one_when_a_suite_fails(capsys, monkeypatch):
    def broken(seed):
        return {"name": "broken", "passed": False, "seed": seed}

    monkeypatch.setitem(verify_suites.SUITES, "backend", ((broken, {}),))
    assert run(["verify", "--suite", "backend"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "[FAIL] broken: seed=0\n"
    assert captured.err == "1 suite(s) failed\n"


@pytest.mark.parametrize(
    "args",
    [
        ["bench", "--max-height", -1],
        ["verify", "--suite", "quantum", "--trials", 0],
        ["verify", "--suite", "quantum", "--trials", 1, "--builds", 0],
        ["verify", "--suite", "quantum", "--trials", 1, "--d", 1],
        ["verify", "--suite", "oracle", "--instances", 0],
    ],
    ids=["bench-max-height", "verify-trials", "verify-builds", "verify-d", "verify-instances"],
)
def test_out_of_range_size_flags_exit_two(capsys, args):
    try:
        code = run(args)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_module_entry_point_runs(tmp_path, src_env):
    csv, sch = write_xor(tmp_path)
    model = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qdtree", "train", "--data", str(csv),
         "--schema", str(sch), "--out", str(model)],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.returncode == 0
    assert model.exists()


def test_every_output_byte_is_the_same_under_two_string_hash_seeds(tmp_path, src_env):
    # A9 reruns inside one process, where the string hash is fixed; a path
    # whose output followed it (set or dict order of strings) shows only
    # across processes. Each run works in its own directory under the same
    # relative paths, because train's stdout names --out.
    schema = random_schema(5, 4, "hash-seed")
    base = random_dataset(schema, 120, "hash-seed")
    labels = ("yes", "no", "maybe", "rarely")
    data = Dataset(schema, base.columns, base.labels, labels)
    commands = [
        ["train", "--data", "d.csv", "--schema", "d.schema", "--out", "b.json",
         "--max-height", "4"],
        ["train", "--data", "d.csv", "--schema", "d.schema", "--out", "q.json",
         "--backend", "quantum", "--seed", "7", "--verify", "--report", "r.json",
         "--max-height", "4"],
        ["predict", "--model", "b.json", "--data", "d.csv"],
        ["bench", "--backends", "baseline,treemap,quantum", "--n", "48", "--d", "3",
         "--m", "4,16", "--max-height", "3"],
        ["verify", "--suite", "oracle", "--instances", "5"],
        ["verify", "--suite", "backend", "--instances", "5"],
    ]
    outputs = []
    for hash_seed in ("0", "1"):
        cwd = tmp_path / hash_seed
        cwd.mkdir()
        save_csv(data, cwd / "d.csv")
        write_schema(schema.attributes, cwd / "d.schema")
        streams = []
        for command in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "qdtree", *command],
                cwd=cwd, capture_output=True, env=dict(src_env, PYTHONHASHSEED=hash_seed),
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout
            streams.append((proc.stdout, proc.stderr))
        files = {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}
        assert set(files) == {"d.csv", "d.schema", "b.json", "q.json", "r.json"}
        outputs.append((streams, files))
    assert outputs[0] == outputs[1]


def test_unknown_subcommand_fails():
    with pytest.raises(SystemExit):
        main(["explain"])


def write_staircase(tmp_path, n):
    # one real attribute whose class flips every two rows, so each split
    # peels two rows off the end and the tree is about n / 2 levels deep
    schema = AttributeSchema((Attribute("x1", "real"),), 2)
    labels = [(i // 2) % 2 + 1 for i in range(n)]
    data = Dataset(schema, [[float(i) for i in range(n)]], labels, ("x", "y"))
    csv = tmp_path / "stairs.csv"
    sch = tmp_path / "stairs.schema"
    save_csv(data, csv)
    write_schema(schema.attributes, sch)
    return csv, sch, ["xy"[y - 1] for y in labels]


def test_deep_staircase_trains_and_predicts(tmp_path, capsys):
    csv, sch, names = write_staircase(tmp_path, 800)
    out = tmp_path / "model.json"
    assert run(
        ["train", "--data", csv, "--schema", sch, "--out", out, "--max-height", 5000]
    ) == 0
    assert "height=399 train_acc=1.0000" in capsys.readouterr().out
    assert run(["predict", "--model", out, "--data", csv]) == 0
    assert capsys.readouterr().out.split() == names


def test_staircase_of_1000_rows_round_trips(tmp_path, capsys):
    # its model nests about 1000 JSON containers deep: written on an
    # explicit stack, read back by the iterative parse
    csv, sch, names = write_staircase(tmp_path, 1000)
    out = tmp_path / "model.json"
    assert run(
        ["train", "--data", csv, "--schema", sch, "--out", out, "--max-height", 5000]
    ) == 0
    assert "height=499 train_acc=1.0000" in capsys.readouterr().out
    assert run(["predict", "--model", out, "--data", csv]) == 0
    assert capsys.readouterr().out.split() == names
    assert serialize_model(load_model(out)) == out.read_text()


@pytest.mark.parametrize("rows,backend", [(2000, "baseline"), (2000, "quantum")])
def test_staircase_round_trips(tmp_path, capsys, rows, backend):
    # height rows / 2 - 1, grown on the explicit stack; the model nests
    # about rows JSON containers deep and is read back by the iterative parse
    csv, sch, names = write_staircase(tmp_path, rows)
    out = tmp_path / "model.json"
    seed = ["--seed", 1] if backend == "quantum" else []
    assert run(
        ["train", "--data", csv, "--schema", sch, "--out", out, "--max-height", 5000,
         "--backend", backend] + seed
    ) == 0
    assert "height=%d train_acc=1.0000" % (rows // 2 - 1,) in capsys.readouterr().out
    assert run(["predict", "--model", out, "--data", csv]) == 0
    assert capsys.readouterr().out.split() == names
    assert serialize_model(load_model(out)) == out.read_text()


def test_huge_real_values_train_and_predict(tmp_path, capsys):
    # the threshold between 1e308 and 1.5e308 is finite although their sum
    # is not, so the model can be written
    csv = tmp_path / "h.csv"
    csv.write_text("x,class\n1e308,a\n1.5e308,b\n1e308,a\n1.5e308,b\n")
    sch = tmp_path / "h.schema"
    sch.write_text("x,real\n")
    model = tmp_path / "m.json"
    assert run(["train", "--data", csv, "--schema", sch, "--out", model]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "train_acc=1.0000" in captured.out
    assert json.loads(model.read_text())["root"]["theta"] == 1.25e308
    assert run(["predict", "--model", model, "--data", csv]) == 0
    assert capsys.readouterr().out.split() == ["a", "b", "a", "b"]


@pytest.mark.parametrize("backend", ["baseline", "treemap", "quantum"])
@pytest.mark.parametrize("lo,hi", [("1.0000000000000002", "1.0000000000000004"),
                                   ("5e-324", "1e-323")])
def test_adjacent_float_values_split_once(tmp_path, capsys, backend, lo, hi):
    # the midpoint of two adjacent floats rounds up to the upper one, so
    # the threshold is the lower value, and one split separates the classes
    csv = tmp_path / "adj.csv"
    csv.write_text("x,class\n%s,a\n%s,b\n%s,a\n%s,b\n" % (lo, hi, lo, hi))
    sch = tmp_path / "adj.schema"
    sch.write_text("x,real\n")
    model = tmp_path / "m.json"
    assert run(["train", "--data", csv, "--schema", sch, "--out", model,
                "--backend", backend, "--seed", 1]) == 0
    out = capsys.readouterr().out
    assert "internal nodes=1 " in out and "train_acc=1.0000" in out
    assert json.loads(model.read_text())["root"]["theta"] == float(lo)
    assert run(["predict", "--model", model, "--data", csv]) == 0
    assert capsys.readouterr().out.split() == ["a", "b", "a", "b"]


@pytest.mark.parametrize("size", [10**30, 10**15])  # too large to index, to allocate
def test_huge_discrete_domain_exits_two_and_writes_nothing(tmp_path, capsys, size):
    csv = tmp_path / "d.csv"
    csv.write_text("c,class\n1,a\n2,b\n1,a\n2,b\n")
    sch = tmp_path / "d.schema"
    sch.write_text("c,discrete,%d\n" % (size,))
    assert run(["train", "--data", csv, "--schema", sch, "--out", tmp_path / "m.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.schema"]


@pytest.mark.parametrize("size", [10**30, 10**15])  # too large to index, to allocate
@pytest.mark.parametrize(
    "backend", [["--backend", "treemap"], ["--backend", "quantum", "--seed", 0]],
    ids=["treemap", "quantum"],
)
def test_huge_discrete_domain_exits_two_on_the_one_view_pass(tmp_path, capsys, size, backend):
    # 4 rows make one small view, which every backend scores in one pass
    # over its discrete attributes
    csv = tmp_path / "d.csv"
    csv.write_text("c,class\n1,a\n2,b\n1,a\n2,b\n")
    sch = tmp_path / "d.schema"
    sch.write_text("c,discrete,%d\n" % (size,))
    args = ["train", "--data", csv, "--schema", sch, "--out", tmp_path / "m.json"]
    assert run(args + backend) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.schema"]


def test_train_has_no_repeats_override(tmp_path, capsys):
    csv, sch = write_xor(tmp_path)
    args = ["train", "--data", csv, "--schema", sch, "--out", tmp_path / "m.json",
            "--backend", "quantum", "--seed", 1, "--repeats", 2]
    with pytest.raises(SystemExit) as exit_info:
        run(args)
    assert exit_info.value.code == 2
    assert "--repeats" in capsys.readouterr().err


def test_predict_header_only_file_prints_nothing(tmp_path, capsys):
    csv, sch = write_xor(tmp_path)
    model = tmp_path / "m.json"
    run(["train", "--data", csv, "--schema", sch, "--out", model])
    capsys.readouterr()
    rows = tmp_path / "rows.csv"
    rows.write_text("x1,x2\n")
    assert run(["predict", "--model", model, "--data", rows]) == 0
    assert capsys.readouterr().out == ""


HUGE_FIELD = "9" * 200_000  # over the csv module's 131072-character field limit


def test_schema_field_over_csv_limit_exits_two(tmp_path, capsys):
    csv, sch = write_xor(tmp_path)
    sch.write_text("x1,real\nx2,%s\n" % (HUGE_FIELD,))
    assert run(["train", "--data", csv, "--schema", sch, "--out", tmp_path / "m.json"]) == 2
    assert capsys.readouterr().err == (
        "error: %s line 2: field larger than field limit (131072)\n" % (sch,)
    )


def test_training_field_over_csv_limit_exits_two(tmp_path, capsys):
    csv, sch = write_xor(tmp_path)
    csv.write_text("x1,x2,class\n0,0,A\n1,%s,B\n" % (HUGE_FIELD,))
    assert run(["train", "--data", csv, "--schema", sch, "--out", tmp_path / "m.json"]) == 2
    assert capsys.readouterr().err == (
        "error: %s line 3: field larger than field limit (131072)\n" % (csv,)
    )
    assert not (tmp_path / "m.json").exists()


def test_predict_field_over_csv_limit_exits_two(tmp_path, capsys):
    csv, sch = write_xor(tmp_path)
    model = tmp_path / "m.json"
    assert run(["train", "--data", csv, "--schema", sch, "--out", model]) == 0
    capsys.readouterr()
    rows = tmp_path / "rows.csv"
    rows.write_text("x1,x2\n0,%s\n" % (HUGE_FIELD,))
    assert run(["predict", "--model", model, "--data", rows]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: %s line 2: field larger than field limit (131072)\n" % (rows,)
    )


def test_a_build_that_raises_value_error_exits_two_and_writes_nothing(
    tmp_path, capsys, monkeypatch
):
    # main reports every command's ValueError, not only the reader's
    def boom(data, config):
        raise ValueError("boom")

    monkeypatch.setattr("qdtree.cli._build", boom)
    csv, sch = write_xor(tmp_path)
    out = tmp_path / "m.json"
    assert run(["train", "--data", csv, "--schema", sch, "--out", out]) == 2
    assert capsys.readouterr().err == "error: boom\n"
    assert not out.exists()


def test_running_out_of_memory_while_reading_exits_two(tmp_path, capsys, monkeypatch):
    def exhausted(path, attributes):
        raise MemoryError

    monkeypatch.setattr("qdtree.cli.load_csv", exhausted)
    csv, sch = write_xor(tmp_path)
    out = tmp_path / "m.json"
    assert run(["train", "--data", csv, "--schema", sch, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: out of memory; is a discrete domain size too large?\n"
    )
    assert not out.exists()


def _unwritable_model(tmp_path, csv, sch):
    return ["train", "--data", csv, "--schema", sch, "--out", tmp_path / "no" / "m.json"]


def _unwritable_report(tmp_path, csv, sch):
    return ["train", "--data", csv, "--schema", sch, "--out", tmp_path / "m.json",
            "--backend", "quantum", "--seed", 0, "--report", tmp_path / "no" / "r.json"]


def _unwritable_bench(tmp_path, csv, sch):
    return ["bench", "--n", 16, "--m", "4", "--d", "2", "--max-height", 1,
            "--out", tmp_path / "no" / "b.csv"]


def _model_onto_directory(tmp_path, csv, sch):
    return ["train", "--data", csv, "--schema", sch, "--out", "."]


@pytest.mark.parametrize(
    "argv",
    [_unwritable_model, _unwritable_report, _unwritable_bench, _model_onto_directory],
    ids=["train-out", "train-report", "bench-out", "train-out-directory"],
)
def test_unwritable_output_exits_two(tmp_path, capsys, monkeypatch, argv):
    csv, sch = write_xor(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run(argv(tmp_path, csv, sch)) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
    # a failed report write leaves no new model behind either
    assert not (tmp_path / "m.json").exists()


def test_model_write_failing_mid_stream_leaves_nothing(tmp_path, capsys, monkeypatch):
    # the model is written in chunks; the second one fails after the first
    # has reached the temporary file
    data = random_dataset(random_schema(6, 16, "mid", kinds="discrete", max_domain=4), 300, "mid")
    csv = tmp_path / "d.csv"
    sch = tmp_path / "d.schema"
    save_csv(data, csv)
    write_schema(data.schema.attributes, sch)
    real_open = open
    writes = []

    class FailingFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, text):
            writes.append(len(text))
            if len(writes) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(text)

    monkeypatch.setattr(
        builder, "open", lambda *a, **k: FailingFile(real_open(*a, **k)), raising=False
    )
    model = tmp_path / "m.json"
    assert run(["train", "--data", csv, "--schema", sch, "--out", model]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write %s: No space left on device\n" % (model,)
    )
    assert len(writes) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.schema"]
