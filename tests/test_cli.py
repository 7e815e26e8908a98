import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentinel import cli
from flowsentinel.cli import run
from flowsentinel.dataset import load_csv

from conftest import write_flow_csv


@pytest.fixture
def flow_csv(tmp_path):
    return write_flow_csv(tmp_path / "flows.csv", n_per_class=20, seed=4)


def _train(flow_csv, tmp_path, *extra):
    out = str(tmp_path / "model.fsnt")
    argv = ["train", "--data", flow_csv, "--out", out, "--epochs", "2",
            "--seed", "7", *extra]
    assert run(argv) == 0
    return out


def test_train_happy_path(flow_csv, tmp_path, capsys):
    out = _train(flow_csv, tmp_path, "--task", "binary")
    captured = capsys.readouterr()
    assert "model written to" in captured.out
    assert "final train_loss=" in captured.out
    epoch_lines = [l for l in captured.err.splitlines() if l.startswith("epoch ")]
    assert len(epoch_lines) == 2
    assert "train_loss=" in epoch_lines[0] and "val_acc=" in epoch_lines[0]
    assert (tmp_path / "model.fsnt").exists()


def test_early_stop_reports_the_restored_epoch(tmp_path, capsys):
    data = write_flow_csv(tmp_path / "flows.csv", n_per_class=30, seed=4)
    out = _train(data, tmp_path, "--epochs", "10", "--lr", "0.1",
                 "--early-stop-patience", "1")
    captured = capsys.readouterr()
    val_losses = [l.split()[4] for l in captured.err.splitlines()
                  if l.startswith("epoch ")]
    best = int(captured.out.split("best_epoch=")[1].split()[0])
    assert best < len(val_losses)  # stopped after a worse epoch
    assert val_losses[best - 1] != val_losses[-1]
    final = next(l for l in captured.out.splitlines() if l.startswith("final "))
    assert final.split()[3] == val_losses[best - 1]
    assert run(["inspect", "--model", out]) == 0
    assert f" {val_losses[best - 1]} " in capsys.readouterr().out


def test_train_usage_errors(tmp_path, capsys):
    assert run(["train", "--out", str(tmp_path / "m.fsnt")]) == 1
    assert "usage" in capsys.readouterr().err
    assert run(["train", "--data", "x.csv", "--out", "m.fsnt", "--bogus"]) == 1
    assert run(["frobnicate"]) == 1
    assert run([]) == 1


def test_train_data_errors(tmp_path, capsys):
    out = str(tmp_path / "m.fsnt")
    assert run(["train", "--data", str(tmp_path / "missing.csv"), "--out", out]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("f1,label\nNaN,Benign\n", encoding="utf-8")
    assert run(["train", "--data", str(bad), "--out", out]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("lr", ["nan", "inf", "0", "-1"])
def test_train_rejects_non_finite_or_non_positive_lr(flow_csv, tmp_path, capsys, lr):
    out = tmp_path / "m.fsnt"
    assert run(["train", "--data", flow_csv, "--lr", lr, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: lr must be a finite number > 0")
    assert captured.err.count("\n") == 1  # one line, no traceback
    assert captured.out == ""
    assert not out.exists()


def _assert_one_error_line(captured, recwarn):
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1  # one line, no traceback
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_train_divergence_is_data_error(flow_csv, tmp_path, capsys, recwarn):
    out = tmp_path / "m.fsnt"
    assert run(["train", "--data", flow_csv, "--lr", "1e300", "--epochs", "2",
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured, recwarn)
    assert "diverged at epoch 1, batch 2" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--limit-per-class", "5"]],
                         ids=["all-rows", "limit-per-class"])
def test_train_rejects_negative_seed(flow_csv, tmp_path, capsys, recwarn, extra):
    out = tmp_path / "m.fsnt"
    assert run(["train", "--data", flow_csv, "--seed", "-1", *extra,
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured, recwarn)
    assert captured.err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def _no_benign_rules(tmp_path, flow_csv):
    """A taxonomy without a Benign category: binary maps every row to
    Attack."""
    rules = tmp_path / "rules.txt"
    rules.write_text("prefix,DDoS,DDoS\nprefix,DoS,DoS\nexact,Benign,Normal\n",
                     encoding="utf-8")
    return [flow_csv, "--task", "binary", "--taxonomy", str(rules)], "binary", "Attack"


def _one_label_csv(tmp_path, flow_csv):
    data = write_flow_csv(tmp_path / "one.csv", n_per_class=10, seed=4,
                          labels=("DoS-SYN",) * 3)
    return [data], "multiclass", "DoS-SYN"


@pytest.mark.parametrize("case", [_no_benign_rules, _one_label_csv],
                         ids=["binary-taxonomy-without-benign", "one-label-csv"])
def test_train_one_class_is_data_error(flow_csv, tmp_path, capsys, recwarn,
                                       case):
    args, task, only = case(tmp_path, flow_csv)
    out = tmp_path / "m.fsnt"
    assert run(["train", "--out", str(out), "--data", *args]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured, recwarn)
    assert f"task {task} maps every row to the one class {only!r}" in captured.err
    assert not out.exists()


def test_train_feature_too_large_to_standardize(flow_csv, tmp_path, capsys,
                                                recwarn):
    lines = Path(flow_csv).read_text(encoding="utf-8").splitlines()
    huge = tmp_path / "huge.csv"
    rows = [lines[0]] + [",".join(["1.7e308"] + l.split(",")[1:]) for l in lines[1:]]
    huge.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "m.fsnt"
    assert run(["train", "--data", str(huge), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured, recwarn)
    assert "feature 1: standardizer mean or std is not finite" in captured.err
    assert not out.exists()


CORRUPTIONS = ("nan-payload", "inf-payload", "output-rows", "dense1-width",
               "extra-entry", "reordered")


def _corrupt(blob, corruption):
    """The bytes of a good model file with its parameter table damaged: the
    payload edited, and the header's tensor directory laid out to match it
    as save_model lays out a table, one tensor after another."""
    header_len = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    payload = blob[12 + header_len :]
    table = {}  # name -> (shape, values), in directory order
    for e in header["tensors"]:
        values = np.frombuffer(payload, "<f8", e["byte_length"] // 8, e["offset"])
        table[e["name"]] = (e["shape"], values.copy())
    if corruption == "nan-payload":
        table["conv1.weights"][1][0] = np.nan
    elif corruption == "inf-payload":
        table["dense1.bias"][1][3] = -np.inf
    elif corruption == "output-rows":  # 4 output rows for 3 classes
        width = table["output.weights"][0][1]
        table["output.weights"] = ([4, width], np.zeros(4 * width))
        table["output.bias"] = ([4], np.zeros(4))
    elif corruption == "dense1-width":  # narrower than the flatten length
        (rows, cols), values = table["dense1.weights"]
        table["dense1.weights"] = (
            [rows, cols - 1], values.reshape(rows, cols)[:, 1:].ravel())
    elif corruption == "extra-entry":
        table["extra.bias"] = ([3], np.zeros(3))
    elif corruption == "reordered":
        items = list(table.items())
        items[0], items[1] = items[1], items[0]
        table = dict(items)
    header["tensors"], offset = [], 0
    for name, (shape, values) in table.items():
        header["tensors"].append({"name": name, "shape": shape, "offset": offset,
                                  "byte_length": values.nbytes})
        offset += values.nbytes
    header_bytes = json.dumps(header, separators=(",", ":"),
                              ensure_ascii=False).encode("utf-8")
    return (blob[:8] + len(header_bytes).to_bytes(4, "little") + header_bytes
            + b"".join(values.astype("<f8").tobytes() for _, values in table.values()))


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corrupt")
    data = write_flow_csv(tmp / "flows.csv", n_per_class=20, seed=4)
    model = str(tmp / "good.fsnt")
    assert run(["train", "--data", data, "--out", model, "--epochs", "1"]) == 0
    return data, model


@pytest.mark.parametrize("command", ["inspect", "predict", "evaluate"])
@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupt_model_is_exit_3(trained_model, tmp_path, capsys, recwarn,
                                 corruption, command):
    data, good = trained_model
    bad = str(tmp_path / "bad.fsnt")
    Path(bad).write_bytes(_corrupt(Path(good).read_bytes(), corruption))
    capsys.readouterr()
    argv = [command, "--model", bad] + ([] if command == "inspect" else ["--data", data])
    assert run(argv) == 3
    captured = capsys.readouterr()
    _assert_one_error_line(captured, recwarn)
    if "payload" in corruption:
        reason = "non-finite value"
    else:
        reason = "tensor directory"
    assert reason in captured.err


def test_extended_model_is_exit_3(trained_model, tmp_path, capsys, recwarn):
    _, good = trained_model
    bad = tmp_path / "long.fsnt"
    bad.write_bytes(Path(good).read_bytes() + bytes(8))
    capsys.readouterr()
    assert run(["inspect", "--model", str(bad)]) == 3
    captured = capsys.readouterr()
    _assert_one_error_line(captured, recwarn)
    assert "payload too long" in captured.err
    assert captured.err.rstrip().endswith("(8 extra)")


def _mutate(data, blob):
    """One damaged copy of a model file: truncated, extended, bit-flipped (half
    the flips aimed at the magic, length field and header), or with a span of
    the length field and header overwritten by another span of them."""
    header_end = 12 + int.from_bytes(blob[8:12], "little")
    kind = data.draw(st.sampled_from(["truncate", "extend", "flip", "splice"]))
    if kind == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    if kind == "extend":
        return blob + data.draw(st.binary(min_size=1, max_size=64))
    if kind == "flip":
        out = bytearray(blob)
        for _ in range(data.draw(st.integers(1, 4))):
            bit = data.draw(st.integers(0, 8 * header_end - 1)
                            | st.integers(0, 8 * len(blob) - 1))
            out[bit // 8] ^= 1 << bit % 8
        return bytes(out)
    start, source = (data.draw(st.integers(8, header_end - 1)) for _ in range(2))
    piece = blob[source : source + data.draw(st.integers(1, 32))]
    return blob[:start] + piece + blob[start + len(piece) :]


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_damaged_model_files_keep_the_exit_contract(trained_model, data):
    # Every damaged file ends in an exit code, never an exception; a failure
    # is one error line and no output, and predict prints no NaN.
    csv_path, good = trained_model
    bad = Path(good).with_name("fuzzed.fsnt")
    bad.write_bytes(_mutate(data, Path(good).read_bytes()))
    for argv in (["inspect", "--model", str(bad)],
                 ["predict", "--model", str(bad), "--data", csv_path]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        if code:
            assert code in (1, 2, 3)
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1 and out.getvalue() == ""
            continue
        assert err.getvalue() == ""
        if argv[0] == "predict":
            probs = [v for row in list(csv.reader(io.StringIO(out.getvalue())))[1:]
                     for v in row[1:]]
            assert probs and all(math.isfinite(float(v)) for v in probs)


def _both_tasks(header, task):
    header["preprocessing"]["task"] = header["metadata"]["task"] = task


HEADER_EDITS = {
    "best_epoch-string": lambda h: h["metadata"].update(best_epoch="3"),
    "final_metrics-list": lambda h: h["metadata"].update(final_metrics=[1, 2]),
    "feature_name-int": lambda h: h["feature_names"].__setitem__(0, 7),
    "class_name-int": lambda h: h["class_names"].__setitem__(0, 7),
    "pattern-int": lambda h: h["taxonomy"]["rules"][1].__setitem__(1, 5),
    "rule-pattern-empty": lambda h: h["taxonomy"]["rules"].__setitem__(
        0, ["contains", "", "Benign"]),
    "rule-category-empty": lambda h: h["taxonomy"]["rules"][1].__setitem__(2, ""),
    "rule-kind-glob": lambda h: h["taxonomy"]["rules"][1].__setitem__(0, "glob"),
    "task-bogus": lambda h: _both_tasks(h, "bogus"),
    "task-disagrees": lambda h: h["metadata"].update(task="binary"),
    "seed-disagrees": lambda h: h["metadata"].update(seed=h["metadata"]["seed"] + 1),
    "metadata-unknown-key": lambda h: h["metadata"].update(note="hand-edited"),
    "shuffle-false": lambda h: h["metadata"]["train_config"].update(
        shuffle_each_epoch=False),
    "train_config-cut": lambda h: h["metadata"].update(train_config={
        "seed": h["metadata"]["seed"], "shuffle_each_epoch": True}),
    "train_config-unknown-key": lambda h: h["metadata"]["train_config"].update(
        momentum=0.9),
    "epochs-float": lambda h: h["metadata"]["train_config"].update(epochs=3.5),
    "patience-bool": lambda h: h["metadata"]["train_config"].update(
        early_stop_patience=True),
    "lr-string": lambda h: h["metadata"]["train_config"].update(lr="0.001"),
    "architecture-cut": lambda h: h["architecture"].pop("dense_units"),
    # the paper's layer sizes are fixed, and compared as JSON integers
    "architecture.dense_units-64": lambda h: h["architecture"].update(dense_units=64),
    "architecture.kernel_size-0": lambda h: h["architecture"].update(kernel_size=0),
    "architecture.conv1_filters-float": lambda h: h["architecture"].update(
        conv1_filters=32.0),
    "architecture.pool_size-bool": lambda h: h["architecture"].update(
        pool_size=True),
    "architecture.feature_count-float": lambda h: h["architecture"].update(
        feature_count=12.0),
    "architecture.class_count-bool": lambda h: h["architecture"].update(
        class_count=True),
    "preprocessing-unknown-key": lambda h: h["preprocessing"].update(scale=2.0),
    "taxonomy-unknown-key": lambda h: h["taxonomy"].update(version=2),
    "binary_positive-Normal": lambda h: h["taxonomy"].update(
        binary_positive="Normal"),
    "header-unknown-key": lambda h: h.update(comment="hand-edited"),
}

RULE_REFUSALS = {
    "rule-pattern-empty": "empty pattern or category",
    "rule-category-empty": "empty pattern or category",
    "rule-kind-glob": "unknown rule kind 'glob'",
}


@pytest.mark.parametrize("command", ["inspect", "predict", "evaluate"])
@pytest.mark.parametrize("edit", HEADER_EDITS)
def test_bad_header_value_is_exit_3(trained_model, tmp_path, capsys, recwarn,
                                    edit, command):
    data, good = trained_model
    blob = Path(good).read_bytes()
    header_len = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    HEADER_EDITS[edit](header)
    new_header = json.dumps(header, separators=(",", ":")).encode("utf-8")
    bad = tmp_path / "edited.fsnt"
    bad.write_bytes(blob[:8] + len(new_header).to_bytes(4, "little") + new_header
                    + blob[12 + header_len :])
    argv = [command, "--model", str(bad)]
    assert run(argv + ([] if command == "inspect" else ["--data", data])) == 3
    captured = capsys.readouterr()
    _assert_one_error_line(captured, recwarn)
    assert f"error: {bad}: " in captured.err
    if edit.startswith("architecture."):
        assert f"error: {bad}: {edit.split('-')[0]} " in captured.err
    if edit in RULE_REFUSALS:  # the taxonomy file reader's own checks
        reason = RULE_REFUSALS[edit]
        assert captured.err == f"error: {bad}: malformed header: {reason}\n"


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_rows_with_wrong_field_count_are_data_errors(trained_model, tmp_path,
                                                     capsys, recwarn, command):
    data, model = trained_model
    lines = Path(data).read_text(encoding="utf-8").splitlines()
    long_row = lines[3] + ",1.0,2.0,3.0"
    short_row = ",".join(lines[5].split(",")[1:])
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("\n".join(lines[:3] + [long_row, lines[4], short_row])
                      + "\n", encoding="utf-8")
    assert run([command, "--model", model, "--data", str(ragged)]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured, recwarn)
    assert "rows with wrong field count rejected: rows 3, 5" in captured.err


def _undecodable_copy(src, dst, line):
    """A copy of `src` whose 1-based `line` starts with bytes that are not
    UTF-8, far enough in that the decoder reads ahead past earlier lines."""
    lines = Path(src).read_bytes().splitlines(keepends=True)
    lines[line - 1] = b"\xff\xfe" + lines[line - 1]
    dst.write_bytes(b"".join(lines))
    return str(dst)


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
def test_undecodable_csv_is_data_error(trained_model, tmp_path, capsys, recwarn,
                                       command):
    data, model = trained_model
    bad = _undecodable_copy(data, tmp_path / "latin.csv", 41)
    if command == "train":
        argv = ["train", "--data", bad, "--out", str(tmp_path / "m.fsnt")]
    else:
        argv = [command, "--model", model, "--data", bad]
    assert run(argv) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured, recwarn)
    assert f"{bad}:41: not valid UTF-8" in captured.err


def test_undecodable_taxonomy_is_data_error(trained_model, tmp_path, capsys,
                                            recwarn):
    data, _ = trained_model
    rules = tmp_path / "rules.txt"
    rules.write_bytes(b"exact,Benign,Benign\nprefix,D\xe9S,DoS\n")
    assert run(["train", "--data", data, "--taxonomy", str(rules),
                "--out", str(tmp_path / "m.fsnt")]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured, recwarn)
    assert f"{rules}:2: not valid UTF-8" in captured.err


def test_oversized_csv_field_is_data_error(trained_model, tmp_path, capsys,
                                           recwarn):
    data, _ = trained_model
    lines = Path(data).read_text(encoding="utf-8").splitlines()
    lines[2] = "1" * 131073 + lines[2][lines[2].index(","):]
    big = tmp_path / "big.csv"
    big.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["train", "--data", str(big), "--out", str(tmp_path / "m.fsnt")]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured, recwarn)
    assert f"{big}:3: field larger than field limit" in captured.err


def test_train_rejects_unknown_label(tmp_path):
    p = write_flow_csv(tmp_path / "odd.csv", n_per_class=12,
                       labels=("Benign", "DDoS-TCP", "Mystery-Attack"))
    assert run(["train", "--data", p, "--task", "category",
                "--out", str(tmp_path / "m.fsnt")]) == 2


def test_evaluate_missing_model_is_exit_3(flow_csv, tmp_path):
    assert run(["evaluate", "--model", str(tmp_path / "missing.fsnt"),
                "--data", flow_csv]) == 3


def test_evaluate_corrupted_model_is_exit_3(flow_csv, tmp_path):
    model = _train(flow_csv, tmp_path)
    blob = bytearray((tmp_path / "model.fsnt").read_bytes())
    blob[:8] = b"XXXXXXXX"
    corrupt = tmp_path / "corrupt.fsnt"
    corrupt.write_bytes(bytes(blob))
    assert run(["evaluate", "--model", str(corrupt), "--data", flow_csv]) == 3


def test_evaluate_text_and_structured(flow_csv, tmp_path, capsys):
    model = _train(flow_csv, tmp_path)
    assert run(["evaluate", "--model", model, "--data", flow_csv]) == 0
    text = capsys.readouterr().out
    assert "accuracy:" in text and "confusion matrix" in text
    assert run(["evaluate", "--model", model, "--data", flow_csv,
                "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"class_names", "confusion", "accuracy", "per_class",
                        "macro", "weighted", "total"}
    assert doc["total"] == 60
    report_path = tmp_path / "report.json"
    assert run(["evaluate", "--model", model, "--data", flow_csv,
                "--format", "structured", "--out", str(report_path)]) == 0
    assert json.loads(report_path.read_text()) == doc


def test_evaluate_handles_reordered_columns(flow_csv, tmp_path):
    model = _train(flow_csv, tmp_path)
    ds = load_csv(flow_csv)
    shuffled = tmp_path / "reordered.csv"
    names = list(reversed(ds.feature_names))
    lines = [",".join(["label"] + names)]
    for i in range(ds.sample_count):
        row = {n: ds.features.array[i][ds.feature_names.index(n)] for n in names}
        lines.append(",".join([ds.raw_labels[i]] + [repr(float(row[n])) for n in names]))
    shuffled.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["evaluate", "--model", model, "--data", str(shuffled)]) == 0


def test_evaluate_reads_only_the_model_columns(flow_csv, tmp_path, capsys):
    # An extra text column the model does not use, and shuffled columns,
    # leave the report byte-identical to the one from the plain file.
    model = _train(flow_csv, tmp_path)
    argv = ["evaluate", "--model", model, "--format", "structured"]
    capsys.readouterr()
    assert run(argv + ["--data", flow_csv]) == 0
    plain = capsys.readouterr().out
    lines = Path(flow_csv).read_text(encoding="utf-8").splitlines()
    order = [12, 5, 0, 11, 3, 8, 1, 10, 2, 7, 4, 9, 6]  # label first, then f5...
    rows = [["device"] + [lines[0].split(",")[j] for j in order]]
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        rows.append([f"sensor-{i % 4}"] + [cells[j] for j in order])
    extra = tmp_path / "extra.csv"
    extra.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    assert run(argv + ["--data", str(extra)]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain
    assert captured.err == ""


def test_predict_round_trip_probabilities(flow_csv, tmp_path):
    model = _train(flow_csv, tmp_path)
    pred_path = tmp_path / "pred.csv"
    assert run(["predict", "--model", model, "--data", flow_csv,
                "--out", str(pred_path)]) == 0
    out = load_csv(str(pred_path), label_column="predicted_label")
    assert out.feature_names == ["prob_Benign", "prob_DDoS-TCP", "prob_DoS-SYN"]
    assert out.sample_count == 60
    sums = out.features.array.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    assert set(out.raw_labels) <= {"Benign", "DDoS-TCP", "DoS-SYN"}

    # reloaded probability columns are bit-identical to the in-memory ones
    from flowsentinel.dataset import load_feature_matrix
    from flowsentinel.store import load_model
    from flowsentinel.trainer import predict as lib_predict
    m, pre, _, _, names = load_model(model)
    features = load_feature_matrix(flow_csv, names)
    _, probs = lib_predict(m, pre, features)
    assert np.array_equal(out.features.array, probs.array)


def test_predict_to_stdout_and_unlabeled_input(flow_csv, tmp_path, capsys):
    model = _train(flow_csv, tmp_path)
    capsys.readouterr()  # drop the training output
    ds = load_csv(flow_csv)
    unlabeled = tmp_path / "unlabeled.csv"
    lines = [",".join(ds.feature_names)]
    for row in ds.features.array[:5]:
        lines.append(",".join(repr(float(v)) for v in row))
    unlabeled.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["predict", "--model", model, "--data", str(unlabeled)]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert out_lines[0].startswith("predicted_label,prob_")
    assert len(out_lines) == 6


def test_inspect(flow_csv, tmp_path, capsys):
    model = _train(flow_csv, tmp_path, "--task", "category")
    assert run(["inspect", "--model", model]) == 0
    text = capsys.readouterr().out
    assert "task: category" in text
    assert "architecture: conv(32,k3)" in text
    assert "dense(128)" in text
    assert "0: Benign" in text
    assert "total: " in text


def test_seeded_runs_are_byte_identical(flow_csv, tmp_path, capsys):
    out_a = str(tmp_path / "a.fsnt")
    out_b = str(tmp_path / "b.fsnt")
    argv = ["train", "--data", flow_csv, "--epochs", "2", "--seed", "5"]
    assert run(argv + ["--out", out_a]) == 0
    stdout_a = capsys.readouterr().out.replace(out_a, "MODEL")
    assert run(argv + ["--out", out_b]) == 0
    stdout_b = capsys.readouterr().out.replace(out_b, "MODEL")
    assert stdout_a == stdout_b
    assert (tmp_path / "a.fsnt").read_bytes() == (tmp_path / "b.fsnt").read_bytes()


def test_predict_on_header_only_csv(flow_csv, tmp_path, capsys):
    model = _train(flow_csv, tmp_path)
    capsys.readouterr()
    ds = load_csv(flow_csv)
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(ds.feature_names) + "\n", encoding="utf-8")
    assert run(["predict", "--model", model, "--data", str(empty)]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == 1 and out_lines[0].startswith("predicted_label")


def test_evaluate_missing_feature_columns_is_data_error(flow_csv, tmp_path, capsys):
    model = _train(flow_csv, tmp_path)
    thin = tmp_path / "thin.csv"
    thin.write_text("label,f0\nBenign,1\n", encoding="utf-8")
    assert run(["evaluate", "--model", model, "--data", str(thin)]) == 2
    assert "f1" in capsys.readouterr().err


def test_predict_is_deterministic(flow_csv, tmp_path):
    model = _train(flow_csv, tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["predict", "--model", model, "--data", flow_csv, "--out", str(a)]) == 0
    assert run(["predict", "--model", model, "--data", flow_csv, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_with_taxonomy_file_and_limit(tmp_path):
    data = write_flow_csv(tmp_path / "d.csv", n_per_class=15,
                          labels=("Benign", "DDoS-TCP", "Odd-Attack"))
    rules = tmp_path / "rules.txt"
    rules.write_text(
        "exact,Benign,Benign\nprefix,DDoS,DDoS\nprefix,Odd,Odd\n",
        encoding="utf-8",
    )
    out = str(tmp_path / "m.fsnt")
    assert run(["train", "--data", data, "--task", "category",
                "--taxonomy", str(rules), "--limit-per-class", "12",
                "--epochs", "1", "--out", out]) == 0
    assert run(["inspect", "--model", out]) == 0


def test_unwritable_out_path_is_data_error(flow_csv, tmp_path, capsys):
    model = _train(flow_csv, tmp_path)
    missing_dir = tmp_path / "no" / "such" / "dir" / "pred.csv"
    assert run(["predict", "--model", model, "--data", flow_csv,
                "--out", str(missing_dir)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_out_dir_is_checked_before_the_forward_pass(flow_csv, tmp_path, capsys,
                                                    recwarn, monkeypatch,
                                                    command):
    model = _train(flow_csv, tmp_path)
    capsys.readouterr()

    def no_forward_pass(*args):
        raise AssertionError("the forward pass ran")

    monkeypatch.setattr(cli, command, no_forward_pass)
    for out, reason in ((tmp_path / "no" / "out.txt", "No such file or directory"),
                        (Path(flow_csv) / "out.txt", "Not a directory"),
                        (tmp_path, "Is a directory")):
        assert run([command, "--model", model, "--data", flow_csv,
                    "--out", str(out)]) == 2
        captured = capsys.readouterr()
        _assert_one_error_line(captured, recwarn)
        assert captured.err == f"error: cannot write {out}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flows.csv", "model.fsnt"]
    bad = tmp_path / "bad.csv"
    bad.write_text("f1,label\nNaN,Benign\n", encoding="utf-8")
    assert run([command, "--model", model, "--data", str(bad),
                "--out", str(out)]) == 2  # CSV first
    assert "cannot write" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_late_out_open_failure_is_one_line(trained_model, tmp_path, capsys,
                                           recwarn, monkeypatch, command):
    data, model = trained_model
    monkeypatch.setattr(cli, "dir_fault", lambda path: None)
    assert run([command, "--model", model, "--data", data,
                "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured, recwarn)
    assert captured.err == f"error: cannot write {tmp_path}: Is a directory\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_failed_out_write_names_the_file(trained_model, capsys, recwarn, command):
    data, model = trained_model
    assert run([command, "--model", model, "--data", data,
                "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured, recwarn)
    assert captured.err == "error: cannot write /dev/full: No space left on device\n"
    assert Path("/dev/full").exists()


@pytest.mark.parametrize("reader", ["csv", "taxonomy", "model"])
def test_read_errors_name_the_path_and_reason(trained_model, tmp_path, capsys,
                                              recwarn, reader):
    data, model = trained_model
    for path, reason in ((tmp_path / "missing", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        argv, what, code = {
            "csv": (["predict", "--model", model, "--data", str(path)], "", 2),
            "taxonomy": (["train", "--data", data, "--taxonomy", str(path),
                          "--out", str(tmp_path / "m.fsnt")], "taxonomy file ", 2),
            "model": (["inspect", "--model", str(path)], "model file ", 3),
        }[reader]
        assert run(argv) == code
        captured = capsys.readouterr()
        _assert_one_error_line(captured, recwarn)
        assert captured.err == f"error: cannot read {what}{path}: {reason}\n"


def test_train_out_dir_is_checked_before_the_first_epoch(flow_csv, tmp_path, capsys,
                                                         recwarn):
    for out, reason in ((tmp_path / "no" / "m.fsnt", "No such file or directory"),
                        (Path(flow_csv) / "m.fsnt", "Not a directory"),
                        (tmp_path, "Is a directory")):
        errs = []
        for _ in range(2):
            assert run(["train", "--data", flow_csv, "--epochs", "2",
                        "--out", str(out)]) == 3
            captured = capsys.readouterr()
            _assert_one_error_line(captured, recwarn)
            assert "epoch" not in captured.err
            errs.append(captured.err)
        assert errs == [f"error: cannot write model file {out}: {reason}\n"] * 2
    bad = tmp_path / "bad.csv"
    bad.write_text("f1,label\nNaN,Benign\n", encoding="utf-8")
    assert run(["train", "--data", str(bad), "--out", str(out)]) == 2  # CSV first


def test_all_three_tasks_over_full_taxonomy(tmp_path, capsys):
    raw = ("Benign", "DDoS-TCP_Flood", "DDoS-UDP_Flood", "DoS-SYN_Flood",
           "MQTT-DDoS-Publish_Flood", "MQTT-Malformed_Data",
           "Recon-Port_Scan", "Recon-VulScan", "ARP_Spoofing")
    rng = np.random.default_rng(14)
    lines = [",".join([f"f{i}" for i in range(12)] + ["label"])]
    for label in raw:
        for _ in range(12):
            row = rng.standard_normal(12) + hash(label) % 7
            lines.append(",".join(repr(float(v)) for v in row) + f",{label}")
    data = tmp_path / "nine.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")

    from flowsentinel.store import load_model
    expected = {"binary": 2, "category": 6, "multiclass": 9}
    for task, classes in expected.items():
        out = str(tmp_path / f"{task}.fsnt")
        assert run(["train", "--data", str(data), "--task", task,
                    "--epochs", "1", "--out", out]) == 0
        model, pre, _, meta, _ = load_model(out)
        assert model.arch.class_count == classes
        assert len(pre.label_map) == classes
        assert pre.task == task
        assert run(["evaluate", "--model", out, "--data", str(data)]) == 0
    report = capsys.readouterr().out
    assert "Spoofing" in report  # category names survive into the last report


def test_train_label_column_flag(tmp_path):
    data = write_flow_csv(tmp_path / "d.csv", n_per_class=12,
                          label_column="attack_type")
    out = str(tmp_path / "m.fsnt")
    assert run(["train", "--data", data, "--label-column", "attack_type",
                "--epochs", "1", "--out", out]) == 0
    # evaluate reuses the stored label column automatically
    assert run(["evaluate", "--model", out, "--data", data]) == 0
