"""Tests of the benchmark itself: every workload runs at smoke size in both
modes and emits exactly the metrics BENCHMARK.json names, with their units.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import datagen, harness, spans  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    assert len(record["output_sha256"]) == 64
    for key in ("nproc", "cpu", "python", "numpy", "blas", "env_pins",
                "src_sha256"):
        assert record["machine"][key], key
    if trace and workload != "predict-wide":
        stages = {key.rsplit(".", 1)[0] for key in record["spans"]}
        layers = ("conv1", "pool1", "conv2", "pool2", "dense1", "output",
                  "relu", "softmax")
        assert {f"layers.{name}" for name in layers} <= stages
        assert {"optim.softmax_ce", "optim.adam"} <= set(record["spans"])


def test_exits_nonzero_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("train-narrow", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_generator_is_seeded_and_holdout_shares_class_means(tmp_path):
    a = datagen.make_rows(5, 1, 190, datagen.CICIOMT_LABELS, 45, 16.0)
    b = datagen.make_rows(5, 1, 190, datagen.CICIOMT_LABELS, 45, 16.0)
    holdout = datagen.make_rows(5, 2, 190, datagen.CICIOMT_LABELS, 45, 16.0)
    other = datagen.make_rows(6, 1, 190, datagen.CICIOMT_LABELS, 45, 16.0)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]
    assert not np.array_equal(a[0], other[0])
    means, scale, offset = datagen.class_geometry(5, 19, 45, 16.0)

    def class_means(features, labels):
        z = (features - offset) / scale
        return np.array([z[[l == name for l in labels]].mean(axis=0)
                         for name in datagen.CICIOMT_LABELS])

    # 10 rows per class: each estimated mean is within a few sigma/sqrt(10).
    assert np.abs(class_means(*a) - means).max() < 2.0
    assert np.abs(class_means(*holdout) - means).max() < 2.0
    pairwise = np.linalg.norm(means[:, None] - means[None], axis=-1)
    assert np.allclose(pairwise[~np.eye(19, dtype=bool)], 16.0)

    path = tmp_path / "a.csv"
    size = datagen.write_csv(str(path), *a)
    assert path.stat().st_size == size
    assert path.read_text().splitlines()[0].split(",")[-1] == "label"


def test_raw_labels_cover_the_default_taxonomy():
    from flowsentinel.dataset import default_taxonomy

    taxonomy = default_taxonomy()
    categories = {taxonomy.category_of(label) for label in datagen.CICIOMT_LABELS}
    assert None not in categories
    assert len(datagen.CICIOMT_LABELS) == 19
    assert len(categories) == harness.CATEGORY_COUNT
    assert set(harness.NARROW_LABELS) <= set(datagen.CICIOMT_LABELS)


def test_span_self_time_excludes_children():
    recorder = spans.SpanRecorder()

    def child():
        time.sleep(0.02)

    def parent():
        recorder.call("child", child)
        recorder.call("child", child)
        time.sleep(0.01)

    recorder.call("parent", parent)
    summary = recorder.summary()
    assert summary["child"]["calls"] == 2
    assert summary["parent"]["s"] >= summary["child"]["s"] + 0.01
    assert summary["parent"]["self_s"] == pytest.approx(
        summary["parent"]["s"] - summary["child"]["s"])
    assert summary["child"]["self_s"] == summary["child"]["s"]


def _plan(tmp_path, **kwargs):
    defaults = dict(argv=["predict"], model=str(tmp_path / "m"),
                    rows=2, data_bytes=1, class_count=2,
                    min_accuracy=0.0, out=str(tmp_path / "p.csv"),
                    truth=["a", "b"])
    defaults.update(kwargs)
    return harness.Plan(**defaults)


def _invocation(argv, code=0, stdout="", stderr=""):
    return harness.Invocation(argv, 0.1, code, stdout, stderr, 1.0, [])


def test_checker_rejects_bad_predictions(tmp_path):
    plan = _plan(tmp_path)
    out = tmp_path / "p.csv"
    checker = harness.Checker(plan)
    out.write_text("predicted_label,prob_a,prob_b\na,0.75,0.25\nb,0.25,0.75\n")
    assert checker.command_accuracy(_invocation(plan.argv)) == 1.0
    out.write_text("predicted_label,prob_a,prob_b\na,0.75,0.25\nb,0.25,0.5\n")
    assert checker.command_accuracy(_invocation(plan.argv)) is None
    out.write_text("predicted_label,prob_a,prob_b\na,0.75,0.25\n")
    assert checker.command_accuracy(_invocation(plan.argv)) is None
    assert checker.command_accuracy(
        _invocation(plan.argv, stderr="Traceback (most recent call last)")) is None
    assert len(checker.failures) == 3


def test_checker_rejects_model_bytes_that_change(tmp_path):
    plan = _plan(tmp_path, argv=["train"], out=None, truth=[], epochs=1)
    model = tmp_path / "m"
    lines = ("epoch 1/1 train_loss=0.1 train_acc=1.0 val_loss=0.1 "
             "val_acc=0.9000\n")
    stdout = ("final train_loss=0.1 train_acc=1.0 val_loss=0.1 val_acc=0.9000\n"
              "model written to m\n")
    checker = harness.Checker(plan)
    model.write_bytes(b"one")
    assert checker.command_accuracy(_invocation(["train"], 0, stdout, lines)) == 0.9
    model.write_bytes(b"two")
    assert checker.command_accuracy(_invocation(["train"], 0, stdout, lines)) is None
    assert "differ between repeats" in checker.failures[0]
