"""The benchmark's traced run still sees every layer stage of the engine.

`perfbench/spans.py` wraps engine functions by name from outside and stages
each layer call by its arguments. A renamed or removed function, or a pool
call whose rows no longer carry the channel count, would crash or hide a
stage in `--trace 1`; this runs a tiny train and predict under the tracer.
"""

import importlib.util
from pathlib import Path

from flowsentinel.cli import run

from conftest import write_flow_csv

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_train_and_predict_record_every_stage(tmp_path, capsys):
    spans = _load_spans()
    data = write_flow_csv(tmp_path / "d.csv", n_per_class=15, seed=6)
    model = str(tmp_path / "m.fsnt")
    recorder = spans.SpanRecorder()
    with spans.traced(recorder):
        assert run(["train", "--data", data, "--epochs", "2", "--out", model]) == 0
        assert run(["predict", "--model", model, "--data", data,
                    "--out", str(tmp_path / "p.csv")]) == 0
    capsys.readouterr()
    keys = set(recorder.summary())
    for stage in ("conv1", "pool1", "conv2", "pool2", "dense1", "output", "relu"):
        assert f"layers.{stage}.fwd" in keys, stage
        assert f"layers.{stage}.bwd" in keys, stage
    for key in ("layers.softmax.fwd", "optim.softmax_ce", "optim.adam",
                "trainer.validation", "trainer.train", "trainer.predict"):
        assert key in keys, key
