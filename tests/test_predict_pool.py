"""`predict` runs its forward chunks on a thread pool with the same bytes.

The forward sums nothing across samples, so the pool must reproduce the
one-thread output bit for bit, name the same first non-finite sample, keep
the caller's numpy error state, hold a bounded window of chunks, and leave
no thread behind.
"""

import concurrent.futures
import os
import sys
import threading

import numpy as np
import pytest

from flowsentinel import layers, store, trainer
from flowsentinel.cli import run
from flowsentinel.errors import DataError
from flowsentinel.pipeline import fit_standardizer
from flowsentinel.tensor import Tensor
from flowsentinel.trainer import EVAL_CHUNK, ArchitectureConfig, build_model, predict

from conftest import write_flow_csv

# Rows whose features are this large overflow the logits of `_overflowing`.
HUGE = 1e100
HUGE_ROWS = (44, 69, 149)  # 0-based; the first is in the second chunk


def _model(features, classes, seed=0):
    rng = np.random.default_rng(seed)
    model = build_model(ArchitectureConfig(features, classes), rng)
    pre = fit_standardizer(Tensor(rng.standard_normal((40, features))),
                           label_map=[f"c{i}" for i in range(classes)])
    return model, pre


def _overflowing(model):
    """Finite weights whose logits overflow on rows of HUGE features and
    stay finite on standard-normal ones."""
    model.params["output.weights"][...] = np.full_like(model.params["output.weights"], 1e300)
    return model


def _rows(n, features, seed=1):
    return np.random.default_rng(seed).standard_normal((n, features))


@pytest.mark.parametrize("features,classes", [(16, 3), (45, 19)])
@pytest.mark.parametrize("n", [1, 31, 32, 33, 65, 200])
def test_pool_output_is_bit_equal_to_one_worker(monkeypatch, features, classes, n):
    model, pre = _model(features, classes)
    rows = Tensor(_rows(n, features))
    got = {}
    threads = threading.active_count()
    for workers in (1, 2):
        monkeypatch.setattr(trainer, "WORKERS", workers)
        pred, probs = predict(model, pre, rows)
        assert threading.active_count() == threads
        got[workers] = (pred, probs.array.tobytes())
    assert got[1] == got[2]


def test_chunk_order_holds_with_more_workers_than_cores(monkeypatch):
    model, pre = _model(16, 3)
    rows = Tensor(_rows(20 * EVAL_CHUNK + 5, 16))
    monkeypatch.setattr(trainer, "WORKERS", 1)
    want = predict(model, pre, rows)
    monkeypatch.setattr(trainer, "WORKERS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        pred, probs = predict(model, pre, rows)
    finally:
        sys.setswitchinterval(interval)
    assert (pred, probs.array.tobytes()) == (want[0], want[1].array.tobytes())


@pytest.mark.parametrize("workers", [1, 2])
def test_non_finite_outputs_name_the_first_sample(monkeypatch, workers):
    monkeypatch.setattr(trainer, "WORKERS", workers)
    model, pre = _model(16, 3)
    rows = _rows(200, 16)
    rows[list(HUGE_ROWS)] = HUGE
    threads = threading.active_count()
    # Pool threads must run under the caller's error state: a warning from
    # any of them is an error under this suite's filters.
    with np.errstate(all="ignore"):
        with pytest.raises(DataError) as caught:
            predict(_overflowing(model), pre, Tensor(rows))
    assert str(caught.value) == "sample 45: the model's outputs are not finite"
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_cli_non_finite_outputs_are_one_line(tmp_path, capsys, recwarn,
                                             monkeypatch, workers, command):
    monkeypatch.setattr(trainer, "WORKERS", workers)
    data = write_flow_csv(tmp_path / "flows.csv", n_per_class=70, seed=4)
    good = str(tmp_path / "good.fsnt")
    assert run(["train", "--data", data, "--epochs", "1", "--out", good]) == 0
    model, pre, taxonomy, meta, names = store.load_model(good)
    bad = str(tmp_path / "bad.fsnt")
    store.save_model(bad, _overflowing(model), pre, taxonomy, meta, names)
    lines = (tmp_path / "flows.csv").read_text(encoding="utf-8").splitlines()
    for row in HUGE_ROWS:
        label = lines[row + 1].rsplit(",", 1)[1]
        lines[row + 1] = ",".join([repr(HUGE)] * len(names) + [label])
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run([command, "--model", bad, "--data", str(huge)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sample 45: the model's outputs are not finite\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_window_holds_at_most_workers_plus_one_chunks(monkeypatch):
    monkeypatch.setattr(trainer, "WORKERS", 2)
    events = []
    submit = concurrent.futures.ThreadPoolExecutor.submit
    softmax = layers.softmax

    def counted_submit(pool, *args):
        events.append(+1)
        return submit(pool, *args)

    def counted_softmax(logits):
        events.append(-1)
        return softmax(logits)

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit",
                        counted_submit)
    monkeypatch.setattr(layers, "softmax", counted_softmax)
    model, pre = _model(16, 3)
    predict(model, pre, Tensor(_rows(10 * EVAL_CHUNK, 16)))
    in_flight = np.cumsum(events)
    assert len(events) == 20 and in_flight[-1] == 0
    assert in_flight.max() == 3


def test_an_early_error_cancels_the_chunks_not_yet_started(monkeypatch):
    monkeypatch.setattr(trainer, "WORKERS", 2)
    started = []
    forward = trainer.forward

    def counted_forward(model, x):
        started.append(len(x))
        return forward(model, x)

    monkeypatch.setattr(trainer, "forward", counted_forward)
    model, pre = _model(16, 3)
    rows = _rows(10 * EVAL_CHUNK, 16)
    rows[0] = HUGE
    threads = threading.active_count()
    with np.errstate(all="ignore"), pytest.raises(DataError, match="sample 1:"):
        predict(_overflowing(model), pre, Tensor(rows))
    assert len(started) <= 3
    assert threading.active_count() == threads


def test_one_usable_cpu_builds_no_pool(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(trainer, "WORKERS", trainer._worker_count())
    assert trainer.WORKERS == 1

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    model, pre = _model(16, 3)
    pred, probs = predict(model, pre, Tensor(_rows(200, 16)))
    assert len(pred) == 200


@pytest.mark.parametrize("cpus,workers", [(None, 1), (1, 1), (2, 2), (8, 2)])
def test_worker_count_without_affinity_uses_cpu_count(monkeypatch, cpus, workers):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert trainer._worker_count() == workers


def test_worker_count_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    for mask, workers in (({3}, 1), ({0, 5}, 2), (set(range(16)), 2)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, m=mask: m,
                            raising=False)
        assert trainer._worker_count() == workers
