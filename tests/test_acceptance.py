"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they print.
The final criterion (full CICIoMT2024 reproduction) is a documented
multi-hour run gated behind environment variables and skipped by default.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from flowsentinel.cli import run
from flowsentinel.dataset import default_taxonomy, load_csv, map_labels
from flowsentinel.layers import (
    Conv1DLayer,
    DenseLayer,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    maxpool1d_backward,
    maxpool1d_forward,
    relu_backward,
)
from flowsentinel.metrics import classification_report, confusion_matrix
from flowsentinel.optim import softmax_ce_grad
from flowsentinel.pipeline import (
    SplitIndices,
    apply_standardizer,
    encode_labels,
    fit_standardizer,
    stratified_split,
)
from flowsentinel.store import load_model
from flowsentinel.tensor import Tensor
from flowsentinel.trainer import (
    ArchitectureConfig,
    TrainConfig,
    backward,
    build_model,
    evaluate,
    flatten_length,
    forward,
    param_views,
    predict,
    train,
)
from flowsentinel.errors import DataError

from conftest import gaussian_blobs, write_flow_csv
from oracles import (
    assert_grad_close,
    central_diff,
    central_diff_stacked,
    conv1d_brute,
    fast_model_loss,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {name}")
        raise
    print(f"ACCEPTANCE {number} PASS: {name}")


def test_criterion_1_gradient_suite():
    with criterion(1, "gradient checks, per-layer 1e-6 and end-to-end 1e-5, < 30 s"):
        start = time.perf_counter()

        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)

            # conv: length 8, 2 channels, 3 filters
            x = rng.standard_normal((8, 2))
            w = rng.standard_normal((3, 2, 3))
            b = rng.standard_normal(3)
            probe = rng.standard_normal((6, 3))
            layer = Conv1DLayer(w, b)
            d_weights, d_bias, d_input = conv1d_backward(layer, x[None], probe[None])

            def conv_loss():
                return float(np.sum(conv1d_brute(x, w, b) * probe))

            for analytic, target in ((d_weights, w),
                                     (d_bias, b),
                                     (d_input[0], x)):
                assert_grad_close(analytic, central_diff(conv_loss, target),
                                  rel=1e-6, floor=1e-3, label="conv")

            # maxpool (margins keep window maxima unique)
            xp = rng.standard_normal((10, 3)) + np.arange(30).reshape(10, 3) * 0.01
            probe_p = rng.standard_normal((5, 3))
            _, arg = maxpool1d_forward(xp)
            analytic = maxpool1d_backward(arg, probe_p, (10, 3))

            def pool_loss():
                return float(np.sum(xp[:10].reshape(5, 2, 3).max(axis=1) * probe_p))

            assert_grad_close(analytic, central_diff(pool_loss, xp),
                              rel=1e-6, floor=1e-3, label="pool")

            # relu (inputs kept away from the kink)
            xr = rng.standard_normal((6, 4))
            xr = np.where(np.abs(xr) < 1e-3, 0.5, xr)
            probe_r = rng.standard_normal((6, 4))
            analytic = relu_backward(xr, probe_r)

            def relu_loss():
                return float(np.sum(np.maximum(xr, 0.0) * probe_r))

            assert_grad_close(analytic, central_diff(relu_loss, xr),
                              rel=1e-6, floor=1e-3, label="relu")

            # dense
            wd = rng.standard_normal((5, 7))
            bd = rng.standard_normal(5)
            xd = rng.standard_normal(7)
            probe_d = rng.standard_normal(5)
            dlayer = DenseLayer(wd, bd)
            d_wd, d_bd, d_xd = dense_backward(dlayer, xd[None], probe_d[None])

            def dense_loss():
                return float(np.sum((wd @ xd + bd) * probe_d))

            for analytic, target in ((d_wd, wd),
                                     (d_bd, bd),
                                     (d_xd[0], xd)):
                assert_grad_close(analytic, central_diff(dense_loss, target),
                                  rel=1e-6, floor=1e-3, label="dense")

            # softmax + cross-entropy
            logits = rng.standard_normal(5) * 2
            target = rng.integers(0, 5)
            analytic = softmax_ce_grad(logits[None], np.array([target])).grad[0]

            def ce_loss():
                e = np.exp(logits - logits.max())
                p = e / e.sum()
                return float(-np.log(max(p[target], 1e-12)))

            assert_grad_close(analytic, central_diff(ce_loss, logits),
                              rel=1e-6, floor=1e-3, label="softmax-ce")

        # end-to-end: every parameter of an F=12, C=3 model, 10 seeds
        for seed in range(10):
            rng = np.random.default_rng(9000 + seed)
            model = build_model(ArchitectureConfig(12, 3), rng)
            x = rng.standard_normal((12, 1))
            y = rng.integers(0, 3)
            logits, activations = forward(model, x[None])
            lv = softmax_ce_grad(logits, np.array([y]))
            grads = param_views(model.arch, backward(model, activations, lv.grad))
            loss = float(lv.loss[0])
            params = {n: p.copy() for n, p in model.params.items()}
            assert abs(fast_model_loss(params, x, y) - loss) <= 1e-12 * max(1.0, abs(loss))
            for name in params:
                numeric = central_diff_stacked(
                    lambda stack: fast_model_loss({**params, name: stack}, x, y),
                    params[name],
                )
                assert_grad_close(grads[name], numeric, rel=1e-5,
                                  floor=1e-4, label=name)

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_convolution_oracle():
    with criterion(2, "conv1d bit-equal to brute force on 100 random shapes"):
        rng = np.random.default_rng(100)
        for _ in range(100):
            length = int(rng.integers(3, 33))
            channels = int(rng.integers(1, 5))
            filters = int(rng.integers(1, 9))
            x = rng.standard_normal((length, channels))
            w = rng.standard_normal((filters, channels, 3))
            b = rng.standard_normal(filters)
            layer = Conv1DLayer(w, b)
            got = conv1d_forward(layer, x[None])[0]
            assert np.array_equal(got, conv1d_brute(x, w, b))


def test_criterion_3_metrics_oracle():
    with criterion(3, "classification report on the fixed hand-counted case"):
        m = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert m.tolist() == [[1, 1], [0, 2]]
        report = classification_report(m, ["a", "b"])
        assert abs(report.accuracy - 0.75) < 1e-12
        assert abs(report.macro.f1 - (2 / 3 + 0.8) / 2) < 1e-12


def test_criterion_4_shape_chain():
    with criterion(4, "F=16 gives flatten 128 and 3x128 output; F=7 rejected"):
        arch = ArchitectureConfig(feature_count=16, class_count=3)
        assert flatten_length(arch) == 128
        model = build_model(arch, np.random.default_rng(0))
        assert model.params["dense1.weights"].shape == (128, 128)
        assert model.params["output.weights"].shape == (3, 128)
        with pytest.raises(DataError, match="feature_count 7 is too small"):
            ArchitectureConfig(feature_count=7, class_count=3)


def test_criterion_5_memorization_and_separable_blobs():
    with criterion(5, "memorization reaches 1.0; blobs reach >= 0.95, < 60 s"):
        start = time.perf_counter()

        x, labels = gaussian_blobs(12, seed=11)
        x, labels = x[:32], labels[:32]
        label_map, idx = encode_labels(labels)
        pre = fit_standardizer(Tensor(x), label_map=label_map)
        x3 = apply_standardizer(pre, Tensor(x))
        cfg = TrainConfig(epochs=300, batch_size=32, lr=0.01, seed=5)
        model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(5))
        model, hist = train(
            model, x3, idx, cfg,
            split=SplitIndices(train_indices=list(range(32)), val_indices=[]),
        )
        assert hist.train_acc[-1] == 1.0

        x, labels = gaussian_blobs(120, seed=7)
        label_map, idx = encode_labels(labels)
        split = stratified_split(idx, 1 / 6, seed=42)
        assert len(split.train_indices) == 300 and len(split.val_indices) == 60
        pre = fit_standardizer(
            Tensor(np.ascontiguousarray(x[split.train_indices])), label_map=label_map
        )
        x3 = apply_standardizer(pre, Tensor(x))
        cfg = TrainConfig(epochs=10, batch_size=32, lr=0.001, val_fraction=1 / 6, seed=42)
        model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(42))
        model, hist = train(model, x3, idx, cfg, split=split)
        assert hist.val_acc[-1] >= 0.95

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"training criterion took {elapsed:.1f}s"


def test_criterion_6_determinism(tmp_path, capsys):
    with criterion(6, "same seed/data/flags give byte-identical models and output"):
        data = write_flow_csv(tmp_path / "d.csv", n_per_class=15, seed=4)
        argv = ["train", "--data", data, "--epochs", "2", "--seed", "5"]
        out_a, out_b = str(tmp_path / "a.fsnt"), str(tmp_path / "b.fsnt")
        assert run(argv + ["--out", out_a]) == 0
        cap_a = capsys.readouterr()
        assert run(argv + ["--out", out_b]) == 0
        cap_b = capsys.readouterr()
        assert (tmp_path / "a.fsnt").read_bytes() == (tmp_path / "b.fsnt").read_bytes()
        normalize = lambda s, path: s.replace(path, "MODEL")
        assert normalize(cap_a.out, out_a) == normalize(cap_b.out, out_b)
        assert cap_a.err == cap_b.err  # per-epoch metric lines included


def test_criterion_7_serialization(tmp_path, capsys):
    with criterion(7, "round trip preserves predictions; bad files exit 3"):
        data = write_flow_csv(tmp_path / "d.csv", n_per_class=15, seed=4)
        model_path = str(tmp_path / "m.fsnt")
        assert run(["train", "--data", data, "--epochs", "1", "--out", model_path]) == 0
        capsys.readouterr()

        model, pre, _, _, names = load_model(model_path)
        ds = load_csv(data)
        idx1, probs1 = predict(model, pre, ds.features)
        model2, pre2, _, _, _ = load_model(model_path)
        idx2, probs2 = predict(model2, pre2, ds.features)
        assert idx1 == idx2 and np.array_equal(probs1.array, probs2.array)

        blob = bytearray((tmp_path / "m.fsnt").read_bytes())
        blob[:4] = b"JUNK"
        (tmp_path / "bad_magic.fsnt").write_bytes(bytes(blob))
        assert run(["evaluate", "--model", str(tmp_path / "bad_magic.fsnt"),
                    "--data", data]) == 3

        good = (tmp_path / "m.fsnt").read_bytes()
        (tmp_path / "truncated.fsnt").write_bytes(good[:-16])
        assert run(["evaluate", "--model", str(tmp_path / "truncated.fsnt"),
                    "--data", data]) == 3


def test_criterion_8_preprocessing():
    with criterion(8, "z-scored training features; constant columns guarded"):
        rng = np.random.default_rng(88)
        x = rng.standard_normal((500, 9)) * rng.uniform(0.2, 50.0, 9) + 13.0
        x[:, 4] = 2.5  # constant column
        state = fit_standardizer(Tensor(x))
        z = apply_standardizer(state, Tensor(x)).array
        live = [j for j in range(9) if j != 4]
        assert np.all(np.abs(z[:, live].mean(axis=0)) < 1e-9)
        assert np.all(np.abs(z[:, live].std(axis=0) - 1.0) < 1e-9)
        assert bool(state.degenerate[4])
        assert np.all(z[:, 4] == 0.0)


def test_criterion_9_taxonomy():
    with criterion(9, "six categories and {Benign, Attack} on the probe labels"):
        labels = ["Benign", "DDoS-TCP", "DoS-SYN", "MQTT-Malformed_Data",
                  "Recon-VulScan", "ARP_Spoofing"]
        tax = default_taxonomy()
        categories = map_labels(labels, tax, "category")
        assert sorted(set(categories)) == ["Benign", "DDoS", "DoS", "MQTT",
                                           "Recon", "Spoofing"]
        binary = map_labels(labels, tax, "binary")
        assert set(binary) == {"Benign", "Attack"}


TRAIN_ENV = "FLOWSENTINEL_CICIOMT_TRAIN"
TEST_ENV = "FLOWSENTINEL_CICIOMT_TEST"


@pytest.mark.skipif(
    not (os.environ.get(TRAIN_ENV) and os.environ.get(TEST_ENV)),
    reason=f"optional multi-hour CICIoMT2024 run; set {TRAIN_ENV} and {TEST_ENV} "
           "to the dataset's train/test CSV paths to enable",
)
def test_criterion_10_optional_ciciomt_reproduction(tmp_path):
    with criterion(10, "CICIoMT2024 binary accuracy >= 0.98; 19-class macro F1"):
        train_csv = os.environ[TRAIN_ENV]
        test_csv = os.environ[TEST_ENV]

        binary_model = str(tmp_path / "binary.fsnt")
        assert run(["train", "--data", train_csv, "--task", "binary",
                    "--out", binary_model]) == 0
        model, pre, tax, meta, names = load_model(binary_model)
        ds = load_csv(test_csv, meta.label_column, feature_names=names)
        report = evaluate(model, pre, ds, tax)
        assert report.accuracy >= 0.98

        multi_model = str(tmp_path / "multi.fsnt")
        assert run(["train", "--data", train_csv, "--task", "multiclass",
                    "--out", multi_model]) == 0
        model, pre, tax, meta, names = load_model(multi_model)
        ds = load_csv(test_csv, meta.label_column, feature_names=names)
        report = evaluate(model, pre, ds, tax)
        assert report.macro.f1 >= 0.98 - 0.05
