import math

import numpy as np
import pytest

from flowsentinel.dataset import Dataset
from flowsentinel.errors import ConfigurationError, DimensionError, ValidationError
from flowsentinel.pipeline import (
    SplitIndices,
    apply_standardizer,
    encode_labels,
    fit_standardizer,
    one_hot_rows,
    stratified_split,
)
from flowsentinel.tensor import Tensor
from flowsentinel.trainer import (
    ArchitectureConfig,
    TrainConfig,
    build_model,
    evaluate,
    flatten_length,
    loss_and_gradients,
    param_shapes,
    predict,
    shape_chain,
    train,
)
from flowsentinel.trainer import _eval_split

from conftest import blob_taxonomy, gaussian_blobs
from oracles import assert_grad_close, central_diff, fast_model_loss


def _prepared_blobs(n_per_class, seed, val_fraction=None, train_seed=42):
    """Blobs -> encoded labels, fitted standardizer, split, tensors."""
    x, labels = gaussian_blobs(n_per_class, seed=seed)
    label_map, idx = encode_labels(labels)
    n = len(labels)
    if val_fraction is None:
        split = SplitIndices(train_indices=list(range(n)), val_indices=[], seed=train_seed)
    else:
        split = stratified_split(idx, val_fraction, seed=train_seed)
    pre = fit_standardizer(
        Tensor(np.ascontiguousarray(x[split.train_indices])), label_map=label_map
    )
    x3 = apply_standardizer(pre, Tensor(x))
    y = one_hot_rows(idx, len(label_map))
    return x, labels, label_map, idx, split, pre, x3, y


# --- architecture / shapes --------------------------------------------------

def test_shape_chain_f16():
    arch = ArchitectureConfig(feature_count=16, class_count=3)
    assert shape_chain(arch) == [16, 14, 7, 5, 2]
    assert flatten_length(arch) == 128


def test_build_model_f16_shapes():
    model = build_model(
        ArchitectureConfig(feature_count=16, class_count=3),
        np.random.default_rng(0),
    )
    assert model.params["conv1.weights"].shape == (32, 1, 3)
    assert model.params["conv2.weights"].shape == (64, 32, 3)
    assert model.params["dense1.weights"].shape == (128, 128)
    assert model.params["output.weights"].shape == (3, 128)
    assert list(model.params) == list(param_shapes(model.arch))
    for values in model.params.values():
        assert np.all(np.isfinite(values))
    assert not model.params["conv1.bias"].any()  # biases start at zero


def test_feature_count_too_small_rejected():
    with pytest.raises(ConfigurationError) as err:
        ArchitectureConfig(feature_count=7, class_count=3)
    assert "minimum is 10" in str(err.value)
    with pytest.raises(ConfigurationError):
        ArchitectureConfig(feature_count=9, class_count=3)
    assert flatten_length(ArchitectureConfig(feature_count=10, class_count=2)) == 64


def test_build_model_deterministic_per_seed():
    arch = ArchitectureConfig(feature_count=12, class_count=3)
    a = build_model(arch, np.random.default_rng(123))
    b = build_model(arch, np.random.default_rng(123))
    for ta, tb in zip(a.params.values(), b.params.values()):
        assert np.array_equal(ta, tb)


# --- end-to-end gradients ---------------------------------------------------

def test_end_to_end_gradient_matches_finite_differences():
    # Every parameter, 10 seeds, rel < 1e-5; the finite differences are taken
    # on an independent vectorized route computing the same function, which a
    # 1e-12 loss cross-check ties to the production forward.
    for seed in range(10):
        rng = np.random.default_rng(9000 + seed)
        model = build_model(ArchitectureConfig(12, 3), rng)
        x = rng.standard_normal((12, 1))
        y = np.zeros(3)
        y[rng.integers(0, 3)] = 1.0
        loss, grads, _ = loss_and_gradients(model, Tensor(x), Tensor(y))
        params = {name: p.copy() for name, p in model.params.items()}
        assert abs(fast_model_loss(params, x, y) - loss) <= 1e-12 * max(1.0, abs(loss))
        for name in params:
            numeric = central_diff(
                lambda: fast_model_loss(params, x, y), params[name], h=1e-6
            )
            assert_grad_close(grads[name].array, numeric, rel=1e-5, floor=1e-4,
                              label=f"seed {seed} {name}")


# --- training loop ----------------------------------------------------------

def test_train_determinism_bit_exact():
    _, _, _, _, split, _, x3, y = _prepared_blobs(20, seed=3, val_fraction=0.2)
    results = []
    for _ in range(2):
        cfg = TrainConfig(epochs=2, seed=11)
        model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(11))
        model, hist = train(model, x3, y, cfg, split=split)
        results.append((model, hist))
    (m1, h1), (m2, h2) = results
    for t1, t2 in zip(m1.params.values(), m2.params.values()):
        assert np.array_equal(t1, t2)
    assert h1.train_loss == h2.train_loss
    assert h1.val_loss == h2.val_loss
    assert h1.train_acc == h2.train_acc


def test_train_validates_inputs():
    cfg = TrainConfig(epochs=1)
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x3 = Tensor(rng.standard_normal((4, 16, 1)))
    with pytest.raises(DimensionError):
        train(model, x3, Tensor(np.eye(4)), cfg)  # 4 label columns, model has 3
    with pytest.raises(ValidationError):
        train(model, x3, Tensor(np.eye(4)[:, :3]), cfg,
              split=SplitIndices(train_indices=[], val_indices=[0], seed=0))


def test_memorization_overfit_one_batch():
    # 32 samples in a single batch, 300 epochs at lr 0.01.
    x, labels = gaussian_blobs(12, seed=11)
    x, labels = x[:32], labels[:32]
    label_map, idx = encode_labels(labels)
    pre = fit_standardizer(Tensor(x), label_map=label_map)
    x3 = apply_standardizer(pre, Tensor(x))
    y = one_hot_rows(idx, 3)
    split = SplitIndices(train_indices=list(range(32)), val_indices=[], seed=5)
    cfg = TrainConfig(epochs=300, batch_size=32, lr=0.01, seed=5)
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(5))
    model, hist = train(model, x3, y, cfg, split=split)
    assert hist.train_acc[-1] == 1.0
    assert hist.epochs_run() == 300
    # descent sanity: monotone decrease from epoch 10 until the loss is tiny
    losses = hist.train_loss
    for i in range(10, len(losses) - 1):
        if losses[i] < 1e-2:
            break
        assert losses[i + 1] < losses[i], f"loss rose at epoch {i + 1}"
    assert min(losses) < 1e-2


def test_separable_blobs_reach_high_validation_accuracy():
    _, _, _, _, split, _, x3, y = _prepared_blobs(120, seed=7, val_fraction=1 / 6)
    assert len(split.train_indices) == 300 and len(split.val_indices) == 60
    cfg = TrainConfig(epochs=10, batch_size=32, lr=0.001, val_fraction=1 / 6, seed=42)
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(42))
    model, hist = train(model, x3, y, cfg, split=split)
    assert hist.epochs_run() == 10
    assert hist.val_acc[-1] >= 0.95


def test_history_best_epoch_points_at_min_val_loss():
    _, _, _, _, split, _, x3, y = _prepared_blobs(30, seed=2, val_fraction=0.2)
    cfg = TrainConfig(epochs=4, seed=3)
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(3))
    _, hist = train(model, x3, y, cfg, split=split)
    assert hist.epochs_run() == 4
    assert hist.val_loss[hist.best_epoch] == min(hist.val_loss)


def test_early_stopping_stops_and_restores_best():
    # Random labels are unlearnable, so validation loss stops improving fast.
    rng = np.random.default_rng(13)
    x = rng.standard_normal((60, 16))
    labels = [f"class{int(c)}" for c in rng.integers(0, 3, size=60)]
    label_map, idx = encode_labels(labels)
    split = stratified_split(idx, 0.25, seed=1)
    pre = fit_standardizer(
        Tensor(np.ascontiguousarray(x[split.train_indices])), label_map=label_map
    )
    x3 = apply_standardizer(pre, Tensor(x))
    y = one_hot_rows(idx, 3)
    cfg = TrainConfig(epochs=60, lr=0.01, seed=1, early_stop_patience=3,
                      val_fraction=0.25)
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(1))
    model, hist = train(model, x3, y, cfg, split=split)
    assert hist.epochs_run() < 60
    # restored parameters evaluate to the recorded best validation loss
    val_loss, _ = _eval_split(model, x3.array, y.array, split.val_indices)
    best = min(hist.val_loss)
    assert math.isclose(val_loss, best, rel_tol=0, abs_tol=1e-12)
    assert hist.val_loss[hist.best_epoch] == best


def test_divergence_guard_names_epoch_batch_and_parameter(monkeypatch):
    import flowsentinel.trainer as trainer_module

    _, _, _, _, split, _, x3, y = _prepared_blobs(20, seed=3, val_fraction=0.2)
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(0))
    monkeypatch.setattr(trainer_module, "adam_step",
                        lambda state, params, grads: params + np.inf)
    with pytest.raises(ValidationError,
                       match="epoch 1, batch 1: conv1.weights is not finite"):
        train(model, x3, y, TrainConfig(epochs=2, seed=0), split=split)


def test_early_stopping_requires_validation_samples():
    _, _, _, _, _, _, x3, y = _prepared_blobs(4, seed=5)
    cfg = TrainConfig(epochs=2, early_stop_patience=1)
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(0))
    with pytest.raises(ValidationError):
        train(model, x3, y, cfg,
              split=SplitIndices(train_indices=list(range(12)), val_indices=[], seed=0))


# --- predict / evaluate -------------------------------------------------------

@pytest.fixture(scope="module")
def memorizer():
    x, labels = gaussian_blobs(12, seed=11)
    x, labels = x[:32], labels[:32]
    label_map, idx = encode_labels(labels)
    pre = fit_standardizer(Tensor(x), label_map=label_map)
    x3 = apply_standardizer(pre, Tensor(x))
    y = one_hot_rows(idx, 3)
    split = SplitIndices(train_indices=list(range(32)), val_indices=[], seed=5)
    cfg = TrainConfig(epochs=120, batch_size=32, lr=0.01, seed=5)
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(5))
    model, _ = train(model, x3, y, cfg, split=split)
    return model, pre, Tensor(x), labels, label_map, idx


def test_predict_probabilities_and_memorized_labels(memorizer):
    model, pre, raw, labels, label_map, idx = memorizer
    pred_idx, probs = predict(model, pre, raw)
    assert probs.shape == (32, 3)
    sums = probs.array.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    assert pred_idx == idx  # every training sample gets its trained label


def test_predict_tie_breaks_to_lowest_index():
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(0))
    model.params["output.weights"] = np.zeros((3, 128))
    model.params["output.bias"] = np.zeros(3)
    pre = fit_standardizer(
        Tensor(np.random.default_rng(1).standard_normal((8, 16)))
    )
    pred_idx, probs = predict(model, pre, Tensor(np.random.default_rng(2).standard_normal((4, 16))))
    assert pred_idx == [0, 0, 0, 0]
    assert np.allclose(probs.array, 1 / 3, atol=1e-15)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_predict_rejects_non_finite_outputs():
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(0))
    model.params["dense1.bias"] = np.full(128, 1e10)
    model.params["output.weights"] = np.full((3, 128), 1e300)
    pre = fit_standardizer(
        Tensor(np.random.default_rng(1).standard_normal((8, 16)))
    )
    with pytest.raises(ValidationError, match="sample 1: the model's outputs"):
        predict(model, pre, Tensor(np.random.default_rng(2).standard_normal((4, 16))))


def test_evaluate_memorized_training_set_is_perfect(memorizer):
    model, pre, raw, labels, label_map, idx = memorizer
    ds = Dataset(
        features=raw,
        raw_labels=labels,
        source="mem",
        feature_names=[f"f{i}" for i in range(16)],
    )
    report = evaluate(model, pre, ds, blob_taxonomy(), "multiclass")
    assert report.accuracy == 1.0
    assert np.array_equal(report.confusion, np.diag(np.bincount(idx, minlength=3)))


def test_evaluate_task_mismatch_is_configuration_error(memorizer):
    model, pre, raw, labels, *_ = memorizer
    ds = Dataset(features=raw, raw_labels=labels, source="mem",
                 feature_names=[f"f{i}" for i in range(16)])
    with pytest.raises(ConfigurationError):
        evaluate(model, pre, ds, blob_taxonomy(), "binary")


def test_evaluate_empty_set_rejected(memorizer):
    model, pre, raw, labels, *_ = memorizer
    ds = Dataset(features=Tensor(np.empty((0, 16))), raw_labels=[], source="mem",
                 feature_names=[f"f{i}" for i in range(16)])
    with pytest.raises(ValidationError):
        evaluate(model, pre, ds, blob_taxonomy(), "multiclass")


def test_evaluate_unknown_class_rejected(memorizer):
    model, pre, raw, labels, *_ = memorizer
    ds = Dataset(features=Tensor(raw.array[:2]), raw_labels=["classZ", "class0"],
                 source="mem", feature_names=[f"f{i}" for i in range(16)])
    with pytest.raises(ValidationError, match="classZ"):
        evaluate(model, pre, ds, blob_taxonomy(), "multiclass")
