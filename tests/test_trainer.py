import dataclasses
import math
import re

import numpy as np
import pytest

from flowsentinel.dataset import Dataset
from flowsentinel.errors import DataError, FlowSentinelError
from flowsentinel.optim import softmax_ce_grad
from flowsentinel.pipeline import (
    SplitIndices,
    apply_standardizer,
    encode_labels,
    fit_standardizer,
    stratified_split,
)
from flowsentinel.tensor import Tensor
from flowsentinel.trainer import (
    ArchitectureConfig,
    ModelParams,
    TrainConfig,
    backward,
    build_model,
    evaluate,
    flatten_length,
    forward,
    non_finite_param,
    param_shapes,
    param_slices,
    param_views,
    predict,
    shape_chain,
    train,
)
from flowsentinel.trainer import _eval_split

from conftest import blob_taxonomy, gaussian_blobs
from oracles import assert_grad_close, central_diff_stacked, fast_model_loss


def _prepared_blobs(n_per_class, seed, val_fraction=None, train_seed=42):
    """Blobs -> encoded labels, fitted standardizer, split, tensors."""
    x, labels = gaussian_blobs(n_per_class, seed=seed)
    label_map, idx = encode_labels(labels)
    n = len(labels)
    if val_fraction is None:
        split = SplitIndices(train_indices=list(range(n)), val_indices=[])
    else:
        split = stratified_split(idx, val_fraction, seed=train_seed)
    pre = fit_standardizer(
        Tensor(np.ascontiguousarray(x[split.train_indices])), label_map=label_map
    )
    x3 = apply_standardizer(pre, Tensor(x))
    y = np.array(idx)
    return x, labels, label_map, idx, split, pre, x3, y


# --- architecture / shapes --------------------------------------------------

def test_shape_chain_f16():
    arch = ArchitectureConfig(feature_count=16, class_count=3)
    assert shape_chain(arch) == [14, 12, 6, 4, 2]
    assert flatten_length(arch) == 128


@pytest.mark.parametrize("features", range(10, 51))
def test_forward_reads_only_the_features_some_output_depends_on(features):
    arch = ArchitectureConfig(feature_count=features, class_count=3)
    model = build_model(arch, np.random.default_rng(features))
    x = np.random.default_rng(100 + features).standard_normal((3, features, 1))
    read = shape_chain(arch)[0]
    want = forward(model, x)[0].tobytes()
    for index in range(read, features):
        for value in (1e308, -np.inf, np.nan):
            changed = x.copy()
            changed[:, index] = value
            assert forward(model, changed)[0].tobytes() == want, (index, value)
    changed = x.copy()
    changed[:, read - 1] += 5.0
    assert forward(model, changed)[0].tobytes() != want
    if features in (16, 45):
        assert read == {16: 14, 45: 42}[features]


def test_an_unread_feature_leaves_the_gradient_finite():
    # Column 15 at F=16 reaches no output. Were it read, conv1's last row
    # would be infinite, and a gradient term 0 * inf would make conv2's
    # weight gradient NaN: a false "training diverged".
    arch = ArchitectureConfig(feature_count=16, class_count=3)
    model = build_model(arch, np.random.default_rng(0))
    model.params["conv1.weights"][:, 0, 2] = 10.0
    x = np.random.default_rng(1).standard_normal((4, 16, 1))
    x[:, 15] = 1e308
    logits, activations = forward(model, x)
    lv = softmax_ce_grad(logits, np.array([0, 1, 2, 0]))
    assert np.isfinite(lv.loss).all()
    assert non_finite_param(arch, backward(model, activations, lv.grad)) is None


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
    with pytest.raises(DataError, match="feature_count 7 is too small") as err:
        ArchitectureConfig(feature_count=7, class_count=3)
    assert "minimum is 10" in str(err.value)
    with pytest.raises(DataError, match="feature_count 9 is too small"):
        ArchitectureConfig(feature_count=9, class_count=3)
    assert flatten_length(ArchitectureConfig(feature_count=10, class_count=2)) == 64


def test_architecture_is_the_papers_stack():
    arch = ArchitectureConfig(feature_count=16, class_count=3)
    assert [f.name for f in dataclasses.fields(arch)] == ["feature_count",
                                                          "class_count"]
    assert (arch.conv1_filters, arch.conv2_filters, arch.kernel_size,
            arch.pool_size, arch.dense_units) == (32, 64, 3, 2, 128)
    with pytest.raises(TypeError):
        ArchitectureConfig(feature_count=16, class_count=3, dense_units=64)
    with pytest.raises(dataclasses.FrozenInstanceError):
        arch.class_count = 4


@pytest.mark.parametrize("feature_count, class_count, reason", [
    (16.0, 3, "feature_count must be an integer, got 16.0"),
    (True, 3, "feature_count must be an integer, got True"),
    (16, 3.0, "class_count must be an integer, got 3.0"),
    (16, True, "class_count must be an integer, got True"),
    (16, 1, "class_count must be >= 2, got 1"),
    (16, 0, "class_count must be >= 2, got 0"),
])
def test_architecture_sizes_are_integers(feature_count, class_count, reason):
    with pytest.raises(DataError, match=reason):
        ArchitectureConfig(feature_count=feature_count, class_count=class_count)


def test_architecture_takes_numpy_integers_as_ints():
    arch = ArchitectureConfig(np.int64(16), np.int32(2))
    assert arch == ArchitectureConfig(16, 2)
    assert type(arch.feature_count) is int and type(arch.class_count) is int


@pytest.mark.parametrize("field, value, reason", [
    ("epochs", 3.5, "epochs must be an integer, got 3.5"),
    ("batch_size", "32", "batch_size must be an integer, got '32'"),
    ("early_stop_patience", True, "early_stop_patience must be an integer, got True"),
    ("early_stop_patience", -1, "early_stop_patience must be >= 0, got -1"),
    ("lr", "0.001", "lr must be a number, got '0.001'"),
    ("val_fraction", False, "val_fraction must be a number, got False"),
])
def test_train_config_rejects_wrong_types(field, value, reason):
    with pytest.raises(DataError) as err:
        TrainConfig(**{field: value})
    assert str(err.value) == reason


def test_train_config_accepts_numpy_scalars():
    cfg = TrainConfig(epochs=np.int64(2), lr=np.float64(0.01), val_fraction=0.25)
    assert cfg.epochs == 2


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
        y = rng.integers(0, 3)
        logits, activations = forward(model, x[None])  # the N=1 batch
        lv = softmax_ce_grad(logits, np.array([y]))
        grads = param_views(model.arch, backward(model, activations, lv.grad))
        loss = float(lv.loss[0])
        params = {name: p.copy() for name, p in model.params.items()}
        assert abs(fast_model_loss(params, x, y) - loss) <= 1e-12 * max(1.0, abs(loss))
        for name in params:
            numeric = central_diff_stacked(
                lambda stack: fast_model_loss({**params, name: stack}, x, y),
                params[name], h=1e-6,
            )
            assert_grad_close(grads[name], numeric, rel=1e-5, floor=1e-4,
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
    x = Tensor(rng.standard_normal((4, 16)))
    with pytest.raises(DataError, match=r"got \(4, 16, 1\)$"):  # the stack's own layout
        train(model, Tensor._wrap(x.array[:, :, None]), np.array([0, 1, 2, 0]), cfg,
              SplitIndices(train_indices=[0, 1, 2], val_indices=[3]))
    with pytest.raises(DataError, match="training set is empty"):
        train(model, x, np.array([0, 1, 2, 0]), cfg,
              split=SplitIndices(train_indices=[], val_indices=[0]))
    # F=17 flattens to the same 128 values as F=16, so only train can tell
    wide = Tensor(rng.standard_normal((4, 17)))
    with pytest.raises(DataError, match=r"\(samples, 16\), got \(4, 17\)$"):
        train(model, wide, np.array([0, 1, 2, 0]), cfg,
              SplitIndices(train_indices=[0, 1, 2], val_indices=[3]))


@pytest.mark.parametrize("labels", [
    np.eye(3, dtype=int)[[0, 1, 2, 0]],  # one-hot rows
    np.array([0, 1, 2]),  # N - 1 labels
    np.array([0.0, 1.0, 2.0, 0.0]),  # float labels
    np.array([0, 1, -1, 0]),
    np.array([0, 1, 3, 0]),  # index == class_count
], ids=["one-hot", "short", "float", "minus-one", "class-count"])
def test_train_rejects_labels_before_any_batch(monkeypatch, labels):
    import flowsentinel.trainer as trainer_module

    def no_batch(*args):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(trainer_module, "forward", no_batch)
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((4, 16)))
    split = SplitIndices(train_indices=[0, 1, 2], val_indices=[3])
    with pytest.raises(FlowSentinelError):
        train(model, x, labels, TrainConfig(epochs=1), split)


def test_best_epoch_is_last_without_validation():
    _, _, _, _, split, _, x3, y = _prepared_blobs(4, seed=5)
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(0))
    _, hist = train(model, x3, y, TrainConfig(epochs=3), split)
    assert hist.best_epoch == hist.epochs_run() - 1 == 2


def test_memorization_overfit_one_batch():
    # 32 samples in a single batch, 300 epochs at lr 0.01.
    x, labels = gaussian_blobs(12, seed=11)
    x, labels = x[:32], labels[:32]
    label_map, idx = encode_labels(labels)
    pre = fit_standardizer(Tensor(x), label_map=label_map)
    x3 = apply_standardizer(pre, Tensor(x))
    y = np.array(idx)
    split = SplitIndices(train_indices=list(range(32)), val_indices=[])
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
    y = np.array(idx)
    cfg = TrainConfig(epochs=60, lr=0.01, seed=1, early_stop_patience=3,
                      val_fraction=0.25)
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(1))
    model, hist = train(model, x3, y, cfg, split=split)
    assert hist.epochs_run() < 60
    # restored parameters evaluate to the recorded best validation loss
    val_loss, _ = _eval_split(model, x3.array[:, :, None], y, split.val_indices)
    best = min(hist.val_loss)
    assert math.isclose(val_loss, best, rel_tol=0, abs_tol=1e-12)
    assert hist.val_loss[hist.best_epoch] == best


@pytest.mark.parametrize("end", ["first", "last"])
@pytest.mark.parametrize("name", list(param_shapes(ArchitectureConfig(16, 3))))
def test_divergence_guard_names_epoch_batch_and_parameter(monkeypatch, name, end):
    # Batch 2's update makes one value of `name` non-finite: the first or the
    # last of its slice, so every slice boundary of the lookup is crossed.
    import flowsentinel.trainer as trainer_module
    from flowsentinel.optim import adam_step

    _, _, _, _, split, _, x3, y = _prepared_blobs(20, seed=3, val_fraction=0.2)
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(0))
    where = param_slices(model.arch)[name]
    index = where.start if end == "first" else where.stop - 1
    before = []  # the parameters each batch starts from

    def poisoning_step(state, params, grads):
        before.append(params.copy())
        updated = adam_step(state, params, grads)
        if len(before) == 2:
            updated[index] = np.nan if end == "first" else -np.inf
        return updated

    monkeypatch.setattr(trainer_module, "adam_step", poisoning_step)
    with pytest.raises(DataError,
                       match=f"epoch 1, batch 2: {re.escape(name)} is not finite"):
        train(model, x3, y, TrainConfig(epochs=2, seed=0), split=split)
    assert len(before) == 2
    assert not np.array_equal(before[1], before[0])  # batch 1 was applied
    assert np.array_equal(model.values, before[1])  # batch 2 was not
    assert np.isfinite(model.values).all()


def test_model_params_is_one_vector_with_read_only_named_views():
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(0))
    with pytest.raises(TypeError):
        model.params["output.bias"] = np.ones(3)
    for name in ("arch", "values", "params"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, getattr(model, name))
    model.params["output.bias"][...] = [1.0, 2.0, 3.0]
    model.params["conv1.weights"][0, 0, 0] = 4.0
    assert model.values[-3:].tolist() == [1.0, 2.0, 3.0]
    assert model.values[0] == 4.0
    for name, view in model.params.items():
        assert np.shares_memory(view, model.values), name


@pytest.mark.parametrize("values", [
    lambda n: np.zeros(n - 1),
    lambda n: np.zeros(n + 1),
    lambda n: np.zeros((1, n)),
    lambda n: np.zeros(n, dtype=np.int64),
    lambda n: np.zeros(2 * n)[::2],
    lambda n: [0.0] * n,
], ids=["short", "long", "2-d", "int64", "strided", "list"])
def test_model_params_refuses_a_vector_that_does_not_lay_out(values):
    arch = ArchitectureConfig(16, 3)
    count = build_model(arch, np.random.default_rng(0)).values.size
    with pytest.raises(DataError, match=f"float64 vector of {count} values"):
        ModelParams(arch, values(count))


def test_early_stopping_requires_validation_samples():
    _, _, _, _, _, _, x3, y = _prepared_blobs(4, seed=5)
    cfg = TrainConfig(epochs=2, early_stop_patience=1)
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(0))
    with pytest.raises(DataError, match="early stopping needs a non-empty validation"):
        train(model, x3, y, cfg,
              split=SplitIndices(train_indices=list(range(12)), val_indices=[]))


# --- predict / evaluate -------------------------------------------------------

@pytest.fixture(scope="module")
def memorizer():
    x, labels = gaussian_blobs(12, seed=11)
    x, labels = x[:32], labels[:32]
    label_map, idx = encode_labels(labels)
    pre = fit_standardizer(Tensor(x), label_map=label_map)
    x3 = apply_standardizer(pre, Tensor(x))
    y = np.array(idx)
    split = SplitIndices(train_indices=list(range(32)), val_indices=[])
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
    model.params["output.weights"][...] = np.zeros((3, 128))
    model.params["output.bias"][...] = np.zeros(3)
    pre = fit_standardizer(
        Tensor(np.random.default_rng(1).standard_normal((8, 16)))
    )
    pred_idx, probs = predict(model, pre, Tensor(np.random.default_rng(2).standard_normal((4, 16))))
    assert pred_idx == [0, 0, 0, 0]
    assert np.allclose(probs.array, 1 / 3, atol=1e-15)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_predict_rejects_non_finite_outputs():
    model = build_model(ArchitectureConfig(16, 3), np.random.default_rng(0))
    model.params["dense1.bias"][...] = np.full(128, 1e10)
    model.params["output.weights"][...] = np.full((3, 128), 1e300)
    pre = fit_standardizer(
        Tensor(np.random.default_rng(1).standard_normal((8, 16)))
    )
    with pytest.raises(DataError, match="sample 1: the model's outputs"):
        predict(model, pre, Tensor(np.random.default_rng(2).standard_normal((4, 16))))


def test_evaluate_memorized_training_set_is_perfect(memorizer):
    model, pre, raw, labels, label_map, idx = memorizer
    ds = Dataset(
        features=raw,
        raw_labels=labels,
        source="mem",
        feature_names=[f"f{i}" for i in range(16)],
    )
    report = evaluate(model, pre, ds, blob_taxonomy())
    assert report.accuracy == 1.0
    assert np.array_equal(report.confusion, np.diag(np.bincount(idx, minlength=3)))


def test_evaluate_empty_set_rejected(memorizer):
    model, pre, raw, labels, *_ = memorizer
    ds = Dataset(features=Tensor(np.empty((0, 16))), raw_labels=[], source="mem",
                 feature_names=[f"f{i}" for i in range(16)])
    with pytest.raises(DataError, match="evaluation set is empty"):
        evaluate(model, pre, ds, blob_taxonomy())


def test_evaluate_unknown_class_rejected(memorizer):
    model, pre, raw, labels, *_ = memorizer
    ds = Dataset(features=Tensor(raw.array[:2]), raw_labels=["classZ", "class0"],
                 source="mem", feature_names=[f"f{i}" for i in range(16)])
    with pytest.raises(DataError, match="classZ"):
        evaluate(model, pre, ds, blob_taxonomy())
