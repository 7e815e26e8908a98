"""Builds the two-conv / two-dense stack, runs mini-batch training with
Adam and validation monitoring, and drives prediction and evaluation.

One `forward`/`backward` pair over (N, F, 1) batches serves training,
validation and prediction; validation and prediction run in chunks of
EVAL_CHUNK samples. The training loop is strictly sequential and
deterministic: given the same seed, data, and config it reproduces
parameters, history, and reports bit-exactly. Per-batch gradients are the
mean of per-sample gradients, summed in the order the samples appear in the
(shuffled) batch, so batching changes no bit of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import layers as L
from .dataset import Dataset, Taxonomy, map_labels
from .errors import ConfigurationError, DimensionError, ValidationError
from .metrics import EvalReport, classification_report, confusion_matrix
from .optim import AdamState, adam_step, glorot_uniform_init, softmax_ce_grad
from .pipeline import PreprocState, SplitIndices, apply_standardizer, stratified_split
from .tensor import Tensor

# Samples per forward pass in validation, predict and evaluate. Past about 32
# samples the hot layers run no faster per sample (they are bound by memory
# traffic, not call overhead), while the chunk's activations, about 75 KB a
# sample at F=45, keep growing.
EVAL_CHUNK = 32

@dataclass
class ArchitectureConfig:
    feature_count: int
    class_count: int
    conv1_filters: int = 32
    conv2_filters: int = 64
    kernel_size: int = 3
    pool_size: int = 2
    dense_units: int = 128

    def __post_init__(self):
        if self.class_count < 1:
            raise ConfigurationError(
                f"class_count must be >= 1, got {self.class_count}"
            )
        shape_chain(self)  # raises if feature_count cannot flow through


def shape_chain(arch: ArchitectureConfig) -> list[int]:
    """Lengths along the stack: [F, conv1, pool1, conv2, pool2].

    Valid convolution maps L to L-k+1; pooling maps L to floor(L/pool).
    Raises if any stage underflows or the flattened length would be 0.
    Both maps are monotone, so the smallest workable F is found by running
    the stages backwards from a final length of 1.
    """
    lengths = [arch.feature_count]
    minimum = 1
    for _ in range(2):
        conv = lengths[-1] - arch.kernel_size + 1
        lengths += [conv, conv // arch.pool_size]
        minimum = minimum * arch.pool_size + arch.kernel_size - 1
    if arch.feature_count < minimum:
        raise ConfigurationError(
            f"feature_count {arch.feature_count} is too small for the "
            f"conv/pool stack; minimum is {minimum}"
        )
    return lengths


def flatten_length(arch: ArchitectureConfig) -> int:
    return shape_chain(arch)[-1] * arch.conv2_filters


def param_shapes(arch: ArchitectureConfig) -> dict[str, tuple[int, ...]]:
    """The parameter table's spec: name -> shape, in stack order.

    This is the only place the names and shapes are written down. Each layer
    is a (weights, bias) pair; conv weights are (filters, in_channels,
    kernel_size) and dense weights (out, in). The order is also the order of
    the model file's tensor directory.
    """
    k = arch.kernel_size
    return {
        "conv1.weights": (arch.conv1_filters, 1, k),
        "conv1.bias": (arch.conv1_filters,),
        "conv2.weights": (arch.conv2_filters, arch.conv1_filters, k),
        "conv2.bias": (arch.conv2_filters,),
        "dense1.weights": (arch.dense_units, flatten_length(arch)),
        "dense1.bias": (arch.dense_units,),
        "output.weights": (arch.class_count, arch.dense_units),
        "output.bias": (arch.class_count,),
    }


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 0.001
    val_fraction: float = 0.2
    seed: int = 42
    early_stop_patience: int = 0  # 0 disables early stopping
    shuffle_each_epoch: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValidationError(
                f"lr must be a finite number > 0, got {self.lr}"
            )
        if not 0.0 < self.val_fraction < 1.0:
            raise ValidationError(
                f"val_fraction must be in (0, 1), got {self.val_fraction}"
            )
        if self.early_stop_patience < 0:
            raise ValidationError("early_stop_patience must be >= 0")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 0-based index of the minimum validation loss

    def epochs_run(self) -> int:
        return len(self.train_loss)


@dataclass
class ModelParams:
    arch: ArchitectureConfig
    params: dict[str, np.ndarray]  # keys and shapes as param_shapes(arch)


def build_model(arch: ArchitectureConfig, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights and zero biases, drawn in table order."""
    params = {}
    for name, shape in param_shapes(arch).items():
        if len(shape) == 1:
            params[name] = np.zeros(shape)
            continue
        receptive = math.prod(shape[2:])
        init = glorot_uniform_init(
            shape, fan_in=shape[1] * receptive, fan_out=shape[0] * receptive, rng=rng
        )
        params[name] = init.array.copy()  # writable, like every later update
    return ModelParams(arch=arch, params=params)


def _layers(model: ModelParams) -> list:
    """Layer views over the table's (weights, bias) pairs, in stack order.

    The views hold the table's arrays themselves; the kernels only read them.
    """
    arrays = list(model.params.values())
    views = []
    for w, b in zip(arrays[0::2], arrays[1::2]):
        if w.ndim == 3:
            filters, channels, k = w.shape
            views.append(L.Conv1DLayer(w, b, channels, filters, k))
        else:
            views.append(L.DenseLayer(w, b))
    return views


def _pool(x: np.ndarray, pool: int) -> tuple[np.ndarray, np.ndarray]:
    """Max-pool an (N, L, C) batch as the rows of its samples, each trimmed
    to whole windows so that no window spans two samples."""
    n, length, channels = x.shape
    t_out = length // pool
    rows = x[:, : t_out * pool].reshape(n * t_out * pool, channels)
    pooled, argmax = L.maxpool1d_forward(rows, pool)
    return pooled.reshape(n, t_out, channels), argmax


def _unpool(
    argmax: np.ndarray, grad: np.ndarray, shape: tuple[int, int, int], pool: int
) -> np.ndarray:
    """Gradient of `_pool` for an input of `shape`; trimmed rows get 0."""
    n, length, channels = shape
    t_out = length // pool
    rows = L.maxpool1d_backward(
        argmax, grad.reshape(n * t_out, channels), (n * t_out * pool, channels)
    )
    out = np.zeros(shape)
    out[:, : t_out * pool] = rows.reshape(n, t_out * pool, channels)
    return out


def forward(model: ModelParams, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Run an (N, feature_count, 1) batch through the stack.

    Returns the (N, class_count) logits and the activations `backward` reads.
    """
    conv1, conv2, dense1, output = _layers(model)
    pool = model.arch.pool_size
    c1 = L.conv1d_forward(conv1, x)
    p1, arg1 = _pool(L.relu(c1), pool)
    c2 = L.conv1d_forward(conv2, p1)
    p2, arg2 = _pool(L.relu(c2), pool)
    flat = L.flatten(p2)
    h = L.dense_forward(dense1, flat)
    hr = L.relu(h)
    logits = L.dense_forward(output, hr)
    return logits, (x, c1, arg1, p1, c2, arg2, flat, h, hr)


def backward(
    model: ModelParams, activations: tuple, grad_logits: np.ndarray
) -> dict[str, np.ndarray]:
    """Parameter gradients keyed as the table, each summed over the batch
    in sample order."""
    conv1, conv2, dense1, output = _layers(model)
    x, c1, arg1, p1, c2, arg2, flat, h, hr = activations
    pool = model.arch.pool_size
    g_out = L.dense_backward(output, hr, grad_logits)
    g_h = L.relu_backward(h, g_out.d_input)
    g_dense1 = L.dense_backward(dense1, flat, g_h)
    d_c2 = L.relu_backward(c2, _unpool(arg2, g_dense1.d_input, c2.shape, pool))
    g_conv2 = L.conv1d_backward(conv2, p1, d_c2)
    d_c1 = L.relu_backward(c1, _unpool(arg1, g_conv2.d_input, c1.shape, pool))
    g_conv1 = L.conv1d_backward(conv1, x, d_c1)
    layer_grads = (g_conv1, g_conv2, g_dense1, g_out)
    pairs = [g for lg in layer_grads for g in (lg.d_weights, lg.d_bias)]
    return dict(zip(model.params, pairs))


def loss_and_gradients(
    model: ModelParams, x: Tensor, one_hot_target: Tensor
) -> tuple[float, dict[str, Tensor], Tensor]:
    """One (feature_count, 1) sample as the N=1 batch: loss, parameter
    gradients keyed as the table, and the logits."""
    logits, activations = forward(model, x.array[None])
    lv = softmax_ce_grad(logits, one_hot_target.array[None])
    grads = backward(model, activations, lv.grad)
    return (
        float(lv.loss[0]),
        {name: Tensor._wrap(g) for name, g in grads.items()},
        Tensor._wrap(logits[0]),
    )


def _correct(logits: np.ndarray, one_hot: np.ndarray) -> int:
    return int(np.count_nonzero(np.argmax(logits, axis=1) == np.argmax(one_hot, axis=1)))


def _eval_split(
    model: ModelParams, x3: np.ndarray, y: np.ndarray, indices: Sequence[int]
) -> tuple[float, float]:
    """Mean loss and accuracy over the given sample indices (NaN if empty)."""
    if len(indices) == 0:
        return math.nan, math.nan
    total_loss = 0.0
    correct = 0
    for start in range(0, len(indices), EVAL_CHUNK):
        chunk = indices[start : start + EVAL_CHUNK]
        logits, _ = forward(model, x3[chunk])
        for loss in softmax_ce_grad(logits, y[chunk]).loss:
            total_loss += float(loss)  # in sample order, as in training
        correct += _correct(logits, y[chunk])
    n = len(indices)
    return total_loss / n, correct / n


def train(
    model: ModelParams,
    dataset_features: Tensor,
    one_hot_labels: Tensor,
    cfg: TrainConfig,
    split: SplitIndices | None = None,
    on_epoch: Callable[[int, int, float, float, float, float], None] | None = None,
) -> tuple[ModelParams, TrainHistory]:
    """Mini-batch training with per-epoch validation monitoring.

    Features must already be standardized and shaped (samples, F, 1); labels
    one-hot with class_count columns. When `split` is omitted it is derived
    from cfg.val_fraction and cfg.seed. With early_stop_patience > 0,
    training stops after that many consecutive epochs without a validation
    loss improvement and the best epoch's parameters are restored. A batch
    whose loss or updated parameters are not finite raises ValidationError
    naming its epoch and batch.
    """
    if dataset_features.rank != 3 or dataset_features.shape[2] != 1:
        raise DimensionError(
            f"features must be (samples, features, 1), got {dataset_features.shape}"
        )
    if one_hot_labels.rank != 2 or one_hot_labels.shape[1] != model.arch.class_count:
        raise DimensionError(
            f"labels must be (samples, {model.arch.class_count}), "
            f"got {one_hot_labels.shape}"
        )
    if dataset_features.shape[0] != one_hot_labels.shape[0]:
        raise DimensionError(
            f"{dataset_features.shape[0]} samples vs "
            f"{one_hot_labels.shape[0]} label rows"
        )
    x3 = dataset_features.array
    y = one_hot_labels.array
    if split is None:
        class_indices = [int(i) for i in np.argmax(y, axis=1)]
        split = stratified_split(class_indices, cfg.val_fraction, cfg.seed)
    train_idx = list(split.train_indices)
    val_idx = list(split.val_indices)
    if not train_idx:
        raise ValidationError("training set is empty")
    if cfg.early_stop_patience > 0 and not val_idx:
        raise ValidationError(
            "early stopping needs a non-empty validation split"
        )

    states = {
        name: AdamState(shape=p.shape, lr=cfg.lr) for name, p in model.params.items()
    }
    history = TrainHistory()
    rng = np.random.default_rng(cfg.seed)
    best_val = math.inf
    best_params: dict[str, np.ndarray] | None = None
    stale = 0

    for epoch in range(cfg.epochs):
        if cfg.shuffle_each_epoch:
            order = [train_idx[j] for j in rng.permutation(len(train_idx))]
        else:
            order = train_idx
        epoch_loss = 0.0
        epoch_correct = 0
        for b, start in enumerate(range(0, len(order), cfg.batch_size), 1):
            batch = order[start : start + cfg.batch_size]
            xb, yb = x3[batch], y[batch]
            logits, activations = forward(model, xb)
            lv = softmax_ce_grad(logits, yb)
            for loss in lv.loss:
                epoch_loss += float(loss)
            if not math.isfinite(epoch_loss):
                raise _diverged(epoch, b, "the loss")
            epoch_correct += _correct(logits, yb)
            grads = backward(model, activations, lv.grad)
            scale = 1.0 / len(batch)
            for name, param in model.params.items():
                updated = adam_step(states[name], param, grads[name] * scale)
                if not np.isfinite(updated).all():
                    raise _diverged(epoch, b, name)
                model.params[name] = updated
        n_train = len(order)
        train_loss = epoch_loss / n_train
        train_acc = epoch_correct / n_train
        val_loss, val_acc = _eval_split(model, x3, y, val_idx)
        history.train_loss.append(train_loss)
        history.train_acc.append(train_acc)
        history.val_loss.append(val_loss)
        history.val_acc.append(val_acc)
        if on_epoch is not None:
            on_epoch(epoch + 1, cfg.epochs, train_loss, train_acc, val_loss, val_acc)
        if not math.isnan(val_loss) and val_loss < best_val:
            best_val = val_loss
            best_params = dict(model.params)  # adam_step never updates in place
            stale = 0
        else:
            stale += 1
        if cfg.early_stop_patience > 0 and stale >= cfg.early_stop_patience:
            break

    if cfg.early_stop_patience > 0 and best_params is not None:
        model.params.update(best_params)
    history.best_epoch = _best_epoch(history.val_loss)
    return model, history


def _diverged(epoch: int, batch: int, what: str) -> ValidationError:
    return ValidationError(
        f"training diverged at epoch {epoch + 1}, batch {batch}: {what} is "
        "not finite (try a smaller learning rate)"
    )


def _best_epoch(val_losses: list[float]) -> int:
    best, best_i = math.inf, len(val_losses) - 1
    for i, v in enumerate(val_losses):
        if not math.isnan(v) and v < best:
            best, best_i = v, i
    return best_i


def predict(
    model: ModelParams, preproc: PreprocState, raw_features: Tensor
) -> tuple[list[int], Tensor]:
    """Standardize, run the stack, softmax. Ties pick the lowest class index."""
    x3 = apply_standardizer(preproc, raw_features).array
    probs = np.empty((x3.shape[0], model.arch.class_count))
    pred: list[int] = []
    for start in range(0, x3.shape[0], EVAL_CHUNK):
        logits, _ = forward(model, x3[start : start + EVAL_CHUNK])
        if not np.isfinite(logits).all():
            sample = start + int(np.argmax(~np.isfinite(logits).all(axis=1)))
            raise ValidationError(
                f"sample {sample + 1}: the model's outputs are not finite"
            )
        probs[start : start + len(logits)] = L.softmax(logits)
        pred.extend(np.argmax(logits, axis=1).tolist())
    return pred, Tensor._wrap(probs)


def evaluate(
    model: ModelParams,
    preproc: PreprocState,
    dataset: Dataset,
    taxonomy: Taxonomy,
    task: str,
) -> EvalReport:
    """Map labels for the task, predict, and build the metrics report."""
    if task != preproc.task:
        raise ConfigurationError(
            f"model was trained for task {preproc.task!r}, cannot evaluate "
            f"as {task!r}"
        )
    if len(preproc.label_map) != model.arch.class_count:
        raise ConfigurationError(
            f"label map has {len(preproc.label_map)} classes but the model "
            f"outputs {model.arch.class_count}"
        )
    if dataset.sample_count == 0:
        raise ValidationError("evaluation set is empty")
    mapped = map_labels(dataset.raw_labels, taxonomy, task)
    index = {name: i for i, name in enumerate(preproc.label_map)}
    unknown = sorted({m for m in mapped if m not in index})
    if unknown:
        raise ValidationError(
            f"labels absent from the trained class map: {', '.join(unknown)}"
        )
    true_idx = [index[m] for m in mapped]
    pred_idx, _ = predict(model, preproc, dataset.features)
    matrix = confusion_matrix(true_idx, pred_idx, model.arch.class_count)
    return classification_report(matrix, preproc.label_map)
