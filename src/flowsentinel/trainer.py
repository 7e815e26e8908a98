"""Builds the two-conv / two-dense stack, runs mini-batch training with
Adam and validation monitoring, and drives prediction and evaluation.

One `forward`/`backward` pair over (N, F, 1) batches serves training,
validation and prediction; validation and prediction run in chunks of
EVAL_CHUNK samples. The training loop is strictly sequential and
deterministic: given the same seed, data, and config it reproduces
parameters, history, and reports bit-exactly. Per-batch gradients are the
mean of per-sample gradients, summed in the order the samples appear in the
(shuffled) batch, so batching changes no bit of the result.

`predict` (and so `evaluate`) runs its chunks' forward passes on a pool of
WORKERS threads; the forward sums nothing across samples, so a chunk's
logits do not depend on the thread that computed them. The main thread
takes the logits back in chunk order, so the first non-finite sample it
names is the same at any worker count. Training and validation stay on one
thread: each pool thread's first forward costs the process a malloc arena,
which raised a training run's peak RSS by 7% and saved no time on its small
validation splits.
"""

from __future__ import annotations

import contextvars
import math
import os
from collections import deque
from dataclasses import dataclass, field
from numbers import Integral, Real
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from . import layers as L
from .dataset import Dataset, Taxonomy, map_labels, printable_label
from .errors import DataError
from .metrics import EvalReport, classification_report, confusion_matrix
from .optim import (
    DEFAULT_LR, AdamState, adam_step, class_indices, glorot_uniform_init,
    softmax_ce_grad,
)
from .pipeline import PreprocState, SplitIndices, apply_standardizer
from .tensor import Tensor

# Samples per forward pass in validation, predict and evaluate. Past about 32
# samples the hot layers run no faster per sample (they are bound by memory
# traffic, not call overhead), while the chunk's activations, about 75 KB a
# sample at F=45, keep growing.
EVAL_CHUNK = 32


def _worker_count() -> int:
    """Threads for predict's forward passes: two at most, and never more
    than the CPUs this process may run on."""
    usable = getattr(os, "sched_getaffinity", None)  # absent on macOS
    cpus = len(usable(0)) if usable else os.cpu_count() or 1
    return min(2, cpus)


WORKERS = _worker_count()

# The paper's layer sizes, in model-file order; the engine builds no other.
STACK = {"conv1_filters": 32, "conv2_filters": 64, "kernel_size": 3,
         "pool_size": 2, "dense_units": 128}


@dataclass(frozen=True)
class ArchitectureConfig:
    feature_count: int
    class_count: int

    def __post_init__(self):
        for name in ("feature_count", "class_count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise DataError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy ints as plain ints
        if self.class_count < 2:
            raise DataError(f"class_count must be >= 2, got {self.class_count}")
        shape_chain(self)  # raises if feature_count cannot flow through


for _name, _size in STACK.items():  # class attributes, not fields
    setattr(ArchitectureConfig, _name, _size)


def shape_chain(arch: ArchitectureConfig) -> list[int]:
    """Lengths each stage reads: [input, conv1, pool1, conv2, pool2].

    Valid convolution maps L to L-k+1 and pooling L to floor(L/pool). Worked
    back from the pool2 length, each pool reads whole windows: F=16 gives
    [14, 12, 6, 4, 2]. No output depends on the features past the first
    entry. Raises below the smallest workable F, (1*2 + 2)*2 + 2 = 10.
    """
    if arch.feature_count < 10:
        raise DataError(f"feature_count {arch.feature_count} is too "
                        "small for the conv/pool stack; minimum is 10")
    k, pool = STACK["kernel_size"], STACK["pool_size"]
    pool2 = ((arch.feature_count - k + 1) // pool - k + 1) // pool
    conv1 = (pool2 * pool + k - 1) * pool
    return [conv1 + k - 1, conv1, conv1 // pool, pool2 * pool, pool2]


def flatten_length(arch: ArchitectureConfig) -> int:
    return shape_chain(arch)[-1] * STACK["conv2_filters"]


def param_shapes(arch: ArchitectureConfig) -> dict[str, tuple[int, ...]]:
    """The parameter table's spec: name -> shape, in stack order.

    This is the only place the names and shapes are written down. Each layer
    is a (weights, bias) pair; conv weights are (filters, in_channels,
    kernel_size) and dense weights (out, in). The order is also the order of
    the model file's tensor directory.
    """
    conv1, conv2, k, _, dense = STACK.values()
    return {
        "conv1.weights": (conv1, 1, k),
        "conv1.bias": (conv1,),
        "conv2.weights": (conv2, conv1, k),
        "conv2.bias": (conv2,),
        "dense1.weights": (dense, flatten_length(arch)),
        "dense1.bias": (dense,),
        "output.weights": (arch.class_count, dense),
        "output.bias": (arch.class_count,),
    }


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = DEFAULT_LR
    val_fraction: float = 0.2
    seed: int = 42
    early_stop_patience: int = 0  # 0 disables early stopping

    def __post_init__(self):
        for name, value in vars(self).items():
            if name in ("lr", "val_fraction"):
                if isinstance(value, bool) or not isinstance(value, Real):
                    raise DataError(f"{name} must be a number, got {value!r}")
                continue
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise DataError(f"{name} must be an integer, got {value!r}")
            minimum = 1 if name in ("epochs", "batch_size") else 0
            if value < minimum:
                raise DataError(f"{name} must be >= {minimum}, got {value}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise DataError(f"lr must be a finite number > 0, got {self.lr}")
        if not 0.0 < self.val_fraction < 1.0:
            raise DataError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 0-based; the minimum validation loss, else the last

    def epochs_run(self) -> int:
        return len(self.train_loss)


def param_slices(arch: ArchitectureConfig) -> dict[str, slice]:
    """Each parameter's place in the flat parameter vector, which is laid out
    as the model file's payload: one parameter after another, in table order."""
    slices, start = {}, 0
    for name, shape in param_shapes(arch).items():
        slices[name] = slice(start, start := start + math.prod(shape))
    return slices


def param_count(arch: ArchitectureConfig) -> int:
    """The length of the flat parameter vector."""
    return [*param_slices(arch).values()][-1].stop


def param_views(arch: ArchitectureConfig, values: np.ndarray) -> dict[str, np.ndarray]:
    """Name -> view of each parameter in a vector laid out as `ModelParams.values`."""
    shapes = param_shapes(arch)
    return {n: values[s].reshape(shapes[n]) for n, s in param_slices(arch).items()}


def non_finite_param(arch: ArchitectureConfig, values: np.ndarray) -> str | None:
    """The first parameter whose slice of `values` is not all finite, or None."""
    finite = np.isfinite(values)
    return None if finite.all() else next(
        name for name, s in param_slices(arch).items() if not finite[s].all())


@dataclass(frozen=True, eq=False)
class ModelParams:
    """The parameter table: one float64 vector laid out as the model file's
    payload, and `params`, read-only name -> writable views into it."""

    arch: ArchitectureConfig
    values: np.ndarray
    params: Mapping[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        size, values = param_count(self.arch), self.values
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64
                and values.shape == (size,) and values.flags.c_contiguous):
            got = getattr(values, "dtype", type(values).__name__)
            raise DataError(f"model values must be a C-contiguous float64 vector "
                            f"of {size} values, got {got} {np.shape(values)}")
        views = MappingProxyType(param_views(self.arch, values))
        object.__setattr__(self, "params", views)


def build_model(arch: ArchitectureConfig, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights and zero biases, drawn in table order."""
    model = ModelParams(arch, np.zeros(param_count(arch)))
    for w in model.params.values():
        if w.ndim > 1:
            receptive = math.prod(w.shape[2:])
            w[...] = glorot_uniform_init(w.shape, fan_in=w.shape[1] * receptive,
                                         fan_out=w.shape[0] * receptive, rng=rng)
    return model


def _layers(model: ModelParams) -> list:
    """Layer views over the table's (weights, bias) pairs, in stack order."""
    arrays = list(model.params.values())
    return [(L.Conv1DLayer if w.ndim == 3 else L.DenseLayer)(w, b)
            for w, b in zip(arrays[0::2], arrays[1::2])]


def _pool(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-pool an (N, L, C) batch, L even, as the rows of its samples: no
    window spans two samples. Returns (pooled, mask), mask (N*L/2, C)."""
    n, length, channels = x.shape
    pooled, mask = L.maxpool1d_forward(x.reshape(n * length, channels))
    return pooled.reshape(n, length // 2, channels), mask


def _unpool(mask: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient of `_pool`: N rows of pooled-cell gradients routed to the
    (N, L, C) input."""
    rows, channels = mask.shape
    return L.maxpool1d_backward(
        mask, grad.reshape(rows, channels), (2 * rows, channels)
    ).reshape(len(grad), -1, channels)


def forward(model: ModelParams, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Run an (N, feature_count, 1) batch through the stack: `train` and
    `predict` pass their (N, F) features as this one-channel view.

    It reads the first `shape_chain(arch)[0]` features, the ones an output
    depends on, and applies each conv stage's ReLU to the pooled half.
    Returns the (N, class_count) logits and the activations `backward` reads.
    """
    conv1, conv2, dense1, output = _layers(model)
    x = x[:, : shape_chain(model.arch)[0]]
    p1, mask1 = _pool(L.conv1d_forward(conv1, x))
    p1 = L.relu(p1)
    p2, mask2 = _pool(L.conv1d_forward(conv2, p1))
    flat = L.flatten(L.relu(p2))
    h = L.dense_forward(dense1, flat)
    hr = L.relu(h)
    logits = L.dense_forward(output, hr)
    return logits, (x, mask1, p1, mask2, flat, h, hr)


def backward(
    model: ModelParams, activations: tuple, grad_logits: np.ndarray
) -> np.ndarray:
    """The parameter gradient as one vector laid out as `model.values`, each
    kernel writing its sums over the batch (in sample order) into its slices.

    Each conv stage's ReLU is gated on its pooled output, before the unpool,
    as the forward applies it. conv1's input gradient is not computed;
    nothing reads it."""
    conv1, conv2, dense1, output = _layers(model)
    x, mask1, p1, mask2, flat, h, hr = activations
    g = param_views(model.arch, grads := np.empty_like(model.values))
    g["output.weights"][...], g["output.bias"][...], d_hr = L.dense_backward(
        output, hr, grad_logits)
    g["dense1.weights"][...], g["dense1.bias"][...], d_flat = L.dense_backward(
        dense1, flat, L.relu_backward(h, d_hr))
    d_c2 = _unpool(mask2, L.relu_backward(flat, d_flat))
    g["conv2.weights"][...], g["conv2.bias"][...], d_p1 = L.conv1d_backward(
        conv2, p1, d_c2)
    d_c1 = _unpool(mask1, L.relu_backward(p1, d_p1))
    g["conv1.weights"][...], g["conv1.bias"][...], _ = L.conv1d_backward(
        conv1, x, d_c1, False)
    return grads


def _correct(logits: np.ndarray, targets: np.ndarray) -> int:
    return int(np.count_nonzero(np.argmax(logits, axis=1) == targets))


def _eval_split(
    model: ModelParams, x3: np.ndarray, y: np.ndarray, indices: np.ndarray
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
    labels: Sequence[int] | np.ndarray,
    cfg: TrainConfig,
    split: SplitIndices,
    on_epoch: Callable[[int, int, float, float, float, float], None] | None = None,
) -> tuple[ModelParams, TrainHistory]:
    """Mini-batch training with per-epoch validation monitoring.

    Features must already be standardized and shaped (samples,
    arch.feature_count), as `apply_standardizer` returns them, else
    DataError; the stack reads them as one channel. Labels are one integer
    class index per sample, below class_count. With
    early_stop_patience > 0, training stops after that many consecutive
    epochs without a validation loss improvement and the best epoch's
    parameters are restored. A batch whose loss or updated parameters are
    not finite raises DataError naming its epoch and batch, and leaves the
    model as it was before that batch.
    """
    width = model.arch.feature_count
    if dataset_features.shape[1:] != (width,):
        raise DataError(
            f"features must be (samples, {width}), got {dataset_features.shape}"
        )
    x3 = dataset_features.array[:, :, None]
    y = class_indices(labels, x3.shape[0], model.arch.class_count)
    train_idx = np.asarray(split.train_indices, dtype=np.intp)
    val_idx = np.asarray(split.val_indices, dtype=np.intp)
    if not train_idx.size:
        raise DataError("training set is empty")
    if cfg.early_stop_patience > 0 and not val_idx.size:
        raise DataError("early stopping needs a non-empty validation split")

    state = AdamState(shape=model.values.shape, lr=cfg.lr)
    history = TrainHistory()
    rng = np.random.default_rng(cfg.seed)
    best_val = math.inf
    best_values: np.ndarray | None = None
    stale = 0

    for epoch in range(cfg.epochs):
        order = train_idx[rng.permutation(train_idx.size)]
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
            grads *= 1.0 / len(batch)
            updated = adam_step(state, model.values, grads)
            if (name := non_finite_param(model.arch, updated)) is not None:
                raise _diverged(epoch, b, name)
            np.copyto(model.values, updated)
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
            if cfg.early_stop_patience > 0:
                best_values = model.values.copy()
            history.best_epoch = epoch
            stale = 0
        else:
            stale += 1
        if cfg.early_stop_patience > 0 and stale >= cfg.early_stop_patience:
            break

    if best_val == math.inf:
        history.best_epoch = history.epochs_run() - 1
    elif best_values is not None:
        np.copyto(model.values, best_values)
    return model, history


def _diverged(epoch: int, batch: int, what: str) -> DataError:
    return DataError(
        f"training diverged at epoch {epoch + 1}, batch {batch}: {what} is "
        "not finite (try a smaller learning rate)"
    )


def predict(
    model: ModelParams, preproc: PreprocState, raw_features: Tensor
) -> tuple[list[int], Tensor]:
    """Standardize, run the stack, softmax. Ties pick the lowest class index.

    Chunks of EVAL_CHUNK samples go through `forward` on WORKERS threads,
    at most WORKERS + 1 at a time; their logits are checked, softmaxed and
    written back in chunk order. No thread outlives the call.
    """
    x3 = apply_standardizer(preproc, raw_features).array[:, :, None]
    del raw_features  # freed here unless the caller holds it
    probs = np.empty((x3.shape[0], model.arch.class_count))
    pred: list[int] = []
    starts = range(0, x3.shape[0], EVAL_CHUNK)

    def chunk_logits(start: int) -> np.ndarray:
        return forward(model, x3[start : start + EVAL_CHUNK])[0]

    def take(start: int, logits: np.ndarray) -> None:
        if not np.isfinite(logits).all():
            sample = start + int(np.argmax(~np.isfinite(logits).all(axis=1)))
            raise DataError(f"sample {sample + 1}: the model's outputs are not finite")
        probs[start : start + len(logits)] = L.softmax(logits)
        pred.extend(np.argmax(logits, axis=1).tolist())

    if WORKERS < 2 or len(starts) < 2:
        for start in starts:
            take(start, chunk_logits(start))
        return pred, Tensor._wrap(probs)

    from concurrent.futures import ThreadPoolExecutor

    window: deque = deque()  # (start, future) in chunk order

    def take_oldest() -> None:
        start, future = window.popleft()
        take(start, future.result())

    with ThreadPoolExecutor(WORKERS) as pool:
        try:
            for start in starts:
                # A fresh copy per task: pool threads do not inherit the
                # caller's context, which holds numpy's error state, and
                # one Context cannot be entered by two threads at once.
                task = contextvars.copy_context().run
                window.append((start, pool.submit(task, chunk_logits, start)))
                if len(window) > WORKERS:
                    take_oldest()
            while window:
                take_oldest()
        finally:
            for _, future in window:
                future.cancel()
    return pred, Tensor._wrap(probs)


def evaluate(
    model: ModelParams,
    preproc: PreprocState,
    dataset: Dataset,
    taxonomy: Taxonomy,
) -> EvalReport:
    """Map labels for the model's task, predict, and build the metrics
    report."""
    if len(preproc.label_map) != model.arch.class_count:
        raise DataError(
            f"label map has {len(preproc.label_map)} classes but the model "
            f"outputs {model.arch.class_count}"
        )
    if dataset.sample_count == 0:
        raise DataError("evaluation set is empty")
    mapped = map_labels(dataset.raw_labels, taxonomy, preproc.task)
    index = {name: i for i, name in enumerate(preproc.label_map)}
    unknown = sorted({m for m in mapped if m not in index})
    if unknown:
        raise DataError(
            "labels absent from the trained class map: "
            + ", ".join(map(printable_label, unknown))
        )
    true_idx = [index[m] for m in mapped]
    pred_idx, _ = predict(model, preproc, dataset.features)
    matrix = confusion_matrix(true_idx, pred_idx, model.arch.class_count)
    return classification_report(matrix, preproc.label_map)
