"""Span recorder for the traced run, installed from outside the engine.

The traced run calls `flowsentinel.cli.run` in this process with the public
functions on the CLI path replaced by wrappers. Each wrapper opens a span
keyed by layer and stage, calls the original, and closes the span; nothing
under `src/` changes. A span's self time is its duration minus the time its
direct child spans cover. Layer stages are told apart by argument shape:
conv by input channels, dense by output width, pool by channel count.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager


class SpanRecorder:
    """Spans kept in memory as [key, parent index, start, end], plus counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, key: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        span = [key, parent, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._open.pop()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per key: total seconds, self seconds and number of calls."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (key, _, start, end), inner in zip(self.spans, child):
            entry = out.setdefault(key, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
            entry["calls"] += 1
        return out


def _layer_keys(arch_defaults):
    """Functions that name the stage of each layer call from its arguments,
    returning (key, computed flops of the call)."""
    conv1_filters = arch_defaults.conv1_filters
    dense_units = arch_defaults.dense_units

    def conv(direction):
        def key(layer, x, *rest):
            stage = "conv1" if layer.in_channels == 1 else "conv2"
            flops = 0
            if direction == "fwd":
                t_out = x.shape[0] - layer.kernel_size + 1
                taps = layer.in_channels * layer.kernel_size
                flops = 2 * t_out * layer.filters * taps
            return f"layers.{stage}.{direction}", flops
        return key

    def dense(direction):
        def key(layer, x, *rest):
            out_dim, in_dim = layer.weights.shape
            stage = "dense1" if out_dim == dense_units else "output"
            flops = 2 * out_dim * in_dim if direction == "fwd" else 0
            return f"layers.{stage}.{direction}", flops
        return key

    def pool_fwd(x, *rest, **kwargs):
        stage = "pool1" if x.shape[1] == conv1_filters else "pool2"
        return f"layers.{stage}.fwd", 0

    def pool_bwd(argmax, grad_out, input_shape):
        stage = "pool1" if input_shape[1] == conv1_filters else "pool2"
        return f"layers.{stage}.bwd", 0

    return {
        "conv1d_forward": conv("fwd"),
        "conv1d_backward": conv("bwd"),
        "dense_forward": dense("fwd"),
        "dense_backward": dense("bwd"),
        "maxpool1d_forward": pool_fwd,
        "maxpool1d_backward": pool_bwd,
        "relu": lambda *args: ("layers.relu.fwd", 0),
        "relu_backward": lambda *args: ("layers.relu.bwd", 0),
        "softmax": lambda *args: ("layers.softmax.fwd", 0),
    }


@contextmanager
def traced(recorder: SpanRecorder):
    """Install the wrappers for the duration of the block, then restore."""
    from flowsentinel import cli, layers, optim, trainer
    from flowsentinel.tensor import Tensor

    counts = recorder.counts
    patches = []  # (module or class, attribute, replacement)

    def after_load_csv(args, result):
        counts["rows_parsed"] += result.sample_count
        counts["load_csv_bytes"] += os.path.getsize(args[0])

    def after_subsample(args, result):
        counts["rows_dropped"] += args[0].sample_count - result.sample_count

    def after_train(args, result):
        counts["samples"] += args[1].shape[0] * result[1].epochs_run()

    def after_predict(args, result):
        counts["samples"] += args[2].shape[0]

    def install(module, name, key_of, after=None):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            key, flops = key_of(*args, **kwargs)
            if flops:
                counts[key + ".flops"] += flops
            result = recorder.call(key, original, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        patches.append((module, name, wrapper))

    def fixed(key):
        return lambda *args, **kwargs: (key, 0)

    for name, key, after in (
        ("load_csv", "dataset.load_csv", after_load_csv),
        ("load_feature_matrix", "dataset.load_feature_matrix", None),
        ("subsample_stratified", "dataset.subsample", after_subsample),
        ("map_labels", "dataset.map_labels", None),
        ("fit_standardizer", "pipeline.fit_standardizer", None),
        ("apply_standardizer", "pipeline.apply_standardizer", None),
        ("stratified_split", "pipeline.stratified_split", None),
        ("train", "trainer.train", after_train),
        ("predict", "trainer.predict", after_predict),
        ("load_model", "store.load_model", None),
        ("save_model", "store.save_model", None),
    ):
        install(cli, name, fixed(key), after)
    install(trainer, "apply_standardizer", fixed("pipeline.apply_standardizer"))
    install(trainer, "softmax_ce_grad", fixed("optim.softmax_ce"))
    install(trainer, "adam_step", fixed("optim.adam"))
    install(trainer, "_eval_split", fixed("trainer.validation"))
    key_fns = _layer_keys(trainer.ArchitectureConfig(feature_count=64, class_count=2))
    for name, key_of in key_fns.items():
        install(layers, name, key_of)
    install(optim, "softmax", key_fns["softmax"])

    wrap = Tensor.__dict__["_wrap"].__func__

    def counting_wrap(cls, array):
        counts["tensor_wraps"] += 1
        return wrap(cls, array)

    patches.append((Tensor, "_wrap", classmethod(counting_wrap)))

    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield recorder
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
