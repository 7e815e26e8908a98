"""Batch-first forward and backward passes for the layer stack.

Layer kinds: Conv1D (cross-correlation, stride 1, no padding), ReLU,
MaxPool1D (non-overlapping, odd remainder dropped), Flatten, Dense, Softmax.

Kernels take plain float64 ndarrays whose first axis is the sample: conv and
flatten inputs are (N, length, channels), dense and softmax inputs
(N, width). One sample is the N=1 batch of the same kernel. Max pooling works
on rows (length, channels); a batch is pooled as the rows of all its samples,
each trimmed to whole windows, so no window spans two samples. Every kernel
also takes a single sample as a Tensor without the sample axis and then
answers in Tensors, for callers that score one sample at a time.

Every sum runs in a fixed order, so results are bit-equal to naive loops and
do not depend on N or on a sample's place in its batch:
- conv forward: acc = bias, then acc += w[f,c,k] * x[t+k,c] for each
  (channel, tap) in ascending order;
- dense forward: acc = the first column's term, then each later column's in
  ascending order, and the bias added last;
- parameter gradients: the first sample's gradient, then each later
  sample's added in batch order. No per-sample gradient stack is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, InternalError
from .tensor import Tensor, fold_sum


@dataclass
class Conv1DLayer:
    weights: Tensor | np.ndarray  # (filters, in_channels, kernel_size)
    bias: Tensor | np.ndarray  # (filters,)
    in_channels: int
    filters: int
    kernel_size: int

    def __post_init__(self):
        expected = (self.filters, self.in_channels, self.kernel_size)
        if self.weights.shape != expected:
            raise DimensionError(
                f"conv weights must be {expected}, got {self.weights.shape}"
            )
        if self.bias.shape != (self.filters,):
            raise DimensionError(
                f"conv bias must be ({self.filters},), got {self.bias.shape}"
            )


@dataclass
class DenseLayer:
    weights: Tensor | np.ndarray  # (out, in)
    bias: Tensor | np.ndarray  # (out,)

    def __post_init__(self):
        if len(self.weights.shape) != 2:
            raise DimensionError(
                f"dense weights must be rank 2, got {self.weights.shape}"
            )
        if self.bias.shape != (self.weights.shape[0],):
            raise DimensionError(
                f"dense bias must be ({self.weights.shape[0]},), "
                f"got {self.bias.shape}"
            )


@dataclass
class LayerGrads:
    """Gradients of one layer call; Tensors when the call got a Tensor sample."""

    d_weights: np.ndarray  # summed over the batch in sample order
    d_bias: np.ndarray  # summed over the batch in sample order
    d_input: np.ndarray  # one row per sample


# Bytes of product terms the dense forward pass folds per numpy call: enough
# columns to amortise the call cost on narrow layers, few enough to stay in
# cache on wide ones.
_FOLD_BLOCK_BYTES = 1 << 19


def _batch(x) -> np.ndarray:
    """A Tensor argument is one sample without its sample axis: add it."""
    return x.array[None] if isinstance(x, Tensor) else x


def _values(param) -> np.ndarray:
    """A layer's weights or bias, held as a Tensor or as a plain array."""
    return param.array if isinstance(param, Tensor) else param


def _check_conv_input(layer: Conv1DLayer, x: np.ndarray) -> tuple[int, int]:
    if x.ndim != 3 or x.shape[2] != layer.in_channels:
        raise DimensionError(
            f"conv input must be (samples, length, {layer.in_channels}), "
            f"got {x.shape}"
        )
    length = x.shape[1]
    if length < layer.kernel_size:
        raise DimensionError(
            f"input too short for kernel: length {length} < "
            f"kernel_size {layer.kernel_size}"
        )
    return length, length - layer.kernel_size + 1


def conv1d_forward(layer: Conv1DLayer, x):
    """out[n,t,f] = bias[f] + sum over ascending (c,k) of w[f,c,k]*x[n,t+k,c]."""
    single = isinstance(x, Tensor)
    x = _batch(x)
    _, t_out = _check_conv_input(layer, x)
    w = np.ascontiguousarray(_values(layer.weights).transpose(1, 2, 0))  # (c,k,f)
    out = np.empty((x.shape[0], t_out, layer.filters))
    out[...] = _values(layer.bias)
    term = np.empty_like(out)
    for c in range(layer.in_channels):
        for k in range(layer.kernel_size):
            out += np.multiply(x[:, k : k + t_out, c, None], w[c, k], out=term)
    return Tensor._wrap(out[0]) if single else out


def conv1d_backward(layer: Conv1DLayer, x, grad_out) -> LayerGrads:
    single = isinstance(x, Tensor)
    x, g = _batch(x), _batch(grad_out)
    length, t_out = _check_conv_input(layer, x)
    w = _values(layer.weights)
    n, k = x.shape[0], layer.kernel_size
    if g.shape != (n, t_out, layer.filters):
        raise DimensionError(
            f"grad_out must be ({n}, {t_out}, {layer.filters}), got {g.shape}"
        )
    windows = sliding_window_view(x, k, axis=1)  # (N, t_out, in_ch, k)
    # One einsum per sample, on that sample's contiguous slices: the same
    # call, with the same operand layout, as for a lone sample, so its sum
    # over t rounds the same way.
    d_weights = np.einsum("tf,tck->fck", g[0], windows[0])
    term = np.empty_like(d_weights)
    for i in range(1, n):
        d_weights += np.einsum("tf,tck->fck", g[i], windows[i], out=term)
    d_bias = fold_sum(np.add.reduce(g, axis=1))
    d_input = np.zeros((n, length, layer.in_channels))
    for tap in range(k):
        d_input[:, tap : tap + t_out] += np.einsum("ntf,fc->ntc", g, w[:, :, tap])
    if single:
        return LayerGrads(
            d_weights=Tensor._wrap(d_weights),
            d_bias=Tensor._wrap(d_bias),
            d_input=Tensor._wrap(d_input[0]),
        )
    return LayerGrads(d_weights=d_weights, d_bias=d_bias, d_input=d_input)


def maxpool1d_forward(x, pool: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping max pooling of (length, channels) rows; returns
    (pooled, flat argmax per cell).

    Stride equals the pool size; a trailing remainder shorter than the window
    is dropped. Ties go to the first (lowest) index.
    """
    single = isinstance(x, Tensor)
    rows = x.array if single else x
    if rows.ndim != 2:
        raise DimensionError(f"pool input must be rank 2, got {rows.shape}")
    if pool < 1:
        raise DimensionError(f"pool size must be >= 1, got {pool}")
    length, channels = rows.shape
    if length < pool:
        raise DimensionError(
            f"input too short to pool: length {length} < pool {pool}"
        )
    t_out = length // pool
    v = rows[: t_out * pool].reshape(t_out, pool, channels)
    pooled = v.max(axis=1)
    within = v.argmax(axis=1)  # first index on ties
    cells = np.arange(t_out)[:, None] * pool + within
    argmax_indices = cells * channels + np.arange(channels)[None, :]
    return (Tensor._wrap(pooled) if single else pooled), argmax_indices


def maxpool1d_backward(
    argmax_indices: np.ndarray, grad_out, input_shape: tuple[int, int]
):
    """Route each output gradient to its recorded argmax position."""
    single = isinstance(grad_out, Tensor)
    g = grad_out.array if single else grad_out
    if g.shape != argmax_indices.shape:
        raise DimensionError(
            f"grad_out {g.shape} does not match argmax grid "
            f"{argmax_indices.shape}"
        )
    length, channels = input_shape
    total = length * channels
    idx = argmax_indices.reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= total):
        raise InternalError(
            f"argmax index outside input of shape {tuple(input_shape)}"
        )
    flat = np.zeros(total)
    np.add.at(flat, idx, g.reshape(-1))
    out = flat.reshape(length, channels)
    return Tensor._wrap(out) if single else out


def relu(x):
    if isinstance(x, Tensor):
        return Tensor._wrap(np.maximum(x.array, 0.0))
    return np.maximum(x, 0.0)


def relu_backward(x, grad_out):
    """Pass gradient where x > 0; the derivative at exactly 0 is 0."""
    single = isinstance(x, Tensor)
    xa, g = (x.array, grad_out.array) if single else (x, grad_out)
    if xa.shape != g.shape:
        raise DimensionError(
            f"relu grad shape mismatch: {xa.shape} vs {g.shape}"
        )
    out = np.where(xa > 0.0, g, 0.0)
    return Tensor._wrap(out) if single else out


def dense_forward(layer: DenseLayer, x):
    """y[n] = W x[n] + b, each row summed in ascending column order."""
    single = isinstance(x, Tensor)
    x = _batch(x)
    in_dim = layer.weights.shape[1]
    if x.ndim != 2 or x.shape[1] != in_dim:
        raise DimensionError(
            f"dense input must be (samples, {in_dim}), got {x.shape}"
        )
    xt = np.ascontiguousarray(x.T)[:, :, None]  # (in, N, 1)
    wt = np.ascontiguousarray(_values(layer.weights).T)[:, None, :]  # (in, 1, out)
    out = xt[0] * wt[0]
    # Fold the column terms a block at a time: the running sum, then the
    # block's products, stacked and left-folded in one call.
    block = max(1, _FOLD_BLOCK_BYTES // max(1, out.nbytes))
    stack = np.empty((min(block, in_dim - 1) + 1,) + out.shape)
    for j in range(1, in_dim, block):
        m = min(block, in_dim - j)
        stack[0] = out
        np.multiply(xt[j : j + m], wt[j : j + m], out=stack[1 : m + 1])
        out = fold_sum(stack[: m + 1])
    out += _values(layer.bias)
    return Tensor._wrap(out[0]) if single else out


def dense_backward(layer: DenseLayer, x, grad_out) -> LayerGrads:
    single = isinstance(x, Tensor)
    x, g = _batch(x), _batch(grad_out)
    out_dim, in_dim = layer.weights.shape
    n = x.shape[0]
    if x.shape != (n, in_dim):
        raise DimensionError(
            f"dense input must be (samples, {in_dim}), got {x.shape}"
        )
    if g.shape != (n, out_dim):
        raise DimensionError(
            f"dense grad_out must be ({n}, {out_dim}), got {g.shape}"
        )
    d_weights = np.multiply(g[0, :, None], x[0])  # outer product
    term = np.empty_like(d_weights)
    for i in range(1, n):
        d_weights += np.multiply(g[i, :, None], x[i], out=term)
    d_bias = fold_sum(g)
    d_input = np.einsum("ni,ij->nj", g, _values(layer.weights))
    if single:
        return LayerGrads(
            d_weights=Tensor._wrap(d_weights),
            d_bias=Tensor._wrap(d_bias),
            d_input=Tensor._wrap(d_input[0]),
        )
    return LayerGrads(d_weights=d_weights, d_bias=d_bias, d_input=d_input)


def softmax(x):
    """Row-wise max-subtracted softmax; finite for any finite input."""
    single = isinstance(x, Tensor)
    x = _batch(x)
    if x.ndim != 2 or x.shape[1] == 0:
        raise DimensionError(
            f"softmax expects non-empty rows (samples, classes), got {x.shape}"
        )
    e = np.exp(x - x.max(axis=1, keepdims=True))
    out = e / e.sum(axis=1, keepdims=True)
    return Tensor._wrap(out[0]) if single else out


def flatten(x):
    """Row-major flattening of each sample; the backward pass is a reshape."""
    single = isinstance(x, Tensor)
    x = _batch(x)
    if x.ndim != 3:
        raise DimensionError(
            f"flatten expects (samples, length, channels), got {x.shape}"
        )
    out = x.reshape(x.shape[0], -1)
    return Tensor._wrap(out[0]) if single else out
