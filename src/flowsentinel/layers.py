"""Batch-first forward and backward passes for the layer stack.

Layer kinds: Conv1D (cross-correlation, stride 1, no padding), ReLU,
MaxPool1D (non-overlapping, odd remainder dropped), Flatten, Dense, Softmax.

Kernels take plain float64 ndarrays whose first axis is the sample: conv and
flatten inputs are (N, length, channels), dense and softmax inputs
(N, width). One sample is the N=1 batch of the same kernel. Max pooling works
on rows (length, channels); a batch is pooled as the rows of all its samples,
each trimmed to whole windows, so no window spans two samples.

The kernels check no shapes: callers guarantee them. `trainer.forward` and
`trainer.backward` are the only callers, and every shape they pass follows
from `param_shapes(arch)` and `shape_chain(arch)`; `train` and
`apply_standardizer` check the input at the public boundary.

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

from .tensor import fold_sum


@dataclass
class Conv1DLayer:
    weights: np.ndarray  # (filters, in_channels, kernel_size)
    bias: np.ndarray  # (filters,)

    filters = property(lambda self: self.weights.shape[0])
    in_channels = property(lambda self: self.weights.shape[1])
    kernel_size = property(lambda self: self.weights.shape[2])


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


@dataclass
class LayerGrads:
    """Gradients of one layer call."""

    d_weights: np.ndarray  # summed over the batch in sample order
    d_bias: np.ndarray  # summed over the batch in sample order
    d_input: np.ndarray  # one row per sample


# Bytes of product terms the dense forward pass folds per numpy call: enough
# columns to amortise the call cost on narrow layers, few enough to stay in
# cache on wide ones.
_FOLD_BLOCK_BYTES = 1 << 19


def conv1d_forward(layer: Conv1DLayer, x: np.ndarray) -> np.ndarray:
    """out[n,t,f] = bias[f] + sum over ascending (c,k) of w[f,c,k]*x[n,t+k,c]."""
    t_out = x.shape[1] - layer.kernel_size + 1
    w = np.ascontiguousarray(layer.weights.transpose(1, 2, 0))  # (c,k,f)
    out = np.empty((x.shape[0], t_out, layer.filters))
    out[...] = layer.bias
    term = np.empty_like(out)
    for c in range(layer.in_channels):
        for k in range(layer.kernel_size):
            out += np.multiply(x[:, k : k + t_out, c, None], w[c, k], out=term)
    return out


def conv1d_backward(
    layer: Conv1DLayer, x: np.ndarray, grad_out: np.ndarray
) -> LayerGrads:
    w = layer.weights
    n, length, _ = x.shape
    k = layer.kernel_size
    t_out = length - k + 1
    windows = sliding_window_view(x, k, axis=1)  # (N, t_out, in_ch, k)
    # One einsum per sample, on that sample's contiguous slices: the same
    # call, with the same operand layout, as for a lone sample, so its sum
    # over t rounds the same way.
    d_weights = np.einsum("tf,tck->fck", grad_out[0], windows[0])
    term = np.empty_like(d_weights)
    for i in range(1, n):
        d_weights += np.einsum("tf,tck->fck", grad_out[i], windows[i], out=term)
    d_bias = fold_sum(np.add.reduce(grad_out, axis=1))
    d_input = np.zeros((n, length, layer.in_channels))
    for tap in range(k):
        d_input[:, tap : tap + t_out] += np.einsum(
            "ntf,fc->ntc", grad_out, w[:, :, tap]
        )
    return LayerGrads(d_weights=d_weights, d_bias=d_bias, d_input=d_input)


def maxpool1d_forward(x: np.ndarray, pool: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping max pooling of (length, channels) rows; returns
    (pooled, flat argmax per cell).

    Stride equals the pool size; a trailing remainder shorter than the window
    is dropped. Ties go to the first (lowest) index.
    """
    length, channels = x.shape
    t_out = length // pool
    v = x[: t_out * pool].reshape(t_out, pool, channels)
    pooled = v.max(axis=1)
    within = v.argmax(axis=1)  # first index on ties
    cells = np.arange(t_out)[:, None] * pool + within
    argmax_indices = cells * channels + np.arange(channels)[None, :]
    return pooled, argmax_indices


def maxpool1d_backward(
    argmax_indices: np.ndarray, grad_out: np.ndarray, input_shape: tuple[int, int]
) -> np.ndarray:
    """Route each output gradient to its recorded argmax position."""
    length, channels = input_shape
    flat = np.zeros(length * channels)
    np.add.at(flat, argmax_indices.reshape(-1), grad_out.reshape(-1))
    return flat.reshape(length, channels)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Pass gradient where x > 0; the derivative at exactly 0 is 0."""
    return np.where(x > 0.0, grad_out, 0.0)


def dense_forward(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    """y[n] = W x[n] + b, each row summed in ascending column order."""
    in_dim = layer.weights.shape[1]
    xt = np.ascontiguousarray(x.T)[:, :, None]  # (in, N, 1)
    wt = np.ascontiguousarray(layer.weights.T)[:, None, :]  # (in, 1, out)
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
    out += layer.bias
    return out


def dense_backward(
    layer: DenseLayer, x: np.ndarray, grad_out: np.ndarray
) -> LayerGrads:
    d_weights = np.multiply(grad_out[0, :, None], x[0])  # outer product
    term = np.empty_like(d_weights)
    for i in range(1, x.shape[0]):
        d_weights += np.multiply(grad_out[i, :, None], x[i], out=term)
    d_bias = fold_sum(grad_out)
    d_input = np.einsum("ni,ij->nj", grad_out, layer.weights)
    return LayerGrads(d_weights=d_weights, d_bias=d_bias, d_input=d_input)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise max-subtracted softmax; finite for any finite input."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def flatten(x: np.ndarray) -> np.ndarray:
    """Row-major flattening of each sample; the backward pass is a reshape."""
    return x.reshape(x.shape[0], -1)
