"""Batch-first forward and backward passes for the layer stack.

Layer kinds: Conv1D (cross-correlation, stride 1, no padding), ReLU,
MaxPool1D (non-overlapping, odd remainder dropped), Flatten, Dense, Softmax.

Kernels take plain float64 ndarrays whose first axis is the sample: conv and
flatten inputs are (N, length, channels), dense and softmax inputs
(N, width). One sample is the N=1 batch of the same kernel. Max pooling works
on rows (length, channels); a batch is pooled as the rows of all its samples,
each trimmed to whole windows, so no window spans two samples. The forward
pass keeps one bool per pooled cell, True where the window's second row won,
and the backward pass routes each gradient through it.

The kernels check no shapes: callers guarantee them. `trainer.forward` and
`trainer.backward` are the only callers, and every shape they pass follows
from `param_shapes(arch)` and `shape_chain(arch)`; `train` and
`apply_standardizer` check the input at the public boundary.

Every sum runs in a fixed order (`fold_sum` is the left fold), so results
are bit-equal to naive loops and do not depend on N or on a sample's place in
its batch:
- conv forward: acc = bias, then acc += w[f,c,k] * x[t+k,c] for each
  (channel, tap) in ascending order;
- dense forward: acc = the first column's term, then each later column's in
  ascending order, and the bias added last;
- dense input gradient: 0, then g[n,o] * w[o,i] for each unit o in ascending
  order;
- parameter gradients: each sample's gradient added in batch order, the
  dense weights' onto 0 and the others' onto the first sample's. No
  per-sample gradient stack is built.

Backward kernels return plain `(d_weights, d_bias, d_input)`: the first two
summed over the batch, the last one row per sample.

The forward folds and the dense backward's weight and input gradients each
run in one np.einsum call (`_fold_einsum`). That holds while einsum's
multiply-add is not fused to an FMA, as in numpy's x86-64 wheels; the oracle
tests fail if it breaks. aarch64 is unverified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


def fold_sum(stack: np.ndarray) -> np.ndarray:
    """Left-fold sum over axis 0 of a C-contiguous stack.

    Equivalent to `acc = stack[0]; acc += stack[i]` in ascending i. Outer-axis
    np.add.reduce performs exactly that fold when the inner block has more
    than one element; for single-element blocks numpy switches to pairwise
    summation, so np.add.accumulate (sequential by definition) is used there.
    """
    stack = np.ascontiguousarray(stack)
    n = stack.shape[0]
    if n == 1:
        return stack[0].copy()
    inner = math.prod(stack.shape[1:])
    if inner > 1:
        return np.add.reduce(stack, axis=0)
    return np.add.accumulate(stack, axis=0)[-1]


def _fold_einsum(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """einsum contracting the leading axis j of a and b, as the left fold from
    0 in ascending j: on C-contiguous operands j is outermost, and einsum adds
    a[j]*b[j] into the output per j. A single-element output would leave j
    to einsum's unrolled reduction, so `fold_sum` folds that shape. The
    forward kernels contract columns this way; the dense backward contracts
    samples for the weight gradient and units for the input gradient."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a[0].size * b[0].size != 1:
        return np.einsum(spec, a, b)
    products = a.reshape(len(a), 1) * b.reshape(len(b), 1)
    return fold_sum(products).reshape(a.shape[1:] + b.shape[1:])


def conv1d_forward(layer: Conv1DLayer, x: np.ndarray) -> np.ndarray:
    """out[n,t,f] = bias[f] + sum over ascending (c,k) of w[f,c,k]*x[n,t+k,c].

    im2col: a row of ones meets the bias, so each fold runs 0 + 1*bias, then
    the taps. A -0.0 bias gives +0.0; `params - update` never makes one."""
    taps = sliding_window_view(x, layer.kernel_size, axis=1).transpose(2, 3, 0, 1)
    cols = np.empty((1 + taps.shape[0] * taps.shape[1],) + taps.shape[2:])
    cols[0] = 1.0
    cols[1:].reshape(taps.shape)[...] = taps  # (in_ch, k, N, t_out)
    w = layer.weights.transpose(1, 2, 0).reshape(-1, layer.filters)
    return _fold_einsum("jnt,jf->ntf", cols, np.vstack([layer.bias, w]))


def conv1d_backward(
    layer: Conv1DLayer, x: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    return d_weights, d_bias, d_input


def maxpool1d_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max of each pair of (rows, channels) rows, the pool size of
    `trainer.STACK`; an odd last row is dropped. Returns (pooled, mask), the
    mask True where the second row is the larger, so ties go to the first."""
    first, second = x[0 : len(x) - 1 : 2], x[1::2]
    return np.maximum(first, second), second > first


def maxpool1d_backward(
    mask: np.ndarray, grad_out: np.ndarray, input_shape: tuple[int, int]
) -> np.ndarray:
    """Add each output gradient into zeros at the row `mask` names (so -0.0
    lands as +0.0); np.where, not a product with the mask, so an infinite
    gradient leaves no NaN in the other row."""
    grad = np.zeros(input_shape)
    first, second = grad[0 : 2 * len(mask) : 2], grad[1 : 2 * len(mask) : 2]
    first += np.where(mask, 0.0, grad_out)
    second += np.where(mask, grad_out, 0.0)
    return grad


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Pass gradient where x > 0; the derivative at exactly 0 is 0."""
    return np.where(x > 0.0, grad_out, 0.0)


def dense_forward(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    """y[n] = W x[n] + b, each row summed in ascending column order from 0,
    then the bias (so a -0.0 bias can give +0.0, as in the conv)."""
    out = _fold_einsum("jn,jo->no", x.T, layer.weights.T)
    out += layer.bias
    return out


def dense_backward(
    layer: DenseLayer, x: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d_weights = _fold_einsum("no,ni->oi", grad_out, x)
    d_bias = fold_sum(grad_out)
    d_input = _fold_einsum("on,oi->ni", grad_out.T, layer.weights)
    return d_weights, d_bias, d_input


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise max-subtracted softmax; finite for any finite input."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def flatten(x: np.ndarray) -> np.ndarray:
    """Row-major flattening of each sample; the backward pass is a reshape."""
    return x.reshape(x.shape[0], -1)
