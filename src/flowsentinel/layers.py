"""Batch-first forward and backward passes for the layer stack.

Layer kinds: Conv1D (cross-correlation, stride 1, no padding), ReLU,
MaxPool1D (non-overlapping pairs), Flatten, Dense, Softmax.

Kernels take plain float64 ndarrays whose first axis is the sample: conv and
flatten inputs are (N, length, channels), dense and softmax inputs
(N, width). One sample is the N=1 batch of the same kernel. Max pooling works
on an even count of (rows, channels) rows; a batch is pooled as the rows of
its samples, each of even length, so no window spans two samples. The
forward pass keeps one bool per pooled cell, True where the window's second
row won, and the backward pass routes each gradient through it.

The kernels check no shapes: callers guarantee them. `trainer.forward` and
`trainer.backward` are the only callers, and every shape they pass, each
pool's even length too, follows from `param_shapes(arch)` and
`shape_chain(arch)`; `train` and `apply_standardizer` check the input.

Every sum is a left fold from 0 over its terms in ascending index order, so
results are bit-equal to naive loops and do not depend on N or on a sample's
place in its batch. A parameter gradient folds over t within each sample,
then the samples' sums in batch order; no per-sample gradient stack is
built. The dense forward adds the bias after its fold, and the conv input
gradient adds its per-tap folds into zeros in tap order. Each tap folds
over the filters with grad_out as one filter-major (F, N*t_out) block, so
N*t_out is the long inner axis, into a (C, N, L) block that is returned
transposed to (N, L, C).

The conv kernels share `_im2col`'s (1 + C*k, N, t_out) block: row 0 is ones,
which meets the bias (so the conv output folds 1 * bias first, and d_bias is
that row's fold against grad_out), and row 1 + c*k + tap holds x[n, t+tap, c].
The forward folds over that block's rows. The backward lays the same values
out per sample, as one (N, t_out, 1 + C*k) block with the ones column first,
so each sample's weight-gradient fold over t reads a C-contiguous
(t_out, 1 + C*k) slice as it is; every sample's fold goes into one reused
(1 + C*k, filters) buffer, which is added into the running total.

Backward kernels return plain `(d_weights, d_bias, d_input)`: the first two
summed over the batch, the last one row per sample. conv1's input gradient
is skipped: `trainer.backward` passes `conv1d_backward` a positional False,
which makes d_input None, since nothing reads the network input's gradient.

Each fold runs in one call of einsum's C entry point (`_fold_einsum`), which
copies only operands that are not C-contiguous. That holds while
einsum's multiply-add is not fused to an FMA, as in numpy's x86-64 wheels;
the oracle tests fail if it breaks. aarch64 is unverified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

try:
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum


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


def _fold_einsum(
    spec: str, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """einsum contracting the leading axis j of a and b, as the left fold from
    0 in ascending j: on C-contiguous operands j is outermost, and einsum adds
    a[j]*b[j] into the output per j. Only an operand that is not C-contiguous
    is copied. A single-element output would leave j to einsum's unrolled
    reduction, so np.add.accumulate (sequential by definition) folds that
    shape, and `+ 0.0` makes it the fold from 0. The result goes into `out`,
    a C-contiguous array of its shape, when given. The forward kernels
    contract columns this way; the backward kernels contract t or samples for
    the parameter gradients, and filters or units for the input gradients.

    `c_einsum` is what np.einsum calls with `optimize` off, its default,
    after a Python wrapper that costs about 1.5 us a call."""
    if not a.flags.c_contiguous:
        a = np.ascontiguousarray(a)
    if not b.flags.c_contiguous:
        b = np.ascontiguousarray(b)
    if a.size * b.size != len(a) * len(b):  # a[0] and b[0] not both scalars
        return c_einsum(spec, a, b) if out is None else c_einsum(spec, a, b, out=out)
    products = a.reshape(len(a), 1) * b.reshape(len(b), 1)
    folded = np.add.accumulate(products, axis=0)[-1] + 0.0
    folded = folded.reshape(a.shape[1:] + b.shape[1:])
    if out is None:
        return folded
    out[...] = folded
    return out


def _im2col(x: np.ndarray, k: int, cols: np.ndarray | None = None) -> np.ndarray:
    """The (1 + C*k, N, t_out) block of an (N, L, C) input: row 0 is ones,
    to meet the bias, and row 1 + c*k + tap holds x[n, t + tap, c]. It is
    written by one strided copy per tap into `cols`, an array or view of
    that shape (a new array when None), and returned."""
    n, length, in_ch = x.shape
    t_out = length - k + 1
    if cols is None:
        cols = np.empty((1 + in_ch * k, n, t_out))
    cols[0] = 1.0
    by_channel = x.transpose(2, 0, 1)
    for tap in range(k):
        cols[1 + tap :: k] = by_channel[:, :, tap : tap + t_out]
    return cols


def conv1d_forward(layer: Conv1DLayer, x: np.ndarray) -> np.ndarray:
    """out[n,t,f] = bias[f] + sum over ascending (c,k) of w[f,c,k]*x[n,t+k,c].

    im2col: a row of ones meets the bias, so each fold runs 0 + 1*bias, then
    the taps. A -0.0 bias gives +0.0; `params - update` never makes one."""
    w = layer.weights.transpose(1, 2, 0).reshape(-1, layer.filters)
    return _fold_einsum("jnt,jf->ntf", _im2col(x, layer.kernel_size),
                        np.vstack([layer.bias, w]))


def conv1d_backward(
    layer: Conv1DLayer, x: np.ndarray, grad_out: np.ndarray,
    input_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The im2col block's ones row meets grad_out in d_bias, its other rows
    in d_weights. Each tap's input gradient is a fold over the filters of
    w[:, :, tap] against grad_out as one filter-major (F, N*t_out) block;
    with `input_grad` False it is not computed and d_input is None. Pass
    `input_grad` positionally: perfbench's span keys take no keywords."""
    n, length, in_ch = x.shape
    k = layer.kernel_size
    t_out = length - k + 1
    rows = np.empty((n, t_out, 1 + in_ch * k))  # _im2col's block, per sample
    _im2col(x, k, rows.transpose(2, 0, 1))
    total = np.zeros((1 + in_ch * k, layer.filters))
    sample = np.empty_like(total)
    for i in range(n):
        total += _fold_einsum("tj,tf->jf", rows[i], grad_out[i], sample)
    del rows  # freed before grad_out's filter-major copy below
    d_weights = total[1:].reshape(in_ch, k, layer.filters).transpose(2, 0, 1)
    if not input_grad:
        return d_weights, total[0], None
    by_filter = grad_out.transpose(2, 0, 1).reshape(layer.filters, n * t_out)
    d_input = np.zeros((in_ch, n, length))
    for tap in range(k):
        d_input[:, :, tap : tap + t_out] += _fold_einsum(
            "fc,fm->cm", layer.weights[:, :, tap], by_filter
        ).reshape(in_ch, n, t_out)
    return d_weights, total[0], d_input.transpose(1, 2, 0)


def maxpool1d_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max of each pair of (rows, channels) rows, the pool size of
    `trainer.STACK`; the row count is even. Returns (pooled, mask), the mask
    True where the second row is the larger, so ties go to the first."""
    first, second = x[0::2], x[1::2]
    return np.maximum(first, second), second > first


def maxpool1d_backward(
    mask: np.ndarray, grad_out: np.ndarray, input_shape: tuple[int, int]
) -> np.ndarray:
    """Add each output gradient into zeros at the row `mask` names (so -0.0
    lands as +0.0); np.where, not a product with the mask, so an infinite
    gradient leaves no NaN in the other row."""
    grad = np.zeros(input_shape)
    grad[0::2] += np.where(mask, 0.0, grad_out)
    grad[1::2] += np.where(mask, grad_out, 0.0)
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
    d_bias = _fold_einsum("no,n->o", grad_out, np.ones(len(grad_out)))
    d_input = _fold_einsum("on,oi->ni", grad_out.T, layer.weights)
    return d_weights, d_bias, d_input


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise max-subtracted softmax; finite for any finite input."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def flatten(x: np.ndarray) -> np.ndarray:
    """Row-major flattening of each sample; the backward pass is a reshape."""
    return x.reshape(x.shape[0], -1)
