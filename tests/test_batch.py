"""A batch gives exactly the bits of its samples run one at a time.

Every kernel is checked against the stacked results of N=1 calls, and every
parameter gradient against the in-order sum of per-sample gradients, for
several batch sizes and for odd lengths that leave a pooling remainder.
"""

import numpy as np
import pytest

from flowsentinel import layers as L
from flowsentinel.optim import softmax_ce_grad
from flowsentinel.trainer import (
    ArchitectureConfig,
    backward,
    build_model,
    forward,
    param_views,
    _pool,
    _unpool,
)

from oracles import conv1d_brute, pool_flat_index, unpool_flat_index

BATCH_SIZES = (1, 2, 3, 7, 33)


def _conv(rng, in_ch, filters, k=3):
    return L.Conv1DLayer(
        weights=rng.standard_normal((filters, in_ch, k)),
        bias=rng.standard_normal(filters),
    )


def _dense(rng, out_dim, in_dim):
    return L.DenseLayer(weights=rng.standard_normal((out_dim, in_dim)),
                        bias=rng.standard_normal(out_dim))


def _in_order_sum(arrays):
    total = arrays[0].copy()
    for a in arrays[1:]:
        total = total + a
    return total


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_conv_batch_equals_single_samples_and_oracle(n):
    rng = np.random.default_rng(100 + n)
    for length, in_ch, filters in ((9, 1, 4), (13, 3, 5), (6, 2, 1)):
        layer = _conv(rng, in_ch, filters)
        x = rng.standard_normal((n, length, in_ch))
        g = rng.standard_normal((n, length - 2, filters))
        out = L.conv1d_forward(layer, x)
        singles = [L.conv1d_forward(layer, x[i : i + 1])[0] for i in range(n)]
        assert np.array_equal(out, np.stack(singles))
        for i in range(n):
            want = conv1d_brute(x[i], layer.weights, layer.bias)
            assert np.array_equal(out[i], want), f"row {i}"

        d_weights, d_bias, d_input = L.conv1d_backward(layer, x, g)
        per = [L.conv1d_backward(layer, x[i : i + 1], g[i : i + 1])
               for i in range(n)]
        assert np.array_equal(d_weights, _in_order_sum([p[0] for p in per]))
        assert np.array_equal(d_bias, _in_order_sum([p[1] for p in per]))
        assert np.array_equal(d_input, np.stack([p[2][0] for p in per]))


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_dense_batch_equals_single_samples(n):
    rng = np.random.default_rng(200 + n)
    for out_dim, in_dim in ((5, 7), (1, 4), (19, 33)):
        layer = _dense(rng, out_dim, in_dim)
        x = rng.standard_normal((n, in_dim))
        g = rng.standard_normal((n, out_dim))
        out = L.dense_forward(layer, x)
        singles = [L.dense_forward(layer, x[i : i + 1])[0] for i in range(n)]
        assert np.array_equal(out, np.stack(singles))

        d_weights, d_bias, d_input = L.dense_backward(layer, x, g)
        per = [L.dense_backward(layer, x[i : i + 1], g[i : i + 1])
               for i in range(n)]
        assert np.array_equal(d_weights, _in_order_sum([p[0] for p in per]))
        assert np.array_equal(d_bias, _in_order_sum([p[1] for p in per]))
        assert np.array_equal(d_input, np.stack([p[2][0] for p in per]))


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_pool_batch_equals_single_samples(n):
    rng = np.random.default_rng(300 + n)
    for length, channels in ((7, 3), (10, 2), (5, 1)):
        x = rng.standard_normal((n, length, channels))
        x[:, 1::3] = x[:, ::3][:, : x[:, 1::3].shape[1]]  # ties between taps
        pooled, argmax = _pool(x)
        per = [L.maxpool1d_forward(x[i]) for i in range(n)]
        assert np.array_equal(pooled, np.stack([p for p, _ in per]))

        g = rng.standard_normal(pooled.shape)
        back = _unpool(argmax, g, x.shape)
        singles = [L.maxpool1d_backward(arg, g[i], (length, channels))
                   for i, (_, arg) in enumerate(per)]
        assert np.array_equal(back, np.stack(singles))


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_pool_matches_flat_index_reference(n):
    """The pairwise maximum and its mask give the bytes of the window argmax
    and np.add.at route, signed zeros included."""
    rng = np.random.default_rng(500 + n)
    for length, channels in ((7, 3), (10, 32), (5, 64), (14, 1)):
        x = L.relu(rng.standard_normal((n, length, channels)))  # zero ties
        x[:, 1::4] = x[:, ::4][:, : x[:, 1::4].shape[1]]  # nonzero ties
        x[rng.random(x.shape) < 0.1] = -0.0  # ties of 0.0 with -0.0
        pooled, mask = _pool(x)
        want, flat_index = pool_flat_index(x)
        assert pooled.tobytes() == want.tobytes()

        g = rng.standard_normal(pooled.shape)
        g[rng.random(g.shape) < 0.3] = -0.0  # must land as +0.0
        back = _unpool(mask, g, x.shape)
        assert back.tobytes() == unpool_flat_index(flat_index, g, x.shape).tobytes()


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_softmax_ce_batch_equals_single_samples(n):
    rng = np.random.default_rng(400 + n)
    for classes in (2, 3, 19):
        logits = rng.standard_normal((n, classes)) * 4
        target = rng.integers(0, classes, size=n)
        lv = softmax_ce_grad(logits, target)
        per = [softmax_ce_grad(logits[i : i + 1], target[i : i + 1])
               for i in range(n)]
        assert lv.loss.tolist() == [p.loss[0] for p in per]
        assert np.array_equal(lv.grad, np.stack([p.grad[0] for p in per]))
        probs = L.softmax(logits)
        assert np.array_equal(
            probs, np.stack([L.softmax(logits[i : i + 1])[0] for i in range(n)])
        )


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_model_gradient_is_in_order_sum_of_sample_gradients(n):
    # F=13 leaves a pooling remainder at both pools (11 -> 5, 3 -> 1).
    rng = np.random.default_rng(500 + n)
    model = build_model(ArchitectureConfig(feature_count=13, class_count=3), rng)
    x = rng.standard_normal((n, 13, 1))
    y = rng.integers(0, 3, size=n)
    logits, activations = forward(model, x)
    lv = softmax_ce_grad(logits, y)
    grads = param_views(model.arch, backward(model, activations, lv.grad))
    per = []  # (loss, gradients, logits) of each sample as the N=1 batch
    for i in range(n):
        z, acts = forward(model, x[i : i + 1])
        lv_i = softmax_ce_grad(z, y[i : i + 1])
        per.append((lv_i.loss[0], param_views(model.arch, backward(model, acts, lv_i.grad)),
                    z[0]))
    assert lv.loss.tolist() == [loss for loss, _, _ in per]
    assert np.array_equal(logits, np.stack([z for _, _, z in per]))
    for name, total in grads.items():
        want = _in_order_sum([g[name] for _, g, _ in per])
        assert np.array_equal(total, want), name
