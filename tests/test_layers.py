import math

import numpy as np

from flowsentinel.layers import (
    Conv1DLayer,
    DenseLayer,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    flatten,
    maxpool1d_backward,
    maxpool1d_forward,
    relu,
    relu_backward,
    softmax,
)
from oracles import assert_grad_close, central_diff, conv1d_brute


def _conv(w, b):
    return Conv1DLayer(weights=np.asarray(w, dtype=float),
                       bias=np.asarray(b, dtype=float))


def _col(values):
    """One-channel rows (length, 1); `[None]` makes them the N=1 batch."""
    return np.asarray(values, dtype=float)[:, None]


# --- Conv1D ---------------------------------------------------------------

def test_conv_forward_edge_kernel():
    layer = _conv([[[1.0, 0.0, -1.0]]], [0.0])
    out = conv1d_forward(layer, _col([1, 2, 3, 4])[None])[0]
    assert out.tolist() == [[-2.0], [-2.0]]


def test_conv_forward_center_tap():
    layer = _conv([[[0.0, 1.0, 0.0]]], [0.0])
    out = conv1d_forward(layer, _col([1, 2, 3, 4])[None])[0]
    assert out.tolist() == [[2.0], [3.0]]


def test_conv_forward_matches_brute_force_bitwise():
    rng = np.random.default_rng(100)
    for trial in range(100):
        length = int(rng.integers(3, 33))
        channels = int(rng.integers(1, 5))
        filters = int(rng.integers(1, 9))
        x = rng.standard_normal((length, channels))
        w = rng.standard_normal((filters, channels, 3))
        b = rng.standard_normal(filters)
        layer = _conv(w, b)
        got = conv1d_forward(layer, x[None])[0]
        want = conv1d_brute(x, w, b)
        assert np.array_equal(got, want), f"trial {trial}"


def test_conv_forward_matches_brute_force_other_kernels():
    rng = np.random.default_rng(101)
    for k in (1, 2, 4, 5):
        x = rng.standard_normal((9, 2))
        w = rng.standard_normal((3, 2, k))
        b = rng.standard_normal(3)
        got = conv1d_forward(_conv(w, b), x[None])[0]
        assert np.array_equal(got, conv1d_brute(x, w, b))
    # single filter, single output position: the degenerate 1-element grid
    x = rng.standard_normal((3, 2))
    w = rng.standard_normal((1, 2, 3))
    b = rng.standard_normal(1)
    got = conv1d_forward(_conv(w, b), x[None])[0]
    assert np.array_equal(got, conv1d_brute(x, w, b))


def test_conv_backward_hand_example():
    # d_w[k] = sum_t g[t]*x[t+k] = [1+2, 2+3, 3+4]; d_b = 2;
    # d_x spreads w over the two windows: [1, 1, -1, -1].
    layer = _conv([[[1.0, 0.0, -1.0]]], [0.0])
    d_weights, d_bias, d_input = conv1d_backward(
        layer, _col([1, 2, 3, 4])[None], _col([1, 1])[None])
    assert d_weights.tolist() == [[[3.0, 5.0, 7.0]]]
    assert d_bias.tolist() == [2.0]
    assert d_input[0].tolist() == [[1.0], [1.0], [-1.0], [-1.0]]


def test_conv_backward_zero_grad_out():
    rng = np.random.default_rng(7)
    layer = _conv(rng.standard_normal((3, 2, 3)), rng.standard_normal(3))
    x = rng.standard_normal((6, 2))
    d_weights, d_bias, d_input = conv1d_backward(layer, x[None], np.zeros((1, 4, 3)))
    assert not d_weights.any()
    assert not d_bias.any()
    assert not d_input.any()


def test_conv_backward_finite_differences():
    # length 8, 2 channels, 3 filters; >= 20 seeds.
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        x = rng.standard_normal((8, 2))
        w = rng.standard_normal((3, 2, 3))
        b = rng.standard_normal(3)
        probe = rng.standard_normal((6, 3))  # arbitrary linear functional

        def loss():
            return float(np.sum(conv1d_brute(x, w, b) * probe))

        d_weights, d_bias, d_input = conv1d_backward(_conv(w, b), x[None], probe[None])
        for analytic, target in (
            (d_weights, w),
            (d_bias, b),
            (d_input[0], x),
        ):
            numeric = central_diff(loss, target, h=1e-6)
            assert_grad_close(analytic, numeric, rel=1e-6, floor=1e-3,
                              label=f"conv seed {seed}")


# --- MaxPool1D ------------------------------------------------------------

def test_pool_forward_pairwise_max():
    out, mask = maxpool1d_forward(_col([3, 1, 4, 1, 5, 9]))
    assert out.tolist() == [[3.0], [4.0], [9.0]]
    assert mask.tolist() == [[False], [False], [True]]


def test_pool_forward_tie_takes_first():
    out, mask = maxpool1d_forward(_col([2, 2]))
    assert out.tolist() == [[2.0]]
    assert mask.dtype == bool
    assert mask.tolist() == [[False]]


def test_pool_forward_drops_odd_tail():
    out, _ = maxpool1d_forward(_col([1, 2, 3]))
    assert out.tolist() == [[2.0]]


def test_pool_backward_routes_to_maxima():
    _, arg = maxpool1d_forward(_col([3, 1, 4, 1, 5, 9]))
    grad = maxpool1d_backward(arg, _col([1, 1, 1]), (6, 1))
    assert grad.tolist() == [[1.0], [0.0], [1.0], [0.0], [0.0], [1.0]]


def test_pool_backward_zero():
    _, arg = maxpool1d_forward(_col([3, 1, 4, 1]))
    grad = maxpool1d_backward(arg, np.zeros((2, 1)), (4, 1))
    assert not grad.any()


def test_pool_backward_tie_first_index():
    _, arg = maxpool1d_forward(_col([2, 2]))
    grad = maxpool1d_backward(arg, _col([7]), (2, 1))
    assert grad.tolist() == [[7.0], [0.0]]


def test_pool_conserves_gradient_mass_exactly():
    rng = np.random.default_rng(8)
    for _ in range(20):
        length = int(rng.integers(2, 40))
        channels = int(rng.integers(1, 5))
        x = rng.standard_normal((length, channels))
        pooled, arg = maxpool1d_forward(x)
        g = rng.standard_normal(pooled.shape)
        back = maxpool1d_backward(arg, g, (length, channels))
        assert math.fsum(back.ravel()) == math.fsum(g.ravel())


def test_pool_backward_finite_differences():
    # Margins keep every window's max unique so the subgradient is exact.
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        x = rng.standard_normal((10, 3))
        x += np.arange(30).reshape(10, 3) * 0.01  # break near-ties
        probe = rng.standard_normal((5, 3))

        def loss():
            t_out = x.shape[0] // 2
            return float(np.sum(x[: t_out * 2].reshape(t_out, 2, 3).max(axis=1) * probe))

        _, arg = maxpool1d_forward(x)
        analytic = maxpool1d_backward(arg, probe, (10, 3))
        numeric = central_diff(loss, x, h=1e-6)
        assert_grad_close(analytic, numeric, rel=1e-6, floor=1e-3,
                          label=f"pool seed {seed}")


# --- ReLU -----------------------------------------------------------------

def test_relu_forward_and_zero_rule():
    x = np.array([[-1.0, 0.0, 2.0]])
    assert relu(x)[0].tolist() == [0.0, 0.0, 2.0]
    back = relu_backward(x, np.array([[5.0, 5.0, 5.0]]))
    assert back[0].tolist() == [0.0, 0.0, 5.0]


def test_relu_all_positive_is_identity():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.5, 3.0, size=(4, 2))
    g = rng.standard_normal((4, 2))
    assert np.array_equal(relu(x), x)
    assert np.array_equal(relu_backward(x, g), g)


def test_relu_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        x = rng.standard_normal((6, 4))
        x = np.where(np.abs(x) < 1e-3, 0.5, x)  # stay clear of the kink
        probe = rng.standard_normal((6, 4))

        def loss():
            return float(np.sum(np.maximum(x, 0.0) * probe))

        analytic = relu_backward(x, probe)
        numeric = central_diff(loss, x, h=1e-6)
        assert_grad_close(analytic, numeric, rel=1e-6, floor=1e-3,
                          label=f"relu seed {seed}")


# --- Dense ----------------------------------------------------------------

def test_dense_forward_identity():
    layer = DenseLayer(weights=np.eye(2), bias=np.zeros(2))
    assert dense_forward(layer, np.array([[3.0, 4.0]]))[0].tolist() == [3.0, 4.0]


def test_dense_forward_hand_example():
    layer = DenseLayer(weights=np.array([[1.0, 2.0], [3.0, 4.0]]),
                       bias=np.array([1.0, 1.0]))
    assert dense_forward(layer, np.array([[1.0, 1.0]]))[0].tolist() == [4.0, 8.0]


def test_dense_backward_hand_example():
    layer = DenseLayer(weights=np.array([[1.0, 2.0], [3.0, 4.0]]),
                       bias=np.zeros(2))
    d_weights, d_bias, d_input = dense_backward(
        layer, np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]]))
    assert d_weights.tolist() == [[1.0, 1.0], [0.0, 0.0]]
    assert d_bias.tolist() == [1.0, 0.0]
    assert d_input[0].tolist() == [1.0, 2.0]


def test_dense_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        w = rng.standard_normal((5, 7))
        b = rng.standard_normal(5)
        x = rng.standard_normal(7)
        probe = rng.standard_normal(5)

        def loss():
            return float(np.sum((w @ x + b) * probe))

        layer = DenseLayer(weights=w, bias=b)
        d_weights, d_bias, d_input = dense_backward(layer, x[None], probe[None])
        for analytic, target in (
            (d_weights, w),
            (d_bias, b),
            (d_input[0], x),
        ):
            numeric = central_diff(loss, target, h=1e-6)
            assert_grad_close(analytic, numeric, rel=1e-6, floor=1e-3,
                              label=f"dense seed {seed}")


# --- Softmax & Flatten ------------------------------------------------------

def test_softmax_uniform():
    out = softmax(np.array([[0.0, 0.0, 0.0]]))[0]
    assert np.allclose(out, [1 / 3] * 3, rtol=0, atol=1e-15)


def test_softmax_closed_form():
    out = softmax(np.array([[math.log(2.0), 0.0]]))[0]
    assert np.allclose(out, [2 / 3, 1 / 3], rtol=1e-15, atol=0)


def test_softmax_large_logit_stays_finite():
    out = softmax(np.array([[1000.0, 0.0]]))[0]
    assert np.all(np.isfinite(out))
    assert out[0] > 0.999999
    assert abs(float(out.sum()) - 1.0) < 1e-12


def test_softmax_sum_and_shift_invariance():
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = rng.standard_normal(6) * 10
        a = softmax(x[None])[0]
        b = softmax((x + 123.456)[None])[0]
        assert abs(float(a.sum()) - 1.0) < 1e-12
        assert np.max(np.abs(a - b)) < 1e-12
        assert np.all(a > 0.0) and np.all(a <= 1.0)


def test_flatten_row_major_and_inverse():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    flat = flatten(x[None])[0]
    assert flat.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert flatten(_col([1, 2, 3])[None])[0].tolist() == [1.0, 2.0, 3.0]
    assert np.array_equal(flat.reshape(x.shape), x)
