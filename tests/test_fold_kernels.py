"""The fold kernels give the loop oracles' bytes, at every SIMD level.

`conv1d_forward`, `dense_forward` and `dense_backward` run their left folds
inside np.einsum calls. The properties compare them byte for byte with
`conv1d_brute`, `dense_brute` and `dense_backward_brute` over random shapes,
single-element outputs included. The restricted-dispatch tests re-run the
oracle, batch and Adam tests with numpy's wider SIMD targets switched off;
numpy reads that setting at import, so they run in a child process.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsentinel import layers as L

from oracles import conv1d_brute, dense_backward_brute, dense_brute

# Scalar multiply-adds that one conv example may cost the loop oracle, on top
# of the single output position every shape gets.
_CONV_BUDGET = 60_000


@st.composite
def _conv_shapes(draw):
    """(N, length, channels, kernel_size, filters), with channels*kernel_size
    (the contracted width) up to 600."""
    k = draw(st.integers(1, 5))
    channels = draw(st.integers(1, 600 // k))
    filters = draw(st.integers(1, 140))
    per_position = filters * channels * k
    t_out = draw(st.integers(1, max(1, min(40, _CONV_BUDGET // per_position))))
    n = draw(st.integers(1, max(1, min(40, _CONV_BUDGET // (per_position * t_out)))))
    return n, t_out + k - 1, channels, k, filters


def _values(rng, shape, relu, zero_rows):
    """Normals at magnitudes from 1e-3 to 1e3; ReLU's zeros if `relu`, and
    some whole samples of zeros if `zero_rows`."""
    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    if relu:
        v = np.maximum(v, 0.0)
    if zero_rows:
        v[rng.random(shape[0]) < 0.3] = 0.0
    return v


def _bias(rng, size):
    """Finite biases, some of them zero. Adding +0.0 turns -0.0 into +0.0,
    which the kernels need and training guarantees (see conv1d_forward)."""
    b = rng.standard_normal(size)
    b[rng.random(size) < 0.2] = -0.0
    return b + 0.0


_seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(_conv_shapes(), _seeds, st.booleans(), st.booleans())
@example((1, 3, 2, 3, 1), 0, False, False)  # a single-element output
@example((1, 600, 1, 1, 1), 1, True, True)
@example((2, 3, 200, 3, 1), 2, True, False)
def test_conv_forward_bytes_equal_brute(shape, seed, relu, zero_rows):
    n, length, channels, k, filters = shape
    rng = np.random.default_rng(seed)
    x = _values(rng, (n, length, channels), relu, zero_rows)
    layer = L.Conv1DLayer(weights=rng.standard_normal((filters, channels, k)),
                          bias=_bias(rng, filters))
    got = L.conv1d_forward(layer, x)
    assert got.shape == (n, length - k + 1, filters)
    for i in range(n):
        want = conv1d_brute(x[i], layer.weights, layer.bias)
        assert got[i].tobytes() == want.tobytes(), f"sample {i}"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 600), st.integers(1, 140), _seeds,
       st.booleans(), st.booleans())
@example(1, 4, 1, 0, False, False)  # a single-element output
@example(1, 1, 1, 1, True, False)
@example(40, 600, 140, 2, True, True)
def test_dense_forward_bytes_equal_brute(n, in_dim, out_dim, seed, relu, zero_rows):
    rng = np.random.default_rng(seed)
    x = _values(rng, (n, in_dim), relu, zero_rows)
    layer = L.DenseLayer(weights=rng.standard_normal((out_dim, in_dim)),
                         bias=_bias(rng, out_dim))
    got = L.dense_forward(layer, x)
    assert got.tobytes() == dense_brute(x, layer.weights, layer.bias).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 600), st.integers(1, 140), _seeds,
       st.booleans(), st.booleans(), st.booleans())
@example(1, 300, 70, 0, True, False, False)  # one sample
@example(7, 1, 1, 1, True, True, False)  # single-element weight gradient
@example(3, 4, 2, 2, True, False, True)
def test_dense_backward_bytes_equal_brute(n, in_dim, out_dim, seed, relu,
                                          zero_rows, dead_unit):
    # relu draws the zeros of ReLU inputs and of relu_backward's gradients.
    # A dead unit (input 0 is 0 in every sample, unit 0's gradient always
    # negative) makes each term of d_weights[0, 0] -0.0; the fold from 0
    # gives +0.0 there. `+ 0.0` maps -0.0 to +0.0 and keeps every other
    # value, so the bias's fold from its first sample compares too.
    rng = np.random.default_rng(seed)
    x = _values(rng, (n, in_dim), relu, zero_rows)
    grad_out = _values(rng, (n, out_dim), False, False)
    if relu:
        grad_out[rng.random((n, out_dim)) < 0.3] = 0.0
    if dead_unit:
        x[:, 0] = 0.0
        grad_out[:, 0] = -1.0 - np.abs(grad_out[:, 0])
    w = rng.standard_normal((out_dim, in_dim))
    got = L.dense_backward(L.DenseLayer(weights=w, bias=_bias(rng, out_dim)),
                           x, grad_out)
    want = dense_backward_brute(x, w, grad_out)
    for name, g, o in zip(("d_weights", "d_bias", "d_input"), got, want):
        assert (g + 0.0).tobytes() == (o + 0.0).tobytes(), name
    if dead_unit and out_dim * in_dim > 1:  # else fold_sum keeps the sign
        assert got[0][0, 0].tobytes() == np.float64(0.0).tobytes()


_RESTRICTED = "AVX512_SPR AVX512_ICL X86_V4"
_TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("features", [_RESTRICTED, _RESTRICTED + " X86_V3"])
def test_oracle_and_batch_bytes_under_restricted_dispatch(features):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=features)
    off = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy._core._multiarray_umath as m;"
         "sys.exit(any(m.__cpu_features__[f] for f in sys.argv[1:]))",
         *features.split()],
        env=env, capture_output=True, text=True,
    )
    assert off.returncode == 0, f"numpy kept a feature of {features!r} on"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_layers.py", "tests/test_batch.py", "tests/test_tensor.py",
         "tests/test_fold_kernels.py", "tests/test_optim.py",
         "-k", "not restricted_dispatch"],
        cwd=_TESTS.parent, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
