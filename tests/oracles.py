"""Independent reference implementations the tests check against.

Everything here is deliberately written the dumb way (explicit loops, or a
separate vectorized route) so it shares no code with the package.
"""

import numpy as np


def conv1d_brute(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop cross-correlation, stride 1, no padding.

    Accumulates bias first, then taps in ascending (channel, offset) order,
    which makes it bit-comparable to the production kernel.
    """
    length, in_ch = x.shape
    filters, _, k = w.shape
    t_out = length - k + 1
    out = np.empty((t_out, filters))
    for t in range(t_out):
        for f in range(filters):
            s = b[f]
            for c in range(in_ch):
                for tap in range(k):
                    s = s + w[f, c, tap] * x[t + tap, c]
            out[t, f] = s
    return out


def dense_brute(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y[n] = W x[n] + b for an (N, in) batch, by an explicit loop over the
    columns: the first column's term, then each later column's term added in
    ascending order, then the bias. Each step is one elementwise product and
    one elementwise add over the (sample, unit) grid, which round exactly as
    scalar float operations do.
    """
    out = x[:, 0, None] * w[None, :, 0]
    for j in range(1, x.shape[1]):
        out = out + x[:, j, None] * w[None, :, j]
    return out + b


def dense_backward_brute(x: np.ndarray, w: np.ndarray,
                         grad_out: np.ndarray) -> tuple[np.ndarray, ...]:
    """(d_weights, d_bias, d_input) of y[n] = W x[n] + b for an (N, in) batch.

    d_weights and d_bias start from 0 and add each sample's outer product and
    gradient row in a loop over the samples, in batch order; d_input starts
    from 0 and adds grad_out[:, o] * W[o] for each unit o in ascending order.
    """
    d_weights = np.zeros(w.shape)
    d_bias = np.zeros(w.shape[0])
    for i in range(x.shape[0]):
        d_weights = d_weights + grad_out[i, :, None] * x[i]
        d_bias = d_bias + grad_out[i]
    d_input = np.zeros(x.shape)
    for o in range(w.shape[0]):
        d_input = d_input + grad_out[:, o, None] * w[o]
    return d_weights, d_bias, d_input


def pool_flat_index(x: np.ndarray, pool: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling of an (N, L, C) batch by window argmax and flat indices,
    the route the pairwise-maximum kernel replaced, kept as its reference.

    Each sample is trimmed to whole windows; the batch is pooled as the rows
    of all samples. Returns (pooled, flat argmax per cell); ties go to the
    first index.
    """
    n, length, channels = x.shape
    t_out = length // pool
    v = x[:, : t_out * pool].reshape(n * t_out, pool, channels)
    within = v.argmax(axis=1)
    cells = np.arange(n * t_out)[:, None] * pool + within
    flat_index = cells * channels + np.arange(channels)[None, :]
    return v.max(axis=1).reshape(n, t_out, channels), flat_index


def unpool_flat_index(flat_index: np.ndarray, grad: np.ndarray,
                      shape: tuple[int, int, int], pool: int = 2) -> np.ndarray:
    """Gradient of `pool_flat_index`: np.add.at scatters each output gradient
    into zeros at its flat argmax; trimmed rows get 0."""
    n, length, channels = shape
    t_out = length // pool
    flat = np.zeros(n * t_out * pool * channels)
    np.add.at(flat, flat_index.reshape(-1), grad.reshape(-1))
    out = np.zeros(shape)
    out[:, : t_out * pool] = flat.reshape(n, t_out * pool, channels)
    return out


def central_diff(loss_fn, array: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of loss_fn() w.r.t. every entry of array.

    loss_fn must read `array` afresh on each call; the array is perturbed in
    place and restored.
    """
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def central_diff_stacked(loss_of_stack, array: np.ndarray, h: float = 1e-6,
                         chunk: int = 256) -> np.ndarray:
    """central_diff with `chunk` entries per call: loss_of_stack takes a
    (2*m, *array.shape) stack of copies of array, rows 2i and 2i+1 holding
    entry i at +h and -h, and returns the 2*m losses. array is not written.
    """
    flat = array.reshape(-1)
    grad = np.empty(flat.size)
    for start in range(0, flat.size, chunk):
        idx = np.arange(start, min(start + chunk, flat.size))
        rows = np.arange(len(idx))
        stack = np.repeat(flat[None], 2 * len(idx), axis=0)
        stack[2 * rows, idx] = flat[idx] + h
        stack[2 * rows + 1, idx] = flat[idx] - h
        losses = loss_of_stack(stack.reshape((-1,) + array.shape))
        grad[idx] = (losses[0::2] - losses[1::2]) / (2.0 * h)
    return grad.reshape(array.shape)


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray,
                      rel: float, floor: float, label: str = ""):
    """Elementwise |a - n| <= rel * max(|a|, |n|, floor).

    The floor turns the check into an absolute tolerance of rel*floor for
    near-zero entries, where finite differences are all cancellation noise.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    err = np.abs(a - n) / scale
    worst = float(err.max()) if err.size else 0.0
    assert worst < rel, f"{label}: worst relative gradient error {worst:.3e}"


# Rank of each parameter without a perturbation axis.
_PARAM_RANK = {"conv1.weights": 3, "conv1.bias": 1, "conv2.weights": 3,
               "conv2.bias": 1, "dense1.weights": 2, "dense1.bias": 1,
               "output.weights": 2, "output.bias": 1}


def fast_model_loss(params: dict, x: np.ndarray, y: int,
                    pool: int = 2, prob_floor: float = 1e-12):
    """Vectorized re-implementation of the whole network's loss.

    Same mathematical function as the production stack (im2col + matmul
    instead of ordered folds), used as the independent route for end-to-end
    finite differences. `params` maps the eight parameter names to ndarrays;
    x is (features, 1); y is the target class index. Returns the loss as a
    float. One parameter may carry an extra leading axis of P perturbed
    copies; the call then returns the P losses as an array, one forward pass
    for all.
    """
    stacked = any(v.ndim > _PARAM_RANK[n] for n, v in params.items())
    p = {n: v if v.ndim > _PARAM_RANK[n] else v[None] for n, v in params.items()}

    def conv(a, w, b):  # a (P|1, L, c), w (P|1, f, c, k), b (P|1, f)
        t_out = a.shape[1] - w.shape[3] + 1
        cols = np.lib.stride_tricks.sliding_window_view(a, w.shape[3], axis=1)
        cols = cols.reshape(a.shape[0], t_out, -1)
        w = w.reshape(w.shape[0], w.shape[1], -1).transpose(0, 2, 1)
        return cols @ w + b[:, None, :]

    def max_pool(a):
        t_out = a.shape[1] // pool
        return a[:, : t_out * pool].reshape(a.shape[0], t_out, pool, -1).max(axis=2)

    def dense(v, w, b):  # v (P|1, in), w (P|1, out, in), b (P|1, out)
        return (w @ v[:, :, None])[:, :, 0] + b

    a = conv(x[None], p["conv1.weights"], p["conv1.bias"])
    a = np.maximum(a, 0.0)
    a = max_pool(a)
    a = conv(a, p["conv2.weights"], p["conv2.bias"])
    a = np.maximum(a, 0.0)
    a = max_pool(a)
    h = dense(a.reshape(a.shape[0], -1), p["dense1.weights"], p["dense1.bias"])
    h = np.maximum(h, 0.0)
    z = dense(h, p["output.weights"], p["output.bias"])
    e = np.exp(z - z.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    losses = -np.log(np.maximum(probs[:, int(y)], prob_floor))
    return losses if stacked else float(losses[0])
