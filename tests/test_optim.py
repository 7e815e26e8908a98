import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentinel import layers as L
from flowsentinel.errors import DataError
from flowsentinel.optim import (
    BETA1,
    BETA2,
    EPSILON,
    PROB_FLOOR,
    AdamState,
    adam_step,
    glorot_uniform_init,
    softmax_ce_grad,
)
from flowsentinel.trainer import ArchitectureConfig, param_shapes
from oracles import assert_grad_close, central_diff


# Cross-entropy is reached through softmax_ce_grad, the softmax/CE pair the
# engine trains with: the loss is -log(softmax(logits)[target]), floored.
# One sample is the N=1 batch: one row of logits, one loss.

def test_cross_entropy_perfect_prediction():
    # exp(-1000) underflows to 0, so the target's probability is exactly 1
    lv = softmax_ce_grad(np.array([[1000.0, 0.0, 0.0]]), np.array([0]))
    assert lv.loss[0] == 0.0


def test_cross_entropy_half():
    lv = softmax_ce_grad(np.array([[3.0, 3.0]]), np.array([0]))
    assert abs(lv.loss[0] - math.log(2.0)) < 1e-15


def test_cross_entropy_clipping_floor():
    # softmax gives the target about exp(-100) < PROB_FLOOR; the loss is
    # clipped at -ln(PROB_FLOOR), for one sample and for a batch
    lv = softmax_ce_grad(np.array([[0.0, 100.0]]), np.array([0]))
    assert math.isfinite(lv.loss[0])
    assert abs(lv.loss[0] - 27.631021115928547) < 1e-12  # -ln(1e-12)
    assert lv.loss[0] == -math.log(PROB_FLOOR)
    batch = softmax_ce_grad(np.array([[0.0, 100.0], [0.0, 0.0]]), np.array([0, 1]))
    assert batch.loss[0] == -math.log(PROB_FLOOR)


def test_cross_entropy_validation():
    with pytest.raises(DataError, match=r"targets \(2,\) must be \(1,\)"):
        softmax_ce_grad(np.array([[1.0, 0.0]]), np.array([0, 1]))
    with pytest.raises(DataError, match=r"targets \(1, 2\) must be \(1,\)"):
        softmax_ce_grad(np.array([[1.0, 0.0]]), np.array([[1, 0]]))  # one-hot
    with pytest.raises(DataError, match="must be integer class indices"):
        softmax_ce_grad(np.array([[0.5, 0.5]]), np.array([0.0]))  # not integer
    with pytest.raises(DataError, match="class index 2 out of range"):
        softmax_ce_grad(np.zeros((2, 2)), np.array([0, 2]))
    with pytest.raises(DataError, match="class index -1"):
        softmax_ce_grad(np.zeros((2, 2)), np.array([0, -1]))


def test_cross_entropy_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(30):
        z = rng.standard_normal(5)
        p = np.exp(z - z.max())
        p /= p.sum()
        target = rng.integers(0, 5)
        loss = softmax_ce_grad(z[None], np.array([target])).loss[0]
        assert loss >= 0.0
        if p[target] < 1.0:
            assert loss > 0.0  # zero loss only for a certain correct prediction


def test_softmax_ce_grad_uniform():
    lv = softmax_ce_grad(np.array([[0.0, 0.0]]), np.array([0]))
    assert lv.grad[0].tolist() == [-0.5, 0.5]
    assert abs(lv.loss[0] - math.log(2.0)) < 1e-15


def test_softmax_ce_grad_vanishes_at_optimum():
    lv = softmax_ce_grad(np.array([[100.0, 0.0]]), np.array([0]))
    assert np.max(np.abs(lv.grad)) < 1e-40
    assert lv.loss[0] < 1e-12


def test_softmax_ce_grad_sums_to_zero():
    rng = np.random.default_rng(2)
    for _ in range(30):
        logits = rng.standard_normal(7) * 5
        target = rng.integers(0, 7)
        lv = softmax_ce_grad(logits[None], np.array([target]))
        assert abs(float(lv.grad.sum())) < 1e-12


def test_softmax_ce_grad_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        logits = rng.standard_normal(5) * 2
        target = rng.integers(0, 5)

        def loss():
            e = np.exp(logits - logits.max())
            p = e / e.sum()
            return float(-np.log(max(p[target], 1e-12)))

        analytic = softmax_ce_grad(logits[None], np.array([target])).grad[0]
        numeric = central_diff(loss, logits, h=1e-6)
        assert_grad_close(analytic, numeric, rel=1e-6, floor=1e-3,
                          label=f"softmax-ce seed {seed}")


def test_adam_first_step_constant_gradient():
    state = AdamState(shape=(4,))
    params = np.array([1.0, -2.0, 0.5, 3.0])
    new = adam_step(state, params, np.ones(4))
    expected_delta = -0.001 / (1.0 + 1e-8)  # -0.000999999990
    assert np.allclose(new - params, expected_delta, rtol=0, atol=1e-15)
    assert state.t == 1


def test_adam_zero_gradient_is_noop():
    state = AdamState(shape=(3,))
    params = np.array([1.0, 2.0, 3.0])
    new = adam_step(state, params, np.zeros(3))
    assert np.array_equal(new, params)


def test_adam_second_step_constant_gradient():
    state = AdamState(shape=(2,))
    params = np.array([0.0, 0.0])
    p1 = adam_step(state, params, np.ones(2))
    p2 = adam_step(state, p1, np.ones(2))
    # bias correction keeps m_hat = v_hat = 1 under a constant gradient
    assert np.allclose(p2 - p1, -0.001, rtol=0, atol=1e-9)
    assert state.t == 2


def test_adam_shape_mismatch():
    state = AdamState(shape=(3,))
    with pytest.raises(DataError,
                       match=r"params \(2,\) / grads \(2,\) do not match .* \(3,\)"):
        adam_step(state, np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_adam_descends_one_parameter_quadratic():
    for lr in (0.1, 0.01, 0.001):
        for p0 in (1.0, -0.5, 3.0):
            state = AdamState(shape=(1,), lr=lr)
            p = np.array([p0])
            grad = np.array([2.0 * p0])
            p_new = adam_step(state, p, grad)
            assert p_new[0] ** 2 < p0**2


@pytest.mark.parametrize("features,classes", [(16, 3), (45, 19)])
def test_adam_over_the_joined_table_is_adam_over_its_pieces(features, classes):
    # Adam works element by element, so the engine's one step over the whole
    # parameter vector must give the bytes of one step per parameter tensor.
    shapes = list(param_shapes(ArchitectureConfig(features, classes)).values())
    bounds = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    rng = np.random.default_rng(features)
    pieces = [rng.standard_normal(shape) for shape in shapes]
    states = [AdamState(shape=shape) for shape in shapes]
    joined = np.concatenate([p.ravel() for p in pieces])
    state = AdamState(shape=joined.shape)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-300, -1e300]
    for _ in range(4):
        grads = rng.standard_normal(joined.size) * 10.0 ** rng.uniform(
            -300, 300, joined.size)
        grads[rng.choice(joined.size, 64, replace=False)] = np.resize(special, 64)
        grads[np.r_[0, bounds - 1, bounds, -1]] = np.resize(special, 2 * bounds.size + 2)
        with np.errstate(over="ignore", under="ignore"):  # g * g at 1e300
            joined = adam_step(state, joined, grads)
            pieces = [adam_step(s, p, g.reshape(p.shape))
                      for s, p, g in zip(states, pieces, np.split(grads, bounds))]
        assert joined.tobytes() == b"".join(p.tobytes() for p in pieces)
        assert state.m.tobytes() == b"".join(s.m.tobytes() for s in states)
        assert state.v.tobytes() == b"".join(s.v.tobytes() for s in states)


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e200])
def test_in_place_adam_gives_the_bytes_of_the_expression(scale):
    # adam_step updates m and v in place and builds the update in one
    # scratch buffer; the bytes are those of the expression below, evaluated
    # into temporaries. 1e200 makes g * g overflow to inf.
    rng = np.random.default_rng(7)
    state = AdamState(shape=(301,), lr=0.003)
    m, v = np.zeros(301), np.zeros(301)
    params = rng.standard_normal(301)
    for t in range(1, 51):
        grads = rng.standard_normal(301) * scale * 10.0 ** rng.uniform(-3, 3, 301)
        grads[rng.random(301) < 0.2] = 0.0
        grads[rng.random(301) < 0.2] = -0.0
        kept = params.copy(), grads.copy()
        with np.errstate(over="ignore", under="ignore"):
            m = BETA1 * m + (1.0 - BETA1) * grads
            v = BETA2 * v + (1.0 - BETA2) * (grads * grads)
            m_hat = m / (1.0 - BETA1**t)
            v_hat = v / (1.0 - BETA2**t)
            want = params - state.lr * m_hat / (np.sqrt(v_hat) + EPSILON)
            got = adam_step(state, params, grads)
        assert params.tobytes() == kept[0].tobytes()
        assert grads.tobytes() == kept[1].tobytes()
        assert got.tobytes() == want.tobytes(), f"step {t}"
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
        params = got


def test_adam_reuses_the_state_scratch_buffer():
    # The scratch buffer lives in the state, so a step allocates only the
    # array it returns; that array is new on every call.
    rng = np.random.default_rng(3)
    state = AdamState(shape=(5, 4))
    scratch = state.scratch
    params = rng.standard_normal((5, 4))
    returned = []
    for _ in range(3):
        params = adam_step(state, params, rng.standard_normal((5, 4)))
        assert state.scratch is scratch
        assert not np.shares_memory(params, scratch)
        returned.append(params)
    assert len({id(p) for p in returned}) == 3
    assert "scratch" not in repr(state)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_adam_ignores_the_sign_of_a_zero_gradient(size, steps, seed):
    # m starts at +0.0 and never becomes -0.0: BETA1 * m is -0.0 only if m
    # is, and +0.0 + -0.0 is +0.0. g * g is +0.0 for either zero. So a
    # gradient fold that gives +0.0 where another gave -0.0 (the dense
    # weight gradient's fold from 0) cannot change a model byte.
    rng = np.random.default_rng(seed)
    pos, neg = AdamState(shape=(size,)), AdamState(shape=(size,))
    p_pos = p_neg = rng.standard_normal(size)
    for _ in range(steps):
        grads = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)
        zero = rng.random(size) < 0.5
        grads[zero] = 0.0
        p_pos = adam_step(pos, p_pos, grads)
        grads[zero] = -0.0
        p_neg = adam_step(neg, p_neg, grads)
        assert p_pos.tobytes() == p_neg.tobytes()
        assert pos.m.tobytes() == neg.m.tobytes()
        assert pos.v.tobytes() == neg.v.tobytes()


def test_glorot_bound_is_one_for_fans_three():
    rng = np.random.default_rng(3)
    t = glorot_uniform_init((3, 3), fan_in=3, fan_out=3, rng=rng)
    assert np.all(t >= -1.0) and np.all(t <= 1.0)


def test_glorot_deterministic_per_seed():
    a = glorot_uniform_init((4, 5), 4, 5, np.random.default_rng(99))
    b = glorot_uniform_init((4, 5), 4, 5, np.random.default_rng(99))
    assert np.array_equal(a, b)
    assert a.dtype == np.float64 and a.flags.writeable


def test_glorot_sample_mean_near_zero():
    rng = np.random.default_rng(4)
    t = glorot_uniform_init((100000,), fan_in=10, fan_out=10, rng=rng)
    assert abs(float(t.mean())) < 0.01


def test_glorot_rejects_bad_fans():
    with pytest.raises(DataError, match="fans must be positive, got fan_in=0"):
        glorot_uniform_init((2,), 0, 3, np.random.default_rng(0))


@pytest.mark.parametrize("n", [1, 2, 7, 33])
@pytest.mark.parametrize("classes", [1, 2, 19])
def test_index_targets_match_one_hot_closed_form_bitwise(n, classes):
    # Subtracting 1 at the target alone must give the bits of
    # softmax - one_hot, and the loss the floored -log of the target's
    # probability. Every other row is scaled so the target gets about
    # exp(-100) < PROB_FLOOR and the floor is hit.
    rng = np.random.default_rng(600 + 10 * n + classes)
    logits = rng.standard_normal((n, classes)) * 3
    targets = rng.integers(0, classes, size=n)
    far = np.arange(n) % 2 == 1
    if classes > 1:
        logits[far, targets[far]] -= 100.0
    lv = softmax_ce_grad(logits, targets)
    probs = L.softmax(logits)
    assert np.array_equal(lv.grad, probs - np.eye(classes)[targets])
    want = [-math.log(max(float(probs[i, t]), PROB_FLOOR))
            for i, t in enumerate(targets)]
    assert lv.loss.tolist() == want
    if classes > 1 and n > 1:
        assert lv.loss[1] == -math.log(PROB_FLOOR)
