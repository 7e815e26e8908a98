import math

import numpy as np
import pytest

from flowsentinel.errors import DimensionError, ValidationError
from flowsentinel.optim import (
    PROB_FLOOR,
    AdamState,
    adam_step,
    glorot_uniform_init,
    softmax_ce_grad,
)
from flowsentinel.tensor import Tensor

from oracles import assert_grad_close, central_diff


# Cross-entropy is reached through softmax_ce_grad, the softmax/CE pair the
# engine trains with: the loss is -log(softmax(logits)[target]), floored.

def test_cross_entropy_perfect_prediction():
    # exp(-1000) underflows to 0, so the target's probability is exactly 1
    lv = softmax_ce_grad(Tensor([1000.0, 0.0, 0.0]), Tensor([1.0, 0.0, 0.0]))
    assert lv.loss == 0.0


def test_cross_entropy_half():
    lv = softmax_ce_grad(Tensor([3.0, 3.0]), Tensor([1.0, 0.0]))
    assert abs(lv.loss - math.log(2.0)) < 1e-15


def test_cross_entropy_clipping_floor():
    # softmax gives the target about exp(-100) < PROB_FLOOR; the loss is
    # clipped at -ln(PROB_FLOOR), for one sample and for a batch
    lv = softmax_ce_grad(Tensor([0.0, 100.0]), Tensor([1.0, 0.0]))
    assert math.isfinite(lv.loss)
    assert abs(lv.loss - 27.631021115928547) < 1e-12  # -ln(1e-12)
    assert lv.loss == -math.log(PROB_FLOOR)
    batch = softmax_ce_grad(np.array([[0.0, 100.0], [0.0, 0.0]]), np.eye(2))
    assert batch.loss[0] == -math.log(PROB_FLOOR)


def test_cross_entropy_validation():
    with pytest.raises(DimensionError):
        softmax_ce_grad(Tensor([1.0, 0.0]), Tensor([1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        softmax_ce_grad(Tensor([0.5, 0.5]), Tensor([0.5, 0.5]))  # not one-hot
    with pytest.raises(ValidationError):
        softmax_ce_grad(np.zeros((2, 2)), np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_cross_entropy_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(30):
        z = rng.standard_normal(5)
        p = np.exp(z - z.max())
        p /= p.sum()
        target = np.zeros(5)
        target[rng.integers(0, 5)] = 1.0
        loss = softmax_ce_grad(Tensor(z), Tensor(target)).loss
        assert loss >= 0.0
        if p[int(np.argmax(target))] < 1.0:
            assert loss > 0.0  # zero loss only for a certain correct prediction


def test_softmax_ce_grad_uniform():
    lv = softmax_ce_grad(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))
    assert lv.grad.tolist() == [-0.5, 0.5]
    assert abs(lv.loss - math.log(2.0)) < 1e-15


def test_softmax_ce_grad_vanishes_at_optimum():
    lv = softmax_ce_grad(Tensor([100.0, 0.0]), Tensor([1.0, 0.0]))
    assert np.max(np.abs(lv.grad.array)) < 1e-40
    assert lv.loss < 1e-12


def test_softmax_ce_grad_sums_to_zero():
    rng = np.random.default_rng(2)
    for _ in range(30):
        logits = Tensor(rng.standard_normal(7) * 5)
        target = np.zeros(7)
        target[rng.integers(0, 7)] = 1.0
        lv = softmax_ce_grad(logits, Tensor(target))
        assert abs(float(lv.grad.data.sum())) < 1e-12


def test_softmax_ce_grad_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        logits = rng.standard_normal(5) * 2
        target = np.zeros(5)
        target[rng.integers(0, 5)] = 1.0

        def loss():
            e = np.exp(logits - logits.max())
            p = e / e.sum()
            return float(-np.log(max(p[int(np.argmax(target))], 1e-12)))

        analytic = softmax_ce_grad(Tensor(logits), Tensor(target)).grad.array
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
    with pytest.raises(DimensionError):
        adam_step(state, np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_adam_descends_one_parameter_quadratic():
    for lr in (0.1, 0.01, 0.001):
        for p0 in (1.0, -0.5, 3.0):
            state = AdamState(shape=(1,), lr=lr)
            p = np.array([p0])
            grad = np.array([2.0 * p0])
            p_new = adam_step(state, p, grad)
            assert p_new[0] ** 2 < p0**2


def test_glorot_bound_is_one_for_fans_three():
    rng = np.random.default_rng(3)
    t = glorot_uniform_init((3, 3), fan_in=3, fan_out=3, rng=rng)
    assert np.all(t.array >= -1.0) and np.all(t.array <= 1.0)


def test_glorot_deterministic_per_seed():
    a = glorot_uniform_init((4, 5), 4, 5, np.random.default_rng(99))
    b = glorot_uniform_init((4, 5), 4, 5, np.random.default_rng(99))
    assert a == b


def test_glorot_sample_mean_near_zero():
    rng = np.random.default_rng(4)
    t = glorot_uniform_init((100000,), fan_in=10, fan_out=10, rng=rng)
    assert abs(float(t.array.mean())) < 0.01


def test_glorot_rejects_bad_fans():
    with pytest.raises(ValidationError):
        glorot_uniform_init((2,), 0, 3, np.random.default_rng(0))
