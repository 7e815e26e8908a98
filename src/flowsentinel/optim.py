"""Categorical cross-entropy coupled with softmax, the Adam optimizer, and
Glorot-uniform initialization."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, ValidationError
from .layers import softmax
from .tensor import Tensor

# Probabilities are clipped at this floor inside the loss so a confident
# wrong prediction yields a large finite value instead of infinity.
PROB_FLOOR = 1e-12

DEFAULT_LR = 0.001
DEFAULT_BETA1 = 0.9
DEFAULT_BETA2 = 0.999
DEFAULT_EPSILON = 1e-8


@dataclass
class LossValue:
    loss: float | np.ndarray  # nats, >= 0; one value per sample for a batch
    grad: Tensor | np.ndarray  # w.r.t. the pre-softmax logits; rows sum to ~0


@dataclass
class AdamState:
    """Moment estimates for one parameter tensor. Single-owner, mutable."""

    shape: tuple[int, ...]
    lr: float = DEFAULT_LR
    beta1: float = DEFAULT_BETA1
    beta2: float = DEFAULT_BETA2
    epsilon: float = DEFAULT_EPSILON
    t: int = 0
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)

    def __post_init__(self):
        self.shape = tuple(int(d) for d in self.shape)
        self.m = np.zeros(self.shape)
        self.v = np.zeros(self.shape)


def _one_hot_indices(targets: np.ndarray) -> np.ndarray:
    """Column of the single 1 in each row; raises unless every row is one-hot."""
    ones = targets == 1.0
    if not (np.all(ones | (targets == 0.0)) and np.all(ones.sum(axis=1) == 1)):
        raise ValidationError("target must be one-hot (a single 1, rest 0)")
    return ones.argmax(axis=1)


def softmax_ce_grad(logits, one_hot_target) -> LossValue:
    """Loss of softmax(logits) against the target, and its logits gradient.

    Takes (samples, classes) ndarrays of logits and one-hot rows, and then
    returns one loss per sample; or one sample as Tensor vectors, and then
    returns a float and a Tensor. The gradient is softmax(logits) - target,
    the closed form for the softmax/cross-entropy pair.
    """
    single = isinstance(logits, Tensor)
    if single:
        z, target = logits.array[None], one_hot_target.array[None]
    else:
        z, target = logits, one_hot_target
    if z.shape != target.shape or z.ndim != 2:
        raise DimensionError(
            f"logits {z.shape} and target {target.shape} must be "
            "equal-shape (samples, classes) arrays"
        )
    idx = _one_hot_indices(target)
    probs = softmax(z)
    picked = probs[np.arange(len(idx)), idx]
    losses = np.array([-math.log(max(float(p), PROB_FLOOR)) for p in picked])
    grad = probs - target
    if single:
        return LossValue(loss=float(losses[0]), grad=Tensor._wrap(grad[0]))
    return LossValue(loss=losses, grad=grad)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One Adam update; mutates state and returns the new parameters as a new
    array. `params` itself is never written to."""
    if params.shape != state.shape or grads.shape != state.shape:
        raise DimensionError(
            f"params {params.shape} / grads {grads.shape} do not match "
            f"optimizer state {state.shape}"
        )
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * (grads * grads)
    m_hat = state.m / (1.0 - state.beta1**state.t)
    v_hat = state.v / (1.0 - state.beta2**state.t)
    update = state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return params - update


def glorot_uniform_init(
    shape: Sequence[int], fan_in: int, fan_out: int, rng: np.random.Generator
) -> Tensor:
    """I.i.d. uniform on [-b, b] with b = sqrt(6 / (fan_in + fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValidationError(
            f"fans must be positive, got fan_in={fan_in}, fan_out={fan_out}"
        )
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    values = rng.uniform(-bound, bound, size=tuple(int(d) for d in shape))
    return Tensor._wrap(np.ascontiguousarray(values))
