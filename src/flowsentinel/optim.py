"""Categorical cross-entropy coupled with softmax, the Adam optimizer, and
Glorot-uniform initialization."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError
from .layers import softmax

# Probabilities are clipped at this floor inside the loss so a confident
# wrong prediction yields a large finite value instead of infinity.
PROB_FLOOR = 1e-12

DEFAULT_LR = 0.001
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class LossValue:
    loss: np.ndarray  # nats, >= 0; one value per sample
    grad: np.ndarray  # w.r.t. the pre-softmax logits; rows sum to ~0


@dataclass
class AdamState:
    """Moment estimates for one parameter tensor, and the scratch buffer
    each `adam_step` reuses. Single-owner, mutable."""

    shape: tuple[int, ...]
    lr: float = DEFAULT_LR
    t: int = 0
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.shape = tuple(int(d) for d in self.shape)
        self.m = np.zeros(self.shape)
        self.v = np.zeros(self.shape)
        self.scratch = np.empty(self.shape)


def class_indices(
    targets: Sequence[int] | np.ndarray, samples: int, classes: int
) -> np.ndarray:
    """`targets` as a (samples,) integer array of indices in [0, classes).

    Raises rather than let a float, a one-hot row or an out-of-range index
    through; numpy would wrap a negative index silently.
    """
    targets = np.asarray(targets)
    if targets.shape != (samples,):
        raise DataError(f"targets {targets.shape} must be ({samples},) class indices")
    if targets.dtype.kind not in "iu":
        raise DataError(
            f"targets must be integer class indices, got dtype {targets.dtype}"
        )
    if samples and not (targets.min() >= 0 and targets.max() < classes):
        bad = targets[(targets < 0) | (targets >= classes)][0]
        raise DataError(f"class index {bad} out of range for {classes} classes")
    return targets


def softmax_ce_grad(
    logits: np.ndarray, targets: Sequence[int] | np.ndarray
) -> LossValue:
    """Loss of softmax(logits) against the target classes, and its logits
    gradient.

    Takes (samples, classes) logits and (samples,) class indices and returns
    one loss per sample. The gradient is softmax(logits) minus the one-hot
    target, the closed form for the softmax/cross-entropy pair; subtracting
    1 at the target alone gives the same bits, as p - 0 == p.
    """
    if logits.ndim != 2:
        raise DataError(f"logits must be (samples, classes), got {logits.shape}")
    targets = class_indices(targets, *logits.shape)
    probs = softmax(logits)
    rows = np.arange(len(targets))
    losses = np.array(
        [-math.log(max(float(p), PROB_FLOOR)) for p in probs[rows, targets]]
    )
    probs[rows, targets] -= 1.0
    return LossValue(loss=losses, grad=probs)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One Adam update; updates state.m and state.v in place and returns the
    new parameters as a new array. `params` and `grads` are never written to.

    The update is built in the state's scratch buffer and the returned
    array, with the operations of lr * m_hat / (sqrt(v_hat) + eps) in that
    order, so the bytes are those of the expression evaluated into
    temporaries."""
    if params.shape != state.shape or grads.shape != state.shape:
        raise DataError(
            f"params {params.shape} / grads {grads.shape} do not match "
            f"optimizer state {state.shape}"
        )
    state.t += 1
    m, v, scratch = state.m, state.v, state.scratch
    np.multiply(grads, 1.0 - BETA1, out=scratch)
    m *= BETA1
    m += scratch  # BETA1 * m + (1 - BETA1) * g
    np.multiply(grads, grads, out=scratch)
    scratch *= 1.0 - BETA2
    v *= BETA2
    v += scratch  # BETA2 * v + (1 - BETA2) * (g * g)
    out = np.divide(m, 1.0 - BETA1**state.t)  # m_hat
    out *= state.lr
    np.divide(v, 1.0 - BETA2**state.t, out=scratch)  # v_hat
    np.sqrt(scratch, out=scratch)
    scratch += EPSILON
    out /= scratch
    return np.subtract(params, out, out=out)


def glorot_uniform_init(
    shape: Sequence[int], fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """I.i.d. uniform on [-b, b] with b = sqrt(6 / (fan_in + fan_out)), as a
    new writable array."""
    if fan_in <= 0 or fan_out <= 0:
        raise DataError(
            f"fans must be positive, got fan_in={fan_in}, fan_out={fan_out}"
        )
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=tuple(int(d) for d in shape))
