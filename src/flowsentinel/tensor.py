"""Dense float64 tensors (rank 1-3) and the left-fold sum the layers use.

Every reduction here is a strict left fold in ascending index order, so results
are bit-identical to a plain Python loop and therefore reproducible run to run.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DimensionError, ValidationError

MAX_RANK = 3


class Tensor:
    """Immutable dense array of 64-bit floats, row-major, rank 1 to 3."""

    __slots__ = ("_array",)

    def __init__(self, data, shape: Sequence[int] | None = None):
        array = np.array(data, dtype=np.float64, order="C")
        if shape is not None:
            shape = tuple(int(d) for d in shape)
            if array.size != math.prod(shape):
                raise DimensionError(
                    f"cannot shape {array.size} values into {shape}"
                )
            array = array.reshape(shape)
        if array.ndim < 1 or array.ndim > MAX_RANK:
            raise DimensionError(
                f"rank must be 1..{MAX_RANK}, got shape {array.shape}"
            )
        if array.size and not np.all(np.isfinite(array)):
            raise ValidationError("tensor values must be finite (no NaN/Inf)")
        array.flags.writeable = False
        self._array = array

    @classmethod
    def _wrap(cls, array: np.ndarray) -> "Tensor":
        # Fast path for internally computed float64 C-contiguous results.
        t = object.__new__(cls)
        if not array.flags.c_contiguous:
            array = np.ascontiguousarray(array)
        array.flags.writeable = False
        t._array = array
        return t

    @classmethod
    def zeros(cls, shape: Sequence[int]) -> "Tensor":
        return cls._wrap(np.zeros(tuple(int(d) for d in shape)))

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def rank(self) -> int:
        return self._array.ndim

    @property
    def size(self) -> int:
        return self._array.size

    @property
    def array(self) -> np.ndarray:
        """The shaped ndarray view (read-only)."""
        return self._array

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the values (read-only)."""
        return self._array.reshape(-1)

    def tolist(self):
        return self._array.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(
            self._array, other._array
        )

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


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
