"""The frozen float64 array (rank 1-3) that carries data across the library
boundary."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DataError

MAX_RANK = 3


class Tensor:
    """Immutable dense array of 64-bit floats, row-major, rank 1 to 3.

    The container for data at the library boundary: dataset features,
    standardized inputs, training labels and predicted probabilities. The
    layer kernels work on plain ndarrays.
    """

    __slots__ = ("_array",)

    def __init__(self, data, shape: Sequence[int] | None = None):
        array = np.array(data, dtype=np.float64, order="C")
        if shape is not None:
            shape = tuple(int(d) for d in shape)
            if array.size != math.prod(shape):
                raise DataError(f"cannot shape {array.size} values into {shape}")
            array = array.reshape(shape)
        if array.ndim < 1 or array.ndim > MAX_RANK:
            raise DataError(f"rank must be 1..{MAX_RANK}, got shape {array.shape}")
        if array.size and not np.all(np.isfinite(array)):
            raise DataError("tensor values must be finite (no NaN/Inf)")
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

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def rank(self) -> int:
        return self._array.ndim

    @property
    def array(self) -> np.ndarray:
        """The shaped ndarray view (read-only)."""
        return self._array

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

