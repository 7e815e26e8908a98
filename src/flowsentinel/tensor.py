"""The frozen float64 (rows, columns) block that carries data across the
library boundary."""

from __future__ import annotations

import numpy as np

from .errors import DataError


class Tensor:
    """Immutable 2-D array of 64-bit floats, row-major: one row per sample.

    The container for data at the library boundary: dataset features,
    standardized features and predicted probabilities. The layer kernels
    work on plain ndarrays.
    """

    __slots__ = ("_array",)

    def __init__(self, data):
        array = np.array(data, dtype=np.float64, order="C")
        if array.ndim != 2:
            raise DataError(f"a tensor is 2-D (rows, columns), got shape {array.shape}")
        if not np.isfinite(array).all():
            raise DataError("tensor values must be finite (no NaN/Inf)")
        array.flags.writeable = False
        self._array = array

    @classmethod
    def _wrap(cls, array: np.ndarray) -> "Tensor":
        # For internally computed results: the caller hands over a fresh
        # float64 C-contiguous block, which is marked read-only here.
        t = object.__new__(cls)
        array.flags.writeable = False
        t._array = array
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def array(self) -> np.ndarray:
        """The (rows, columns) ndarray view (read-only)."""
        return self._array

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"
