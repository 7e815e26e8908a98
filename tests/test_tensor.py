import numpy as np
import pytest

from flowsentinel.errors import DataError
from flowsentinel.tensor import Tensor


def test_tensor_rejects_nan_and_bad_rank():
    with pytest.raises(DataError, match=r"tensor values must be finite \(no NaN/Inf\)"):
        Tensor([[1.0, float("nan")]])
    with pytest.raises(DataError, match=r"tensor values must be finite \(no NaN/Inf\)"):
        Tensor([[float("inf")]])
    for data, shape in ((np.zeros((4, 16, 1)), r"\(4, 16, 1\)"),
                        ([1.0, 2.0], r"\(2,\)"), (5.0, r"\(\)")):
        with pytest.raises(DataError, match=rf"is 2-D \(rows, columns\), got shape {shape}$"):
            Tensor(data)


def test_tensor_array_is_read_only():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        t.array[0, 0] = 9.0
    wrapped = Tensor._wrap(np.zeros(3))
    with pytest.raises(ValueError):
        wrapped.array[0] = 9.0

