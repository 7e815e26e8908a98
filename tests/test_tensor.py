import numpy as np
import pytest

from flowsentinel.errors import DataError
from flowsentinel.tensor import Tensor


def test_tensor_shape_argument_keeps_row_major_order():
    t = Tensor([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], shape=(2, 3))
    assert t.array.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert Tensor(t.array, shape=(6,)).array.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    with pytest.raises(DataError, match=r"cannot shape 4 values into \(3, 1\)"):
        Tensor([[1.0, 2.0], [3.0, 4.0]], shape=(3, 1))


def test_tensor_rejects_nan_and_bad_rank():
    with pytest.raises(DataError, match=r"tensor values must be finite \(no NaN/Inf\)"):
        Tensor([1.0, float("nan")])
    with pytest.raises(DataError, match=r"tensor values must be finite \(no NaN/Inf\)"):
        Tensor([float("inf")])
    with pytest.raises(DataError,
                       match=r"rank must be 1\.\.3, got shape \(2, 2, 2, 2\)"):
        Tensor(np.zeros((2, 2, 2, 2)))
    with pytest.raises(DataError, match=r"rank must be 1\.\.3, got shape \(\)"):
        Tensor(5.0)


def test_tensor_array_is_read_only():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        t.array[0, 0] = 9.0
    wrapped = Tensor._wrap(np.zeros(3))
    with pytest.raises(ValueError):
        wrapped.array[0] = 9.0

