import numpy as np
import pytest

from flowsentinel.errors import DimensionError, ValidationError
from flowsentinel.layers import fold_sum
from flowsentinel.tensor import Tensor


def test_tensor_shape_argument_keeps_row_major_order():
    t = Tensor([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], shape=(2, 3))
    assert t.array.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert Tensor(t.array, shape=(6,)).array.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    with pytest.raises(DimensionError):
        Tensor([[1.0, 2.0], [3.0, 4.0]], shape=(3, 1))


def test_tensor_rejects_nan_and_bad_rank():
    with pytest.raises(ValidationError):
        Tensor([1.0, float("nan")])
    with pytest.raises(ValidationError):
        Tensor([float("inf")])
    with pytest.raises(DimensionError):
        Tensor(np.zeros((2, 2, 2, 2)))
    with pytest.raises(DimensionError):
        Tensor(5.0)


def test_tensor_array_is_read_only():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        t.array[0, 0] = 9.0
    wrapped = Tensor._wrap(np.zeros(3))
    with pytest.raises(ValueError):
        wrapped.array[0] = 9.0


def test_fold_sum_is_left_fold_bitwise():
    # Pins the summation-order behaviour every ordered kernel relies on,
    # including the inner-size-1 path where numpy reduce would go pairwise.
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 8, 9, 97, 129, 400):
        for inner in ((1,), (2,), (3,), (7,), (5, 4)):
            a = np.ascontiguousarray(
                rng.standard_normal((n,) + inner) * 10.0 ** rng.integers(-4, 5)
            )
            got = fold_sum(a)
            want = a[0].copy()
            for i in range(1, n):
                want = want + a[i]
            assert np.array_equal(got, want), (n, inner)
