import numpy as np
import pytest

from flowsentinel.errors import ValidationError
from flowsentinel.pipeline import (
    PreprocState,
    apply_standardizer,
    encode_labels,
    fit_standardizer,
    one_hot_rows,
    stratified_split,
)
from flowsentinel.tensor import Tensor


def test_encode_labels_lexicographic():
    label_map, idx = encode_labels(["Benign", "DDoS", "Benign"])
    assert label_map == ["Benign", "DDoS"]
    assert idx == [0, 1, 0]


def test_encode_labels_single_class():
    label_map, idx = encode_labels(["x", "x", "x"])
    assert label_map == ["x"]
    assert idx == [0, 0, 0]


def test_encode_labels_sorts():
    label_map, idx = encode_labels(["b", "a", "c"])
    assert label_map == ["a", "b", "c"]
    assert idx == [1, 0, 2]


def test_encode_labels_empty():
    with pytest.raises(ValidationError):
        encode_labels([])


def test_one_hot():
    assert one_hot_rows([1], 3).tolist() == [[0.0, 1.0, 0.0]]
    assert one_hot_rows([0], 1).tolist() == [[1.0]]
    with pytest.raises(ValidationError):
        one_hot_rows([3], 3)
    with pytest.raises(ValidationError):
        one_hot_rows([0, -1], 3)


def test_encode_one_hot_argmax_round_trip():
    labels = ["DoS", "Benign", "MQTT", "Benign", "DoS"]
    label_map, idx = encode_labels(labels)
    rows = one_hot_rows(idx, len(label_map))
    for i, c in enumerate(idx):
        assert int(np.argmax(rows.array[i])) == c
        assert label_map[int(np.argmax(rows.array[i]))] == labels[i]


def test_one_hot_rows_stacks_one_row_per_index():
    rows = one_hot_rows([2, 0, 1], 3)
    assert rows.shape == (3, 3)
    assert rows.tolist() == [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    assert one_hot_rows([], 4).shape == (0, 4)


def test_fit_standardizer_two_points():
    state = fit_standardizer(Tensor([[1.0], [3.0]]))
    assert state.means.tolist() == [2.0]
    assert state.stds.tolist() == [1.0]  # population: sqrt(((1)^2+(1)^2)/2)
    assert not state.degenerate[0]


def test_fit_standardizer_population_formula():
    state = fit_standardizer(Tensor([[0.0], [0.0], [4.0], [4.0]]))
    assert state.means.tolist() == [2.0]
    assert state.stds.tolist() == [2.0]


def test_fit_standardizer_constant_column_guard():
    state = fit_standardizer(Tensor([[5.0], [5.0], [5.0]]))
    assert state.means.tolist() == [5.0]
    assert state.stds.tolist() == [1.0]
    assert bool(state.degenerate[0])


def test_fit_standardizer_empty():
    with pytest.raises(ValidationError):
        fit_standardizer(Tensor(np.empty((0, 3))))


def test_apply_standardizer_values_and_shape():
    state = fit_standardizer(Tensor([[1.0], [3.0]]))
    out = apply_standardizer(state, Tensor([[1.0], [3.0]]))
    assert out.shape == (2, 1, 1)
    assert out.tolist() == [[[-1.0]], [[1.0]]]


def test_apply_standardizer_degenerate_maps_to_zero():
    state = fit_standardizer(Tensor([[5.0], [5.0]]))
    out = apply_standardizer(state, Tensor([[5.0]]))
    assert out.tolist() == [[[0.0]]]


def test_apply_standardizer_train_columns_are_zscores():
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((200, 6)) * rng.uniform(0.5, 9.0, 6) + 11.0)
    state = fit_standardizer(x)
    z = apply_standardizer(state, x).array[:, :, 0]
    assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-9)


def test_apply_standardizer_feature_count_mismatch():
    state = fit_standardizer(Tensor([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValidationError) as err:
        apply_standardizer(state, Tensor([[1.0, 2.0, 3.0]]))
    assert "2" in str(err.value) and "3" in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_standardizer_state_must_be_finite():
    # the column sum overflows, so the mean is inf and the std NaN
    with pytest.raises(ValidationError, match="feature 2: standardizer"):
        fit_standardizer(Tensor([[1.0, 1.7e308], [3.0, 1.7e308]]))
    for bad in ({"means": [0.0, np.nan]}, {"stds": [1.0, np.inf]}):
        fields = {"means": [0.0, 0.0], "stds": [1.0, 1.0], **bad}
        with pytest.raises(ValidationError, match="not finite"):
            PreprocState(degenerate=[False, False], label_map=[],
                         feature_count=2, **fields)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_apply_standardizer_rejects_non_finite_zscores():
    state = PreprocState(means=[0.0, 0.0], stds=[1.0, 1e-300],
                         degenerate=[False, False], label_map=[], feature_count=2)
    assert apply_standardizer(state, Tensor([[1.0, 1e-10]])).shape == (1, 2, 1)
    with pytest.raises(ValidationError, match="sample 2, feature 2"):
        apply_standardizer(state, Tensor([[1.0, 1e-10], [1.0, 1e10]]))


def test_standardize_is_invertible():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((50, 4)) * 7.5 + 3.0
    state = fit_standardizer(Tensor(x))
    z = apply_standardizer(state, Tensor(x)).array[:, :, 0]
    back = z * state.stds + state.means
    assert np.max(np.abs(back - x)) < 1e-9


def test_stratified_split_balanced():
    idx = [0] * 5 + [1] * 5
    split = stratified_split(idx, 0.2, seed=1)
    val_classes = [idx[i] for i in split.val_indices]
    assert len(split.val_indices) == 2
    assert sorted(val_classes) == [0, 1]


def test_stratified_split_deterministic():
    idx = [0, 1, 0, 1, 2, 2, 0, 1, 2, 0]
    a = stratified_split(idx, 0.3, seed=77)
    b = stratified_split(idx, 0.3, seed=77)
    assert a == b


def test_stratified_split_never_empties_a_train_class():
    split = stratified_split([0, 1, 1], 0.5, seed=0)
    # class 0 has one sample: round(0.5) would take it, the clamp keeps it.
    assert [c for i, c in enumerate([0, 1, 1]) if i in split.train_indices].count(0) == 1


def test_stratified_split_is_partition():
    rng = np.random.default_rng(23)
    idx = list(rng.integers(0, 4, size=57))
    split = stratified_split(idx, 0.25, seed=5)
    train, val = set(split.train_indices), set(split.val_indices)
    assert train.isdisjoint(val)
    assert sorted(train | val) == list(range(57))


def test_stratified_split_validation():
    with pytest.raises(ValidationError):
        stratified_split([], 0.2, seed=0)
    with pytest.raises(ValidationError):
        stratified_split([0, 1], 0.0, seed=0)
    with pytest.raises(ValidationError):
        stratified_split([0, 1], 1.0, seed=0)
