"""Preprocessing chain: label encoding, one-hot rows, z-score
standardization with a zero-variance guard, and stratified splitting.

The standardizer is fitted on the training rows only and replayed unchanged
everywhere else; apply_standardizer never sees labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .tensor import Tensor

# Below this, a feature's spread is treated as zero and its std is stored
# as 1 so division is always safe.
DEGENERATE_STD = 1e-12


@dataclass
class PreprocState:
    """Everything needed to replay preprocessing at predict time."""

    means: np.ndarray  # (feature_count,)
    stds: np.ndarray  # (feature_count,), every entry > 0
    degenerate: np.ndarray  # (feature_count,) bool, True where std was ~0
    label_map: list[str]  # index = class id
    feature_count: int
    task: str = "multiclass"

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.stds = np.asarray(self.stds, dtype=np.float64)
        self.degenerate = np.asarray(self.degenerate, dtype=bool)
        if not (
            len(self.means) == len(self.stds) == len(self.degenerate) == self.feature_count
        ):
            raise ValidationError("preprocessing state arrays disagree on feature count")
        bad = ~(np.isfinite(self.means) & np.isfinite(self.stds))
        if bad.any():
            raise ValidationError(
                f"feature {int(np.argmax(bad)) + 1}: standardizer mean or std "
                "is not finite (values too large to standardize)"
            )
        if np.any(self.stds <= 0.0):
            raise ValidationError("stored stds must all be positive")
        if len(set(self.label_map)) != len(self.label_map):
            raise ValidationError("label map contains duplicates")


@dataclass
class SplitIndices:
    train_indices: list[int]
    val_indices: list[int]
    seed: int


def encode_labels(raw_labels: Sequence[str]) -> tuple[list[str], list[int]]:
    """Map labels to ids by lexicographic order of the distinct labels."""
    if len(raw_labels) == 0:
        raise ValidationError("cannot encode an empty label list")
    label_map = sorted(set(raw_labels))
    index = {label: i for i, label in enumerate(label_map)}
    return label_map, [index[label] for label in raw_labels]


def one_hot_rows(class_indices: Sequence[int], num_classes: int) -> Tensor:
    """One one-hot row per index, stacked into a (n, num_classes) tensor."""
    rows = np.zeros((len(class_indices), num_classes))
    for i, c in enumerate(class_indices):
        if not 0 <= c < num_classes:
            raise ValidationError(
                f"class index {c} out of range for {num_classes} classes"
            )
        rows[i, c] = 1.0
    return Tensor._wrap(rows)


def fit_standardizer(
    features: Tensor,
    label_map: Sequence[str] = (),
    task: str = "multiclass",
) -> PreprocState:
    """Per-feature mean and population std (divide by N) from training rows."""
    if features.rank != 2:
        raise ValidationError(f"features must be rank 2, got {features.shape}")
    n = features.shape[0]
    if n < 1:
        raise ValidationError("cannot fit a standardizer on zero samples")
    x = features.array
    means = x.mean(axis=0)
    stds = np.sqrt(((x - means) ** 2).mean(axis=0))
    degenerate = stds < DEGENERATE_STD
    stds = np.where(degenerate, 1.0, stds)
    return PreprocState(
        means=means,
        stds=stds,
        degenerate=degenerate,
        label_map=list(label_map),
        feature_count=features.shape[1],
        task=task,
    )


def apply_standardizer(state: PreprocState, features: Tensor) -> Tensor:
    """(x - mean) / std per feature, with a trailing unit channel axis."""
    if features.rank != 2:
        raise ValidationError(f"features must be rank 2, got {features.shape}")
    if features.shape[1] != state.feature_count:
        raise ValidationError(
            f"feature count mismatch: standardizer expects "
            f"{state.feature_count}, got {features.shape[1]}"
        )
    z = (features.array - state.means) / state.stds
    if not np.isfinite(z).all():
        sample, feature = np.argwhere(~np.isfinite(z))[0]
        raise ValidationError(
            f"sample {sample + 1}, feature {feature + 1}: standardized value "
            "is not finite (too far outside the training range)"
        )
    return Tensor._wrap(z[:, :, None])


def stratified_split(
    class_indices: Sequence[int], val_fraction: float, seed: int
) -> SplitIndices:
    """Seeded per-class split; round-half-up, never emptying a class's train side."""
    if len(class_indices) == 0:
        raise ValidationError("cannot split an empty index list")
    if not 0.0 < val_fraction < 1.0:
        raise ValidationError(
            f"val_fraction must be in (0, 1), got {val_fraction}"
        )
    by_class: dict[int, list[int]] = {}
    for i, c in enumerate(class_indices):
        by_class.setdefault(int(c), []).append(i)
    rng = np.random.default_rng(seed)
    train: list[int] = []
    val: list[int] = []
    for c in sorted(by_class):
        members = by_class[c]
        n_val = min(int(math.floor(val_fraction * len(members) + 0.5)), len(members) - 1)
        order = rng.permutation(len(members))
        shuffled = [members[j] for j in order]
        val.extend(shuffled[:n_val])
        train.extend(shuffled[n_val:])
    return SplitIndices(
        train_indices=sorted(train), val_indices=sorted(val), seed=seed
    )
