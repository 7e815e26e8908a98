"""Preprocessing chain: label encoding, z-score standardization with a
zero-variance guard, and stratified splitting.

The standardizer is fitted on the training rows only and replayed unchanged
everywhere else; apply_standardizer never sees labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import TASKS
from .errors import DataError
from .tensor import Tensor

# Below this, a feature's spread is treated as zero and its std is stored
# as 1 so division is always safe.
DEGENERATE_STD = 1e-12


@dataclass
class PreprocState:
    """Everything needed to replay preprocessing at predict time."""

    means: np.ndarray  # (F,); its length is the feature count
    stds: np.ndarray  # (F,), every entry > 0
    degenerate: np.ndarray  # (F,) bool, True where std was ~0
    label_map: list[str]  # index = class id
    task: str = "multiclass"  # one of TASKS

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.stds = np.asarray(self.stds, dtype=np.float64)
        self.degenerate = np.asarray(self.degenerate, dtype=bool)
        if not len(self.means) == len(self.stds) == len(self.degenerate):
            raise DataError("preprocessing state arrays disagree on feature count")
        if self.task not in TASKS:
            raise DataError(f"unknown task {self.task!r}; expected one of {TASKS}")
        bad = ~(np.isfinite(self.means) & np.isfinite(self.stds))
        if bad.any():
            raise DataError(
                f"feature {int(np.argmax(bad)) + 1}: standardizer mean or std "
                "is not finite (values too large to standardize)"
            )
        if np.any(self.stds <= 0.0):
            raise DataError("stored stds must all be positive")
        if len(set(self.label_map)) != len(self.label_map):
            raise DataError("label map contains duplicates")


@dataclass
class SplitIndices:
    train_indices: np.ndarray  # ascending row numbers, np.intp
    val_indices: np.ndarray


def encode_labels(raw_labels: Sequence[str]) -> tuple[list[str], list[int]]:
    """Map labels to ids by lexicographic order of the distinct labels."""
    if len(raw_labels) == 0:
        raise DataError("cannot encode an empty label list")
    label_map = sorted(set(raw_labels))
    index = {label: i for i, label in enumerate(label_map)}
    return label_map, [index[label] for label in raw_labels]


def fit_standardizer(
    features: Tensor,
    label_map: Sequence[str] = (),
    task: str = "multiclass",
) -> PreprocState:
    """Per-feature mean and population std (divide by N) from training rows."""
    if features.shape[0] < 1:
        raise DataError("cannot fit a standardizer on zero samples")
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
        task=task,
    )


def apply_standardizer(state: PreprocState, features: Tensor) -> Tensor:
    """(x - mean) / std per feature: the (N, F) block, built in one array
    with the bits of `(x - means) / stds`."""
    if features.shape[1] != len(state.means):
        raise DataError(
            f"feature count mismatch: standardizer expects "
            f"{len(state.means)}, got {features.shape[1]}"
        )
    z = features.array - state.means
    z /= state.stds
    if not np.isfinite(z).all():
        sample, feature = np.argwhere(~np.isfinite(z))[0]
        raise DataError(
            f"sample {sample + 1}, feature {feature + 1}: standardized value "
            "is not finite (too far outside the training range)"
        )
    return Tensor._wrap(z)


def stratified_split(
    class_indices: Sequence[int], val_fraction: float, seed: int
) -> SplitIndices:
    """Seeded per-class split; round-half-up, never emptying a class's train side."""
    if len(class_indices) == 0:
        raise DataError("cannot split an empty index list")
    if not 0.0 < val_fraction < 1.0:
        raise DataError(f"val_fraction must be in (0, 1), got {val_fraction}")
    classes = np.asarray(class_indices, dtype=np.intp)
    rng = np.random.default_rng(seed)
    val = np.zeros(classes.size, dtype=bool)
    by_class = np.argsort(classes, kind="stable")  # np.unique imports numpy.ma, +1.6 MB
    for members in np.split(by_class, np.flatnonzero(np.diff(classes[by_class])) + 1):
        n_val = min(int(math.floor(val_fraction * members.size + 0.5)), members.size - 1)
        val[members[rng.permutation(members.size)[:n_val]]] = True
    return SplitIndices(train_indices=np.flatnonzero(~val),
                        val_indices=np.flatnonzero(val))
