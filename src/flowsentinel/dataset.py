"""CSV ingestion of flow-feature records and the label taxonomy that maps raw
attack names onto the binary / category / multiclass tasks.

Input CSV: UTF-8, comma-separated, header row first, one designated label
column; every other column is parsed as a decimal float and must be finite.

Taxonomy file: one `kind,pattern,category` rule per line, kind in
{exact, prefix, contains}, `#` comments allowed, applied top-down first-match.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import DatasetError, SchemaError, TaxonomyError, ValidationError
from .tensor import Tensor

TASKS = ("binary", "category", "multiclass")

DEFAULT_LABEL_COLUMN = "label"
BINARY_ATTACK_LABEL = "Attack"

_RULE_KINDS = ("exact", "prefix", "contains")

# How many offending cells to name before truncating the error message.
_MAX_REPORTED_CELLS = 8


@dataclass
class Dataset:
    features: Tensor  # (samples, feature_count)
    raw_labels: list[str]
    source: str
    feature_names: list[str]

    def __post_init__(self):
        if self.features.rank != 2:
            raise ValidationError(
                f"dataset features must be rank 2, got {self.features.shape}"
            )
        if self.features.shape[0] != len(self.raw_labels):
            raise ValidationError(
                f"{self.features.shape[0]} feature rows vs "
                f"{len(self.raw_labels)} labels"
            )
        if self.features.shape[1] != len(self.feature_names):
            raise ValidationError(
                f"{self.features.shape[1]} feature columns vs "
                f"{len(self.feature_names)} names"
            )

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class TaxonomyRule:
    kind: str  # exact | prefix | contains
    pattern: str
    category: str

    def matches(self, label: str) -> bool:
        if self.kind == "exact":
            return label == self.pattern
        if self.kind == "prefix":
            return label.startswith(self.pattern)
        return self.pattern in label


@dataclass
class Taxonomy:
    rules: list[TaxonomyRule] = field(default_factory=list)
    binary_positive: str = "Benign"

    def __post_init__(self):
        for rule in self.rules:
            if rule.kind not in _RULE_KINDS:
                raise TaxonomyError(
                    f"unknown rule kind {rule.kind!r}; expected one of {_RULE_KINDS}"
                )

    def category_of(self, label: str) -> str | None:
        for rule in self.rules:
            if rule.matches(label):
                return rule.category
        return None


def default_taxonomy() -> Taxonomy:
    # Ordered: DDoS must precede DoS so the prefix overlap resolves correctly.
    return Taxonomy(
        rules=[
            TaxonomyRule("exact", "Benign", "Benign"),
            TaxonomyRule("prefix", "DDoS", "DDoS"),
            TaxonomyRule("prefix", "DoS", "DoS"),
            TaxonomyRule("prefix", "MQTT", "MQTT"),
            TaxonomyRule("prefix", "Recon", "Recon"),
            TaxonomyRule("prefix", "ARP", "Spoofing"),
            TaxonomyRule("contains", "Spoofing", "Spoofing"),
        ]
    )


def load_taxonomy(path: str) -> Taxonomy:
    rules = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw_line in enumerate(fh, start=1):
                line = raw_line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",", 2)
                if len(parts) != 3:
                    raise TaxonomyError(
                        f"{path}:{lineno}: expected kind,pattern,category"
                    )
                kind, pattern, category = (p.strip() for p in parts)
                if kind not in _RULE_KINDS:
                    raise TaxonomyError(
                        f"{path}:{lineno}: unknown rule kind {kind!r}"
                    )
                if not pattern or not category:
                    raise TaxonomyError(
                        f"{path}:{lineno}: empty pattern or category"
                    )
                rules.append(TaxonomyRule(kind, pattern, category))
    except OSError as exc:
        raise TaxonomyError(f"cannot read taxonomy file: {exc}") from exc
    if not rules:
        raise TaxonomyError(f"{path}: no rules found")
    return Taxonomy(rules=rules)


def _read_header_and_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """The header and the rows; rejects duplicate column names and any row
    whose field count differs from the header's."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: file is empty, header row required")
            rows = list(reader)
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if len(set(header)) != len(header):
        raise SchemaError(f"{path}: duplicate column names in header")
    ragged = [str(r + 1) for r, row in enumerate(rows) if len(row) != len(header)]
    if ragged:
        raise DatasetError(
            f"{path}: rows with wrong field count rejected: rows "
            + ", ".join(ragged[:_MAX_REPORTED_CELLS])
        )
    return header, rows


def _parse_feature_block(
    rows: list[list[str]],
    columns: Sequence[int],
    names: Sequence[str],
    path: str,
) -> np.ndarray:
    values = np.empty((len(rows), len(columns)))
    bad: list[str] = []
    for r, row in enumerate(rows):
        for out_j, j in enumerate(columns):
            try:
                v = float(row[j])
                ok = math.isfinite(v)
            except ValueError:
                ok = False
            if not ok:
                if len(bad) < _MAX_REPORTED_CELLS:
                    bad.append(f"row {r + 1}, column {names[out_j]}")
                continue
            values[r, out_j] = v
    if bad:
        suffix = ", ..." if len(bad) == _MAX_REPORTED_CELLS else ""
        raise DatasetError(
            f"{path}: non-finite or unparsable feature values rejected at "
            + "; ".join(bad)
            + suffix
        )
    return values


def load_csv(path: str, label_column: str = DEFAULT_LABEL_COLUMN) -> Dataset:
    """Parse a flow-feature CSV into float64 features plus string labels."""
    header, rows = _read_header_and_rows(path)
    if label_column not in header:
        raise SchemaError(
            f"{path}: label column {label_column!r} not in header "
            f"{header}"
        )
    label_j = header.index(label_column)
    feature_cols = [j for j in range(len(header)) if j != label_j]
    feature_names = [header[j] for j in feature_cols]
    values = _parse_feature_block(rows, feature_cols, feature_names, path)
    labels = [row[label_j] for row in rows]
    return Dataset(
        features=Tensor._wrap(values),
        raw_labels=labels,
        source=path,
        feature_names=feature_names,
    )


def load_feature_matrix(path: str, feature_names: Sequence[str]) -> Tensor:
    """Read only the named feature columns, in the given order.

    Any other columns (including labels) are ignored, so prediction input
    does not need to be labeled.
    """
    header, rows = _read_header_and_rows(path)
    missing = [name for name in feature_names if name not in header]
    if missing:
        raise SchemaError(
            f"{path}: missing feature columns {missing}; header has {header}"
        )
    columns = [header.index(name) for name in feature_names]
    values = _parse_feature_block(rows, columns, list(feature_names), path)
    return Tensor._wrap(values)


def select_features(ds: Dataset, feature_names: Sequence[str]) -> Dataset:
    """Reorder/restrict a dataset's feature columns to the given names."""
    missing = [n for n in feature_names if n not in ds.feature_names]
    if missing:
        raise ValidationError(
            f"dataset {ds.source} lacks feature columns {missing}"
        )
    if list(feature_names) == ds.feature_names:
        return ds
    cols = [ds.feature_names.index(n) for n in feature_names]
    return replace(
        ds,
        features=Tensor._wrap(np.ascontiguousarray(ds.features.array[:, cols])),
        feature_names=list(feature_names),
    )


def map_labels(
    raw_labels: Sequence[str], taxonomy: Taxonomy, task: str
) -> list[str]:
    """Project raw labels onto one of the three classification tasks."""
    if task not in TASKS:
        raise ValidationError(f"unknown task {task!r}; expected one of {TASKS}")
    categories: dict[str, str] = {}
    unmatched = []
    for label in dict.fromkeys(raw_labels):  # distinct, first-seen order
        cat = taxonomy.category_of(label)
        if cat is None:
            unmatched.append(label)
        else:
            categories[label] = cat
    if unmatched:
        raise TaxonomyError(
            "labels not covered by the taxonomy: " + ", ".join(sorted(unmatched))
        )
    if task == "multiclass":
        return list(raw_labels)
    if task == "category":
        return [categories[label] for label in raw_labels]
    positive = taxonomy.binary_positive
    return [
        positive if categories[label] == positive else BINARY_ATTACK_LABEL
        for label in raw_labels
    ]


def subsample_stratified(ds: Dataset, per_class_cap: int, seed: int) -> Dataset:
    """Keep at most per_class_cap rows of each raw class, seeded shuffle."""
    if per_class_cap < 1:
        raise ValidationError(f"per_class_cap must be >= 1, got {per_class_cap}")
    by_class: dict[str, list[int]] = {}
    for i, label in enumerate(ds.raw_labels):
        by_class.setdefault(label, []).append(i)
    rng = np.random.default_rng(seed)
    keep: list[int] = []
    for label in sorted(by_class):
        members = by_class[label]
        if len(members) <= per_class_cap:
            keep.extend(members)
            continue
        order = rng.permutation(len(members))
        keep.extend(members[j] for j in order[:per_class_cap])
    keep.sort()
    return replace(
        ds,
        features=Tensor._wrap(np.ascontiguousarray(ds.features.array[keep])),
        raw_labels=[ds.raw_labels[i] for i in keep],
    )
