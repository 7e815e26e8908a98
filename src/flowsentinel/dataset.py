"""CSV ingestion of flow-feature records and the label taxonomy that maps raw
attack names onto the binary / category / multiclass tasks.

Input CSV: UTF-8 (a leading byte-order mark is dropped), comma-separated,
header row first, one designated label column; every other column is parsed
as a decimal float and must be finite.

Taxonomy file, decoded as the CSV is: one `kind,pattern,category` rule per
line, kind in {exact, prefix, contains}, `#` comments allowed, applied
top-down first-match.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field, replace
from itertools import chain, compress, islice, repeat
from operator import contains, eq, itemgetter
from typing import Iterator, Sequence

import numpy as np

from .errors import DataError
from .tensor import Tensor

TASKS = ("binary", "category", "multiclass")

DEFAULT_LABEL_COLUMN = "label"
# The binary task keeps this category and calls every other one Attack.
BINARY_POSITIVE = "Benign"
BINARY_ATTACK_LABEL = "Attack"

# Each rule kind and its test of (label, pattern).
_MATCHERS = {"exact": eq, "prefix": str.startswith, "contains": contains}

# How many offending cells or rows to name before truncating the error message.
_MAX_REPORTED_CELLS = 8

# Rows parsed per block. A block's row strings take several times the memory
# of its floats, so the block is kept small next to the whole file; 1024 rows
# still spread the per-block calls thin.
_BLOCK_ROWS = 1024


@dataclass
class Dataset:
    features: Tensor  # (samples, feature_count)
    raw_labels: list[str]
    source: str
    feature_names: list[str]

    def __post_init__(self):
        if self.features.shape[0] != len(self.raw_labels):
            raise DataError(
                f"{self.features.shape[0]} feature rows vs "
                f"{len(self.raw_labels)} labels"
            )
        if self.features.shape[1] != len(self.feature_names):
            raise DataError(
                f"{self.features.shape[1]} feature columns vs "
                f"{len(self.feature_names)} names"
            )

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class TaxonomyRule:
    kind: str  # a key of _MATCHERS
    pattern: str
    category: str

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _MATCHERS):
            raise DataError(f"unknown rule kind {self.kind!r}")
        if not (isinstance(self.pattern, str) and isinstance(self.category, str)):
            raise DataError(f"rule pattern and category must be strings: {self}")
        if not self.pattern or not self.category:
            raise DataError("empty pattern or category")

    def matches(self, label: str) -> bool:
        return _MATCHERS[self.kind](label, self.pattern)


@dataclass
class Taxonomy:
    rules: list[TaxonomyRule] = field(default_factory=list)

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
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw_line in enumerate(fh, start=1):
                line = raw_line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",", 2)
                if len(parts) != 3:
                    raise DataError(f"{path}:{lineno}: expected kind,pattern,category")
                try:
                    rules.append(TaxonomyRule(*(p.strip() for p in parts)))
                except DataError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
    except OSError as exc:
        raise DataError(f"cannot read taxonomy file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError:
        raise DataError(_undecodable(path)) from None
    if not rules:
        raise DataError(f"{path}: no rules found")
    return Taxonomy(rules=rules)


def _undecodable(path: str) -> str:
    """Name the first line of `path` that is not valid UTF-8. The text
    decoder reads ahead in chunks, so where it fails is not a line number;
    no UTF-8 sequence contains a newline byte, so each line decodes alone."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return f"{path}:{lineno}: not valid UTF-8"
    return f"{path}: not valid UTF-8"


def _listing(items: list[str], sep: str) -> str:
    """The first items up to the cap; `, ...` marks that more exist."""
    more = ", ..." if len(items) > _MAX_REPORTED_CELLS else ""
    return sep.join(items[:_MAX_REPORTED_CELLS]) + more


def printable_label(label: str) -> str:
    """`label` as an error message shows it: as is when printable, not empty
    and not padded with whitespace, else as its repr, so the message stays on
    one line and every label in it can be seen."""
    plain = label and label.isprintable() and label == label.strip()
    return label if plain else repr(label)


def _parse_cells(
    block: list[list[str]], columns: list[int], header: list[str], row0: int,
    bad: list[str],
) -> np.ndarray | None:
    """The block's cells in `columns` as a (rows, columns) float64 array, all
    through `float` in one C-level pass; else None, with each cell that does
    not parse or is not finite named into `bad` until it holds one past the
    cap. Rows count from the file's first data row; `row0` precede the block."""
    cells = [row[j] for row in block for j in columns]
    try:
        values = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        values = None
    if values is not None and np.isfinite(values).all():
        return values.reshape(len(block), len(columns))
    for i, cell in enumerate(cells):
        try:
            ok = math.isfinite(float(cell))
        except ValueError:
            ok = False
        if not ok:
            r, k = divmod(i, len(columns))
            bad.append(f"row {row0 + r + 1}, column {header[columns[k]]}")
            if len(bad) > _MAX_REPORTED_CELLS:
                break
    return None


# No plain block holds these: the csv module's quote, NUL, and the four
# separators \x1c-\x1f, which loadtxt strips around a number as whitespace
# and `float` does not.
_NOT_PLAIN = ('"', "\0", "\x1c", "\x1d", "\x1e", "\x1f")


def _parse_plain(
    lines: list[str], columns: list[int], width: int, limit: int
) -> np.ndarray | None:
    """The block's cells in `columns` as a (lines, columns) float64 array,
    parsed by numpy's C reader; None unless the block is plain and every
    cell is finite.

    A plain block has none of `_NOT_PLAIN`, no line longer than `limit`, no
    blank or whitespace-only line, and exactly `width` comma-separated
    fields on every line. Then each line is one csv record with its fields
    split at every comma, and loadtxt sees the same cells. It converts each
    through CPython's string-to-double, as `float` does, so the bits are the
    same; what it rejects and `float` accepts (`1_0`, non-ASCII digits)
    makes the block return None.
    """
    # Line by line, not on one joined copy: freeing a copy that large makes
    # glibc serve the kept blocks from its heap, which it may not give back.
    if (any(any(map(contains, lines, repeat(c))) for c in _NOT_PLAIN)
            or max(map(len, lines)) > limit
            or any(map(str.isspace, lines))
            or set(map(str.count, lines, repeat(","))) != {width - 1}):
        return None
    try:
        # comments=None: with "#", loadtxt would read `5#` as 5
        values = np.loadtxt(lines, delimiter=",", usecols=columns,
                            comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return values


def _plain_labels(lines: list[str], label_j: int, width: int) -> list[str]:
    """Field `label_j` of each line of a plain block."""
    if label_j == width - 1:
        return [line.rstrip("\r\n").rpartition(",")[2] for line in lines]
    return [line.split(",", label_j + 1)[label_j] for line in lines]


def _columns(
    path: str,
    header: list[str],
    label_column: str | None,
    feature_names: Sequence[str] | None,
) -> tuple[list[int], int | None]:
    """The feature column indices and the label column index (None when
    `label_column` is None), or DataError. With `feature_names` None every
    column but the label is a feature, in file order."""
    if label_column is not None and label_column not in header:
        raise DataError(f"{path}: label column {label_column!r} not in header {header}")
    label_j = None if label_column is None else header.index(label_column)
    if feature_names is None:
        return [j for j in range(len(header)) if j != label_j], label_j
    missing = [name for name in feature_names if name not in header]
    if missing:
        raise DataError(
            f"{path}: missing feature columns {missing}; header has {header}"
        )
    return [header.index(name) for name in feature_names], label_j


def _read_csv(
    path: str, label_column: str | None, feature_names: Sequence[str] | None
) -> tuple[list[str], np.ndarray, list[str]]:
    """Stream a CSV in blocks of `_BLOCK_ROWS` rows into float64 features.

    The columns are those `_columns` picks. Returns the feature names, the
    (rows, features) array and the labels (empty when `label_column` is
    None). No block's row strings outlive it. The whole file is read before
    a fault in its content is raised, so the one reported is, by precedence:
    a read error, an empty file, a duplicate header name, rows whose field
    count differs from the header's (across the whole file), a missing
    label or feature column, and unparsable or non-finite feature cells.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return _read_blocks(path, fh, label_column, feature_names)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError:
        raise DataError(_undecodable(path)) from None


def _read_blocks(
    path: str,
    fh: Iterator[str],
    label_column: str | None,
    feature_names: Sequence[str] | None,
) -> tuple[list[str], np.ndarray, list[str]]:
    """Blocks of plain lines (see `_parse_plain`) take numpy's C parser.
    From the first block that does not, the csv module reads the rest of the
    file, and it alone judges quoting, field counts and bad cells (one
    `_parse_cells` call per block), and words every error."""
    reader = csv.reader(fh)
    line0 = 0  # physical lines read before `reader` started
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty, header row required") from None
        duplicate = len(set(header)) != len(header)
        try:
            columns, label_j = _columns(path, header, label_column, feature_names)
            rejected = None
        except DataError as exc:
            columns, label_j, rejected = [], None, exc
        width = len(header)
        ragged: list[str] = []
        bad: list[str] = []
        blocks: list[np.ndarray] = []
        labels: list[str] = []
        row0 = 0
        if not (duplicate or rejected):
            line0 = reader.line_num
            limit = csv.field_size_limit()
            while lines := list(islice(fh, _BLOCK_ROWS)):
                values = _parse_plain(lines, columns, width, limit)
                if values is None:
                    break
                blocks.append(values)
                if label_j is not None:
                    labels += map(sys.intern, _plain_labels(lines, label_j, width))
                row0 += len(lines)
                line0 += len(lines)
            reader = csv.reader(chain(lines, fh))
        while block := list(islice(reader, _BLOCK_ROWS)):
            if set(map(len, block)) != {width}:
                ragged += (
                    str(r) for r, row in enumerate(block, start=row0 + 1)
                    if len(row) != width
                )
                del ragged[_MAX_REPORTED_CELLS + 1:]
            # Past a fault that outranks bad cells, or past the cap, only the
            # field counts and read errors of the remaining rows still matter.
            if not (duplicate or ragged or rejected
                    or len(bad) > _MAX_REPORTED_CELLS):
                values = _parse_cells(block, columns, header, row0, bad)
                if values is not None:
                    blocks.append(values)
                    if label_j is not None:
                        labels += map(sys.intern, map(itemgetter(label_j), block))
            row0 += len(block)
    except csv.Error as exc:
        raise DataError(f"{path}:{line0 + reader.line_num}: {exc}") from None
    if duplicate:
        raise DataError(f"{path}: duplicate column names in header")
    if ragged:
        raise DataError(
            f"{path}: rows with wrong field count rejected: rows "
            + _listing(ragged, ", ")
        )
    if rejected:
        raise rejected
    if bad:
        raise DataError(
            f"{path}: non-finite or unparsable feature values rejected at "
            + _listing(bad, "; ")
        )
    values = np.concatenate(blocks) if blocks else np.empty((0, len(columns)))
    return [header[j] for j in columns], values, labels


def load_csv(
    path: str,
    label_column: str = DEFAULT_LABEL_COLUMN,
    feature_names: Sequence[str] | None = None,
) -> Dataset:
    """Parse a flow-feature CSV into float64 features plus string labels.

    With `feature_names` None every column but the label is a feature, in
    file order; otherwise exactly the named columns are, in the given order,
    and no other column is parsed.
    """
    names, values, labels = _read_csv(path, label_column, feature_names)
    return Dataset(
        features=Tensor._wrap(values),
        raw_labels=labels,
        source=path,
        feature_names=names,
    )


def load_feature_matrix(path: str, feature_names: Sequence[str]) -> Tensor:
    """Read only the named feature columns, in the given order.

    Any other columns (including labels) are ignored, so prediction input
    does not need to be labeled.
    """
    _, values, _ = _read_csv(path, None, feature_names)
    return Tensor._wrap(values)


def map_labels(
    raw_labels: Sequence[str], taxonomy: Taxonomy, task: str
) -> list[str]:
    """Project raw labels onto one of the three classification tasks."""
    if task not in TASKS:
        raise DataError(f"unknown task {task!r}; expected one of {TASKS}")
    categories: dict[str, str] = {}
    unmatched = []
    for label in dict.fromkeys(raw_labels):  # distinct, first-seen order
        cat = taxonomy.category_of(label)
        if cat is None:
            unmatched.append(label)
        else:
            categories[label] = cat
    if unmatched:
        raise DataError(
            "labels not covered by the taxonomy: "
            + ", ".join(map(printable_label, sorted(unmatched)))
        )
    if task == "multiclass":
        return list(raw_labels)
    if task == "category":
        return [categories[label] for label in raw_labels]
    return [
        BINARY_POSITIVE if categories[label] == BINARY_POSITIVE
        else BINARY_ATTACK_LABEL
        for label in raw_labels
    ]


def subsample_stratified(ds: Dataset, per_class_cap: int, seed: int) -> Dataset:
    """Keep at most per_class_cap rows of each raw class, seeded shuffle."""
    if per_class_cap < 1:
        raise DataError(f"per_class_cap must be >= 1, got {per_class_cap}")
    code: dict[str, int] = {}
    codes = np.fromiter((code.setdefault(label, len(code)) for label in ds.raw_labels),
                        dtype=np.intp, count=len(ds.raw_labels))
    rng = np.random.default_rng(seed)
    keep = np.ones(codes.size, dtype=bool)
    for label in sorted(code):
        members = np.flatnonzero(codes == code[label])
        if members.size > per_class_cap:
            keep[members[rng.permutation(members.size)[per_class_cap:]]] = False
    return replace(ds, features=Tensor._wrap(ds.features.array[keep]),
                   raw_labels=list(compress(ds.raw_labels, keep)))
