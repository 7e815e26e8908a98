"""Single-file model persistence.

Container layout (byte-exact layout in docs/model-file-format.md):

    bytes 0..8    magic b"FLOWSNT1"
    bytes 8..12   header length, unsigned 32-bit little-endian
    next          UTF-8 JSON header (format version, architecture, class
                  names, feature names, standardizer state, taxonomy rules,
                  training metadata, tensor directory)
    rest          ModelParams.values as little-endian IEEE-754 float64,
                  which is every tensor's values in tensor-directory order

Writes are atomic (temp file + rename). save -> load -> save is
byte-identical; all invariants are revalidated on load, and the tensor
directory must be exactly the architecture's parameter table, with every
value finite. save_model checks the values before it writes.
"""

from __future__ import annotations

import errno
import json
import math
import os
import stat
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dataset import BINARY_POSITIVE, Taxonomy, TaxonomyRule
from .errors import DataError, ModelStoreError
from .pipeline import PreprocState
from .trainer import (
    STACK, ArchitectureConfig, ModelParams, TrainConfig, non_finite_param,
    param_shapes, param_slices,
)

MAGIC = b"FLOWSNT1"
FORMAT_VERSION = 1
MAX_HEADER_BYTES = 16 * 1024 * 1024
HEADER_KEYS = ("format_version", "architecture", "class_names", "feature_names",
               "preprocessing", "taxonomy", "metadata", "tensors")


@dataclass
class ModelMetadata:
    """The model's task is PreprocState.task and its seed train_config.seed;
    the file's metadata block repeats both, and the reader checks them."""

    label_column: str
    train_config: TrainConfig
    source: str
    epochs_run: int
    best_epoch: int
    final_metrics: dict[str, float | None]

    def __post_init__(self):
        if not (isinstance(self.label_column, str) and isinstance(self.source, str)):
            raise DataError("label_column and source must be strings")
        if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0
                   for n in (self.epochs_run, self.best_epoch)):
            raise DataError("epochs_run and best_epoch must be integers >= 0")
        if not isinstance(self.final_metrics, dict) or not all(
            isinstance(k, str) and (v is None or isinstance(v, (int, float))
                                    and not isinstance(v, bool))
            for k, v in self.final_metrics.items()
        ):
            raise DataError("final_metrics must map names to numbers or null")


def _directory(arch: ArchitectureConfig) -> list[dict]:
    """The architecture's tensor directory: the parameter table's slices of
    the payload, in bytes."""
    shapes = param_shapes(arch)
    return [{"name": name, "shape": list(shapes[name]), "offset": 8 * s.start,
             "byte_length": 8 * (s.stop - s.start)}
            for name, s in param_slices(arch).items()]


def _header_dict(
    model: ModelParams,
    preproc: PreprocState,
    taxonomy: Taxonomy,
    metadata: ModelMetadata,
    feature_names: list[str],
) -> dict:
    meta = asdict(metadata)
    # training always reshuffles each epoch; format v1 keeps the key
    meta["train_config"]["shuffle_each_epoch"] = True
    # keep the header strict JSON: NaN metrics (empty validation split) are
    # stored as null
    meta["final_metrics"] = {
        k: (v if not isinstance(v, float) or math.isfinite(v) else None)
        for k, v in metadata.final_metrics.items()
    }
    return {
        "format_version": FORMAT_VERSION,
        "architecture": {**asdict(model.arch), **STACK},
        "class_names": list(preproc.label_map),
        "feature_names": list(feature_names),
        "preprocessing": {
            "means": [float(v) for v in preproc.means],
            "stds": [float(v) for v in preproc.stds],
            "degenerate": [bool(v) for v in preproc.degenerate],
            "task": preproc.task,
        },
        "taxonomy": {
            "rules": [[r.kind, r.pattern, r.category] for r in taxonomy.rules],
            "binary_positive": BINARY_POSITIVE,
        },
        "metadata": {"task": preproc.task, "seed": metadata.train_config.seed, **meta},
        "tensors": _directory(model.arch),
    }


def save_model(
    path: str,
    model: ModelParams,
    preproc: PreprocState,
    taxonomy: Taxonomy,
    metadata: ModelMetadata,
    feature_names: list[str],
) -> None:
    """Write the container atomically (temp file in the same directory).

    A non-finite parameter, which load_model would refuse, raises
    ModelStoreError and writes nothing.
    """
    _check_finite(path, model)
    header = _header_dict(model, preproc, taxonomy, metadata, feature_names)
    header_bytes = json.dumps(
        header, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    ).encode("utf-8")
    payload = model.values.astype("<f8", copy=False).tobytes()
    blob = MAGIC + len(header_bytes).to_bytes(4, "little") + header_bytes + payload
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp_path = os.path.join(directory, f".flowsentinel-{os.urandom(8).hex()}")
    created = False
    try:
        # "x" refuses an existing name; the umask sets the mode, as for --out
        with open(tmp_path, "xb") as fh:
            created = True
            fh.write(blob)
        os.replace(tmp_path, path)
        created = False
    except OSError as exc:
        raise _cannot_write(path, exc.strerror) from exc
    finally:
        if created:
            os.unlink(tmp_path)


def dir_fault(path: str) -> str | None:
    """The OS reason a new file cannot be made at `path`, or None: its
    directory is missing or not a directory, or `path` is a directory."""
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    try:
        mode = os.stat(os.path.dirname(os.path.abspath(path))).st_mode
    except OSError as exc:
        return exc.strerror
    return None if stat.S_ISDIR(mode) else os.strerror(errno.ENOTDIR)


def check_model_dir(path: str) -> None:
    """Raise save_model's error for `path` now if no file can be made
    there, so that a long run does not end in it."""
    if reason := dir_fault(path):
        raise _cannot_write(path, reason)


def _cannot_write(path: str, reason: str) -> ModelStoreError:
    # the OS reason alone: the OSError itself may name the random temp file
    return ModelStoreError(f"cannot write model file {path}: {reason}")


def load_model(
    path: str,
) -> tuple[ModelParams, PreprocState, Taxonomy, ModelMetadata, list[str]]:
    """Read and revalidate a container written by save_model."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ModelStoreError(f"cannot read model file {path}: {exc.strerror}") from exc
    if len(blob) < 12:
        raise ModelStoreError(f"{path}: too short to be a model file")
    if blob[:8] != MAGIC:
        raise ModelStoreError(f"{path}: bad magic {blob[:8]!r}, expected {MAGIC!r}")
    header_len = int.from_bytes(blob[8:12], "little")
    if header_len > MAX_HEADER_BYTES:
        raise ModelStoreError(
            f"{path}: header of {header_len} bytes exceeds the "
            f"{MAX_HEADER_BYTES}-byte bound"
        )
    if len(blob) < 12 + header_len:
        raise ModelStoreError(
            f"{path}: truncated header, expected {header_len} bytes, "
            f"found {len(blob) - 12}"
        )
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelStoreError(f"{path}: unreadable header: {exc}") from exc
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise ModelStoreError(
            f"{path}: unknown format version {version!r}, "
            f"this build reads version {FORMAT_VERSION}"
        )
    payload = memoryview(blob)[12 + header_len :]  # a view, not a copy
    try:
        _object(path, "the header", header, HEADER_KEYS)
        block = _object(path, "architecture", header["architecture"],
                        [f.name for f in fields(ArchitectureConfig)] + list(STACK))
        for name, size in STACK.items():  # 32.0 and true are not 32
            if type(block[name]) is not int or block[name] != size:
                raise ModelStoreError(f"{path}: architecture.{name} must be "
                                      f"{size}, got {json.dumps(block[name])}")
        try:
            arch = ArchitectureConfig(block["feature_count"], block["class_count"])
        except DataError as exc:
            raise ModelStoreError(f"{path}: architecture.{exc}") from exc
        entries = _check_directory(path, arch, header["tensors"])
        expected_total = sum(entry["byte_length"] for entry in entries)
        if (gap := expected_total - len(payload)) != 0:
            raise ModelStoreError(
                f"{path}: payload {'truncated' if gap > 0 else 'too long'}, "
                f"expected {expected_total} bytes, found {len(payload)} "
                + (f"(short by {gap})" if gap > 0 else f"({-gap} extra)"))
        # astype copies: the model's values are writable and own their bytes
        model = ModelParams(arch, np.frombuffer(payload, "<f8").astype(np.float64))
        _check_finite(path, model)
        for key in ("class_names", "feature_names"):
            if not isinstance(header[key], list) or not all(
                    isinstance(name, str) for name in header[key]):
                raise ModelStoreError(f"{path}: {key} must be a list of strings")
        pre = _object(path, "preprocessing", header["preprocessing"],
                      ("means", "stds", "degenerate", "task"))
        preproc = PreprocState(
            means=np.array(pre["means"], dtype=np.float64),
            stds=np.array(pre["stds"], dtype=np.float64),
            degenerate=np.array(pre["degenerate"], dtype=bool),
            label_map=list(header["class_names"]),
            task=pre["task"],
        )
        tax = _object(path, "taxonomy", header["taxonomy"],
                      ("rules", "binary_positive"))
        if tax["binary_positive"] != BINARY_POSITIVE:
            raise ModelStoreError(
                f"{path}: taxonomy.binary_positive must be "
                f"{json.dumps(BINARY_POSITIVE)}, got {json.dumps(tax['binary_positive'])}"
            )
        taxonomy = Taxonomy(rules=[TaxonomyRule(k, p, c) for k, p, c in tax["rules"]])
        meta = dict(header["metadata"])
        task, seed = meta.pop("task"), meta.pop("seed")
        config = dict(_object(
            path, "metadata.train_config", meta.pop("train_config"),
            [f.name for f in fields(TrainConfig)] + ["shuffle_each_epoch"]))
        if config.pop("shuffle_each_epoch") is not True:
            raise ModelStoreError(
                f"{path}: metadata.train_config.shuffle_each_epoch must be true"
            )
        metadata = ModelMetadata(train_config=TrainConfig(**config), **meta)
        for key, copy, owner, value in (
            ("task", task, "preprocessing.task", preproc.task),
            ("seed", seed, "train_config.seed", metadata.train_config.seed),
        ):
            if copy != value:
                raise ModelStoreError(f"{path}: metadata.{key} {copy!r} "
                                      f"disagrees with {owner} {value!r}")
        feature_names = list(header["feature_names"])
        if len(feature_names) != arch.feature_count:
            raise ModelStoreError(
                f"{path}: {len(feature_names)} feature names for "
                f"feature_count {arch.feature_count}"
            )
        if len(set(feature_names)) != len(feature_names):
            raise ModelStoreError(f"{path}: duplicate feature names")
        if len(preproc.means) != arch.feature_count:
            raise ModelStoreError(
                f"{path}: standardizer covers {len(preproc.means)} "
                f"features, architecture expects {arch.feature_count}"
            )
        if len(preproc.label_map) != arch.class_count:
            raise ModelStoreError(
                f"{path}: {len(preproc.label_map)} class names for "
                f"class_count {arch.class_count}"
            )
    except ModelStoreError:
        raise
    except Exception as exc:
        raise ModelStoreError(f"{path}: malformed header: {exc}") from exc
    return model, preproc, taxonomy, metadata, feature_names


def _object(path: str, name: str, block, keys) -> dict:
    """Header object `name`, which must hold exactly `keys`: a missing key
    would take a default and an unknown one would be ignored."""
    if not (isinstance(block, dict) and block.keys() == set(keys)):
        raise ModelStoreError(f"{path}: {name} must be an object with exactly "
                              f"the keys {', '.join(keys)}")
    return block


def _check_directory(
    path: str, arch: ArchitectureConfig, entries: list[dict]
) -> list[dict]:
    """A tensor directory must be _directory(arch), entry by entry: the same
    names in the same order, with the same shapes, offsets and byte lengths,
    and no other keys. Returns that expected directory."""
    expected = _directory(arch)
    if len(entries) != len(expected):
        raise ModelStoreError(
            f"{path}: tensor directory has {len(entries)} entries, the "
            f"architecture needs {len(expected)}"
        )
    for i, (have, need) in enumerate(zip(entries, expected), 1):
        if have != need:
            raise ModelStoreError(
                f"{path}: tensor directory entry {i} declares {json.dumps(have)}, "
                f"the architecture needs {json.dumps(need)}"
            )
    return expected


def _check_finite(path: str, model: ModelParams) -> None:
    if (name := non_finite_param(model.arch, model.values)) is not None:
        raise ModelStoreError(f"{path}: tensor {name} holds a non-finite value")
