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
byte-identical. The header has one definition, _header_dict, and the reader
accepts only what it renders: load_model decodes the primary fields into
the objects the writer takes, renders the header from them, and refuses a
file whose header differs from that rendering in any key, list length, JSON
type or value. It then checks the payload's size against the architecture
and every value for finiteness; save_model checks the values before it
writes.
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
    param_count, param_shapes, param_slices,
)

MAGIC = b"FLOWSNT1"
FORMAT_VERSION = 1
MAX_HEADER_BYTES = 16 * 1024 * 1024


@dataclass
class ModelMetadata:
    """The model's task is PreprocState.task and its seed train_config.seed;
    the file's metadata block repeats both, as _header_dict renders them."""

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
    arch: ArchitectureConfig,
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
        "architecture": {**asdict(arch), **STACK},
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
        "tensors": _directory(arch),
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

    A `path` that check_model_dir refuses, or a non-finite parameter, which
    load_model would refuse, raises ModelStoreError and writes nothing.
    """
    check_model_dir(path)
    _check_finite(path, model)
    header = _header_dict(model.arch, preproc, taxonomy, metadata, feature_names)
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
    if not path:  # names no file: open and rename fail with ENOENT
        return os.strerror(errno.ENOENT)
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    try:
        mode = os.stat(os.path.dirname(os.path.abspath(path))).st_mode
    except OSError as exc:
        return exc.strerror
    return None if stat.S_ISDIR(mode) else os.strerror(errno.ENOTDIR)


def check_model_dir(path: str) -> None:
    """Raise save_model's error for `path` now if no file can be made
    there, so that a long run does not end in it. An existing `path` that
    is not a regular file, such as a FIFO or a device, is refused too: the
    rename would replace it."""
    if reason := dir_fault(path):
        raise _cannot_write(path, reason)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return
    except OSError as exc:
        raise _cannot_write(path, exc.strerror) from exc
    if not stat.S_ISREG(mode):
        raise _cannot_write(path, "not a regular file")


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
    except (ValueError, RecursionError) as exc:  # also huge ints, deep nesting
        raise ModelStoreError(f"{path}: unreadable header: {exc}") from exc
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise ModelStoreError(
            f"{path}: unknown format version {version!r}, "
            f"this build reads version {FORMAT_VERSION}"
        )
    try:
        block = header["architecture"]
        try:
            arch = ArchitectureConfig(block["feature_count"], block["class_count"])
        except DataError as exc:
            raise ModelStoreError(f"{path}: architecture.{exc}") from exc
        for key in ("class_names", "feature_names"):
            if not isinstance(header[key], list) or not all(
                    isinstance(name, str) for name in header[key]):
                raise ModelStoreError(f"{path}: {key} must be a list of strings")
        pre = header["preprocessing"]
        preproc = PreprocState(pre["means"], pre["stds"], pre["degenerate"],
                               list(header["class_names"]), pre["task"])
        taxonomy = Taxonomy(rules=[TaxonomyRule(k, p, c)
                                   for k, p, c in header["taxonomy"]["rules"]])
        meta = header["metadata"]
        config = TrainConfig(**_fields(TrainConfig, meta["train_config"]))
        metadata = ModelMetadata(**{**_fields(ModelMetadata, meta),
                                    "train_config": config})
        feature_names = list(header["feature_names"])
        if len(feature_names) != arch.feature_count:
            raise ModelStoreError(f"{path}: {len(feature_names)} feature names "
                                  f"for feature_count {arch.feature_count}")
        if len(set(feature_names)) != len(feature_names):
            raise ModelStoreError(f"{path}: duplicate feature names")
        if len(preproc.means) != arch.feature_count:
            raise ModelStoreError(f"{path}: standardizer covers {len(preproc.means)}"
                                  f" features, architecture expects {arch.feature_count}")
        if len(preproc.label_map) != arch.class_count:
            raise ModelStoreError(f"{path}: {len(preproc.label_map)} class names "
                                  f"for class_count {arch.class_count}")
        _match(path, "", header,
               _header_dict(arch, preproc, taxonomy, metadata, feature_names))
    except ModelStoreError:
        raise
    except KeyError as exc:
        raise ModelStoreError(f"{path}: malformed header: missing key {exc}") from exc
    except Exception as exc:
        raise ModelStoreError(f"{path}: malformed header: {exc}") from exc
    payload = memoryview(blob)[12 + header_len :]  # a view, not a copy
    if (gap := (size := 8 * param_count(arch)) - len(payload)) != 0:
        raise ModelStoreError(
            f"{path}: payload {'truncated' if gap > 0 else 'too long'}, "
            f"expected {size} bytes, found {len(payload)} "
            + (f"(short by {gap})" if gap > 0 else f"({-gap} extra)"))
    # astype copies: the model's values are writable and own their bytes
    model = ModelParams(arch, np.frombuffer(payload, "<f8").astype(np.float64))
    _check_finite(path, model)
    return model, preproc, taxonomy, metadata, feature_names


def _fields(cls, block: dict) -> dict:
    """The values of dataclass `cls`'s fields in header object `block`."""
    return {f.name: block[f.name] for f in fields(cls)}


def _match(path: str, key: str, have, need) -> None:
    """Raise unless the file's JSON value `have` is the rendered `need`: the
    same object keys (in any order), the same list lengths, and at every
    leaf the same JSON type and value. `key` names `have`, dotted."""
    name = key or "the header"
    if isinstance(need, dict):
        if not (isinstance(have, dict) and have.keys() == need.keys()):
            raise ModelStoreError(f"{path}: {name} must be an object with "
                                  f"exactly the keys {', '.join(need)}")
        for k in need:
            _match(path, f"{key}.{k}" if key else k, have[k], need[k])
    elif isinstance(need, list) and isinstance(have, list):
        if len(have) != len(need):
            raise ModelStoreError(f"{path}: {name} holds {len(have)} entries, "
                                  f"this build writes {len(need)}")
        for i, (entry, rendered) in enumerate(zip(have, need), 1):
            _match(path, f"{key} entry {i}", entry, rendered)
    elif type(have) is not type(need) or have != need:  # 1.0 and true are not 1
        raise ModelStoreError(f"{path}: {name} is {json.dumps(have)}, "
                              f"this build writes {json.dumps(need)}")


def _check_finite(path: str, model: ModelParams) -> None:
    if (name := non_finite_param(model.arch, model.values)) is not None:
        raise ModelStoreError(f"{path}: tensor {name} holds a non-finite value")
