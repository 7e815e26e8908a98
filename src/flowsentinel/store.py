"""Single-file model persistence.

Container layout (byte-exact layout in docs/model-file-format.md):

    bytes 0..8    magic b"FLOWSNT1"
    bytes 8..12   header length, unsigned 32-bit little-endian
    next          UTF-8 JSON header (format version, architecture, class
                  names, feature names, standardizer state, taxonomy rules,
                  training metadata, tensor directory)
    rest          concatenated little-endian IEEE-754 float64 tensor
                  payloads, in tensor-directory order

Writes are atomic (temp file + rename). save -> load -> save is
byte-identical; all invariants are revalidated on load, and the tensor
directory must be exactly the architecture's parameter table, with every
value finite. save_model runs the same table check before it writes.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import Taxonomy, TaxonomyRule
from .errors import ModelStoreError
from .pipeline import PreprocState
from .trainer import ArchitectureConfig, ModelParams, TrainConfig, param_shapes

MAGIC = b"FLOWSNT1"
FORMAT_VERSION = 1
MAX_HEADER_BYTES = 16 * 1024 * 1024


@dataclass
class ModelMetadata:
    task: str
    seed: int
    label_column: str
    train_config: TrainConfig
    source: str = ""
    epochs_run: int = 0
    best_epoch: int = 0
    final_metrics: dict = field(default_factory=dict)


def _header_dict(
    model: ModelParams,
    preproc: PreprocState,
    taxonomy: Taxonomy,
    metadata: ModelMetadata,
    feature_names: list[str],
) -> dict:
    tensors = []
    offset = 0
    for name, values in model.params.items():
        byte_length = values.size * 8
        tensors.append(
            {
                "name": name,
                "shape": list(values.shape),
                "offset": offset,
                "byte_length": byte_length,
            }
        )
        offset += byte_length
    return {
        "format_version": FORMAT_VERSION,
        "architecture": asdict(model.arch),
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
            "binary_positive": taxonomy.binary_positive,
        },
        "metadata": {
            "task": metadata.task,
            "seed": metadata.seed,
            "label_column": metadata.label_column,
            "train_config": asdict(metadata.train_config),
            "source": metadata.source,
            "epochs_run": metadata.epochs_run,
            "best_epoch": metadata.best_epoch,
            # keep the header strict JSON: NaN metrics (empty validation
            # split) are stored as null
            "final_metrics": {
                k: (v if not isinstance(v, float) or math.isfinite(v) else None)
                for k, v in metadata.final_metrics.items()
            },
        },
        "tensors": tensors,
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

    The parameter table gets the reader's checks first; a table that
    load_model would refuse raises ModelStoreError and writes nothing.
    """
    _check_table(path, model.arch, list(model.params.items()))
    header = _header_dict(model, preproc, taxonomy, metadata, feature_names)
    header_bytes = json.dumps(
        header, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    ).encode("utf-8")
    payload = b"".join(
        np.ascontiguousarray(values, dtype="<f8").tobytes()
        for values in model.params.values()
    )
    blob = (
        MAGIC
        + len(header_bytes).to_bytes(4, "little")
        + header_bytes
        + payload
    )
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".flowsentinel-")
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp_path, path)
        tmp_path = None
    except OSError as exc:
        raise ModelStoreError(f"cannot write model file {path}: {exc}") from exc
    finally:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)


def load_model(
    path: str,
) -> tuple[ModelParams, PreprocState, Taxonomy, ModelMetadata, list[str]]:
    """Read and revalidate a container written by save_model."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ModelStoreError(f"cannot read model file {path}: {exc}") from exc
    if len(blob) < 12:
        raise ModelStoreError(f"{path}: too short to be a model file")
    if blob[:8] != MAGIC:
        raise ModelStoreError(
            f"{path}: bad magic {blob[:8]!r}, expected {MAGIC!r}"
        )
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
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelStoreError(
            f"{path}: unknown format version {version!r}, "
            f"this build reads version {FORMAT_VERSION}"
        )
    payload = blob[12 + header_len :]
    try:
        arch = ArchitectureConfig(**header["architecture"])
        entries = header["tensors"]
        expected_total = 0
        for entry in entries:
            if entry["offset"] != expected_total:
                raise ModelStoreError(
                    f"{path}: tensor {entry['name']} at offset "
                    f"{entry['offset']}, expected {expected_total}"
                )
            if entry["byte_length"] != math.prod(entry["shape"]) * 8 or any(
                d < 0 for d in entry["shape"]
            ):
                raise ModelStoreError(
                    f"{path}: tensor {entry['name']} declares "
                    f"{entry['byte_length']} bytes for shape {entry['shape']}"
                )
            expected_total += entry["byte_length"]
        if len(payload) != expected_total:
            raise ModelStoreError(
                f"{path}: payload truncated, expected {expected_total} bytes, "
                f"found {len(payload)} (short by {expected_total - len(payload)})"
            )
        tensors = [
            (entry["name"], np.frombuffer(
                payload, dtype="<f8", count=entry["byte_length"] // 8,
                offset=entry["offset"],
            ).astype(np.float64).reshape(entry["shape"]))
            for entry in entries
        ]
        _check_table(path, arch, tensors)
        model = ModelParams(arch=arch, params=dict(tensors))
        pre = header["preprocessing"]
        preproc = PreprocState(
            means=np.array(pre["means"], dtype=np.float64),
            stds=np.array(pre["stds"], dtype=np.float64),
            degenerate=np.array(pre["degenerate"], dtype=bool),
            label_map=list(header["class_names"]),
            feature_count=len(pre["means"]),
            task=pre["task"],
        )
        tax = header["taxonomy"]
        taxonomy = Taxonomy(
            rules=[TaxonomyRule(k, p, c) for k, p, c in tax["rules"]],
            binary_positive=tax["binary_positive"],
        )
        meta = header["metadata"]
        metadata = ModelMetadata(
            task=meta["task"],
            seed=meta["seed"],
            label_column=meta["label_column"],
            train_config=TrainConfig(**meta["train_config"]),
            source=meta["source"],
            epochs_run=meta["epochs_run"],
            best_epoch=meta["best_epoch"],
            final_metrics=meta["final_metrics"],
        )
        feature_names = list(header["feature_names"])
        if len(feature_names) != arch.feature_count:
            raise ModelStoreError(
                f"{path}: {len(feature_names)} feature names for "
                f"feature_count {arch.feature_count}"
            )
        if len(set(feature_names)) != len(feature_names):
            raise ModelStoreError(f"{path}: duplicate feature names")
        if preproc.feature_count != arch.feature_count:
            raise ModelStoreError(
                f"{path}: standardizer covers {preproc.feature_count} "
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


def _check_table(
    path: str, arch: ArchitectureConfig, tensors: list[tuple[str, np.ndarray]]
) -> None:
    """The (name, values) pairs of a parameter table, and so the file's
    tensor directory, must be param_shapes(arch): the same names, in the
    same order, with the same shapes; and every value must be finite."""
    expected = list(param_shapes(arch).items())
    found = [(name, values.shape) for name, values in tensors]
    if len(found) != len(expected):
        raise ModelStoreError(
            f"{path}: tensor directory has {len(found)} entries, the "
            f"architecture needs {len(expected)}"
        )
    for i, (have, need) in enumerate(zip(found, expected)):
        if have != need:
            raise ModelStoreError(
                f"{path}: tensor directory entry {i + 1} is {have[0]} {have[1]}, "
                f"the architecture needs {need[0]} {need[1]}"
            )
    for name, values in tensors:
        if not np.isfinite(values).all():
            raise ModelStoreError(f"{path}: tensor {name} holds a non-finite value")
