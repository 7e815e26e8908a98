import json

import numpy as np
import pytest

from flowsentinel.dataset import default_taxonomy
from flowsentinel.errors import ModelStoreError
from flowsentinel.pipeline import fit_standardizer
from flowsentinel.store import (
    FORMAT_VERSION,
    MAGIC,
    ModelMetadata,
    load_model,
    save_model,
)
from flowsentinel.tensor import Tensor
from flowsentinel.trainer import ArchitectureConfig, TrainConfig, build_model, predict


@pytest.fixture
def saved(tmp_path):
    rng = np.random.default_rng(55)
    model = build_model(ArchitectureConfig(feature_count=12, class_count=2), rng)
    pre = fit_standardizer(
        Tensor(rng.standard_normal((30, 12)) * 3 + 1),
        label_map=["Attack", "Benign"],
        task="binary",
    )
    metadata = ModelMetadata(
        task="binary",
        seed=42,
        label_column="label",
        train_config=TrainConfig(epochs=3, seed=42),
        source="wherever.csv",
        epochs_run=3,
        best_epoch=2,
        final_metrics={"val_acc": 0.5},
    )
    names = [f"f{i}" for i in range(12)]
    path = tmp_path / "model.fsnt"
    save_model(str(path), model, pre, default_taxonomy(), metadata, names)
    return path, model, pre, metadata, names


def test_round_trip_preserves_everything(saved):
    path, model, pre, metadata, names = saved
    loaded, pre2, tax2, meta2, names2 = load_model(str(path))
    for (n1, t1), (n2, t2) in zip(model.params.items(), loaded.params.items()):
        assert n1 == n2
        assert np.array_equal(t1, t2)
    assert np.array_equal(pre2.means, pre.means)
    assert np.array_equal(pre2.stds, pre.stds)
    assert np.array_equal(pre2.degenerate, pre.degenerate)
    assert pre2.label_map == pre.label_map
    assert pre2.task == "binary"
    assert tax2.rules == default_taxonomy().rules
    assert meta2.train_config == metadata.train_config  # exact TrainConfig echo
    assert meta2.task == "binary" and meta2.seed == 42
    assert meta2.final_metrics == {"val_acc": 0.5}
    assert names2 == names
    assert loaded.arch == model.arch


def test_round_trip_predictions_bit_exact(saved):
    path, model, pre, _, _ = saved
    loaded, pre2, _, _, _ = load_model(str(path))
    x = Tensor(np.random.default_rng(77).standard_normal((5, 12)))
    idx1, probs1 = predict(model, pre, x)
    idx2, probs2 = predict(loaded, pre2, x)
    assert idx1 == idx2
    assert probs1 == probs2


def test_save_is_deterministic_and_reload_reserializes_identically(saved, tmp_path):
    path, model, pre, metadata, names = saved
    again = tmp_path / "again.fsnt"
    save_model(str(again), model, pre, default_taxonomy(), metadata, names)
    original = path.read_bytes()
    assert again.read_bytes() == original
    loaded = load_model(str(path))
    resaved = tmp_path / "resaved.fsnt"
    save_model(str(resaved), loaded[0], loaded[1], loaded[2], loaded[3], loaded[4])
    assert resaved.read_bytes() == original


def test_bad_magic_rejected(saved, tmp_path):
    path, *_ = saved
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    bad = tmp_path / "bad.fsnt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ModelStoreError, match="magic"):
        load_model(str(bad))


def test_truncated_payload_reports_shortfall(saved, tmp_path):
    path, *_ = saved
    blob = path.read_bytes()
    bad = tmp_path / "trunc.fsnt"
    bad.write_bytes(blob[:-8])
    with pytest.raises(ModelStoreError, match="short by 8"):
        load_model(str(bad))


def test_unknown_version_names_it(saved, tmp_path):
    path, *_ = saved
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    header["format_version"] = FORMAT_VERSION + 1
    new_header = json.dumps(header, separators=(",", ":")).encode("utf-8")
    bad = tmp_path / "vers.fsnt"
    bad.write_bytes(
        MAGIC + len(new_header).to_bytes(4, "little") + new_header + blob[12 + header_len :]
    )
    with pytest.raises(ModelStoreError, match=str(FORMAT_VERSION + 1)):
        load_model(str(bad))


def test_mismatched_tensor_declaration_rejected(saved, tmp_path):
    path, *_ = saved
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    header["tensors"][0]["byte_length"] += 8  # no longer matches its shape
    new_header = json.dumps(header, separators=(",", ":")).encode("utf-8")
    bad = tmp_path / "mismatch.fsnt"
    bad.write_bytes(
        MAGIC + len(new_header).to_bytes(4, "little") + new_header + blob[12 + header_len :]
    )
    with pytest.raises(ModelStoreError, match="declares"):
        load_model(str(bad))


def test_oversized_header_rejected(tmp_path):
    bad = tmp_path / "big.fsnt"
    bad.write_bytes(MAGIC + (17 * 1024 * 1024).to_bytes(4, "little") + b"x" * 16)
    with pytest.raises(ModelStoreError, match="bound"):
        load_model(str(bad))


def test_garbage_header_rejected(tmp_path):
    bad = tmp_path / "garbage.fsnt"
    payload = b"not json at all"
    bad.write_bytes(MAGIC + len(payload).to_bytes(4, "little") + payload)
    with pytest.raises(ModelStoreError, match="header"):
        load_model(str(bad))


def test_save_to_directory_is_io_error(saved, tmp_path):
    _, model, pre, metadata, names = saved
    with pytest.raises(ModelStoreError):
        save_model(str(tmp_path), model, pre, default_taxonomy(), metadata, names)


def test_nan_metrics_become_null_in_strict_json_header(saved, tmp_path):
    _, model, pre, metadata, names = saved
    metadata.final_metrics = {"val_loss": float("nan"), "val_acc": float("nan"),
                              "train_loss": 0.25}
    path = tmp_path / "nan.fsnt"
    save_model(str(path), model, pre, default_taxonomy(), metadata, names)
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[8:12], "little")
    header = blob[12 : 12 + header_len].decode("utf-8")
    assert "NaN" not in header  # strict JSON only
    _, _, _, meta2, _ = load_model(str(path))
    assert meta2.final_metrics == {"val_loss": None, "val_acc": None,
                                   "train_loss": 0.25}


def test_load_missing_file(tmp_path):
    with pytest.raises(ModelStoreError):
        load_model(str(tmp_path / "missing.fsnt"))


def test_short_file_rejected(tmp_path):
    bad = tmp_path / "short.fsnt"
    bad.write_bytes(b"FLOW")
    with pytest.raises(ModelStoreError, match="too short"):
        load_model(str(bad))
