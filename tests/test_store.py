import copy
import json
import math
import os
import stat

import numpy as np
import pytest

from flowsentinel.dataset import default_taxonomy
from flowsentinel.errors import DataError, ModelStoreError
from flowsentinel.pipeline import fit_standardizer
from flowsentinel.store import (
    FORMAT_VERSION,
    MAGIC,
    ModelMetadata,
    load_model,
    save_model,
)
from flowsentinel.tensor import Tensor
from flowsentinel.trainer import (
    ArchitectureConfig, ModelParams, TrainConfig, build_model, param_shapes,
    predict,
)


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


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask-022", "umask-027"])
def test_model_file_mode_follows_the_umask(saved, tmp_path, umask, mode):
    """The mode a plain open() gives, as predict --out files get, not the
    temp file's 0600."""
    path, model, pre, metadata, names = saved
    out = tmp_path / "again.fsnt"
    old = os.umask(umask)
    try:
        save_model(str(out), model, pre, default_taxonomy(), metadata, names)
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert out.read_bytes() == path.read_bytes()


def test_save_never_touches_a_file_it_did_not_create(saved, tmp_path,
                                                    monkeypatch):
    path, model, pre, metadata, names = saved
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    taken = tmp_path / f".flowsentinel-{'00' * 8}"
    taken.write_bytes(b"someone else's")
    out = tmp_path / "again.fsnt"
    with pytest.raises(ModelStoreError) as err:
        save_model(str(out), model, pre, default_taxonomy(), metadata, names)
    assert str(err.value) == f"cannot write model file {out}: File exists"
    assert taken.read_bytes() == b"someone else's"
    assert not out.exists()


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
    assert pre2.task == "binary" and meta2.train_config.seed == 42
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
    assert np.array_equal(probs1.array, probs2.array)


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


def test_extended_payload_reports_extra_bytes(saved, tmp_path):
    path, *_ = saved
    bad = tmp_path / "long.fsnt"
    bad.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(ModelStoreError, match=r"payload too long, .* \(8 extra\)$"):
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
    for damage, reason in (
        ("byte_length", "tensors entry 1.byte_length is 776, this build writes 768"),
        ("negative_shape", "tensors entry 1.shape holds 1 entries, this build writes 3"),
    ):
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
        entry = header["tensors"][0]
        if damage == "byte_length":
            entry["byte_length"] += 8  # no longer matches its shape
        else:  # a negative size that its byte length matches
            entry["shape"] = [-math.prod(entry["shape"])]
            entry["byte_length"] = -entry["byte_length"]
        new_header = json.dumps(header, separators=(",", ":")).encode("utf-8")
        bad = tmp_path / "mismatch.fsnt"
        bad.write_bytes(
            MAGIC + len(new_header).to_bytes(4, "little") + new_header
            + blob[12 + header_len :]
        )
        with pytest.raises(ModelStoreError) as err:
            load_model(str(bad))
        assert str(err.value) == f"{bad}: {reason}"


def _header_of(path):
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[8:12], "little")
    return json.loads(blob[12 : 12 + header_len].decode("utf-8")), blob[12 + header_len :]


def _write_with_header(path, header, payload):
    new_header = json.dumps(header, separators=(",", ":")).encode("utf-8")
    path.write_bytes(MAGIC + len(new_header).to_bytes(4, "little") + new_header
                     + payload)


@pytest.mark.parametrize("features,classes", [(12, 2), (16, 3), (45, 19)])
def test_saved_directory_is_the_architecture_layout(tmp_path, features, classes):
    from flowsentinel.store import _directory

    rng = np.random.default_rng(features)
    arch = ArchitectureConfig(feature_count=features, class_count=classes)
    pre = fit_standardizer(Tensor(rng.standard_normal((10, features))),
                           label_map=[f"c{i}" for i in range(classes)])
    metadata = ModelMetadata(label_column="label", train_config=TrainConfig(),
                             source="", epochs_run=1, best_epoch=0,
                             final_metrics={})
    path = tmp_path / "model.fsnt"
    save_model(str(path), build_model(arch, rng), pre, default_taxonomy(),
               metadata, [f"f{i}" for i in range(features)])
    header, payload = _header_of(path)
    assert header["tensors"] == _directory(arch)
    offset = 0  # each tensor's values follow the previous one's
    for entry, (name, shape) in zip(header["tensors"], param_shapes(arch).items(),
                                    strict=True):
        assert entry == {"name": name, "shape": list(shape), "offset": offset,
                         "byte_length": 8 * math.prod(shape)}
        offset += entry["byte_length"]
    last = header["tensors"][-1]
    assert len(payload) == last["offset"] + last["byte_length"]


def test_moved_directory_offset_rejected(saved, tmp_path):
    path, *_ = saved
    header, payload = _header_of(path)
    header["tensors"][2]["offset"] += 8
    bad = tmp_path / "moved.fsnt"
    _write_with_header(bad, header, payload)
    with pytest.raises(ModelStoreError) as err:
        load_model(str(bad))
    assert str(err.value) == (
        f"{bad}: tensors entry 3.offset is 1032, this build writes 1024")


def test_directory_entry_with_extra_key_rejected(saved, tmp_path):
    path, *_ = saved
    header, payload = _header_of(path)
    header["tensors"][5]["dtype"] = "<f8"
    bad = tmp_path / "extra-key.fsnt"
    _write_with_header(bad, header, payload)
    with pytest.raises(ModelStoreError) as err:
        load_model(str(bad))
    assert str(err.value) == (
        f"{bad}: tensors entry 6 must be an object with exactly the keys "
        "name, shape, offset, byte_length")


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


@pytest.mark.parametrize(
    "header", [b"[" * 100_000, b'{"format_version":' + b"1" * 5000 + b"}"],
    ids=["deep-nesting", "5000-digit-int"])
def test_json_the_parser_refuses_is_an_unreadable_header(tmp_path, header):
    bad = tmp_path / "unreadable.fsnt"
    bad.write_bytes(MAGIC + len(header).to_bytes(4, "little") + header)
    with pytest.raises(ModelStoreError, match=": unreadable header: "):
        load_model(str(bad))


def _leaves(value, where=()):
    """(path, value) for each leaf of a JSON value; a path holds the keys
    and list indices that lead to the leaf."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, where + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, where + (i,))
    else:
        yield where, value


# leaves whose JSON type the format leaves open: the reader takes the value
# as it finds it
OPEN_TYPES = (("format_version",), ("metadata", "final_metrics"),
              ("metadata", "train_config", "lr"),
              ("metadata", "train_config", "val_fraction"))


def test_equal_value_of_another_json_type_is_refused(saved, tmp_path):
    # true is not 1, 1 is not 1.0: every bool, int or integral float the
    # writer writes is refused as the equal value of another JSON type
    path, *_ = saved
    header, payload = _header_of(path)
    bad, twins, loaded = tmp_path / "twin.fsnt", 0, []
    for where, value in _leaves(header):
        if any(where[: len(open_)] == open_ for open_ in OPEN_TYPES):
            continue
        if isinstance(value, bool):
            twin = int(value)
        elif isinstance(value, int):
            twin = float(value)
        elif isinstance(value, float) and value.is_integer():
            twin = int(value)
        else:
            continue
        edited = copy.deepcopy(header)
        parent = edited
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = twin
        _write_with_header(bad, edited, payload)
        twins += 1
        try:
            load_model(str(bad))
        except ModelStoreError:
            continue
        loaded.append(where)
    assert loaded == []
    # 7 layer sizes, 30 directory numbers, 12 degenerate flags, seed,
    # epochs_run, best_epoch, and 5 train_config values
    assert twins == 57


def test_missing_key_is_named(saved, tmp_path):
    path, *_ = saved
    header, payload = _header_of(path)
    del header["metadata"]["train_config"]["epochs"]
    bad = tmp_path / "cut.fsnt"
    _write_with_header(bad, header, payload)
    with pytest.raises(ModelStoreError) as err:
        load_model(str(bad))
    assert str(err.value) == f"{bad}: malformed header: missing key 'epochs'"


@pytest.mark.parametrize("header", [b"[]", b"3", b'"x"'])
def test_non_object_header_rejected(tmp_path, header):
    bad = tmp_path / "list.fsnt"
    bad.write_bytes(MAGIC + len(header).to_bytes(4, "little") + header)
    with pytest.raises(ModelStoreError, match="unknown format version None"):
        load_model(str(bad))


def test_save_to_directory_is_io_error(saved, tmp_path):
    _, model, pre, metadata, names = saved
    with pytest.raises(ModelStoreError):
        save_model(str(tmp_path), model, pre, default_taxonomy(), metadata, names)


def test_save_into_missing_directory_names_the_target(saved, tmp_path):
    _, model, pre, metadata, names = saved
    path = tmp_path / "no" / "m.fsnt"
    with pytest.raises(ModelStoreError) as err:
        save_model(str(path), model, pre, default_taxonomy(), metadata, names)
    assert str(err.value) == f"cannot write model file {path}: No such file or directory"


def test_save_refuses_a_table_the_reader_would_refuse(saved, tmp_path):
    _, model, pre, metadata, names = saved
    model.params["conv1.weights"][0, 0, 0] = np.nan
    with pytest.raises(ModelStoreError, match="conv1.weights holds a non-finite"):
        save_model(str(tmp_path / "nan.fsnt"), model, pre, default_taxonomy(),
                   metadata, names)
    # a table with an extra entry cannot be built, so no writer sees one
    with pytest.raises(DataError, match="vector of"):
        ModelParams(model.arch, np.concatenate([model.values, np.zeros(3)]))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.fsnt"]


def test_loaded_values_are_writable_and_own_their_bytes(saved):
    path, model, *_ = saved
    original = path.read_bytes()
    loaded = load_model(str(path))[0]
    assert loaded.values.flags.writeable and loaded.values.flags.owndata
    loaded.params["output.bias"][...] = 7.0
    assert loaded.values[-2:].tolist() == [7.0, 7.0]
    assert path.read_bytes() == original
    assert np.array_equal(load_model(str(path))[0].values, model.values)


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
