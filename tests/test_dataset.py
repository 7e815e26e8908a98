import numpy as np
import pytest

from flowsentinel.dataset import (
    Dataset,
    TaxonomyRule,
    default_taxonomy,
    load_csv,
    load_feature_matrix,
    load_taxonomy,
    map_labels,
    select_features,
    subsample_stratified,
)
from flowsentinel.errors import (
    DatasetError,
    SchemaError,
    TaxonomyError,
    ValidationError,
)
from flowsentinel.tensor import Tensor


def test_load_csv_minimal(tiny_csv):
    ds = load_csv(tiny_csv)
    assert ds.features.shape == (2, 2)
    assert ds.features.array.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert ds.raw_labels == ["Benign", "DDoS-TCP"]
    assert ds.feature_names == ["f1", "f2"]
    assert ds.source == tiny_csv


def test_load_csv_nan_cell_names_row_and_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("f1,f2,label\nNaN,2,Benign\n", encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_csv(str(p))
    assert "row 1" in str(err.value)
    assert "f1" in str(err.value)


def test_load_csv_unparsable_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("f1,f2,label\n1,2,Benign\n3,abc,DoS\n", encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_csv(str(p))
    assert "row 2" in str(err.value)
    assert "f2" in str(err.value)


def test_load_csv_empty_after_header(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("f1,f2,label\n", encoding="utf-8")
    ds = load_csv(str(p))
    assert ds.sample_count == 0
    assert ds.feature_names == ["f1", "f2"]


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DatasetError):
        load_csv(str(tmp_path / "nope.csv"))


def test_load_csv_missing_label_column(tiny_csv):
    with pytest.raises(SchemaError) as err:
        load_csv(tiny_csv, label_column="attack")
    assert "attack" in str(err.value)


def test_load_csv_duplicate_header(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("f1,f1,label\n1,2,Benign\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_csv(str(p))


def test_load_csv_short_row(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("f1,f2,label\n1,Benign\n", encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_csv(str(p))
    assert "rows 1" in str(err.value)


def test_load_csv_column_order_preserved(tmp_path):
    p = tmp_path / "order.csv"
    p.write_text("b,label,a\n1,Benign,2\n", encoding="utf-8")
    ds = load_csv(str(p))
    assert ds.feature_names == ["b", "a"]
    assert ds.features.array.tolist() == [[1.0, 2.0]]


def test_float_round_trip_through_csv(tmp_path):
    rng = np.random.default_rng(31)
    values = rng.standard_normal((20, 3)) * 10.0 ** rng.integers(-8, 9, (20, 3))
    p = tmp_path / "roundtrip.csv"
    lines = ["x,y,z,label"]
    for row in values:
        lines.append(",".join(repr(float(v)) for v in row) + ",L")
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds = load_csv(str(p))
    assert np.array_equal(ds.features.array, values)


def test_default_taxonomy_known_labels():
    tax = default_taxonomy()
    assert tax.category_of("Benign") == "Benign"
    assert tax.category_of("MQTT-DDoS-Publish_Flood") == "MQTT"
    assert tax.category_of("Recon-VulScan") == "Recon"
    assert tax.category_of("ARP_Spoofing") == "Spoofing"
    assert tax.category_of("DDoS-TCP") == "DDoS"
    assert tax.category_of("DoS-SYN") == "DoS"
    assert tax.category_of("TotallyNovel") is None


def test_map_labels_all_tasks():
    labels = ["Benign", "DDoS-TCP", "DoS-SYN", "MQTT-Malformed_Data",
              "Recon-VulScan", "ARP_Spoofing"]
    tax = default_taxonomy()
    assert map_labels(labels, tax, "multiclass") == labels
    cats = map_labels(labels, tax, "category")
    assert cats == ["Benign", "DDoS", "DoS", "MQTT", "Recon", "Spoofing"]
    assert sorted(set(cats)) == ["Benign", "DDoS", "DoS", "MQTT", "Recon", "Spoofing"]
    binary = map_labels(labels, tax, "binary")
    assert binary == ["Benign"] + ["Attack"] * 5
    assert set(binary) == {"Benign", "Attack"}


def test_map_labels_unmatched_label():
    with pytest.raises(TaxonomyError) as err:
        map_labels(["Benign", "Weird-Thing"], default_taxonomy(), "category")
    assert "Weird-Thing" in str(err.value)


def test_map_labels_unknown_task():
    with pytest.raises(ValidationError):
        map_labels(["Benign"], default_taxonomy(), "sixway")


def test_map_labels_ddos_before_dos():
    tax = default_taxonomy()
    assert tax.category_of("DDoS-ICMP_Flood") == "DDoS"
    assert tax.category_of("DoS-ICMP_Flood") == "DoS"


def test_taxonomy_file_round_trip(tmp_path):
    p = tmp_path / "rules.txt"
    p.write_text(
        "# comment line\n"
        "exact,Benign,Benign\n"
        "prefix,DDoS,DDoS\n"
        "contains,Spoof,Spoofing\n"
        "\n",
        encoding="utf-8",
    )
    tax = load_taxonomy(str(p))
    assert tax.rules == [
        TaxonomyRule("exact", "Benign", "Benign"),
        TaxonomyRule("prefix", "DDoS", "DDoS"),
        TaxonomyRule("contains", "Spoof", "Spoofing"),
    ]
    assert tax.category_of("XSpoofY") == "Spoofing"


def test_taxonomy_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("glob,Benign,Benign\n", encoding="utf-8")
    with pytest.raises(TaxonomyError):
        load_taxonomy(str(p))
    p.write_text("exact,Benign\n", encoding="utf-8")
    with pytest.raises(TaxonomyError):
        load_taxonomy(str(p))
    with pytest.raises(TaxonomyError):
        load_taxonomy(str(tmp_path / "missing.txt"))


def _dataset(labels, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        features=Tensor(rng.standard_normal((len(labels), 2))),
        raw_labels=list(labels),
        source="mem",
        feature_names=["a", "b"],
    )


def test_subsample_caps_large_classes():
    ds = _dataset(["A"] * 10 + ["B"] * 3)
    out = subsample_stratified(ds, 5, seed=9)
    assert out.raw_labels.count("A") == 5
    assert out.raw_labels.count("B") == 3


def test_subsample_identity_when_cap_covers_everything():
    ds = _dataset(["A", "B", "A", "B", "B"])
    out = subsample_stratified(ds, 100, seed=9)
    assert out.raw_labels == ds.raw_labels
    assert np.array_equal(out.features.array, ds.features.array)


def test_subsample_deterministic():
    ds = _dataset(["A"] * 50 + ["B"] * 20)
    a = subsample_stratified(ds, 7, seed=13)
    b = subsample_stratified(ds, 7, seed=13)
    assert a.raw_labels == b.raw_labels
    assert np.array_equal(a.features.array, b.features.array)


def test_subsample_rejects_bad_cap():
    with pytest.raises(ValidationError):
        subsample_stratified(_dataset(["A"]), 0, seed=1)


def test_select_features_reorders(tmp_path):
    p = tmp_path / "cols.csv"
    p.write_text("a,b,label\n1,2,X\n3,4,Y\n", encoding="utf-8")
    ds = load_csv(str(p))
    out = select_features(ds, ["b", "a"])
    assert out.feature_names == ["b", "a"]
    assert out.features.array.tolist() == [[2.0, 1.0], [4.0, 3.0]]
    with pytest.raises(ValidationError):
        select_features(ds, ["a", "missing"])


def test_load_feature_matrix_ignores_labels(tmp_path):
    p = tmp_path / "unlabeled.csv"
    p.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
    t = load_feature_matrix(str(p), ["b", "a"])
    assert t.array.tolist() == [[2.0, 1.0], [4.0, 3.0]]
    with pytest.raises(SchemaError):
        load_feature_matrix(str(p), ["a", "c"])
