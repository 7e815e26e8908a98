import csv
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentinel import dataset
from flowsentinel.dataset import (
    Dataset,
    TaxonomyRule,
    default_taxonomy,
    load_csv,
    load_feature_matrix,
    load_taxonomy,
    map_labels,
    subsample_stratified,
)
from flowsentinel.errors import DataError
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
    with pytest.raises(DataError, match="non-finite or unparsable") as err:
        load_csv(str(p))
    assert "row 1" in str(err.value)
    assert "f1" in str(err.value)


def test_load_csv_unparsable_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("f1,f2,label\n1,2,Benign\n3,abc,DoS\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-finite or unparsable") as err:
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
    with pytest.raises(DataError, match="cannot read "):
        load_csv(str(tmp_path / "nope.csv"))


def test_load_csv_missing_label_column(tiny_csv):
    with pytest.raises(DataError, match="label column 'attack' not in header") as err:
        load_csv(tiny_csv, label_column="attack")
    assert "attack" in str(err.value)


def test_load_csv_duplicate_header(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("f1,f1,label\n1,2,Benign\n", encoding="utf-8")
    with pytest.raises(DataError, match="duplicate column names in header"):
        load_csv(str(p))


def test_load_csv_short_row(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("f1,f2,label\n1,Benign\n", encoding="utf-8")
    with pytest.raises(DataError, match="wrong field count") as err:
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
    with pytest.raises(DataError, match="not covered by the taxonomy") as err:
        map_labels(["Benign", "Weird-Thing"], default_taxonomy(), "category")
    assert "Weird-Thing" in str(err.value)


def test_map_labels_unknown_task():
    with pytest.raises(DataError, match="unknown task 'sixway'"):
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
    with pytest.raises(DataError, match="unknown rule kind 'glob'"):
        load_taxonomy(str(p))
    p.write_text("exact,Benign\n", encoding="utf-8")
    with pytest.raises(DataError, match="expected kind,pattern,category"):
        load_taxonomy(str(p))
    with pytest.raises(DataError, match="cannot read taxonomy file"):
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
    with pytest.raises(DataError, match="per_class_cap must be >= 1, got 0"):
        subsample_stratified(_dataset(["A"]), 0, seed=1)


def test_select_features_reorders(tmp_path):
    p = tmp_path / "cols.csv"
    p.write_text("a,b,label\n1,2,X\n3,4,Y\n", encoding="utf-8")
    out = load_csv(str(p), feature_names=["b", "a"])
    assert out.feature_names == ["b", "a"]
    assert out.features.array.tolist() == [[2.0, 1.0], [4.0, 3.0]]
    assert out.raw_labels == ["X", "Y"]
    with pytest.raises(DataError, match="missing feature columns"):
        load_csv(str(p), feature_names=["a", "missing"])


def test_load_feature_matrix_ignores_labels(tmp_path):
    p = tmp_path / "unlabeled.csv"
    p.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
    t = load_feature_matrix(str(p), ["b", "a"])
    assert t.array.tolist() == [[2.0, 1.0], [4.0, 3.0]]
    with pytest.raises(DataError, match=r"missing feature columns \['c'\]"):
        load_feature_matrix(str(p), ["a", "c"])


def _write_rows(path, header, rows):
    path.write_text(
        "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize("offenders, marked", [(8, False), (9, True)])
def test_bad_cell_listing_marks_only_a_real_truncation(tmp_path, offenders,
                                                       marked):
    rows = [["x", "1", "L"]] * offenders + [["1", "2", "L"]]
    p = _write_rows(tmp_path / "bad.csv", ["a", "b", "label"], rows)
    with pytest.raises(DataError, match="non-finite or unparsable") as err:
        load_csv(p)
    listed = str(err.value).split("rejected at ", 1)[1]
    assert listed.startswith("; ".join(f"row {r}, column a" for r in range(1, 9)))
    assert listed.count("row ") == 8
    assert listed.endswith(", ...") == marked


@pytest.mark.parametrize("offenders, marked", [(8, False), (9, True)])
def test_ragged_listing_marks_only_a_real_truncation(tmp_path, offenders,
                                                     marked):
    rows = [["1", "L"]] * offenders + [["1", "2", "L"]]
    p = _write_rows(tmp_path / "ragged.csv", ["a", "b", "label"], rows)
    with pytest.raises(DataError, match="wrong field count") as err:
        load_csv(p)
    listed = str(err.value).split("rejected: rows ", 1)[1]
    assert listed == "1, 2, 3, 4, 5, 6, 7, 8" + (", ..." if marked else "")


@pytest.fixture
def small_blocks(monkeypatch):
    """Three rows a block, so small files span several blocks."""
    monkeypatch.setattr(dataset, "_BLOCK_ROWS", 3)


def _good_rows(n):
    return [[str(r), str(r + 0.5), "L"] for r in range(n)]


def test_blocks_number_rows_across_the_file(tmp_path, small_blocks):
    rows = _good_rows(10)
    rows[7][1] = "nan"
    p = _write_rows(tmp_path / "late.csv", ["a", "b", "label"], rows)
    with pytest.raises(DataError, match=r"rejected at row 8, column b$"):
        load_csv(p)
    rows[7][1] = "1"
    rows[8] = ["1", "L"]
    p = _write_rows(tmp_path / "late.csv", ["a", "b", "label"], rows)
    with pytest.raises(DataError, match=r"field count rejected: rows 9$"):
        load_csv(p)


def test_late_ragged_row_outranks_label_and_cells(tmp_path, small_blocks):
    rows = _good_rows(10)
    rows[0][0] = "abc"
    rows[9] = ["1", "2", "L", "extra"]
    p = _write_rows(tmp_path / "mixed.csv", ["a", "b", "label"], rows)
    with pytest.raises(DataError, match=r"rows 10$"):
        load_csv(p)
    with pytest.raises(DataError, match=r"rows 10$"):
        load_csv(p, label_column="attack")
    rows[9] = ["1", "2", "L"]
    p = _write_rows(tmp_path / "mixed.csv", ["a", "b", "label"], rows)
    with pytest.raises(DataError, match="label column 'attack'"):
        load_csv(p, label_column="attack")
    with pytest.raises(DataError, match=r"at row 1, column a$"):
        load_csv(p)


def test_bad_cell_cap_holds_across_blocks(tmp_path, small_blocks):
    rows = [[str(r), "inf" if r % 2 else "1", "L"] for r in range(30)]
    p = _write_rows(tmp_path / "many.csv", ["a", "b", "label"], rows)
    with pytest.raises(DataError, match="non-finite or unparsable") as err:
        load_csv(p)
    listed = str(err.value).split("rejected at ", 1)[1]
    assert listed == "; ".join(f"row {r}, column b" for r in range(2, 17, 2)) + ", ..."


def test_header_only_and_blank_line_in_blocks(tmp_path, small_blocks):
    p = _write_rows(tmp_path / "header.csv", ["a", "b", "label"], [])
    ds = load_csv(p)
    assert ds.features.shape == (0, 2) and ds.raw_labels == []
    assert load_feature_matrix(p, ["b"]).shape == (0, 1)
    p = _write_rows(tmp_path / "labels.csv", ["label"], [["L"]] * 4)
    assert load_csv(p).features.shape == (4, 0)
    p = tmp_path / "blank.csv"
    p.write_text("a,b,label\n1,2,L\n3,4,L\n5,6,L\n\n7,8,L\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"rows 4$"):
        load_csv(str(p))


def test_cells_parse_as_float_does(tmp_path, small_blocks):
    p = tmp_path / "forms.csv"
    p.write_text('a,b,label\n"1.5",1_0,L\n -2 ,٣,"M"\n', encoding="utf-8")
    ds = load_csv(str(p))
    assert ds.features.array.tolist() == [[1.5, 10.0], [-2.0, 3.0]]
    assert ds.raw_labels == ["L", "M"]


def test_blocks_bit_identical_to_per_cell_float(tmp_path, small_blocks):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((11, 4)) * 10.0 ** rng.integers(-300, 300, (11, 4))
    text = [[repr(float(v)) for v in row] for row in values]
    text[3][2] = "  -0.0"
    text[6][0] = "1e-320"  # subnormal
    p = _write_rows(tmp_path / "bits.csv", ["a", "label", "b", "c", "d"],
                    [[r[0], "L", *r[1:]] for r in text])
    reference = np.array([[float(cell) for cell in row] for row in text])
    ds = load_csv(p)
    assert ds.features.array.tobytes() == reference.tobytes()
    matrix = load_feature_matrix(p, ["d", "a"])
    assert matrix.array.tobytes() == reference[:, [3, 0]].copy().tobytes()


def test_feature_matrix_runs_the_same_checks(tmp_path, small_blocks):
    rows = _good_rows(10)
    rows[5][0] = "x"
    p = _write_rows(tmp_path / "cells.csv", ["a", "b", "label"], rows)
    with pytest.raises(DataError, match=r"at row 6, column a$"):
        load_feature_matrix(p, ["b", "a"])
    assert load_feature_matrix(p, ["b"]).array[:, 0].tolist() == [
        r + 0.5 for r in range(10)
    ]
    rows[8] = ["1"]
    p = _write_rows(tmp_path / "cells.csv", ["a", "b", "label"], rows)
    with pytest.raises(DataError, match=r"rows 9$"):
        load_feature_matrix(p, ["missing"])
    p = tmp_path / "dup.csv"
    p.write_text("a,a,label\n1,2,L\n3\n", encoding="utf-8")
    with pytest.raises(DataError, match="duplicate column names"):
        load_feature_matrix(str(p), ["a"])


def test_load_csv_memory_stays_near_the_float_block(tmp_path):
    """Peak traced memory stays within 3x the returned float block plus a
    fixed slack on a file of 20 blocks; holding every row's strings costs
    about 10x."""
    n, f = 20480, 32
    rng = np.random.default_rng(3)
    p = tmp_path / "big.csv"
    with open(p, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"f{j}" for j in range(f)) + ",label\n")
        for chunk in range(0, n, 4096):
            block = rng.standard_normal((min(4096, n - chunk), f)) * 1e3
            fh.writelines(",".join(map(repr, row)) + ",Benign\n"
                          for row in block.tolist())
    tracemalloc.start()
    try:
        ds = load_csv(str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.shape == (n, f)
    floats = 8 * n * f
    assert peak < 3 * floats + 4_000_000, f"peak {peak / floats:.2f}x 8*N*F"
    assert n >= 20 * dataset._BLOCK_ROWS


_CELL_CHARS = "0123456789.e-_ \t ٣१５"
_cell = st.one_of(
    st.text(alphabet=_CELL_CHARS, max_size=8),
    st.sampled_from(["nan", "-inf", "inf", "Infinity", "1e999", "-0", "1_0"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_cell, min_size=3, max_size=3), max_size=7))
def test_fuzzed_cells_parse_as_float_or_name_the_first_offender(tmp_path_factory,
                                                                grid):
    """Every cell either loads as exactly float(cell) or the load raises
    DataError naming the first offending cell, across blocks of 2 rows."""
    p = tmp_path_factory.mktemp("fuzz") / "cells.csv"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["a", "b", "label", "c"]]
                                 + [[r[0], r[1], "L", r[2]] for r in grid])
    first = None
    expected = []
    for r, row in enumerate(grid, start=1):
        for name, cell in zip("abc", row):
            try:
                v = float(cell)
            except ValueError:
                v = math.nan
            if not math.isfinite(v) and first is None:
                first = f"rejected at row {r}, column {name}"
            expected.append(v)
    with mock.patch.object(dataset, "_BLOCK_ROWS", 2):
        if first is None:
            got = load_csv(str(p)).features.array
            assert got.tobytes() == np.array(expected).reshape(-1, 3).tobytes()
        else:
            with pytest.raises(DataError, match="non-finite or unparsable") as err:
                load_csv(str(p))
            assert first + ";" in str(err.value) + ";"
