import codecs
import csv
import io
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

from oracles import subsample_rows_lists


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
    # A printable label is shown as it is, any other through repr, so the
    # message stays on one line.
    with pytest.raises(DataError) as err:
        map_labels(["Benign", "Zé", "Weird-Thing", "Odd\nOne", "Zé"],
                   default_taxonomy(), "category")
    assert str(err.value) == (
        "labels not covered by the taxonomy: 'Odd\\nOne', Weird-Thing, Zé")


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


def test_taxonomy_file_with_a_byte_order_mark(tmp_path):
    text = "exact,Benign,Benign\nprefix,DDoS,DDoS\n"
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text(text, encoding="utf-8")
    bom.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    assert load_taxonomy(str(bom)).rules == load_taxonomy(str(plain)).rules


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


def test_taxonomy_file_rule_errors_name_the_line(tmp_path):
    p = tmp_path / "bad_tax.txt"
    for line, message in (("glob,Benign,Benign", "unknown rule kind 'glob'"),
                          ("contains, ,Benign", "empty pattern or category"),
                          ("exact,Benign,", "empty pattern or category")):
        p.write_text(f"# rules\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_taxonomy(str(p))
        assert str(err.value) == f"{p}:2: {message}"


@pytest.mark.parametrize("rule, message", [
    (("glob", "Benign", "Benign"), "unknown rule kind 'glob'"),
    ((["exact"], "Benign", "Benign"), "unknown rule kind ['exact']"),
    (("exact", 5, "Benign"), "rule pattern and category must be strings: "),
    (("exact", "Benign", None), "rule pattern and category must be strings: "),
    (("contains", "", "Benign"), "empty pattern or category"),
    (("prefix", "DDoS", ""), "empty pattern or category"),
], ids=["kind-glob", "kind-list", "pattern-int", "category-none",
        "pattern-empty", "category-empty"])
def test_taxonomy_rule_checks_itself(rule, message):
    """Every rule source (file, model file, Python) gets the same checks."""
    with pytest.raises(DataError) as err:
        TaxonomyRule(*rule)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("first", ["0,1,DoS-TCP", '"0",1,DoS-TCP'],
                         ids=["plain", "csv-module"])
def test_load_csv_stores_each_label_once(tmp_path, first):
    """Each distinct label is one str object, however many rows carry it; a
    quoted cell sends the file down the csv-module route."""
    labels = ["DoS-TCP", "Benign", "DoS-TCP", "ARP_Spoofing", "Benign"] * 4
    rows = [first] + [f"{i},{i + 1},{label}" for i, label in enumerate(labels)][1:]
    p = tmp_path / "labels.csv"
    p.write_text("\n".join(["a,b,label", *rows]) + "\n", encoding="utf-8")
    ds = load_csv(str(p))
    assert ds.raw_labels == labels
    assert len({id(label) for label in ds.raw_labels}) == 3


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


# ARP has 4 rows, Benign 8, DoS 5 and Recon 1; feature `row` is the row number.
_UNEVEN_LABELS = ["DoS", "Benign", "ARP", "Benign", "DoS", "Recon", "Benign",
                  "ARP", "DoS", "Benign", "Benign", "ARP", "DoS", "Benign",
                  "DoS", "Benign", "ARP", "Benign"]


@pytest.mark.parametrize("cap, seed, kept", [
    (1, 5, [5, 12, 16, 17]),
    (4, 8, [0, 1, 2, 4, 5, 7, 9, 11, 12, 13, 14, 16, 17]),
    (5, 6, [0, 1, 2, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 16, 17]),
    (8, 2, list(range(18))),
    (9, 2, list(range(18))),
], ids=["cap-1", "cap-4", "cap-5", "cap-8", "cap-9"])
def test_subsample_pinned_draws(cap, seed, kept):
    """The exact rows each cap and seed keep, in file order, with caps below,
    equal to and above the class sizes."""
    ds = Dataset(features=Tensor(np.arange(18.0)[:, None]),
                 raw_labels=list(_UNEVEN_LABELS), source="mem",
                 feature_names=["row"])
    out = subsample_stratified(ds, cap, seed=seed)
    assert out.features.array[:, 0].tolist() == kept
    assert out.raw_labels == [_UNEVEN_LABELS[i] for i in kept]


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.sampled_from(["A", "B", "Benign", "DoS", "x y"]),
                       max_size=40),
       cap=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_subsample_matches_the_list_reference(labels, cap, seed):
    ds = Dataset(features=Tensor(np.arange(float(len(labels))).reshape(-1, 1)),
                 raw_labels=labels, source="mem", feature_names=["row"])
    kept = subsample_rows_lists(labels, cap, seed)
    out = subsample_stratified(ds, cap, seed=seed)
    assert out.features.array[:, 0].tolist() == kept
    assert out.raw_labels == [labels[i] for i in kept]


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


def _good_lines(n):
    return [f"{r},{r + 0.5},L{r}\n" for r in range(n)]


def _write_lines(path, lines, header="a,b,label\n"):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "".join(lines))
    return str(path)


@pytest.mark.parametrize("cell", ["1_0", "٣", "1\xa0", " 7\t", "5#", "1,2",
                                  "nan", "1e999", ""])
def test_cells_past_plain_blocks_parse_as_float_does(tmp_path, small_blocks,
                                                     cell):
    """loadtxt rejects `1_0` and non-ASCII digits, which float accepts; with
    comments on it would accept `5#`, and with usecols it would drop an
    extra field. A block holding such a cell after plain ones must load,
    or fail, exactly as float and the csv module decide."""
    lines = _good_lines(9)
    lines[4] = f"4,{cell},L4\n"
    p = _write_lines(tmp_path / "cell.csv", lines)
    if "," in cell:
        with pytest.raises(DataError, match=r"field count rejected: rows 5$"):
            load_csv(p)
        return
    try:
        expected = float(cell)
    except ValueError:
        expected = math.nan
    if not math.isfinite(expected):
        with pytest.raises(DataError, match=r"rejected at row 5, column b$"):
            load_csv(p)
        return
    ds = load_csv(p)
    assert ds.features.array[4].tolist() == [4.0, expected]
    assert ds.raw_labels == [f"L{r}" for r in range(9)]


@pytest.mark.parametrize("line, label", [
    ('6,"6.5",L6\n', "L6"),
    ('6,6.5,"L6"\n', "L6"),
    ('6,6.5,"L\n6"\n', "L\n6"),  # one record over two physical lines
])
def test_quoted_cells_first_seen_in_block_three(tmp_path, small_blocks, line,
                                                label):
    lines = _good_lines(12)
    lines[6] = line
    p = _write_lines(tmp_path / "quoted.csv", lines)
    ds = load_csv(p)
    assert ds.features.array.tolist() == [[r, r + 0.5] for r in range(12)]
    labels = [f"L{r}" for r in range(12)]
    labels[6] = label
    assert ds.raw_labels == labels
    lines[10] = "10,x,L10\n"
    p = _write_lines(tmp_path / "quoted.csv", lines)
    with pytest.raises(DataError, match=r"rejected at row 11, column b$"):
        load_csv(p)


def test_oversized_field_in_block_three_names_its_line(tmp_path, small_blocks):
    limit = csv.field_size_limit()
    lines = _good_lines(12)
    lines[7] = "7,7.5," + "L" * (limit + 1) + "\n"
    p = _write_lines(tmp_path / "long.csv", lines)
    with pytest.raises(DataError) as err:
        load_csv(p)
    assert str(err.value) == f"{p}:9: field larger than field limit ({limit})"
    lines[1] = '1,1.5,"L\r\n1"\r\n'  # a record of two lines ahead of it
    p = _write_lines(tmp_path / "long.csv", lines)
    with pytest.raises(DataError) as err:
        load_csv(p)
    assert str(err.value) == f"{p}:10: field larger than field limit ({limit})"
    p = _write_lines(tmp_path / "long.csv", lines, header='a,b,"la\nbel"\n')
    with pytest.raises(DataError) as err:
        load_csv(p, label_column="la\nbel")
    assert str(err.value) == f"{p}:11: field larger than field limit ({limit})"


def test_whitespace_only_line_in_a_label_only_file(tmp_path, small_blocks):
    lines = ["A\n", "B\n", "C\n", "D\n", " \t\n", "E\n", "F\n"]
    p = _write_lines(tmp_path / "labels.csv", lines, header="label\n")
    ds = load_csv(p)
    assert ds.features.shape == (7, 0)
    assert ds.raw_labels == ["A", "B", "C", "D", " \t", "E", "F"]
    lines[4] = "\n"
    p = _write_lines(tmp_path / "labels.csv", lines, header="label\n")
    with pytest.raises(DataError, match=r"field count rejected: rows 5$"):
        load_csv(p)
    with pytest.raises(DataError, match=r"rows 5$"):
        load_feature_matrix(p, ["label"])


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_crlf_and_lone_cr_files_load_bit_equal(tmp_path, small_blocks, end):
    rng = np.random.default_rng(8)
    values = rng.standard_normal((10, 2)) * 1e3
    rows = [f"{a!r},{b!r},L{r}" for r, (a, b) in enumerate(values.tolist())]
    lf = _write_lines(tmp_path / "lf.csv", [row + "\n" for row in rows])
    other = _write_lines(tmp_path / "other.csv", [row + end for row in rows],
                         header="a,b,label" + end)
    want, got = load_csv(lf), load_csv(other)
    assert got.features.array.tobytes() == want.features.array.tobytes()
    assert got.features.array.tobytes() == values.tobytes()
    assert got.raw_labels == want.raw_labels == [f"L{r}" for r in range(10)]
    last = _write_lines(tmp_path / "last.csv", [f"L{r}{end}" for r in range(7)],
                        header="label" + end)
    assert load_csv(last).raw_labels == [f"L{r}" for r in range(7)]


@pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_NONNUMERIC],
                         ids=["plain", "quoted"])
def test_byte_order_mark_is_not_part_of_the_first_field(tmp_path, small_blocks,
                                                       quoting):
    # quoted names and labels send every block through the csv module
    values = np.random.default_rng(9).standard_normal((10, 2)) * 1e3
    text = io.StringIO()
    writer = csv.writer(text, quoting=quoting, lineterminator="\n")
    writer.writerow(["f0", "f1", "label"])
    writer.writerows([a, b, f"L{r}"] for r, (a, b) in enumerate(values.tolist()))
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text.getvalue(), encoding="utf-8")
    bom.write_bytes(codecs.BOM_UTF8 + text.getvalue().encode("utf-8"))
    want, got = load_csv(str(plain)), load_csv(str(bom))
    assert got.feature_names == want.feature_names == ["f0", "f1"]
    assert got.features.array.tobytes() == want.features.array.tobytes()
    assert got.features.array.tobytes() == values.tobytes()
    assert got.raw_labels == want.raw_labels == [f"L{r}" for r in range(10)]
    first = load_csv(str(bom), label_column="f0", feature_names=["f1"])
    assert first.raw_labels == list(map(repr, values[:, 0].tolist()))


def test_feature_matrix_reorders_columns_after_plain_blocks(tmp_path,
                                                            small_blocks):
    lines = [f"{r},L{r},{r + 0.5},{-r}\n" for r in range(11)]
    lines[7] = '7,"L7",7.5,-7\n'
    p = _write_lines(tmp_path / "cols.csv", lines, header="a,label,b,c\n")
    expected = [[-r, r, r + 0.5] for r in range(11)]
    assert load_feature_matrix(p, ["c", "a", "b"]).array.tolist() == expected
    lines[7] = "7,L7,7.5,-7\n"
    p = _write_lines(tmp_path / "cols.csv", lines, header="a,label,b,c\n")
    assert load_feature_matrix(p, ["c", "a", "b"]).array.tolist() == expected


def _csv_only(*args):
    return None  # no block is plain: the csv module reads the whole file


_ODD_CHARS = '0123456789.e-+_ \t"\0\r\n#,٣१５\x1c\x85\xa0'
_LIMIT = csv.field_size_limit()
_odd_cell = st.one_of(
    st.text(alphabet=_ODD_CHARS, max_size=6),
    st.sampled_from(["nan", "-inf", "1e999", "1_0", "٣", "5#", "", " ", "\xa0",
                     '"', '""', '"1"', '"1\n2"', '"1,2"', '"L"', '"x\ny"']),
    st.sampled_from(["L" * (_LIMIT + 1), "0." + "1" * (_LIMIT - 3),
                     "0." + "1" * (_LIMIT - 1)]),
)
# Cells float and loadtxt both read, and labels with no quote or comma.
_good_cell = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([" 1.5", "2\t", "\xa03", "4\x1c", "-0", "+5", ".5",
                     "6.", "7E-3", "1e-320"]),
)
_label = st.sampled_from(["L", "M", " N", "O\x85", "\x1c", "#", "5#", '"L"'])


@st.composite
def _csv_files(draw):
    """(header, label index or None, file text): mostly well-formed rows,
    some with one odd cell, some of any shape, over mixed line endings."""
    width = draw(st.integers(1, 4))
    label_j = draw(st.one_of(st.none(), st.integers(0, width - 1)))
    header = [f"c{j}" for j in range(width)]
    if label_j is not None:
        header[label_j] = "label"
    text = ",".join(header)
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["good"] * 8 + ["one odd cell", "any"]))
        if shape == "any":
            row = draw(st.lists(st.one_of(_good_cell, _odd_cell),
                                max_size=width + 1))
        else:
            row = draw(st.lists(_good_cell, min_size=width, max_size=width))
            if label_j is not None:
                row[label_j] = draw(_label)
            if shape == "one odd cell":
                row[draw(st.integers(0, width - 1))] = draw(_odd_cell)
        text += draw(st.sampled_from(["\n", "\r\n", "\r"])) + ",".join(row)
    text += draw(st.sampled_from(["", "\n", "\r\n", "\r"]))
    return header, label_j, text


def _outcome(path, header, label_j):
    try:
        if label_j is None:
            values = load_feature_matrix(path, header[::-1]).array
            return values.tobytes(), values.shape
        ds = load_csv(path)
        return (ds.feature_names, ds.features.array.tobytes(),
                ds.features.shape, ds.raw_labels)
    except DataError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_csv_files(), st.sampled_from([2, 3]))
def test_fast_path_matches_the_csv_module(tmp_path_factory, file, block_rows):
    """Whatever the file, the loader returns the same names, float bits and
    labels, or raises the same message, as the csv module alone."""
    header, label_j, text = file
    p = tmp_path_factory.mktemp("diff") / "cells.csv"
    p.write_bytes(text.encode("utf-8"))
    with mock.patch.object(dataset, "_BLOCK_ROWS", block_rows):
        got = _outcome(str(p), header, label_j)
        with mock.patch.object(dataset, "_parse_plain", _csv_only):
            want = _outcome(str(p), header, label_j)
    assert got == want
