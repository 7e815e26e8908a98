import json

import numpy as np
import pytest

from flowsentinel.errors import DataError
from flowsentinel.metrics import classification_report, confusion_matrix


def test_confusion_matrix_hand_counted():
    m = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
    assert m.tolist() == [[1, 1], [0, 2]]


def test_confusion_matrix_perfect_predictions():
    m = confusion_matrix([0, 1, 1, 2], [0, 1, 1, 2], 3)
    assert m.tolist() == [[1, 0, 0], [0, 2, 0], [0, 0, 1]]


def test_confusion_matrix_empty():
    assert confusion_matrix([], [], 2).tolist() == [[0, 0], [0, 0]]


def test_confusion_matrix_validation():
    with pytest.raises(DataError, match="2 true labels vs 1 predictions"):
        confusion_matrix([0, 1], [0], 2)
    with pytest.raises(DataError, match=r"class index out of range \[0, 2\)"):
        confusion_matrix([0, 2], [0, 1], 2)


def test_report_hand_example():
    m = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
    report = classification_report(m, ["neg", "pos"])
    assert report.accuracy == 0.75
    c0, c1 = report.per_class
    assert c0.precision == 1.0 and c0.recall == 0.5
    assert abs(c0.f1 - 2 / 3) < 1e-12
    assert abs(c1.precision - 2 / 3) < 1e-12 and c1.recall == 1.0
    assert abs(c1.f1 - 0.8) < 1e-12
    assert abs(report.macro.f1 - (2 / 3 + 0.8) / 2) < 1e-12
    assert c0.support == 2 and c1.support == 2
    assert report.total == 4


def test_report_perfect_diagonal():
    report = classification_report(np.diag([3, 4, 5]), ["a", "b", "c"])
    assert report.accuracy == 1.0
    for c in report.per_class:
        assert c.precision == c.recall == c.f1 == 1.0
    assert report.macro.f1 == 1.0 and report.weighted.f1 == 1.0


def test_report_degenerate_class_zero_rule():
    # class "c" never appears as truth or prediction: P = R = F1 = 0, flagged.
    m = np.array([[2, 0, 0], [0, 3, 0], [0, 0, 0]])
    report = classification_report(m, ["a", "b", "c"])
    c = report.per_class[2]
    assert c.precision == c.recall == c.f1 == 0.0
    assert c.degenerate
    assert not report.per_class[0].degenerate


def test_report_non_square():
    with pytest.raises(DataError,
                       match=r"confusion matrix \(2, 3\) does not match 2 class names"):
        classification_report(np.zeros((2, 3), dtype=int), ["a", "b"])
    with pytest.raises(DataError,
                       match=r"confusion matrix \(2, 2\) does not match 3 class names"):
        classification_report(np.zeros((2, 2), dtype=int), ["a", "b", "c"])


def test_report_rejects_negative_counts():
    with pytest.raises(DataError,
                       match="confusion matrix entries must be non-negative"):
        classification_report(np.array([[1, -1], [0, 2]]), ["a", "b"])


def test_metric_bounds_and_f1_between_p_and_r():
    rng = np.random.default_rng(17)
    for _ in range(30):
        c = int(rng.integers(2, 6))
        m = rng.integers(0, 20, size=(c, c))
        report = classification_report(m, [f"k{i}" for i in range(c)])
        assert 0.0 <= report.accuracy <= 1.0
        for cm in report.per_class:
            for v in (cm.precision, cm.recall, cm.f1):
                assert 0.0 <= v <= 1.0
            if cm.precision > 0 and cm.recall > 0:
                assert min(cm.precision, cm.recall) - 1e-12 <= cm.f1
                assert cm.f1 <= max(cm.precision, cm.recall) + 1e-12


def test_permuting_classes_permutes_per_class_only():
    rng = np.random.default_rng(18)
    m = rng.integers(0, 15, size=(4, 4))
    names = ["a", "b", "c", "d"]
    base = classification_report(m, names)
    perm = [2, 0, 3, 1]
    m2 = m[np.ix_(perm, perm)]
    permuted = classification_report(m2, [names[i] for i in perm])
    assert permuted.accuracy == base.accuracy
    assert abs(permuted.macro.f1 - base.macro.f1) < 1e-12
    assert abs(permuted.macro.precision - base.macro.precision) < 1e-12
    by_name = {c.name: c for c in base.per_class}
    for c in permuted.per_class:
        assert c.precision == by_name[c.name].precision
        assert c.recall == by_name[c.name].recall


def test_binary_accuracy_matches_tp_tn_over_total():
    rng = np.random.default_rng(19)
    true = list(rng.integers(0, 2, size=200))
    pred = list(rng.integers(0, 2, size=200))
    m = confusion_matrix(true, pred, 2)
    report = classification_report(m, ["neg", "pos"])
    tp = sum(1 for t, p in zip(true, pred) if t == p == 1)
    tn = sum(1 for t, p in zip(true, pred) if t == p == 0)
    assert report.accuracy == (tp + tn) / 200


def test_report_serializes_to_text_and_dict():
    m = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
    report = classification_report(m, ["neg", "pos"])
    d = report.to_dict()
    json.dumps(d)  # must be plain JSON types
    assert d["confusion"] == [[1, 1], [0, 2]]
    assert d["accuracy"] == 0.75
    assert d["per_class"][0]["name"] == "neg"
    assert "macro" in d and "weighted" in d
    text = report.to_text()
    assert "accuracy: 0.750000" in text
    assert "neg" in text and "pos" in text
    assert "confusion matrix" in text


def _neumaier(values, start=0):
    """Compensated summation, as the built-in sum() of floats does from
    Python 3.12 on."""
    total, compensation = float(start), 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


def test_report_averages_are_a_left_fold_on_every_python(monkeypatch):
    import flowsentinel.metrics as metrics

    confusion = np.array([[40, 0, 0], [4, 36, 0], [8, 12, 20]])
    names = ["a", "b", "c"]
    per_class = classification_report(confusion, names).per_class
    f1_terms = [m.support / 120 * m.f1 for m in per_class]
    assert _neumaier(f1_terms) == 0.7848045674132631  # the compensated bits

    monkeypatch.setattr(metrics, "sum", _neumaier, raising=False)
    report = classification_report(confusion, names)
    assert report.weighted.f1 == 0.784804567413263
    for key in ("precision", "recall", "f1"):
        a, b, c = (getattr(m, key) for m in report.per_class)
        wa, wb, wc = (m.support / 120 for m in report.per_class)
        assert getattr(report.weighted, key) == ((0.0 + wa * a) + wb * b) + wc * c
        assert getattr(report.macro, key) == ((0.0 + a) + b + c) / 3
