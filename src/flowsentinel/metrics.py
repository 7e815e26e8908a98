"""Confusion matrix and the accuracy / precision / recall / F1 report.

Rows of the confusion matrix are true classes, columns are predictions.
Undefined ratios (0/0) are reported as 0 and flagged rather than raising,
so subsampled runs with absent classes still produce a report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import DataError


@dataclass
class ClassMetrics:
    name: str
    precision: float
    recall: float
    f1: float
    support: int
    degenerate: bool  # True if precision or recall hit the 0/0 -> 0 rule


@dataclass
class Averages:
    precision: float
    recall: float
    f1: float


@dataclass
class EvalReport:
    class_names: list[str]
    confusion: np.ndarray  # (C, C) int64, rows = true, columns = predicted
    accuracy: float
    per_class: list[ClassMetrics]
    macro: Averages
    weighted: Averages
    total: int

    def to_dict(self) -> dict:
        return {**asdict(self), "confusion": self.confusion.tolist()}

    def to_text(self) -> str:
        name_w = max([len("weighted")] + [len(n) for n in self.class_names])
        lines = [
            f"samples: {self.total}",
            f"accuracy: {self.accuracy:.6f}",
            "",
            f"{'class':<{name_w}}  {'precision':>9}  {'recall':>9}  "
            f"{'f1':>9}  {'support':>8}",
        ]
        for c in self.per_class:
            flag = " *" if c.degenerate else ""
            lines.append(
                f"{c.name:<{name_w}}  {c.precision:>9.6f}  {c.recall:>9.6f}  "
                f"{c.f1:>9.6f}  {c.support:>8d}{flag}"
            )
        for label, avg in (("macro", self.macro), ("weighted", self.weighted)):
            lines.append(
                f"{label:<{name_w}}  {avg.precision:>9.6f}  {avg.recall:>9.6f}  "
                f"{avg.f1:>9.6f}  {self.total:>8d}"
            )
        if any(c.degenerate for c in self.per_class):
            lines.append("(* precision/recall involved a 0/0, reported as 0)")
        lines.append("")
        lines.append("confusion matrix (rows = true, columns = predicted):")
        cell_w = max(
            [len(str(int(self.confusion.max()))) if self.total else 1]
            + [len(n) for n in self.class_names]
        )
        header = " " * name_w + "  " + "  ".join(
            f"{n:>{cell_w}}" for n in self.class_names
        )
        lines.append(header)
        for i, n in enumerate(self.class_names):
            row = "  ".join(f"{v:>{cell_w}d}" for v in self.confusion[i])
            lines.append(f"{n:<{name_w}}  {row}")
        return "\n".join(lines)


def confusion_matrix(
    true_idx: Sequence[int], pred_idx: Sequence[int], num_classes: int
) -> np.ndarray:
    if len(true_idx) != len(pred_idx):
        raise DataError(f"{len(true_idx)} true labels vs {len(pred_idx)} predictions")
    t = np.asarray(true_idx, dtype=np.int64).reshape(-1)
    p = np.asarray(pred_idx, dtype=np.int64).reshape(-1)
    if t.size and (
        t.min() < 0 or t.max() >= num_classes or p.min() < 0 or p.max() >= num_classes
    ):
        raise DataError(f"class index out of range [0, {num_classes})")
    m = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(m, (t, p), 1)
    return m


def _ratio(num: float, den: float) -> tuple[float, bool]:
    if den == 0:
        return 0.0, True
    return num / den, False


def classification_report(
    confusion: np.ndarray, class_names: Sequence[str]
) -> EvalReport:
    confusion = np.asarray(confusion, dtype=np.int64)
    c = len(class_names)
    if confusion.shape != (c, c):
        raise DataError(
            f"confusion matrix {confusion.shape} does not match "
            f"{c} class names"
        )
    if confusion.size and confusion.min() < 0:
        raise DataError("confusion matrix entries must be non-negative")
    total = int(confusion.sum())
    col_sums = confusion.sum(axis=0)
    row_sums = confusion.sum(axis=1)
    per_class = []
    for i, name in enumerate(class_names):
        tp = int(confusion[i, i])
        precision, p_deg = _ratio(tp, int(col_sums[i]))
        recall, r_deg = _ratio(tp, int(row_sums[i]))
        f1 = 0.0
        if precision + recall > 0:
            f1 = 2.0 * precision * recall / (precision + recall)
        per_class.append(
            ClassMetrics(
                name=name,
                precision=precision,
                recall=recall,
                f1=f1,
                support=int(row_sums[i]),
                degenerate=p_deg or r_deg,
            )
        )
    count = len(per_class) or 1  # an empty report averages to 0.0
    macro = Averages(
        precision=_fold(m.precision for m in per_class) / count,
        recall=_fold(m.recall for m in per_class) / count,
        f1=_fold(m.f1 for m in per_class) / count,
    )
    if total:
        weights = [m.support / total for m in per_class]
        weighted = Averages(
            precision=_fold(w * m.precision for w, m in zip(weights, per_class)),
            recall=_fold(w * m.recall for w, m in zip(weights, per_class)),
            f1=_fold(w * m.f1 for w, m in zip(weights, per_class)),
        )
        accuracy = float(np.trace(confusion)) / total
    else:
        weighted = Averages(0.0, 0.0, 0.0)
        accuracy = 0.0
    return EvalReport(
        class_names=list(class_names),
        confusion=confusion,
        accuracy=accuracy,
        per_class=per_class,
        macro=macro,
        weighted=weighted,
        total=total,
    )


def _fold(terms) -> float:
    """The terms added left to right from 0.0. From Python 3.12 on, the
    built-in sum() of floats is compensated, which changes the last bits of
    a report between interpreters; this fold gives the same bits on each."""
    total = 0.0
    for term in terms:
        total += term
    return total
