"""Classification quality metrics with the AF class (1) as positive.

Per-class precision/recall/F1 for both classes, macro averages, counting
restricted to accepted predictions, coverage-versus-quality curves, and
the area under the risk-coverage curve.
Any 0/0 ratio is defined as 0 and flagged as degenerate rather than
raising, so sweeps over tiny accepted subsets stay total.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betadist import hard_label
from .errors import UsageError
from .predict import Prediction, reject_by_uncertainty


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    degenerate: bool


@dataclass(frozen=True)
class MetricsReport:
    class_a: ClassMetrics
    class_no: ClassMetrics
    macro_precision: float
    macro_recall: float
    macro_f1: float
    n_evaluated: int
    n_misclassified: int


def confusion(preds: list[Prediction], only_accepted: bool = False
              ) -> ConfusionCounts:
    """Count the 2x2 table, binarizing soft true targets with hard_label."""
    tp = fp = fn = tn = 0
    for p in preds:
        if only_accepted and not p.accepted:
            continue
        if p.true_target is None:
            raise UsageError(
                f"prediction for {p.record_id!r} has no true target to evaluate"
            )
        truth = hard_label(p.true_target)
        if p.predicted_class == 1:
            if truth == 1:
                tp += 1
            else:
                fp += 1
        else:
            if truth == 1:
                fn += 1
            else:
                tn += 1
    return ConfusionCounts(tp, fp, fn, tn)


def _prf(tp: int, fp: int, fn: int) -> ClassMetrics:
    degenerate = False
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, degenerate = 0.0, True
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, degenerate = 0.0, True
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1, degenerate = 0.0, True
    return ClassMetrics(precision, recall, f1, degenerate)


def report(c: ConfusionCounts) -> MetricsReport:
    """Per-class and macro-averaged precision/recall/F1.

    The NO class mirrors the table with 0 as the positive label; macro
    values are unweighted means over the two classes.
    """
    class_a = _prf(c.tp, c.fp, c.fn)
    class_no = _prf(c.tn, c.fn, c.fp)
    return MetricsReport(
        class_a=class_a,
        class_no=class_no,
        macro_precision=(class_a.precision + class_no.precision) / 2.0,
        macro_recall=(class_a.recall + class_no.recall) / 2.0,
        macro_f1=(class_a.f1 + class_no.f1) / 2.0,
        n_evaluated=c.total,
        n_misclassified=c.fp + c.fn,
    )


def coverage_curve(preds: list[Prediction], fractions: list[float]
                   ) -> list[tuple[float, MetricsReport]]:
    """Metrics after keeping each given fraction of most-certain predictions."""
    out = []
    for fraction in fractions:
        if not (0.0 < fraction <= 1.0):
            raise UsageError(f"keep fraction must lie in (0,1], got {fraction}")
        flagged, _ = reject_by_uncertainty(preds, fraction)
        out.append((fraction, report(confusion(flagged, only_accepted=True))))
    return out


def aurc(preds: list[Prediction]) -> float:
    """Area under the risk-coverage curve (Geifman & El-Yaniv 2017).

    The mean over k = 1..N of the error rate among the k most certain
    predictions. Ties in uncertainty keep input order, as in
    reject_by_uncertainty. Lower is better; 0 means no error at any
    coverage.
    """
    if not preds:
        raise ValueError("cannot compute AURC of an empty prediction list")
    order = sorted(range(len(preds)), key=lambda i: preds[i].summary.uncertainty)
    errors = 0
    risk_sum = 0.0
    for k, i in enumerate(order, start=1):
        p = preds[i]
        if p.true_target is None:
            raise UsageError(
                f"prediction for {p.record_id!r} has no true target to evaluate"
            )
        errors += p.predicted_class != hard_label(p.true_target)
        risk_sum += errors / k
    return risk_sum / len(preds)


def report_csv_rows(rep: MetricsReport) -> list[list[str]]:
    """A/NO/Overall rows in the export layout."""
    def fmt(x: float) -> str:
        return repr(float(x))

    return [
        ["A", fmt(rep.class_a.precision), fmt(rep.class_a.recall),
         fmt(rep.class_a.f1)],
        ["NO", fmt(rep.class_no.precision), fmt(rep.class_no.recall),
         fmt(rep.class_no.f1)],
        ["Overall", fmt(rep.macro_precision), fmt(rep.macro_recall),
         fmt(rep.macro_f1)],
    ]
