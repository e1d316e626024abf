"""Classification quality metrics with the AF class (1) as positive.

Per-class precision/recall/F1 for both classes, macro averages, counting
restricted to accepted predictions, coverage-versus-quality curves, the
area under the risk-coverage curve, and the AUROC of uncertainty as a
detector of wrong predictions.
Any 0/0 ratio is defined as 0 rather than raising, so sweeps over tiny
accepted subsets stay total.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
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
    cells = Counter((p.predicted_class, _truth(p)) for p in preds
                    if p.accepted or not only_accepted)
    return ConfusionCounts(tp=cells[1, 1], fp=cells[1, 0], fn=cells[0, 1],
                           tn=cells[0, 0])


def _truth(p: Prediction) -> int:
    """The class of p's true target; a prediction without one cannot be
    scored."""
    if p.true_target is None:
        raise UsageError(
            f"prediction for {p.record_id!r} has no true target to evaluate")
    return hard_label(p.true_target)


def _prf(tp: int, fp: int, fn: int) -> ClassMetrics:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return ClassMetrics(precision, recall, f1)


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
        errors += _is_wrong(preds[i])
        risk_sum += errors / k
    return risk_sum / len(preds)


def auroc_uncertainty(preds: list[Prediction]) -> float:
    """AUROC of uncertainty as a score for wrong versus right predictions
    (Hendrycks & Gimpel 2017): the chance that a wrong prediction is more
    uncertain than a right one, a tie counting 1/2. 1 means uncertainty
    ranks every error above every right answer, 0.5 is chance. nan when
    every prediction is right or every one is wrong."""
    scored = sorted((p.summary.uncertainty, _is_wrong(p)) for p in preds)
    n_wrong = sum(wrong for _, wrong in scored)
    n_right = len(scored) - n_wrong
    if n_wrong == 0 or n_right == 0:
        return math.nan
    # Walk the uncertainty levels upwards: each wrong prediction beats the
    # right ones below its level and ties with the right ones at it.
    wins = 0.0
    right_below = 0
    for _, level in itertools.groupby(scored, key=lambda pair: pair[0]):
        wrong = [w for _, w in level]
        n_level_wrong = sum(wrong)
        n_level_right = len(wrong) - n_level_wrong
        wins += n_level_wrong * (right_below + 0.5 * n_level_right)
        right_below += n_level_right
    return wins / (n_wrong * n_right)


def _is_wrong(p: Prediction) -> bool:
    return p.predicted_class != _truth(p)
