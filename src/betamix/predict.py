"""Full-signal prediction and uncertainty-based rejection.

A recording is oriented, cut into consecutive non-overlapping crops, and
each crop's (alpha, beta) output becomes one component of an equal-weight
beta mixture. The mixture mean is the class-probability point estimate;
four times the mixture variance is the uncertainty in [0, 1]. Rejection
keeps the most certain fraction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .betadist import (BetaMixture, BetaParams, PredictiveSummary, hard_label,
                       mixture_summary)
from .data import SignalRecord, orient_signal, pad_to_length
from .errors import NonFiniteOutputError, UsageError


@dataclass(frozen=True)
class Prediction:
    record_id: str
    summary: PredictiveSummary
    components: BetaMixture
    true_target: float | None = None
    accepted: bool | None = None

    @property
    def predicted_class(self) -> int:
        """hard_label of the mixture mean."""
        return hard_label(self.summary.mean)


def decompose_crops(samples: np.ndarray, crop_len: int) -> list[np.ndarray]:
    """Cut a record's samples into crop_len windows for mixture aggregation.

    Windows are [0,c), [c,2c), ... A trailing remainder of at least half a
    crop yields one extra window aligned to the signal end (overlapping its
    neighbor); a smaller remainder is discarded. Signals shorter than one
    crop produce a single symmetric-edge-padded window.
    """
    crop_len = int(crop_len)
    if crop_len < 1:
        raise ValueError(f"crop_len must be >= 1, got {crop_len}")
    n = samples.size
    if n < crop_len:
        return [pad_to_length(samples, crop_len)]
    k = n // crop_len
    windows = [samples[i * crop_len:(i + 1) * crop_len] for i in range(k)]
    remainder = n - k * crop_len
    if 2 * remainder >= crop_len:
        windows.append(samples[n - crop_len:n])
    return windows


def predict(model, r: SignalRecord, crop_len: int) -> Prediction:
    """Orient, decompose, forward every crop, and summarize the mixture.

    crop_len must be the model's input length (model.spec.input_length).
    The oriented samples are cut as a plain array: centring can take a
    record inside the MAX_ABS_SAMPLE bound past it, and the record is
    validated already. A non-finite network output raises
    NonFiniteOutputError naming the record.
    """
    windows = decompose_crops(orient_signal(r), crop_len)
    batch = np.stack(windows)[:, None, :]
    out = model.forward(batch, train=False)
    if not np.isfinite(out).all():
        raise NonFiniteOutputError(
            f"record {r.id!r}: the network output (alpha, beta) is not finite")
    mixture = BetaMixture(tuple(
        BetaParams(float(a), float(b)) for a, b in out))
    return Prediction(record_id=r.id, summary=mixture_summary(mixture),
                      components=mixture, true_target=r.target)


def reject_by_uncertainty(preds: list[Prediction], keep_fraction: float
                          ) -> tuple[list[Prediction], float]:
    """Accept the ceil(keep_fraction * N) most certain predictions.

    A product within a relative 1e-12 above an integer k keeps k, so a
    keep fraction of k/N keeps exactly k; float rounding can put the
    product of k/N and N just above k (0.07 * 100 is 7.000000000000001).
    The sort is stable, so ties at the cut are accepted in input order.
    Returns the flagged predictions (input order preserved) and the
    uncertainty of the least certain accepted prediction.
    """
    if not preds:
        raise ValueError("cannot reject from an empty prediction list")
    if not (0.0 < keep_fraction <= 1.0):
        raise UsageError(f"keep_fraction must lie in (0,1], got {keep_fraction}")
    n = len(preds)
    keep = math.ceil(keep_fraction * n * (1.0 - 1e-12))
    order = sorted(range(n), key=lambda i: preds[i].summary.uncertainty)
    accepted_idx = set(order[:keep])
    threshold = preds[order[keep - 1]].summary.uncertainty
    flagged = [replace(p, accepted=(i in accepted_idx))
               for i, p in enumerate(preds)]
    return flagged, threshold


def prediction_json_line(p: Prediction) -> str:
    """One prediction as a JSON object (stable key order, f64 decimals)."""
    obj = {
        "id": p.record_id,
        "mean": p.summary.mean,
        "variance": p.summary.variance,
        "uncertainty": p.summary.uncertainty,
        "class": p.predicted_class,
        "accepted": p.accepted,
        "components": [[c.alpha, c.beta] for c in p.components.components],
    }
    return json.dumps(obj)


def write_predictions(preds: list[Prediction], path) -> None:
    with open(path, "w") as fh:
        for p in preds:
            fh.write(prediction_json_line(p))
            fh.write("\n")
