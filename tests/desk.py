"""The desk experiment: one owner for the run that acceptance criteria 6
and 7 judge and that tools/desk_study.py repeats over 20 seeds.

A desk run trains a tiny model on 100 synthetic records per class (10%
ambiguous, 80/20 split, so 40 validation records) for 35 epochs, predicts
the validation records and rejects at keep fraction 0.9. `desk_run`
returns one seed's measurements and verdicts as a JSON-ready dict,
`criterion_6` and `criterion_7` are the acceptance predicates on such a
dict, and `summarize` reduces a list of them as a QUAL_*.json side.

Imports only numpy and betamix, so the desk study can measure another
revision's betamix with this same file.
"""

import time

import numpy as np

from betamix import metrics as M
from betamix.betadist import hard_label
from betamix.config import RunConfig
from betamix.data import Dataset, split_dataset, synth_generate
from betamix.model import build_model, train
from betamix.predict import predict, reject_by_uncertainty

DESK_CONFIG = dict(arch_preset="tiny", batch_size=32,
                   learning_rate=5e-3, epochs=35, augment=True)
N_PER_CLASS = 100
CROP_BUDGET_S = 12.0
AMBIGUOUS_FRACTION = 0.1
TRAIN_FRACTION = 0.8
KEEP_FRACTION = 0.9

# The acceptance tests judge seeds 0..N_SEEDS-1 by majority; the desk
# study runs SEEDS.
N_SEEDS = 5
SEEDS = range(20)

# Criterion 6's validation F1 floor; a seed below it has collapsed.
MIN_F1 = 0.9
MAX_RUN_S = 300.0


def desk_dataset(seed: int) -> Dataset:
    records = synth_generate(N_PER_CLASS, crop_budget_s=CROP_BUDGET_S,
                             seed=seed, ambiguous_fraction=AMBIGUOUS_FRACTION)
    return Dataset(records, split_dataset(records, TRAIN_FRACTION, seed=seed))


def desk_run(seed: int) -> dict:
    """Train, predict and measure one seed; the dict is a QUAL_*.json
    run."""
    start = time.monotonic()
    dataset = desk_dataset(seed)
    config = RunConfig(seed=seed, **DESK_CONFIG)
    model = build_model(config.arch_preset, config.seed)
    log = train(model, dataset, config)
    preds = [predict(model, r, model.spec.input_length)
             for r in dataset.val_records()]
    elapsed = time.monotonic() - start

    all_report = M.report(M.confusion(preds))
    flagged, _ = reject_by_uncertainty(preds, KEEP_FRACTION)
    accepted_report = M.report(M.confusion(flagged, only_accepted=True))
    wrong = [p.predicted_class != hard_label(p.true_target) for p in preds]
    u_wrong = [p.summary.uncertainty for p, w in zip(preds, wrong) if w]
    u_right = [p.summary.uncertainty for p, w in zip(preds, wrong) if not w]
    run = {
        "seed": seed,
        "elapsed_s": elapsed,
        "f1": all_report.macro_f1,
        "final_val_f1": log.epochs[-1].val_macro_f1,
        "misclassified": all_report.n_misclassified,
        "accepted_f1": accepted_report.macro_f1,
        "accepted_misclassified": accepted_report.n_misclassified,
        "aurc": M.aurc(preds),
        "mean_u_misclassified": float(np.mean(u_wrong)) if u_wrong else None,
        "mean_u_correct": float(np.mean(u_right)),
    }
    run["criterion_6"] = criterion_6(run)
    run["criterion_7"] = criterion_7(run)
    return run


def criterion_6(run: dict) -> bool:
    """Validation macro F1 >= MIN_F1; at the keep fraction the accepted
    macro F1 is within 0.01 of the all-data value and strictly fewer
    accepted records are misclassified; the run took at most MAX_RUN_S.
    A seed with no misclassified record fails."""
    return (run["elapsed_s"] <= MAX_RUN_S
            and run["final_val_f1"] >= MIN_F1
            and run["accepted_f1"] >= run["f1"] - 0.01
            and run["accepted_misclassified"] < run["misclassified"])


def criterion_7(run: dict) -> bool:
    """The mean uncertainty of misclassified validation records exceeds
    that of correctly classified ones. A seed with no misclassified
    record fails."""
    return (run["mean_u_misclassified"] is not None
            and run["mean_u_misclassified"] > run["mean_u_correct"])


def summarize(runs: list[dict]) -> dict:
    """One side of a desk study: F1, AURC, collapsed (F1 < MIN_F1) and
    perfect (no misclassified record) seeds, and each criterion's passes
    over the acceptance seeds and over all seeds."""
    f1 = [r["f1"] for r in runs]
    perfect = [r["seed"] for r in runs if r["misclassified"] == 0]
    summary = {
        "mean_f1": sum(f1) / len(f1),
        "min_f1": min(f1),
        "mean_aurc": sum(r["aurc"] for r in runs) / len(runs),
        "collapsed_seeds": [r["seed"] for r in runs if r["f1"] < MIN_F1],
        "perfect_seeds": perfect,
        "misclassified": sum(r["misclassified"] for r in runs),
        "accepted_misclassified": sum(r["accepted_misclassified"] for r in runs),
    }
    for criterion in ("criterion_6", "criterion_7"):
        failed = [r["seed"] for r in runs if not r[criterion]]
        summary[criterion] = {
            "passes_seeds_0_4": sum(r[criterion] for r in runs
                                    if r["seed"] < N_SEEDS),
            "passes": len(runs) - len(failed),
            "failed_seeds": failed,
            "failed_perfect_seeds": [s for s in failed if s in perfect],
        }
    return summary
