"""Desk study: the acceptance desk configuration over seeds 0-19, run for
a parent revision and for the working tree, written to one QUAL_*.json.

    python3 tools/desk_study.py --parent HEAD --out QUAL_16.json \\
        --what "one line on the change"

Run from the repository root. The parent's `src/` is taken from git with
`git archive` into a temporary directory; the change is this checkout's
`src/`. Each side runs in its own process with that `src/` first on the
path, and the same code below measures both.

Every seed repeats the desk run of tests/test_acceptance.py: a tiny model
trained on 100 synthetic records per class (10% ambiguous, 80/20 split,
so 40 validation records) for 35 epochs, then predicted and rejected at
keep fraction 0.9. Per seed the file holds the validation macro F1, the
misclassified counts before and after rejection, the AURC, and the
criterion 6 and 7 verdicts computed as the acceptance tests compute them. Per side it holds the mean
and minimum F1, the mean AURC, the collapsed seeds (F1 below 0.9) and the
pass counts of criteria 6 and 7, over the acceptance seeds 0-4 and over
all seeds. Both criteria score a seed with no misclassified record as a
failure, so such perfect seeds are listed apart. The script only reports;
it changes no criterion. A side takes about 4 s a seed on a 2-core host.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The acceptance tests' desk configuration (tests/test_acceptance.py).
DESK_CONFIG = dict(arch_preset="tiny", batch_size=32, learning_rate=5e-3,
                   epochs=35, augment=True)
N_PER_CLASS = 100
CROP_BUDGET_S = 12.0
AMBIGUOUS_FRACTION = 0.1
TRAIN_FRACTION = 0.8
KEEP_FRACTION = 0.9
SEEDS = range(20)
ACCEPTANCE_SEEDS = range(5)
COLLAPSE_F1 = 0.9


def desk_run(seed: int) -> dict:
    """One seed's desk run, measured with the betamix on the path."""
    import numpy as np

    from betamix import metrics as M
    from betamix.config import RunConfig
    from betamix.data import Dataset, split_dataset, synth_generate
    from betamix.model import build_model, train
    from betamix.predict import predict, reject_by_uncertainty

    start = time.monotonic()
    records = synth_generate(N_PER_CLASS, crop_budget_s=CROP_BUDGET_S,
                             seed=seed, ambiguous_fraction=AMBIGUOUS_FRACTION)
    dataset = Dataset(records, split_dataset(records, TRAIN_FRACTION, seed=seed))
    config = RunConfig(seed=seed, **DESK_CONFIG).validate()
    model = build_model("tiny", config.seed)
    log = train(model, dataset, config)
    preds = [predict(model, r, model.spec.input_length)
             for r in dataset.val_records()]
    elapsed = time.monotonic() - start

    all_report = M.report(M.confusion(preds))
    flagged, _ = reject_by_uncertainty(preds, KEEP_FRACTION)
    accepted_report = M.report(M.confusion(flagged, only_accepted=True))
    wrong = [p.predicted_class != (1 if p.true_target >= 0.5 else 0)
             for p in preds]
    u_wrong = [p.summary.uncertainty for p, w in zip(preds, wrong) if w]
    u_right = [p.summary.uncertainty for p, w in zip(preds, wrong) if not w]
    mean_u_wrong = float(np.mean(u_wrong)) if u_wrong else None
    mean_u_right = float(np.mean(u_right))
    final_val_f1 = log.epochs[-1].val_macro_f1
    return {
        "seed": seed,
        "elapsed_s": elapsed,
        "f1": all_report.macro_f1,
        "final_val_f1": final_val_f1,
        "misclassified": all_report.n_misclassified,
        "accepted_f1": accepted_report.macro_f1,
        "accepted_misclassified": accepted_report.n_misclassified,
        "aurc": M.aurc(preds),
        "mean_u_misclassified": mean_u_wrong,
        "mean_u_correct": mean_u_right,
        # The predicates of test_criterion_06 and test_criterion_07.
        "criterion_6": (elapsed <= 300.0 and final_val_f1 >= 0.9
                        and accepted_report.macro_f1 >= all_report.macro_f1 - 0.01
                        and accepted_report.n_misclassified
                        < all_report.n_misclassified),
        "criterion_7": mean_u_wrong is not None and mean_u_wrong > mean_u_right,
    }


def summarize(runs: list[dict]) -> dict:
    f1 = [r["f1"] for r in runs]
    perfect = [r["seed"] for r in runs if r["misclassified"] == 0]
    summary = {
        "mean_f1": sum(f1) / len(f1),
        "min_f1": min(f1),
        "mean_aurc": sum(r["aurc"] for r in runs) / len(runs),
        "collapsed_seeds": [r["seed"] for r in runs if r["f1"] < COLLAPSE_F1],
        "perfect_seeds": perfect,
        "misclassified": sum(r["misclassified"] for r in runs),
        "accepted_misclassified": sum(r["accepted_misclassified"] for r in runs),
    }
    for criterion in ("criterion_6", "criterion_7"):
        failed = [r["seed"] for r in runs if not r[criterion]]
        summary[criterion] = {
            "passes_seeds_0_4": sum(r[criterion] for r in runs
                                    if r["seed"] in ACCEPTANCE_SEEDS),
            "passes": len(runs) - len(failed),
            "failed_seeds": failed,
            "failed_perfect_seeds": [s for s in failed if s in perfect],
        }
    return summary


def run_side(src: Path) -> list[dict]:
    """The desk runs of every seed in a process importing betamix from
    src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--side"],
        env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def extract_src(rev: str, dest: Path) -> Path:
    """Write rev's src/ tree into dest and return its path."""
    blob = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                          cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def git_rev(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def host_facts() -> dict:
    import numpy as np
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision of the parent side")
    parser.add_argument("--out", type=Path, help="the QUAL_*.json to write")
    parser.add_argument("--what", default="", help="one line on the change")
    parser.add_argument("--side", action="store_true",
                        help="internal: run one side with the betamix on the "
                             "path and print its runs as one JSON line")
    args = parser.parse_args(argv)
    if args.side:
        print(json.dumps([desk_run(seed) for seed in SEEDS]))
        return 0
    if not args.parent or not args.out:
        parser.error("--parent and --out are required")

    parent_rev = git_rev(args.parent)
    with tempfile.TemporaryDirectory() as tmp:
        parent_runs = run_side(extract_src(parent_rev, Path(tmp)))
    change_runs = run_side(ROOT / "src")
    record = {
        "what": args.what,
        "command": (f"python3 tools/desk_study.py --parent {args.parent} "
                    f"--out {args.out.name}"),
        "config": {**DESK_CONFIG, "n_per_class": N_PER_CLASS,
                   "crop_budget_s": CROP_BUDGET_S,
                   "ambiguous_fraction": AMBIGUOUS_FRACTION,
                   "train_fraction": TRAIN_FRACTION,
                   "keep_fraction": KEEP_FRACTION},
        "seeds": list(SEEDS),
        "statistics": ("per side: mean and min of the per-seed validation "
                       "macro F1, mean AURC, seeds with F1 below "
                       f"{COLLAPSE_F1} (collapsed), seeds with no "
                       "misclassified record (perfect), and the criterion 6 "
                       "and 7 pass counts over seeds 0-4 and over all seeds"),
        "host": host_facts(),
        "parent": {"rev": parent_rev, "summary": summarize(parent_runs),
                   "runs": parent_runs},
        "change": {"rev": "working tree", "summary": summarize(change_runs),
                   "runs": change_runs},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for side in ("parent", "change"):
        s = record[side]["summary"]
        print(f"{side}: mean F1 {s['mean_f1']:.3f}, min F1 {s['min_f1']:.3f}, "
              f"mean AURC {s['mean_aurc']:.4f}, collapsed {s['collapsed_seeds']}, "
              f"perfect {s['perfect_seeds']}, c6 "
              f"{s['criterion_6']['passes_seeds_0_4']}/5 "
              f"({s['criterion_6']['passes']}/{len(SEEDS)}), c7 "
              f"{s['criterion_7']['passes_seeds_0_4']}/5 "
              f"({s['criterion_7']['passes']}/{len(SEEDS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
