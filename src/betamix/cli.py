"""Command-line entry point.

Subcommands wire the library end to end: `synth` writes a synthetic
dataset, `train` fits a model and saves a checkpoint, `predict` emits
JSON-lines predictions, `eval` reports metrics with and without
uncertainty rejection plus the area under the risk-coverage curve and the
AUROC of uncertainty for wrong versus right predictions, and `density`
exports a predictive-density grid for external plotting.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal
invariant failure. Every command is deterministic given its inputs and
seed; repeated runs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import metrics as metrics_mod
from .config import parse_config
from .data import load_dataset, split_dataset, synth_generate, write_dataset
from .errors import DataError, InternalError, NonFiniteOutputError, UsageError
from .model import build_model, load_checkpoint, save_checkpoint, train
from .predict import predict, reject_by_uncertainty, write_predictions
from .betadist import mixture_density_grid

DENSITY_GRID_EPS = 1e-4
# The grid is built point by point in Python, 5-10 us a point per mixture
# component, so the bound keeps a run of a paper model (up to 9 crops, so
# 9 components) to a few seconds.
DENSITY_MAX_POINTS = 100_001
# beta_log_pdf subtracts terms that grow with the concentration, so its
# rounding error does too. Against mpmath at alpha = beta, over t within
# three standard deviations of 0.5, its density was off by at most 4.0e-4
# relative at 1e12, 3.3e-2 at 1e14 and 6.9 at 1e16; at 1e18 the peak read
# 1.0 against 1.1e9. The desk model of seed 0 (tests/desk.py) gives at
# most 94 for alpha + beta over its 200 records.
DENSITY_MAX_CONCENTRATION = 1e12


def cmd_synth(args) -> int:
    records = synth_generate(args.n_per_class, seed=args.seed,
                             ambiguous_fraction=args.ambiguous_fraction)
    manifest = split_dataset(records, 0.8, args.seed)
    write_dataset(records, manifest, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = parse_config(args.config)
    dataset = load_dataset(Path(args.data) / "manifest.csv")
    model = build_model(config.arch_preset, config.seed)
    log = train(model, dataset, config)
    out = Path(args.out)
    save_checkpoint(model, out, config_echo=asdict(config))
    with open(out.with_suffix(out.suffix + ".train_log.json"), "w") as fh:
        json.dump(asdict(log), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if log.epochs:
        last = log.epochs[-1]
        print(f"trained {len(log.epochs)} epochs, final loss {last.train_loss:.6f}, "
              f"val macro F1 {last.val_macro_f1}")
    else:
        print("wrote checkpoint of the initialized model (epochs=0)")
    return 0


def _load_records(data_dir, ids=None):
    dataset = load_dataset(Path(data_dir) / "manifest.csv")
    if ids is None:
        return dataset, dataset.records
    by_id = {r.id: r for r in dataset.records}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise DataError(f"record ids not in manifest: {missing}")
    return dataset, [by_id[i] for i in ids]


def _predict_records(model, records):
    """Predict each record with a loaded checkpoint. Records are bounded,
    so a non-finite network output comes from the checkpoint's weights:
    it is a data error naming the record."""
    crop_len = model.spec.input_length
    try:
        return [predict(model, r, crop_len) for r in records]
    except NonFiniteOutputError as exc:
        raise DataError(f"{exc}; the checkpoint's weights overflow the "
                        f"network") from exc


def cmd_predict(args) -> int:
    model = load_checkpoint(args.model)
    _, records = _load_records(args.data, args.ids)
    preds = _predict_records(model, records)
    write_predictions(preds, args.out)
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def cmd_eval(args) -> int:
    if not (0.0 < args.keep_fraction <= 1.0):
        raise UsageError(
            f"--keep-fraction must lie in (0,1], got {args.keep_fraction}")
    model = load_checkpoint(args.model)
    dataset, _ = _load_records(args.data)
    val_records = dataset.val_records()
    if not val_records:
        raise UsageError("dataset has no validation split to evaluate")
    preds = _predict_records(model, val_records)
    all_report = metrics_mod.report(metrics_mod.confusion(preds))
    flagged, threshold = reject_by_uncertainty(preds, args.keep_fraction)
    accepted_report = metrics_mod.report(
        metrics_mod.confusion(flagged, only_accepted=True))
    with open(args.out, "w") as fh:
        fh.write("subset,class,precision,recall,f1\n")
        for subset, rep in (("all", all_report), ("accepted", accepted_report)):
            for name, m in (("A", rep.class_a), ("NO", rep.class_no)):
                fh.write(f"{subset},{name},{m.precision!r},{m.recall!r},"
                         f"{m.f1!r}\n")
            fh.write(f"{subset},Overall,{rep.macro_precision!r},"
                     f"{rep.macro_recall!r},{rep.macro_f1!r}\n")
        fh.write(f"uncertainty_threshold,{threshold!r}\n")
        fh.write(f"n_all,{all_report.n_evaluated}\n")
        fh.write(f"n_accepted,{accepted_report.n_evaluated}\n")
        fh.write(f"misclassified_all,{all_report.n_misclassified}\n")
        fh.write(f"misclassified_accepted,{accepted_report.n_misclassified}\n")
        fh.write(f"aurc,{metrics_mod.aurc(preds)!r}\n")
        fh.write(f"auroc_uncertainty,{metrics_mod.auroc_uncertainty(preds)!r}\n")
    print(f"macro F1 all={all_report.macro_f1:.4f} "
          f"accepted={accepted_report.macro_f1:.4f} "
          f"misclassified {all_report.n_misclassified}->"
          f"{accepted_report.n_misclassified}")
    return 0


def cmd_density(args) -> int:
    if not 2 <= args.points <= DENSITY_MAX_POINTS:
        raise UsageError(f"--points must lie in [2, {DENSITY_MAX_POINTS}], "
                         f"got {args.points}")
    model = load_checkpoint(args.model)
    _, records = _load_records(args.data, [args.id])
    (pred,) = _predict_records(model, records)
    try:
        grid = mixture_density_grid(pred.components, args.points,
                                    DENSITY_GRID_EPS)
    except OverflowError as exc:
        # A trained model's density peaks far below the float range; a
        # log density this large is the rounding of an absurd (alpha,
        # beta), which only the checkpoint's weights can produce.
        raise DataError(f"record {args.id!r}: the predictive density "
                        f"overflows; the checkpoint's weights overflow the "
                        f"network") from exc
    if any(max(c.alpha, c.beta) > DENSITY_MAX_CONCENTRATION
           for c in pred.components.components):
        raise DataError(f"record {args.id!r}: a component's alpha or beta "
                        f"exceeds {DENSITY_MAX_CONCENTRATION:g}, where the "
                        f"density is rounding noise; the checkpoint's "
                        f"weights are not a trained model's")
    with open(args.out, "w") as fh:
        fh.write("t,pdf\n")
        for t, pdf in grid:
            fh.write(f"{t!r},{pdf!r}\n")
    print(f"wrote {len(grid)} density points for {args.id} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betamix",
        description="Beta-mixture predictive uncertainty for 1-D signals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic two-class dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--n-per-class", type=int, required=True,
                   help="number of records per class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ambiguous-fraction", type=float, default=0.0,
                   help="fraction of each class generated at an intermediate "
                        "morphology (borderline records)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="emit JSON-lines predictions")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--ids", nargs="+", default=None,
                   help="restrict to these record ids")
    p.add_argument("--out", required=True, help="output JSON-lines file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluate the validation split with rejection")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--keep-fraction", type=float, default=0.9)
    p.add_argument("--out", required=True, help="output CSV report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("density", help="export a predictive-density grid")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--id", required=True, help="record id")
    p.add_argument("--points", type=int, default=2001,
                   help=f"grid points, 2 to {DENSITY_MAX_POINTS} "
                        f"(default 2001)")
    p.add_argument("--out", required=True, help="output CSV grid")
    p.set_defaults(func=cmd_density)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems; fold the
        # latter into our usage-error code.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        # Every input file opens through data.open_input and the config
        # file through parse_config, both of which raise their own errors,
        # so an OSError here is an output that could not be written; its
        # text names the path.
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, ValueError, FloatingPointError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
