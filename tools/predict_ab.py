"""Per-record `predict` time of this checkout against another, in one process.

    python3 tools/predict_ab.py PARENT_CHECKOUT

Run from anywhere. It imports betamix twice, from PARENT_CHECKOUT/src as
`betamix_parent` and from this checkout's `src/` as `betamix_change`, so
both trees run in one process on one heap, under one directory name each,
and the comparison does not move with the checkouts' paths. It builds one
paper-preset checkpoint (seed 1, running statistics from one train-mode
forward), loads it into each tree, and generates the same synthetic
records in each (`synth_generate(20, seed=1)`, 40 records). Then it runs
one untimed warm-up pass per tree and 30 timed pass pairs, each pass a
`predict` over every record with each record timed on its own,
alternating which tree goes first. It prints each tree's median
per-record time over all its timed passes, the median and quartiles over
the pass pairs of the ratio of the two passes' median per-record times,
change / parent (below 1 means the change is faster), and whether both
trees gave every record the same bytes: the (alpha, beta) of every crop.
The ratio is of medians, not of pass totals, because perfbench's
predict_paper op_cost_p50 is a per-record median: a pass total weights
the records with many crops, whose forward dominates it.
"""

from __future__ import annotations

import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PRESET = "paper"
N_PER_CLASS = 20
PASSES = 30
SEED = 1


def import_betamix(src: Path, name: str):
    """The betamix package under src, imported as the module `name`."""
    spec = importlib.util.spec_from_file_location(
        name, src / "betamix" / "__init__.py",
        submodule_search_locations=[str(src / "betamix")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _checkpoint(bm, preset: str, path: Path) -> None:
    """A seeded model whose batch norms hold running statistics of one
    train-mode forward, saved to path."""
    model = bm.build_model(preset, seed=SEED)
    length = model.spec.input_length
    x = np.random.default_rng(SEED).normal(size=(8, 1, length))
    model.forward(x.astype(np.float32), train=True)
    bm.save_checkpoint(model, path)


def _pass(bm, model, records) -> tuple[list[float], list[bytes]]:
    """Each record's seconds in one predict pass, and its bytes."""
    length = model.spec.input_length
    outs, seconds = [], []
    for r in records:
        t0 = time.perf_counter()
        outs.append(bm.predict(model, r, length))
        seconds.append(time.perf_counter() - t0)
    return seconds, [np.array([[c.alpha, c.beta] for c in p.components.components])
                     .tobytes() for p in outs]


def main(argv=None, *, preset: str = PRESET, n_per_class: int = N_PER_CLASS,
         passes: int = PASSES) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/predict_ab.py PARENT_CHECKOUT", file=sys.stderr)
        return 1
    sides = {"parent": import_betamix(Path(argv[0]).resolve() / "src", "betamix_parent"),
             "change": import_betamix(ROOT / "src", "betamix_change")}
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "model.bgc"
        _checkpoint(sides["change"], preset, ckpt)
        models = {k: bm.load_checkpoint(ckpt) for k, bm in sides.items()}
    records = {k: bm.synth_generate(n_per_class, seed=SEED) for k, bm in sides.items()}

    def run(side):
        return _pass(sides[side], models[side], records[side])

    outputs = {side: run(side)[1] for side in sides}
    times = {side: [] for side in sides}  # each pass's median per record
    pooled = {side: [] for side in sides}
    for i in range(passes):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            seconds, out = run(side)
            times[side].append(statistics.median(seconds))
            pooled[side].extend(seconds)
            if out != outputs[side]:
                print(f"{side}: a pass gave other bytes than its first pass")
                return 1
    ratios = [c / p for c, p in zip(times["change"], times["parent"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    same = outputs["parent"] == outputs["change"]
    print(f"{preset}, {len(records['change'])} records, {passes} pass pairs")
    for side in sides:
        print(f"{side}: {1e3 * statistics.median(pooled[side]):.4f} ms per record (median)")
    print(f"identical predictions: {'yes' if same else 'no'}")
    print(f"ratio change/parent: {statistics.median(ratios):.4f} "
          f"(quartiles {q1:.4f}-{q3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
