"""Desk study: the acceptance tests' own desk run over seeds 0-19, for a
parent revision and for the working tree, written to one QUAL_*.json.

    python3 tools/desk_study.py --parent HEAD --out QUAL_16.json \\
        --what "one line on the change"

Run from the repository root. The parent's `src/` is taken from git with
`git archive` into a temporary directory; the change is this checkout's
`src/`. Each side runs in its own process with that `src/` and this
checkout's `tests/` on PYTHONPATH, so one `tests/desk.py` (the module
behind acceptance criteria 6 and 7) trains, measures and judges both
sides; this script only runs it and writes the record.

Per seed the file holds what `desk.desk_run` returns: the validation
macro F1, the misclassified counts before and after rejection, the AURC,
the mean uncertainties and the criterion 6 and 7 verdicts. Per side it
holds `desk.summarize` of those runs: the mean and minimum F1, the mean
AURC, the collapsed seeds (F1 below 0.9), the perfect seeds (none
misclassified, which both criteria score as failures) and the pass counts
of criteria 6 and 7 over the acceptance seeds 0-4 and over all seeds. The
script only reports; it changes no criterion. A side takes about 4 s a
seed on a 2-core host.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import desk  # noqa: E402

SIDE = ("import json, desk; "
        "print(json.dumps([desk.desk_run(seed) for seed in desk.SEEDS]))")


def run_side(src: Path) -> list[dict]:
    """The desk runs of every seed in a process importing betamix from
    src."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "tests")])}
    out = subprocess.run([sys.executable, "-c", SIDE], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
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
    parser.add_argument("--parent", required=True,
                        help="git revision of the parent side")
    parser.add_argument("--out", type=Path, required=True,
                        help="the QUAL_*.json to write")
    parser.add_argument("--what", default="", help="one line on the change")
    args = parser.parse_args(argv)

    parent_rev = git_rev(args.parent)
    with tempfile.TemporaryDirectory() as tmp:
        parent_runs = run_side(extract_src(parent_rev, Path(tmp)))
    change_runs = run_side(ROOT / "src")
    record = {
        "what": args.what,
        "command": (f"python3 tools/desk_study.py --parent {args.parent} "
                    f"--out {args.out.name}"),
        "config": {**desk.DESK_CONFIG, "n_per_class": desk.N_PER_CLASS,
                   "crop_budget_s": desk.CROP_BUDGET_S,
                   "ambiguous_fraction": desk.AMBIGUOUS_FRACTION,
                   "train_fraction": desk.TRAIN_FRACTION,
                   "keep_fraction": desk.KEEP_FRACTION},
        "seeds": list(desk.SEEDS),
        "statistics": ("per side: mean and min of the per-seed validation "
                       "macro F1, mean AURC, seeds with F1 below "
                       f"{desk.MIN_F1} (collapsed), seeds with no "
                       "misclassified record (perfect), and the criterion 6 "
                       "and 7 pass counts over seeds 0-4 and over all seeds"),
        "host": host_facts(),
        "parent": {"rev": parent_rev, "summary": desk.summarize(parent_runs),
                   "runs": parent_runs},
        "change": {"rev": "working tree", "summary": desk.summarize(change_runs),
                   "runs": change_runs},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    n = len(desk.SEEDS)
    for side in ("parent", "change"):
        s = record[side]["summary"]
        c6, c7 = s["criterion_6"], s["criterion_7"]
        print(f"{side}: mean F1 {s['mean_f1']:.3f}, min F1 {s['min_f1']:.3f}, "
              f"mean AURC {s['mean_aurc']:.4f}, collapsed {s['collapsed_seeds']}, "
              f"perfect {s['perfect_seeds']}, "
              f"c6 {c6['passes_seeds_0_4']}/{desk.N_SEEDS} ({c6['passes']}/{n}), "
              f"c7 {c7['passes_seeds_0_4']}/{desk.N_SEEDS} ({c7['passes']}/{n})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
