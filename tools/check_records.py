"""CI's gate on the committed benchmark and desk-study records.

    python3 tools/check_records.py

Run from anywhere; the records are read from this checkout's root, and
`tests/desk.py` is imported with betamix from this checkout's `src/`. It
prints nothing and exits 0 when every record passes; otherwise it prints
one line per problem and exits 1. Run it before committing a
`BENCH_*.json` or a `QUAL_*.json`. No training or benchmark runs.

BENCH records: every committed benchmark record (root BENCH_*.json)
reports on workloads the benchmark defines, with finite parent and change
medians for each of its end-to-end metrics, so a record that drifts from
BENCHMARK.json fails. A record that claims a gain names a workload and
end-to-end metric of BENCHMARK.json that the record itself reports, and
its change median must beat its parent median in that metric's `better`
direction. Every run a record reports must have been correct:
`all_runs_correct` is true. Wherever a side holds its `runs`, its stated
`median`, `q1` and `q3` must be those runs' median and inclusive
quartiles (numpy.percentile's linear method), to 1e-12 relative, so a
hand-edited statistic fails; beyond the two runs quartiles need, the
number of runs is not checked.

QUAL records: every committed desk-study record (root QUAL_*.json,
written by tools/desk_study.py) holds a parent and a change side of 20
seeds each, and finite mean and min F1 and mean AURC on both sides (an
inf in a run carries into its summary, so the equality below would pass
it). Each run's criterion 6 and 7 verdicts and each side's summary must
equal what the acceptance tests' own predicates and `summarize`
(tests/desk.py) compute from the record's runs, so every pass count is a
count over those 20 seeds.
"""

from __future__ import annotations

import glob
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from desk import criterion_6, criterion_7, summarize  # noqa: E402


def _load(root: Path, path: str):
    return json.loads((root / path).read_text(encoding="utf-8"))


def _statistics_problems(where: str, stats: dict) -> list[str]:
    """Where one side's stated median and quartiles are not its runs'."""
    runs = stats["runs"]
    if not (isinstance(runs, list) and len(runs) > 1 and all(
            isinstance(v, (int, float)) and math.isfinite(v) for v in runs)):
        return [f"{where} runs are not a list of two or more finite numbers"]
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    problems = []
    for key, want in (("median", statistics.median(runs)), ("q1", q1), ("q3", q3)):
        got = stats.get(key)
        if not (isinstance(got, (int, float))
                and math.isclose(got, want, rel_tol=1e-12)):
            problems.append(f"{where} {key} is {got!r}, its runs give {want!r}")
    return problems


def bench_problems(root: Path) -> list[str]:
    """What is wrong with the BENCH_*.json records at root."""
    bench = _load(root, "BENCHMARK.json")
    names = {w["name"] for w in bench["workloads"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    paths = sorted(glob.glob("BENCH_*.json", root_dir=root))
    if not paths:
        return ["no BENCH_*.json at the repository root"]
    problems = []
    for path in paths:
        record = _load(root, path)
        if record.get("all_runs_correct") is not True:
            problems.append(f"{path}: all_runs_correct is not true")
        workloads = record.get("workloads") or {}
        if not workloads:
            problems.append(f"{path}: names no workload")
        medians = {}
        for name, table in workloads.items():
            if name not in names:
                problems.append(f"{path}: workload {name!r} is not in BENCHMARK.json")
                continue
            for metric in better:
                for side in ("parent", "change"):
                    try:
                        value = table[metric][side]["median"]
                    except (KeyError, TypeError):
                        value = None
                    if not (isinstance(value, (int, float)) and math.isfinite(value)):
                        problems.append(f"{path}: {name}.{metric} has no finite {side} median")
                    else:
                        medians[name, metric, side] = value
            for metric, entry in table.items():
                for side in ("parent", "change"):
                    stats = entry.get(side) if isinstance(entry, dict) else None
                    if isinstance(stats, dict) and "runs" in stats:
                        problems += _statistics_problems(
                            f"{path}: {name}.{metric} {side}", stats)
        claim = record.get("claim")
        if claim:
            key = (claim.get("workload"), claim.get("metric"))
            if key[0] not in names or key[1] not in better:
                problems.append(f"{path}: claim names {key}, not a workload and end-to-end metric of BENCHMARK.json")
            elif (key + ("parent",)) in medians and (key + ("change",)) in medians:
                parent, change = medians[key + ("parent",)], medians[key + ("change",)]
                gained = change < parent if better[key[1]] == "lower" else change > parent
                if not gained:
                    problems.append(f"{path}: claimed {key[0]}.{key[1]} change median {change} "
                                    f"is not better than parent median {parent} ({better[key[1]]} is better)")
            else:
                problems.append(f"{path}: claimed {key[0]}.{key[1]} has no parent and change medians in the record")
    return problems


def qual_problems(root: Path) -> list[str]:
    """What is wrong with the QUAL_*.json records at root."""
    paths = sorted(glob.glob("QUAL_*.json", root_dir=root))
    if not paths:
        return ["no QUAL_*.json at the repository root"]
    problems = []
    for path in paths:
        record = _load(root, path)
        if record.get("seeds") != list(range(20)):
            problems.append(f"{path}: seeds are not 0-19")
        for side in ("parent", "change"):
            block = record.get(side) or {}
            runs = block.get("runs") or []
            if [run.get("seed") for run in runs] != list(range(20)):
                problems.append(f"{path}: {side} does not hold one run per seed 0-19")
            summary = block.get("summary") or {}
            for key in ("mean_f1", "min_f1", "mean_aurc"):
                value = summary.get(key)
                if not (isinstance(value, (int, float)) and math.isfinite(value)):
                    problems.append(f"{path}: {side}.{key} is not finite")
            try:
                for run in runs:
                    for criterion, judge in (("criterion_6", criterion_6),
                                             ("criterion_7", criterion_7)):
                        if run[criterion] != judge(run):
                            problems.append(f"{path}: {side} seed {run['seed']} {criterion} is "
                                            f"{run[criterion]!r}, its predicate gives {judge(run)!r}")
                if runs and summary != summarize(runs):
                    problems.append(f"{path}: {side}.summary is not summarize of its runs")
            except (KeyError, TypeError) as exc:
                problems.append(f"{path}: {side} runs lack a field: {exc!r}")
    return problems


if __name__ == "__main__":
    problems = bench_problems(ROOT) + qual_problems(ROOT)
    if problems:
        sys.exit("\n".join(problems))
