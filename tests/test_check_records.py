"""tools/check_records.py, CI's gate on the committed BENCH_*.json and
QUAL_*.json records: the committed records pass, and a broken copy of
each is reported by name."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_records", ROOT / "tools" / "check_records.py")
check_records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_records)


def test_committed_records_pass():
    assert check_records.bench_problems(ROOT) == []
    assert check_records.qual_problems(ROOT) == []


def test_no_records_is_a_problem(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    assert check_records.bench_problems(tmp_path) == [
        "no BENCH_*.json at the repository root"]
    assert check_records.qual_problems(tmp_path) == [
        "no QUAL_*.json at the repository root"]


def test_broken_records_are_named(tmp_path):
    """An incorrect run, a claim the medians contradict, a flipped
    criterion verdict and a summary that is not its runs' are each
    reported, naming the file."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = json.loads((ROOT / "BENCH_20.json").read_text(encoding="utf-8"))
    bench["all_runs_correct"] = False
    table = bench["workloads"]["train_tiny"]["op_cost_p50"]
    table["parent"], table["change"] = table["change"], table["parent"]
    (tmp_path / "BENCH_x.json").write_text(json.dumps(bench), encoding="utf-8")
    qual = json.loads((ROOT / "QUAL_18.json").read_text(encoding="utf-8"))
    run = qual["change"]["runs"][3]
    run["criterion_6"] = not run["criterion_6"]
    qual["parent"]["summary"]["mean_f1"] += 0.01
    (tmp_path / "QUAL_x.json").write_text(json.dumps(qual), encoding="utf-8")

    bench_problems = check_records.bench_problems(tmp_path)
    assert bench_problems[0] == "BENCH_x.json: all_runs_correct is not true"
    assert bench_problems[1].startswith(
        "BENCH_x.json: claimed train_tiny.op_cost_p50 change median ")
    assert len(bench_problems) == 2
    assert check_records.qual_problems(tmp_path) == [
        "QUAL_x.json: parent.summary is not summarize of its runs",
        f"QUAL_x.json: change seed 3 criterion_6 is {run['criterion_6']!r}, "
        f"its predicate gives {not run['criterion_6']!r}",
        "QUAL_x.json: change.summary is not summarize of its runs",
    ]


def test_statistics_that_are_not_their_runs_are_named(tmp_path):
    """A median or quartile edited by hand, or a run that is not a finite
    number, is reported; a last-bit difference is not."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = json.loads((ROOT / "BENCH_33.json").read_text(encoding="utf-8"))
    tiny = bench["workloads"]["train_tiny"]
    tiny["setup_s"]["parent"]["median"] *= 1.01
    tiny["op_cost_p50"]["change"]["q3"] *= 1 + 2**-52
    tiny["peak_rss_mb"]["change"]["runs"][0] = None
    (tmp_path / "BENCH_x.json").write_text(json.dumps(bench), encoding="utf-8")

    problems = check_records.bench_problems(tmp_path)
    assert len(problems) == 2
    assert problems[0].startswith(
        "BENCH_x.json: train_tiny.setup_s parent median is ")
    assert problems[1] == ("BENCH_x.json: train_tiny.peak_rss_mb change "
                           "runs are not a list of two or more finite numbers")
