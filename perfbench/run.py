"""betamix benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from `src/`. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics named in
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The lines before it print every metric by name with its unit, the output
checks and the machine facts. Full results (and with `--trace 1` every
span) go to `.perfbench_out/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train_paper", "train_tiny", "predict_paper")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
E2E_NAMES = {  # generic name in BENCHMARK.json -> name per workload kind
    "throughput_per_ref": {"op.step": ("train_crops_per_ref", "1/ref"),
                           "op.record": ("predict_crops_per_ref", "1/ref")},
    "op_cost_p50": {"op.step": ("train_step_cost_p50", "ref"),
                    "op.record": ("predict_record_cost_p50", "ref")},
    "throughput_per_s": {"op.step": ("train_crops_per_s", "crops/s"),
                         "op.record": ("predict_records_per_s", "records/s")},
    "op_cost_tail": {"op.step": ("train_step_cost_tail", "ref"),
                     "op.record": ("predict_record_cost_tail", "ref")},
    "op_ms_p50": {"op.step": ("train_step_ms_p50", "ms"),
                  "op.record": ("predict_record_ms_p50", "ms")},
    "op_ms_tail": {"op.step": ("train_step_ms_tail", "ms"),
                   "op.record": ("predict_record_ms_tail", "ms")},
}


def cap_threads() -> dict[str, str]:
    """Thread pools never exceed the CPUs this process may run on. Must
    run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return {var: os.environ[var] for var in THREAD_VARS}


def machine_facts(threads) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": threads,
    }


def tail(values: list[float]):
    """(percentile, value) for the highest percentile of TAIL_LADDER that
    has at least 10 samples beyond it."""
    import numpy as np
    n = len(values)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.percentile(values, 50.0))


def end_to_end(out, kind: str) -> tuple[dict, dict]:
    """Generic metrics for the JSON line and the printed table, and notes
    (tail percentile, counts) for the table.

    The `ref` metrics count time in yardstick runs: each op's time is
    divided by the median of the yardstick runs just before and after it
    (see workloads.Yardstick). Wall time on a shared host jumps between
    a fast and a slow speed and the yardstick moves with it. The
    wall-time figures are printed beside them."""
    import statistics
    import workloads
    ms = [ns / 1e6 for ns in out.op_ns]
    costs = out.op_costs()
    raw_unit = "crops" if kind == workloads.STEP else "ops"

    def tail_of(values):
        p, value = tail(values)
        beyond = round(len(values) * (1 - p / 100))
        return value, f"p{p:g}, {len(values)} samples, {beyond} beyond"

    cost_tail, cost_tail_note = tail_of(costs)
    ms_tail, ms_tail_note = tail_of(ms)
    window_note = f"median of {workloads.WINDOWS} windows"
    metrics = {
        "setup_s": (statistics.median(out.setup_s), "s",
                    f"median of {len(out.setup_s)} set-ups"),
        "throughput_per_ref": (out.throughput("crops", per_ref=True), "1/ref",
                               "crops per yardstick run, " + window_note),
        "op_cost_p50": (statistics.median(costs), "ref",
                        f"{len(costs)} samples, in yardstick runs"),
        "op_cost_tail": (cost_tail, "ref", cost_tail_note),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", ""),
        "throughput_per_s": (out.throughput(raw_unit, per_ref=False), "1/s",
                             window_note),
        "op_ms_p50": (statistics.median(ms), "ms", f"{len(ms)} samples"),
        "op_ms_tail": (ms_tail, "ms", ms_tail_note),
        "yardstick_ms": (statistics.median(out.yardstick_ns) / 1e6, "ms",
                         f"median of {len(out.yardstick_ns)} runs between ops"),
    }
    return ({k: (v, u) for k, (v, u, _) in metrics.items()},
            {k: n for k, (_, _, n) in metrics.items()})


@contextmanager
def scratch_dir(name: str):
    """A private directory under .perfbench_work/, removed afterwards."""
    root = ROOT / ".perfbench_work"
    path = root / f"{name}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            root.rmdir()
        except OSError:
            pass  # another run still uses it


def print_metric(name, value, unit, note="") -> None:
    print(f"  {name:<34} {value:>14.6g} {unit:<9} {note}")


def run_one(args, threads) -> int:
    import workloads
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = workloads.WORKLOADS[args.workload]
    facts = machine_facts(threads)
    with scratch_dir(args.workload) as workdir:
        out = workloads.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), workdir)

    e2e, notes = end_to_end(out, w.kind)
    failed_frac = out.failed / out.attempted if out.attempted else 1.0
    correct = out.failed == 0 and out.attempted > 0 and all(
        ok for ok, _ in out.checks.values())

    print(f"betamix benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    label = "untraced half of the ops" if args.trace else "end to end"
    print(f"{label} (closed loop, 1 client, preset {w.preset}"
          + (f", batch {w.batch})" if w.batch else ")"))
    named = {}
    for key, (value, unit) in e2e.items():
        name, unit = E2E_NAMES.get(key, {}).get(w.kind, (key, unit))
        named[name] = (value, unit, notes.get(key, ""))
    named["failed_frac"] = (failed_frac, "ratio",
                            f"{out.failed} of {out.attempted} ops failed")
    for name, (value, unit, note) in named.items():
        print_metric(name, value, unit, note)
    for msg in out.errors:
        print(f"  failure: {msg}")
    for check, (ok, detail) in out.checks.items():
        print(f"check {check}: {'ok' if ok else 'FAILED'} ({detail})")

    spans_path = None
    if args.trace:
        print(f"per layer (traced half of the ops; self times close to the op "
              f"duration within {out.trace_closure:.1e})")
        for name, (value, unit) in sorted(out.per_layer.items()):
            print_metric(name, value, unit)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans_path = out_dir / f"{stem}-spans.json.gz"
        out.recorder.write(spans_path)
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "correct": correct,
        "attempted": out.attempted, "failed": out.failed, "errors": out.errors,
        "checks": {k: {"ok": ok, "detail": d} for k, (ok, d) in out.checks.items()},
        "end_to_end": {k: {"value": v, "unit": u, "note": n}
                       for k, (v, u, n) in named.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in out.per_layer.items()},
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    source = out.per_layer if args.trace else e2e
    wrong = [m["name"] for m in benchmark[section]
             if source.get(m["name"], (None, None))[1] != m["unit"]]
    if wrong:
        print(f"error: metrics missing or in another unit: {wrong}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]}
               for m in benchmark[section]}
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, so peak RSS is its own."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=2 * args.seconds + 600)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        print()
        try:
            results[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            results[name] = None
        if proc.returncode != 0 or not (results[name] or {}).get("correct"):
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite perfbench/reference.json from this "
                             "checkout and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    if not (SRC / "betamix" / "__init__.py").is_file():
        print(f"error: {SRC / 'betamix'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    # Turn a termination request into SystemExit, so scratch files go too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    threads = cap_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import betamix
    if Path(betamix.__file__).resolve().parent != SRC / "betamix":
        print(f"error: imported betamix from {betamix.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.record_reference:
        import workloads
        with scratch_dir("reference") as workdir:
            ref = workloads.record_reference(workdir)
        workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"wrote {workloads.REFERENCE_PATH}")
        return 0
    return run_one(args, threads)


if __name__ == "__main__":
    sys.exit(main())
