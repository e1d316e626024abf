"""The three closed-loop workloads, their set-up and their output checks.

Each workload runs in its own process with one client: an op starts only
after the previous one returned. Inputs come from `synth_generate` with
the run's seed; the library sees only the generated records.

- train_paper: paper preset, batch 64, augmentation on; conv-bound, and
  its stem activations (4 MB) exceed L2.
- train_tiny: tiny preset, batch 32; its activations fit in L2, so data
  sampling, the per-sample beta NLL loop and per-parameter Adam dominate.
- predict_paper: paper checkpoint round-tripped through save/load,
  `predict()` on one record at a time (1-9 crops, infer-mode forward),
  then rejection and a metrics report at the end of every pass.
"""

from __future__ import annotations

import csv
import gc
import importlib
import io
import json
import math
import statistics
import sys
import traceback
import tracemalloc
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from layers import (RECORD, STEP, conv_shapes, instrument_library,
                    instrument_model, model_conv_shapes, per_layer_metrics)
from spans import Recorder, Tracer

bm_data = importlib.import_module("betamix.data")
bm_model = importlib.import_module("betamix.model")
bm_nn = importlib.import_module("betamix.nn")
bm_predict = importlib.import_module("betamix.predict")
bm_metrics = importlib.import_module("betamix.metrics")
bm_cli = importlib.import_module("betamix.cli")

N_PER_CLASS = 100          # 200 records of 9-61 s each
TRAIN_FRACTION = 0.8
LABEL_EPS = 0.01
KEEP_FRACTION = 0.9
SETUP_REPEATS = 9
WINDOWS = 10               # the loop's time is cut into this many windows
WARMUP_OPS = 3
YARDSTICK_SHARE = 0.12     # of an op's time, spent on the yardstick after it
FIXTURE_STEPS = 2          # predict_paper trains its checkpoint this long
FIXTURE_BATCH = 2          # small, so the fixture does not set peak RSS

# Fixed-input reference check, independent of --seed.
CHECK_SEED = 20181
CHECK_N_PER_CLASS = 3
CHECK_BATCH = 8
CHECK_STEPS = 6
CHECK_LR = 0.01
# Relative noise of 1e-6 on the conv weight gradient (a proxy for float32
# reordering) moves the loss trace by <2e-5; a wrong gradient term moves
# it by >0.1. Adam ignores a uniform gradient scale, and so does this check.
LOSS_RTOL = 1e-3
PRED_ATOL = 1e-5
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    kind: str
    preset: str
    batch: int = 0


WORKLOADS = {
    "train_paper": Workload(STEP, "paper", 64),
    "train_tiny": Workload(STEP, "tiny", 32),
    "predict_paper": Workload(RECORD, "paper"),
}


@dataclass
class Outcome:
    setup_s: list[float] = field(default_factory=list)
    op_ns: list[int] = field(default_factory=list)       # untraced ops
    yardstick_ns: list[int] = field(default_factory=list)
    traced_op_ns: list[int] = field(default_factory=list)
    # (start ns, duration ns, ops, crops, yardstick ns) of every untraced
    # op and of every end-of-pass evaluation (0 ops, 0 crops)
    busy: list[tuple[int, int, int, int, float]] = field(default_factory=list)
    t_begin: int = 0
    t_end: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    trace_closure: float | None = None
    recorder: Recorder | None = None

    def fail(self, msg: str, exc: BaseException | None = None) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)
            if exc is not None:
                traceback.print_exception(exc, file=sys.stderr)

    def throughput(self, unit: str, per_ref: bool) -> float:
        """Ops or crops per busy second, or per yardstick run if per_ref;
        the median over equal time windows of the loop, so a burst of host
        contention moves one window only."""
        width = (self.t_end - self.t_begin) / WINDOWS
        windows: dict[int, list[float]] = {}
        for start, ns, ops, crops, ref_ns in self.busy:
            w = windows.setdefault(int((start - self.t_begin) // width), [0, 0.0])
            w[0] += ops if unit == "ops" else crops
            w[1] += ns / ref_ns if per_ref else ns / 1e9
        return statistics.median(u / t for u, t in windows.values() if u)

    def op_costs(self) -> list[float]:
        """Each untraced op's time in yardstick runs."""
        return [ns / ref_ns for _, ns, ops, _, ref_ns in self.busy if ops]


def _page_offset_array(shape, offset: int) -> np.ndarray:
    """A float32 array that starts `offset` bytes past a page boundary."""
    n = math.prod(shape)
    buf = np.empty(n + 2048, np.float32)
    start = ((-buf.ctypes.data) % 4096 + offset) // 4
    return buf[start:start + n].reshape(shape)


class Yardstick:
    """A fixed reference kernel timed right after every op.

    A shared host runs this process at two speeds, 1.3 to 1.7 times apart,
    CPU time included, and switches between them every few seconds to
    minutes; the share of time at each speed decides where a run's median
    op lands, so wall times of runs made at different moments disagree by
    more than any useful bound. The library never runs this kernel, so a
    change to the library cannot move its time, while the host's speed
    moves both. Each op's time divided by the median of the yardstick
    runs just before and just after it keeps a change to the library and
    drops the host's speed.

    About 80% of its time is a multiply-accumulate over strided views of
    arrays that fit in L2, as in the conv tap loops, and the rest a loop of
    numpy calls on 16-element vectors, whose time is interpreter and
    dispatch overhead, as in the data sampling, loss and Adam loops. The
    first slows by about 1.2 times in the host's slow band and the second
    by about 1.9 times; in these shares the kernel slows about as much as
    the ops (1.25 to 1.4 times). Its buffers are allocated once at fixed
    offsets from page boundaries and the loop allocates none, so its
    speed does not depend on where the allocator put them in this
    process.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.signal = _page_offset_array((16, 8, 514), 0)
        self.signal[...] = rng.standard_normal(self.signal.shape)
        self.product = _page_offset_array((16, 8, 512), 1024)
        self.total = _page_offset_array((16, 8, 512), 2048)
        self.taps = rng.standard_normal((8, 8, 3)).astype(np.float32)
        self.vectors = [rng.standard_normal(16).astype(np.float32) for _ in range(64)]
        self.expected = self._kernel()

    def _kernel(self) -> tuple[float, float]:
        total, product = self.total, self.product
        total[...] = 0.0
        for c in range(8):
            for j in range(3):
                np.multiply(self.signal[:, c, j:j + 512][:, None, :],
                            self.taps[None, :, c, j, None], out=product)
                np.add(total, product, out=total)
        v = self.vectors[0].copy()
        for _ in range(2):
            for u in self.vectors:
                v = np.maximum(v * 0.5 + u, 0.0)
        return float(total[-1, -1, -1]), float(v.sum())

    def run(self, out: Outcome, share_of_ns: int = 0) -> list[int]:
        """Run the kernel until it took share_of_ns * YARDSTICK_SHARE, at
        least once; the time of each run."""
        times = []
        while not times or sum(times) < YARDSTICK_SHARE * share_of_ns:
            t0 = perf_counter_ns()
            got = self._kernel()
            times.append(perf_counter_ns() - t0)
            if got != self.expected:
                raise RuntimeError("yardstick kernel gave another result")
        out.yardstick_ns.extend(times)
        return times


# -- output checks ---------------------------------------------------------------


def params_finite(model) -> bool:
    return all(np.isfinite(p.value).all() for p in model.params())


def prediction_error(pred, record) -> str | None:
    s = pred.summary
    if pred.record_id != record.id:
        return f"prediction for {pred.record_id!r} returned for {record.id!r}"
    if not 0.0 < s.mean < 1.0:
        return f"{record.id}: mean {s.mean!r} outside (0,1)"
    if not 0.0 <= s.uncertainty <= 1.0:
        return f"{record.id}: uncertainty {s.uncertainty!r} outside [0,1]"
    for c in pred.components.components:
        if not (math.isfinite(c.alpha) and math.isfinite(c.beta)):
            return f"{record.id}: non-finite component {c}"
    return None


def matches(pred, ref) -> bool:
    return (abs(pred.summary.mean - ref[0]) <= PRED_ATOL
            and abs(pred.summary.uncertainty - ref[1]) <= PRED_ATOL)


def check_losses(preset: str) -> list[float]:
    """Loss trace of a fixed short training run."""
    records = bm_data.synth_generate(CHECK_N_PER_CLASS, seed=CHECK_SEED)
    model = bm_model.build_model(preset, CHECK_SEED)
    model.adam = bm_nn.AdamState(learning_rate=CHECK_LR)
    rng = np.random.default_rng([CHECK_SEED, 1])
    length = model.spec.input_length
    losses = []
    for _ in range(CHECK_STEPS):
        batch = bm_data.sample_crop_batch(records, CHECK_BATCH, length,
                                          bm_data.AugmentConfig(), rng)
        losses.append(bm_model.loss_and_grads(model, batch.crops, batch.targets,
                                              LABEL_EPS))
        bm_nn.adam_step(model.params(), model.adam)
    return losses


def check_predictions(workdir: Path) -> dict[str, list[float]]:
    """(mean, uncertainty) per record of a fixed paper checkpoint."""
    model = bm_model.build_model("paper", CHECK_SEED)
    path = workdir / "check.bgc"
    bm_model.save_checkpoint(model, path)
    model = bm_model.load_checkpoint(path)
    out = {}
    for r in bm_data.synth_generate(CHECK_N_PER_CLASS, seed=CHECK_SEED + 1):
        p = bm_predict.predict(model, r, model.spec.input_length)
        out[r.id] = [p.summary.mean, p.summary.uncertainty]
    return out


def record_reference(workdir: Path) -> dict:
    return {
        "train_losses": {p: check_losses(p) for p in ("paper", "tiny")},
        "predictions": check_predictions(workdir),
    }


def reference_check(w: Workload, workdir: Path) -> tuple[bool, str]:
    ref = json.loads(REFERENCE_PATH.read_text())
    if w.kind == STEP:
        got, want = check_losses(w.preset), ref["train_losses"][w.preset]
        worst = max(abs(g - r) / abs(r) for g, r in zip(got, want))
        ok = len(got) == len(want) and worst <= LOSS_RTOL
        return ok, f"loss trace max rel err {worst:.3g} (tol {LOSS_RTOL})"
    got, want = check_predictions(workdir), ref["predictions"]
    worst = max(max(abs(a - b) for a, b in zip(got[k], want[k])) for k in want)
    ok = got.keys() == want.keys() and worst <= PRED_ATOL
    return ok, f"prediction max abs err {worst:.3g} (tol {PRED_ATOL})"


# -- the run -----------------------------------------------------------------------


def _span(rec: Recorder | None, name: str):
    return rec.span(name) if rec is not None else nullcontext()


class Loop:
    """Times ops back to back. In a traced run every other op is traced
    (wrappers installed) and the rest run untraced, so both halves see the
    same conditions and their difference is the tracing overhead."""

    def __init__(self, out: Outcome, rec: Recorder | None, tracer: Tracer | None):
        self.out, self.rec, self.tracer = out, rec, tracer
        self.yardstick = Yardstick()
        self.ref_before: list[int] = []
        self.ref_ns = 0.0

    def start(self, seconds: float) -> None:
        for _ in range(WARMUP_OPS):
            self.ref_before = self.yardstick.run(self.out)
        self.out.yardstick_ns.clear()
        self.out.t_begin = perf_counter_ns()
        self.out.t_end = self.out.t_begin + int(seconds * 1e9)

    def running(self) -> bool:
        return perf_counter_ns() < self.out.t_end

    def op(self, kind: str, fn, traced: bool, crops):
        """Run fn as one op; crops(result) is the work it did."""
        if self.tracer is not None:
            (self.tracer.install if traced else self.tracer.uninstall)()
        t0 = perf_counter_ns()
        with _span(self.rec if traced else None, kind):
            result = fn()
        dt = perf_counter_ns() - t0
        # The yardstick runs right after every op, traced or not, so every
        # op starts from the same cache state; an untraced op's time is
        # weighed against the runs just before and just after it.
        after = self.yardstick.run(self.out, dt)
        if traced:
            self.out.traced_op_ns.append(dt)
        else:
            self.out.op_ns.append(dt)
            self.ref_ns = statistics.median(self.ref_before + after)
            self.out.busy.append((t0, dt, 1, crops(result), self.ref_ns))
        self.ref_before = after
        return result

    def idle_work(self, t0: int, ns: int) -> None:
        """Busy time that did no op (an end-of-pass evaluation)."""
        self.out.busy.append((t0, ns, 0, 0, self.ref_ns))


def _train_step(model, records, batch_size, rng):
    length = model.spec.input_length
    augment = bm_data.AugmentConfig()
    params = model.params()

    def step():
        batch = bm_data.sample_crop_batch(records, batch_size, length, augment, rng)
        loss = bm_model.loss_and_grads(model, batch.crops, batch.targets, LABEL_EPS)
        bm_nn.adam_step(params, model.adam)
        return loss
    return step


def _eval_pass(preds, rec) -> tuple[int, int, str | None]:
    """Reject the least certain records and report; (start, ns, error)."""
    t0 = perf_counter_ns()
    with _span(rec, "metrics.eval_pass"):
        flagged, _ = bm_predict.reject_by_uncertainty(preds, KEEP_FRACTION)
        everything = bm_metrics.report(bm_metrics.confusion(preds))
        accepted = bm_metrics.report(bm_metrics.confusion(flagged, only_accepted=True))
    ns = perf_counter_ns() - t0
    if (everything.n_evaluated != len(preds)
            or accepted.n_evaluated != math.ceil(KEEP_FRACTION * len(preds))
            or not 0.0 <= accepted.macro_f1 <= 1.0):
        return t0, ns, "eval pass: inconsistent report"
    return t0, ns, None


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    w = WORKLOADS[name]
    spec = bm_model.PRESETS[w.preset]
    out = Outcome()
    out.checks["reference"] = reference_check(w, workdir)

    rec = out.recorder = Recorder() if trace else None
    tracer = Tracer(rec) if trace else None
    if tracer is not None:
        instrument_library(tracer)
        tracer.install()
    op_batches = {STEP: [], RECORD: []}
    data_dir, ckpt = _fixture(w, seed, workdir, rec, tracer, op_batches)

    # Set-up as a user pays it: load the dataset, then build a fresh model
    # (training) or load the checkpoint (prediction).
    manifest = data_dir / "manifest.csv"
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        dataset = bm_data.load_dataset(manifest)
        model = (bm_model.build_model(w.preset, seed) if w.kind == STEP
                 else bm_model.load_checkpoint(ckpt))
        out.setup_s.append(perf_counter() - t0)
    shapes_ok = [s[:4] for s in conv_shapes(spec)] == model_conv_shapes(model)
    out.checks["conv_shapes"] = (shapes_ok, "analytic conv shapes match the model")
    if tracer is not None:
        instrument_model(tracer, model)
        tracer.uninstall()
    gc.collect()

    loop = Loop(out, rec, tracer)
    if w.kind == STEP:
        _train_loop(w, model, dataset, seed, seconds, loop, op_batches)
    else:
        _predict_loop(model, dataset, seconds, loop, op_batches)

    if tracer is not None:
        saved = _close_traced_run(w, out, rec, tracer, model, dataset, data_dir,
                                  workdir, op_batches)
        extra = {
            "trace.overhead_pct": (100.0 * (statistics.median(out.traced_op_ns)
                                            / statistics.median(out.op_ns) - 1.0), "%"),
            "predict.crops_per_record": (statistics.fmean(op_batches[RECORD]), "count"),
            "predict.retained_kb": (_retained_kb(saved, dataset.records), "KiB"),
        }
        out.per_layer, out.trace_closure = per_layer_metrics(
            rec, w.kind, op_batches, spec, extra)
    return out


def _fixture(w, seed, workdir, rec, tracer, op_batches):
    """The seeded dataset on disk, and for predict_paper a briefly trained
    paper checkpoint."""
    records = bm_data.synth_generate(N_PER_CLASS, seed=seed)
    manifest = bm_data.split_dataset(records, TRAIN_FRACTION, seed)
    data_dir = workdir / "data"
    bm_data.write_dataset(records, manifest, data_dir)
    ckpt = workdir / "model.bgc"
    if w.kind == RECORD:
        model = bm_model.build_model(w.preset, seed)
        if tracer is not None:
            instrument_model(tracer, model)
        train_ids = {e.id for e in manifest.entries if e.split == "train"}
        train_records = [r for r in records if r.id in train_ids]
        step = _train_step(model, train_records, FIXTURE_BATCH,
                           np.random.default_rng([seed, 2]))
        for _ in range(FIXTURE_STEPS):
            with _span(rec, STEP):
                step()
            if rec is not None:
                op_batches[STEP].append(FIXTURE_BATCH)
        bm_model.save_checkpoint(model, ckpt)
    return data_dir, ckpt


def _train_loop(w, model, dataset, seed, seconds, loop, op_batches) -> None:
    out = loop.out
    step = _train_step(model, dataset.train_records(), w.batch,
                       np.random.default_rng([seed, 1]))
    for _ in range(WARMUP_OPS):
        step()
    loop.start(seconds)
    i = 0
    while loop.running():
        traced = loop.rec is not None and i % 2 == 1
        out.attempted += 1
        try:
            loss = loop.op(STEP, step, traced, lambda _: w.batch)
        except Exception as exc:  # a failed op is counted, not fatal
            out.fail(f"step {i}: {type(exc).__name__}: {exc}", exc)
        else:
            if not math.isfinite(loss):
                out.fail(f"step {i}: loss {loss!r}")
            elif not params_finite(model):
                out.fail(f"step {i}: non-finite parameters")
        if traced:
            op_batches[STEP].append(w.batch)
        i += 1


def _predict_loop(model, dataset, seconds, loop, op_batches) -> None:
    """Passes over every record of the dataset; each pass ends with
    rejection and a report. The first pass records each prediction and
    later passes must reproduce it."""
    out = loop.out
    records = dataset.records
    length = model.spec.input_length
    for r in records[:WARMUP_OPS]:
        bm_predict.predict(model, r, length)
    first: dict[str, tuple[float, float]] = {}
    preds = []
    loop.start(seconds)
    i = 0
    while loop.running():
        r = records[i % len(records)]
        # Alternate per pass too, so every record is traced in some pass.
        traced = loop.rec is not None and (i + i // len(records)) % 2 == 1
        out.attempted += 1
        try:
            pred = loop.op(RECORD, lambda: bm_predict.predict(model, r, length),
                           traced, lambda p: len(p.components))
        except Exception as exc:  # a failed op is counted, not fatal
            out.fail(f"record {r.id}: {type(exc).__name__}: {exc}", exc)
        else:
            err = prediction_error(pred, r)
            if err is None and r.id in first and not matches(pred, first[r.id]):
                err = f"{r.id}: prediction differs from the first pass"
            if err is not None:
                out.fail(err)
            else:
                first.setdefault(r.id, (pred.summary.mean, pred.summary.uncertainty))
            preds.append(pred)
            if traced:
                op_batches[RECORD].append(len(pred.components))
        i += 1
        if i % len(records) == 0 and preds:
            if loop.tracer is not None:
                loop.tracer.install()
            t0, ns, err = _eval_pass(preds, loop.rec)
            loop.idle_work(t0, ns)
            if err is not None:
                out.fail(err)
            preds = []


def _close_traced_run(w, out, rec, tracer, model, dataset, data_dir, workdir,
                      op_batches) -> Path:
    """Untimed tail of a traced run, for the layers the main loop does not
    reach: a training run ends with a validation pass, and every run saves
    the model and evaluates it through the CLI."""
    tracer.install()
    length = model.spec.input_length
    if w.kind == STEP:
        preds = []
        for r in dataset.val_records():
            with rec.span(RECORD):
                pred = bm_predict.predict(model, r, length)
            err = prediction_error(pred, r)
            if err is not None:
                out.fail(err)
            preds.append(pred)
            op_batches[RECORD].append(len(pred.components))
        _, _, err = _eval_pass(preds, rec)
        if err is not None:
            out.fail(err)
    ckpt = workdir / "closing.bgc"
    bm_model.save_checkpoint(model, ckpt)
    csv_path = workdir / "eval.csv"
    with redirect_stdout(io.StringIO()):
        rc = bm_cli.main(["eval", "--model", str(ckpt), "--data", str(data_dir),
                          "--keep-fraction", str(KEEP_FRACTION),
                          "--out", str(csv_path)])
    tracer.uninstall()
    rows = {}
    if csv_path.exists():
        with open(csv_path, newline="") as fh:
            rows = {row[0]: row[1:] for row in csv.reader(fh)}
    n_val = len(dataset.val_records())
    ok = rc == 0 and rows.get("n_all") == [str(n_val)]
    out.checks["cli_eval"] = (ok, f"exit code {rc}, n_all {rows.get('n_all')}")
    return ckpt


def _retained_kb(ckpt: Path, records) -> float:
    """KiB still allocated after predict() on the longest record returns,
    on a freshly loaded model: what the layers keep between calls."""
    model = bm_model.load_checkpoint(ckpt)
    record = max(records, key=len)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bm_predict.predict(model, record, model.spec.input_length)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / 1024.0
