"""Memory of a training step, per preset, for this checkout.

    python3 tools/step_memory.py

Run from anywhere; betamix is imported from this checkout's `src/`. For
each preset ("paper" with batch 64, then "tiny" with batch 32, the
batches of perfbench's train workloads) it builds the seed-0 model and
eight synthetic records per class, as `tools/train_digest.py` does, and
runs train steps: an augmented crop batch draw, `loss_and_grads` and
`adam_step`. It prints one line per preset:

- the step's traced peak: the most bytes live at once during one step,
  after WARMUP steps, as tracemalloc counts them (numpy reports its
  array buffers to it). The count starts just before a second model and
  its records are built, so their bytes count and the interpreter's
  earlier allocations do not;
- the bytes live between that step and the next, on the same count: the
  model, its records and whatever the layers keep between steps;
- minor page faults per step, from resource.getrusage(RUSAGE_SELF) over
  STEPS steps after WARMUP ones, run with tracemalloc off on the first
  model: pages the step touches for the first time since the allocator
  returned them to the system.

MiB is 2**20 bytes. The figures are of one process on one host: the
fault count depends on the C library's allocator and its heap trimming,
and the traced bytes on the numpy build.
"""

from __future__ import annotations

import resource
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from betamix.data import AugmentConfig, sample_crop_batch, synth_generate  # noqa: E402
from betamix.model import LABEL_EPS, build_model, loss_and_grads  # noqa: E402
from betamix.nn import adam_step  # noqa: E402

PRESETS = (("paper", 64), ("tiny", 32))
WARMUP = 2
STEPS = 20
MIB = 2 ** 20


def _stepper(preset: str, batch: int):
    """A train step of a fresh seed-0 model of preset at batch."""
    model = build_model(preset, seed=0)
    records = synth_generate(8, crop_budget_s=12.0, seed=0)
    rng = np.random.default_rng(0)
    length = model.spec.input_length

    def step():
        crops = sample_crop_batch(records, batch, length, AugmentConfig(), rng)
        loss_and_grads(model, crops.crops, crops.targets, LABEL_EPS)
        adam_step(model.params(), model.adam)

    return step


def step_memory(preset: str, batch: int, steps: int = STEPS) -> tuple[int, int, float]:
    """(traced peak bytes of one step, traced bytes live after it, minor
    faults per step) for preset at batch. The faults are counted first,
    on a model of their own, so that tracemalloc's own allocations do not
    shape the heap they are counted on, and every import the step makes
    on its first run is done before the tracing starts."""
    step = _stepper(preset, batch)
    for _ in range(WARMUP):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(steps):
        step()
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps
    del step
    tracemalloc.start()
    try:
        step = _stepper(preset, batch)
        for _ in range(WARMUP):
            step()
        tracemalloc.reset_peak()
        step()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, live, faults


def main(argv=None, *, presets=PRESETS, steps: int = STEPS) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        print("usage: python3 tools/step_memory.py", file=sys.stderr)
        return 1
    for preset, batch in presets:
        peak, live, faults = step_memory(preset, batch, steps)
        print(f"{preset} batch {batch}: step peak {peak / MIB:.2f} MiB, "
              f"live between steps {live / MIB:.2f} MiB, "
              f"{faults:.0f} minor faults per step ({steps} steps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
