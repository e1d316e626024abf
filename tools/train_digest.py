"""Training digest: one sha256 over a few training steps of both presets.

    python3 tools/train_digest.py

Run from anywhere; betamix is imported from this checkout's `src/`. For
each preset ("paper" with batch 64, then "tiny" with batch 32) it builds
the seed-0 model, takes three Adam steps on augmented crop batches drawn
from eight synthetic records, and hashes each step's loss, then every
parameter and batch-norm running statistic, then a nine-crop infer
forward, whose block convolutions fold in the trained statistics. It
prints the hex digest.

Two trees whose digests are equal take the same training and inference
bits on this host, so running it on a parent and on a change shows
whether a change moved any. Under a different BLAS thread count
(OPENBLAS_NUM_THREADS=1 and =2) the digest must not change; CI runs it
both ways and fails if they differ.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from betamix.data import AugmentConfig, sample_crop_batch, synth_generate  # noqa: E402
from betamix.model import LABEL_EPS, build_model, loss_and_grads  # noqa: E402
from betamix.nn import adam_step  # noqa: E402


def train_digest() -> str:
    digest = hashlib.sha256()
    records = synth_generate(8, crop_budget_s=12.0, seed=0)
    for preset, batch in (("paper", 64), ("tiny", 32)):
        model = build_model(preset, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(3):
            crops = sample_crop_batch(records, batch, model.spec.input_length,
                                      AugmentConfig(), rng)
            loss = loss_and_grads(model, crops.crops, crops.targets, LABEL_EPS)
            adam_step(model.params(), model.adam)
            digest.update(np.float64(loss).tobytes())
        for name, value in model.named_entries():
            digest.update(name.encode())
            digest.update(value.tobytes())
        x = np.random.default_rng(1).normal(size=(9, 1, model.spec.input_length))
        digest.update(model.forward(x.astype(np.float32)).tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    print(train_digest())
