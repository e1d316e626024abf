"""Shared test oracles: quadrature, finite differences, peak detection,
the per-crop training sampler, plus a checkpoint header rewriter for
hostile-file tests.

Everything here is deliberately independent of the library's own code
paths (naive loops and textbook formulas only), so a test failure points
at the implementation, not at a shared bug.
"""

import functools
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest


@functools.lru_cache(maxsize=8)
def gauss_legendre_01(n: int):
    """Nodes and weights on (0, 1)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def beta_pdf_reference(t, alpha: float, beta: float):
    """Direct density evaluation through the standard library's lgamma."""
    ln_b = math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)
    t = np.asarray(t, dtype=np.float64)
    return np.exp((alpha - 1.0) * np.log(t) + (beta - 1.0) * np.log1p(-t) - ln_b)


def mixture_moments_by_quadrature(components, n_nodes: int = 4000):
    """(mean, variance) of an equal-weight beta mixture via Gauss-Legendre.

    4000 nodes keep the error below ~5e-8 even for shape parameters just
    above 1, where the endpoint derivative singularity slows convergence.
    """
    nodes, weights = gauss_legendre_01(n_nodes)
    pdf = np.zeros_like(nodes)
    for alpha, beta in components:
        pdf += beta_pdf_reference(nodes, alpha, beta)
    pdf /= len(components)
    mean = float(np.sum(weights * nodes * pdf))
    second = float(np.sum(weights * nodes * nodes * pdf))
    return mean, second - mean * mean


def central_difference(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def numeric_grad(loss_fn, arr: np.ndarray, h: float) -> np.ndarray:
    """Elementwise central differences of loss_fn() w.r.t. entries of arr.

    loss_fn takes no arguments and must observe mutations of arr.
    """
    grad = np.zeros(arr.shape, dtype=np.float64)
    flat = arr.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        grad_flat[i] = (up - down) / (2.0 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), floor)))


def detect_peak_times(samples: np.ndarray, fs: float,
                      height_fraction: float = 0.5,
                      min_distance_s: float = 0.25) -> np.ndarray:
    """Naive spike detector: local maxima above a fraction of the global
    max, greedily thinned to a minimum spacing."""
    x = np.asarray(samples, dtype=np.float64)
    x = x - np.median(x)
    threshold = height_fraction * x.max()
    candidates = [
        i for i in range(1, len(x) - 1)
        if x[i] >= threshold and x[i] >= x[i - 1] and x[i] > x[i + 1]
    ]
    min_gap = int(min_distance_s * fs)
    kept = []
    for i in candidates:
        if kept and i - kept[-1] < min_gap:
            if x[i] > x[kept[-1]]:
                kept[-1] = i
            continue
        kept.append(i)
    return np.asarray(kept, dtype=np.float64) / fs


def naive_orient(samples: np.ndarray) -> tuple[np.ndarray, bool]:
    """Whole-record orientation: remove the float32 median, then negate
    iff |min| > |max| (ties stay unflipped)."""
    centered = samples - np.float32(float(np.median(samples)))
    if abs(float(centered.min())) > abs(float(centered.max())):
        return -centered, True
    return centered, False


def naive_resample(samples: np.ndarray, factor: float) -> np.ndarray:
    """Whole-record linear interpolation onto round(n * factor) points at
    positions j / factor, clamped to the last sample."""
    n = samples.size
    positions = np.minimum(
        np.arange(max(1, int(round(n * factor))), dtype=np.float64) / factor,
        n - 1)
    return np.interp(positions, np.arange(n, dtype=np.float64),
                     samples.astype(np.float64)).astype(np.float32)


def naive_crop_batch(records, batch_size: int, crop_len: int, augment, rng):
    """The training sampler defined one crop at a time: orient the whole
    record, resample all of it, edge-pad it to crop_len, cut the window.

    Returns (crops, targets, provenance tuples (id, start, factor, flipped,
    padded)) and draws from rng in the library's order: record, factor,
    start.
    """
    by_class = ([r for r in records if r.target < 0.5],
                [r for r in records if r.target >= 0.5])
    crops = np.empty((batch_size, 1, crop_len), dtype=np.float32)
    targets = np.empty(batch_size, dtype=np.float64)
    provenance = []
    for i in range(batch_size):
        pool = by_class[0] if i < batch_size // 2 else by_class[1]
        record = pool[int(rng.integers(len(pool)))]
        samples, flipped = naive_orient(record.samples)
        factor = 1.0
        if augment is not None:
            factor = float(rng.uniform(augment.resample_min, augment.resample_max))
            if factor != 1.0:
                samples = naive_resample(samples, factor)
        padded = samples.size < crop_len
        if padded:
            deficit = crop_len - samples.size
            samples = np.pad(samples, (deficit // 2, deficit - deficit // 2),
                             mode="edge")
        start = int(rng.integers(samples.size - crop_len + 1))
        crops[i, 0, :] = samples[start:start + crop_len]
        targets[i] = record.target
        provenance.append((record.id, start, factor, flipped, padded))
    return crops, targets, provenance


def rewrite_checkpoint_header(path, edit) -> None:
    """Replace a checkpoint's JSON header by edit(parsed header) and fix
    the header length field; the tensors after it stay as they are."""
    blob = Path(path).read_bytes()
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    meta = edit(json.loads(blob[12:12 + meta_len]))
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    Path(path).write_bytes(blob[:8] + struct.pack("<I", len(header)) + header
                           + blob[12 + meta_len:])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
