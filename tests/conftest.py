"""Shared test oracles: quadrature, finite differences, peak detection,
the per-crop training sampler, the batch-norm and max-pool layers in their
textbook forms, plus a checkpoint header rewriter for hostile-file tests
and a walker that reads a model's spatial size after each stage.

Every oracle here is deliberately independent of the library's own code
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
from numpy.lib.stride_tricks import sliding_window_view


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


def stage_sizes(model, x: np.ndarray) -> list[int]:
    """The spatial length after each stage of model.stages, walking x
    through every stage's nodes in infer mode."""
    sizes = []
    for stage in model.stages:
        for node in stage:
            x = node.forward(x, False)
        sizes.append(x.shape[2])
    return sizes


def conv1d_backward_reference(x, kernel, grad_out, stride):
    """The "same"-padded conv backward through np.pad, sliding_window_view
    and np.tensordot: dW is tensordot's one GEMM over the padded input's
    strided windows, dX one matmul for every tap followed by a col2im into
    a padded buffer that is then cropped. Returns (dx, dW, bias gradient).

    Where the windows' (batch * out_len, in_ch * kernel) reshape is a view
    rather than a copy (kernel 1 with batch 1, or with one input channel
    and kernel == stride), tensordot hands BLAS a strided operand; in
    float64 its last bits may then differ from a GEMM over the copy."""
    b, c, length = x.shape
    out_ch, _, k = kernel.shape
    out_len = grad_out.shape[2]
    total = max(0, (out_len - 1) * stride + k - length)
    left = total // 2
    xp = np.pad(x, ((0, 0), (0, 0), (left, total - left)))
    windows = sliding_window_view(xp, k, axis=2)[:, :, ::stride, :]
    dw = np.tensordot(grad_out, windows, axes=([0, 2], [0, 2]))
    cols = (kernel.reshape(out_ch, c * k).T @ grad_out).reshape(b, c, k, out_len)
    dxp = np.zeros(xp.shape, dtype=grad_out.dtype)
    for j in range(k):
        dxp[:, :, j : j + out_len * stride : stride] += cols[:, :, j]
    return (np.ascontiguousarray(dxp[:, :, left : left + length]), dw,
            grad_out.sum(axis=(0, 2)))


def batchnorm_train_reference(x, scale, shift, running_mean, running_var,
                              momentum, eps, grad_out):
    """Train-mode batch norm as np.mean and np.var define it, with the
    textbook backward. Returns (y, new running mean, new running var,
    input gradient, scale gradient, shift gradient)."""
    mean = x.mean(axis=(0, 2))
    var = x.var(axis=(0, 2))
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
    y = scale[None, :, None] * xhat + shift[None, :, None]
    new_mean = (1.0 - momentum) * running_mean + momentum * mean
    new_var = (1.0 - momentum) * running_var + momentum * var
    n = x.shape[0] * x.shape[2]
    dxhat = grad_out * scale[None, :, None]
    sum_dxhat = dxhat.sum(axis=(0, 2), keepdims=True)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2), keepdims=True)
    dx = (inv_std[None, :, None] / n) * (
        n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    return (y, new_mean, new_var, dx, (grad_out * xhat).sum(axis=(0, 2)),
            grad_out.sum(axis=(0, 2)))


def maxpool_argmax_reference(x, size, grad_out):
    """Non-overlapping max pooling through np.argmax (the first max wins):
    returns (y, input gradient), the remainder getting zero gradient."""
    b, c, length = x.shape
    out_len = length // size
    windows = x[:, :, :out_len * size].reshape(b, c, out_len, size)
    argmax = windows.argmax(axis=3)[..., None]
    y = np.take_along_axis(windows, argmax, axis=3)[..., 0]
    dwin = np.zeros(windows.shape, dtype=grad_out.dtype)
    np.put_along_axis(dwin, argmax, grad_out[..., None], axis=3)
    dx = np.zeros(x.shape, dtype=grad_out.dtype)
    dx[:, :, :out_len * size] = dwin.reshape(b, c, out_len * size)
    return y, dx


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
