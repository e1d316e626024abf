"""Shared test oracles: quadrature, finite differences, the beta
log-density and its gradient written out term by term, peak detection,
the per-crop training sampler, the batch-norm, max-pool and global
max-pool layers in their textbook forms, Adam one array at a time, a
residual block's infer forward layer by layer, AUROC by counting pairs,
plus a checkpoint header rewriter for hostile-file tests and a walker
that reads a model's spatial size after each stage.

Every oracle here is deliberately independent of the library's own code
paths (naive loops and textbook formulas only), so a test failure points
at the implementation, not at a shared bug. The one exception is the beta
oracle, which calls betadist's ln B and digamma: their accuracy has tests
of its own, and the oracle pins the bits of the formulas around them.
"""

import functools
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from betamix.betadist import _digamma, _ln_beta


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


def beta_nll_reference(alpha: float, beta: float, t: float):
    """(ln Beta(t; alpha, beta), d/dalpha, d/dbeta of its negative) for t
    strictly inside (0, 1), as scalar float64 operations in a fixed order:
    ln t by math.log, ln(1 - t) by math.log1p, then the log-density over
    ln B and the gradient over digamma. The library's loss and its public
    beta functions must return these bits exactly."""
    log_t = math.log(t)
    log_1mt = math.log1p(-t)
    log_pdf = (alpha - 1.0) * log_t + (beta - 1.0) * log_1mt - _ln_beta(alpha, beta)
    psi_sum = _digamma(alpha + beta)
    return (log_pdf, _digamma(alpha) - psi_sum - log_t,
            _digamma(beta) - psi_sum - log_1mt)


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
    """The spatial length after the stem, after each residual group and
    after the global pool, walking x through model.nodes in infer mode."""
    ends = [model.stem_relu, *(group[-1] for group in model.groups),
            model.global_pool]
    sizes = []
    for node in model.nodes:
        x = node.forward(x, False)
        if node in ends:
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


def maxpool_first_max_reference(x, size, grad_out):
    """Non-overlapping max pooling by a Python loop over every window:
    returns (y, input gradient). Each output is the window's running
    np.maximum, taken one scalar at a time; the gradient goes to the first
    position strictly greater than everything before it in the window,
    and the dropped remainder gets none."""
    b, c, length = x.shape
    out_len = length // size
    y = np.zeros((b, c, out_len), dtype=x.dtype)
    dx = np.zeros(x.shape, dtype=grad_out.dtype)
    for i in range(b):
        for ch in range(c):
            for o in range(out_len):
                best, first = x[i, ch, o * size], 0
                for j in range(1, size):
                    v = x[i, ch, o * size + j]
                    if v > best:
                        first = j
                    best = np.maximum(best, v)
                y[i, ch, o] = best
                dx[i, ch, o * size + first] = grad_out[i, ch, o]
    return y, dx


def global_maxpool_first_max_reference(x, grad_out):
    """The input gradient of a maximum over the whole last axis, by a
    Python loop over every channel of every crop: the channel's gradient
    goes to the first position strictly greater than every one before it,
    except that a NaN counts as the maximum, so a channel with a NaN (whose
    maximum is NaN) sends it to its first NaN. Every other position gets
    +0.0."""
    b, c, length = x.shape
    dx = np.zeros(x.shape, dtype=grad_out.dtype)
    for i in range(b):
        for ch in range(c):
            row = [float(v) for v in x[i, ch]]
            first = 0
            for j, v in enumerate(row):
                if math.isnan(v):
                    first = j
                    break
                if v > row[first]:
                    first = j
            dx[i, ch, first] = grad_out[i, ch, 0]
    return dx


def adam_per_array_reference(groups, learning_rate, t):
    """Adam step t (Kingma & Ba 2015) in place on each (value, grad,
    adam_m, adam_v) group of separate arrays, one group after another,
    with the moment decays 0.9 and 0.999 and epsilon 1e-8; each grad is
    zeroed after its update."""
    b1, b2 = 0.9, 0.999
    for value, grad, m, v in groups:
        m[...] = b1 * m + (1.0 - b1) * grad
        v[...] = b2 * v + (1.0 - b2) * (grad * grad)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        value -= learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        grad[...] = 0


def residual_block_infer_reference(block, x, eps):
    """A residual block's infer forward in float64, one layer at a time:
    conv (np.pad, sliding_window_view, einsum), the batch norm's
    (x - mean) / sqrt(var + eps) * scale + shift, ReLU, conv, batch norm,
    the shortcut (identity or projection conv) added, ReLU. A conv
    without a bias adds zero."""
    def f64(a):
        return np.asarray(a, dtype=np.float64)

    def conv(layer, x):
        k, stride = layer.kernel_size, layer.stride
        length = x.shape[2]
        out_len = -(-length // stride)
        total = max(0, (out_len - 1) * stride + k - length)
        xp = np.pad(x, ((0, 0), (0, 0), (total // 2, total - total // 2)))
        windows = sliding_window_view(xp, k, axis=2)[:, :, ::stride, :]
        y = np.einsum("bcok,fck->bfo", windows, f64(layer.weight.value))
        return y if layer.bias is None else y + f64(layer.bias.value)[None, :, None]

    def bn(layer, x):
        def ch(v):
            return f64(v)[None, :, None]
        return ((x - ch(layer.running_mean)) / np.sqrt(ch(layer.running_var) + eps)
                * ch(layer.scale.value) + ch(layer.shift.value))

    x = f64(x)
    z = np.maximum(bn(block.bn1, conv(block.conv1, x)), 0.0)
    z = bn(block.bn2, conv(block.conv2, z))
    shortcut = conv(block.proj, x) if block.proj is not None else x
    return np.maximum(z + shortcut, 0.0)


def auroc_pairwise_reference(uncertainties, wrong):
    """AUROC of uncertainty for wrong versus right by counting every
    (wrong, right) pair: 1 when the wrong one is more uncertain, 1/2 on a
    tie, 0 otherwise, averaged over the pairs; nan without any pair."""
    wins = pairs = 0.0
    for u_wrong, is_wrong in zip(uncertainties, wrong):
        if not is_wrong:
            continue
        for u_right, other_wrong in zip(uncertainties, wrong):
            if other_wrong:
                continue
            pairs += 1
            wins += 1.0 if u_wrong > u_right else 0.5 if u_wrong == u_right else 0.0
    return wins / pairs if pairs else math.nan


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
