"""Differentiable layer set with manual forward/backward passes.

Just enough machinery for a 1-D convolutional ResNet: convolution, batch
normalization, ReLU, max pooling (non-overlapping windows and global), a
fully-connected layer, floored softplus, Xavier initialization, and the
Adam update. Each layer supports only the shapes the network builds.
Storage is float32 throughout; every layer accepts a dtype override so
tests can run a float64 shadow copy for tight gradient checks.

Parameters live in one flat buffer per role: a model packs its Params
(pack_params) into one FlatParams, whose value and gradient buffers every
Param's value and grad are views into, and which alone holds Adam's two
moment buffers, so an Adam step is one pass per role over the whole
model. A model packs its batch norms' running statistics into one more
buffer the same way (pack_running_stats).

The network uses one value of each layer constant, so the constants are
fixed here beside their layers rather than passed in: Adam's moment
decays and epsilon (ADAM_BETA1, ADAM_BETA2, ADAM_EPS), the batch-norm
momentum and epsilon (BN_MOMENTUM, BN_EPS) and the softplus floor
(SOFTPLUS_FLOOR).

Conventions:
  - Activations are numpy arrays of shape (batch, channels, length),
    C-contiguous ("Tensor3" layout). The dense layer flattens internally.
  - Every layer derives from Layer. forward(x, train) keeps what backward
    needs only when train is true; an infer-mode forward keeps nothing.
    backward(grad) takes what its forward kept out of the layer, so that
    memory is free once it returns, returns the input gradient (None from
    a conv built with input_grad=False) and accumulates parameter
    gradients. A backward after an infer-mode forward, or a second
    backward after one train forward, raises ValueError.
  - What a layer keeps may be the very array its train forward was given
    (a conv, the global max pool, the dense layer and softplus keep their
    input) or returned (a ReLU keeps its output, which the layer after it
    keeps too), so a caller must not write into either until the layer's
    backward has run. Model.forward hands the network a read-only copy of
    the crops.
  - Convolution is cross-correlation (no kernel flip) with "same"
    padding only: the output length is ceil(length / stride), the zeros
    are split as evenly as possible with the extra element on the right.
    The infer forward copies the input once into a zeroed padded buffer
    and reads the windows as a strided view over it. The train passes
    read the unpadded input in place, one tap at a time: the windows whose
    tap j falls inside the input are one run of windows, and the input
    positions they read one strided slice (tap_spans); every other
    window reads a zero.
  - Training is chaotic, so the bits of the train-mode passes decide
    where a run ends up, and they are pinned. The train-mode conv forward
    is lane-major and runs over chunks of whole crops, each chunk's
    (out_ch, crops * out_len) accumulator at most CONV_CHUNK_ELEMS
    elements. Per chunk it copies the chunk's windows into columns of
    shape (in_ch, kernel, crops * out_len), one tap's run of windows at a
    time straight from the input, and zero-fills only the columns of
    windows that read padding. It starts the accumulator at
    the bias (at zero for a conv without one), adds one column times its
    kernel value at a time through one reused product buffer, input
    channel by input channel and tap by tap within each, and writes the
    chunk into its crops of the (batch, out_ch, out_len) output. Every
    output element gets the same float operations in the same order
    whatever the chunk size, so the chunks keep the bits of one pass over
    the whole batch. The conv backward is two GEMMs. The input gradient
    is one matmul per crop for every tap followed by a col2im that adds
    the taps in order, run in the same crop chunks; its adds are pinned.
    The kernel gradient is one GEMM over the whole batch's windows
    copied to (batch * out_len, in_ch * kernel) rows the same way, the
    operand layout np.tensordot builds, so its bits equal tensordot's and
    follow the BLAS build; the rows and the transposed output gradient
    are dropped before the input gradient's products. A conv built with
    input_grad=False (the network's stem, which reads the network input)
    computes no input gradient, and its backward returns None.
  - The infer-mode forward is accurate to float32 rounding rather than
    pinned: the conv is one GEMM per crop and batch norm one affine pass,
    so its bits follow the BLAS build. On one build it is deterministic,
    and each crop's output does not depend on the other crops in its
    batch. Batch norm's infer map (BatchNorm1D.infer_affine) is per
    channel, so a conv directly followed by one can fold it into its
    kernel matrix and a bias and run Conv1D.infer_gemm once: the residual
    blocks of model.py do that, and emit the folded output as the batch
    norm's, so the layer contract and the finite checks hold on the fused
    path. A model folds once per state of its parameters, not per call:
    it keeps the folded matrices in an infer plan with a bitwise snapshot
    of its parameter and running-statistics buffers, and folds again when
    either buffer's bits differ from the snapshot.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

DEFAULT_DTYPE = np.float32

# When enabled (tests, debugging) every forward/backward output is checked
# for NaN/inf before it propagates further.
DEBUG_FINITE_CHECKS = False


class FlatParams:
    """The storage behind a model's packed Params: one contiguous 1-D
    buffer per role, value and grad (the Params' arrays being consecutive
    views into them) and Adam's moments adam_m and adam_v (no Param has a
    view of these), plus the number of Params it holds."""

    __slots__ = ("value", "grad", "adam_m", "adam_v", "count")

    def __init__(self, value: np.ndarray, count: int):
        self.value, self.count = value, count
        self.grad, self.adam_m, self.adam_v = (np.zeros_like(value) for _ in range(3))


class Param:
    """A trainable tensor and its gradient.

    A new Param owns its value and a zero gradient, and flat is None: it
    cannot take an Adam step. pack_params moves a model's Params into one
    FlatParams, which self.flat then names, so that adam_step updates them
    all with one pass per role. Other code writes value and grad in place
    and never rebinds them."""

    __slots__ = ("name", "value", "grad", "flat")

    def __init__(self, value: np.ndarray, name: str = ""):
        self.name = name
        self.value = np.ascontiguousarray(value)
        self.grad = np.zeros(self.value.shape, self.value.dtype)
        self.flat = None


def pack_params(params: list[Param]) -> FlatParams:
    """Move freshly built params into one FlatParams: their values are
    copied, in list order, into one contiguous buffer, the gradients and
    Adam moments start at zero, and each Param's value and grad become
    views into the value and grad buffers (names, shapes and values
    unchanged). Every Param must have the same dtype."""
    flat = FlatParams(np.concatenate([p.value.reshape(-1) for p in params]),
                      len(params))
    offset = 0
    for p in params:
        shape = p.value.shape
        end = offset + p.value.size
        p.flat = flat
        p.value = flat.value[offset:end].reshape(shape)
        p.grad = flat.grad[offset:end].reshape(shape)
        offset = end
    return flat


# Adam's moment decay rates and denominator epsilon (Kingma & Ba 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """The optimizer's step size plus the shared step counter."""

    learning_rate: float = 1e-3
    step_count: int = 0


def xavier_init(shape, fan_in: int, fan_out: int, rng: np.random.Generator,
                dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Uniform Glorot draw on [-sqrt(6/(fan_in+fan_out)), +sqrt(...)]."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError("fan_in and fan_out must be positive")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def adam_step(params: list[Param], state: AdamState) -> None:
    """One Adam update with bias correction over all params, then zero grads.

    The update is one pass per role over the one FlatParams that params
    share: its moments, values and gradients are updated by the same
    elementwise expressions as one array at a time, so every element
    takes the bits it would take alone. params must be every Param of one
    packed buffer, each once, in any order (a model's params() is);
    otherwise ValueError, before the step counter or any array moves. The
    step counter advances exactly once per call regardless of how many
    parameters the model has.
    """
    flat = params[0].flat if params else None
    if (flat is None or len(params) != flat.count
            or any(p.flat is not flat for p in params)
            or len({id(p) for p in params}) != flat.count):
        raise ValueError("adam_step needs every Param of one packed buffer, "
                         "each once")
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correction1 = 1.0 - b1 ** t
    correction2 = 1.0 - b2 ** t
    g = flat.grad
    flat.adam_m[...] = b1 * flat.adam_m + (1.0 - b1) * g
    flat.adam_v[...] = b2 * flat.adam_v + (1.0 - b2) * (g * g)
    m_hat = flat.adam_m / correction1
    v_hat = flat.adam_v / correction2
    flat.value -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    g[...] = 0


def softplus(x: np.ndarray) -> np.ndarray:
    """ln(1 + exp(x)) without overflow: max(x, 0) + log1p(exp(-|x|))."""
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def same_pad_amounts(length: int, kernel: int, stride: int) -> tuple[int, int, int]:
    """(output length, left pad, right pad) for resolution-preserving padding.

    Output length is ceil(length / stride); the zero padding needed to cover
    it is split evenly with the odd element on the right.
    """
    out_len = -(-length // stride)
    total = max(0, (out_len - 1) * stride + kernel - length)
    left = total // 2
    return out_len, left, total - left


@functools.lru_cache(maxsize=128)
def tap_spans(length: int, kernel: int, stride: int):
    """(out_len, spans) of the "same"-padded conv (same_pad_amounts) over
    inputs of this length. Window i's tap j reads input position i *
    stride + j - left; spans[j] is (lo, hi, src): the windows lo .. hi - 1
    read tap j inside the input, at the positions the slice src selects,
    and the other windows read padding. 0 <= lo <= hi <= out_len, and
    lo == hi for a tap that no window reads inside the input. Cached: a
    network asks for the same few geometries at every step."""
    out_len, left, _ = same_pad_amounts(length, kernel, stride)
    spans = []
    for j in range(kernel):
        lo = min(out_len, max(0, -(-(left - j) // stride)))
        hi = max(lo, min(out_len, -(-(length + left - j) // stride)))
        first = lo * stride + j - left
        spans.append((lo, hi, slice(first, first + (hi - lo) * stride, stride)))
    return out_len, tuple(spans)


class Layer:
    """The contract every layer keeps.

    Subclasses set self.name and implement _forward(x, train) ->
    (output, cache) and _backward(grad_out, cache) -> input gradient;
    _forward may skip building the cache when train is false. forward keeps
    the cache only in train mode, so an infer-mode forward leaves nothing
    behind and a backward after it raises. backward takes the cache out of
    the layer before _backward runs: a second backward raises too, and
    the cache is freed when _backward returns, so during a network's
    backward each layer's cache is gone before the layers below it run
    theirs. A cache may hold the forward's input array itself; writing
    into that array before the backward changes the gradients. With
    DEBUG_FINITE_CHECKS set, every forward and backward output is checked
    for NaN/inf (a backward that returns None has none).
    """

    _cache = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        y, cache = self._forward(x, train)
        return self.emit(y, cache if train else None)

    def emit(self, y: np.ndarray, cache=None) -> np.ndarray:
        """Hand y on as this layer's output: keep cache for backward (None
        drops any earlier one) and, with DEBUG_FINITE_CHECKS set, check y.
        A fused infer path that computes a layer's output without calling
        its forward emits the output here, so the contract still holds."""
        self._cache = cache
        if DEBUG_FINITE_CHECKS and not np.isfinite(y).all():
            raise FloatingPointError(f"non-finite values leaving {self.name}")
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        cache, self._cache = self._cache, None
        if cache is None:
            raise ValueError(
                f"{self.name}: backward requires a preceding train-mode forward")
        dx = self._backward(grad_out, cache)
        if DEBUG_FINITE_CHECKS and dx is not None and not np.isfinite(dx).all():
            raise FloatingPointError(f"non-finite gradient leaving {self.name}")
        return dx


# The train-mode conv runs over chunks of whole crops whose (out_ch,
# crops * out_len) accumulator holds at most this many elements (512 KiB
# of float32), so that a chunk's columns, accumulator and product stay in
# a 2 MB L2 at the paper stem's 4 MB output. Measured on a paper train
# step at batch 64, 2**16 and 2**17 were within noise of each other and
# 2**18 was slower. Chunks hold whole crops: at the stem, chunks of 4096
# columns that split crops took 2.4 times as long as whole-crop chunks.
CONV_CHUNK_ELEMS = 2 ** 17


class Conv1D(Layer):
    """1-D cross-correlation with optional striding and "same" padding:
    the output length is ceil(length / stride).

    The infer-mode forward is the im2col GEMM of Chellapilla et al.
    (2006): each crop's windows are copied to (in_ch * kernel, out_len)
    columns and multiplied by the (out_ch, in_ch * kernel) kernel matrix.
    It is accurate to float32 rounding, and its bits follow the BLAS
    build. The train-mode forward lays the same windows out as (in_ch,
    kernel, crops * out_len) columns and sums them into the output in a
    fixed (input channel, tap) order, so its output is pinned bit for
    bit. It fills the columns straight from the unpadded input, one tap's
    run of windows at a time (tap_spans), with zeros for the windows that
    read padding, and it keeps the input array itself, not a copy, for
    the backward. It runs over chunks of whole crops whose accumulator
    holds at most CONV_CHUNK_ELEMS elements, so that the columns, the
    accumulator and the one product buffer stay in L2 at the paper stem's
    (64, 8, 2048) output; each output element still takes the same
    operations in the same order. The backward is two BLAS matrix
    products. The kernel gradient is np.tensordot's GEMM on the same
    (batch * out_len, in_ch * kernel) operand, filled from the kept input
    one tap at a time, so its bits are tensordot's and follow the BLAS
    build; that operand and the transposed output gradient are freed
    before the input gradient is computed. The input gradient is one
    matmul per crop, run in the same crop chunks, and its col2im adds the
    taps in a fixed order, straight into the unpadded gradient.

    With input_grad=False the backward computes only the parameter
    gradients and returns None: a conv that reads the network input, as
    the stem does, has no caller for its input gradient.

    With bias=False the layer has no bias: self.bias is None, params()
    holds only the weight, and the backward computes no bias gradient. Its
    output is that of the same conv with a zero bias, byte for byte in
    train mode; in infer mode an output of exactly zero may keep a
    negative sign that adding a zero bias would clear. A conv whose output
    feeds a batch norm takes it: the batch norm cancels any per-channel
    constant, so such a bias would have no effect on the output and only a
    rounding-residue gradient."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int = 1, *,
                 rng: np.random.Generator, bias: bool = True,
                 input_grad: bool = True, dtype=DEFAULT_DTYPE,
                 name: str = "conv"):
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.input_grad = input_grad
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.kernel_size = kernel
        self.stride = stride
        self.name = name
        self.weight = Param(
            xavier_init((out_ch, in_ch, kernel), in_ch * kernel, out_ch * kernel,
                        rng, dtype),
            name=f"{name}.weight",
        )
        self.bias = (Param(np.zeros(out_ch, dtype=dtype), name=f"{name}.bias")
                     if bias else None)

    def params(self) -> list[Param]:
        return [self.weight] if self.bias is None else [self.weight, self.bias]

    def _chunk_crops(self, out_len: int) -> int:
        """Crops per chunk of the train passes: as many whole crops as keep
        the (out_ch, crops * out_len) accumulator within CONV_CHUNK_ELEMS,
        and at least one."""
        return max(1, CONV_CHUNK_ELEMS // (self.out_ch * out_len))

    def _input_shape(self, x):
        """x's (batch, in_ch, length), after checking its channel count."""
        b, c, length = x.shape
        if c != self.in_ch:
            raise ValueError(f"{self.name}: expected {self.in_ch} channels, got {c}")
        return b, c, length

    def _windows(self, x):
        """The (batch, in_ch, out_len, kernel) windows of x as a read-only
        strided view over a zero-padded copy, window i, tap j reading
        padded position i * stride + j."""
        b, c, length = self._input_shape(x)
        kernel, stride = self.kernel_size, self.stride
        out_len, left, right = same_pad_amounts(length, kernel, stride)
        xp = np.zeros((b, c, left + length + right), dtype=x.dtype)
        xp[:, :, left : left + length] = x
        s0, s1, s2 = xp.strides
        windows = np.ndarray((b, c, out_len, kernel), xp.dtype, xp, 0,
                             (s0, s1, s2 * stride, s2))
        windows.flags.writeable = False
        return windows

    def infer_gemm(self, x, matrix, bias):
        """The infer-mode forward with the given (out_ch, in_ch * kernel)
        kernel matrix and (out_ch,) bias, or None for no bias: one GEMM per
        crop over (in_ch * kernel, out_len) columns, the output already in
        (batch, out_ch, out_len) layout. Its sums run in the BLAS kernel's
        order. The layer's own infer forward passes its parameters; a
        residual block passes the matrix and bias of its infer plan, which
        fold the following batch norm in. Running it is an infer forward
        of this layer, so it drops any train cache."""
        self._cache = None
        windows = self._windows(x)
        b, c, out_len, kernel = windows.shape
        cols = windows.transpose(0, 1, 3, 2).reshape(b, c * kernel, out_len)
        y = np.matmul(matrix, cols)
        if bias is not None:
            y += bias[:, None]
        return y

    def _forward(self, x, train):
        if not train:
            # Training keeps the lane-major loop below: perfbench's paper
            # loss replay is chaotic, and the GEMM in the train forward
            # moved its step-5 loss by 7.2e-2 against rtol 1e-3.
            bias = None if self.bias is None else self.bias.value
            return self.infer_gemm(x, self.weight.value.reshape(self.out_ch, -1),
                                   bias), None
        b, c, length = self._input_shape(x)
        out_len, spans = tap_spans(length, self.kernel_size, self.stride)
        kernel = self.kernel_size
        k = self.weight.value
        out_ch = self.out_ch
        start = 0 if self.bias is None else self.bias.value[:, None]
        y = np.empty((b, out_ch, out_len), dtype=x.dtype)
        step = self._chunk_crops(out_len)
        # One chunk's lane-major columns (a contiguous run of crops *
        # out_len samples per (input channel, tap)), accumulator and
        # product, reused by every chunk.
        n_max = min(b, step) * out_len
        cols_buf = np.empty(c * kernel * n_max, dtype=x.dtype)
        acc_buf = np.empty(out_ch * n_max, dtype=x.dtype)
        prod_buf = np.empty(out_ch * n_max, dtype=x.dtype)
        for b0 in range(0, b, step):
            chunk = x[b0 : b0 + step].transpose(1, 0, 2)
            crops = chunk.shape[1]
            n = crops * out_len
            cols = cols_buf[: c * kernel * n].reshape(c, kernel, crops, out_len)
            _gather_taps(cols.transpose(1, 0, 2, 3), chunk, spans)
            cols = cols.reshape(c, kernel, n)
            acc = acc_buf[: out_ch * n].reshape(out_ch, n)
            prod = prod_buf[: out_ch * n].reshape(out_ch, n)
            acc[...] = start
            # Accumulate channel-major then tap-major so the summation
            # order per output element is fixed (bitwise-reproducible,
            # oracle-matchable).
            for ci in range(c):
                for j in range(kernel):
                    np.multiply(k[:, ci, j, None], cols[ci, j], out=prod)
                    acc += prod
            y[b0 : b0 + crops] = acc.reshape(out_ch, crops, out_len).transpose(1, 0, 2)
        return y, x

    def _backward(self, grad_out, x):
        b, in_ch, length = x.shape
        out_len, spans = tap_spans(length, self.kernel_size, self.stride)
        kernel = self.kernel_size
        if grad_out.shape != (b, self.out_ch, out_len):
            raise ValueError(f"{self.name}: grad shape {grad_out.shape} does not "
                             f"match forward output {(b, self.out_ch, out_len)}")
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=(0, 2))
        # dW: im2col into (b, out_len, in_ch, kernel) rows, filled one tap at
        # a time, and one GEMM over the batch and output positions. Both
        # operands are laid out as np.tensordot lays them out, so the GEMM
        # returns tensordot's bits. Both are dropped before the dX products.
        rows = np.empty((b, out_len, in_ch, kernel), dtype=x.dtype)
        _gather_taps(rows.transpose(3, 0, 2, 1), x, spans)
        g = grad_out.transpose(1, 0, 2).reshape(self.out_ch, b * out_len)
        dw = np.dot(g, rows.reshape(b * out_len, in_ch * kernel))
        del rows, g
        self.weight.grad += dw.reshape(self.out_ch, in_ch, kernel)
        if not self.input_grad:
            return None
        # dX, chunk by chunk of whole crops: one matmul per crop gives every
        # tap's contribution, then col2im adds each tap's columns, tap by
        # tap, into the input positions it read (padding positions are
        # skipped).
        k = self.weight.value.reshape(self.out_ch, in_ch * kernel)
        dx = np.zeros((b, in_ch, length), dtype=grad_out.dtype)
        step = self._chunk_crops(out_len)
        for b0 in range(0, b, step):
            cols = k.T @ grad_out[b0 : b0 + step]
            cols = cols.reshape(-1, in_ch, kernel, out_len)
            dx_chunk = dx[b0 : b0 + step]
            for j, (lo, hi, src) in enumerate(spans):
                if lo < hi:
                    dx_chunk[:, :, src] += cols[:, :, j, lo:hi]
        return dx


def _gather_taps(taps, x, spans) -> None:
    """Fill each tap's windows from x, for the train passes' im2col:
    taps[j][..., i] becomes the value window i reads at tap j, the input
    element that spans[j] (tap_spans) selects from x's last axis, or
    zero where the window reads padding. Zeros are written only where a
    span ends before an edge."""
    for dest, (lo, hi, src) in zip(taps, spans):
        if lo:
            dest[..., :lo] = 0
        if hi < dest.shape[-1]:
            dest[..., hi:] = 0
        if lo < hi:
            dest[..., lo:hi] = x[..., src]


# Every batch norm's running-statistics momentum and variance epsilon;
# checkpoints record both, and a file declaring other values is rejected.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


class BatchNorm1D(Layer):
    """Per-channel batch normalization over the (batch, spatial) axes
    (Ioffe & Szegedy 2015).

    The train-mode output, running statistics and gradients are bit for
    bit those of the np.mean / np.var formula. The train forward keeps the
    normalized input x-hat and the per-channel 1 / std for the backward,
    and writes its output into the buffer of the squared deviations it
    has just summed, so it allocates two batch-sized arrays, not three.
    In infer mode the layer is
    a fixed per-channel affine map, x * a + c with a = scale /
    sqrt(running_var + BN_EPS) and c = shift - running_mean * a, recomputed
    from the current parameters on every call and applied in one pass; it
    is accurate to float32 rounding, not bit-equal to the train formula
    with the running statistics."""

    def __init__(self, channels: int, *, dtype=DEFAULT_DTYPE, name: str = "bn"):
        self.channels = channels
        self.name = name
        self.scale = Param(np.ones(channels, dtype=dtype), name=f"{name}.scale")
        self.shift = Param(np.zeros(channels, dtype=dtype), name=f"{name}.shift")
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def params(self) -> list[Param]:
        return [self.scale, self.shift]

    def infer_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, c) of the infer-mode map y = x * a + c, per channel:
        a = scale / sqrt(running_var + BN_EPS), c = shift - running_mean * a.
        Computed from the current parameters on every call. This layer's
        own infer forward keeps nothing; a model keeps the maps of its
        residual blocks, folded into their convs, in an infer plan that it
        checks bit for bit against the live parameters and statistics
        before every use, so an Adam step, a train pass or a checkpoint
        load cannot leave a stale map."""
        a = self.scale.value / np.sqrt(self.running_var + BN_EPS)
        return a, self.shift.value - self.running_mean * a

    def _forward(self, x, train):
        b, c, length = x.shape
        if c != self.channels:
            raise ValueError(f"{self.name}: expected {self.channels} channels, got {c}")
        if not train:
            a, c = self.infer_affine()
            y = x * a[None, :, None]
            y += c[None, :, None]
            return y, None
        # The batch is centered once; the variance is the mean square of
        # that centered copy, the float ops np.var runs.
        n = b * length
        mean = x.mean(axis=(0, 2))
        xhat = x - mean[None, :, None]
        squares = np.square(xhat)
        var = squares.sum(axis=(0, 2)) / n
        m = BN_MOMENTUM
        self.running_mean[...] = (1.0 - m) * self.running_mean + m * mean
        self.running_var[...] = (1.0 - m) * self.running_var + m * var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std[None, :, None]
        # The squares are spent, so their buffer takes the output.
        y = np.multiply(self.scale.value[None, :, None], xhat, out=squares)
        y += self.shift.value[None, :, None]
        return y, (xhat, inv_std, n)

    def _backward(self, grad_out, cache):
        xhat, inv_std, n = cache
        # One scratch array holds each full-size product in turn, and dxhat
        # turns into the input gradient in place.
        scratch = grad_out * xhat
        self.scale.grad += scratch.sum(axis=(0, 2))
        self.shift.grad += grad_out.sum(axis=(0, 2))
        dxhat = grad_out * self.scale.value[None, :, None]
        sum_dxhat = dxhat.sum(axis=(0, 2), keepdims=True)
        sum_dxhat_xhat = np.multiply(dxhat, xhat, out=scratch).sum(
            axis=(0, 2), keepdims=True)
        dxhat *= n
        dxhat -= sum_dxhat
        dxhat -= np.multiply(xhat, sum_dxhat_xhat, out=scratch)
        dxhat *= inv_std[None, :, None] / n
        return dxhat


def pack_running_stats(bns: list[BatchNorm1D]) -> np.ndarray:
    """Move the batch norms' running statistics into one contiguous
    buffer, the way pack_params moves Params: each norm's running mean
    then running variance, in list order, copied in, and each norm's two
    arrays become views into the buffer (values unchanged). Every norm
    must have the same dtype. Returns the buffer."""
    flat = np.concatenate([s for bn in bns for s in (bn.running_mean, bn.running_var)])
    offset = 0
    for bn in bns:
        c = bn.channels
        bn.running_mean = flat[offset:offset + c]
        bn.running_var = flat[offset + c:offset + 2 * c]
        offset += 2 * c
    return flat


class ReLU(Layer):
    """max(x, 0). The gradient at exactly 0 is 0, so it flows where y > 0,
    which is where x > 0 (a NaN fails both). The train forward keeps its
    output y, not a mask: in the network the next layer keeps y as its
    input anyway, so y > 0 is taken in the backward at no memory cost. A
    caller must not write into y before the backward."""

    def __init__(self, name: str = "relu"):
        self.name = name

    def _forward(self, x, train):
        y = np.maximum(x, 0)
        return y, y

    def _backward(self, grad_out, y):
        return grad_out * (y > 0)


class MaxPool1D(Layer):
    """Max pooling over non-overlapping windows (the stride is the window
    size, at most 256); a trailing remainder shorter than a window is
    dropped. The gradient flows to the first max of each window; a NaN in
    a window makes its output NaN. The backward writes every window's
    gradient into a zeroed input gradient with one flat index per window,
    row * length + window * size + argmax (a row is one crop's channel),
    so the dropped remainder and every other position keep +0.0."""

    def __init__(self, size: int, name: str = "pool"):
        if not 1 <= size <= 256:
            raise ValueError("size must be in [1, 256]")
        self.size = size
        self.name = name

    def _forward(self, x, train):
        b, c, length = x.shape
        if length < self.size:
            raise ValueError(
                f"{self.name}: input length {length} shorter than window {self.size}"
            )
        out_len = length // self.size
        windows = x[:, :, :out_len * self.size].reshape(b, c, out_len, self.size)
        # A running maximum over the window positions; a position wins only
        # when strictly greater, so a tie keeps the first max. In training
        # the argmax (uint8, hence the size bound) is taken from the
        # comparison itself: tap 1's comparison is the argmax so far, and
        # each later tap selects its index where it wins.
        y = windows[..., 0].copy()
        argmax = (np.zeros(y.shape, dtype=np.uint8) if train and self.size == 1
                  else None)
        for j in range(1, self.size):
            column = windows[..., j]
            if train:
                wins = column > y
                argmax = wins.view(np.uint8) if j == 1 else np.where(wins, j, argmax)
            np.maximum(y, column, out=y)
        return y, ((argmax, length) if train else None)

    def _backward(self, grad_out, cache):
        argmax, length = cache
        b, c, out_len = argmax.shape
        dx = np.zeros((b, c, length), dtype=grad_out.dtype)
        index = (np.arange(0, b * c * length, length)[:, None]
                 + np.arange(0, out_len * self.size, self.size))
        index += argmax.reshape(b * c, out_len)
        dx.reshape(-1)[index.reshape(-1)] = grad_out.reshape(-1)
        return dx


class GlobalMaxPool(Layer):
    """Maximum over the whole spatial axis; output length is 1. The
    backward routes each channel's gradient to its first maximum, found
    from the input that the forward keeps, with one flat index per row
    (one crop's channel), row * length + argmax, into a zeroed input
    gradient; every other position keeps +0.0. The argmax is left to the
    backward, which only training runs: inside a paper-preset `predict`
    on a 2-core host, the forward took 21-24 us as x.max and 62-76 us as
    a gather at the argmax (np.take_along_axis)."""

    def __init__(self, name: str = "gpool"):
        self.name = name

    def _forward(self, x, train):
        return x.max(axis=2, keepdims=True), x

    def _backward(self, grad_out, x):
        b, c, length = x.shape
        dx = np.zeros(x.shape, dtype=grad_out.dtype)
        index = np.arange(0, b * c * length, length) + x.argmax(axis=2).reshape(-1)
        dx.reshape(-1)[index] = grad_out.reshape(-1)
        return dx


class Dense(Layer):
    """Fully-connected layer; flattens (batch, channels, length) input."""

    def __init__(self, in_features: int, out_features: int, *,
                 rng: np.random.Generator, dtype=DEFAULT_DTYPE, name: str = "dense"):
        self.in_features = in_features
        self.out_features = out_features
        self.name = name
        self.weight = Param(
            xavier_init((in_features, out_features), in_features, out_features,
                        rng, dtype),
            name=f"{name}.weight",
        )
        self.bias = Param(np.zeros(out_features, dtype=dtype), name=f"{name}.bias")

    def params(self) -> list[Param]:
        return [self.weight, self.bias]

    def _forward(self, x, train):
        flat = x.reshape(x.shape[0], -1)
        if flat.shape[1] != self.in_features:
            raise ValueError(f"{self.name}: expected {self.in_features} features, "
                             f"got {flat.shape[1]}")
        y = np.einsum("bf,fo->bo", flat, self.weight.value) + self.bias.value
        return y, (flat, x.shape)

    def _backward(self, grad_out, cache):
        flat, x_shape = cache
        self.weight.grad += np.einsum("bf,bo->fo", flat, grad_out)
        self.bias.grad += grad_out.sum(axis=0)
        dx = np.einsum("bo,fo->bf", grad_out, self.weight.value)
        return dx.reshape(x_shape)


# Softplus outputs are floored here so the beta likelihood stays finite
# even if float32 softplus underflows.
SOFTPLUS_FLOOR = 1e-6


class Softplus(Layer):
    """Elementwise ln(1+exp(x)), floored at SOFTPLUS_FLOOR to keep outputs
    positive; the clamped elements get zero gradient."""

    def __init__(self, name: str = "softplus"):
        self.name = name

    def _forward(self, x, train):
        y = softplus(x)
        floored = np.maximum(y, np.asarray(SOFTPLUS_FLOOR, dtype=y.dtype))
        # Infer mode builds no floor mask; backward is its only reader.
        return floored, ((x, y > SOFTPLUS_FLOOR) if train else None)

    def _backward(self, grad_out, cache):
        x, flo_mask = cache
        return grad_out * sigmoid(x) * flo_mask
