"""Differentiable layer set with manual forward/backward passes.

Just enough machinery for a 1-D convolutional ResNet: convolution, batch
normalization, ReLU, max pooling (non-overlapping windows and global), a
fully-connected layer, floored softplus, Xavier initialization, and the
Adam update. Each layer supports only the shapes the network builds.
Storage is float32 throughout; every layer accepts a dtype override so
tests can run a float64 shadow copy for tight gradient checks.

Conventions:
  - Activations are numpy arrays of shape (batch, channels, length),
    C-contiguous ("Tensor3" layout). The dense layer flattens internally.
  - Every layer derives from Layer. forward(x, train) keeps what backward
    needs only when train is true; an infer-mode forward keeps nothing, and
    a backward after it raises ValueError. backward(grad) returns the input
    gradient and accumulates parameter gradients.
  - Convolution is cross-correlation (no kernel flip) with "same"
    padding only: the output length is ceil(length / stride), the zeros
    are split as evenly as possible with the extra element on the right.
    The forward is lane-major: it copies the strided windows once into
    columns of shape (in_ch, kernel, batch * out_len), adds one column at
    a time into an (out_ch, batch * out_len) accumulator started at the
    bias, input channel by input channel and tap by tap within each, and
    transposes the result once to (batch, out_ch, out_len). That
    accumulation order is fixed, and its bits are the pinned contract.
    The backward is two GEMMs (im2col for the kernel gradient, one matmul
    plus col2im for the input gradient): reproducible from run to run and
    checked against a naive oracle, but its bits follow the BLAS build and
    are not pinned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_DTYPE = np.float32

# When enabled (tests, debugging) every forward/backward output is checked
# for NaN/inf before it propagates further.
DEBUG_FINITE_CHECKS = False


class Param:
    """A trainable tensor with its gradient and Adam moment buffers."""

    __slots__ = ("name", "value", "grad", "adam_m", "adam_v")

    def __init__(self, value: np.ndarray, name: str = ""):
        self.name = name
        self.value = np.ascontiguousarray(value)
        self.grad = np.zeros_like(self.value)
        self.adam_m = np.zeros_like(self.value)
        self.adam_v = np.zeros_like(self.value)

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0


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

    The step counter advances exactly once per call regardless of how many
    parameters the model has.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correction1 = 1.0 - b1 ** t
    correction2 = 1.0 - b2 ** t
    for p in params:
        g = p.grad
        p.adam_m[...] = b1 * p.adam_m + (1.0 - b1) * g
        p.adam_v[...] = b2 * p.adam_v + (1.0 - b2) * (g * g)
        m_hat = p.adam_m / correction1
        v_hat = p.adam_v / correction2
        p.value -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p.zero_grad()


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


class Layer:
    """The contract every layer keeps.

    Subclasses set self.name and implement _forward(x, train) ->
    (output, cache) and _backward(grad_out, cache) -> input gradient;
    _forward may skip building the cache when train is false. forward keeps
    the cache only in train mode, so an infer-mode forward leaves nothing
    behind and a backward after it raises. With DEBUG_FINITE_CHECKS set,
    every forward and backward output is checked for NaN/inf.
    """

    _cache = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        y, cache = self._forward(x, train)
        self._cache = cache if train else None
        if DEBUG_FINITE_CHECKS and not np.isfinite(y).all():
            raise FloatingPointError(f"non-finite values leaving {self.name}")
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ValueError(
                f"{self.name}: backward requires a preceding train-mode forward")
        dx = self._backward(grad_out, self._cache)
        if DEBUG_FINITE_CHECKS and not np.isfinite(dx).all():
            raise FloatingPointError(f"non-finite gradient leaving {self.name}")
        return dx


class Conv1D(Layer):
    """1-D cross-correlation with optional striding and "same" padding:
    the output length is ceil(length / stride).

    The forward lays the windows out as (in_ch, kernel, batch * out_len)
    columns (the im2col layout of Chellapilla et al. 2006, without a
    GEMM) and sums them into the output in a fixed (input channel, tap)
    order, so its output is pinned bit for bit. The backward is two BLAS
    matrix products: reproducible from run to run and matched against a
    naive oracle, not bit-pinned."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int = 1, *,
                 rng: np.random.Generator, dtype=DEFAULT_DTYPE, name: str = "conv"):
        if stride < 1:
            raise ValueError("stride must be >= 1")
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
        self.bias = Param(np.zeros(out_ch, dtype=dtype), name=f"{name}.bias")

    def params(self) -> list[Param]:
        return [self.weight, self.bias]

    def _forward(self, x, train):
        b, c, length = x.shape
        if c != self.in_ch:
            raise ValueError(f"{self.name}: expected {self.in_ch} channels, got {c}")
        out_len, left, right = same_pad_amounts(length, self.kernel_size, self.stride)
        xp = np.pad(x, ((0, 0), (0, 0), (left, right)))
        windows = sliding_window_view(xp, self.kernel_size, axis=2)[:, :, ::self.stride, :]
        # Lane-major columns: one contiguous run of batch * out_len samples
        # per (input channel, tap), copied once from the strided windows.
        cols = windows.transpose(1, 3, 0, 2).reshape(c, self.kernel_size, b * out_len)
        k = self.weight.value
        acc = np.empty((self.out_ch, b * out_len), dtype=x.dtype)
        acc[...] = self.bias.value[:, None]
        # Accumulate channel-major then tap-major so the summation order per
        # output element is fixed (bitwise-reproducible, oracle-matchable).
        for ci in range(self.in_ch):
            for j in range(self.kernel_size):
                acc += k[:, ci, j, None] * cols[ci, j]
        y = np.ascontiguousarray(
            acc.reshape(self.out_ch, b, out_len).transpose(1, 0, 2))
        return y, (windows, length, left, xp.shape[2])

    def _backward(self, grad_out, cache):
        windows, length, left, padded_len = cache
        b, _, out_len, _ = windows.shape
        if grad_out.shape != (b, self.out_ch, out_len):
            raise ValueError(f"{self.name}: grad shape {grad_out.shape} does not "
                             f"match forward output {(b, self.out_ch, out_len)}")
        self.bias.grad += grad_out.sum(axis=(0, 2))
        # dW: im2col (tensordot copies the windows to (b*out_len, in_ch*kernel))
        # and one GEMM over the batch and output positions.
        self.weight.grad += np.tensordot(grad_out, windows, axes=([0, 2], [0, 2]))
        # dX: one matmul gives every tap's contribution, then col2im adds
        # each tap's columns into the padded input at its stride.
        k = self.weight.value.reshape(self.out_ch, self.in_ch * self.kernel_size)
        cols = (k.T @ grad_out).reshape(b, self.in_ch, self.kernel_size, out_len)
        dxp = np.zeros((b, self.in_ch, padded_len), dtype=grad_out.dtype)
        for j in range(self.kernel_size):
            dxp[:, :, j : j + out_len * self.stride : self.stride] += cols[:, :, j]
        return np.ascontiguousarray(dxp[:, :, left : left + length])


class BatchNorm1D(Layer):
    """Per-channel batch normalization over the (batch, spatial) axes.

    The train-mode output, running statistics and gradients are bit for
    bit those of the np.mean / np.var formula."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5,
                 *, dtype=DEFAULT_DTYPE, name: str = "bn"):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.name = name
        self.scale = Param(np.ones(channels, dtype=dtype), name=f"{name}.scale")
        self.shift = Param(np.zeros(channels, dtype=dtype), name=f"{name}.shift")
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def params(self) -> list[Param]:
        return [self.scale, self.shift]

    def _forward(self, x, train):
        b, c, length = x.shape
        if c != self.channels:
            raise ValueError(f"{self.name}: expected {self.channels} channels, got {c}")
        if train:
            # The batch is centered once; the variance is the mean square of
            # that centered copy, the float ops np.var runs.
            n = b * length
            mean = x.mean(axis=(0, 2))
            xhat = x - mean[None, :, None]
            var = np.square(xhat).sum(axis=(0, 2)) / n
            m = self.momentum
            self.running_mean[...] = (1.0 - m) * self.running_mean + m * mean
            self.running_var[...] = (1.0 - m) * self.running_var + m * var
        else:
            xhat = x - self.running_mean[None, :, None]
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv_std[None, :, None]
        y = self.scale.value[None, :, None] * xhat
        y += self.shift.value[None, :, None]
        return y, ((xhat, inv_std, n) if train else None)

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


class ReLU(Layer):
    def __init__(self, name: str = "relu"):
        self.name = name

    def _forward(self, x, train):
        # Gradient at exactly 0 is defined as 0, so the mask is strict.
        return np.maximum(x, 0), (x > 0 if train else None)

    def _backward(self, grad_out, mask):
        return grad_out * mask


class MaxPool1D(Layer):
    """Max pooling over non-overlapping windows (the stride is the window
    size); a trailing remainder shorter than a window is dropped. The
    gradient flows to the first max of each window; a NaN in a window makes
    its output NaN."""

    def __init__(self, size: int, name: str = "pool"):
        if size < 1:
            raise ValueError("size must be >= 1")
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
        # when strictly greater, so a tie keeps the first max.
        y = windows[..., 0].copy()
        argmax = np.zeros((b, c, out_len), dtype=np.intp) if train else None
        for j in range(1, self.size):
            column = windows[..., j]
            if train:
                np.copyto(argmax, j, where=column > y)
            np.maximum(y, column, out=y)
        return y, ((argmax[..., None], length) if train else None)

    def _backward(self, grad_out, cache):
        argmax, length = cache
        b, c, out_len, _ = argmax.shape
        dwin = np.zeros((b, c, out_len, self.size), dtype=grad_out.dtype)
        np.put_along_axis(dwin, argmax, grad_out[..., None], axis=3)
        dx = dwin.reshape(b, c, out_len * self.size)
        if dx.shape[2] < length:  # the dropped remainder gets zero gradient
            dx = np.pad(dx, ((0, 0), (0, 0), (0, length - dx.shape[2])))
        return dx


class GlobalMaxPool(Layer):
    """Maximum over the whole spatial axis; output length is 1."""

    def __init__(self, name: str = "gpool"):
        self.name = name

    def _forward(self, x, train):
        argmax = x.argmax(axis=2)
        y = np.take_along_axis(x, argmax[..., None], axis=2)
        return y, (argmax, x.shape)

    def _backward(self, grad_out, cache):
        argmax, x_shape = cache
        dx = np.zeros(x_shape, dtype=grad_out.dtype)
        np.put_along_axis(dx, argmax[..., None], grad_out, axis=2)
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


class Softplus(Layer):
    """Elementwise ln(1+exp(x)), floored to keep outputs positive; the
    clamped elements get zero gradient."""

    def __init__(self, floor: float = 0.0, name: str = "softplus"):
        self.floor = floor
        self.name = name

    def _forward(self, x, train):
        y = softplus(x)
        flo_mask = y > self.floor
        y = np.maximum(y, np.asarray(self.floor, dtype=y.dtype))
        return y, (x, flo_mask)

    def _backward(self, grad_out, cache):
        x, flo_mask = cache
        return grad_out * sigmoid(x) * flo_mask
