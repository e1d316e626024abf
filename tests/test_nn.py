"""Layer-level tests: hand-checked values, naive oracles, finite differences.

Gradient checks run twice where it matters: float32 layers against coarse
central differences (h=1e-2, rel 1e-3) and float64 shadow layers against
fine ones (h=1e-6, rel 1e-6).
"""

import numpy as np
import pytest

from betamix.model import ResidualBlock, build_model
from betamix.nn import (
    BN_EPS,
    BN_MOMENTUM,
    AdamState,
    BatchNorm1D,
    Conv1D,
    Dense,
    GlobalMaxPool,
    MaxPool1D,
    Param,
    ReLU,
    Softplus,
    adam_step,
    pack_params,
    same_pad_amounts,
    sigmoid,
    softplus,
    tap_spans,
    xavier_init,
)
from conftest import (
    adam_per_array_reference,
    batchnorm_train_reference,
    conv1d_backward_reference,
    global_maxpool_first_max_reference,
    maxpool_argmax_reference,
    maxpool_first_max_reference,
    numeric_grad,
    rel_err,
)


# Conv1D forward cases: (batch, in_ch, out_ch, kernel, stride, length,
# dtype, bias). Ids such as "2-same" name the stride and the padding of a
# case; the named ones are the edges of the train forward's (in_ch,
# kernel, batch * out_len) column layout and the infer forward's per-crop
# (in_ch * kernel, out_len) GEMM operand. "no-bias" is a conv built with
# bias=False, as every conv that feeds a batch norm is. The train passes
# read the input in place, one tap's run of windows at a time (tap_spans),
# so the "span" cases, each with and without a bias, put a run's end at
# every edge: a tap that no window reads inside the input (an input
# shorter than the kernel), one window, odd lengths at stride 2 and the
# kernel-1 projection.
FORWARD_CASE_ARGS = "batch,in_ch,out_ch,kernel,stride,length,dtype,bias"
SPAN_CASES = [
    ((2, 5, 1, 2), "shorter_than_kernel-empty_taps"),
    ((2, 5, 2, 3), "shorter_than_kernel-2"),
    ((2, 3, 1, 1), "len1"),
    ((2, 5, 1, 1), "len1-k5"),
    ((2, 3, 2, 5), "odd-2"),
    ((1, 5, 2, 9), "odd-2-k5"),
    ((3, 1, 2, 17), "projection-odd"),
    ((3, 1, 2, 1), "projection-len1"),
]
FORWARD_CASES = [
    (2, 3, 4, 5, 1, 17, np.float32, True),
    (2, 3, 4, 5, 2, 17, np.float32, True),
    (2, 3, 4, 5, 3, 17, np.float32, True),
    (1, 3, 4, 3, 1, 9, np.float32, True),
    (3, 2, 3, 3, 2, 1, np.float32, True),
    (3, 2, 3, 3, 2, 2, np.float32, True),
    (4, 1, 8, 5, 1, 32, np.float32, True),
    (4, 8, 8, 1, 2, 16, np.float32, True),
    (64, 20, 20, 3, 1, 8, np.float32, True),
    (2, 3, 4, 5, 2, 17, np.float64, True),
    (4, 8, 12, 3, 2, 33, np.float32, False),
    *[(3, in_ch, 4, kernel, stride, length, np.float32, bias)
      for (in_ch, kernel, stride, length), _ in SPAN_CASES
      for bias in (True, False)],
]
FORWARD_CASE_IDS = ["1-same", "2-same", "3-same", "batch1", "out_len1-len1",
                    "out_len1-len2", "stem", "projection", "batch64-20ch",
                    "float64", "no-bias",
                    *[f"span-{name}{suffix}" for _, name in SPAN_CASES
                      for suffix in ("", "-no-bias")]]


def conv_with_bias(in_ch, out_ch, kernel, stride, dtype, bias, rng):
    """(layer, bias the oracles add): a Conv1D given a random bias, or one
    built with bias=False, checked to hold only its weight in params(),
    with a zero bias for the oracles."""
    layer = Conv1D(in_ch, out_ch, kernel, stride=stride, rng=rng, bias=bias,
                   dtype=dtype)
    if bias:
        layer.bias.value[...] = rng.normal(size=out_ch)
        return layer, layer.bias.value
    assert layer.bias is None and layer.params() == [layer.weight]
    return layer, np.zeros(out_ch, dtype=dtype)


def zero_bias_twin(layer):
    """A conv with layer's kernel and a zero bias."""
    twin = Conv1D(layer.in_ch, layer.out_ch, layer.kernel_size, layer.stride,
                  rng=np.random.default_rng(0), dtype=layer.weight.value.dtype)
    twin.weight.value[...] = layer.weight.value
    return twin


def naive_conv1d(x, kernel, bias, stride):
    """Quadruple-loop "same"-padded cross-correlation accumulating in the
    input's float type, in the same (channel, tap) order the layer uses."""
    b, c, length = x.shape
    out_ch, _, k = kernel.shape
    real = x.dtype.type
    out_len = -(-length // stride)
    total = max(0, (out_len - 1) * stride + k - length)
    left = total // 2
    xp = np.pad(x, ((0, 0), (0, 0), (left, total - left)))
    y = np.zeros((b, out_ch, out_len), dtype=x.dtype)
    for bi in range(b):
        for f in range(out_ch):
            for o in range(out_len):
                acc = real(bias[f])
                for ci in range(c):
                    for j in range(k):
                        acc = real(acc + real(xp[bi, ci, o * stride + j])
                                   * real(kernel[f, ci, j]))
                y[bi, f, o] = acc
    return y


def naive_conv1d_backward(x, kernel, grad_out, stride):
    """(dx, dW) of the "same"-padded cross-correlation by float64 loops:
    every output element sends its gradient back through each tap."""
    b, c, length = x.shape
    out_ch, _, k = kernel.shape
    out_len = grad_out.shape[2]
    total = max(0, (out_len - 1) * stride + k - length)
    left = total // 2
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (left, total - left)))
    dxp = np.zeros_like(xp)
    dw = np.zeros(kernel.shape, dtype=np.float64)
    for bi in range(b):
        for f in range(out_ch):
            for o in range(out_len):
                g = float(grad_out[bi, f, o])
                for ci in range(c):
                    for j in range(k):
                        dxp[bi, ci, o * stride + j] += g * float(kernel[f, ci, j])
                        dw[f, ci, j] += g * xp[bi, ci, o * stride + j]
    return dxp[:, :, left : left + length], dw


def one_of_each_layer(rng):
    """An instance of every layer type with an input shape it accepts."""
    return [
        (Conv1D(2, 3, 3, rng=rng), (2, 2, 8)),
        (BatchNorm1D(2), (3, 2, 8)),
        (ReLU(), (2, 3, 8)),
        (MaxPool1D(2), (2, 2, 8)),
        (GlobalMaxPool(), (2, 3, 9)),
        (Dense(8, 3, rng=rng), (2, 4, 2)),
        (Softplus(), (3, 4)),
    ]


def projected_loss(layer, x, projection, train=True):
    """Scalar loss sum(projection * forward(x)) accumulated in float64."""
    return float(np.sum(layer.forward(x, train).astype(np.float64)
                        * projection.astype(np.float64)))


class TestConv1D:
    def test_identity_kernel(self, rng):
        layer = Conv1D(1, 1, 3, rng=rng)
        layer.weight.value[...] = np.array([[[0.0, 1.0, 0.0]]], dtype=np.float32)
        layer.bias.value[...] = 0.0
        x = rng.normal(size=(2, 1, 16)).astype(np.float32)
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_hand_summed_window(self, rng):
        layer = Conv1D(1, 1, 3, rng=rng)
        layer.weight.value[...] = 1.0
        layer.bias.value[...] = 0.0
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]], dtype=np.float32)
        np.testing.assert_allclose(layer.forward(x)[0, 0], [3.0, 6.0, 9.0, 7.0])

    @pytest.mark.parametrize(FORWARD_CASE_ARGS, FORWARD_CASES,
                             ids=FORWARD_CASE_IDS)
    def test_matches_naive_oracle_bitwise(self, rng, batch, in_ch, out_ch,
                                          kernel, stride, length, dtype, bias):
        """The train-mode forward sums in the oracle's (channel, tap)
        order, so it matches the oracle bit for bit. A conv without a bias
        gives, in train and in infer mode, the bytes of the same conv with
        a zero bias."""
        layer, b = conv_with_bias(in_ch, out_ch, kernel, stride, dtype, bias,
                                  rng)
        x = rng.normal(size=(batch, in_ch, length)).astype(dtype)
        got = layer.forward(x, train=True)
        assert got.dtype == dtype and got.flags.c_contiguous
        expected = naive_conv1d(x, layer.weight.value, b, stride)
        np.testing.assert_array_equal(got, expected)
        if not bias:
            twin = zero_bias_twin(layer)
            assert got.tobytes() == twin.forward(x, train=True).tobytes()
            assert layer.forward(x).tobytes() == twin.forward(x).tobytes()

    @pytest.mark.parametrize(FORWARD_CASE_ARGS, FORWARD_CASES,
                             ids=FORWARD_CASE_IDS)
    def test_infer_within_dot_product_bound(self, rng, batch, in_ch, out_ch,
                                            kernel, stride, length, dtype,
                                            bias):
        """The infer-mode forward is a GEMM that sums in the BLAS kernel's
        order. Any order of n = in_ch * kernel products plus the bias is
        within gamma_{n+1} * (|b| + sum |w||x|) of the exact value, where
        gamma_m = m*u / (1 - m*u) and u is the unit roundoff (Higham 2002,
        section 3.1). The float64 oracle's own sums carry gamma_{n+1} at
        u = 2**-53, so the bound is the sum of the two."""
        layer, b = conv_with_bias(in_ch, out_ch, kernel, stride, dtype, bias,
                                  rng)
        x = rng.normal(size=(batch, in_ch, length)).astype(dtype)
        got = layer.forward(x)
        assert got.dtype == dtype and got.flags.c_contiguous
        w64 = layer.weight.value.astype(np.float64)
        b64 = b.astype(np.float64)
        x64 = x.astype(np.float64)
        expected = naive_conv1d(x64, w64, b64, stride)
        magnitude = naive_conv1d(np.abs(x64), np.abs(w64), np.abs(b64), stride)
        m = in_ch * kernel + 1

        def gamma(u):
            return m * u / (1.0 - m * u)

        bound = (gamma(np.finfo(dtype).eps / 2) + gamma(2.0 ** -53)) * magnitude
        assert np.all(np.abs(got - expected) <= bound)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_backward_matches_naive_oracle(self, rng, kernel, stride):
        layer = Conv1D(3, 4, kernel, stride=stride, rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 3, 17))
        layer.forward(x, train=True)
        grad_out = rng.normal(size=(2, 4, -(-17 // stride)))
        dx = layer.backward(grad_out)
        expected_dx, expected_dw = naive_conv1d_backward(
            x, layer.weight.value, grad_out, stride)
        np.testing.assert_allclose(dx, expected_dx, rtol=1e-10)
        np.testing.assert_allclose(layer.weight.grad, expected_dw, rtol=1e-10)
        np.testing.assert_allclose(layer.bias.grad, grad_out.sum(axis=(0, 2)),
                                   rtol=1e-10)

    # (batch, in_ch, out_ch, kernel, stride, length, dtype, bias); "3-2" is
    # kernel 3, stride 2, and "no-bias" a conv built with bias=False.
    @pytest.mark.parametrize(
        "batch,in_ch,out_ch,kernel,stride,length,dtype,bias", [
            *[(2, 3, 4, k, s, 17, np.float32, True)
              for k in (1, 3, 5) for s in (1, 2, 3)],
            (1, 3, 4, 3, 1, 9, np.float32, True),
            (3, 2, 3, 3, 2, 2, np.float32, True),
            (3, 2, 3, 5, 1, 3, np.float32, True),
            (3, 2, 3, 5, 2, 1, np.float32, True),
            (4, 1, 8, 5, 1, 32, np.float32, True),
            (4, 8, 8, 1, 2, 16, np.float32, True),
            (64, 20, 20, 3, 1, 8, np.float32, True),
            (2, 3, 4, 5, 2, 17, np.float64, True),
            (4, 8, 12, 3, 2, 33, np.float32, False),
        ], ids=[*[f"{k}-{s}" for k in (1, 3, 5) for s in (1, 2, 3)], "batch1",
                "out_len1", "shorter_than_kernel",
                "shorter_than_kernel-out_len1", "stem", "projection",
                "batch64-20ch", "float64", "no-bias"])
    def test_backward_matches_reference_bitwise(self, rng, batch, in_ch, out_ch,
                                                kernel, stride, length, dtype,
                                                bias):
        """dX, dW and the bias gradient equal, byte for byte, those of the
        np.pad / sliding_window_view / np.tensordot formulation: the same
        GEMM operands for dW and the same tap-by-tap col2im adds for dX.
        Training is chaotic, so these bits are what keep the desk runs'
        outcomes fixed. A conv without a bias gets the same dX and dW and
        no bias gradient."""
        layer = Conv1D(in_ch, out_ch, kernel, stride=stride, rng=rng,
                       bias=bias, dtype=dtype)
        x = rng.normal(size=(batch, in_ch, length)).astype(dtype)
        y = layer.forward(x, train=True)
        grad_out = rng.normal(size=y.shape).astype(dtype)
        dx = layer.backward(grad_out)
        expected_dx, expected_dw, expected_db = conv1d_backward_reference(
            x, layer.weight.value, grad_out, stride)
        assert dx.dtype == dtype and dx.flags.c_contiguous
        assert dx.tobytes() == expected_dx.tobytes()
        assert layer.weight.grad.tobytes() == expected_dw.tobytes()
        if bias:
            assert layer.bias.grad.tobytes() == expected_db.tobytes()
        else:
            assert layer.bias is None and layer.params() == [layer.weight]

    @pytest.mark.parametrize(FORWARD_CASE_ARGS, FORWARD_CASES,
                             ids=FORWARD_CASE_IDS)
    def test_crop_chunks_keep_the_bits(self, rng, monkeypatch, batch, in_ch,
                                       out_ch, kernel, stride, length, dtype,
                                       bias):
        """The train passes run over chunks of whole crops. With a chunk
        constant of three and a half crops' accumulators, seven crops run
        as chunks of 3, 3 and 1, and the forward still equals the naive
        oracle, and dX, dW and the bias gradient the one-pass np.pad
        reference, byte for byte."""
        import betamix.nn as nn_mod
        batch = 7
        out_len = -(-length // stride)
        monkeypatch.setattr(nn_mod, "CONV_CHUNK_ELEMS",
                            7 * out_ch * out_len // 2)
        layer, b = conv_with_bias(in_ch, out_ch, kernel, stride, dtype, bias,
                                  rng)
        assert layer._chunk_crops(out_len) == 3
        x = rng.normal(size=(batch, in_ch, length)).astype(dtype)
        y = layer.forward(x, train=True)
        assert y.dtype == dtype and y.flags.c_contiguous
        assert y.tobytes() == naive_conv1d(x, layer.weight.value, b,
                                           stride).tobytes()
        grad_out = rng.normal(size=y.shape).astype(dtype)
        dx = layer.backward(grad_out)
        expected_dx, expected_dw, expected_db = conv1d_backward_reference(
            x, layer.weight.value, grad_out, stride)
        assert dx.dtype == dtype and dx.flags.c_contiguous
        assert dx.tobytes() == expected_dx.tobytes()
        assert layer.weight.grad.tobytes() == expected_dw.tobytes()
        if bias:
            assert layer.bias.grad.tobytes() == expected_db.tobytes()

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_tap_spans_match_the_padded_windows(self, kernel, stride):
        """For every length from 1 to 13, tap_spans names, for each tap,
        exactly the windows whose read of that tap falls inside the input
        and, in order, the input positions they read: window i, tap j reads
        padded position i * stride + j, input position i * stride + j -
        left."""
        for length in range(1, 14):
            out_len, left, _ = same_pad_amounts(length, kernel, stride)
            got_len, spans = tap_spans(length, kernel, stride)
            assert got_len == out_len and len(spans) == kernel
            positions = np.arange(length)
            for j, (lo, hi, src) in enumerate(spans):
                inside = [i for i in range(out_len)
                          if 0 <= i * stride + j - left < length]
                assert 0 <= lo <= hi <= out_len
                assert list(range(lo, hi)) == inside, (length, j)
                assert list(positions[src]) == [i * stride + j - left
                                                for i in inside], (length, j)

    def test_train_forward_keeps_its_input_not_a_copy(self, rng):
        """The train forward reads its input in place and keeps the array
        itself for the backward, which releases it."""
        layer = Conv1D(2, 3, 3, rng=rng)
        x = rng.normal(size=(2, 2, 8)).astype(np.float32)
        y = layer.forward(x, train=True)
        assert layer._cache is x
        layer.backward(np.ones_like(y))
        assert layer._cache is None

    def test_same_pad_preserves_length(self, rng):
        for k in (1, 3, 5):
            for length in range(1, 65):
                layer = Conv1D(1, 1, k, stride=1, rng=rng)
                x = rng.normal(size=(1, 1, length)).astype(np.float32)
                assert layer.forward(x).shape[2] == length

    def test_same_pad_splits_extra_right(self):
        # stride 2, kernel 3, even length: one pad element, on the right
        out_len, left, right = same_pad_amounts(2048, 3, 2)
        assert (out_len, left, right) == (1024, 0, 1)
        out_len, left, right = same_pad_amounts(10, 4, 1)
        assert (out_len, left, right) == (10, 1, 2)

    def test_strided_output_length(self, rng):
        layer = Conv1D(1, 2, 3, stride=2, rng=rng)
        for length in (7, 8, 9, 2048):
            x = np.zeros((1, 1, length), dtype=np.float32)
            assert layer.forward(x).shape[2] == -(-length // 2)

    def test_bias_grad_is_per_channel_sum(self, rng):
        layer = Conv1D(2, 3, 3, rng=rng)
        x = rng.normal(size=(2, 2, 8)).astype(np.float32)
        layer.forward(x, train=True)
        grad_out = rng.normal(size=(2, 3, 8)).astype(np.float32)
        layer.backward(grad_out)
        np.testing.assert_allclose(layer.bias.grad, grad_out.sum(axis=(0, 2)),
                                   rtol=1e-6)

    def test_zero_grad_out_gives_zero_grads(self, rng):
        layer = Conv1D(2, 3, 3, rng=rng)
        x = rng.normal(size=(1, 2, 8)).astype(np.float32)
        layer.forward(x, train=True)
        dx = layer.backward(np.zeros((1, 3, 8), dtype=np.float32))
        assert not layer.weight.grad.any()
        assert not layer.bias.grad.any()
        assert not dx.any()

    @pytest.mark.parametrize("dtype,h,tol", [(np.float32, 1e-2, 1e-3),
                                             (np.float64, 1e-6, 1e-6)])
    def test_kernel_and_input_grads_finite_difference(self, rng, dtype, h, tol):
        layer = Conv1D(2, 3, 3, stride=2, rng=rng, dtype=dtype)
        x = rng.normal(size=(1, 2, 8)).astype(dtype)
        projection = rng.normal(size=(1, 3, 4)).astype(dtype)

        layer.forward(x, train=True)
        dx = layer.backward(projection)
        analytic_w = layer.weight.grad.copy()
        analytic_b = layer.bias.grad.copy()

        fd_w = numeric_grad(lambda: projected_loss(layer, x, projection),
                            layer.weight.value, h)
        fd_b = numeric_grad(lambda: projected_loss(layer, x, projection),
                            layer.bias.value, h)
        fd_x = numeric_grad(lambda: projected_loss(layer, x, projection), x, h)
        assert rel_err(analytic_w, fd_w) < tol
        assert rel_err(analytic_b, fd_b) < tol
        assert rel_err(dx, fd_x) < tol

    def test_shape_mismatch_rejected(self, rng):
        layer = Conv1D(2, 3, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 4, 8), dtype=np.float32))
        layer.forward(np.zeros((1, 2, 8), dtype=np.float32), train=True)
        with pytest.raises(ValueError):
            layer.backward(np.zeros((1, 3, 5), dtype=np.float32))

    def test_backward_before_forward_rejected(self, rng):
        layer = Conv1D(1, 1, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.backward(np.zeros((1, 1, 4), dtype=np.float32))

    def test_stride_below_one_rejected(self, rng):
        with pytest.raises(ValueError, match="stride must be >= 1"):
            Conv1D(1, 1, 3, stride=0, rng=rng)


class TestBatchNorm1D:
    def test_wrong_channel_count_rejected(self):
        layer = BatchNorm1D(2, name="bn")
        with pytest.raises(ValueError, match="bn: expected 2 channels, got 3"):
            layer.forward(np.zeros((1, 3, 4), dtype=np.float32), train=True)

    def test_infer_mode_identity_with_unit_stats(self):
        layer = BatchNorm1D(2)
        x = np.random.default_rng(0).normal(size=(3, 2, 5)).astype(np.float32)
        np.testing.assert_allclose(layer.forward(x, train=False),
                                   x / np.sqrt(1.0 + BN_EPS), atol=1e-6)

    def test_train_mode_normalizes(self, rng):
        layer = BatchNorm1D(3)
        x = (rng.normal(size=(8, 3, 32)) * 4.0 + 2.5).astype(np.float32)
        y = layer.forward(x, train=True)
        mean = y.mean(axis=(0, 2))
        var = y.var(axis=(0, 2))
        assert np.abs(mean).max() < 1e-5
        assert np.abs(var - 1.0).max() < 1e-4

    def test_matches_two_pass_oracle(self, rng):
        layer = BatchNorm1D(2)
        layer.scale.value[...] = np.array([1.5, 0.5], dtype=np.float32)
        layer.shift.value[...] = np.array([-1.0, 2.0], dtype=np.float32)
        x = rng.normal(size=(4, 2, 6)).astype(np.float32)
        y = layer.forward(x, train=True)
        x64 = x.astype(np.float64)
        mean = x64.mean(axis=(0, 2), keepdims=True)
        var = ((x64 - mean) ** 2).mean(axis=(0, 2), keepdims=True)
        expected = (x64 - mean) / np.sqrt(var + BN_EPS)
        expected = (expected * layer.scale.value[None, :, None].astype(np.float64)
                    + layer.shift.value[None, :, None].astype(np.float64))
        np.testing.assert_allclose(y, expected, atol=1e-5)

    def test_infer_within_affine_bound(self, rng):
        """Infer mode is y = x * a + c with a = scale / sqrt(var + eps) and
        c = shift - mean * a, against (x - mean) / sqrt(var + eps) * scale
        + shift in float64. To first order in the float32 unit roundoff u,
        a carries 3u (the float32 eps, the add, the square root, the
        divide), mean * a and x * a one more u each, the subtraction and
        the final add one u of the terms they touch: at most
        6u * (|x a| + |mean a| + |shift|). A seventh u covers the
        second-order terms and the float64 oracle's own rounding. The
        parameters and statistics are rewritten in place between calls,
        as Adam and a train pass rewrite them, so a fold kept from an
        earlier call would fail the second round."""
        c = 5
        layer = BatchNorm1D(c)
        for _ in range(2):
            layer.scale.value[...] = rng.uniform(-2.0, 2.0, size=c)
            layer.shift.value[...] = rng.normal(size=c)
            layer.running_mean[...] = rng.normal(size=c) * 3.0
            layer.running_var[...] = rng.uniform(0.01, 4.0, size=c)
            x = (rng.normal(size=(4, c, 33)) * 2.0
                 + layer.running_mean[None, :, None]).astype(np.float32)
            y = layer.forward(x)
            assert y.dtype == np.float32
            scale, shift, mean, var = (
                v.astype(np.float64)[None, :, None]
                for v in (layer.scale.value, layer.shift.value,
                          layer.running_mean, layer.running_var))
            x64 = x.astype(np.float64)
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            expected = (x64 - mean) * inv_std * scale + shift
            a = scale * inv_std
            bound = 7 * 2.0 ** -24 * (np.abs(x64 * a) + np.abs(mean * a)
                                      + np.abs(shift))
            assert np.all(np.abs(y - expected) <= bound)

    def test_running_stats_exponential_update(self, rng):
        layer = BatchNorm1D(1)
        x = (rng.normal(size=(4, 1, 16)) + 3.0).astype(np.float32)
        layer.forward(x, train=True)
        batch_mean = x.mean()
        assert layer.running_mean[0] == pytest.approx(0.1 * batch_mean, rel=1e-5)
        layer.forward(x, train=True)
        assert layer.running_mean[0] == pytest.approx(
            0.9 * 0.1 * batch_mean + 0.1 * batch_mean, rel=1e-5)

    @pytest.mark.parametrize("shape,dtype", [
        ((16, 8, 1024), np.float32),
        ((64, 20, 8), np.float32),
        ((1, 3, 1), np.float32),
        ((4, 2, 6), np.float64),
    ], ids=["stem", "deep", "single", "float64"])
    def test_train_pass_matches_reference_bitwise(self, rng, shape, dtype):
        """Two train steps against the np.mean/np.var formula: output,
        running statistics and every gradient agree bit for bit."""
        c = shape[1]
        layer = BatchNorm1D(c, dtype=dtype)
        layer.scale.value[...] = rng.uniform(0.5, 1.5, size=c)
        layer.shift.value[...] = rng.normal(size=c)
        for _ in range(2):
            x = (rng.normal(size=shape) * 3.0 + 1.5).astype(dtype)
            grad_out = rng.normal(size=shape).astype(dtype)
            expected = batchnorm_train_reference(
                x, layer.scale.value, layer.shift.value, layer.running_mean,
                layer.running_var, BN_MOMENTUM, BN_EPS, grad_out)
            x_before = x.copy()
            y = layer.forward(x, train=True)
            dx = layer.backward(grad_out)
            got = (y, layer.running_mean, layer.running_var, dx,
                   layer.scale.grad, layer.shift.grad)
            for g, e in zip(got, expected):
                assert g.dtype == dtype
                np.testing.assert_array_equal(g, e)
            np.testing.assert_array_equal(x, x_before)
            layer.scale.grad[...] = 0
            layer.shift.grad[...] = 0

    @pytest.mark.parametrize("dtype,h,tol", [(np.float32, 1e-2, 1e-3),
                                             (np.float64, 1e-6, 1e-6)])
    def test_backward_finite_difference(self, rng, dtype, h, tol):
        layer = BatchNorm1D(2, dtype=dtype)
        layer.scale.value[...] = np.asarray([1.3, 0.7], dtype=dtype)
        layer.shift.value[...] = np.asarray([0.2, -0.4], dtype=dtype)
        x = rng.normal(size=(4, 2, 6)).astype(dtype)
        projection = rng.normal(size=(4, 2, 6)).astype(dtype)

        layer.forward(x, train=True)
        dx = layer.backward(projection)
        analytic_scale = layer.scale.grad.copy()
        analytic_shift = layer.shift.grad.copy()

        fd_x = numeric_grad(lambda: projected_loss(layer, x, projection), x, h)
        fd_scale = numeric_grad(lambda: projected_loss(layer, x, projection),
                                layer.scale.value, h)
        fd_shift = numeric_grad(lambda: projected_loss(layer, x, projection),
                                layer.shift.value, h)
        assert rel_err(dx, fd_x, floor=1e-3) < tol
        assert rel_err(analytic_scale, fd_scale) < tol
        assert rel_err(analytic_shift, fd_shift) < tol

    def test_constant_grad_out_sums_to_zero(self, rng):
        """Normalization removes mean shifts, so a constant upstream
        gradient produces a per-channel zero-sum input gradient."""
        layer = BatchNorm1D(2)
        x = rng.normal(size=(3, 2, 8)).astype(np.float32)
        layer.forward(x, train=True)
        dx = layer.backward(np.ones((3, 2, 8), dtype=np.float32))
        assert np.abs(dx.sum(axis=(0, 2))).max() < 1e-4

    def test_shift_grad_is_sum(self, rng):
        layer = BatchNorm1D(2)
        x = rng.normal(size=(3, 2, 8)).astype(np.float32)
        layer.forward(x, train=True)
        grad_out = rng.normal(size=(3, 2, 8)).astype(np.float32)
        layer.backward(grad_out)
        np.testing.assert_allclose(layer.shift.grad, grad_out.sum(axis=(0, 2)),
                                   rtol=1e-5)

    def test_infer_backward_is_contract_violation(self, rng):
        """Backward after an infer-mode forward raises, for every layer type
        and for the residual block and the model, even when a train-mode
        forward came before it."""
        block = ResidualBlock(2, 3, 3, 2, rng=rng, dtype=np.float32, name="b")
        cases = one_of_each_layer(rng) + [(block, (3, 2, 8)),
                                          (build_model("tiny", 0), (2, 1, 256))]
        for layer, shape in cases:
            x = rng.normal(size=shape).astype(np.float32)
            layer.forward(x, train=True)
            y = layer.forward(x, train=False)
            with pytest.raises(ValueError):
                layer.backward(np.ones_like(y))

    @pytest.mark.parametrize("case", range(9), ids=[
        "conv", "batchnorm", "relu", "maxpool", "gpool", "dense", "softplus",
        "block", "model"])
    def test_second_backward_is_contract_violation(self, rng, case):
        """A backward takes the cache its train forward kept, so a second
        backward without a new train forward raises the ValueError of a
        backward after an infer forward, and leaves the parameter
        gradients as the first backward left them; it used to run again on
        the old cache and add every parameter gradient a second time. A new
        train forward makes the next backward legal again."""
        block = ResidualBlock(2, 3, 3, 2, rng=rng, dtype=np.float32, name="b")
        layer, shape = (one_of_each_layer(rng) + [
            (block, (3, 2, 8)), (build_model("tiny", 0), (2, 1, 256))])[case]
        params = ([p for sub in block.sublayers() for p in sub.params()]
                  if layer is block else layer.params())
        x = rng.normal(size=shape).astype(np.float32)
        y = layer.forward(x, train=True)
        layer.backward(np.ones_like(y))
        grads = [p.grad.copy() for p in params]
        with pytest.raises(ValueError, match="preceding train-mode forward"):
            layer.backward(np.ones_like(y))
        for p, g in zip(params, grads, strict=True):
            assert p.grad.tobytes() == g.tobytes(), p.name
        layer.forward(x, train=True)
        layer.backward(np.ones_like(y))


class TestReLU:
    def test_forward(self):
        layer = ReLU()
        x = np.array([[[-1.0, 0.0, 2.0]]], dtype=np.float32)
        np.testing.assert_array_equal(layer.forward(x), [[[0.0, 0.0, 2.0]]])

    def test_backward_masks_nonpositive(self):
        layer = ReLU()
        x = np.array([[[-1.0, 0.0, 2.0]]], dtype=np.float32)
        layer.forward(x, train=True)
        dx = layer.backward(np.full((1, 1, 3), 5.0, dtype=np.float32))
        np.testing.assert_array_equal(dx, [[[0.0, 0.0, 5.0]]])

    def test_idempotent(self, rng):
        layer = ReLU()
        x = rng.normal(size=(2, 3, 8)).astype(np.float32)
        once = layer.forward(x)
        np.testing.assert_array_equal(layer.forward(once), once)


class TestMaxPool1D:
    def test_hand_example(self):
        layer = MaxPool1D(2)
        x = np.array([[[1.0, 3.0, 2.0, 5.0]]], dtype=np.float32)
        np.testing.assert_array_equal(layer.forward(x), [[[3.0, 5.0]]])

    def test_backward_routes_to_max(self):
        layer = MaxPool1D(2)
        x = np.array([[[1.0, 3.0, 2.0, 5.0]]], dtype=np.float32)
        layer.forward(x, train=True)
        dx = layer.backward(np.ones((1, 1, 2), dtype=np.float32))
        np.testing.assert_array_equal(dx, [[[0.0, 1.0, 0.0, 1.0]]])

    def test_tie_routes_to_first(self):
        layer = MaxPool1D(2)
        x = np.array([[[2.0, 2.0]]], dtype=np.float32)
        layer.forward(x, train=True)
        dx = layer.backward(np.ones((1, 1, 1), dtype=np.float32))
        np.testing.assert_array_equal(dx, [[[1.0, 0.0]]])

    def test_window_longer_than_input_rejected(self):
        layer = MaxPool1D(4)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 1, 3), dtype=np.float32))

    def test_matches_naive_scan(self, rng):
        layer = MaxPool1D(3)
        x = rng.normal(size=(2, 2, 11)).astype(np.float32)
        y = layer.forward(x)
        out_len = 11 // 3
        assert y.shape == (2, 2, out_len)
        for b in range(2):
            for c in range(2):
                for o in range(out_len):
                    assert y[b, c, o] == x[b, c, 3 * o:3 * o + 3].max()

    def test_backward_matches_naive_loop(self, rng):
        # Small integers make ties common; every window's gradient goes to
        # its first max, and the two trailing samples get none.
        layer = MaxPool1D(3)
        x = rng.integers(0, 3, size=(2, 2, 11)).astype(np.float32)
        layer.forward(x, train=True)
        grad_out = rng.normal(size=(2, 2, 3)).astype(np.float32)
        dx = layer.backward(grad_out)
        expected = np.zeros_like(x)
        for b in range(2):
            for c in range(2):
                for o in range(3):
                    window = list(x[b, c, 3 * o:3 * o + 3])
                    first_max = 3 * o + window.index(max(window))
                    expected[b, c, first_max] = grad_out[b, c, o]
        np.testing.assert_array_equal(dx, expected)
        assert not dx[:, :, 9:].any()

    @pytest.mark.parametrize("size,length", [(2, 2048), (2, 9), (3, 11), (1, 5)],
                             ids=["stem", "remainder", "size3", "size1"])
    def test_matches_argmax_oracle_bitwise(self, rng, size, length):
        """Small integers make ties common; forward and backward equal the
        np.argmax formulation exactly."""
        layer = MaxPool1D(size)
        x = rng.integers(-2, 3, size=(4, 3, length)).astype(np.float32)
        grad_out = rng.normal(size=(4, 3, length // size)).astype(np.float32)
        expected_y, expected_dx = maxpool_argmax_reference(x, size, grad_out)
        y = layer.forward(x, train=True)
        np.testing.assert_array_equal(y, expected_y)
        np.testing.assert_array_equal(layer.backward(grad_out), expected_dx)
        np.testing.assert_array_equal(layer.forward(x), expected_y)

    @pytest.mark.parametrize("size,length", [(2, 9), (3, 11), (2, 64)],
                             ids=["size2-remainder", "size3-remainder", "size2"])
    def test_matches_naive_first_max_oracle_bitwise(self, rng, size, length):
        """Values from {-1, -0, +0, 1} make ties and signed-zero ties
        common; the train and infer outputs and the input gradient equal
        the loop oracle's bytes, the trailing remainder getting none."""
        layer = MaxPool1D(size)
        x = rng.integers(-1, 2, size=(3, 4, length)).astype(np.float32)
        x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0
        assert np.signbit(x[x == 0]).any() and not np.signbit(x[x == 0]).all()
        grad_out = rng.normal(size=(3, 4, length // size)).astype(np.float32)
        expected_y, expected_dx = maxpool_first_max_reference(x, size, grad_out)
        assert layer.forward(x, train=True).tobytes() == expected_y.tobytes()
        assert layer.backward(grad_out).tobytes() == expected_dx.tobytes()
        assert layer.forward(x).tobytes() == expected_y.tobytes()

    def test_largest_window_routes_to_its_last_position(self):
        """The train argmax is kept as uint8, so the window is at most 256
        wide; at 256 the last position's index still routes the gradient."""
        with pytest.raises(ValueError):
            MaxPool1D(257)
        layer = MaxPool1D(256)
        x = np.arange(256, dtype=np.float32).reshape(1, 1, 256)
        layer.forward(x, train=True)
        dx = layer.backward(np.full((1, 1, 1), 2.0, dtype=np.float32))
        assert dx[0, 0, 255] == 2.0 and not dx[0, 0, :255].any()

    def test_nan_window_gives_nan(self):
        layer = MaxPool1D(3)
        x = np.array([[[np.nan, 1.0, 2.0, 1.0, np.nan, 0.0, 4.0, 5.0, 6.0]]],
                     dtype=np.float32)
        y = layer.forward(x)
        assert np.isnan(y[0, 0, :2]).all() and y[0, 0, 2] == 6.0

    @pytest.mark.parametrize("size,length", [(3, 14), (2, 9)],
                             ids=["size3-remainder", "size2-remainder"])
    def test_backward_with_nan_window_matches_first_max_oracle(self, rng, size,
                                                               length):
        """A NaN at the start, inside or at the end of a window, and in the
        dropped remainder: the outputs and the input gradient equal the
        loop oracle's bytes, which sends a window's gradient to the first
        position strictly greater than the running maximum before it."""
        layer = MaxPool1D(size)
        x = rng.integers(-1, 2, size=(2, 3, length)).astype(np.float32)
        x[0, 0, 0] = np.nan
        x[0, 1, size + 1] = np.nan
        x[1, 2, 2 * size - 1] = np.nan
        x[1, 0, length - 1] = np.nan
        grad_out = rng.normal(size=(2, 3, length // size)).astype(np.float32)
        expected_y, expected_dx = maxpool_first_max_reference(x, size, grad_out)
        assert layer.forward(x, train=True).tobytes() == expected_y.tobytes()
        assert layer.backward(grad_out).tobytes() == expected_dx.tobytes()
        assert np.isnan(expected_y[0, 0, 0]) and np.isnan(expected_y[1, 2, 1])


class TestGlobalMaxPool:
    def test_forward(self):
        layer = GlobalMaxPool()
        x = np.array([[[4.0, 1.0, 9.0, 2.0]]], dtype=np.float32)
        np.testing.assert_array_equal(layer.forward(x), [[[9.0]]])

    def test_constant_channel_routes_to_first_index(self):
        layer = GlobalMaxPool()
        x = np.full((1, 1, 5), 2.5, dtype=np.float32)
        layer.forward(x, train=True)
        dx = layer.backward(np.ones((1, 1, 1), dtype=np.float32))
        np.testing.assert_array_equal(dx, [[[1.0, 0.0, 0.0, 0.0, 0.0]]])

    def test_matches_naive_scan(self, rng):
        layer = GlobalMaxPool()
        x = rng.normal(size=(3, 4, 21)).astype(np.float32)
        y = layer.forward(x)
        for b in range(3):
            for c in range(4):
                expected = max(x[b, c, i] for i in range(21))
                assert y[b, c, 0] == expected

    def test_infer_output_bytes_equal_train(self, rng):
        """Both modes run one forward, so their outputs are equal byte for
        byte, ties and NaN included; infer mode keeps no cache."""
        layer = GlobalMaxPool()
        x = rng.normal(size=(3, 4, 21)).astype(np.float32)
        x[0, 1, [4, 9]] = 5.0
        x[2, 3, 7] = np.nan
        train = layer.forward(x, train=True)
        infer = layer.forward(x)
        assert infer.shape == (3, 4, 1) and infer.tobytes() == train.tobytes()
        assert layer._cache is None

    def test_backward_puts_grad_at_argmax(self, rng):
        layer = GlobalMaxPool()
        x = rng.normal(size=(2, 3, 9)).astype(np.float32)
        layer.forward(x, train=True)
        grad_out = rng.normal(size=(2, 3, 1)).astype(np.float32)
        dx = layer.backward(grad_out)
        assert dx.sum() == pytest.approx(grad_out.sum(), rel=1e-6)
        assert (dx != 0).sum() == 6

    @pytest.mark.parametrize("shape", [(3, 4, 9), (2, 5, 16), (1, 1, 1)],
                             ids=["odd", "even", "single"])
    def test_backward_matches_first_max_oracle_bitwise(self, rng, shape):
        """Values from {-1, -0, +0, 1} make ties common, one channel's
        maximum is a -0.0 ahead of a +0.0, and the last channel holds NaNs;
        the input gradient equals the loop oracle's bytes, so each
        channel's gradient lands on its first maximum (its first NaN) and
        every other position is +0.0."""
        layer = GlobalMaxPool()
        x = rng.integers(-1, 2, size=shape).astype(np.float32)
        x[(x == 0) & (rng.random(shape) < 0.5)] = -0.0
        if shape[2] > 2:
            x[0, 0] = -1.0
            x[0, 0, 1:3] = (-0.0, 0.0)
        x[-1, -1, shape[2] // 2:] = np.nan
        grad_out = rng.normal(size=shape[:2] + (1,)).astype(np.float32)
        expected = global_maxpool_first_max_reference(x, grad_out)
        layer.forward(x, train=True)
        assert layer.backward(grad_out).tobytes() == expected.tobytes()


class TestDense:
    def test_identity_weight(self, rng):
        layer = Dense(4, 4, rng=rng)
        layer.weight.value[...] = np.eye(4, dtype=np.float32)
        layer.bias.value[...] = 0.0
        x = rng.normal(size=(3, 4, 1)).astype(np.float32)
        np.testing.assert_allclose(layer.forward(x), x.reshape(3, 4), rtol=1e-6)

    def test_bias_only(self, rng):
        layer = Dense(4, 2, rng=rng)
        layer.weight.value[...] = 0.0
        layer.bias.value[...] = np.array([1.5, -2.0], dtype=np.float32)
        x = rng.normal(size=(3, 4, 1)).astype(np.float32)
        np.testing.assert_allclose(layer.forward(x),
                                   np.tile([1.5, -2.0], (3, 1)))

    @pytest.mark.parametrize("dtype,h,tol", [(np.float32, 1e-2, 1e-3),
                                             (np.float64, 1e-6, 1e-6)])
    def test_finite_difference(self, rng, dtype, h, tol):
        layer = Dense(6, 3, rng=rng, dtype=dtype)
        x = rng.normal(size=(2, 2, 3)).astype(dtype)
        projection = rng.normal(size=(2, 3)).astype(dtype)
        layer.forward(x, train=True)
        dx = layer.backward(projection)
        analytic_w = layer.weight.grad.copy()
        fd_w = numeric_grad(lambda: projected_loss(layer, x, projection),
                            layer.weight.value, h)
        fd_x = numeric_grad(lambda: projected_loss(layer, x, projection), x, h)
        assert rel_err(analytic_w, fd_w) < tol
        assert rel_err(dx, fd_x) < tol

    def test_feature_mismatch_rejected(self, rng):
        layer = Dense(4, 2, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 5, 1), dtype=np.float32))


class TestSoftplus:
    def test_at_zero(self):
        assert softplus(np.array(0.0)) == pytest.approx(np.log(2.0))

    def test_large_positive_no_overflow(self):
        y = softplus(np.array(100.0, dtype=np.float32))
        assert np.isfinite(y)
        assert y == pytest.approx(100.0, rel=1e-6)

    def test_large_negative_positive_underflow(self):
        y = softplus(np.array(-100.0))
        assert 0.0 < y < 1e-40

    def test_backward_is_sigmoid(self, rng):
        layer = Softplus()
        x = rng.normal(size=(2, 3)).astype(np.float32)
        layer.forward(x, train=True)
        dx = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(dx, sigmoid(x), rtol=1e-6)

    def test_floor_clamps_and_blocks_grad(self):
        layer = Softplus()
        x = np.array([[-50.0, 0.0]], dtype=np.float32)
        y = layer.forward(x, train=True)
        assert y[0, 0] == pytest.approx(1e-6)
        assert y[0, 1] == pytest.approx(np.log(2.0), rel=1e-6)
        dx = layer.backward(np.ones_like(x))
        assert dx[0, 0] == 0.0
        assert dx[0, 1] > 0.0

    def test_infer_output_bytes_equal_train(self, rng):
        """Infer mode builds no floor mask; its output equals the train
        path's byte for byte, floored entries included, and it keeps no
        cache."""
        layer = Softplus()
        x = (rng.normal(size=(4, 2)) * 30.0).astype(np.float32)
        x[0, 0] = -50.0
        train = layer.forward(x, train=True)
        infer = layer.forward(x)
        assert infer.tobytes() == train.tobytes()
        assert layer._cache is None

    @pytest.mark.parametrize("dtype,h,tol", [(np.float64, 1e-6, 1e-6)])
    def test_finite_difference(self, rng, dtype, h, tol):
        layer = Softplus()
        x = rng.normal(size=(3, 4)).astype(dtype)
        projection = rng.normal(size=(3, 4)).astype(dtype)
        layer.forward(x, train=True)
        dx = layer.backward(projection)
        fd_x = numeric_grad(lambda: projected_loss(layer, x, projection), x, h)
        assert rel_err(dx, fd_x) < tol


class TestXavierInit:
    def test_support_bound(self):
        rng = np.random.default_rng(7)
        bound = np.sqrt(6.0 / (20 + 30))
        draws = xavier_init((1000,), 20, 30, rng)
        assert np.abs(draws).max() <= bound

    def test_empirical_variance(self):
        rng = np.random.default_rng(7)
        draws = xavier_init((100_000,), 8, 12, rng, dtype=np.float64)
        expected = 2.0 / (8 + 12)
        assert np.var(draws) == pytest.approx(expected, rel=0.05)

    def test_same_seed_same_draws(self):
        a = xavier_init((4, 5), 4, 5, np.random.default_rng(99))
        b = xavier_init((4, 5), 4, 5, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_bad_fans_rejected(self):
        with pytest.raises(ValueError):
            xavier_init((2,), 0, 3, np.random.default_rng(0))


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        p = Param(np.array([1.0, -2.0], dtype=np.float32))
        pack_params([p])
        p.grad[...] = np.array([0.3, -0.7], dtype=np.float32)
        state = AdamState(learning_rate=0.05)
        adam_step([p], state)
        np.testing.assert_allclose(p.value, [1.0 - 0.05, -2.0 + 0.05], rtol=1e-4)

    def test_zero_gradient_keeps_value_and_counts(self):
        p = Param(np.array([1.5], dtype=np.float32))
        pack_params([p])
        state = AdamState()
        before = p.value.copy()
        adam_step([p], state)
        np.testing.assert_array_equal(p.value, before)
        assert state.step_count == 1

    def test_step_counter_advances_once_per_step(self):
        params = [Param(np.zeros(2, dtype=np.float32)) for _ in range(5)]
        pack_params(params)
        state = AdamState()
        adam_step(params, state)
        adam_step(params, state)
        assert state.step_count == 2

    def test_quadratic_descent_matches_scalar_oracle(self):
        """10 steps minimizing theta^2 from theta=1, lr=0.1, against a
        hand-rolled scalar implementation of the published update."""
        p = Param(np.array([1.0], dtype=np.float64))
        pack_params([p])
        state = AdamState(learning_rate=0.1)

        theta, m, v = 1.0, 0.0, 0.0
        b1, b2, eps = 0.9, 0.999, 1e-8
        expected = []
        for t in range(1, 11):
            g = 2.0 * theta
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            theta -= 0.1 * m_hat / (np.sqrt(v_hat) + eps)
            expected.append(theta)

        trajectory = []
        for _ in range(10):
            p.grad[...] = 2.0 * p.value
            adam_step([p], state)
            trajectory.append(float(p.value[0]))
        np.testing.assert_allclose(trajectory, expected, rtol=1e-12)
        assert trajectory[-1] < trajectory[0]

    def test_lr_zero_leaves_params_bitwise(self, rng):
        p = Param(rng.normal(size=(4, 3)).astype(np.float32))
        pack_params([p])
        before = p.value.copy()
        p.grad[...] = rng.normal(size=(4, 3)).astype(np.float32)
        adam_step([p], AdamState(learning_rate=0.0))
        np.testing.assert_array_equal(p.value, before)

    def test_grads_zeroed_after_step(self, rng):
        p = Param(rng.normal(size=(3,)).astype(np.float32))
        pack_params([p])
        p.grad[...] = 1.0
        adam_step([p], AdamState())
        assert not p.grad.any()

    @pytest.mark.parametrize("preset", ["tiny", "paper"])
    def test_packed_model_matches_per_array_loop_bitwise(self, rng, preset):
        """Over 3 steps with random gradients (some exactly zero), one pass
        per flat buffer gives every value and moment the bits of the update
        run one array at a time."""
        model = build_model(preset, seed=4)
        model.adam.learning_rate = 0.01
        params = model.params()
        flat = model.flat_params
        ends = np.cumsum([p.value.size for p in params])
        # Each Param's slices of the model's moment buffers, in params() order.
        moments = [[m[end - p.value.size:end].reshape(p.value.shape)
                    for m in (flat.adam_m, flat.adam_v)]
                   for p, end in zip(params, ends)]
        groups = [[p.value.copy(), p.grad.copy(), *(m.copy() for m in pm)]
                  for p, pm in zip(params, moments)]
        for t in range(1, 4):
            for p, group in zip(params, groups):
                g = rng.normal(size=p.value.shape).astype(np.float32)
                g[rng.random(g.shape) < 0.2] = 0.0
                p.grad[...] = g
                group[1][...] = g
            adam_step(params, model.adam)
            adam_per_array_reference(groups, 0.01, t)
            for p, pm, group in zip(params, moments, groups):
                for array, expected in zip((p.value, p.grad, *pm), group):
                    assert array.tobytes() == expected.tobytes(), p.name
        assert ends[-1] == flat.adam_m.size

    def test_unpacked_param_cannot_step(self, rng):
        """A fresh Param is its value and a zero gradient, in no flat
        buffer; Adam refuses it and counts no step."""
        value = rng.normal(size=(2, 3)).astype(np.float32)
        p = Param(value)
        assert p.flat is None
        assert p.value.tobytes() == value.tobytes()
        assert p.grad.shape == (2, 3) and p.grad.dtype == np.float32
        assert not p.grad.any()
        state = AdamState()
        with pytest.raises(ValueError, match="every Param"):
            adam_step([p], state)
        assert state.step_count == 0

    def test_pack_keeps_values_and_makes_views(self, rng):
        params = [Param(rng.normal(size=shape).astype(np.float32), name=str(i))
                  for i, shape in enumerate([(3, 2, 5), (3,), (4, 4)])]
        before = [p.value.copy() for p in params]
        flat = pack_params(params)
        assert flat.count == 3 and flat.value.shape == (30 + 3 + 16,)
        assert not (flat.grad.any() or flat.adam_m.any() or flat.adam_v.any())
        for p, value in zip(params, before):
            assert p.flat is flat and p.name in "012"
            assert p.value.tobytes() == value.tobytes()
            for role in ("value", "grad"):
                assert getattr(p, role).shape == value.shape
                assert np.shares_memory(getattr(p, role), getattr(flat, role))
        params[2].value[0, 0] = 9.0
        params[1].grad[2] = 4.0
        assert flat.value[33] == 9.0 and flat.grad[32] == 4.0

    def test_part_of_a_buffer_is_refused(self):
        """A list missing one of a buffer's Params, naming one twice, or
        naming one twice in place of another would move Params it does not
        name; nothing moves. The last once passed the count check and took
        a step."""
        model = build_model("tiny", seed=4)
        params = model.params()
        for p in params:
            p.grad[...] = 1.0
        before = model.flat_params.value.copy()
        for bad in (params[1:], params + params[:1],
                    params[:1] + params[:1] + params[2:]):
            with pytest.raises(ValueError, match="every Param"):
                adam_step(bad, model.adam)
        assert model.adam.step_count == 0
        assert model.flat_params.value.tobytes() == before.tobytes()


class TestDeterminism:
    def test_forward_bitwise_repeatable(self, rng):
        layer = Conv1D(2, 4, 5, stride=2, rng=np.random.default_rng(3))
        x = rng.normal(size=(3, 2, 64)).astype(np.float32)
        first = layer.forward(x)
        second = layer.forward(x)
        np.testing.assert_array_equal(first, second)


class TestDebugFiniteChecks:
    def test_non_finite_output_raises_when_enabled(self, rng):
        """Every layer type checks its forward and its backward output.
        The inf inputs make inf - inf and inf * 0 on purpose, hence errstate."""
        import betamix.nn as nn_mod
        for layer, shape in one_of_each_layer(np.random.default_rng(5)):
            bad = np.full(shape, np.inf, dtype=np.float32)
            good = rng.normal(size=shape).astype(np.float32)
            with np.errstate(invalid="ignore"):
                layer.forward(bad)  # silent by default
                nn_mod.DEBUG_FINITE_CHECKS = True
                try:
                    with pytest.raises(FloatingPointError):
                        layer.forward(bad)
                    y = layer.forward(good, train=True)
                    with pytest.raises(FloatingPointError):
                        layer.backward(np.full_like(y, np.inf))
                finally:
                    nn_mod.DEBUG_FINITE_CHECKS = False

    @pytest.mark.parametrize("bn", ["bn1", "bn2"])
    def test_folded_block_output_checked(self, rng, bn):
        """A residual block's infer forward folds each batch norm into its
        conv; a NaN running variance makes the folded output non-finite,
        and the check names the batch norm whose output it is."""
        import betamix.nn as nn_mod
        model = build_model("tiny", seed=2)
        getattr(model.groups[1][0], bn).running_var[1] = np.nan
        x = rng.normal(size=(2, 1, 256)).astype(np.float32)
        nn_mod.DEBUG_FINITE_CHECKS = True
        try:
            with pytest.raises(FloatingPointError, match=f"g1.b0.{bn}$"):
                model.forward(x)
        finally:
            nn_mod.DEBUG_FINITE_CHECKS = False
