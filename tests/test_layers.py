import inspect
import re
import struct

import numpy as np
import pytest

from quatcnn import layers
from quatcnn.quat import Quaternion, hamilton, add
from quatcnn.layers import (
    as_block_conv, Conv2d, QConv2d, MaxPool2d, ReLU, Flatten, Dense, LayerSpec, ModelConfig,
    config_from_name, CONFIG_NAMES,
    chunk_size, count_parameters, trace_shapes, Model, config_digest, save_model,
    load_model,
)
from quatcnn.train import _tiny_config
from testutil import (
    assert_close, norm_rel_err, conv2d_oracle, qconv2d_oracle,
    qconv2d_hamilton_sum_oracle, maxpool_oracle, per_array, col2im_oracle,
    conv_input_grad_oracle, qconv_input_grad_oracle, quat_at, _UNIT_TABLE, pool_major,
    from_pool_major, DeclarationOrderPass, _sample_last_pool,
)


def rand_qconv(rng, f, c, k, dtype=np.float64):
    """A QConv2d with uniform random kernel banks and bias."""
    layer = QConv2d(c, f, k, dtype=dtype)
    layer.w[...] = rng.uniform(-1, 1, layer.w.shape)
    layer.bias[...] = rng.uniform(-1, 1, layer.bias.shape)
    return layer


def _refusal(conv_kind, *kinds):
    """The pattern of the one message that refuses a chain of layer kinds
    other than the (conv_kind, relu, maxpool) blocks and flatten, dense."""
    return re.escape(f"inconsistent config: layers must be ({conv_kind}, relu, maxpool) * k "
                     f"+ (flatten, dense) with k >= 1, got ({', '.join(kinds)})")


def run_one(layer, x):
    """``layer`` on a single (C, H, W) or (4, C, H, W) image, as the
    one-sample batch that 100x100 training runs; the output has no
    sample axis."""
    return layer.forward(x[..., None])[..., 0]


def pool_on(lead, window=2, bias=0.0, dtype=np.float64):
    """A MaxPool2d of ``window`` for a batch whose axes before the
    pool-major (window, window, PH, PW, N) ones are ``lead``, (C,) or
    (4, C): the pool of a 1x1 convolution of C filters, a Conv2d or a
    QConv2d, whose bias is ``bias``."""
    conv = (QConv2d if len(lead) == 2 else Conv2d)(1, lead[-1], 1, dtype=dtype, pool=window)
    conv.bias[...] = bias
    return MaxPool2d(conv)


def pool_against_oracle(pool, x, g):
    """Run ``pool`` on the pool-major copy of the raster (..., H, W, N)
    batch ``x`` and back with the output gradient ``g``; assert its output
    and the raster of its input gradient against ``maxpool_oracle`` per
    sample, with the pool's bias and ReLU applied to the oracle's maxima
    and its gradient passed only where they are positive. Returns the
    raster input gradient and the windows that passed a gradient."""
    window, bias = pool.window, pool.conv.bias[..., None, None]
    out = pool.forward(pool_major(x, window))
    gx = from_pool_major(pool.backward(g), x.shape[-3:-1])
    live = np.zeros(out.shape, dtype=bool)
    for n in range(x.shape[-1]):
        peak, _ = maxpool_oracle(x[..., n], np.zeros(out.shape[:-1]), window)
        live[..., n] = peak + bias > 0
        _, expect_gx = maxpool_oracle(x[..., n], g[..., n] * live[..., n], window)
        assert np.array_equal(out[..., n], np.maximum(peak + bias, 0))
        assert np.array_equal(gx[..., n], expect_gx)
    return gx, live


class TestConv2d:
    def test_identity_kernel(self):
        x = np.arange(12.0).reshape(1, 3, 4)
        layer = Conv2d(1, 1, 1, dtype=np.float64)
        layer.w[...] = 1
        assert np.array_equal(run_one(layer, x), x)

    def test_ones_kernel_counts_taps(self):
        layer = Conv2d(1, 1, 3, dtype=np.float64)
        layer.w[...], layer.bias[...] = 1, 0.5
        out = run_one(layer, np.ones((1, 3, 3)))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 9.5

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_triple_loop_oracle(self, dtype, tol):
        rng = np.random.default_rng(20)
        for _ in range(5):
            c, f, k = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 3
            h, w = int(rng.integers(3, 8)), int(rng.integers(3, 8))
            x = rng.uniform(-1, 1, (c, h, w)).astype(dtype)
            layer = Conv2d(c, f, k, dtype=dtype)
            layer.w[...] = rng.uniform(-1, 1, (f, c, k, k))
            layer.bias[...] = rng.uniform(-1, 1, f)
            expect = conv2d_oracle(x, layer.w, layer.bias)
            assert norm_rel_err(run_one(layer, x), expect) < tol

    def test_shape_mismatch(self):
        layer = Conv2d(2, 1, 3)
        with pytest.raises(ValueError, match="input has 1 channels, kernel expects 2"):
            layer.forward(np.zeros((1, 5, 5, 1)))
        with pytest.raises(ValueError, match="spatial size 2x2 smaller than kernel 3x3"):
            layer.forward(np.zeros((2, 2, 2, 1)))


class TestBatchedLayersPerSample:
    """Each sample of a batch must come out as the independent oracles
    give it for that sample alone."""

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_conv_layer(self, dtype, tol):
        rng = np.random.default_rng(38)
        layer = Conv2d(2, 3, 3, dtype=dtype)
        layer.initialize(rng)
        layer.bias[...] = rng.uniform(-1, 1, 3)
        x = rng.uniform(-1, 1, (2, 7, 6, 5)).astype(dtype)
        out = layer.forward(x)
        assert out.shape == (3, 5, 4, 5)
        for n in range(5):
            expect = conv2d_oracle(x[..., n], layer.w, layer.bias)
            assert norm_rel_err(out[..., n], expect) < tol

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_qconv_layer_against_hamilton_sum_oracle(self, dtype, tol):
        rng = np.random.default_rng(39)
        layer = rand_qconv(rng, 3, 2, 3, dtype)
        x = rng.uniform(-1, 1, (4, 2, 6, 7, 5)).astype(dtype)
        out = layer.forward(x)
        assert out.shape == (4, 3, 4, 5, 5)
        for n in range(5):
            expect = qconv2d_hamilton_sum_oracle(x[..., n], layer.w, layer.bias)
            assert norm_rel_err(out[..., n], expect) < tol

    @pytest.mark.parametrize("shape", [(3, 7, 7, 4), (4, 2, 10, 9, 3)])
    @pytest.mark.parametrize("values", ["uniform", "three-levels"])
    def test_maxpool_layer_against_argmax_oracle(self, shape, values):
        # the pool-major copy of a raster batch, whose trailing odd row or
        # column no window reads
        rng = np.random.default_rng(40)
        if values == "uniform":
            x = rng.uniform(-1, 1, shape)
        else:
            x = rng.integers(0, 3, shape).astype(np.float64)
        lead = shape[:-3]
        layer = pool_on(lead, bias=rng.uniform(-0.5, 0.5, lead))
        g = rng.uniform(-1, 1, (*lead, shape[-3] // 2, shape[-2] // 2, shape[-1]))
        pool_against_oracle(layer, x, g)

    def test_conv_layers_reject_unbatched_input(self):
        with pytest.raises(ValueError, match=r"4-d \(C, H, W, N\) batch"):
            Conv2d(2, 3).forward(np.zeros((2, 6, 6)))
        with pytest.raises(ValueError, match=r"5-d \(4, C, H, W, N\) batch"):
            QConv2d(2, 3).forward(np.zeros((4, 2, 6, 6)))

    def test_qconv_layer_rejects_a_first_axis_other_than_4(self):
        # a 5-d batch of 3 planes would otherwise reach the GEMM
        with pytest.raises(ValueError, match=r"\(4, C, H, W, N\) batch, got \(3, 2, 6, 6, 1\)"):
            QConv2d(2, 3).forward(np.zeros((3, 2, 6, 6, 1)))


def _integer_layer(kind, rng):
    """A float64 layer of ``kind`` with weights in {-1, 0, 1} and the shape
    of one sample of its input. Integer data keeps every sum exact, so a
    batch must give the per-sample bits in any summation order."""
    layer, shape = {
        "conv": (Conv2d(2, 3, 3, dtype=np.float64), (2, 7, 6)),
        "qconv": (QConv2d(2, 3, 3, dtype=np.float64), (4, 2, 7, 6)),
        # the pool-major (2, 2, 3, 3) blocks of a 6x6 quaternion plane
        "maxpool": (pool_on((4, 2)), (4, 2, 2, 2, 3, 3)),
        "relu": (ReLU(), (2, 5, 4)),
        "flatten": (Flatten(), (4, 2, 3, 2)),
        "dense": (Dense(12, dtype=np.float64), (12,)),
    }[kind]
    layer.theta[...] = rng.integers(-1, 2, layer.theta.size)
    if kind == "maxpool":  # the bias of the pool's convolution
        layer.conv.bias[...] = rng.integers(-1, 2, layer.conv.bias.shape)
    return layer, shape


class TestSampleLastBatches:
    """A batch holds its samples on the last axis of every layer's input
    and output; each layer's outputs, input gradients and parameter
    gradients must be those of its samples one at a time, stacked on that
    axis (and summed, for the parameters)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    @pytest.mark.parametrize("kind", ["conv", "qconv", "maxpool", "relu", "flatten", "dense"])
    def test_batch_is_its_samples_stacked(self, kind, n):
        rng = np.random.default_rng(46)
        layer, shape = _integer_layer(kind, rng)
        # three levels give ties in many pooling windows
        samples = rng.integers(-1, 2, (n, *shape)).astype(np.float64)
        batch = np.stack(list(samples), axis=-1)
        out = layer.forward(batch.copy())
        g = rng.integers(-2, 3, out.shape).astype(np.float64)
        layer.grad.fill(0)
        gx = layer.backward(g)
        grad = layer.grad.copy()
        layer.grad.fill(0)
        for i in range(n):
            x_i = samples[i][..., None]
            g_i = g[..., i:i + 1]
            out_i = layer.forward(x_i.copy())
            gx_i = layer.backward(g_i)
            assert np.array_equal(out[..., i:i + 1], out_i)
            assert np.array_equal(gx[..., i:i + 1], gx_i)
            if kind == "maxpool":  # ties go to the first maximum in row-major order
                pool_against_oracle(layer, from_pool_major(x_i), g_i)
        assert np.array_equal(layer.grad, grad)


class TestHamiltonTables:
    def test_tables_follow_the_unit_table(self):
        # filter unit e_a times input unit e_b is sign * e_comp, by the test
        # helpers' own table
        for (a, b), (sign, comp) in _UNIT_TABLE.items():
            assert layers._BANK[comp, b] == a and layers._SIGN[comp, b] == sign
            assert layers._PLANE[comp, a] == b and layers._FOLD_SIGN[comp, a] == sign


def _random_correlation(kind, c, f, k, dtype, rng, pool=None):
    """A Conv2d or QConv2d of pool window ``pool`` with uniform random
    weights and bias, and the leading axes of its input batch."""
    if kind == "conv":
        layer, lead = Conv2d(c, f, k, dtype=dtype, pool=pool), (c,)
    else:
        layer, lead = QConv2d(c, f, k, dtype=dtype, pool=pool), (4, c)
    layer.theta[...] = rng.uniform(-1, 1, layer.theta.size)
    return layer, lead


def _raster_scatter(g, f, p, oh, ow):
    """The (F, OH, OW, N) raster of an output gradient ``g`` of F planes:
    its pool-major (F, p, p, PH, PW, N) offset blocks put back on the
    positions a pool of window p reads, with zeros elsewhere; at p = 1,
    g itself."""
    return from_pool_major(g.reshape(f, p, p, oh // p, ow // p, g.shape[-1]), (oh, ow))


class TestConvInputGradient:
    """The input gradient of Conv2d and QConv2d: against a per-tap oracle,
    and bit for bit against the transposed GEMM scattered by the
    nine-strided-add ``col2im_oracle``. Some OpenBLAS kernels (Haswell
    sgemm) round a float32 GEMM by the shapes of its operands, so that
    GEMM runs on the raster that the layer's own taps GEMM takes."""

    # (C, F, H, W, k, N); channels are quaternion channels for qconv
    @pytest.mark.parametrize("c,f,h,w,k,n", [
        (2, 3, 7, 6, 3, 1), (2, 3, 7, 6, 3, 4), (3, 2, 9, 11, 1, 4),
        (2, 2, 9, 11, 3, 1), (2, 2, 9, 11, 5, 4), (1, 2, 5, 5, 5, 1),
    ])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("kind", ["conv", "qconv"])
    def test_matches_per_tap_oracle(self, kind, dtype, tol, c, f, h, w, k, n):
        rng = np.random.default_rng(41)
        layer, lead = _random_correlation(kind, c, f, k, dtype, rng)
        x = rng.uniform(-1, 1, (*lead, h, w, n)).astype(dtype)
        g = rng.uniform(-1, 1, layer.forward(x).shape).astype(dtype)
        gx = layer.backward(g)
        oracle = conv_input_grad_oracle if kind == "conv" else qconv_input_grad_oracle
        assert gx.shape == x.shape and gx.dtype == dtype
        assert norm_rel_err(gx, oracle(g, layer.w, (h, w))) < tol

    # (kind, C, F, H, W, k, p, N). Standalone (p = 1): the conv2 and conv3
    # planes of both architectures at 100x100, then k = 1, 3, 5 on a 9x11
    # plane, at N = 1 and 4, and k = 3 at N = 8. Pooled (p = 2): conv2 (OW = 9) and conv3
    # (OW = 2) at 24x24 for N = 1, 2, 8, 16, and at 100x100 (OW = 47, 21)
    # for N = 1; p = 3 on 10x12 (OW = 10) and 9x11 (OW = 9) planes.
    BIT_CASES = [
        ("conv", 32, 64, 49, 49, 3, 1, 1), ("conv", 32, 64, 49, 49, 3, 1, 4),
        ("conv", 64, 128, 23, 23, 3, 1, 1), ("conv", 64, 128, 23, 23, 3, 1, 4),
        ("qconv", 8, 16, 49, 49, 3, 1, 1), ("qconv", 8, 16, 49, 49, 3, 1, 4),
        ("qconv", 16, 32, 23, 23, 3, 1, 1), ("qconv", 16, 32, 23, 23, 3, 1, 4),
        ("conv", 4, 6, 9, 11, 1, 1, 4), ("conv", 4, 6, 9, 11, 3, 1, 1),
        ("conv", 4, 6, 9, 11, 5, 1, 4), ("qconv", 2, 3, 9, 11, 1, 1, 1),
        ("qconv", 2, 3, 9, 11, 3, 1, 4), ("qconv", 2, 3, 9, 11, 5, 1, 1),
        ("conv", 4, 6, 9, 11, 3, 1, 8),
        *[(kind, c, f, h, h, 3, 2, n)
          for kind, c, f, h in (("conv", 32, 64, 11), ("conv", 64, 128, 4),
                                ("qconv", 8, 16, 11), ("qconv", 16, 32, 4))
          for n in (1, 2, 8, 16)],
        ("conv", 32, 64, 49, 49, 3, 2, 1), ("conv", 64, 128, 23, 23, 3, 2, 1),
        ("qconv", 8, 16, 49, 49, 3, 2, 1), ("qconv", 16, 32, 23, 23, 3, 2, 1),
        ("conv", 4, 6, 10, 12, 3, 3, 1), ("conv", 4, 6, 10, 12, 3, 3, 8),
        ("qconv", 2, 3, 9, 11, 3, 3, 1), ("qconv", 2, 3, 9, 11, 3, 3, 8),
    ]

    @pytest.mark.parametrize("kind,c,f,h,w,k,p,n", BIT_CASES)
    def test_bit_identical_to_col2im_form(self, kind, c, f, h, w, k, p, n):
        # a pooled layer's pool-major g is scattered onto the raster
        # (F, OH, OW, N) output, zero where the pool reads nothing, and
        # then onto the layer's own (rows, cols) raster: the flat form's
        # OH x W, whose pad columns' zero taps are dropped here, or the
        # compact form's p*PH x p*PW; a signed zero must match too
        rng = np.random.default_rng(42)
        layer, lead = _random_correlation(kind, c, f, k, np.float32, rng,
                                          pool=p if p > 1 else None)
        x = rng.uniform(-1, 1, (*lead, h, w, n)).astype(np.float32)
        g = rng.uniform(-1, 1, layer.forward(x).shape).astype(np.float32)
        gx = layer.backward(g)
        kernel = layer.w if kind == "conv" else as_block_conv(layer).w
        planes = kernel.reshape(kernel.shape[0], -1)
        oh, ow = h - k + 1, w - k + 1
        rows, cols = layers._grad_raster(h, w, k, p, n)
        r, s = min(rows, oh), min(cols, ow)
        gmat = np.zeros((kernel.shape[0], rows, cols, n), dtype=np.float32)
        gmat[:, :r, :s] = _raster_scatter(g, kernel.shape[0], p, oh, ow)[:, :r, :s]
        taps = (planes.T @ gmat.reshape(kernel.shape[0], -1)).reshape(-1, rows, cols, n)
        patches = np.zeros((taps.shape[0], oh, ow, n), dtype=np.float32)
        patches[:, :r, :s] = taps[:, :r, :s]
        expect = col2im_oracle(patches.reshape(taps.shape[0], -1), (kernel.shape[1], h, w, n), k)
        assert gx.shape == x.shape and gx.tobytes() == expect.tobytes()

    def test_bit_cases_run_both_forms(self):
        # each pool window runs the flat and the compact form above
        forms = {(p, layers._grad_raster(h, w, k, p, n)[1] == w)
                 for _, _, _, h, w, k, p, n in self.BIT_CASES if k == 3}
        assert forms == {(p, flat) for p in (1, 2, 3) for flat in (True, False)}

    # (H = W, N) -> the raster the taps GEMM runs on, for the p = 2, k = 3
    # convolutions of the reference configs: the pad (W - 2*PW)*N is 3N
    # for conv2 at 24x24 and 2N for conv3, and 3 for both at 100x100
    @pytest.mark.parametrize("h,n,raster", [
        (11, 1, (9, 11)), (11, 2, (9, 11)), (11, 4, (8, 8)), (11, 16, (8, 8)),
        (4, 1, (2, 4)), (4, 4, (2, 4)), (4, 8, (2, 2)), (4, 16, (2, 2)),
        (49, 1, (47, 49)), (23, 1, (21, 23)),
    ])
    def test_form_follows_the_pad_per_pooled_row(self, h, n, raster):
        assert layers._grad_raster(h, h, 3, 2, n) == raster


class TestPatchBuffer:
    """A convolution copies its patches into a buffer that it keeps from
    batch to batch, and its backward writes the input-gradient taps over
    them."""

    # standalone, the sizes run the flat form but the last; pooled by 2,
    # the compact form but the third
    @pytest.mark.parametrize("pool", [None, 2])
    @pytest.mark.parametrize("kind", ["conv", "qconv"])
    def test_batches_of_any_size_match_a_fresh_layer(self, kind, pool):
        rng = np.random.default_rng(44)
        layer, lead = _random_correlation(kind, 2, 3, 3, np.float32, rng, pool=pool)
        buffers = []
        for n in (4, 4, 1, 6):  # the same size again, a smaller one, a larger one
            x = rng.uniform(-1, 1, (*lead, 9, 11, n)).astype(np.float32)
            out = layer.forward(x)
            g = rng.uniform(-1, 1, out.shape).astype(np.float32)
            layer.grad.fill(0)
            gx = layer.backward(g)
            fresh = type(layer)(2, 3, 3, dtype=np.float32, pool=pool)
            fresh.theta[...] = layer.theta
            assert np.array_equal(out, fresh.forward(x))
            assert np.array_equal(gx, fresh.backward(g))
            assert np.array_equal(layer.grad, fresh.grad)
            buffers.append(layer._buf)
            with pytest.raises(RuntimeError, match="needs a forward of its own"):
                layer.backward(g)  # the taps have overwritten the patches
        assert buffers[0] is buffers[1] is buffers[2] is not buffers[3]

    # pooled by 2 on a 9x11 plane, the pad is 3N floats per pooled row:
    # N = 1 runs the flat form on the 7 x 11 zero-padded raster, N = 6
    # the compact form on the 6 x 8 positions the pool reads
    @pytest.mark.parametrize("n,raster", [(1, (7, 11)), (6, (6, 8))])
    @pytest.mark.parametrize("kind", ["conv", "qconv"])
    def test_taps_overwrite_the_patches_in_both_forms(self, kind, n, raster):
        rng = np.random.default_rng(47)
        layer, lead = _random_correlation(kind, 2, 3, 3, np.float32, rng, pool=2)
        x = rng.uniform(-1, 1, (*lead, 9, 11, n)).astype(np.float32)
        g = rng.uniform(-1, 1, layer.forward(x).shape).astype(np.float32)
        buf = layer._buf
        layer.backward(g)
        assert layer._buf is buf
        kernel = layer.w if kind == "conv" else as_block_conv(layer).w
        f = kernel.shape[0]
        rows, cols = raster
        assert layers._grad_raster(9, 11, 3, 2, n) == raster
        gpad = np.zeros((f, rows, cols, n), dtype=np.float32)
        gpad[:, :6, :8] = _raster_scatter(g, f, 2, 7, 9)[:, :6, :8]
        taps = kernel.reshape(f, -1).T @ gpad.reshape(f, -1)
        assert buf[:taps.size].tobytes() == taps.tobytes()

    @pytest.mark.parametrize("kind", ["conv", "qconv"])
    def test_input_gradient_keeps_the_dtype_of_g(self, kind):
        # a float64 g on a float32 layer is not cast down into the buffer
        rng = np.random.default_rng(45)
        layer, lead = _random_correlation(kind, 2, 3, 3, np.float32, rng)
        wide = type(layer)(2, 3, 3, dtype=np.float64)
        wide.theta[...] = layer.theta
        x = rng.uniform(-1, 1, (*lead, 9, 11, 4)).astype(np.float32)
        g = rng.uniform(-1, 1, layer.forward(x).shape)
        gx = layer.backward(g)
        wide.forward(x.astype(np.float64))
        assert gx.dtype == np.float64
        assert_close(gx, wide.backward(g), 1e-12)
        # the buffer still serves the layer's own dtype
        out = layer.forward(x)
        assert layer.backward(out).dtype == np.float32


class TestWeightGradient:
    # K below one block, exactly one, whole blocks only, whole blocks and a tail
    @pytest.mark.parametrize("k", [100, 512, 1536, 1300])
    def test_blocks_added_in_order(self, k):
        rng = np.random.default_rng(43)
        cols = rng.uniform(-1, 1, (27, k)).astype(np.float32)
        gmat = rng.uniform(-1, 1, (32, k)).astype(np.float32)
        got = layers._weight_grad(cols, gmat)
        assert got.shape == (27, 32) and got.dtype == np.float32
        assert_close(got, cols.astype(np.float64) @ gmat.T.astype(np.float64), 1e-5)
        # one GEMM per 512 columns of K, added left to right
        expect = cols[:, :512] @ gmat[:, :512].T
        for lo in range(512, k, 512):
            expect = expect + cols[:, lo:lo + 512] @ gmat[:, lo:lo + 512].T
        assert np.array_equal(got, expect)


class TestChunkSize:
    # the docstring of chunk_size: min(batch_size, 16) at 24x24, 1 at 100x100
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_reference_configs(self, name):
        small, paper = config_from_name(name, 24), config_from_name(name, 100)
        for batch_size in (1, 3, 4, 8, 9, 15, 16, 17, 32, 100):
            assert chunk_size(small, batch_size) == min(batch_size, 16)
            assert chunk_size(paper, batch_size) == 1

    def test_depends_only_on_config_and_batch_size(self):
        assert list(inspect.signature(chunk_size).parameters) == ["config", "batch_size"]
        first = [chunk_size(config_from_name("qvcnn-hsv", 24), b) for b in range(1, 36)]
        again = [chunk_size(config_from_name("qvcnn-hsv", 24), b) for b in range(1, 36)]
        assert first == again == [min(b, 16) for b in range(1, 36)]


class TestQConv2d:
    def test_identity_quaternion_filter(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, (4, 1, 4, 4))
        layer = QConv2d(1, 1, 1, dtype=np.float64)
        layer.w[0] = 1.0
        assert np.allclose(run_one(layer, x), x)

    def test_single_j_tap_against_i_plane(self):
        # filter holds j at the center tap only; input is the constant
        # quaternion i; every output equals hamilton(j, i) = -k
        layer = QConv2d(1, 1, 3, dtype=np.float64)
        layer.w[2, 0, 0, 1, 1] = 1.0
        data = np.zeros((4, 1, 5, 5))
        data[1] = 1.0
        out = run_one(layer, data)
        assert np.allclose(out[0], 0) and np.allclose(out[1], 0)
        assert np.allclose(out[2], 0) and np.allclose(out[3], -1.0)

    def test_single_tap_reduces_to_hamilton_plus_bias(self):
        rng = np.random.default_rng(22)
        layer = rand_qconv(rng, 1, 1, 1)
        x = rng.uniform(-1, 1, (4, 1, 1, 1))
        out = run_one(layer, x)
        wq = Quaternion(*(float(bank[0, 0, 0, 0]) for bank in layer.w))
        bq = Quaternion(*(float(layer.bias[i, 0]) for i in range(4)))
        expect = add(hamilton(wq, quat_at(x, 0, 0, 0)), bq)
        assert_close(out[:, 0, 0, 0], expect.components(), 1e-12)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_bruteforce_oracle(self, dtype, tol):
        rng = np.random.default_rng(23)
        for _ in range(5):
            c, f = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            x = rng.uniform(-1, 1, (4, c, h, w)).astype(dtype)
            layer = rand_qconv(rng, f, c, 3, dtype)
            expect = qconv2d_oracle(x, layer.w, layer.bias)
            assert norm_rel_err(run_one(layer, x), expect) < tol

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_hamilton_sum_oracle(self, dtype, tol):
        rng = np.random.default_rng(35)
        for _ in range(5):
            c, f = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            x = rng.uniform(-1, 1, (4, c, h, w)).astype(dtype)
            layer = rand_qconv(rng, f, c, 3, dtype)
            expect = qconv2d_hamilton_sum_oracle(x, layer.w, layer.bias)
            assert norm_rel_err(run_one(layer, x), expect) < tol

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_block_real_convolution(self, dtype, tol):
        rng = np.random.default_rng(24)
        for _ in range(5):
            c, f = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            x = rng.uniform(-1, 1, (4, c, h, w)).astype(dtype)
            layer = rand_qconv(rng, f, c, 3, dtype)
            out = run_one(layer, x)
            block = run_one(as_block_conv(layer), x.reshape(4 * c, h, w))
            assert norm_rel_err(out.reshape(block.shape), block) < tol

    def test_block_conv_owns_the_block_kernel_and_bias(self):
        layer = rand_qconv(np.random.default_rng(43), 2, 3, 3, np.float32)
        block = as_block_conv(layer)
        assert type(block) is Conv2d and block.theta.dtype == np.float32
        assert block.w.shape == (8, 12, 3, 3) and block.bias.shape == (8,)
        assert np.array_equal(block.bias, layer.bias.reshape(-1))
        # block (comp 0, input component b) is bank b times the real row's sign
        for b, sign in enumerate((1, -1, -1, -1)):
            assert np.array_equal(block.w[:2, 3 * b:3 * b + 3], sign * layer.w[b])
        before = block.theta.copy()
        layer.theta[...] = 0
        assert np.array_equal(block.theta, before)

    def test_linearity_zero_bias(self):
        rng = np.random.default_rng(25)
        layer = rand_qconv(rng, 2, 2, 3)
        layer.bias[...] = 0
        x = rng.uniform(-1, 1, (4, 2, 6, 6))
        y = rng.uniform(-1, 1, (4, 2, 6, 6))
        a = 1.7
        lhs = run_one(layer, a * x + y)
        rhs = a * run_one(layer, x) + run_one(layer, y)
        assert norm_rel_err(lhs, rhs) < 1e-12

    def test_channel_mismatch(self):
        layer = rand_qconv(np.random.default_rng(26), 1, 2, 3)
        with pytest.raises(ValueError, match="input has 1 channels, kernel expects 2"):
            layer.forward(np.zeros((4, 1, 5, 5, 1)))


def pool_one(pool, x):
    """``pool`` on the pool-major copy of a single raster (C, H, W) or
    (4, C, H, W) image; the output has no sample axis."""
    return pool.forward(pool_major(x[..., None], pool.window))[..., 0]


class TestMaxPool:
    """A pool takes its convolution's pool-major output, adds that
    convolution's bias to the maxima and rectifies them."""

    def test_two_by_two(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert np.array_equal(pool_one(pool_on((1,)), x), np.array([[[4.0]]]))

    def test_constant_plane(self):
        x = np.full((2, 4, 4), 3.25)
        assert np.array_equal(pool_one(pool_on((2,)), x), np.full((2, 2, 2), 3.25))

    def test_the_window_is_that_of_the_convolution(self):
        conv = Conv2d(1, 3, pool=3)
        pool = MaxPool2d(conv)
        assert pool.conv is conv and conv.pool == pool.window == 3

    @pytest.mark.parametrize("conv", [Conv2d(1, 3), QConv2d(1, 2)], ids=["Conv2d", "QConv2d"])
    def test_a_convolution_built_without_a_window_is_refused(self, conv):
        with pytest.raises(ValueError, match=rf"^MaxPool2d needs a convolution built with a "
                                             rf"pool window, got a {type(conv).__name__} "
                                             rf"with pool=None$"):
            MaxPool2d(conv)

    def test_odd_trailing_dropped(self):
        # a 49x49 convolution output: the pool-major convolution leaves out
        # the last row and column, and the pool gives 24x24
        pool = pool_on((1,))
        assert pool.forward(pool.conv.forward(np.zeros((1, 49, 49, 1)))).shape == (1, 24, 24, 1)
        # the spatial chain that feeds the dense layer 12,800 values
        sizes = [100]
        for _ in range(3):
            sizes.append(sizes[-1] - 2)
            sizes.append((sizes[-1] - 2) // 2 + 1)
        assert sizes == [100, 98, 49, 47, 23, 21, 10]

    def test_quaternion_planes_pool_independently(self):
        rng = np.random.default_rng(27)
        planes = rng.uniform(-1, 1, (4, 2, 4, 6))
        bias = rng.uniform(-0.5, 0.5, (4, 2))
        out = pool_one(pool_on((4, 2), bias=bias), planes)
        assert out.shape == (4, 2, 2, 3)
        # per-plane independence: plane p of the output pools plane p
        for comp in range(4):
            assert np.array_equal(out[comp], pool_one(pool_on((2,), bias=bias[comp]), planes[comp]))

    # (shape, window): sizes that are no multiple of the window lose their
    # trailing rows/columns to the pool-major layout, among them the 47x47
    # and 21x21 planes of the 100x100 chain and, at window 3, 9x11 (two
    # columns) and 8x7 (two rows, one column); (4, 3, 10, 9) is a
    # (4, C, H, W) quaternion input
    @pytest.mark.parametrize("shape,window", [
        ((3, 7, 7), 2), ((2, 49, 49), 2), ((2, 9, 11), 3),
        ((2, 8, 7), 3), ((4, 3, 10, 9), 2), ((2, 47, 47), 2),
        ((3, 21, 21), 2), ((2, 10, 11), 2),
    ])
    @pytest.mark.parametrize("values", ["uniform", "three-levels", "all-tie", "last-max"])
    def test_layer_matches_argmax_oracle(self, shape, window, values):
        rng = np.random.default_rng(36)
        if values == "uniform":
            x = rng.uniform(-1, 1, shape)
        elif values == "three-levels":
            x = rng.integers(0, 3, shape).astype(np.float64)
        elif values == "all-tie":
            x = np.full(shape, 0.5)
        else:
            # each window's only maximum sits at its last (row-major) offset
            x = rng.uniform(-1, 0, shape)
            x[..., window - 1::window, window - 1::window] = rng.uniform(1, 2)
        lead = shape[:-2]
        layer = pool_on(lead, window, bias=rng.uniform(-0.25, 0.25, lead))
        oh, ow = (size // window for size in shape[-2:])
        g = rng.uniform(-1, 1, (*lead, oh, ow))
        gx, live = pool_against_oracle(layer, x[..., None], g[..., None])
        gx, live = gx[..., 0], live[..., 0]
        if values in ("all-tie", "last-max"):
            # ties route to offset 0; a lone maximum at the last offset gets it all
            assert live.all()
            d = 0 if values == "all-tie" else window - 1
            assert np.array_equal(gx[..., d:d + window * oh:window, d:d + window * ow:window], g)


class TestReLU:
    def test_split_application(self):
        planes = np.array([-1.0, 2.0, -3.0, 4.0]).reshape(4, 1, 1, 1)
        out = ReLU().forward(planes)
        assert out.shape == (4, 1, 1, 1)
        assert quat_at(out, 0, 0, 0).components() == (0.0, 2.0, 0.0, 4.0)

    def test_all_negative(self):
        assert np.array_equal(ReLU().forward(-np.ones((2, 3, 3))), np.zeros((2, 3, 3)))

    def test_idempotent(self):
        rng = np.random.default_rng(28)
        x = rng.normal(size=(3, 5, 5))
        once = ReLU().forward(x)
        assert np.array_equal(ReLU().forward(once), once)


class TestRunOrder:
    """``Model`` runs the ReLU of each (conv, relu, maxpool) block inside
    the block's max pool, after the maximum and the convolution's bias;
    the result must be the bits of the declaration-order reference,
    ``DeclarationOrderPass``."""

    def test_relu_runs_after_the_pool_it_feeds(self):
        for name in CONFIG_NAMES:
            model = Model(config_from_name(name, 24))
            conv = type(model.layers[0])
            assert [type(layer) for layer in model.layers] == \
                [conv, ReLU, MaxPool2d] * 3 + [Flatten, Dense]
            # the pools apply the ReLUs, which leave the run order
            assert model.run_order == [model.layers[i] for i in (0, 2, 3, 5, 6, 8, 9, 10)]
            for i in (2, 5, 8):
                pool = model.layers[i]
                assert pool.conv is model.layers[i - 2] and pool.window == 2

    def test_reference_digests_keep_the_declaration_order(self):
        # the configs as declared (conv -> relu -> maxpool), whose digest
        # every saved model.bin header holds
        assert {name: config_digest(config_from_name(name)).hex() for name in CONFIG_NAMES} == {
            "rvcnn-rgb": "d7e19efd3307442ecf8f66b30167676034fd3a4e1cf5a965f087bbf13f60ad1f",
            "rvcnn-hsv": "98d01b7ce3930f22d713a74a42a2d22f051afd43f61529c840687cbbede27137",
            "qvcnn-rgb": "ab770c2346f9cdeab8412d4f3e19ebb73d658d98dee68a614d6eb9e9c258a67b",
            "qvcnn-hsv": "9a7b3c712329bed728ea7f0867a898d76c9a71a9c4ab3e933f5f51517b07b8ab",
        }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("arithmetic", ["real", "quaternion"])
    def test_matches_a_pass_in_declaration_order_bit_for_bit(self, arithmetic, dtype):
        rng = np.random.default_rng(80)
        model = Model(_tiny_config(arithmetic, input_size=13), dtype=dtype)
        model.theta[:] = rng.integers(-1, 2, model.theta.size)
        # the first convolution's two filters copy +/- input channel 0, so
        # the first pool sees the windows written below
        first = model.layers[0]
        first.w[...] = first.bias[...] = 0
        first.w.reshape(-1, 2, *first.w.shape[-3:])[0, :, 0, 1, 1] = (1, -1)
        n = 3
        lead = (3,) if arithmetic == "real" else (4, 1)
        x = rng.integers(-3, 4, (*lead, n, 13, 13)).astype(dtype)
        # 2x2 windows of channel 0: max < 0, max 0 with a tie, a positive
        # tie, max 0 at the first offset
        x.reshape(-1, n, 13, 13)[0, :, 1:3, 1:9] = [[-1, -2, -1, 0, 2, -1, 0, -1],
                                                   [-3, -1, 0, -2, 0, 2, -2, -3]]
        # the layers take the batch with its sample axis last
        batch = np.ascontiguousarray(np.moveaxis(x, -3, -1))
        # the first pool receives the convolution's pool-major output: 13 ->
        # 11 -> the 10x10 positions its 2x2 windows read, as (2, 2, 5, 5, N)
        # per filter
        pool = model.layers[2]
        pooled_in = first.forward(batch).copy()
        assert pool.conv is first and pooled_in.shape == (*lead[:-1], 2, 2, 2, 5, 5, n)
        offsets = np.stack(layers._pool_views(pooled_in, 2))
        peaks = offsets.max(axis=0)
        ties = (offsets == peaks).sum(axis=0) > 1
        assert (peaks < 0).any() and (peaks == 0).any() and (ties & (peaks > 0)).any()
        # integer-valued, like every other input here: each sum is exact,
        # so the gradients must agree bit for bit with layers that sum in
        # another order
        dlogits = rng.integers(-2, 3, n).astype(dtype)

        # the declaration-order reference: raster conv with bias, ReLU,
        # argmax pool oracle
        reference = DeclarationOrderPass(model)
        want = (reference.forward(batch), *reference.backward(dlogits))

        model.zero_grads()
        logits = model.forward(x)
        model.backward(dlogits)
        grad = model.grad.copy()
        model.zero_grads()
        model.forward(x)
        g = dlogits
        for layer in reversed(model.run_order):
            g = layer.backward(g)
        assert model.grad.tobytes() == grad.tobytes()
        for got, expect in zip((logits, grad, g), want, strict=True):
            assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


def _pool3_config(arithmetic):
    """Pools of window 3 and 2 after convolutions whose outputs are no
    multiple of the window: 16 -> 14, cropped to 12 -> 4 -> 2 -> 1."""
    conv = layers._CONVOLUTIONS[arithmetic]
    return ModelConfig(
        name=f"pool3-{arithmetic}", arithmetic=arithmetic, encoding="rgb", input_size=16,
        in_channels=conv.image_channels,
        layers=(LayerSpec(conv.kind, 2), LayerSpec("relu"), LayerSpec("maxpool", pool=3),
                LayerSpec(conv.kind, 2), LayerSpec("relu"), LayerSpec("maxpool", pool=2),
                LayerSpec("flatten"), LayerSpec("dense", 1)),
    )


def _without_bias(conv):
    """A standalone copy of ``conv`` with its weights and a zero bias: its
    raster output is what a pool-major convolution computes."""
    fresh = type(conv)(conv.in_channels, conv.out_channels, conv.kernel_size, dtype=conv.w.dtype)
    fresh.w[...] = conv.w
    return fresh


POOL_MAJOR_CONFIGS = {
    "real-13": lambda: _tiny_config("real", input_size=13),
    "quaternion-13": lambda: _tiny_config("quaternion", input_size=13),
    "real-12": lambda: _tiny_config("real", input_size=12),
    "real-pool3": lambda: _pool3_config("real"),
    "quaternion-pool3": lambda: _pool3_config("quaternion"),
}


class TestPoolMajor:
    """In a ``Model`` each convolution computes only the positions its
    block's max pool reads, in window-offset order and without its
    bias, which the pool adds to its maxima before the ReLU; the result
    must be that of the declaration-order reference, which runs the same
    convolutions standalone on raster batches, with their bias, a ReLU
    and the argmax pool oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    @pytest.mark.parametrize("name", list(POOL_MAJOR_CONFIGS))
    @pytest.mark.parametrize("values", ["integer", "uniform"])
    def test_model_matches_its_layers_run_standalone(self, values, name, n):
        rng = np.random.default_rng(81)
        config = POOL_MAJOR_CONFIGS[name]()
        lead = (4,) if config.arithmetic == "quaternion" else ()
        shape = (*lead, config.in_channels, n, config.input_size, config.input_size)
        if values == "integer":
            # weights in {-1, 0, 1} and three input levels: every sum is
            # exact, so the gradients must agree bit for bit too, and many
            # pooling windows hold ties
            model = Model(config, dtype=np.float64)
            model.theta[...] = rng.integers(-1, 2, model.theta.size)
            x = rng.integers(-1, 2, shape).astype(np.float64)
            dlogits, tol = rng.integers(-2, 3, n).astype(np.float64), 0
        else:
            model = Model(config)
            model.theta[...] = rng.uniform(-0.5, 0.5, model.theta.size)
            x = rng.uniform(-1, 1, shape).astype(np.float32)
            dlogits, tol = rng.uniform(-1, 1, n).astype(np.float32), 1e-5
        reference = DeclarationOrderPass(model)

        model.zero_grads()
        h = np.ascontiguousarray(np.moveaxis(x, -3, -1))
        pool_inputs = []
        for layer in model.run_order:
            if isinstance(layer, MaxPool2d):
                assert layer.conv is not None
                pool_inputs.append(h)
            h = layer.forward(h)
        logits = h
        g = dlogits
        for layer in reversed(model.run_order):
            g = layer.backward(g)
        gx, grad = g, model.grad.copy()

        h = reference.forward(np.ascontiguousarray(np.moveaxis(x, -3, -1)))
        for conv, conv_in, window, pooled in zip(reference.convs, reference.conv_inputs,
                                                 reference.windows, pool_inputs, strict=True):
            # the raster conv output before the bias, in window-offset
            # order, with the rows and columns that fill no whole window
            # left out
            raster = _without_bias(conv).forward(conv_in)
            assert pooled.shape[-5:-3] == (window, window) and raster.ndim == pooled.ndim - 2
            for view, offset in zip(layers._pool_views(pool_major(raster, window), window),
                                    layers._pool_views(pooled, window)):
                assert norm_rel_err(view, offset) <= tol
        assert logits.dtype == h.dtype
        if tol:
            # a small GEMM's BLAS edge kernels may round an output column
            # by where it sits, so float data agrees to rounding
            assert norm_rel_err(logits, h) < tol
        else:
            assert logits.tobytes() == h.tobytes()
        ref_grad, g = reference.backward(dlogits)
        assert gx.shape == g.shape == np.moveaxis(x, -3, -1).shape
        if tol:
            assert norm_rel_err(grad, ref_grad) < tol and norm_rel_err(gx, g) < tol
        else:
            assert np.array_equal(grad, ref_grad) and np.array_equal(gx, g)

    @pytest.mark.parametrize("name", ["real-13", "quaternion-13", "real-pool3"])
    def test_ties_route_to_the_first_maximum(self, name):
        # the first pool's windows, taken from the pool-major batch it
        # receives, against the argmax oracle on the raster conv output
        # before the bias; the pool adds the bias and rectifies, so only
        # windows with max + bias > 0 pass a gradient
        rng = np.random.default_rng(82)
        config = POOL_MAJOR_CONFIGS[name]()
        model = Model(config, dtype=np.float64)
        model.theta[...] = rng.integers(-1, 2, model.theta.size)
        lead = (4,) if config.arithmetic == "quaternion" else ()
        size = config.input_size
        batch = rng.integers(-1, 2, (*lead, config.in_channels, size, size, 3)).astype(np.float64)
        conv, pool = model.layers[0], model.layers[2]
        assert pool.conv is conv
        raster = _without_bias(conv).forward(batch)
        pooled_in = conv.forward(batch)
        out = pool.forward(pooled_in)
        g = rng.uniform(-1, 1, out.shape)
        gx = pool.backward(g)
        assert gx.shape == pooled_in.shape
        bias = conv.bias[..., None, None, None]
        offsets = np.stack(layers._pool_views(pooled_in, pool.window))
        peaks = offsets.max(axis=0)
        live = peaks + bias > 0
        assert (live & ((offsets == peaks).sum(axis=0) > 1)).any()  # ties that pass a gradient
        graster = from_pool_major(gx, raster.shape[-3:-1])
        for i in range(3):
            expect_peak, expect_gx = maxpool_oracle(raster[..., i], (g * live)[..., i], pool.window)
            assert np.array_equal(out[..., i], np.maximum(expect_peak + bias[..., 0], 0))
            assert np.array_equal(graster[..., i], expect_gx)

    def test_only_a_convolution_before_a_pool_is_pool_major(self):
        model = Model(config_from_name("qvcnn-rgb", 24), rng=np.random.default_rng(83))
        convs = [layer for layer in model.layers if isinstance(layer, QConv2d)]
        pools = [layer for layer in model.layers if isinstance(layer, MaxPool2d)]
        assert [conv.pool for conv in convs] == [2, 2, 2]
        assert [pool.conv for pool in pools] == convs
        x = np.random.default_rng(84).uniform(-1, 1, (4, 1, 24, 24, 2)).astype(np.float32)
        assert convs[0].forward(x).shape == (4, 8, 2, 2, 11, 11, 2)
        # standalone, and the real convolution that as_block_conv returns,
        # keep the raster layout
        block = as_block_conv(convs[0])
        assert block.pool is None
        assert block.forward(x.reshape(4, 24, 24, 2)).shape == (32, 22, 22, 2)
        assert QConv2d(1, 8).forward(x).shape == (4, 8, 22, 22, 2)


class TestPoolBias:
    """A pool-major convolution leaves its bias to the pool it feeds,
    which adds it to the maxima and then rectifies them."""

    @pytest.mark.parametrize("size, n", [(24, 1), (24, 2), (24, 16), (100, 1)])
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_logits_match_a_declaration_order_pass_bit_for_bit(self, name, size, n):
        # Each block in declaration order on the float32 output of the
        # model's own pool-major convolution: its raster plus the bias,
        # then ReLU, then the argmax pool oracle, must give the pool's bits,
        # and a fresh dense layer on the last block the logits' bits. The
        # raster convolutions of DeclarationOrderPass run GEMMs of other
        # shapes, which some OpenBLAS kernels (Haswell sgemm) round
        # otherwise, so the logits agree with that pass to rounding.
        # Glorot leaves the biases at 0, which any bias placement passes
        rng = np.random.default_rng(85)
        config = config_from_name(name, size)
        model = Model(config, rng=rng)
        for layer in model.layers:
            if layer.param_count:
                layer.bias[...] = rng.uniform(-0.5, 0.5, layer.bias.shape)
        lead = (4,) if config.arithmetic == "quaternion" else ()
        x = rng.uniform(0, 1, (*lead, config.in_channels, n, size, size)).astype(np.float32)
        batch = np.ascontiguousarray(np.moveaxis(x, -3, -1))
        reference = DeclarationOrderPass(model)
        h = batch
        for conv, pool in zip(model.run_order[:-2:2], model.run_order[1:-2:2], strict=True):
            assert pool.conv is conv
            out = conv.forward(h)
            rectified = np.maximum(from_pool_major(out) + conv.bias[..., None, None, None], 0)
            expect, _ = _sample_last_pool(rectified, pool.window)
            h = pool.forward(out)
            assert h.dtype == expect.dtype == np.float32 and h.tobytes() == expect.tobytes()
        want = reference.dense.forward(h.reshape(-1, n))
        logits = model.forward(x)
        assert logits.dtype == want.dtype == np.float32
        assert logits.tobytes() == want.tobytes()
        assert norm_rel_err(logits, reference.forward(batch)) < 1e-4

    def test_a_bias_that_rounds_a_window_flat_routes_to_its_maximum(self):
        # a 1x1 identity convolution, so the pool sees the input itself
        config = ModelConfig(
            name="identity-pool", arithmetic="real", encoding="rgb", input_size=4, in_channels=2,
            layers=(LayerSpec("conv", 2, kernel=1), LayerSpec("relu"), LayerSpec("maxpool", pool=2),
                    LayerSpec("flatten"), LayerSpec("dense", 1)),
        )
        model = Model(config)
        conv, pool = model.run_order[:2]
        conv.w[...] = np.eye(2).reshape(2, 2, 1, 1)
        bias = np.array([2.0 ** 24, -0.375])
        conv.bias[...] = bias
        # 2x2 windows; in float32 the bias 2**24 rounds every element of
        # channel 0's first window to 2**24, and channel 1's second window
        # has max + bias == 0
        x = np.array([[[0.25, 0.5, -1, -2], [0, 0, -3, -4], [3, 1, 0, 0], [2, 3, 0, 0]],
                      [[0.25, 0.5, 0.25, 0.375], [0, 0, 0.125, 0],
                       [-1, -1, 0.5, 1], [-1, -1, 1, 0.5]]])
        assert np.all(np.float32(x[0, :2, :2]) + np.float32(2.0 ** 24) == np.float32(2.0 ** 24))
        g = np.array([[[1.0, -0.5], [0.25, 2.0]], [[-1.5, 0.75], [1.25, -0.25]]])
        out = pool.forward(conv.forward(x[..., None].astype(np.float32)))
        gx = conv.backward(pool.backward(g[..., None].astype(np.float32)))[..., 0]

        peaks = x.reshape(2, 2, 2, 2, 2).max(axis=(2, 4))
        expect_out = np.maximum(np.float32(peaks) + np.float32(bias)[:, None, None], 0)
        assert np.array_equal(out[..., 0], expect_out)
        live = peaks + bias[:, None, None] > 0
        assert live.tolist() == [[[True, True], [True, True]], [[True, False], [False, True]]]
        # each live window's gradient goes to its first maximum before the
        # bias: the 0.5, not the 0.25 that leads the flat window
        expect_gx = np.zeros_like(x)
        for c, i, j in zip(*np.nonzero(live)):
            window = x[c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
            a, b = divmod(int(np.argmax(window)), 2)
            expect_gx[c, 2 * i + a, 2 * j + b] = g[c, i, j]
        assert expect_gx[0, 0, 1] == g[0, 0, 0]
        assert np.array_equal(gx, expect_gx)
        # the bias gradient is the output gradient summed over the live windows
        assert np.array_equal(conv.grad_bias, (g * live).sum(axis=(1, 2)))
        assert np.array_equal(conv.grad_w[..., 0, 0], np.einsum("chw,dhw->cd", expect_gx, x))


class TestFlatten:
    def test_dense_input_length(self):
        assert Flatten().forward(np.zeros((4, 32, 10, 10, 1))).shape == (12800, 1)
        assert Flatten().forward(np.zeros((128, 10, 10, 3))).shape == (12800, 3)

    def test_zero(self):
        assert np.all(Flatten().forward(np.zeros((4, 1, 2, 2, 2))) == 0)

    def test_documented_ordering(self):
        rng = np.random.default_rng(29)
        c, n, h, w = 2, 3, 3, 4
        planes = rng.uniform(-1, 1, (4, c, h, w, n))
        v = Flatten().forward(planes)
        assert v.shape == (4 * c * h * w, n)
        for comp, ci, ni, hi, wi in [(0, 0, 0, 0, 0), (1, 1, 2, 2, 3), (3, 0, 1, 1, 2)]:
            idx = ((comp * c + ci) * h + hi) * w + wi
            assert v[idx, ni] == planes[comp, ci, hi, wi, ni]

    def test_round_trip(self):
        rng = np.random.default_rng(30)
        planes = rng.uniform(-1, 1, (4, 3, 5, 2, 2))
        layer = Flatten()
        v = layer.forward(planes).copy()
        back = layer.backward(v)
        assert back.shape == planes.shape
        assert np.array_equal(back, planes)


class TestDense:
    def test_one_hot_selects(self):
        layer = Dense(5, dtype=np.float64)
        layer.w[3] = 1.0
        v = np.array([[10.0, 20.0, 30.0, 40.0, 50.0], [1.0, 2.0, 3.0, 4.0, 5.0]]).T
        assert np.array_equal(layer.forward(v), [40.0, 4.0])

    def test_zero_vector_gives_bias(self):
        layer = Dense(4, dtype=np.float64)
        layer.w[...] = 1.0
        layer.bias[...] = 0.75
        assert np.array_equal(layer.forward(np.zeros((4, 1))), [0.75])

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(31)
        v = rng.uniform(-1, 1, (3, 64)).T
        layer = Dense(64, dtype=np.float64)
        layer.w[...] = rng.uniform(-1, 1, 64)
        layer.bias[...] = rng.uniform(-1, 1)
        expect = [sum(float(a) * float(b) for a, b in zip(layer.w, column)) + float(layer.bias)
                  for column in v.T]
        assert_close(layer.forward(v), expect, 1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Dense(4).forward(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="length"):
            Dense(4).forward(np.zeros(4))


@pytest.mark.parametrize("layer,g", [
    (Conv2d(1, 1, 1), np.ones((1, 1, 2, 2))),
    (QConv2d(1, 1, 1), np.ones((4, 1, 1, 2, 2))),
    (MaxPool2d(Conv2d(1, 1, 1, pool=2)), np.ones((1, 1, 2, 2))),
    (ReLU(), np.ones((1, 1, 2, 2))),
    (Flatten(), np.ones((4, 1))),
    (Dense(3), np.ones(2)),
], ids=["Conv2d", "QConv2d", "MaxPool2d", "ReLU", "Flatten", "Dense"])
def test_backward_needs_a_forward(layer, g):
    with pytest.raises(RuntimeError, match=f"^{type(layer).__name__}.backward needs a forward"):
        layer.backward(g)


def _block(filters=1, kernel=3, pool=2, logits=1):
    """One real (conv, relu, maxpool) block, then flatten and dense."""
    return (LayerSpec("conv", filters, kernel), LayerSpec("relu"), LayerSpec("maxpool", pool=pool),
            LayerSpec("flatten"), LayerSpec("dense", logits))


class TestCountParameters:
    def test_rvcnn_golden(self):
        counts, total = count_parameters(config_from_name("rvcnn-rgb"))
        assert counts == [896, 18496, 73856, 12801]
        assert total == 106049

    def test_qvcnn_golden(self):
        counts, total = count_parameters(config_from_name("qvcnn-rgb"))
        assert counts == [320, 4672, 18560, 12801]
        assert total == 36353

    def test_parameter_ratio_about_a_third(self):
        _, rv = count_parameters(config_from_name("rvcnn-rgb"))
        _, qv = count_parameters(config_from_name("qvcnn-rgb"))
        assert abs(qv / rv - 0.343) < 0.001

    def test_trivial_conv(self):
        # one block of a 1x1 convolution with one filter: 2x2 -> 2x2 -> 1x1
        config = ModelConfig(
            name="one", arithmetic="real", encoding="rgb", input_size=2, in_channels=1,
            layers=(LayerSpec("conv", filters=1, kernel=1), LayerSpec("relu"),
                    LayerSpec("maxpool", pool=2), LayerSpec("flatten"), LayerSpec("dense", 1)),
        )
        assert count_parameters(config) == ([2, 2], 4)

    @pytest.mark.parametrize("size,channels,specs,match", [
        (4, 3, config_from_name("rvcnn-rgb").layers, "conv kernel 3 does not fit input 1x1"),
        (5, 3, _block(pool=4), "pool window 4 does not fit input 3x3"),
        (5, 3, (LayerSpec("conv", 1), LayerSpec("dense", 1)), _refusal("conv", "conv", "dense")),
        (5, 3, (LayerSpec("conv", 1), LayerSpec("avgpool")),
         _refusal("conv", "conv", "avgpool")),
        (5, 3, _block(pool=0), "maxpool pool must be >= 1, got 0"),
        (5, 3, _block(pool=-1), "maxpool pool must be >= 1, got -1"),
        (5, 3, _block(kernel=0), "conv kernel must be >= 1, got 0"),
        (5, 3, _block(kernel=-2), "conv kernel must be >= 1, got -2"),
        (5, 3, _block(filters=0), "conv filters must be >= 1, got 0"),
        (5, 3, _block(filters=-1), "conv filters must be >= 1, got -1"),
        (5, 0, _block(), "in_channels must be >= 1, got 0"),
        (5, 3, _block(logits=5), r"dense filters must be 1 \(one logit\), got 5"),
    ], ids=["conv-too-big", "pool-too-big", "dense-before-flatten", "unknown-kind",
            "pool-0", "pool-negative", "kernel-0", "kernel-negative", "filters-0",
            "filters-negative", "in-channels-0", "dense-of-5"])
    def test_inconsistent_config_raises(self, size, channels, specs, match):
        config = ModelConfig(
            name="bad", arithmetic="real", encoding="rgb", input_size=size,
            in_channels=channels, layers=specs,
        )
        for check in (count_parameters, trace_shapes, Model, lambda c: chunk_size(c, 16)):
            with pytest.raises(ValueError, match=match):
                check(config)

    def test_hsv_variants_same_counts(self):
        assert (count_parameters(config_from_name("rvcnn-hsv"))
                == count_parameters(config_from_name("rvcnn-rgb")))
        assert (count_parameters(config_from_name("qvcnn-hsv"))
                == count_parameters(config_from_name("qvcnn-rgb")))


class TestShapeChain:
    @pytest.mark.parametrize("name", ["rvcnn-rgb", "qvcnn-rgb"])
    def test_dense_sees_12800(self, name):
        rows = trace_shapes(config_from_name(name, 100))
        flat = [row[4] for row in rows if row[0].kind == "flatten"][0]
        assert flat == 12800

    # Model.backward skips the first layer's input gradient, and ReLU
    # rectifies its input in place: a first layer that is no convolution
    # would return no input gradient it owes and could overwrite the
    # caller's batch
    @pytest.mark.parametrize("size,specs", [
        (24, ()),
        (24, (LayerSpec("relu"), *config_from_name("rvcnn-rgb").layers)),
        (48, (LayerSpec("maxpool"), *config_from_name("rvcnn-rgb").layers)),
    ], ids=["no-layers", "relu-first", "maxpool-first"])
    def test_first_layer_must_be_a_convolution(self, size, specs):
        config = ModelConfig(name="bad", arithmetic="real", encoding="rgb",
                             input_size=size, in_channels=3, layers=specs)
        match = _refusal("conv", *(spec.kind for spec in specs))
        with pytest.raises(ValueError, match=match):
            trace_shapes(config)
        with pytest.raises(ValueError, match=match):
            Model(config)

    @pytest.mark.parametrize("arithmetic,conv,match", [
        ("real", "qconv", _refusal("conv", *["qconv", "relu", "maxpool"] * 2, "flatten", "dense")),
        ("quaternion", "conv",
         _refusal("qconv", *["conv", "relu", "maxpool"] * 2, "flatten", "dense")),
        ("complex", "conv", "arithmetic must be 'real' or 'quaternion', got 'complex'"),
    ], ids=["qconv-under-real", "conv-under-quaternion", "complex"])
    def test_fields_that_contradict_each_other_raise(self, arithmetic, conv, match):
        config = ModelConfig(name="bad", arithmetic=arithmetic, encoding="rgb",
                             input_size=12, in_channels=1,
                             layers=layers._conv_stack(conv, (2, 2)))
        for check in (trace_shapes, Model, lambda c: chunk_size(c, 16)):
            with pytest.raises(ValueError, match=match):
                check(config)

    # the first three are chains a Model once wired and no config builds:
    # a convolution feeding another convolution, a pool without a ReLU
    # followed by a ReLU that no convolution feeds, and a block without
    # its ReLU
    @pytest.mark.parametrize("arithmetic,kinds", [
        ("real", ("conv", "relu", "conv", "relu", "maxpool", "flatten", "dense")),
        ("real", ("conv", "maxpool", "relu", "maxpool", "flatten", "dense")),
        ("real", ("conv", "maxpool", "flatten", "dense")),
        ("real", ("flatten", "dense")),
        ("real", ("conv", "relu", "maxpool", "flatten")),
        ("real", ("conv", "relu", "maxpool", "flatten", "dense", "relu")),
        ("quaternion", ("conv", "relu", "maxpool", "flatten", "dense")),
    ], ids=["conv-conv-pool", "conv-pool-relu-pool", "no-relu", "no-blocks", "no-dense",
            "layer-after-dense", "conv-under-quaternion"])
    def test_only_conv_relu_pool_blocks_are_accepted(self, arithmetic, kinds):
        conv_kind = "qconv" if arithmetic == "quaternion" else "conv"
        config = ModelConfig(name="bad", arithmetic=arithmetic, encoding="rgb", input_size=13,
                             in_channels=3, layers=tuple(LayerSpec(kind, 2) for kind in kinds))
        for check in (trace_shapes, Model, lambda c: chunk_size(c, 16)):
            with pytest.raises(ValueError, match=_refusal(conv_kind, *kinds)):
                check(config)

    def test_config_from_name(self):
        assert CONFIG_NAMES == ("rvcnn-rgb", "rvcnn-hsv", "qvcnn-rgb", "qvcnn-hsv")
        for name in CONFIG_NAMES:
            config = config_from_name(name)
            assert config.name == name
        with pytest.raises(ValueError, match="unknown config"):
            config_from_name("qvcnn-lab")


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(32)
        config = config_from_name("qvcnn-rgb", 24)
        model = Model(config, rng=rng)
        path = tmp_path / "model.bin"
        save_model(path, model)
        loaded = load_model(path, config)
        assert np.array_equal(loaded.theta, model.theta)

    def test_digest_mismatch(self, tmp_path):
        rng = np.random.default_rng(33)
        model = Model(config_from_name("qvcnn-rgb", 24), rng=rng)
        path = tmp_path / "model.bin"
        save_model(path, model)
        with pytest.raises(ValueError, match="digest"):
            load_model(path, config_from_name("rvcnn-rgb", 24))

    @pytest.mark.parametrize("corrupt,match", [
        (lambda data: data[:len(data) // 2], "truncated"),
        (lambda data: data[:39], "^file truncated$"),
        (lambda data: b"QVCX" + data[4:], "bad magic"),
        (lambda data: data[:4] + struct.pack("<I", 2) + data[8:],
         "unsupported container version 2"),
        (lambda data: data + b"\0", "trailing bytes"),
    ], ids=["truncated", "shorter-than-header", "bad-magic", "version", "trailing-bytes"])
    def test_corrupt_file(self, tmp_path, corrupt, match):
        rng = np.random.default_rng(34)
        model = Model(config_from_name("qvcnn-rgb", 24), rng=rng)
        path = tmp_path / "model.bin"
        save_model(path, model)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ValueError, match=match):
            load_model(path, config_from_name("qvcnn-rgb", 24))

    def test_container_layout(self, tmp_path):
        model = Model(config_from_name("qvcnn-rgb", 24), rng=np.random.default_rng(37))
        path = tmp_path / "model.bin"
        save_model(path, model)
        data = path.read_bytes()
        assert data[:4] == b"QVCN"
        assert struct.unpack("<I", data[4:8]) == (1,)
        assert data[8:40] == config_digest(model.config)
        assert len(data) == 40 + 4 * model.param_count
        arrays = [p for layer in model.layers if layer.param_count
                  for p in per_array(layer.w, layer.bias)]
        assert len(arrays) == 17  # four banks and a bias per qconv, then dense w and b
        blobs = b"".join(np.asarray(p, dtype="<f4").tobytes() for p in arrays)
        assert data[40:] == blobs

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_layer_arrays_are_views_of_theta(self, tmp_path, name):
        model = Model(config_from_name(name, 24), rng=np.random.default_rng(39))
        for flat, names in ((model.theta, ("w", "bias")), (model.grad, ("grad_w", "grad_bias"))):
            base = flat.__array_interface__["data"][0]
            offset = 0
            for layer in model.layers:
                if not layer.param_count:
                    continue
                for arr in (getattr(layer, name) for name in names):
                    assert np.shares_memory(arr, flat)
                    assert arr.__array_interface__["data"][0] == base + offset * flat.itemsize
                    offset += arr.size
            assert offset == flat.size == model.param_count
        path = tmp_path / "model.bin"
        save_model(path, model)
        assert path.read_bytes()[40:] == model.theta.astype("<f4").tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_a_non_finite_parameter_is_refused(self, tmp_path, bad):
        model = Model(config_from_name("rvcnn-rgb", 24))
        model.theta[[7, 900]] = bad
        path = tmp_path / "model.bin"
        save_model(path, model)
        with pytest.raises(ValueError, match=f"^non-finite parameter {bad} at index 7$"):
            load_model(path, config_from_name("rvcnn-rgb", 24))

    def test_reads_a_file_built_from_the_documented_layout(self, tmp_path):
        config = config_from_name("rvcnn-rgb", 24)
        _, total = count_parameters(config)
        theta = np.random.default_rng(36).standard_normal(total)
        path = tmp_path / "model.bin"
        path.write_bytes(b"QVCN" + struct.pack("<I", 1) + config_digest(config)
                         + theta.astype("<f4").tobytes())
        loaded = load_model(path, config)
        assert loaded.theta.dtype == np.float32
        assert np.array_equal(loaded.theta, theta.astype(np.float32))

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        model = Model(config_from_name("qvcnn-rgb", 24), rng=np.random.default_rng(38))
        path = tmp_path / "model.bin"
        save_model(path, model)
        before = path.read_bytes()

        class TornTheta:  # the save fails midway, after the header
            def __array__(self, *args, **kwargs):
                raise OSError("disk full")

        monkeypatch.setattr(model, "theta", TornTheta())
        with pytest.raises(OSError, match="disk full"):
            save_model(path, model)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
