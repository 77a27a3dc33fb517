import inspect
import struct

import numpy as np
import pytest

from quatcnn import layers
from quatcnn.quat import Quaternion, hamilton, add
from quatcnn.layers import (
    ConvParams, QConvParams, conv2d_forward, qconv2d_forward, as_block_conv,
    Conv2d, QConv2d, MaxPool2d, ReLU, Flatten, Dense, LayerSpec, ModelConfig,
    rvcnn_config, qvcnn_config, config_from_name, CONFIG_NAMES,
    chunk_size, count_parameters, trace_shapes, Model, config_digest, save_model,
    load_model,
)
from quatcnn.train import _tiny_config
from testutil import (
    assert_close, norm_rel_err, conv2d_oracle, qconv2d_oracle,
    qconv2d_hamilton_sum_oracle, maxpool_oracle, per_array, col2im_oracle,
    conv_input_grad_oracle, qconv_input_grad_oracle, quat_at,
)


def rand_qconv_params(rng, f, c, k, dtype=np.float64):
    mk = lambda: rng.uniform(-1, 1, (f, c, k, k)).astype(dtype)
    return QConvParams(w=np.stack([mk() for _ in range(4)]),
                       bias=rng.uniform(-1, 1, (4, f)).astype(dtype))


class TestConv2d:
    def test_identity_kernel(self):
        x = np.arange(12.0).reshape(1, 3, 4)
        p = ConvParams(w=np.ones((1, 1, 1, 1)), bias=np.zeros(1))
        assert np.array_equal(conv2d_forward(x, p), x)

    def test_ones_kernel_counts_taps(self):
        x = np.ones((1, 3, 3))
        p = ConvParams(w=np.ones((1, 1, 3, 3)), bias=np.array([0.5]))
        out = conv2d_forward(x, p)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 9.5

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_triple_loop_oracle(self, dtype, tol):
        rng = np.random.default_rng(20)
        for _ in range(5):
            c, f, k = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 3
            h, w = int(rng.integers(3, 8)), int(rng.integers(3, 8))
            x = rng.uniform(-1, 1, (c, h, w)).astype(dtype)
            p = ConvParams(w=rng.uniform(-1, 1, (f, c, k, k)).astype(dtype),
                           bias=rng.uniform(-1, 1, f).astype(dtype))
            assert norm_rel_err(conv2d_forward(x, p), conv2d_oracle(x, p.w, p.bias)) < tol

    def test_shape_mismatch(self):
        p = ConvParams(w=np.zeros((1, 2, 3, 3)), bias=np.zeros(1))
        with pytest.raises(ValueError, match="channels"):
            conv2d_forward(np.zeros((1, 5, 5)), p)
        with pytest.raises(ValueError, match="smaller than kernel"):
            conv2d_forward(np.zeros((2, 2, 2)), p)


class TestBatchedLayersPerSample:
    """Each sample of a batch must come out as the independent oracles
    give it for that sample alone."""

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_conv_layer(self, dtype, tol):
        rng = np.random.default_rng(38)
        layer = Conv2d(2, 3, 3, dtype=dtype)
        layer.initialize(rng)
        layer.params.bias[...] = rng.uniform(-1, 1, 3)
        x = rng.uniform(-1, 1, (2, 5, 7, 6)).astype(dtype)
        out = layer.forward(x)
        assert out.shape == (3, 5, 5, 4)
        for n in range(5):
            expect = conv2d_oracle(x[:, n], layer.params.w, layer.params.bias)
            assert norm_rel_err(out[:, n], expect) < tol

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_qconv_layer_against_hamilton_sum_oracle(self, dtype, tol):
        rng = np.random.default_rng(39)
        layer = QConv2d(2, 3, 3, dtype=dtype)
        p = rand_qconv_params(rng, 3, 2, 3, dtype)
        layer.params.w[...] = p.w
        layer.params.bias[...] = p.bias
        x = rng.uniform(-1, 1, (4, 2, 5, 6, 7)).astype(dtype)
        out = layer.forward(x)
        assert out.shape == (4, 3, 5, 4, 5)
        for n in range(5):
            expect = qconv2d_hamilton_sum_oracle(x[:, :, n], p)
            assert norm_rel_err(out[:, :, n], expect) < tol

    @pytest.mark.parametrize("shape", [(3, 4, 7, 7), (4, 2, 3, 10, 9)])
    @pytest.mark.parametrize("values", ["uniform", "three-levels"])
    def test_maxpool_layer_against_argmax_oracle(self, shape, values):
        rng = np.random.default_rng(40)
        if values == "uniform":
            x = rng.uniform(-1, 1, shape)
        else:
            x = rng.integers(0, 3, shape).astype(np.float64)
        layer = MaxPool2d()
        out = layer.forward(x)
        g = rng.uniform(-1, 1, out.shape)
        gx = layer.backward(g)
        for n in range(shape[-3]):
            expect_out, expect_gx = maxpool_oracle(x[..., n, :, :], g[..., n, :, :], 2)
            assert np.array_equal(out[..., n, :, :], expect_out)
            assert np.array_equal(gx[..., n, :, :], expect_gx)

    def test_conv_layers_reject_unbatched_input(self):
        with pytest.raises(ValueError, match=r"4-d \(C, N, H, W\) batch"):
            Conv2d(2, 3).forward(np.zeros((2, 6, 6)))
        with pytest.raises(ValueError, match=r"5-d \(4, C, N, H, W\) batch"):
            QConv2d(2, 3).forward(np.zeros((4, 2, 6, 6)))

    def test_qconv_layer_rejects_a_first_axis_other_than_4(self):
        # a 5-d batch of 3 planes would otherwise reach the GEMM
        with pytest.raises(ValueError, match=r"\(4, C, N, H, W\) batch, got \(3, 2, 1, 6, 6\)"):
            QConv2d(2, 3).forward(np.zeros((3, 2, 1, 6, 6)))


def _random_correlation(kind, c, f, k, dtype, rng):
    """A Conv2d or QConv2d with uniform random weights and bias, and the
    leading axes of its input batch."""
    if kind == "conv":
        layer, lead = Conv2d(c, f, k, dtype=dtype), (c,)
    else:
        layer, lead = QConv2d(c, f, k, dtype=dtype), (4, c)
    layer.theta[...] = rng.uniform(-1, 1, layer.theta.size)
    return layer, lead


class TestConvInputGradient:
    """The input gradient of Conv2d and QConv2d: against a per-tap oracle,
    and bit for bit against the transposed GEMM scattered by the
    nine-strided-add ``col2im_oracle``."""

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
        x = rng.uniform(-1, 1, (*lead, n, h, w)).astype(dtype)
        g = rng.uniform(-1, 1, layer.forward(x).shape).astype(dtype)
        gx = layer.backward(g)
        oracle = conv_input_grad_oracle if kind == "conv" else qconv_input_grad_oracle
        assert gx.shape == x.shape and gx.dtype == dtype
        assert norm_rel_err(gx, oracle(g, layer.params.w, (h, w))) < tol

    # the conv2 and conv3 planes of both architectures at 100x100, then
    # k = 1, 3, 5 on a 9x11 plane; N = 1 and 4
    @pytest.mark.parametrize("kind,c,f,h,w,k,n", [
        ("conv", 32, 64, 49, 49, 3, 1), ("conv", 32, 64, 49, 49, 3, 4),
        ("conv", 64, 128, 23, 23, 3, 1), ("conv", 64, 128, 23, 23, 3, 4),
        ("qconv", 8, 16, 49, 49, 3, 1), ("qconv", 8, 16, 49, 49, 3, 4),
        ("qconv", 16, 32, 23, 23, 3, 1), ("qconv", 16, 32, 23, 23, 3, 4),
        ("conv", 4, 6, 9, 11, 1, 4), ("conv", 4, 6, 9, 11, 3, 1),
        ("conv", 4, 6, 9, 11, 5, 4), ("qconv", 2, 3, 9, 11, 1, 1),
        ("qconv", 2, 3, 9, 11, 3, 4), ("qconv", 2, 3, 9, 11, 5, 1),
    ])
    def test_bit_identical_to_col2im_form(self, kind, c, f, h, w, k, n):
        rng = np.random.default_rng(42)
        layer, lead = _random_correlation(kind, c, f, k, np.float32, rng)
        x = rng.uniform(-1, 1, (*lead, n, h, w)).astype(np.float32)
        g = rng.uniform(-1, 1, layer.forward(x).shape).astype(np.float32)
        gx = layer.backward(g)
        kernel = layer.params.w if kind == "conv" else as_block_conv(layer.params).w
        planes, gmat = kernel.reshape(kernel.shape[0], -1), g.reshape(kernel.shape[0], -1)
        expect = col2im_oracle(planes.T @ gmat, (kernel.shape[1], n, h, w), k)
        assert np.array_equal(gx, expect.reshape(x.shape))


class TestChunkSize:
    # the docstring of chunk_size: min(batch_size, 8) at 24x24, 1 at 100x100
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_reference_configs(self, name):
        small, paper = config_from_name(name, 24), config_from_name(name, 100)
        for batch_size in (1, 3, 4, 8, 9, 16, 100):
            assert chunk_size(small, batch_size) == min(batch_size, 8)
            assert chunk_size(paper, batch_size) == 1

    def test_depends_only_on_config_and_batch_size(self):
        assert list(inspect.signature(chunk_size).parameters) == ["config", "batch_size"]
        first = [chunk_size(config_from_name("qvcnn-hsv", 24), b) for b in range(1, 20)]
        again = [chunk_size(config_from_name("qvcnn-hsv", 24), b) for b in range(1, 20)]
        assert first == again == [min(b, 8) for b in range(1, 20)]


class TestQConv2d:
    def test_identity_quaternion_filter(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, (4, 1, 4, 4))
        w = np.zeros((4, 1, 1, 1, 1))
        w[0] = 1.0
        p = QConvParams(w=w, bias=np.zeros((4, 1)))
        out = qconv2d_forward(x, p)
        assert np.allclose(out, x)

    def test_single_j_tap_against_i_plane(self):
        # filter holds j at the center tap only; input is the constant
        # quaternion i; every output equals hamilton(j, i) = -k
        w = np.zeros((4, 1, 1, 3, 3))
        w[2, 0, 0, 1, 1] = 1.0
        p = QConvParams(w=w, bias=np.zeros((4, 1)))
        data = np.zeros((4, 1, 5, 5))
        data[1] = 1.0
        out = qconv2d_forward(data, p)
        assert np.allclose(out[0], 0) and np.allclose(out[1], 0)
        assert np.allclose(out[2], 0) and np.allclose(out[3], -1.0)

    def test_single_tap_reduces_to_hamilton_plus_bias(self):
        rng = np.random.default_rng(22)
        p = rand_qconv_params(rng, 1, 1, 1)
        x = rng.uniform(-1, 1, (4, 1, 1, 1))
        out = qconv2d_forward(x, p)
        wq = Quaternion(*(float(bank[0, 0, 0, 0]) for bank in p.w))
        bq = Quaternion(*(float(p.bias[i, 0]) for i in range(4)))
        expect = add(hamilton(wq, quat_at(x, 0, 0, 0)), bq)
        assert_close(out[:, 0, 0, 0], expect.components(), 1e-12)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_bruteforce_oracle(self, dtype, tol):
        rng = np.random.default_rng(23)
        for _ in range(5):
            c, f = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            x = rng.uniform(-1, 1, (4, c, h, w)).astype(dtype)
            p = rand_qconv_params(rng, f, c, 3, dtype)
            assert norm_rel_err(qconv2d_forward(x, p), qconv2d_oracle(x, p)) < tol

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_hamilton_sum_oracle(self, dtype, tol):
        rng = np.random.default_rng(35)
        for _ in range(5):
            c, f = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            x = rng.uniform(-1, 1, (4, c, h, w)).astype(dtype)
            p = rand_qconv_params(rng, f, c, 3, dtype)
            out = qconv2d_forward(x, p)
            assert norm_rel_err(out, qconv2d_hamilton_sum_oracle(x, p)) < tol

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_block_real_convolution(self, dtype, tol):
        rng = np.random.default_rng(24)
        for _ in range(5):
            c, f = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            x = rng.uniform(-1, 1, (4, c, h, w)).astype(dtype)
            p = rand_qconv_params(rng, f, c, 3, dtype)
            out = qconv2d_forward(x, p)
            block = conv2d_forward(x.reshape(4 * c, h, w), as_block_conv(p))
            assert norm_rel_err(out.reshape(block.shape), block) < tol

    def test_linearity_zero_bias(self):
        rng = np.random.default_rng(25)
        p = rand_qconv_params(rng, 2, 2, 3)
        p.bias[...] = 0
        x = rng.uniform(-1, 1, (4, 2, 6, 6))
        y = rng.uniform(-1, 1, (4, 2, 6, 6))
        a = 1.7
        lhs = qconv2d_forward(a * x + y, p)
        rhs = a * qconv2d_forward(x, p) + qconv2d_forward(y, p)
        assert norm_rel_err(lhs, rhs) < 1e-12

    def test_channel_mismatch(self):
        rng = np.random.default_rng(26)
        p = rand_qconv_params(rng, 1, 2, 3)
        with pytest.raises(ValueError, match="channels"):
            qconv2d_forward(np.zeros((4, 1, 5, 5)), p)

    def test_rejects_wrong_leading_axis(self):
        p = rand_qconv_params(np.random.default_rng(26), 1, 1, 3)
        for bad in (np.zeros((3, 1, 5, 5)), np.zeros((4, 5, 5))):
            with pytest.raises(ValueError, match=r"\(4, C, H, W\)"):
                qconv2d_forward(bad, p)

    def test_bank_shape_validation(self):
        with pytest.raises(ValueError, match=r"\(4, F, C, k, k\)"):
            QConvParams(w=np.zeros((3, 1, 1, 3, 3)), bias=np.zeros((4, 1)))
        with pytest.raises(ValueError, match=r"\(4, F, C, k, k\)"):
            QConvParams(w=np.zeros((4, 1, 3, 3)), bias=np.zeros((4, 1)))
        with pytest.raises(ValueError, match="bias"):
            QConvParams(w=np.zeros((4, 2, 1, 3, 3)), bias=np.zeros((4, 1)))


class TestMaxPool:
    def test_two_by_two(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert np.array_equal(MaxPool2d().forward(x), np.array([[[4.0]]]))

    def test_constant_plane(self):
        x = np.full((2, 4, 4), 3.25)
        assert np.array_equal(MaxPool2d().forward(x), np.full((2, 2, 2), 3.25))

    def test_odd_trailing_dropped(self):
        out = MaxPool2d().forward(np.zeros((1, 49, 49)))
        assert out.shape == (1, 24, 24)
        # the spatial chain that feeds the dense layer 12,800 values
        sizes = [100]
        for _ in range(3):
            sizes.append(sizes[-1] - 2)
            sizes.append((sizes[-1] - 2) // 2 + 1)
        assert sizes == [100, 98, 49, 47, 23, 21, 10]

    def test_qtensor_kind_preserved(self):
        rng = np.random.default_rng(27)
        planes = rng.uniform(-1, 1, (4, 2, 4, 6))
        out = MaxPool2d().forward(planes)
        assert out.shape == (4, 2, 2, 3)
        # per-plane independence: plane p of the output pools plane p
        for comp in range(4):
            assert np.array_equal(out[comp], MaxPool2d().forward(planes[comp]))

    def test_degenerate_size_error(self):
        with pytest.raises(ValueError, match="pool window"):
            MaxPool2d().forward(np.zeros((1, 1, 4)))

    # (shape, window): sizes that are no multiple of the window drop their
    # trailing rows/columns, among them the 47x47 and 21x21 planes of the
    # 100x100 chain and, at window 3, 9x11 (two columns) and 8x7 (two rows,
    # one column); (4, 3, 10, 9) is a (4, C, H, W) quaternion input
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
        layer = MaxPool2d(window)
        out = layer.forward(x)
        g = rng.uniform(-1, 1, out.shape)
        expect_out, expect_gx = maxpool_oracle(x, g, window)
        assert np.array_equal(out, expect_out)
        gx = layer.backward(g)
        assert np.array_equal(gx, expect_gx)
        # dropped trailing rows and columns get exactly 0
        oh, ow = out.shape[-2:]
        assert np.all(gx[..., window * oh:, :] == 0)
        assert np.all(gx[..., window * ow:] == 0)
        if values in ("all-tie", "last-max"):
            # ties route to offset 0; a lone maximum at the last offset gets it all
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
    """``Model`` runs each ReLU after the max pool it feeds; the result
    must be the bits of a pass in declaration order."""

    def test_relu_runs_after_the_pool_it_feeds(self):
        for name in CONFIG_NAMES:
            model = Model(config_from_name(name, 24))
            conv = type(model.layers[0])
            assert [type(layer) for layer in model.layers] == \
                [conv, ReLU, MaxPool2d] * 3 + [Flatten, Dense]
            assert model.run_order == [model.layers[i] for i in (0, 2, 1, 3, 5, 4, 6, 8, 7, 9, 10)]

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
        first.params.w[...] = first.params.bias[...] = 0
        first.params.w.reshape(-1, 2, *first.params.w.shape[-3:])[0, :, 0, 1, 1] = (1, -1)
        n = 3
        lead = (3,) if arithmetic == "real" else (4, 1)
        x = rng.integers(-3, 4, (*lead, n, 13, 13)).astype(dtype)
        # 2x2 windows of channel 0: max < 0, max 0 with a tie, a positive
        # tie, max 0 at the first offset
        x.reshape(-1, n, 13, 13)[0, :, 1:3, 1:9] = [[-1, -2, -1, 0, 2, -1, 0, -1],
                                                   [-3, -1, 0, -2, 0, 2, -2, -3]]
        pooled_in = first.forward(x).copy()
        peaks = MaxPool2d().forward(pooled_in)
        ties = (np.stack(layers._pool_views(pooled_in, 2)) == peaks).sum(axis=0) > 1
        assert (peaks < 0).any() and (peaks == 0).any() and (ties & (peaks > 0)).any()
        dlogits = rng.uniform(-1, 1, n).astype(dtype)

        model.zero_grads()
        h, g = x, dlogits
        for layer in model.layers:
            h = layer.forward(h)
        for layer in reversed(model.layers):
            g = layer.backward(g)
        want = (h, model.grad.copy(), g)

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


class TestFlatten:
    def test_dense_input_length(self):
        assert Flatten().forward(np.zeros((4, 32, 1, 10, 10))).shape == (1, 12800)
        assert Flatten().forward(np.zeros((128, 3, 10, 10))).shape == (3, 12800)

    def test_zero(self):
        assert np.all(Flatten().forward(np.zeros((4, 1, 2, 2, 2))) == 0)

    def test_documented_ordering(self):
        rng = np.random.default_rng(29)
        c, n, h, w = 2, 3, 3, 4
        planes = rng.uniform(-1, 1, (4, c, n, h, w))
        v = Flatten().forward(planes)
        assert v.shape == (n, 4 * c * h * w)
        for comp, ci, ni, hi, wi in [(0, 0, 0, 0, 0), (1, 1, 2, 2, 3), (3, 0, 1, 1, 2)]:
            idx = ((comp * c + ci) * h + hi) * w + wi
            assert v[ni, idx] == planes[comp, ci, ni, hi, wi]

    def test_round_trip(self):
        rng = np.random.default_rng(30)
        planes = rng.uniform(-1, 1, (4, 3, 2, 5, 2))
        layer = Flatten()
        v = layer.forward(planes).copy()
        back = layer.backward(v)
        assert back.shape == planes.shape
        assert np.array_equal(back, planes)


class TestDense:
    def test_one_hot_selects(self):
        layer = Dense(5, dtype=np.float64)
        layer.params.w[3] = 1.0
        v = np.array([[10.0, 20.0, 30.0, 40.0, 50.0], [1.0, 2.0, 3.0, 4.0, 5.0]])
        assert np.array_equal(layer.forward(v), [40.0, 4.0])

    def test_zero_vector_gives_bias(self):
        layer = Dense(4, dtype=np.float64)
        layer.params.w[...] = 1.0
        layer.params.b[...] = 0.75
        assert np.array_equal(layer.forward(np.zeros((1, 4))), [0.75])

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(31)
        v = rng.uniform(-1, 1, (3, 64))
        layer = Dense(64, dtype=np.float64)
        layer.params.w[...] = rng.uniform(-1, 1, 64)
        layer.params.b[...] = rng.uniform(-1, 1)
        p = layer.params
        expect = [sum(float(a) * float(b) for a, b in zip(p.w, row)) + float(p.b) for row in v]
        assert_close(layer.forward(v), expect, 1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Dense(4).forward(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="length"):
            Dense(4).forward(np.zeros(4))


class TestCountParameters:
    def test_rvcnn_golden(self):
        counts, total = count_parameters(rvcnn_config())
        assert counts == [896, 18496, 73856, 12801]
        assert total == 106049

    def test_qvcnn_golden(self):
        counts, total = count_parameters(qvcnn_config())
        assert counts == [320, 4672, 18560, 12801]
        assert total == 36353

    def test_parameter_ratio_about_a_third(self):
        _, rv = count_parameters(rvcnn_config())
        _, qv = count_parameters(qvcnn_config())
        assert abs(qv / rv - 0.343) < 0.001

    def test_trivial_conv(self):
        config = ModelConfig(
            name="one", arithmetic="real", encoding="rgb", input_size=1,
            in_channels=1, layers=(LayerSpec("conv", filters=1, kernel=1),),
        )
        assert count_parameters(config) == ([2], 2)

    @pytest.mark.parametrize("size,specs,match", [
        (4, rvcnn_config().layers, "conv kernel 3 does not fit input 1x1"),
        (5, (LayerSpec("conv", 1), LayerSpec("maxpool", pool=4)),
         "pool window 4 does not fit input 3x3"),
        (5, (LayerSpec("conv", 1), LayerSpec("dense", 1)), "dense before flatten"),
        (5, (LayerSpec("conv", 1), LayerSpec("avgpool")), "unknown layer kind 'avgpool'"),
    ], ids=["conv-too-big", "pool-too-big", "dense-before-flatten", "unknown-kind"])
    def test_inconsistent_config_raises(self, size, specs, match):
        config = ModelConfig(
            name="bad", arithmetic="real", encoding="rgb", input_size=size,
            in_channels=3, layers=specs,
        )
        with pytest.raises(ValueError, match=match):
            count_parameters(config)

    def test_hsv_variants_same_counts(self):
        assert count_parameters(rvcnn_config("hsv")) == count_parameters(rvcnn_config("rgb"))
        assert count_parameters(qvcnn_config("hsv")) == count_parameters(qvcnn_config("rgb"))


class TestShapeChain:
    @pytest.mark.parametrize("maker", [rvcnn_config, qvcnn_config])
    def test_dense_sees_12800(self, maker):
        rows = trace_shapes(maker(input_size=100))
        flat = [row[4] for row in rows if row[0].kind == "flatten"][0]
        assert flat == 12800

    # Model.backward skips the first layer's input gradient, and ReLU
    # rectifies its input in place: a first layer that is no convolution
    # would return no input gradient it owes and could overwrite the
    # caller's batch
    @pytest.mark.parametrize("size,specs,first", [
        (24, (), "none"),
        (24, (LayerSpec("relu"), *rvcnn_config().layers), "relu"),
        (48, (LayerSpec("maxpool"), *rvcnn_config().layers), "maxpool"),
    ], ids=["no-layers", "relu-first", "maxpool-first"])
    def test_first_layer_must_be_a_convolution(self, size, specs, first):
        config = ModelConfig(name="bad", arithmetic="real", encoding="rgb",
                             input_size=size, in_channels=3, layers=specs)
        match = f"first layer must be conv or qconv, got {first}"
        with pytest.raises(ValueError, match=match):
            trace_shapes(config)
        with pytest.raises(ValueError, match=match):
            Model(config)

    def test_config_from_name(self):
        for name in ("rvcnn-rgb", "rvcnn-hsv", "qvcnn-rgb", "qvcnn-hsv"):
            config = config_from_name(name)
            assert config.name == name
        with pytest.raises(ValueError, match="unknown config"):
            config_from_name("qvcnn-lab")


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(32)
        config = qvcnn_config(input_size=24)
        model = Model(config, rng=rng)
        path = tmp_path / "model.bin"
        save_model(path, model)
        loaded = load_model(path, config)
        assert np.array_equal(loaded.theta, model.theta)

    def test_digest_mismatch(self, tmp_path):
        rng = np.random.default_rng(33)
        model = Model(qvcnn_config(input_size=24), rng=rng)
        path = tmp_path / "model.bin"
        save_model(path, model)
        with pytest.raises(ValueError, match="digest"):
            load_model(path, rvcnn_config(input_size=24))

    @pytest.mark.parametrize("corrupt,match", [
        (lambda data: data[:len(data) // 2], "truncated"),
        (lambda data: b"QVCX" + data[4:], "bad magic"),
        (lambda data: data[:4] + struct.pack("<I", 2) + data[8:],
         "unsupported container version 2"),
        (lambda data: data + b"\0", "trailing bytes"),
    ], ids=["truncated", "bad-magic", "version", "trailing-bytes"])
    def test_corrupt_file(self, tmp_path, corrupt, match):
        rng = np.random.default_rng(34)
        model = Model(qvcnn_config(input_size=24), rng=rng)
        path = tmp_path / "model.bin"
        save_model(path, model)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ValueError, match=match):
            load_model(path, qvcnn_config(input_size=24))

    def test_container_layout(self, tmp_path):
        model = Model(qvcnn_config(input_size=24), rng=np.random.default_rng(37))
        path = tmp_path / "model.bin"
        save_model(path, model)
        data = path.read_bytes()
        assert data[:4] == b"QVCN"
        assert struct.unpack("<I", data[4:8]) == (1,)
        assert data[8:40] == config_digest(model.config)
        assert len(data) == 40 + 4 * model.param_count
        arrays = [p for layer in model.layers if layer.param_count
                  for p in per_array(layer.params)]
        assert len(arrays) == 17  # four banks and a bias per qconv, then dense w and b
        blobs = b"".join(np.asarray(p, dtype="<f4").tobytes() for p in arrays)
        assert data[40:] == blobs

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_layer_arrays_are_views_of_theta(self, tmp_path, name):
        model = Model(config_from_name(name, 24), rng=np.random.default_rng(39))
        for flat, container in ((model.theta, "params"), (model.grad, "grads")):
            base = flat.__array_interface__["data"][0]
            offset = 0
            for layer in model.layers:
                if not layer.param_count:
                    continue
                for arr in vars(getattr(layer, container)).values():
                    assert np.shares_memory(arr, flat)
                    assert arr.__array_interface__["data"][0] == base + offset * flat.itemsize
                    offset += arr.size
            assert offset == flat.size == model.param_count
        path = tmp_path / "model.bin"
        save_model(path, model)
        assert path.read_bytes()[40:] == model.theta.astype("<f4").tobytes()

    def test_reads_a_file_built_from_the_documented_layout(self, tmp_path):
        config = rvcnn_config(input_size=24)
        _, total = count_parameters(config)
        theta = np.random.default_rng(36).standard_normal(total)
        path = tmp_path / "model.bin"
        path.write_bytes(b"QVCN" + struct.pack("<I", 1) + config_digest(config)
                         + theta.astype("<f4").tobytes())
        loaded = load_model(path, config)
        assert loaded.theta.dtype == np.float32
        assert np.array_equal(loaded.theta, theta.astype(np.float32))
        assert np.array_equal(load_model(path, config, dtype=np.float64).theta,
                              theta.astype(np.float32))

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        model = Model(qvcnn_config(input_size=24), rng=np.random.default_rng(38))
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
