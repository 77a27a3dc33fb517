import struct

import numpy as np
import pytest

from quatcnn.quat import QTensor, Quaternion, hamilton, add
from quatcnn.layers import (
    ConvParams, QConvParams, conv2d_forward, qconv2d_forward, as_block_conv,
    MaxPool2d, ReLU, Flatten, Dense, LayerSpec, ModelConfig, rvcnn_config, qvcnn_config, config_from_name,
    count_parameters, trace_shapes, Model, config_digest, save_model, load_model,
)
from testutil import (
    assert_close, norm_rel_err, conv2d_oracle, qconv2d_oracle,
    qconv2d_hamilton_sum_oracle, maxpool_oracle,
)


def rand_qconv_params(rng, f, c, k, dtype=np.float64):
    mk = lambda: rng.uniform(-1, 1, (f, c, k, k)).astype(dtype)
    return QConvParams(w0=mk(), w1=mk(), w2=mk(), w3=mk(),
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


class TestQConv2d:
    def test_identity_quaternion_filter(self):
        rng = np.random.default_rng(21)
        x = QTensor(rng.uniform(-1, 1, (4, 1, 4, 4)))
        p = QConvParams(
            w0=np.ones((1, 1, 1, 1)), w1=np.zeros((1, 1, 1, 1)),
            w2=np.zeros((1, 1, 1, 1)), w3=np.zeros((1, 1, 1, 1)),
            bias=np.zeros((4, 1)),
        )
        out = qconv2d_forward(x, p)
        assert np.allclose(out.data, x.data)

    def test_single_j_tap_against_i_plane(self):
        # filter holds j at the center tap only; input is the constant
        # quaternion i; every output equals hamilton(j, i) = -k
        zeros = np.zeros((1, 1, 3, 3))
        w2 = zeros.copy()
        w2[0, 0, 1, 1] = 1.0
        p = QConvParams(w0=zeros.copy(), w1=zeros.copy(), w2=w2,
                        w3=zeros.copy(), bias=np.zeros((4, 1)))
        data = np.zeros((4, 1, 5, 5))
        data[1] = 1.0
        out = qconv2d_forward(QTensor(data), p)
        assert np.allclose(out.data[0], 0) and np.allclose(out.data[1], 0)
        assert np.allclose(out.data[2], 0) and np.allclose(out.data[3], -1.0)

    def test_single_tap_reduces_to_hamilton_plus_bias(self):
        rng = np.random.default_rng(22)
        p = rand_qconv_params(rng, 1, 1, 1)
        x = QTensor(rng.uniform(-1, 1, (4, 1, 1, 1)))
        out = qconv2d_forward(x, p)
        wq = Quaternion(float(p.w0[0, 0, 0, 0]), float(p.w1[0, 0, 0, 0]),
                        float(p.w2[0, 0, 0, 0]), float(p.w3[0, 0, 0, 0]))
        bq = Quaternion(*(float(p.bias[i, 0]) for i in range(4)))
        expect = add(hamilton(wq, x.at(0, 0, 0)), bq)
        assert_close(out.data[:, 0, 0, 0], expect.components(), 1e-12)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_bruteforce_oracle(self, dtype, tol):
        rng = np.random.default_rng(23)
        for _ in range(5):
            c, f = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            x = QTensor(rng.uniform(-1, 1, (4, c, h, w)).astype(dtype))
            p = rand_qconv_params(rng, f, c, 3, dtype)
            assert norm_rel_err(qconv2d_forward(x, p).data, qconv2d_oracle(x, p)) < tol

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_hamilton_sum_oracle(self, dtype, tol):
        rng = np.random.default_rng(35)
        for _ in range(5):
            c, f = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            x = QTensor(rng.uniform(-1, 1, (4, c, h, w)).astype(dtype))
            p = rand_qconv_params(rng, f, c, 3, dtype)
            out = qconv2d_forward(x, p).data
            assert norm_rel_err(out, qconv2d_hamilton_sum_oracle(x, p)) < tol

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_block_real_convolution(self, dtype, tol):
        rng = np.random.default_rng(24)
        for _ in range(5):
            c, f = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            x = QTensor(rng.uniform(-1, 1, (4, c, h, w)).astype(dtype))
            p = rand_qconv_params(rng, f, c, 3, dtype)
            out = qconv2d_forward(x, p).data
            block = conv2d_forward(x.data.reshape(4 * c, h, w), as_block_conv(p))
            assert norm_rel_err(out.reshape(block.shape), block) < tol

    def test_linearity_zero_bias(self):
        rng = np.random.default_rng(25)
        p = rand_qconv_params(rng, 2, 2, 3)
        p.bias[...] = 0
        x = QTensor(rng.uniform(-1, 1, (4, 2, 6, 6)))
        y = QTensor(rng.uniform(-1, 1, (4, 2, 6, 6)))
        a = 1.7
        lhs = qconv2d_forward(QTensor(a * x.data + y.data), p).data
        rhs = a * qconv2d_forward(x, p).data + qconv2d_forward(y, p).data
        assert norm_rel_err(lhs, rhs) < 1e-12

    def test_channel_mismatch(self):
        rng = np.random.default_rng(26)
        p = rand_qconv_params(rng, 1, 2, 3)
        with pytest.raises(ValueError, match="channels"):
            qconv2d_forward(QTensor(np.zeros((4, 1, 5, 5))), p)

    def test_bank_shape_validation(self):
        with pytest.raises(ValueError, match="w2"):
            QConvParams(w0=np.zeros((1, 1, 3, 3)), w1=np.zeros((1, 1, 3, 3)),
                        w2=np.zeros((1, 1, 2, 2)), w3=np.zeros((1, 1, 3, 3)),
                        bias=np.zeros((4, 1)))


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

    # (shape, window, stride): odd sizes drop their trailing row/column;
    # window 3/stride 2 and window 2/stride 1 overlap; the last is a
    # (4, C, H, W) quaternion input
    @pytest.mark.parametrize("shape,window,stride", [
        ((3, 7, 7), 2, 2), ((2, 49, 49), 2, 2), ((2, 9, 11), 3, 2),
        ((2, 8, 7), 2, 1), ((4, 3, 10, 9), 2, 2),
    ])
    @pytest.mark.parametrize("values", ["uniform", "three-levels", "all-tie"])
    def test_layer_matches_argmax_oracle(self, shape, window, stride, values):
        rng = np.random.default_rng(36)
        if values == "uniform":
            x = rng.uniform(-1, 1, shape)
        elif values == "three-levels":
            x = rng.integers(0, 3, shape).astype(np.float64)
        else:
            x = np.full(shape, 0.5)
        layer = MaxPool2d(window, stride)
        out = layer.forward(x)
        g = rng.uniform(-1, 1, out.shape)
        expect_out, expect_gx = maxpool_oracle(x, g, window, stride)
        assert np.array_equal(out, expect_out)
        gx = layer.backward(g)
        if window == stride:
            assert np.array_equal(gx, expect_gx)
        else:
            assert_close(gx, expect_gx, 1e-12, "overlapping windows")


class TestReLU:
    def test_split_application(self):
        planes = np.array([-1.0, 2.0, -3.0, 4.0]).reshape(4, 1, 1, 1)
        out = ReLU().forward(planes)
        assert out.shape == (4, 1, 1, 1)
        assert QTensor(out).at(0, 0, 0).components() == (0.0, 2.0, 0.0, 4.0)

    def test_all_negative(self):
        assert np.array_equal(ReLU().forward(-np.ones((2, 3, 3))), np.zeros((2, 3, 3)))

    def test_idempotent(self):
        rng = np.random.default_rng(28)
        x = rng.normal(size=(3, 5, 5))
        once = ReLU().forward(x)
        assert np.array_equal(ReLU().forward(once), once)


class TestFlatten:
    def test_dense_input_length(self):
        assert Flatten().forward(np.zeros((4, 32, 10, 10))).shape == (12800,)

    def test_zero(self):
        assert np.all(Flatten().forward(np.zeros((4, 1, 2, 2))) == 0)

    def test_documented_ordering(self):
        rng = np.random.default_rng(29)
        c, h, w = 2, 3, 4
        planes = rng.uniform(-1, 1, (4, c, h, w))
        v = Flatten().forward(planes)
        for comp, ci, hi, wi in [(0, 0, 0, 0), (1, 1, 2, 3), (3, 0, 1, 2)]:
            idx = ((comp * c + ci) * h + hi) * w + wi
            assert v[idx] == planes[comp, ci, hi, wi]

    def test_round_trip(self):
        rng = np.random.default_rng(30)
        planes = rng.uniform(-1, 1, (4, 3, 5, 2))
        layer = Flatten()
        v = layer.forward(planes).copy()
        back = layer.backward(v)
        assert back.shape == planes.shape
        assert np.array_equal(back, planes)


class TestDense:
    def test_one_hot_selects(self):
        layer = Dense(5, dtype=np.float64)
        layer.params.w[3] = 1.0
        v = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        assert layer.forward(v) == 40.0

    def test_zero_vector_gives_bias(self):
        layer = Dense(4, dtype=np.float64)
        layer.params.w[...] = 1.0
        layer.params.b[...] = 0.75
        assert layer.forward(np.zeros(4)) == 0.75

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(31)
        v = rng.uniform(-1, 1, 64)
        layer = Dense(64, dtype=np.float64)
        layer.params.w[...] = rng.uniform(-1, 1, 64)
        layer.params.b[...] = rng.uniform(-1, 1)
        p = layer.params
        expect = sum(float(a) * float(b) for a, b in zip(p.w, v)) + float(p.b)
        assert_close(layer.forward(v), expect, 1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Dense(4).forward(np.zeros(3))


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

    def test_inconsistent_config_raises(self):
        config = ModelConfig(
            name="bad", arithmetic="real", encoding="rgb", input_size=4,
            in_channels=3, layers=rvcnn_config().layers,
        )
        with pytest.raises(ValueError, match="inconsistent"):
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
        for a, b in zip(loaded.parameters, model.parameters):
            assert np.array_equal(a, b)

    def test_digest_mismatch(self, tmp_path):
        rng = np.random.default_rng(33)
        model = Model(qvcnn_config(input_size=24), rng=rng)
        path = tmp_path / "model.bin"
        save_model(path, model)
        with pytest.raises(ValueError, match="digest"):
            load_model(path, rvcnn_config(input_size=24))

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(34)
        model = Model(qvcnn_config(input_size=24), rng=rng)
        path = tmp_path / "model.bin"
        save_model(path, model)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
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
        blobs = b"".join(np.asarray(p, dtype="<f4").tobytes() for p in model.parameters)
        assert data[40:] == blobs

    def test_failed_save_keeps_previous_file(self, tmp_path):
        model = Model(qvcnn_config(input_size=24), rng=np.random.default_rng(38))
        path = tmp_path / "model.bin"
        save_model(path, model)
        before = path.read_bytes()
        # the last blob cannot be cast to float32, so the save fails midway
        model.layers[-1].params.b = np.array("not a number", dtype=object)
        with pytest.raises(ValueError):
            save_model(path, model)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
