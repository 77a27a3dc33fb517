import struct

import numpy as np
import pytest

from quatcnn.quat import QTensor
from quatcnn.layers import (
    Conv2d, QConv2d, MaxPool2d, ReLU, Flatten, Dense,
    Model, glorot_uniform, save_model,
)
from quatcnn.train import (
    Adam, bce_with_logits, grad_check, train_model,
    save_checkpoint, load_checkpoint, run_gradient_verification, _tiny_config,
)
from testutil import layer_fd_check


class TestGlorot:
    def test_closed_form_limit(self):
        rng = np.random.default_rng(0)
        samples = glorot_uniform(rng, (10000,), fan_in=3, fan_out=3, dtype=np.float64)
        assert samples.min() >= -1.0 and samples.max() <= 1.0
        assert samples.max() > 0.9  # the limit is actually reached

    def test_mean_within_three_sigma(self):
        rng = np.random.default_rng(1)
        n = 100_000
        limit = np.sqrt(6.0 / (20 + 30))
        samples = glorot_uniform(rng, (n,), fan_in=20, fan_out=30, dtype=np.float64)
        sigma_mean = limit / np.sqrt(3.0 * n)
        assert abs(samples.mean()) < 3.0 * sigma_mean

    def test_same_seed_bit_identical(self):
        a = glorot_uniform(np.random.default_rng(7), (4, 4), 8, 8)
        b = glorot_uniform(np.random.default_rng(7), (4, 4), 8, 8)
        assert np.array_equal(a, b)

    def test_bad_fans(self):
        with pytest.raises(ValueError, match="fans"):
            glorot_uniform(np.random.default_rng(0), (2,), 0, 1)


class TestBCE:
    def test_symmetry_point(self):
        loss, grad = bce_with_logits(0.0, 1)
        assert abs(loss - np.log(2)) < 1e-15
        assert grad == -0.5

    def test_large_logit_stable(self):
        loss, grad = bce_with_logits(50.0, 1)
        assert 0.0 <= loss < 1e-20
        assert abs(grad) < 1e-20
        loss0, grad0 = bce_with_logits(-50.0, 0)
        assert 0.0 <= loss0 < 1e-20 and abs(grad0) < 1e-20

    def test_matches_naive_oracle(self):
        # |z| capped where the naive form is itself good to 1e-9: at
        # larger logits 1 - sigma cancels catastrophically, which is the
        # reason the implementation uses the softplus form
        rng = np.random.default_rng(2)
        for _ in range(500):
            z = float(rng.uniform(-12, 12))
            label = int(rng.integers(0, 2))
            sigma = 1.0 / (1.0 + np.exp(-z))
            naive = -np.log(sigma) if label == 1 else -np.log(1.0 - sigma)
            loss, grad = bce_with_logits(z, label)
            assert abs(loss - naive) < 1e-9
            assert abs(grad - (sigma - label)) < 1e-12

    def test_label_validation(self):
        with pytest.raises(ValueError, match="label"):
            bce_with_logits(0.0, 2)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = np.array([1.0, -2.0, 3.0])
        adam = Adam([p])
        adam.step([np.zeros(3)])
        assert np.array_equal(p, [1.0, -2.0, 3.0])
        assert adam.t == 1

    def test_first_step_magnitude(self):
        for g0 in (0.37, -41.0, 1e-3):
            p = np.zeros(1)
            adam = Adam([p], lr=1e-3)
            adam.step([np.array([g0])])
            # bias-corrected first step is lr * g / (|g| + eps) ~ lr * sign(g)
            assert abs(p[0] + 1e-3 * np.sign(g0)) < 1e-6

    def test_positive_scaling_keeps_direction(self):
        g = np.array([0.2, -0.8, 1.5, -1e-4])
        steps = []
        for scale in (1.0, 7.3):
            p = np.zeros(4)
            adam = Adam([p])
            adam.step([scale * g])
            steps.append(p.copy())
        assert np.array_equal(np.sign(steps[0]), np.sign(steps[1]))
        assert np.allclose(steps[0], steps[1], rtol=1e-3)

    def test_lockstep_models_stay_identical(self):
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        m1 = Model(_tiny_config("quaternion"), rng=rng1, dtype=np.float64)
        m2 = Model(_tiny_config("quaternion"), rng=rng2, dtype=np.float64)
        a1, a2 = Adam(m1.parameters), Adam(m2.parameters)
        x = np.random.default_rng(4).uniform(-1, 1, (4, 1, 12, 12))
        for _ in range(3):
            for m, a in ((m1, a1), (m2, a2)):
                m.zero_grads()
                loss, dlogit = bce_with_logits(m.forward(QTensor(x)), 1)
                m.backward(dlogit)
                a.step(m.gradients)
        for p1, p2 in zip(m1.parameters, m2.parameters):
            assert np.array_equal(p1, p2)


# ---------------------------------------------------------------------------
# per-layer finite differences


class TestLayerGradients:
    @pytest.mark.parametrize("rep", range(3))
    def test_conv(self, rep):
        rng = np.random.default_rng(100 + rep)
        layer = Conv2d(2, 3, 3, dtype=np.float64)
        layer.initialize(rng)
        layer_fd_check(layer, rng.uniform(-1, 1, (2, 6, 6)), rng)

    @pytest.mark.parametrize("rep", range(3))
    def test_qconv(self, rep):
        rng = np.random.default_rng(200 + rep)
        layer = QConv2d(2, 2, 3, dtype=np.float64)
        layer.initialize(rng)
        layer_fd_check(layer, rng.uniform(-1, 1, (4, 2, 6, 6)), rng)

    @pytest.mark.parametrize("rep", range(3))
    def test_maxpool(self, rep):
        rng = np.random.default_rng(300 + rep)
        layer_fd_check(MaxPool2d(), rng.uniform(-1, 1, (3, 6, 6)), rng)

    @pytest.mark.parametrize("rep", range(3))
    def test_relu(self, rep):
        rng = np.random.default_rng(400 + rep)
        layer_fd_check(ReLU(), rng.uniform(-1, 1, (2, 5, 5)), rng)

    @pytest.mark.parametrize("rep", range(3))
    def test_flatten(self, rep):
        rng = np.random.default_rng(500 + rep)
        layer_fd_check(Flatten(), rng.uniform(-1, 1, (2, 4, 4)), rng)

    @pytest.mark.parametrize("rep", range(3))
    def test_dense(self, rep):
        rng = np.random.default_rng(600 + rep)
        layer = Dense(20, dtype=np.float64)
        layer.initialize(rng)
        layer_fd_check(layer, rng.uniform(-1, 1, 20), rng)


class TestBackwardClosedForms:
    def test_relu_routing(self):
        layer = ReLU()
        x = np.array([[-2.0, 3.0], [0.0, 5.0]])
        layer.forward(x)
        g = layer.backward(np.ones((2, 2)))
        assert np.array_equal(g, [[0.0, 1.0], [0.0, 1.0]])

    def test_dense_closed_form(self):
        layer = Dense(3, dtype=np.float64)
        layer.params.w[...] = [1.0, -2.0, 0.5]
        v = np.array([4.0, 5.0, 6.0])
        layer.forward(v)
        layer.zero_grads()
        gv = layer.backward(2.0)
        assert np.array_equal(layer.grads.w, 2.0 * v)
        assert layer.grads.b == 2.0
        assert np.array_equal(gv, 2.0 * layer.params.w)

    def test_maxpool_tie_routes_to_first_row_major(self):
        layer = MaxPool2d()
        x = np.full((1, 2, 2), 5.0)
        layer.forward(x)
        g = layer.backward(np.array([[[1.0]]]))
        assert g[0, 0, 0] == 1.0
        assert np.all(g.reshape(-1)[1:] == 0)

    def test_maxpool_routes_to_argmax(self):
        layer = MaxPool2d()
        x = np.array([[[1.0, 7.0], [7.0, 0.0]]])
        layer.forward(x)
        g = layer.backward(np.array([[[2.0]]]))
        assert g[0, 0, 1] == 2.0  # (0, 1) precedes (1, 0) in row-major order
        assert g[0, 1, 0] == 0.0


class TestGradCheck:
    def test_tiny_qvcnn(self):
        rng = np.random.default_rng(40)
        model = Model(_tiny_config("quaternion"), rng=rng, dtype=np.float64)
        x = QTensor(rng.uniform(-1, 1, (4, 1, 12, 12)))
        assert grad_check(model, x, 1, rng=rng) < 1e-4

    def test_tiny_rvcnn(self):
        rng = np.random.default_rng(41)
        model = Model(_tiny_config("real"), rng=rng, dtype=np.float64)
        x = rng.uniform(-1, 1, (3, 12, 12))
        assert grad_check(model, x, 0, rng=rng) < 1e-4

    def test_dead_paths_are_filtered(self):
        rng = np.random.default_rng(42)
        model = Model(_tiny_config("real"), rng=rng, dtype=np.float64)
        # saturate one filter: its kernel taps get zero analytic gradient
        # and zero finite differences, which must be skipped, not scored
        model.layers[0].params.bias[0] = -100.0
        x = rng.uniform(-1, 1, (3, 12, 12))
        assert grad_check(model, x, 1, num_samples=400, rng=rng) < 1e-4

    def test_requires_double(self):
        model = Model(_tiny_config("real"), rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="float64"):
            grad_check(model, np.zeros((3, 12, 12)), 0)

    def test_verification_suite(self):
        rows = run_gradient_verification(seed=0, num_samples=80)
        assert len(rows) == 6
        assert all(err < 1e-4 for _, err in rows)


def tiny_dataset(rng, n=8, size=12, quaternion=False):
    samples = []
    for i in range(n):
        label = i % 2
        base = 0.8 if label else 0.2
        if quaternion:
            x = QTensor(np.clip(base + rng.normal(0, 0.05, (4, 1, size, size)), 0, 1)
                        .astype(np.float32))
        else:
            x = np.clip(base + rng.normal(0, 0.05, (3, size, size)), 0, 1).astype(np.float32)
        samples.append((x, label))
    return samples


class TestTrainModel:
    def test_zero_epochs_returns_initial_params(self):
        rng = np.random.default_rng(50)
        data = tiny_dataset(rng)
        config = _tiny_config("real")
        model, metrics = train_model(config, data, epochs=0, seed=9)
        assert metrics == []
        reference = Model(config, rng=np.random.default_rng(9))
        for a, b in zip(model.parameters, reference.parameters):
            assert np.array_equal(a, b)

    def test_same_seed_identical(self):
        rng = np.random.default_rng(51)
        data = tiny_dataset(rng)
        config = _tiny_config("real")
        m1, t1 = train_model(config, data, epochs=3, batch_size=4, seed=5)
        m2, t2 = train_model(config, data, epochs=3, batch_size=4, seed=5)
        assert t1 == t2
        for a, b in zip(m1.parameters, m2.parameters):
            assert np.array_equal(a, b)

    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(52)
        data = tiny_dataset(rng, n=8)
        _, metrics = train_model(_tiny_config("real"), data, epochs=10,
                                 batch_size=4, seed=1)
        assert metrics[-1].loss < metrics[0].loss

    def test_quaternion_path(self):
        rng = np.random.default_rng(53)
        data = tiny_dataset(rng, quaternion=True)
        model, metrics = train_model(_tiny_config("quaternion"), data, epochs=2, seed=2)
        assert len(metrics) == 2
        assert 0.0 <= metrics[-1].train_acc <= 1.0

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            train_model(_tiny_config("real"), [], epochs=1)

    @pytest.mark.parametrize("arithmetic", ["real", "quaternion"])
    def test_nan_input_fails_with_epoch_and_batch(self, arithmetic):
        rng = np.random.default_rng(58)
        data = tiny_dataset(rng, quaternion=arithmetic == "quaternion")
        x, label = data[5]
        poisoned = np.array(x.data if arithmetic == "quaternion" else x)
        poisoned[(0,) * poisoned.ndim] = np.nan
        data[5] = (QTensor(poisoned) if arithmetic == "quaternion" else poisoned, label)
        with pytest.raises(ValueError, match=r"non-finite loss .* epoch 0, batch \d"):
            train_model(_tiny_config(arithmetic), data, epochs=1, batch_size=4, seed=6)

    def test_single_class(self):
        rng = np.random.default_rng(54)
        data = [(x, 1) for x, _ in tiny_dataset(rng)]
        with pytest.raises(ValueError, match="single class"):
            train_model(_tiny_config("real"), data, epochs=1)

    def test_metrics_csv_stream(self, tmp_path):
        rng = np.random.default_rng(55)
        data = tiny_dataset(rng)
        path = tmp_path / "metrics.csv"
        _, metrics = train_model(_tiny_config("real"), data, epochs=3, seed=3,
                                 metrics_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,train_acc"
        assert len(lines) == 4
        epoch, loss, acc = lines[-1].split(",")
        assert int(epoch) == 2
        assert float(loss) == metrics[-1].loss
        assert float(acc) == metrics[-1].train_acc


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(56)
        data = tiny_dataset(rng)
        config = _tiny_config("real")
        model, _ = train_model(config, data, epochs=2, batch_size=4, seed=4)
        adam = Adam(model.parameters, lr=5e-4)
        adam.t = 17
        adam.m = [np.full_like(p, 0.25) for p in model.parameters]
        adam.v = [np.full_like(p, 0.5) for p in model.parameters]
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model, adam)
        restored_model, restored_adam = load_checkpoint(path, config)
        for a, b in zip(restored_model.parameters, model.parameters):
            assert np.array_equal(a, b)
        assert restored_adam.t == 17
        assert restored_adam.lr == 5e-4
        for group_a, group_b in ((restored_adam.m, adam.m), (restored_adam.v, adam.v)):
            for a, b in zip(group_a, group_b):
                assert np.array_equal(a, b)

    def test_model_container_alone_rejected(self, tmp_path):
        rng = np.random.default_rng(57)
        config = _tiny_config("real")
        model = Model(config, rng=rng)
        path = tmp_path / "model.bin"
        save_model(path, model)
        with pytest.raises(ValueError, match="optimizer state"):
            load_checkpoint(path, config)

    def _saved_pair(self, tmp_path):
        model = Model(_tiny_config("real"), rng=np.random.default_rng(58))
        adam = Adam(model.parameters, lr=5e-4)
        adam.t = 3
        save_model(tmp_path / "model.bin", model)
        save_checkpoint(tmp_path / "ckpt.bin", model, adam)
        return model, tmp_path / "model.bin", tmp_path / "ckpt.bin"

    def test_layout_appends_adam_tail(self, tmp_path):
        model, model_path, ckpt_path = self._saved_pair(tmp_path)
        head = model_path.read_bytes()
        data = ckpt_path.read_bytes()
        assert data[:len(head)] == head
        tail = data[len(head):]
        assert tail[:4] == b"ADAM"
        assert struct.unpack("<Qdddd", tail[4:44]) == (3, 5e-4, 0.9, 0.999, 1e-7)
        assert len(tail) == 44 + 8 * model.param_count

    @pytest.mark.parametrize("damage,match", [
        (lambda data: data[:-1], "truncated"),
        (lambda data: data + b"\0", "trailing"),
    ], ids=["truncated", "trailing"])
    def test_damaged_checkpoint_rejected(self, tmp_path, damage, match):
        _, _, ckpt_path = self._saved_pair(tmp_path)
        ckpt_path.write_bytes(damage(ckpt_path.read_bytes()))
        with pytest.raises(ValueError, match=match):
            load_checkpoint(ckpt_path, _tiny_config("real"))

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        model = Model(_tiny_config("real"), rng=np.random.default_rng(59))
        adam = Adam(model.parameters)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model, adam)
        before = path.read_bytes()
        adam.t = 1
        adam.v[-1] = np.array("not a number", dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(path, model, adam)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]
