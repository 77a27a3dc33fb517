import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from quatcnn.layers import (
    Conv2d, QConv2d, MaxPool2d, ReLU, Flatten, Dense, IM2COL_BUDGET,
    Model, chunk_size, config_from_name, glorot_uniform,
)
from quatcnn.train import (
    Adam, Samples, bce_with_logits, grad_check, train_model, _minibatch,
    run_gradient_verification, _tiny_config,
)
from testutil import (
    assert_close, bce_oracle, grad_arrays, layer_fd_check, pool_major, from_pool_major,
)


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
        z = rng.uniform(-12, 12, 500)
        labels = rng.integers(0, 2, 500)
        sigma = 1.0 / (1.0 + np.exp(-z))
        naive = np.where(labels == 1, -np.log(sigma), -np.log(1.0 - sigma))
        loss, grad = bce_with_logits(z, labels)
        assert loss.shape == grad.shape == (500,)
        assert np.max(np.abs(loss - naive)) < 1e-9
        assert np.max(np.abs(grad - (sigma - labels))) < 1e-12

    @pytest.mark.parametrize("label", [0, 1])
    def test_matches_scalar_oracle_bit_for_bit(self, label):
        # np.where evaluates both sigmoid branches, so neither may overflow
        magnitudes = [0.0, 1e-8, 1.0, 50.0, 700.0, 800.0, 1e4]
        z = np.array([sign * m for m in magnitudes for sign in (1.0, -1.0)])
        z32 = np.random.default_rng(3).normal(0, 30, 2000).astype(np.float32)
        for logits in (z, z32):
            labels = np.full(logits.shape, label)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                loss, grad = bce_with_logits(logits, labels)
            expect = np.array([bce_oracle(v, label) for v in logits])
            assert np.array_equal(loss, expect[:, 0]) and np.array_equal(grad, expect[:, 1])
            assert loss.dtype == grad.dtype == np.float64

    def test_label_validation(self):
        for labels in (2, [0, 2], [-1, 1], [0.5, 1.0]):
            with pytest.raises(ValueError, match="label"):
                bce_with_logits(np.zeros(np.shape(labels)), labels)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = np.array([1.0, -2.0, 3.0])
        adam = Adam(p)
        adam.step(np.zeros(3))
        assert np.array_equal(p, [1.0, -2.0, 3.0])
        assert adam.t == 1

    def test_first_step_magnitude(self):
        for g0 in (0.37, -41.0, 1e-3):
            p = np.zeros(1)
            adam = Adam(p)
            adam.step(np.array([g0]))
            # bias-corrected first step is lr * g / (|g| + eps) ~ lr * sign(g)
            assert abs(p[0] + 1e-3 * np.sign(g0)) < 1e-6

    def test_positive_scaling_keeps_direction(self):
        g = np.array([0.2, -0.8, 1.5, -1e-4])
        steps = []
        for scale in (1.0, 7.3):
            p = np.zeros(4)
            adam = Adam(p)
            adam.step(scale * g)
            steps.append(p.copy())
        assert np.array_equal(np.sign(steps[0]), np.sign(steps[1]))
        assert np.allclose(steps[0], steps[1], rtol=1e-3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_adam_expression_bit_for_bit(self, dtype):
        rng = np.random.default_rng(5)
        theta = rng.uniform(-1, 1, 257).astype(dtype)
        p, m, v = theta.copy(), np.zeros_like(theta), np.zeros_like(theta)
        adam = Adam(theta)
        for t in range(1, 6):
            g = rng.normal(0, 1, 257).astype(dtype)
            adam.step(g)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * np.square(g)
            p = p - 1e-3 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-7)
            assert np.array_equal(theta, p) and np.array_equal(adam.m, m)
            assert np.array_equal(adam.v, v) and theta.dtype == dtype

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="gradient shape"):
            Adam(np.zeros(3)).step(np.zeros(4))

    def test_step_makes_no_parameter_sized_temporaries(self):
        model = Model(config_from_name("rvcnn-rgb", 100), rng=np.random.default_rng(6))
        model.grad[...] = np.random.default_rng(7).normal(0, 1, model.grad.size)
        adam = Adam(model.theta)
        adam.step(model.grad)
        tracemalloc.start()
        try:
            adam.step(model.grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.theta.nbytes / 4, f"peak {peak} bytes"

    def test_lockstep_models_stay_identical(self):
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        m1 = Model(_tiny_config("quaternion"), rng=rng1, dtype=np.float64)
        m2 = Model(_tiny_config("quaternion"), rng=rng2, dtype=np.float64)
        a1, a2 = Adam(m1.theta), Adam(m2.theta)
        x = np.random.default_rng(4).uniform(-1, 1, (4, 1, 1, 12, 12))
        for _ in range(3):
            for m, a in ((m1, a1), (m2, a2)):
                m.zero_grads()
                loss, dlogit = bce_with_logits(m.forward(x), [1])
                m.backward(dlogit)
                a.step(m.grad)
        assert np.array_equal(m1.theta, m2.theta)


# ---------------------------------------------------------------------------
# per-layer finite differences


class TestLayerGradients:
    @pytest.mark.parametrize("rep", range(3))
    def test_conv(self, rep):
        rng = np.random.default_rng(100 + rep)
        layer = Conv2d(2, 3, 3, dtype=np.float64)
        layer.initialize(rng)
        layer_fd_check(layer, rng.uniform(-1, 1, (2, 6, 6, 3)), rng)

    @pytest.mark.parametrize("rep", range(3))
    def test_qconv(self, rep):
        rng = np.random.default_rng(200 + rep)
        layer = QConv2d(2, 2, 3, dtype=np.float64)
        layer.initialize(rng)
        layer_fd_check(layer, rng.uniform(-1, 1, (4, 2, 6, 6, 3)), rng)

    @pytest.mark.parametrize("rep", range(3))
    def test_maxpool(self, rep):
        rng = np.random.default_rng(300 + rep)
        # the pool-major blocks of a 6x6 plane, pooled with a bias
        x = pool_major(rng.uniform(-1, 1, (3, 6, 6, 2)), 2)
        pool = MaxPool2d(Conv2d(1, 3, 1, dtype=np.float64, pool=2))
        pool.conv.bias[...] = rng.uniform(-0.5, 0.5, 3)
        layer_fd_check(pool, x, rng)

    @pytest.mark.parametrize("rep", range(3))
    def test_relu(self, rep):
        rng = np.random.default_rng(400 + rep)
        layer_fd_check(ReLU(), rng.uniform(-1, 1, (2, 5, 5, 3)), rng)

    @pytest.mark.parametrize("rep", range(3))
    def test_flatten(self, rep):
        rng = np.random.default_rng(500 + rep)
        layer_fd_check(Flatten(), rng.uniform(-1, 1, (2, 4, 4, 3)), rng)

    @pytest.mark.parametrize("rep", range(3))
    def test_dense(self, rep):
        rng = np.random.default_rng(600 + rep)
        layer = Dense(20, dtype=np.float64)
        layer.initialize(rng)
        layer_fd_check(layer, rng.uniform(-1, 1, (20, 3)), rng)


class TestBackwardClosedForms:
    def test_relu_routing(self):
        layer = ReLU()
        x = np.array([[-2.0, 3.0], [0.0, 5.0]])
        layer.forward(x)
        g = layer.backward(np.ones((2, 2)))
        assert np.array_equal(g, [[0.0, 1.0], [0.0, 1.0]])

    def test_dense_closed_form(self):
        layer = Dense(3, dtype=np.float64)
        layer.w[...] = [1.0, -2.0, 0.5]
        v = np.array([[4.0, 5.0, 6.0], [1.0, 0.0, -1.0]]).T
        layer.forward(v)
        layer.grad.fill(0)
        gv = layer.backward(np.array([2.0, -3.0]))
        assert np.array_equal(layer.grad_w, 2.0 * v[:, 0] - 3.0 * v[:, 1])
        assert layer.grad_bias == -1.0
        assert np.array_equal(gv.T, [2.0 * layer.w, -3.0 * layer.w])

    def test_maxpool_tie_routes_to_first_row_major(self):
        layer = MaxPool2d(Conv2d(1, 1, 1, dtype=np.float64, pool=2))
        x = np.full((1, 2, 2, 1), 5.0)
        layer.forward(pool_major(x, 2))
        g = from_pool_major(layer.backward(np.array([[[[1.0]]]])))
        assert g[0, 0, 0, 0] == 1.0
        assert np.all(g.reshape(-1)[1:] == 0)

    def test_maxpool_routes_to_argmax(self):
        layer = MaxPool2d(Conv2d(1, 1, 1, dtype=np.float64, pool=2))
        x = np.array([[[1.0, 7.0], [7.0, 0.0]]])[..., None]
        layer.forward(pool_major(x, 2))
        g = from_pool_major(layer.backward(np.array([[[[2.0]]]])))
        assert g[0, 0, 1, 0] == 2.0  # (0, 1) precedes (1, 0) in row-major order
        assert g[0, 1, 0, 0] == 0.0


class TestGradCheck:
    def test_tiny_qvcnn(self):
        rng = np.random.default_rng(40)
        model = Model(_tiny_config("quaternion"), rng=rng, dtype=np.float64)
        x = rng.uniform(-1, 1, (4, 1, 1, 12, 12))
        assert grad_check(model, Samples(x, [1]), rng=rng) < 1e-4

    def test_tiny_rvcnn(self):
        rng = np.random.default_rng(41)
        model = Model(_tiny_config("real"), rng=rng, dtype=np.float64)
        x = rng.uniform(-1, 1, (3, 1, 12, 12))
        assert grad_check(model, Samples(x, [0]), rng=rng) < 1e-4

    def test_dead_paths_are_filtered(self):
        rng = np.random.default_rng(42)
        model = Model(_tiny_config("real"), rng=rng, dtype=np.float64)
        # saturate one filter: its kernel taps get zero analytic gradient
        # and zero finite differences, which must be skipped, not scored
        model.layers[0].bias[0] = -100.0
        x = rng.uniform(-1, 1, (3, 1, 12, 12))
        assert grad_check(model, Samples(x, [1]), num_samples=400, rng=rng) < 1e-4

    def test_gradients_below_the_roundoff_floor_are_not_scored(self):
        # dense weights of 1e-9 leave every conv gradient below 1e-6, where
        # the difference quotient's ~1e-10 roundoff is as large as the
        # gradient itself; scored, those pairs would give errors near 0.5
        rng = np.random.default_rng(44)
        model = Model(_tiny_config("real"), rng=rng, dtype=np.float64)
        model.layers[-1].w[...] *= 1e-9
        x = rng.uniform(-1, 1, (3, 1, 12, 12))
        assert grad_check(model, Samples(x, [1]), rng=rng) < 1e-4

    @pytest.mark.parametrize("arithmetic", ["real", "quaternion"])
    def test_conv_outputs_cropped_for_their_pools(self, arithmetic):
        # at 13x13 the convolutions' 11x11 and 3x3 outputs are no multiple
        # of the pool window, so each computes only the 10x10 and 2x2
        # positions its pool reads
        rng = np.random.default_rng(43)
        config = _tiny_config(arithmetic, input_size=13)
        model = Model(config, rng=rng, dtype=np.float64)
        lead = (4,) if arithmetic == "quaternion" else ()
        x = rng.uniform(-1, 1, (*lead, config.in_channels, 2, 13, 13))
        assert grad_check(model, Samples(x, [0, 1]), rng=rng) < 1e-4

    def test_requires_double(self):
        model = Model(_tiny_config("real"), rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="float64"):
            grad_check(model, Samples(np.zeros((3, 1, 12, 12)), [0]))

    def test_verification_suite(self):
        rows = run_gradient_verification(seed=0, num_samples=80)
        assert len(rows) == 6
        assert all(err < 1e-4 for _, err in rows)


def tiny_dataset(rng, n=8, size=12, quaternion=False) -> Samples:
    """n samples whose pixels sit near 0.8 (label 1) or 0.2 (label 0)."""
    shape = (4, 1, size, size) if quaternion else (3, size, size)
    labels = [i % 2 for i in range(n)]
    xs = [np.clip((0.8 if label else 0.2) + rng.normal(0, 0.05, shape), 0, 1)
          for label in labels]
    return Samples(np.stack(xs, axis=-3).astype(np.float32), labels)


class TestTrainModel:
    def test_zero_epochs_returns_initial_params(self):
        rng = np.random.default_rng(50)
        data = tiny_dataset(rng)
        config = _tiny_config("real")
        model, metrics = train_model(config, data, epochs=0, seed=9)
        assert metrics == []
        reference = Model(config, rng=np.random.default_rng(9))
        assert np.array_equal(model.theta, reference.theta)

    def test_same_seed_identical(self):
        rng = np.random.default_rng(51)
        data = tiny_dataset(rng)
        config = _tiny_config("real")
        m1, t1 = train_model(config, data, epochs=3, batch_size=4, seed=5)
        m2, t2 = train_model(config, data, epochs=3, batch_size=4, seed=5)
        assert t1 == t2
        assert np.array_equal(m1.theta, m2.theta)

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
            train_model(_tiny_config("real"), Samples(np.zeros((3, 0, 12, 12)), []), epochs=1)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_bad_batch_size(self, batch_size):
        data = tiny_dataset(np.random.default_rng(59))
        with pytest.raises(ValueError, match="batch_size"):
            train_model(_tiny_config("real"), data, epochs=1, batch_size=batch_size)

    @pytest.mark.parametrize("arithmetic", ["real", "quaternion"])
    def test_nan_input_fails_with_epoch_and_batch(self, arithmetic):
        rng = np.random.default_rng(58)
        data = tiny_dataset(rng, quaternion=arithmetic == "quaternion")
        data.x[..., 5, 0, 0].flat[0] = np.nan  # one pixel of sample 5
        with pytest.raises(ValueError, match=r"non-finite loss .* epoch 0, batch \d"):
            train_model(_tiny_config(arithmetic), data, epochs=1, batch_size=4, seed=6)

    def test_single_class(self):
        rng = np.random.default_rng(54)
        data = Samples(tiny_dataset(rng).x, np.ones(8))
        with pytest.raises(ValueError, match="single class"):
            train_model(_tiny_config("real"), data, epochs=1)

    def test_metrics_csv_stream(self, tmp_path):
        rng = np.random.default_rng(55)
        data = tiny_dataset(rng)
        path = tmp_path / "metrics.csv"
        _, metrics = train_model(_tiny_config("real"), data, epochs=3, seed=3,
                                 metrics_path=path)
        assert b"\r" not in path.read_bytes()
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,train_acc"
        assert len(lines) == 4
        epoch, loss, acc = lines[-1].split(",")
        assert int(epoch) == 2
        assert float(loss) == metrics[-1].loss
        assert float(acc) == metrics[-1].train_acc


# ---------------------------------------------------------------------------
# the batched path against the per-sample one


def random_samples(config, n, rng, dtype=np.float32) -> Samples:
    """n samples of the shape ``config`` takes, labels alternating."""
    size = config.input_size
    lead = (4,) if config.arithmetic == "quaternion" else ()
    xs = [rng.uniform(0, 1, (*lead, config.in_channels, size, size)).astype(dtype)
          for _ in range(n)]
    return Samples(np.stack(xs, axis=-3), [i % 2 for i in range(n)])


def one(data: Samples, i):
    """Sample i of ``data`` as a batch of one, and its label."""
    return data.x.take([i], axis=-3), int(data.y[i])


def per_sample_gradients(model, data, batch):
    """The mean-BCE gradient of the samples ``batch`` indexes, summed
    from batches of one, with the scalar loss oracle."""
    model.zero_grads()
    for i in batch:
        x, label = one(data, i)
        _, dlogit = bce_oracle(model.forward(x)[0], label)
        model.backward([dlogit / len(batch)])
    return grad_arrays(model)


def per_sample_training(config, dataset, epochs, batch_size, seed, dtype):
    """train_model's loop one sample at a time: the reference for its
    running accuracy and mean epoch loss."""
    rng = np.random.default_rng(seed)
    model = Model(config, rng=rng, dtype=dtype)
    adam = Adam(model.theta)
    rows = []
    n = len(dataset)
    for _ in range(epochs):
        order = rng.permutation(n)
        total_loss, correct = 0.0, 0
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            model.zero_grads()
            for si in batch:
                x, label = one(dataset, si)
                logit = float(model.forward(x)[0])
                loss, dlogit = bce_oracle(logit, label)
                model.backward([dlogit / len(batch)])
                total_loss += loss
                correct += int((logit > 0) == (label == 1))
            adam.step(model.grad)
        rows.append((total_loss / n, correct / n))
    return rows


ARITHMETICS = ["real", "quaternion"]


class TestBatchedPath:
    @pytest.mark.parametrize("arithmetic", ARITHMETICS)
    def test_grad_check_on_a_batch(self, arithmetic):
        rng = np.random.default_rng(70)
        config = _tiny_config(arithmetic)
        model = Model(config, rng=rng, dtype=np.float64)
        batch = random_samples(config, 4, rng, np.float64)
        assert grad_check(model, batch, rng=rng) < 1e-4

    def test_grad_check_rejects_unpaired_labels(self):
        rng = np.random.default_rng(71)
        config = _tiny_config("real")
        model = Model(config, rng=rng, dtype=np.float64)
        x = random_samples(config, 3, rng, np.float64).x
        with pytest.raises(ValueError, match="3 samples but 2 labels"):
            grad_check(model, Samples(x, [0, 1]))

    # 22 samples: the chunk sizes of each minibatch, for each batch size;
    # batch 3 ends in a partial batch, batch 16 in a partial chunk, and
    # batch 20 runs a full chunk plus a partial one
    CHUNKS = {1: [[1]] * 22, 3: [[3]] * 7 + [[1]], 16: [[16], [6]], 20: [[16, 4], [2]]}

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("batch_size", [1, 3, 16, 20])
    @pytest.mark.parametrize("name", ["rvcnn-rgb", "qvcnn-rgb"])
    def test_chunked_minibatch_gradient_is_sum_of_single_samples(self, name, batch_size,
                                                                 dtype, tol):
        rng = np.random.default_rng(72)
        config = config_from_name(name, 24)
        model = Model(config, rng=rng, dtype=dtype)
        samples = random_samples(config, 22, rng, dtype)
        chunk = chunk_size(config, batch_size)
        assert chunk == min(batch_size, 16)
        # a shuffled order, as train_model draws its batches
        order = rng.permutation(len(samples))
        chunks = []
        for start in range(0, len(samples), batch_size):
            batch = order[start:start + batch_size]
            sizes = []
            chunks.append(sizes)
            model.forward = lambda x: sizes.append(x.shape[-3]) or Model.forward(model, x)
            losses, logits = _minibatch(model, samples, batch, chunk)
            del model.forward
            batched = grad_arrays(model)
            expect = per_sample_gradients(model, samples, batch)
            for got, want in zip(batched, expect, strict=True):
                assert_close(got, want, tol, f"{name} batch {start // batch_size}")
            assert sum(sizes) == len(batch) and max(sizes) <= chunk
            assert losses.shape == logits.shape == (len(batch),)
            for loss, logit, i in zip(losses, logits, batch, strict=True):
                x, label = one(samples, i)
                single = float(model.forward(x)[0])
                assert_close(logit, single, tol)
                assert_close(loss, bce_oracle(single, label)[0], tol)
        assert chunks == self.CHUNKS[batch_size]

    @pytest.mark.parametrize("batch_size", [1, 3, 16])
    @pytest.mark.parametrize("name", ["rvcnn-rgb", "qvcnn-rgb"])
    def test_running_accuracy_and_loss_match_per_sample_loop(self, name, batch_size,
                                                             monkeypatch):
        # train_model trains float32 models; in float64 only the summation
        # order of a chunk tells it from the loop
        monkeypatch.setattr("quatcnn.train.Model", functools.partial(Model, dtype=np.float64))
        rng = np.random.default_rng(73)
        config = config_from_name(name, 24)
        data = random_samples(config, 10, rng, np.float64)
        _, metrics = train_model(config, data, epochs=2, batch_size=batch_size, seed=8)
        expect = per_sample_training(config, data, 2, batch_size, 8, np.float64)
        for row, (loss, acc) in zip(metrics, expect, strict=True):
            assert math.isclose(row.loss, loss, rel_tol=1e-12)
            assert row.train_acc == acc

    @pytest.mark.parametrize("name", ["rvcnn-rgb", "qvcnn-rgb"])
    def test_epoch_loss_is_the_per_sample_loop_sum_bit_for_bit(self, name):
        # batches of one run the same arithmetic as the loop, so only the
        # order of the epoch sum could tell them apart
        rng = np.random.default_rng(78)
        config = config_from_name(name, 24)
        data = random_samples(config, 12, rng)
        _, metrics = train_model(config, data, epochs=2, batch_size=1, seed=9)
        expect = per_sample_training(config, data, 2, 1, 9, np.float32)
        assert [(row.loss, row.train_acc) for row in metrics] == expect

    @pytest.mark.parametrize("arithmetic", ARITHMETICS)
    def test_first_layer_input_gradient_skip_keeps_gradients(self, arithmetic):
        rng = np.random.default_rng(74)
        config = _tiny_config(arithmetic)
        model = Model(config, rng=rng, dtype=np.float64)
        x = random_samples(config, 3, rng, np.float64).x
        dlogits = rng.uniform(-1, 1, 3)

        model.zero_grads()
        model.forward(x)
        assert model.backward(dlogits) is None
        skipped = model.grad.copy()

        model.zero_grads()
        model.forward(x)
        g = dlogits
        for layer in reversed(model.run_order):
            g = layer.backward(g)
        assert g.shape == np.moveaxis(x, -3, -1).shape  # the layers' sample-last layout
        assert np.array_equal(skipped, model.grad)

    @pytest.mark.parametrize("name", ["rvcnn-rgb", "qvcnn-rgb"])
    def test_batch_forward_matches_each_sample_alone(self, name):
        rng = np.random.default_rng(75)
        config = config_from_name(name, 24)
        model = Model(config, rng=rng)
        x = random_samples(config, 3, rng).x
        before = x.copy()
        logits = model.forward(x)
        assert logits.shape == (3,)
        for i in range(3):  # the batch GEMMs round differently in float32
            assert_close(logits[i], model.forward(x.take([i], axis=-3))[0], 1e-5)
        assert np.array_equal(x, before)  # a first-layer convolution only reads its input

    @pytest.mark.parametrize("name", ["rvcnn-rgb", "qvcnn-rgb"])
    def test_a_chunk_of_one_reaches_the_first_convolution_uncopied(self, name):
        rng = np.random.default_rng(79)
        config = config_from_name(name, 24)
        model = Model(config, rng=rng)
        data = random_samples(config, 3, rng)
        first, seen = model.run_order[0], []
        first.forward = lambda h: seen.append(h) or type(first).forward(first, h)
        for part in ([1], [0, 2]):
            x = data.x.take(part, axis=-3)
            model.forward(x)
            batch = seen[-1]
            assert batch.flags.c_contiguous
            assert np.array_equal(batch, np.moveaxis(x, -3, -1))
            # a chunk of one moves its sample axis last without a copy
            assert np.shares_memory(batch, x) == (len(part) == 1)

    def test_forward_rejects_a_wrong_layout(self):
        # the model checks the batch as the caller passed it, before its
        # sample axis moves, and names that shape
        rng = np.random.default_rng(77)
        real = Model(config_from_name("rvcnn-rgb", 24), rng=rng)
        quat = Model(config_from_name("qvcnn-rgb", 24), rng=rng)
        real_layout = r"rvcnn-rgb takes a 4-d \(C, N, H, W\) batch with C = 3, got "
        quat_layout = r"qvcnn-rgb takes a 5-d \(4, C, N, H, W\) batch with C = 1, got "
        for model, shape, layout in (
            (real, (3, 24, 24), real_layout),  # one unbatched sample
            (real, (4, 1, 2, 24, 24), real_layout),
            (real, (1, 2, 24, 24), real_layout),  # a channel count of another config
            (quat, (3, 2, 24, 24), quat_layout),  # one unbatched sample's planes
            (quat, (3, 1, 2, 24, 24), quat_layout),
            (quat, (4, 3, 2, 24, 24), quat_layout),
        ):
            with pytest.raises(ValueError, match=layout + re.escape(str(shape)) + "$"):
                model.forward(np.zeros(shape, dtype=np.float32))
        for model, shape in ((real, (3, 2, 20, 20)), (quat, (4, 1, 2, 24, 25))):
            with pytest.raises(ValueError, match="does not match configured 24"):
                model.forward(np.zeros(shape, dtype=np.float32))


class TestTrainingMemory:
    """tracemalloc sees numpy's buffers, so the peak of one epoch shows
    what a chunk keeps alive. Parameters, gradients and both Adam moments
    take 16 bytes per parameter. At 24x24 a full chunk of 16 samples
    peaks at 4.58 (rvcnn) and 4.41 (qvcnn) times IM2COL_BUDGET on top of
    that: each convolution's buffer of patches and taps, conv outputs,
    pooled maps and block kernels, the backward's gradient matrices and
    Adam's two scratch vectors (8 bytes per parameter). The bound allows
    4.75 budgets. Without the reused conv buffers, a chunk of 16 peaks
    at 5.25 and 5.31 budgets (measured with raster conv outputs)."""

    @pytest.mark.parametrize("name", ["rvcnn-rgb", "qvcnn-rgb"])
    def test_epoch_peak_within_chunk_budget(self, name):
        config = config_from_name(name, 24)
        data = random_samples(config, 64, np.random.default_rng(76))
        tracemalloc.start()
        try:
            model, _ = train_model(config, data, epochs=1, batch_size=16, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 16 * model.param_count + 4.75 * IM2COL_BUDGET
        assert peak <= bound, f"{name}: peak {peak} > {bound} bytes"
