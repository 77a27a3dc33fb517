"""Acceptance suite: one test per exit criterion, each printing a
PASS line (run with -s to see them; -v shows the same story through
test names). Tolerances and runtime bounds are pinned here, not
configurable.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import quatcnn
from quatcnn.quat import Quaternion, I, J, K, ONE, add, hamilton, conjugate, norm
from quatcnn.layers import (
    Model, as_block_conv, Conv2d, QConv2d, MaxPool2d, ReLU, Flatten, Dense,
    config_from_name, count_parameters, trace_shapes,
)
from quatcnn.train import Samples, train_model, run_gradient_verification
from quatcnn.encoding import rgb_to_hsv, encode_rgb_quaternion, encode_hsv_quaternion
from quatcnn.harness import (
    ExperimentPlan, generate_synthetic_dataset, load_manifest, load_decoded_images,
    encode_input, run_experiment,
)
from testutil import (
    assert_close, norm_rel_err, random_quaternion,
    qconv2d_oracle, qconv2d_hamilton_sum_oracle, layer_fd_check, pool_major,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(n: int, text: str):
    print(f"\nACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def fixture_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures") / "cells20"
    generate_synthetic_dataset(root, n=20, size=24, seed=7)
    return root


def test_criterion_1_parameter_count_goldens():
    started = time.perf_counter()
    rv_counts, rv_total = count_parameters(config_from_name("rvcnn-rgb"))
    qv_counts, qv_total = count_parameters(config_from_name("qvcnn-rgb"))
    assert rv_counts == [896, 18496, 73856, 12801]
    assert rv_total == 106049
    assert qv_counts == [320, 4672, 18560, 12801]
    assert qv_total == 36353
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"per-layer counts exact for both architectures ({elapsed:.3f}s)")


def test_criterion_2_hamilton_algebra_suite():
    started = time.perf_counter()
    tol = 1e-12
    rng = np.random.default_rng(1000)

    assert hamilton(I, J).components() == (0, 0, 0, 1)
    assert hamilton(J, I).components() == (0, 0, 0, -1)
    for u in (I, J, K):
        assert hamilton(u, u).components() == (-1, 0, 0, 0)

    for _ in range(1000):
        p, q, r = (random_quaternion(rng) for _ in range(3))
        assert_close(hamilton(ONE, q).components(), q.components(), tol, "left identity")
        assert_close(hamilton(q, ONE).components(), q.components(), tol, "right identity")
        assert_close(
            hamilton(hamilton(p, q), r).components(),
            hamilton(p, hamilton(q, r)).components(), tol, "associativity",
        )
        assert_close(
            hamilton(p, add(q, r)).components(),
            add(hamilton(p, q), hamilton(p, r)).components(), tol, "left distributivity",
        )
        assert_close(
            hamilton(add(q, r), p).components(),
            add(hamilton(q, p), hamilton(r, p)).components(), tol, "right distributivity",
        )
        assert_close(norm(hamilton(p, q)), norm(p) * norm(q), tol, "norm multiplicativity")
        assert_close(
            conjugate(hamilton(p, q)).components(),
            hamilton(conjugate(q), conjugate(p)).components(), tol, "anti-homomorphism",
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, f"1000-case algebra suite at 1e-12 ({elapsed:.1f}s)")


def test_criterion_3_qconv_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2000)
    n_configs = 20
    for trial in range(n_configs):
        c = int(rng.integers(1, 3))
        f = int(rng.integers(1, 4))
        h = int(rng.integers(3, 7))
        w = int(rng.integers(3, 7))
        x64 = rng.uniform(-1, 1, (4, c, h, w))
        mk = lambda: rng.uniform(-1, 1, (f, c, 3, 3))
        w64, bias64 = np.stack([mk() for _ in range(4)]), rng.uniform(-1, 1, (4, f))
        for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-12)):
            x = x64.astype(dtype)
            layer = QConv2d(c, f, 3, dtype=dtype)
            layer.w[...], layer.bias[...] = w64, bias64
            # the layer on a one-sample batch, as 100x100 training runs it
            out = layer.forward(x[..., None])[..., 0]
            # route (a): per-pixel hamilton/add loop
            assert norm_rel_err(out, qconv2d_oracle(x, layer.w, layer.bias)) < tol
            # route (b): one real convolution of the stacked planes with
            # the sign-structured 4x4 block kernel
            block = as_block_conv(layer).forward(x.reshape(4 * c, h, w, 1))[..., 0]
            assert norm_rel_err(out.reshape(block.shape), block) < tol
            # route (c): sixteen real correlations summed with a sign
            # table of the test helpers' own, which the library's
            # block-GEMM kernel does not share
            assert norm_rel_err(out, qconv2d_hamilton_sum_oracle(x, layer.w, layer.bias)) < tol
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(3, f"{n_configs} configs match all three oracles in both precisions ({elapsed:.1f}s)")


def test_criterion_4_gradient_checks():
    started = time.perf_counter()
    # every layer kind on a batch of one sample, three random instances each
    for rep in range(3):
        rng = np.random.default_rng(3000 + rep)
        conv = Conv2d(2, 3, 3, dtype=np.float64)
        conv.initialize(rng)
        layer_fd_check(conv, rng.uniform(-1, 1, (2, 6, 6, 1)), rng)
        qconv = QConv2d(2, 2, 3, dtype=np.float64)
        qconv.initialize(rng)
        layer_fd_check(qconv, rng.uniform(-1, 1, (4, 2, 6, 6, 1)), rng)
        # the pool of a convolution, on that convolution's pool-major output
        pool = MaxPool2d(Conv2d(1, 3, 1, dtype=np.float64, pool=2))
        layer_fd_check(pool, pool_major(rng.uniform(-1, 1, (3, 6, 6, 1)), 2), rng)
        layer_fd_check(ReLU(), rng.uniform(-1, 1, (2, 5, 5, 1)), rng)
        layer_fd_check(Flatten(), rng.uniform(-1, 1, (2, 4, 4, 1)), rng)
        dense = Dense(24, dtype=np.float64)
        dense.initialize(rng)
        layer_fd_check(dense, rng.uniform(-1, 1, (24, 1)), rng)
    # tiny end-to-end models of both arithmetics
    rows = run_gradient_verification(seed=0, num_samples=200)
    worst = max(err for _, err in rows)
    assert worst < 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(4, f"all layer kinds and end-to-end models below 1e-4 "
              f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_5_shape_chain_12800():
    rng = np.random.default_rng(4000)
    flat_lengths = {}
    # batches of one sample as the layers take them, sample axis last:
    # real (C, H, W, N), quaternion (4, C, H, W, N)
    for name, shape in (("rvcnn-rgb", (3, 100, 100, 1)),
                        ("qvcnn-rgb", (4, 1, 100, 100, 1))):
        config = config_from_name(name, 100)
        model = Model(config, rng=rng)
        data = rng.uniform(0, 1, shape).astype(np.float32)
        for layer in model.layers:
            data = layer.forward(data)
            if isinstance(layer, Flatten):
                flat_lengths[config.name] = data.size
        # static trace agrees with the live forward pass
        traced = [row[4] for row in trace_shapes(config) if row[0].kind == "flatten"][0]
        assert traced == flat_lengths[config.name]
    assert flat_lengths == {"rvcnn-rgb": 12800, "qvcnn-rgb": 12800}
    report(5, "100x100 inputs feed the dense layer exactly 12,800 values in both models")


def test_criterion_6_encoding_identities():
    rng = np.random.default_rng(5000)

    # pure-imaginary encoding: real plane identically zero
    img = rng.uniform(0, 1, (40, 40, 3))
    assert np.all(encode_rgb_quaternion(img)[0] == 0.0)

    # hue-angle encoding: per-pixel squared norm is S^2 + V^2
    h = rng.uniform(0, 2 * np.pi - 1e-12, (40, 40))
    s = rng.uniform(0, 1, (40, 40))
    v = rng.uniform(0, 1, (40, 40))
    t = encode_hsv_quaternion(np.stack([h, s, v], axis=2))
    sq = np.sum(t ** 2, axis=0)[0]
    expect = s ** 2 + v ** 2
    assert np.max(np.abs(sq - expect) / np.maximum(1.0, np.abs(expect))) < 1e-10

    # hsv round trip within 1e-6 for chromatic pixels
    from test_encoding import hsv_to_rgb_oracle

    rgb = rng.uniform(0.02, 1.0, (1000, 3)).reshape(10, 100, 3)
    hsv = rgb_to_hsv(rgb)
    checked = 0
    for i in range(10):
        for j in range(100):
            hp, sp, vp = hsv[i, j]
            if sp == 0:
                continue
            assert np.max(np.abs(hsv_to_rgb_oracle(hp, sp, vp) - rgb[i, j])) < 1e-6
            checked += 1
    assert checked > 900
    report(6, "zero real plane, S^2+V^2 norm identity, and HSV round trip hold")


def test_criterion_7_overfit_smoke(fixture_dataset):
    started = time.perf_counter()
    manifest = load_manifest(fixture_dataset)
    assert len(manifest.entries) == 20
    decoded = load_decoded_images(manifest, 24)
    first_perfect = {}
    for name in ("qvcnn-rgb", "rvcnn-rgb"):
        config = config_from_name(name, 24)
        images, labels = zip(*decoded.values())
        data = Samples(encode_input(config, np.stack(images)), labels)
        _, metrics = train_model(config, data, epochs=30, batch_size=16, seed=0)
        hit = next((m.epoch for m in metrics if m.train_acc == 1.0), None)
        assert hit is not None, f"{config.name} never reached 100% within 30 epochs"
        first_perfect[config.name] = hit
        # training-loss trend: 10-epoch moving average never increases
        losses = np.array([m.loss for m in metrics])
        moving = np.convolve(losses, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(moving) <= 1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(7, f"100% train accuracy at epochs {first_perfect} ({elapsed:.1f}s)")


def test_criterion_8_sweep_determinism(fixture_dataset, tmp_path):
    manifest = load_manifest(fixture_dataset)
    plan = ExperimentPlan(configs=("qvcnn-rgb",), fractions=(0.25,), runs=2,
                          epochs=3, base_seed=123, input_size=24, augment=True)
    run_experiment(plan, manifest, tmp_path / "a", log=lambda *_: None)
    run_experiment(plan, manifest, tmp_path / "b", log=lambda *_: None)
    a = (tmp_path / "a" / "runs.csv").read_bytes()
    b = (tmp_path / "b" / "runs.csv").read_bytes()
    assert a == b
    # and a re-run over the existing output reproduces it byte for byte
    third = run_experiment(plan, manifest, tmp_path / "a", log=lambda *_: None)
    assert third.n_executed == 0
    assert (tmp_path / "a" / "runs.csv").read_bytes() == a
    report(8, "repeated 2-run sweep reproduces runs.csv byte-identically")


def test_criterion_9_hue_separable_substitute(tmp_path):
    started = time.perf_counter()
    # paper-scale claims are not desk-reproducible (gated dataset, 4x5x100
    # runs at 100 epochs); the substitute property runs the same harness
    # on a hue-separable task: classes differ in hue at fixed value
    data = tmp_path / "hue"
    generate_synthetic_dataset(data, n=60, size=24, seed=11, value=(0.8, 0.8))
    manifest = load_manifest(data)
    # two workers: runs.csv is byte-identical to a serial sweep's, in
    # about half the wall time
    plan = ExperimentPlan(
        configs=("qvcnn-hsv", "qvcnn-rgb", "rvcnn-rgb"), fractions=(0.3,),
        runs=10, epochs=25, base_seed=2024, batch_size=8, input_size=24,
        augment=False, jobs=2,
    )
    report_out = run_experiment(plan, manifest, tmp_path / "out", log=lambda *_: None)
    means = {s.config: s.mean for s in report_out.stats}
    assert means["qvcnn-hsv"] >= means["qvcnn-rgb"] - 0.02
    assert abs(means["qvcnn-rgb"] - means["rvcnn-rgb"]) <= 0.03

    _, rv_total = count_parameters(config_from_name("rvcnn-rgb"))
    _, qv_total = count_parameters(config_from_name("qvcnn-rgb"))
    ratio = qv_total / rv_total
    assert 0.33 < ratio < 0.35  # the quaternion model uses about 34%

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "quatcnn sweep" in readme and "ALL-IDB2" in readme, \
        "README must document the full-dataset reproduction command"
    elapsed = time.perf_counter() - started
    report(9, f"hue task means {({k: round(v, 3) for k, v in means.items()})}, "
              f"parameter ratio {ratio:.3f} ({elapsed:.0f}s)")
