import argparse
import builtins
import collections
import dataclasses
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from quatcnn.encoding import augment_flips, write_ppm
from quatcnn.harness import (
    ManifestEntry, DatasetManifest, load_manifest, split,
    ExperimentPlan, RunResult, derive_seed, encode_input, evaluate,
    build_run_inputs, run_single, run_experiment, aggregate, emit_report,
    read_runs_csv, generate_synthetic_dataset, load_decoded_images,
)
from quatcnn.layers import CONFIG_NAMES, Model, config_from_name, load_model, write_csv
from quatcnn.train import Samples, run_gradient_verification, train_model
import quatcnn
from quatcnn import cli, encoding, harness


def make_fixture_dir(tmp_path, n=8, size=24, seed=0):
    data = tmp_path / "data"
    generate_synthetic_dataset(data, n=n, size=size, seed=seed)
    return data


def fake_manifest(n_per_class: int, n_class_1: int | None = None) -> DatasetManifest:
    entries = []
    for label, n in ((0, n_per_class), (1, n_per_class if n_class_1 is None else n_class_1)):
        for i in range(n):
            sid = f"Im{label}{i:03d}_{label}"
            entries.append(ManifestEntry(Path(f"/nowhere/{sid}.ppm"), label, sid))
    return DatasetManifest(Path("/nowhere"), tuple(entries), "0" * 64)


def make_unbalanced_dir(tmp_path):
    """9 fixture images, 2 of class 0 and 7 of class 1: a stratified test
    fraction of 0.75 puts both class 0 images on the test side."""
    data = make_fixture_dir(tmp_path, n=14, size=24)
    for name in ("Im005_0", "Im007_0", "Im009_0", "Im011_0", "Im013_0"):
        (data / f"{name}.ppm").unlink()
    return data


ONE_CLASS_TRAIN = (r"test fraction 0\.75 leaves one class on the training side "
                   r"\(class 0: 0 train / 2 test; class 1: 2 train / 5 test\)$")


class TestLoadManifest:
    def test_filename_convention(self, tmp_path):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        write_ppm(tmp_path / "Im001_1.ppm", img)
        write_ppm(tmp_path / "Im002_0.ppm", img)
        man = load_manifest(tmp_path)
        assert len(man.entries) == 2
        assert {e.label for e in man.entries} == {0, 1}
        assert {e.id for e in man.entries} == {"Im001_1", "Im002_0"}

    def test_other_files_and_directories_are_skipped(self, tmp_path):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        for root in (tmp_path / "plain", tmp_path / "mixed"):
            root.mkdir()
            write_ppm(root / "Im001_1.ppm", img)
            write_ppm(root / "Im002_0.ppm", img)
        (tmp_path / "mixed" / "notes_1.txt").write_text("not an image")
        (tmp_path / "mixed" / "x_1.ppm").mkdir()
        mixed = load_manifest(tmp_path / "mixed")
        assert [e.id for e in mixed.entries] == ["Im001_1", "Im002_0"]
        assert mixed.checksum == load_manifest(tmp_path / "plain").checksum

    def test_empty_dir(self, tmp_path):
        with pytest.raises(ValueError, match="no labeled images"):
            load_manifest(tmp_path)

    def test_missing_root(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            load_manifest(tmp_path / "nope")

    def test_root_that_is_a_file(self, tmp_path):
        write_ppm(tmp_path / "Im001_1.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match=r"^dataset root .*Im001_1\.ppm is not a directory$"):
            load_manifest(tmp_path / "Im001_1.ppm")

    def test_single_class(self, tmp_path):
        write_ppm(tmp_path / "Im001_1.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="both classes"):
            load_manifest(tmp_path)

    def test_unparsable_filename(self, tmp_path):
        write_ppm(tmp_path / "cell7.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="cannot parse label"):
            load_manifest(tmp_path)

    def test_filename_duplicate_id_rejected(self, tmp_path):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        write_ppm(tmp_path / "Im001_0.ppm", img)
        write_ppm(tmp_path / "Im002_1.ppm", img)
        (tmp_path / "Im001_0.png").write_bytes(b"")
        with pytest.raises(ValueError, match="duplicate sample id 'Im001_0'") as exc:
            load_manifest(tmp_path)
        assert "Im001_0.png" in str(exc.value) and "Im001_0.ppm" in str(exc.value)

    def test_checksum_tracks_listing(self, tmp_path):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        write_ppm(tmp_path / "Im001_1.ppm", img)
        write_ppm(tmp_path / "Im002_0.ppm", img)
        c1 = load_manifest(tmp_path).checksum
        write_ppm(tmp_path / "Im003_1.ppm", img)
        assert load_manifest(tmp_path).checksum != c1


class TestSplit:
    def test_260_at_ten_percent(self):
        man = fake_manifest(130)
        train, test = split(man, 0.1, seed=0)
        assert len(test) == 26 and len(train) == 234
        labels = {e.id: e.label for e in man.entries}
        assert sum(labels[i] for i in test) == 13  # 13 per class

    def test_half_of_four(self):
        man = fake_manifest(2)
        train, test = split(man, 0.5, seed=1)
        labels = {e.id: e.label for e in man.entries}
        assert len(train) == len(test) == 2
        assert sorted(labels[i] for i in test) == [0, 1]
        assert sorted(labels[i] for i in train) == [0, 1]

    def test_deterministic(self):
        man = fake_manifest(20)
        assert split(man, 0.3, seed=7) == split(man, 0.3, seed=7)
        assert split(man, 0.3, seed=7) != split(man, 0.3, seed=8)

    def test_disjoint_union(self):
        man = fake_manifest(15)
        train, test = split(man, 0.25, seed=3)
        assert set(train) | set(test) == {e.id for e in man.entries}
        assert not set(train) & set(test)

    def test_stratification_bound(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            n = int(rng.integers(4, 60))
            fraction = float(rng.uniform(0.1, 0.5))
            man = fake_manifest(n)
            try:
                _, test = split(man, fraction, seed=int(rng.integers(1 << 30)))
            except ValueError:
                continue  # empty side at extreme fraction/size combos
            labels = {e.id: e.label for e in man.entries}
            per_class = sum(labels[i] for i in test)
            assert abs(per_class - fraction * n) <= 1.0

    def test_unstratified(self):
        man = fake_manifest(10)
        train, test = split(man, 0.2, seed=5, stratify=False)
        assert len(test) == 4 and len(train) == 16

    def test_golden_order(self):
        # pinned: a change to the draws or the order of the ids would
        # change every runs.csv
        man = fake_manifest(3)
        assert split(man, 0.4, seed=9) == (
            ["Im0000_0", "Im0001_0", "Im1002_1", "Im1000_1"], ["Im0002_0", "Im1001_1"])
        assert split(man, 0.4, seed=9, stratify=False) == (
            ["Im0002_0", "Im1001_1", "Im0000_0", "Im0001_0"], ["Im1000_1", "Im1002_1"])

    def test_empty_side_error(self):
        man = fake_manifest(2)
        with pytest.raises(ValueError, match="empty side"):
            split(man, 0.01, seed=0)

    @pytest.mark.parametrize("stratify", [True, False])
    def test_a_training_side_with_one_class_is_refused(self, stratify):
        # no model trains on it; the error names the fraction and the counts
        if stratify:
            with pytest.raises(ValueError, match=ONE_CLASS_TRAIN):
                split(fake_manifest(2, 7), 0.75, seed=0)
        else:
            with pytest.raises(ValueError, match=r"^test fraction 0\.5 leaves one class on the "
                                                 r"training side \(class 0: 0 train / 2 test; "
                                                 r"class 1: 2 train / 0 test\)$"):
                split(fake_manifest(2), 0.5, seed=1, stratify=False)

    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            split(fake_manifest(4), 1.0, seed=0)


class TestDeriveSeed:
    def test_distinct_over_triples(self):
        seeds = set()
        for config in ("qvcnn-rgb", "rvcnn-hsv"):
            for fraction in (0.1, 0.2, 0.3):
                for run in range(50):
                    seeds.add(derive_seed(0, config, fraction, run))
        assert len(seeds) == 300

    def test_stable_golden(self):
        # pinned to sha256("0|qvcnn-hsv|0.1|0")[:8] little-endian, sign
        # bit cleared; the derivation must never silently change, or
        # sweeps would stop being resumable across versions
        assert derive_seed(0, "qvcnn-hsv", 0.1, 0) == 4865702143171726012

    def test_base_seed_matters(self):
        assert derive_seed(0, "qvcnn-rgb", 0.1, 0) != derive_seed(1, "qvcnn-rgb", 0.1, 0)

    @pytest.mark.parametrize("a, b", [(0.2, 0.25), (0.3, 0.33)])
    def test_fractions_that_agree_to_one_decimal_are_distinct(self, a, b):
        for config in CONFIG_NAMES:
            for run in range(3):
                assert derive_seed(0, config, a, run) != derive_seed(0, config, b, run)


class TestPlanValidation:
    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="fractions"):
            ExperimentPlan(fractions=(0.0,))

    def test_bad_runs(self):
        with pytest.raises(ValueError, match="runs"):
            ExperimentPlan(runs=0)

    def test_bad_epochs(self):
        with pytest.raises(ValueError, match="^epochs must be >= 0$"):
            ExperimentPlan(epochs=-1)
        assert ExperimentPlan(epochs=0).epochs == 0

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_bad_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            ExperimentPlan(batch_size=batch_size)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_bad_jobs(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ExperimentPlan(jobs=jobs)

    def test_bad_config(self):
        with pytest.raises(ValueError, match="unknown config"):
            ExperimentPlan(configs=("resnet",))

    def test_input_size_checked_against_architecture(self):
        with pytest.raises(ValueError, match="inconsistent config"):
            ExperimentPlan(configs=("rvcnn-rgb",), input_size=4)
        ExperimentPlan(configs=("rvcnn-rgb",), input_size=24)

    @pytest.mark.parametrize("fields,message", [
        (dict(configs=("rvcnn-rgb",) * 2), "duplicate config in the plan: rvcnn-rgb$"),
        (dict(configs=("qvcnn-rgb", "rvcnn-rgb", "qvcnn-rgb", "rvcnn-rgb")),
         "duplicate config in the plan: qvcnn-rgb, rvcnn-rgb$"),
        (dict(fractions=(0.5, 0.5)), "duplicate fraction in the plan: 0.5$"),
        (dict(fractions=(0.3, 0.1 + 0.2, 0.30)), "duplicate fraction in the plan: 0.3$"),
    ], ids=["config", "two-configs", "fraction", "fraction-by-repr"])
    def test_duplicates_are_refused(self, fields, message):
        # each would train its cells again under the same keys
        with pytest.raises(ValueError, match=message):
            ExperimentPlan(**fields)

    def test_fractions_that_differ_in_repr_are_distinct(self):
        assert ExperimentPlan(fractions=(0.3, 0.1 + 0.2)).fractions == (0.3, 0.30000000000000004)

    def test_numpy_numbers_are_stored_as_python_numbers(self):
        plan = ExperimentPlan(fractions=tuple(np.linspace(0.25, 0.5, 2)), runs=np.int64(2),
                              epochs=np.int32(1), input_size=np.int64(24), jobs=np.uint8(1))
        assert [type(f) for f in plan.fractions] == [float, float]
        assert repr(plan.fractions) == "(0.25, 0.5)"
        for field in ("runs", "epochs", "base_seed", "batch_size", "input_size", "jobs"):
            assert type(getattr(plan, field)) is int

    @pytest.mark.parametrize("fields,message", [
        (dict(fractions=("0.25",)), r"test fractions must be real numbers, got '0\.25'$"),
        (dict(fractions=(True,)), "test fractions must be real numbers, got True$"),
        (dict(epochs=1.0), r"epochs must be an integer, got 1\.0$"),
        (dict(runs=np.float64(2)), r"runs must be an integer, got np.float64\(2\.0\)$"),
        (dict(base_seed="7"), "base_seed must be an integer, got '7'$"),
    ], ids=["str-fraction", "bool-fraction", "float-epochs", "numpy-float-runs", "str-seed"])
    def test_numbers_of_the_wrong_kind_are_refused(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ExperimentPlan(**fields)


class _StubModel:
    """Gives each sample of a (1, N, 1, 1) batch its one value as the logit."""

    config = config_from_name("rvcnn-rgb", 24)  # chunks of 16 samples

    def __init__(self):
        self.batch_sizes = []

    def forward(self, x):
        self.batch_sizes.append(x.shape[-3])
        return x[0, :, 0, 0]


def logit_samples(logits, labels) -> Samples:
    """Samples whose one-pixel inputs hold the logits _StubModel returns."""
    return Samples(np.asarray(logits, dtype=np.float64).reshape(1, -1, 1, 1), labels)


class TestEvaluate:
    def test_all_correct(self):
        assert evaluate(_StubModel(), logit_samples([5.0, -5.0], [1, 0])) == 1.0

    def test_single_wrong(self):
        assert evaluate(_StubModel(), logit_samples([-1.0], [1])) == 0.0

    def test_coin_flip_near_half(self):
        rng = np.random.default_rng(81)
        samples = logit_samples(rng.normal(size=2000), [i % 2 for i in range(2000)])
        model = _StubModel()
        acc = evaluate(model, samples)
        assert abs(acc - 0.5) < 0.05
        assert model.batch_sizes == [16] * 125

    def test_counts_each_sample_against_its_own_label(self):
        # 20 samples in chunks of 16 and 4; the wrong ones are 2, 5, 9, 13
        # and 18, so both chunks hold some
        logits = [1.0, -1.0, -2.0, 3.0, -0.5, 0.5, 2.0, -3.0, 4.0, -4.0,
                  0.25, -0.25, 1.5, 2.5, -1.5, 3.5, -2.5, 0.75, -0.75, 1.25]
        labels = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1,
                  1, 0, 1, 0, 0, 1, 0, 1, 1, 1]
        model = _StubModel()
        assert evaluate(model, logit_samples(logits, labels)) == 15 / 20
        assert model.batch_sizes == [16, 4]

    def test_empty_error(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(_StubModel(), logit_samples([], []))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_logit_is_refused(self, bad):
        # sample 17 sits in the second chunk of 16
        logits = [1.0] * 20
        logits[17] = logits[19] = bad
        with pytest.raises(ValueError, match=rf"^rvcnn-rgb: non-finite logit {bad} for sample 17$"):
            evaluate(_StubModel(), logit_samples(logits, [1] * 20))

    def test_a_nan_model_gets_no_accuracy(self, tmp_path):
        # every logit NaN: counted as class 0, it would score 6/8 here
        config = config_from_name("rvcnn-rgb", 24)
        model = Model(config)
        model.theta[...] = np.nan
        samples = Samples(np.zeros((3, 8, 24, 24), np.float32), [0] * 6 + [1] * 2)
        with pytest.raises(ValueError, match="^rvcnn-rgb: non-finite logit nan for sample 0$"):
            evaluate(model, samples)


FLIPS = (lambda img: img, lambda img: img[:, ::-1], lambda img: img[::-1],
         lambda img: img[::-1, ::-1])  # original, horizontal, vertical, both


class TestEncodeInput:
    def test_kinds_and_shapes(self):
        rng = np.random.default_rng(82)
        img = rng.uniform(0, 1, (24, 24, 3))
        stack = rng.uniform(0, 1, (5, 24, 24, 3))
        for name in ("rvcnn-rgb", "rvcnn-hsv"):
            out = encode_input(config_from_name(name, 24), img)
            assert isinstance(out, np.ndarray) and out.shape == (3, 24, 24)
            assert encode_input(config_from_name(name, 24), stack).shape == (3, 5, 24, 24)
        for name in ("qvcnn-rgb", "qvcnn-hsv"):
            out = encode_input(config_from_name(name, 24), img)
            assert isinstance(out, np.ndarray) and out.shape == (4, 1, 24, 24)
            assert encode_input(config_from_name(name, 24), stack).shape == (4, 1, 5, 24, 24)
            assert out.dtype == np.float32

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_stack_and_flips_match_per_image_encoding(self, name):
        config = config_from_name(name, 24)
        rng = np.random.default_rng(84)
        images = rng.uniform(0, 1, (3, 6, 9, 3))  # no flip maps an image onto itself
        images[0, 1, 2] = 0.5  # an achromatic pixel
        per_image = [encode_input(config, img) for img in images]
        stacked = encode_input(config, images)
        assert np.array_equal(stacked, np.stack(per_image, axis=-3))
        flipped = [encode_input(config, flip(img)) for img in images for flip in FLIPS]
        assert not np.array_equal(flipped[0], flipped[1])
        augmented = augment_flips(stacked)
        assert augmented.dtype == np.float32
        assert np.array_equal(augmented, np.stack(flipped, axis=-3))

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    @pytest.mark.parametrize("bad,match", [(np.nan, "be finite"), (7.0, r"lie in \[0, 1\]")],
                             ids=["nan", "seven"])
    def test_rejects_bad_pixels(self, name, bad, match):
        images = np.full((2, 24, 24, 3), 0.5)
        images[1, 3, 4, 2] = bad
        with pytest.raises(ValueError, match=f"RGB values must {match}"):
            encode_input(config_from_name(name, 24), images)

    def test_hsv_encodings_differ_from_rgb(self):
        rng = np.random.default_rng(83)
        img = rng.uniform(0.1, 0.9, (24, 24, 3))
        rgb = encode_input(config_from_name("qvcnn-rgb", 24), img)
        hsv = encode_input(config_from_name("qvcnn-hsv", 24), img)
        assert not np.allclose(rgb, hsv)

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_unknown_encoding_is_refused(self, name):
        config = dataclasses.replace(config_from_name(name, 24), encoding="lab")
        with pytest.raises(ValueError, match="encoding must be 'rgb' or 'hsv', got 'lab'"):
            encode_input(config, np.full((24, 24, 3), 0.5))


class TestAugmentationLeakage:
    def test_train_side_only_and_x4(self, tmp_path):
        data = make_fixture_dir(tmp_path, n=8)
        man = load_manifest(data)
        decoded = load_decoded_images(man, 24)
        train_ids, test_ids = split(man, 0.25, seed=0)
        config = config_from_name("rvcnn-rgb", 24)
        sources, train_inputs, test_inputs = build_run_inputs(
            config, decoded, train_ids, test_ids, augment=True
        )
        assert len(sources) == len(train_inputs) == 4 * len(train_ids)
        assert sources == [sid for sid in train_ids for _ in range(4)]
        assert not set(sources) & set(test_ids)
        assert len(test_inputs) == len(test_ids)

    def test_no_augment(self, tmp_path):
        data = make_fixture_dir(tmp_path, n=8)
        man = load_manifest(data)
        decoded = load_decoded_images(man, 24)
        train_ids, test_ids = split(man, 0.25, seed=0)
        config = config_from_name("qvcnn-rgb", 24)
        sources, train_inputs, _ = build_run_inputs(
            config, decoded, train_ids, test_ids, augment=False
        )
        assert sources == train_ids and len(train_inputs) == len(train_ids)


class TestRunInputs:
    """The ``Samples`` that ``build_run_inputs`` returns, as the benchmark
    uses them: ``len()`` of each set and a digest over ``tobytes()``."""

    def _inputs(self, tmp_path, name):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        decoded = load_decoded_images(man, 24)
        train_ids, test_ids = split(man, 0.25, seed=0)
        config = config_from_name(name, 24)
        return config, decoded, train_ids, test_ids

    @pytest.mark.parametrize("name,lead", [("rvcnn-rgb", (3,)), ("qvcnn-hsv", (4, 1))],
                             ids=["rvcnn-rgb", "qvcnn-hsv"])
    def test_one_array_per_set_with_a_slot_per_sample(self, tmp_path, name, lead):
        self._check_slots(tmp_path, name, lead, augment=True)

    @pytest.mark.parametrize("name,lead", [("rvcnn-hsv", (3,)), ("qvcnn-rgb", (4, 1))],
                             ids=["rvcnn-hsv", "qvcnn-rgb"])
    def test_one_slot_per_image_without_augmentation(self, tmp_path, name, lead):
        self._check_slots(tmp_path, name, lead, augment=False)

    def _check_slots(self, tmp_path, name, lead, augment):
        config, decoded, train_ids, test_ids = self._inputs(tmp_path, name)
        sources, train, test = build_run_inputs(config, decoded, train_ids, test_ids,
                                                augment=augment)
        flips = FLIPS if augment else FLIPS[:1]
        train_images = [(flip(decoded[sid][0]), decoded[sid][1])
                        for sid in train_ids for flip in flips]
        test_images = [decoded[sid] for sid in test_ids]
        assert sources == [sid for sid in train_ids for _ in flips]
        for images, inputs in ((train_images, train), (test_images, test)):
            assert len(inputs) == len(images)
            assert inputs.x.shape == (*lead, len(images), 24, 24)
            assert inputs.x.dtype == np.float32
            assert inputs.y.tolist() == [label for _, label in images]
            for i, (img, _) in enumerate(images):
                assert np.array_equal(inputs.x[..., i, :, :], encode_input(config, img))

    def test_same_inputs_give_the_same_bytes(self, tmp_path):
        config, decoded, train_ids, test_ids = self._inputs(tmp_path, "qvcnn-rgb")
        first = build_run_inputs(config, decoded, train_ids, test_ids)
        again = build_run_inputs(config, decoded, train_ids, test_ids)
        for a, b in zip(first[1:], again[1:]):
            assert a.tobytes() == b.tobytes()
            assert a.tobytes() == a.x.tobytes() + a.y.tobytes()
        assert first[1].tobytes() != first[2].tobytes()

    def test_samples_reject_unpaired_labels(self):
        with pytest.raises(ValueError, match="3 samples but 4 labels"):
            Samples(np.zeros((4, 1, 3, 5, 5)), [0, 1, 0, 1])
        with pytest.raises(ValueError, match="shape"):
            Samples(np.zeros((5, 5)), [0])

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 1], [0.5, 1]], ids=["2", "-1", "0.5"])
    def test_samples_reject_labels_other_than_0_and_1(self, labels):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            Samples(np.zeros((1, 2, 3, 3)), labels)

    def test_samples_labels_are_ints(self):
        samples = Samples(np.zeros((1, 3, 2, 2)), [1.0, 0.0, True])
        assert samples.y.dtype == np.int64 and samples.y.tolist() == [1, 0, 1]
        assert len(samples) == 3


class TestAggregate:
    def test_quantiles_linear_interpolation(self):
        # hand oracle at h = (n-1)p over sorted values: q25 lands at
        # position 0.75 -> 0.915, q75 at position 2.25 -> 0.945
        results = [
            RunResult("qvcnn-hsv", 0.1, i, i, acc, 1.0)
            for i, acc in enumerate([0.94, 0.90, 0.96, 0.92])
        ]
        (stats,) = aggregate(results)
        assert stats.n == 4
        assert abs(stats.q25 - 0.915) < 1e-12
        assert abs(stats.q75 - 0.945) < 1e-12
        assert abs(stats.mean - 0.93) < 1e-12

    def test_population_std(self):
        results = [RunResult("c", 0.1, i, i, acc, 1.0)
                   for i, acc in enumerate([0.8, 1.0])]
        # population convention: std of {0.8, 1.0} is 0.1
        (stats,) = aggregate(results)
        assert abs(stats.std - 0.1) < 1e-12

    def test_grouping(self):
        results = []
        for config in ("a-config", "b-config"):
            for fraction in (0.1, 0.2):
                for run in range(3):
                    results.append(RunResult(config, fraction, run, run, 0.9, 1.0))
        stats = aggregate(results)
        assert len(stats) == 4
        assert all(s.n == 3 for s in stats)


class TestEmitReport:
    def make_results(self):
        return [RunResult("qvcnn-rgb", 0.2, i, 1000 + i, 0.9 + 0.01 * i, 1.0)
                for i in range(2)]

    def test_files_and_columns(self, tmp_path):
        results = self.make_results()
        stats = aggregate(results)
        emit_report(results, stats, tmp_path)
        runs_lines = (tmp_path / "runs.csv").read_text().strip().splitlines()
        assert runs_lines[0] == "config,fraction,run,seed,test_accuracy,train_accuracy"
        assert len(runs_lines) == 3
        stats_lines = (tmp_path / "stats.csv").read_text().strip().splitlines()
        assert stats_lines[0] == "config,fraction,n,mean,std,q25,q75"
        assert len(stats_lines) == 2

    def test_stats_row_count(self, tmp_path):
        results = []
        for config in ("qvcnn-rgb", "rvcnn-rgb"):
            for fraction in (0.1, 0.3, 0.5):
                results.append(RunResult(config, fraction, 0, 0, 0.9, 1.0))
        emit_report(results, aggregate(results), tmp_path)
        lines = (tmp_path / "stats.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 3

    def test_overwrite(self, tmp_path):
        results = self.make_results()
        emit_report(results, aggregate(results), tmp_path)
        first = (tmp_path / "runs.csv").read_text()
        emit_report(results, aggregate(results), tmp_path)
        assert (tmp_path / "runs.csv").read_text() == first

    def test_aggregate_consistency_from_csv(self, tmp_path):
        results = self.make_results()
        stats = aggregate(results)
        emit_report(results, stats, tmp_path)
        reread = read_runs_csv(tmp_path / "runs.csv")
        assert aggregate(reread) == stats

    def test_empty_results_error(self, tmp_path):
        with pytest.raises(ValueError, match="no results"):
            emit_report([], (), tmp_path)

    def test_runs_csv_reads_back_equal(self, tmp_path):
        results = [RunResult("qvcnn-rgb", 0.1 + 0.2, 0, 2**63 - 1, 1 / 3, 1e-05),
                   RunResult("rvcnn-hsv", 0.5, 12, 0, 0.0, 1.0)]
        emit_report(results, aggregate(results), tmp_path)
        assert read_runs_csv(tmp_path / "runs.csv") == results


class TestWriteCsv:
    Row = collections.namedtuple("Row", "name x n")

    def test_each_value_is_written_with_str(self, tmp_path):
        rows = [self.Row("a", 0.1, 1), self.Row("b", 1 / 3, -2), self.Row("c", 1e-05, 0),
                self.Row("d", float("nan"), 10**20), self.Row("e", np.float64(0.25), np.int64(7))]
        write_csv(tmp_path / "t.csv", rows, ("name", "x", "n"))
        assert (tmp_path / "t.csv").read_bytes() == (
            b"name,x,n\na,0.1,1\nb,0.3333333333333333,-2\nc,1e-05,0\n"
            b"d,nan,100000000000000000000\ne,0.25,7\n")

    def test_the_columns_choose_and_order_the_attributes(self, tmp_path):
        write_csv(tmp_path / "t.csv", [self.Row("a", 0.5, 3)], ["n", "name"])
        assert (tmp_path / "t.csv").read_bytes() == b"n,name\n3,a\n"

    def test_no_rows_write_the_header(self, tmp_path):
        write_csv(tmp_path / "t.csv", [], ("name", "x"))
        assert (tmp_path / "t.csv").read_bytes() == b"name,x\n"


def smoke_plan(**overrides):
    defaults = dict(configs=("qvcnn-rgb",), fractions=(0.25,), runs=2, epochs=2,
                    base_seed=3, input_size=24, augment=False)
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


class TestRunSingle:
    """``run_single``'s accuracies against the run rebuilt from its parts:
    the split at the run's derived seed, a model trained at that seed, and
    the signs of its logits on the test images, counted here."""

    @pytest.mark.parametrize("name", ["rvcnn-rgb", "qvcnn-rgb"])
    def test_test_accuracy_is_counted_on_the_test_side(self, tmp_path, name):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        decoded = load_decoded_images(man, 24)
        plan = smoke_plan(configs=(name,), fractions=(0.5,), runs=1, epochs=1, base_seed=2,
                          stratify=False)
        result = run_single(name, man, 0.5, 0, plan, decoded)

        seed = derive_seed(2, name, 0.5, 0)
        train_ids, test_ids = split(man, 0.5, seed, stratify=False)
        config = config_from_name(name, 24)

        def encoded(ids):
            images, labels = zip(*(decoded[sid] for sid in ids))
            return encode_input(config, np.stack(images)), np.array(labels)

        (train_x, train_y), (test_x, test_y) = encoded(train_ids), encoded(test_ids)
        model, metrics = train_model(config, Samples(train_x, train_y), epochs=1,
                                     batch_size=plan.batch_size, seed=seed)
        test_acc = np.count_nonzero((model.forward(test_x) > 0) == (test_y == 1)) / len(test_ids)
        train_input_acc = np.mean((model.forward(train_x) > 0) == (train_y == 1))
        # the fixture tells the three apart: one epoch on an unstratified
        # half of 8 images
        assert len({test_acc, train_input_acc, metrics[-1].train_acc}) == 3
        assert result.seed == seed
        assert result.test_accuracy == test_acc
        assert result.train_accuracy == metrics[-1].train_acc


class _Interrupt(Exception):
    pass


def _interrupt_after(n_records):
    """A sweep log that raises once it has been told of n_records runs."""
    seen = []

    def log(message):
        seen.append(message)
        if len(seen) == n_records:
            raise _Interrupt(message)
    return log


class TestRunExperiment:
    def test_smoke_counts_and_stats(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        report = run_experiment(smoke_plan(), man, tmp_path / "out", log=lambda *_: None)
        assert report.n_executed == 2 and report.n_skipped == 0
        assert len(report.results) == 2
        assert len(report.stats) == 1
        assert report.stats[0].n == 2
        for r in report.results:
            assert 0.0 <= r.test_accuracy <= 1.0
            assert r.wall_time > 0.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_output_dir_holds_the_plan_and_two_reports(self, tmp_path, jobs):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        run_experiment(smoke_plan(jobs=jobs), man, out, log=lambda *_: None)
        assert sorted(path.name for path in out.iterdir()) == ["plan.json", "runs.csv", "stats.csv"]

    def test_a_duplicate_config_or_fraction_runs_nothing(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        with pytest.raises(ValueError, match="duplicate"):
            run_experiment(smoke_plan(configs=("rvcnn-rgb",) * 2, fractions=(0.5, 0.5), runs=1),
                           man, tmp_path / "out", log=lambda *_: None)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_fraction_with_an_empty_side_runs_nothing(self, tmp_path, jobs):
        # 0.01 of 10 images per class rounds to no test image; it is refused
        # before the 0.5 runs, and before plan.json or runs.csv is written
        man = load_manifest(make_fixture_dir(tmp_path, n=20))
        ran = []
        with pytest.raises(ValueError, match=r"test fraction 0\.01 leaves an empty side"):
            run_experiment(smoke_plan(fractions=(0.5, 0.01), runs=1, jobs=jobs), man,
                           tmp_path / "out", log=ran.append)
        assert ran == [] and not (tmp_path / "out").exists()

    def test_a_fraction_with_one_class_to_train_on_runs_nothing(self, tmp_path):
        man = load_manifest(make_unbalanced_dir(tmp_path))
        ran = []
        with pytest.raises(ValueError, match=ONE_CLASS_TRAIN):
            run_experiment(smoke_plan(fractions=(0.25, 0.75), runs=1), man, tmp_path / "out",
                           log=ran.append)
        assert ran == [] and not (tmp_path / "out").exists()

    def test_a_later_run_with_one_class_to_train_on_runs_nothing(self, tmp_path):
        # Unstratified, the counts depend on each run's derived seed: run 0
        # of this plan trains on both classes, and a later run does not. The
        # plan is refused before any run, as a resume of it would fail there.
        man = load_manifest(make_fixture_dir(tmp_path, n=4))
        plan = ExperimentPlan(configs=("rvcnn-rgb",), fractions=(0.5,), runs=12, epochs=0,
                              input_size=24, stratify=False, augment=False, base_seed=1)
        split(man, 0.5, derive_seed(1, "rvcnn-rgb", 0.5, 0), stratify=False)
        ran = []
        with pytest.raises(ValueError, match=r"^test fraction 0\.5 leaves one class on the "
                                             r"training side"):
            run_experiment(plan, man, tmp_path / "out", log=ran.append)
        assert ran == [] and not (tmp_path / "out").exists()

    def test_a_plan_of_numpy_numbers_writes_the_python_plan_bytes(self, tmp_path):
        # its seeds, run keys and rows are those of the plan of Python numbers,
        # and it resumes from its own runs.csv
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        numpy_plan = smoke_plan(fractions=tuple(np.linspace(0.25, 0.5, 2)),
                                runs=np.int64(1), epochs=np.int64(1))
        run_experiment(smoke_plan(fractions=(0.25, 0.5), runs=1, epochs=1), man,
                       tmp_path / "py", log=lambda *_: None)
        run_experiment(numpy_plan, man, tmp_path / "np", log=lambda *_: None)
        for name in ("plan.json", "runs.csv", "stats.csv"):
            assert (tmp_path / "np" / name).read_bytes() == (tmp_path / "py" / name).read_bytes()
        assert run_experiment(numpy_plan, man, tmp_path / "np", log=lambda *_: None).n_skipped == 2

    @pytest.mark.parametrize("field", ["configs", "fractions"])
    def test_an_empty_plan_writes_nothing(self, tmp_path, field):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        with pytest.raises(ValueError, match=f"^{field} must not be empty$"):
            run_experiment(smoke_plan(**{field: ()}), man, tmp_path / "out",
                           log=lambda *_: None)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out_state", ["new", "existing"])
    def test_an_undecodable_image_writes_nothing(self, tmp_path, out_state):
        # the images are decoded before plan.json or runs.csv is written; the
        # existing directory's CRLF rows would be rewritten by any write
        data = make_fixture_dir(tmp_path, n=8)
        out = tmp_path / "out"
        if out_state == "existing":
            run_experiment(smoke_plan(runs=1), load_manifest(data), out, log=lambda *_: None)
            runs = (out / "runs.csv").read_bytes().replace(b"\n", b"\r\n")
            (out / "runs.csv").write_bytes(runs)
            before = {p.name: p.read_bytes() for p in out.iterdir()}
        bad = data / "Im001_0.ppm"
        bad.write_text("P3\n1 1\n255\n300 0 0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}: ascii samples"):
            run_experiment(smoke_plan(runs=2), load_manifest(data), out, log=lambda *_: None)
        if out_state == "new":
            assert not out.exists()
        else:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("text", ["[]", '"x"', "{bad"])
    def test_a_plan_json_that_is_not_an_object_is_refused(self, tmp_path, monkeypatch, text):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        run_experiment(smoke_plan(runs=1), man, out, log=lambda *_: None)
        (out / "plan.json").write_text(text)
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(harness, "run_single", no_run)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(out / 'plan.json'))}: "):
            run_experiment(smoke_plan(runs=2), man, out, log=lambda *_: None)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_skips_everything(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        first = run_experiment(smoke_plan(), man, out, log=lambda *_: None)
        before = (out / "runs.csv").read_bytes()
        second = run_experiment(smoke_plan(), man, out, log=lambda *_: None)
        assert second.n_executed == 0 and second.n_skipped == 2
        assert (out / "runs.csv").read_bytes() == before
        assert second.stats == first.stats

    def test_partial_resume(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        run_experiment(smoke_plan(runs=1), man, out, log=lambda *_: None)
        report = run_experiment(smoke_plan(runs=3), man, out, log=lambda *_: None)
        assert report.n_executed == 2 and report.n_skipped == 1
        assert len(report.results) == 3

    def test_plan_json_records_what_the_runs_computed(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        run_experiment(smoke_plan(), man, tmp_path / "out", log=lambda *_: None)
        assert json.loads((tmp_path / "out" / "plan.json").read_text()) == {
            "epochs": 2, "base_seed": 3, "batch_size": 16, "input_size": 24,
            "augment": False, "stratify": True, "checksum": man.checksum,
            "results_version": quatcnn.RESULTS_VERSION,
        }

    @pytest.mark.parametrize("change", [
        dict(epochs=5), dict(base_seed=4), dict(batch_size=4), dict(input_size=32),
        dict(augment=True), dict(stratify=False), dict(epochs=1, batch_size=8),
    ], ids=lambda c: "+".join(c))
    def test_resume_under_another_plan_is_refused(self, tmp_path, monkeypatch, change):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        run_experiment(smoke_plan(runs=1), man, out, log=lambda *_: None)
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(harness, "run_single", no_run)
        with pytest.raises(ValueError, match="different plan") as err:
            run_experiment(smoke_plan(runs=2, **change), man, out, log=lambda *_: None)
        for field in change:
            assert field in str(err.value)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_a_runs_csv_with_a_foreign_header_is_refused(self, tmp_path, monkeypatch):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        run_experiment(smoke_plan(runs=1), man, out, log=lambda *_: None)
        rows = (out / "runs.csv").read_text().split("\n", 1)[1]
        (out / "runs.csv").write_text("config,fraction,run,seed,accuracy\n" + rows)
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(harness, "run_single", no_run)
        with pytest.raises(ValueError,
                           match="unexpected header 'config,fraction,run,seed,accuracy'"):
            run_experiment(smoke_plan(runs=2), man, out, log=lambda *_: None)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_with_another_dataset_is_refused(self, tmp_path):
        out = tmp_path / "out"
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        run_experiment(smoke_plan(runs=1), man, out, log=lambda *_: None)
        other = load_manifest(make_fixture_dir(tmp_path / "other", n=10))
        with pytest.raises(ValueError, match="checksum"):
            run_experiment(smoke_plan(runs=1), other, out, log=lambda *_: None)

    @pytest.mark.parametrize("stored", ["older-version", "no-version-field"])
    def test_resume_under_another_results_version_is_refused(self, tmp_path, monkeypatch,
                                                             stored):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        run_experiment(smoke_plan(runs=1), man, out, log=lambda *_: None)
        old = quatcnn.RESULTS_VERSION
        if stored == "older-version":
            monkeypatch.setattr(quatcnn, "RESULTS_VERSION", old + 1)
        else:  # a plan.json written before the field existed reads as version 1
            plan = json.loads((out / "plan.json").read_text())
            del plan["results_version"]
            (out / "plan.json").write_text(json.dumps(plan))
            old = 1
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(harness, "run_single", no_run)
        with pytest.raises(ValueError, match=rf"\(results_version {old} -> "
                                             rf"{quatcnn.RESULTS_VERSION}\)"):
            run_experiment(smoke_plan(runs=2), man, out, log=lambda *_: None)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_a_directory_with_runs_but_no_plan_json_is_refused(self, tmp_path, monkeypatch):
        # its runs predate plan.json, so they are of results version 1
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        run_experiment(smoke_plan(runs=1), man, out, log=lambda *_: None)
        (out / "plan.json").unlink()
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(harness, "run_single", no_run)
        with pytest.raises(ValueError, match=rf"holds runs.csv but no plan.json.*"
                                             rf"\(results_version 1 -> {quatcnn.RESULTS_VERSION}\)"):
            run_experiment(smoke_plan(runs=2), man, out, log=lambda *_: None)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_an_existing_directory_without_runs_or_plan_starts_fresh(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        out.mkdir()
        report = run_experiment(smoke_plan(runs=1), man, out, log=lambda *_: None)
        assert report.n_skipped == 0 and report.n_executed == 1
        assert sorted(p.name for p in out.iterdir()) == ["plan.json", "runs.csv", "stats.csv"]

    def test_more_runs_configs_fractions_and_jobs_resume(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        run_experiment(smoke_plan(runs=1), man, out, log=lambda *_: None)
        plan = (out / "plan.json").read_bytes()
        wider = smoke_plan(runs=2, configs=("qvcnn-rgb", "rvcnn-rgb"), fractions=(0.25, 0.5),
                           jobs=2)
        report = run_experiment(wider, man, out, log=lambda *_: None)
        assert report.n_skipped == 1 and report.n_executed == 7
        assert (out / "plan.json").read_bytes() == plan
        run_experiment(wider, man, tmp_path / "fresh", log=lambda *_: None)
        assert (out / "runs.csv").read_bytes() == (tmp_path / "fresh" / "runs.csv").read_bytes()

    def test_seed_column_matches_derivation(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        report = run_experiment(smoke_plan(), man, tmp_path / "out", log=lambda *_: None)
        for r in report.results:
            assert r.seed == derive_seed(3, r.config, r.fraction, r.run)

    def test_run_single_matches_sweep_row(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        plan = smoke_plan()
        report = run_experiment(plan, man, tmp_path / "out", log=lambda *_: None)
        alone = run_single("qvcnn-rgb", man, 0.25, 0, plan, load_decoded_images(man, 24))
        row = next(r for r in report.results if r.run == 0)
        assert alone.test_accuracy == row.test_accuracy
        assert alone.train_accuracy == row.train_accuracy
        assert alone.seed == row.seed

    def test_parallel_jobs_match_sequential(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        run_experiment(smoke_plan(), man, tmp_path / "seq", log=lambda *_: None)
        run_experiment(smoke_plan(jobs=2), man, tmp_path / "par", log=lambda *_: None)
        assert ((tmp_path / "seq" / "runs.csv").read_bytes()
                == (tmp_path / "par" / "runs.csv").read_bytes())

    def test_torn_final_row_is_redone(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        run_experiment(smoke_plan(), man, out, log=lambda *_: None)
        intact = (out / "runs.csv").read_bytes()
        lines = intact.decode().splitlines()
        # a cut after 10 characters does not parse; a cut of the last two
        # still parses, as a row with a truncated train_accuracy
        for torn_row in (lines[-1][:10], lines[-1][:-2]):
            torn = "\n".join(lines[:-1]) + "\n" + torn_row
            (out / "runs.csv").write_text(torn, encoding="utf-8")
            report = run_experiment(smoke_plan(), man, out, log=lambda *_: None)
            assert report.n_executed == 1 and report.n_skipped == 1
            assert (out / "runs.csv").read_bytes() == intact

    def test_resume_after_torn_row_survives_interruption(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        run_experiment(smoke_plan(), man, out, log=lambda *_: None)
        lines = (out / "runs.csv").read_text().splitlines()
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][:10]
        (out / "runs.csv").write_text(torn, encoding="utf-8")
        with pytest.raises(_Interrupt):
            run_experiment(smoke_plan(runs=4), man, out, log=_interrupt_after(2))
        report = run_experiment(smoke_plan(runs=4), man, out, log=lambda *_: None)
        assert report.n_executed == 1 and report.n_skipped == 3
        run_experiment(smoke_plan(runs=4), man, tmp_path / "fresh", log=lambda *_: None)
        assert ((out / "runs.csv").read_bytes()
                == (tmp_path / "fresh" / "runs.csv").read_bytes())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_an_interrupted_runs_csv_is_in_its_final_order(self, tmp_path, jobs):
        # rvcnn-rgb runs first but sorts after qvcnn-rgb
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        plan = smoke_plan(configs=("rvcnn-rgb", "qvcnn-rgb"), runs=1, epochs=1, jobs=jobs)
        with pytest.raises(_Interrupt):
            run_experiment(plan, man, tmp_path / "out", log=_interrupt_after(2))
        run_experiment(plan, man, tmp_path / "fresh", log=lambda *_: None)
        runs = (tmp_path / "out" / "runs.csv").read_bytes()
        assert runs.startswith(b"config,fraction,run,seed,test_accuracy,train_accuracy\n"
                               b"qvcnn-rgb,0.25,0,")
        assert runs == (tmp_path / "fresh" / "runs.csv").read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupted_runs_csv_has_only_lf_lines(self, tmp_path, jobs):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        with pytest.raises(_Interrupt):
            run_experiment(smoke_plan(jobs=jobs), man, out, log=_interrupt_after(1))
        data = (out / "runs.csv").read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")
        assert data.count(b"\n") == 2  # header and the one recorded run

    def test_crlf_rows_resume(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        run_experiment(smoke_plan(), man, out, log=lambda *_: None)
        intact = (out / "runs.csv").read_bytes()
        header, first, _ = intact.split(b"\n")[:3]
        (out / "runs.csv").write_bytes(header + b"\r\n" + first + b"\r\n")
        report = run_experiment(smoke_plan(), man, out, log=lambda *_: None)
        assert report.n_executed == 1 and report.n_skipped == 1
        assert (out / "runs.csv").read_bytes() == intact

    def test_malformed_interior_row_rejected(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        run_experiment(smoke_plan(), man, out, log=lambda *_: None)
        lines = (out / "runs.csv").read_text().splitlines()
        lines[1] = "qvcnn-rgb,not-a-number,0,0,0.5,0.5"
        (out / "runs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed row"):
            run_experiment(smoke_plan(), man, out, log=lambda *_: None)


class TestWorkerPool:
    """The pool ``run_experiment`` uses for ``jobs`` > 1."""

    _BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_images_are_decoded_once(self, tmp_path, monkeypatch, jobs):
        # the image files are gone once this process has decoded them, so
        # a worker that decoded them again would fail
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        sizes = []

        def decode_then_delete(manifest, input_size):
            decoded = load_decoded_images(manifest, input_size)
            sizes.append(input_size)
            for entry in manifest.entries:
                entry.path.unlink()
            return decoded
        monkeypatch.setattr(harness, "load_decoded_images", decode_then_delete)
        report = run_experiment(smoke_plan(jobs=jobs), man, tmp_path / "out",
                                log=lambda *_: None)
        assert sizes == [24] and report.n_executed == 2

    def test_workers_see_one_blas_thread(self, tmp_path, monkeypatch):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        before = dict(os.environ)
        with harness._worker_pool(man, smoke_plan(jobs=2), {}) as pool:
            futures = [pool.submit(os.getenv, name) for name in self._BLAS_VARS]
            seen = [fut.result(timeout=120) for fut in futures]
        assert seen == ["1", "1", "1"]
        assert dict(os.environ) == before

    def test_environment_restored_when_the_block_raises(self, tmp_path, monkeypatch):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        before = dict(os.environ)
        with pytest.raises(_Interrupt):
            with harness._worker_pool(man, smoke_plan(jobs=2), {}):
                assert os.environ["OMP_NUM_THREADS"] == "1"
                raise _Interrupt
        assert dict(os.environ) == before

    def test_runs_not_started_are_cancelled_when_recording_fails(self, tmp_path, monkeypatch):
        submitted = []

        class KeptFutures(harness.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(super().submit(*args, **kwargs))
                return submitted[-1]

        monkeypatch.setattr(harness, "ProcessPoolExecutor", KeptFutures)
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        out = tmp_path / "out"
        with pytest.raises(_Interrupt):
            run_experiment(smoke_plan(runs=16, jobs=2), man, out, log=_interrupt_after(1))
        assert len(submitted) == 16 and all(fut.done() for fut in submitted)
        assert any(fut.cancelled() for fut in submitted)
        assert (out / "runs.csv").read_bytes().count(b"\n") == 2


class TestSyntheticData:
    def test_balanced_and_readable(self, tmp_path):
        paths = generate_synthetic_dataset(tmp_path / "d", n=10, size=24, seed=4)
        assert len(paths) == 10
        man = load_manifest(tmp_path / "d")
        labels = [e.label for e in man.entries]
        assert labels.count(0) == labels.count(1) == 5

    def test_deterministic(self, tmp_path):
        a = generate_synthetic_dataset(tmp_path / "a", n=4, size=16, seed=9)
        b = generate_synthetic_dataset(tmp_path / "b", n=4, size=16, seed=9)
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    # sha256 over the name and bytes of each file, in the order returned;
    # computed before the generator preallocated its work arrays, with
    # numpy 2.4 (its Generator streams and float64 sin)
    PINNED = {
        "default-24": (dict(n=6, size=24, seed=0),
                       "231933af62b8c052b1f3114879b1ec4a238be6207e4574155b5cac0f9e256ff9"),
        "default-100": (dict(n=4, size=100, seed=1),
                        "c241dde0f918f3c5bf7b562246b53d46fc193cebc0a663892b9e84b7713c8467"),
        "default-257": (dict(n=2, size=257, seed=2),
                        "e4db4c51483aec07617c03d1ff9d66ad62565d13ed44581cb3095fa900fb91be"),
        "default-5": (dict(n=3, size=5, seed=9),
                      "580738514ce3f196540d55c8d1f1e1f62b2069698ef918d9e4e862d932cce799"),
        "fixed-value": (dict(n=6, size=24, seed=11, value=(0.8, 0.8)),
                        "57c847cafa9b291f2aafab903af0e41d05051be8119b04d0584b559aaaa3f42f"),
        "hues-jitter-noise": (dict(n=6, size=32, seed=3, healthy_hue=10.0, blast_hue=200.0,
                                   hue_jitter=30.0, saturation=(0.2, 0.9), noise=0.05),
                              "6e0b08df0793bf099592d433e812898c15b0f64824ca80713b23bd252e81bd4d"),
        "no-noise": (dict(n=4, size=24, seed=5, noise=0.0),
                     "00a64588836961427d19dc64c00414deec6d5b7f75870158d602a9eb7ee927a7"),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_bytes_are_pinned(self, tmp_path, case):
        kwargs, expected = self.PINNED[case]
        paths = generate_synthetic_dataset(tmp_path / "d", **kwargs)
        assert sorted(paths) == sorted((tmp_path / "d").iterdir())
        digest = hashlib.sha256()
        for path in paths:
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("noise", [-0.01, -1.0, float("nan"), float("inf")])
    def test_negative_or_nan_noise_is_refused(self, tmp_path, noise):
        with pytest.raises(ValueError, match="noise must be >= 0"):
            generate_synthetic_dataset(tmp_path / "d", n=2, size=8, noise=noise)
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("kwargs,message", [
        (dict(size=0), "size must be >= 1, got 0"),
        (dict(size=-4), "size must be >= 1, got -4"),
        (dict(n=-1), "n must be >= 0, got -1"),
        (dict(n=-3), "n must be >= 0, got -3"),
    ], ids=["size-0", "size-negative", "n-minus-1", "n-minus-3"])
    def test_bad_size_or_count_is_refused(self, tmp_path, kwargs, message):
        with pytest.raises(ValueError, match=message):
            generate_synthetic_dataset(tmp_path / "d", **{"n": 2, "size": 8, **kwargs})
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("kwargs,message", [
        (dict(healthy_hue=float("nan")), "healthy_hue must be finite, got nan"),
        (dict(blast_hue=float("inf")), "blast_hue must be finite, got inf"),
        (dict(hue_jitter=-1.0), r"hue_jitter must be >= 0 and finite, got -1.0"),
        (dict(hue_jitter=float("nan")), "hue_jitter must be >= 0 and finite, got nan"),
        (dict(hue_jitter=float("inf")), "hue_jitter must be >= 0 and finite, got inf"),
        (dict(value=(1.5, 1.5)), r"value must be a range 0 <= lo <= hi <= 1, got \(1.5, 1.5\)"),
        (dict(value=(float("nan"),) * 2), r"value must be a range .*, got \(nan, nan\)"),
        (dict(saturation=(0.7, 0.45)), r"saturation must be a range .*, got \(0.7, 0.45\)"),
        (dict(saturation=(-0.1, 0.5)), r"saturation must be a range .*, got \(-0.1, 0.5\)"),
    ], ids=["nan-healthy-hue", "inf-blast-hue", "negative-jitter", "nan-jitter", "inf-jitter",
            "value-above-1", "nan-value", "saturation-reversed", "saturation-below-0"])
    def test_bad_hue_or_color_range_is_refused(self, tmp_path, kwargs, message):
        with pytest.raises(ValueError, match=message):
            generate_synthetic_dataset(tmp_path / "d", **{"n": 2, "size": 8, **kwargs})
        assert not (tmp_path / "d").exists()

    def test_edges_of_the_ranges_are_valid(self, tmp_path):
        paths = generate_synthetic_dataset(tmp_path / "d", n=2, size=8, hue_jitter=0.0,
                                           saturation=(0.0, 1.0), value=(1.0, 1.0))
        assert len(paths) == 2

    def test_a_directory_holding_labelled_images_is_refused(self, tmp_path):
        # the images left from the first call would join the second's dataset
        out = tmp_path / "d"
        generate_synthetic_dataset(out, n=4, size=8)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(ValueError, match=rf"^{re.escape(str(out))} already holds the "
                                             r"labelled image Im001_0\.ppm"):
            generate_synthetic_dataset(out, n=2, size=8)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_a_directory_without_labelled_images_is_used(self, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        for name in ("notes.txt", "Im001_2.ppm.bak", "cover.ppm"):
            (out / name).write_text("x")
        (out / "Im009_1.png").mkdir()
        paths = generate_synthetic_dataset(out, n=2, size=8)
        assert [p.name for p in paths] == ["Im001_0.ppm", "Im002_1.ppm"]

    def test_no_images_is_valid(self, tmp_path):
        assert generate_synthetic_dataset(tmp_path / "d", n=0, size=8) == []
        assert list((tmp_path / "d").iterdir()) == []

    def test_classes_differ_in_hue(self, tmp_path):
        from quatcnn.encoding import load_image, rgb_to_hsv

        paths = generate_synthetic_dataset(tmp_path / "d", n=6, size=24, seed=5,
                                           value=(0.8, 0.8))
        hues = {0: [], 1: []}
        for p in paths:
            label = int(p.stem[-1])
            hsv = rgb_to_hsv(load_image(p))
            # hue of the most saturated region (the ellipse)
            mask = hsv[..., 1] > 0.3
            hues[label].append(np.median(hsv[..., 0][mask]))
        assert abs(np.mean(hues[0]) - np.mean(hues[1])) > 0.3


class TestCli:
    # the flags each command's --help lists; --manifest-mode is gone
    _SHARED_FLAGS = {"--data", "--epochs", "--batch-size", "--input-size", "--no-augment",
                     "--no-stratify", "--seed", "--out", "--help"}
    _FLAGS = {
        "train": {*_SHARED_FLAGS, "--config", "--test-fraction"},
        "sweep": {*_SHARED_FLAGS, "--configs", "--fractions", "--runs", "--jobs"},
        "count-params": {"--input-size", "--help"},
        "gradcheck": {"--seed", "--help"},
        "synth-data": {"--n", "--size", "--out", "--seed", "--healthy-hue", "--blast-hue",
                       "--fixed-value", "--help"},
    }

    @pytest.mark.parametrize("command", list(_FLAGS))
    def test_each_command_takes_its_flags(self, command):
        parser = cli.build_parser()
        (commands,) = (action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
        assert set(commands) == set(self._FLAGS)
        assert set(re.findall(r"--[a-z][a-z-]*", commands[command].format_help())) \
            == self._FLAGS[command]

    # the whole output of count-params, at the paper's 100x100 and at 24x24
    _COUNT_PARAMS = {
        (): """\
rvcnn-rgb (input 100x100):
  conv            896
  conv         18,496
  conv         73,856
  dense        12,801
  total       106,049
qvcnn-rgb (input 100x100):
  qconv           320
  qconv         4,672
  qconv        18,560
  dense        12,801
  total        36,353
""",
        ("--input-size", "24"): """\
rvcnn-rgb (input 24x24):
  conv            896
  conv         18,496
  conv         73,856
  dense           129
  total        93,377
qvcnn-rgb (input 24x24):
  qconv           320
  qconv         4,672
  qconv        18,560
  dense           129
  total        23,681
""",
    }

    @pytest.mark.parametrize("flags", list(_COUNT_PARAMS), ids=["default", "input-size-24"])
    def test_count_params_golden(self, capsys, flags):
        assert cli.main(["count-params", *flags]) == 0
        assert capsys.readouterr().out == self._COUNT_PARAMS[flags]

    @pytest.mark.parametrize("fixed", ["0", "0.8"])
    def test_synth_data_fixed_value(self, tmp_path, capsys, fixed):
        # a fixed value of 0 pins the value channel too; it is not "unset"
        assert cli.main(["synth-data", "--n", "4", "--size", "16", "--seed", "2",
                         "--fixed-value", fixed, "--out", str(tmp_path / "cli")]) == 0
        expect = generate_synthetic_dataset(tmp_path / "direct", n=4, size=16, seed=2,
                                            value=(float(fixed), float(fixed)))
        for path in expect:
            assert (tmp_path / "cli" / path.name).read_bytes() == path.read_bytes()

    def test_synth_data_and_train(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(["synth-data", "--n", "8", "--size", "24",
                         "--out", str(data), "--seed", "1"]) == 0
        out_dir = tmp_path / "run"
        code = cli.main([
            "train", "--config", "qvcnn-rgb", "--data", str(data),
            "--test-fraction", "0.25", "--epochs", "2", "--input-size", "24",
            "--no-augment", "--out", str(out_dir), "--seed", "0",
        ])
        assert code == 0
        assert (out_dir / "metrics.csv").exists()
        result = json.loads((out_dir / "result.json").read_text())
        assert result["config"] == "qvcnn-rgb"
        # the saved model, on the split rebuilt from the recorded seed, scores
        # the recorded accuracy; two test images make that a coarse check, so
        # the weights must also equal those of the same training in-process
        config = config_from_name("qvcnn-rgb", 24)
        model = load_model(out_dir / "model.bin", config)
        manifest = load_manifest(data)
        train_ids, test_ids = split(manifest, 0.25, result["seed"])
        _, train, test = build_run_inputs(config, load_decoded_images(manifest, 24),
                                          train_ids, test_ids, augment=False)
        assert len(test) == result["n_test"]
        assert evaluate(model, test) == result["test_accuracy"]
        trained, _ = train_model(config, train, epochs=2, batch_size=16, seed=result["seed"])
        assert np.array_equal(model.theta, trained.theta)

    def test_a_failed_result_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        data = make_fixture_dir(tmp_path, n=8, size=24)
        argv = ["train", "--config", "rvcnn-rgb", "--data", str(data), "--test-fraction", "0.25",
                "--epochs", "1", "--input-size", "24", "--out", str(tmp_path / "run")]
        assert cli.main(argv) == 0
        path = tmp_path / "run" / "result.json"
        before = path.read_bytes()

        self._fail_writes_of(monkeypatch, "result.json")
        with pytest.raises(SystemExit, match="^error: I/O operation on closed file"):
            cli.main(argv)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == \
            ["metrics.csv", "model.bin", "result.json"]

    @staticmethod
    def _fail_writes_of(monkeypatch, name):
        real_open = builtins.open

        def open_closed(file, mode="r", *args, **kwargs):
            # the file, or a temporary file beside it, opened for writing
            # comes back closed: the file is there, but writing it fails
            fh = real_open(file, mode, *args, **kwargs)
            if "w" in mode and Path(file).name.startswith(name):
                fh.close()
            return fh

        monkeypatch.setattr(builtins, "open", open_closed)
        monkeypatch.setattr(io, "open", open_closed)

    @pytest.mark.parametrize("name", ["model.bin", "metrics.csv", "plan.json", "runs.csv",
                                      "stats.csv"])
    def test_a_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch, name):
        # every file the program replaces: its bytes stay, and no .tmp is left
        data = make_fixture_dir(tmp_path, n=8, size=24)
        command = (["train", "--config", "rvcnn-rgb", "--test-fraction", "0.25"]
                   if name in ("model.bin", "metrics.csv") else
                   ["sweep", "--configs", "rvcnn-rgb", "--fractions", "0.25", "--runs", "1"])
        out = tmp_path / "out"
        argv = [*command, "--data", str(data), "--epochs", "1", "--input-size", "24",
                "--out", str(out)]
        assert cli.main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert name in before

        self._fail_writes_of(monkeypatch, name)
        with pytest.raises(SystemExit, match="^error: I/O operation on closed file"):
            cli.main(argv)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("failure", ["model.bin write", "interrupt"])
    def test_a_failed_train_keeps_the_earlier_run_whole(self, tmp_path, monkeypatch, failure):
        # a train into an --out that holds a shorter run, failing after all
        # its epochs: the earlier run's three files keep their bytes, so
        # metrics.csv still has its one epoch, as result.json says
        data = make_fixture_dir(tmp_path, n=8, size=24)
        out = tmp_path / "out"
        argv = ["train", "--config", "rvcnn-rgb", "--test-fraction", "0.25", "--data", str(data),
                "--input-size", "24", "--out", str(out), "--epochs"]
        assert cli.main([*argv, "1"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert json.loads(before["result.json"])["epochs"] == 1
        assert before["metrics.csv"].count(b"\n") == 2

        if failure == "model.bin write":
            self._fail_writes_of(monkeypatch, "model.bin")
            expect = pytest.raises(SystemExit, match="^error: I/O operation on closed file")
        else:
            def interrupted(model, samples):
                raise KeyboardInterrupt

            monkeypatch.setattr(harness, "evaluate", interrupted)
            expect = pytest.raises(KeyboardInterrupt)
        with expect:
            cli.main([*argv, "3"])
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("case", ["empty side", "one class"])
    def test_a_refused_train_makes_no_output_directory(self, tmp_path, case):
        # 0.01 of 4 images per class rounds to no test image; 0.75 of 2
        # class 0 images leaves none of them to train on
        if case == "empty side":
            data, fraction = make_fixture_dir(tmp_path, n=8, size=24), "0.01"
            message = r"test fraction 0\.01 leaves an empty side"
        else:
            data, fraction, message = make_unbalanced_dir(tmp_path), "0.75", ONE_CLASS_TRAIN
        with pytest.raises(SystemExit, match="^error: " + message):
            cli.main(["train", "--config", "rvcnn-rgb", "--data", str(data),
                      "--test-fraction", fraction, "--input-size", "24",
                      "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "sweep", "synth-data"])
    def test_an_out_that_is_a_file_exits_with_an_error(self, tmp_path, command):
        data = make_fixture_dir(tmp_path, n=8, size=24)
        out = tmp_path / "out"
        out.write_bytes(b"not a directory\n")
        flags = {
            "train": ["--config", "rvcnn-rgb", "--test-fraction", "0.25", "--epochs", "1",
                      "--input-size", "24", "--data", str(data)],
            "sweep": ["--configs", "rvcnn-rgb", "--fractions", "0.25", "--runs", "1",
                      "--epochs", "1", "--input-size", "24", "--data", str(data)],
            "synth-data": ["--n", "2", "--size", "8"],
        }[command]
        with pytest.raises(SystemExit, match=rf"^error: .*File exists: '{re.escape(str(out))}'"):
            cli.main([command, *flags, "--out", str(out)])
        assert out.read_bytes() == b"not a directory\n"

    def test_an_image_too_small_to_resize_is_named(self, tmp_path):
        data = make_fixture_dir(tmp_path, n=8, size=24)
        small = data / "Im001_0.ppm"
        write_ppm(small, np.zeros((1, 1, 3), dtype=np.uint8))
        with pytest.raises(SystemExit, match=rf"^error: {re.escape(str(small))}: "
                                             r"source too small to resize: 1x1$"):
            cli.main(["sweep", "--data", str(data), "--configs", "rvcnn-rgb",
                      "--fractions", "0.25", "--runs", "1", "--input-size", "24",
                      "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_sweep(self, tmp_path, capsys):
        data = tmp_path / "data"
        cli.main(["synth-data", "--n", "8", "--size", "24", "--out", str(data)])
        out_dir = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--data", str(data), "--configs", "rvcnn-rgb",
            "--fractions", "0.25", "--runs", "2", "--epochs", "2",
            "--input-size", "24", "--no-augment", "--out", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "runs.csv").exists()
        assert (out_dir / "stats.csv").exists()

    def test_sweep_resume_under_another_plan_exits_with_an_error(self, tmp_path):
        data = make_fixture_dir(tmp_path, n=8, size=24)
        args = ["sweep", "--data", str(data), "--configs", "rvcnn-rgb", "--fractions", "0.25",
                "--runs", "1", "--input-size", "24", "--out", str(tmp_path / "out")]
        assert cli.main(args + ["--epochs", "1"]) == 0
        runs = (tmp_path / "out" / "runs.csv").read_bytes()
        with pytest.raises(SystemExit, match=r"^error: .*different plan \(epochs 1 -> 5\)"):
            cli.main(args + ["--epochs", "5"])
        assert (tmp_path / "out" / "runs.csv").read_bytes() == runs

    def test_runs_csv_independent_of_blas_threads(self, tmp_path):
        # BLAS reads its thread count when numpy is imported, so each
        # sweep runs in its own interpreter
        data = make_fixture_dir(tmp_path, n=8, size=24)
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            out_dir = tmp_path / f"threads-{threads}"
            subprocess.run(
                [sys.executable, "-m", "quatcnn", "sweep", "--data", str(data),
                 "--fractions", "0.25", "--runs", "1", "--epochs", "2",
                 "--batch-size", "4", "--input-size", "24", "--out", str(out_dir)],
                env=env, check=True, capture_output=True,
            )
            runs.append((out_dir / "runs.csv").read_bytes())
        assert runs[0] == runs[1]
        assert runs[0].count(b"\n") == 5  # header and one run per config

    def test_model_bin_independent_of_blas_threads(self, tmp_path):
        # Test accuracies are too coarse to show a last-bit difference, so
        # compare the trained weights. The thread count is set in each
        # interpreter, whatever the environment of the test run. At 24x24
        # the 40 training samples run as chunks of 16, 16 and 8; at 100x100
        # the 24 run one sample at a time.
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for size, n in ((24, 14), (100, 8)):
            subprocess.run(
                [sys.executable, "-m", "quatcnn", "synth-data", "--n", str(n),
                 "--size", str(size), "--seed", "3", "--out", str(tmp_path / f"data-{size}")],
                env=dict(os.environ, PYTHONPATH=path), check=True, capture_output=True,
            )
        digests = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            for name, size in (("rvcnn-rgb", 24), ("qvcnn-hsv", 24), ("qvcnn-rgb", 100)):
                out_dir = tmp_path / f"{name}-{size}-{threads}"
                subprocess.run(
                    [sys.executable, "-m", "quatcnn", "train", "--config", name,
                     "--data", str(tmp_path / f"data-{size}"),
                     "--input-size", str(size), "--test-fraction", "0.25", "--epochs", "1",
                     "--batch-size", "16", "--seed", "5", "--out", str(out_dir)],
                    env=env, check=True, capture_output=True,
                )
                model = (out_dir / "model.bin").read_bytes()
                digests.setdefault((name, size), []).append(hashlib.sha256(model).hexdigest())
        differ = [case for case, (one, two) in digests.items() if one != two]
        assert not differ, f"model.bin differs between one and two BLAS threads: {differ}"

    def test_data_env_var(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        cli.main(["synth-data", "--n", "8", "--size", "24", "--out", str(data)])
        monkeypatch.setenv("QUATCNN_DATA", str(data))
        out_dir = tmp_path / "run"
        code = cli.main([
            "train", "--config", "rvcnn-rgb", "--test-fraction", "0.25",
            "--epochs", "1", "--input-size", "24", "--no-augment",
            "--out", str(out_dir),
        ])
        assert code == 0

    def test_sweep_rejects_bad_jobs_before_reading_data(self, tmp_path):
        # the data dir does not exist: the plan is refused first
        with pytest.raises(SystemExit, match="jobs must be >= 1, got 0"):
            cli.main(["sweep", "--data", str(tmp_path / "missing"), "--jobs", "0",
                      "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--fractions", "0.1,x"], "--fractions: 'x' is not a number$"),
        (["sweep", "--data", "{tmp}/missing"], ""),
        (["count-params", "--input-size", "5"], ""),
        (["train", "--config", "rvcnn-rgb"],
         "no dataset directory: pass --data or set QUATCNN_DATA$"),
        (["sweep", "--data", "{tmp}/data", "--input-size", "24", "--fractions", "0.5"],
         r".*Im001_0\.ppm: ascii samples must lie in \[0, 255\]$"),
        (["synth-data", "--size", "0"], "size must be >= 1, got 0$"),
        (["synth-data", "--n", "-3"], "n must be >= 0, got -3$"),
        (["sweep", "--configs", "rvcnn-rgb", "rvcnn-rgb"],
         "duplicate config in the plan: rvcnn-rgb$"),
        (["synth-data", "--fixed-value", "1.5"],
         r"value must be a range 0 <= lo <= hi <= 1, got \(1.5, 1.5\)$"),
        (["synth-data", "--fixed-value", "nan"], r"value must be a range .*, got \(nan, nan\)$"),
        (["synth-data", "--blast-hue", "nan"], "blast_hue must be finite, got nan$"),
    ], ids=["bad-fraction", "missing-data-dir", "input-too-small", "missing-data",
            "p3-sample-out-of-range", "synth-size-0", "synth-negative-n", "duplicate-config",
            "synth-value-above-1", "synth-nan-value", "synth-nan-hue"])
    def test_bad_input_exits_with_an_error(self, tmp_path, monkeypatch, argv, message):
        monkeypatch.delenv("QUATCNN_DATA", raising=False)
        if "{tmp}/data" in argv:
            data = make_fixture_dir(tmp_path)
            (data / "Im001_0.ppm").write_text("P3\n2 2\n255\n300" + " 0" * 11 + "\n")
        if argv[0] in ("sweep", "train", "synth-data"):
            argv = argv + ["--out", "{tmp}/out"]
        with pytest.raises(SystemExit, match="^error: " + message):
            cli.main([arg.format(tmp=tmp_path) for arg in argv])
        if argv[0] == "synth-data":
            assert not (tmp_path / "out").exists()

    def test_sweep_defaults_are_the_default_plan(self):
        args = cli.build_parser().parse_args(["sweep", "--out", "out"])
        assert cli._sweep_plan(args) == ExperimentPlan()

    def test_synth_data_and_count_params_defaults_are_the_library_defaults(self):
        parser = cli.build_parser()
        args = parser.parse_args(["synth-data", "--out", "out"])
        library = inspect.signature(generate_synthetic_dataset).parameters
        for name in ("n", "size", "seed", "healthy_hue", "blast_hue"):
            assert getattr(args, name) == library[name].default
        args = parser.parse_args(["count-params"])
        assert args.input_size == config_from_name("rvcnn-rgb").input_size \
            == config_from_name("qvcnn-rgb").input_size
        args = parser.parse_args(["gradcheck"])
        assert args.seed == inspect.signature(run_gradient_verification).parameters["seed"].default
        args = parser.parse_args(["sweep", "--out", "out"])
        assert args.jobs == ExperimentPlan().jobs

    def test_gradcheck_cli(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out


class TestPillowAdapter:
    """The decode path of every non-PPM raster, such as ALL-IDB2's .tif
    files, run without Pillow installed."""

    _SWEEP = ["sweep", "--fractions", "0.25", "--runs", "1", "--epochs", "1",
              "--input-size", "24", "--jobs", "1"]

    @staticmethod
    def _tif_copies(tmp_path):
        """A synth-data set and its .tif copies: the same bytes under the
        ALL-IDB2 file extension."""
        ppm, tif = tmp_path / "ppm", tmp_path / "tif"
        cli.main(["synth-data", "--n", "8", "--size", "24", "--out", str(ppm)])
        tif.mkdir()
        for path in sorted(ppm.glob("*.ppm")):
            (tif / f"{path.stem}.tif").write_bytes(path.read_bytes())
        return ppm, tif

    def test_without_pillow_a_tif_is_refused_naming_the_extra(self, tmp_path, monkeypatch):
        _, tif = self._tif_copies(tmp_path)
        monkeypatch.setitem(sys.modules, "PIL", None)  # import PIL raises ImportError
        path = tif / "Im001_0.tif"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*quatcnn\[images\]"):
            encoding.load_image(path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=r"^error: .*\.tif: .*quatcnn\[images\]"):
            cli.main([*self._SWEEP, "--data", str(tif), "--out", str(out)])
        assert not out.exists()

    def test_a_tif_sweep_equals_the_ppm_sweep(self, tmp_path, monkeypatch):
        ppm, tif = self._tif_copies(tmp_path)
        modes = []

        class _Image:
            def __init__(self, path):
                self.path = path

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def convert(self, mode):
                modes.append(mode)
                return encoding.read_ppm(self.path)

        image = types.ModuleType("PIL.Image")
        image.open = _Image
        pil = types.ModuleType("PIL")
        pil.Image = image
        monkeypatch.setitem(sys.modules, "PIL", pil)  # from PIL import Image reads pil.Image
        reports = {}
        for data in (ppm, tif):
            out = tmp_path / f"out-{data.name}"
            assert cli.main([*self._SWEEP, "--data", str(data), "--out", str(out)]) == 0
            reports[data.name] = [(out / name).read_bytes() for name in ("runs.csv", "stats.csv")]
        assert reports["tif"] == reports["ppm"]
        assert reports["ppm"][0].count(b"\n") == 5  # header and one run per config
        assert len(modes) == 8 and set(modes) == {"RGB"}
