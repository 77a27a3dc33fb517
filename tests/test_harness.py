import json
from pathlib import Path

import numpy as np
import pytest

from quatcnn.encoding import write_ppm
from quatcnn.harness import (
    ManifestEntry, DatasetManifest, load_manifest, split,
    ExperimentPlan, RunResult, derive_seed, encode_input, evaluate,
    build_run_inputs, run_single, run_experiment, aggregate, emit_report,
    read_runs_csv, generate_synthetic_dataset, load_decoded_images,
)
from quatcnn.layers import config_from_name
from quatcnn.quat import QTensor
from quatcnn import cli


def make_fixture_dir(tmp_path, n=8, size=24, seed=0):
    data = tmp_path / "data"
    generate_synthetic_dataset(data, n=n, size=size, seed=seed)
    return data


def fake_manifest(n_per_class: int) -> DatasetManifest:
    entries = []
    for label in (0, 1):
        for i in range(n_per_class):
            sid = f"Im{label}{i:03d}_{label}"
            entries.append(ManifestEntry(Path(f"/nowhere/{sid}.ppm"), label, sid))
    return DatasetManifest(Path("/nowhere"), tuple(entries), "0" * 64)


class TestLoadManifest:
    def test_filename_convention(self, tmp_path):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        write_ppm(tmp_path / "Im001_1.ppm", img)
        write_ppm(tmp_path / "Im002_0.ppm", img)
        man = load_manifest(tmp_path, "filename")
        assert len(man.entries) == 2
        assert {e.label for e in man.entries} == {0, 1}
        assert {e.id for e in man.entries} == {"Im001_1", "Im002_0"}

    def test_empty_dir(self, tmp_path):
        with pytest.raises(ValueError, match="no labeled images"):
            load_manifest(tmp_path, "filename")

    def test_missing_root(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            load_manifest(tmp_path / "nope", "filename")

    def test_single_class(self, tmp_path):
        write_ppm(tmp_path / "Im001_1.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="both classes"):
            load_manifest(tmp_path, "filename")

    def test_unparsable_filename(self, tmp_path):
        write_ppm(tmp_path / "cell7.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="cannot parse label"):
            load_manifest(tmp_path, "filename")

    def test_csv_mode(self, tmp_path):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        write_ppm(tmp_path / "a.ppm", img)
        write_ppm(tmp_path / "b.ppm", img)
        (tmp_path / "manifest.csv").write_text("path,label\na.ppm,1\nb.ppm,0\n")
        man = load_manifest(tmp_path, "csv")
        assert [e.label for e in man.entries] == [1, 0]

    def test_csv_bad_label_reports_line(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        (tmp_path / "manifest.csv").write_text("path,label\na.ppm,2\n")
        with pytest.raises(ValueError, match=":2: label"):
            load_manifest(tmp_path, "csv")

    def test_csv_missing_file_reports_line(self, tmp_path):
        (tmp_path / "manifest.csv").write_text("path,label\nmissing.ppm,1\n")
        with pytest.raises(ValueError, match=":2:.*does not exist"):
            load_manifest(tmp_path, "csv")

    def test_csv_duplicate_id_rejected(self, tmp_path):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        (tmp_path / "sub").mkdir()
        for rel in ("Im001_0.ppm", "sub/Im001_0.ppm", "Im002_1.ppm"):
            write_ppm(tmp_path / rel, img)
        (tmp_path / "manifest.csv").write_text(
            "path,label\nIm001_0.ppm,0\nsub/Im001_0.ppm,0\nIm002_1.ppm,1\n"
        )
        with pytest.raises(ValueError, match="duplicate sample id 'Im001_0'") as exc:
            load_manifest(tmp_path, "csv")
        assert str(tmp_path / "Im001_0.ppm") in str(exc.value)
        assert str(tmp_path / "sub" / "Im001_0.ppm") in str(exc.value)

    def test_filename_duplicate_id_rejected(self, tmp_path):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        write_ppm(tmp_path / "Im001_0.ppm", img)
        write_ppm(tmp_path / "Im002_1.ppm", img)
        (tmp_path / "Im001_0.png").write_bytes(b"")
        with pytest.raises(ValueError, match="duplicate sample id 'Im001_0'") as exc:
            load_manifest(tmp_path, "filename")
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

    def test_empty_side_error(self):
        man = fake_manifest(2)
        with pytest.raises(ValueError, match="empty side"):
            split(man, 0.01, seed=0)

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


class TestPlanValidation:
    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="fractions"):
            ExperimentPlan(fractions=(0.0,))

    def test_bad_runs(self):
        with pytest.raises(ValueError, match="runs"):
            ExperimentPlan(runs=0)

    def test_bad_config(self):
        with pytest.raises(ValueError, match="unknown config"):
            ExperimentPlan(configs=("resnet",))

    def test_input_size_checked_against_architecture(self):
        with pytest.raises(ValueError, match="inconsistent config"):
            ExperimentPlan(configs=("rvcnn-rgb",), input_size=4)
        ExperimentPlan(configs=("rvcnn-rgb",), input_size=24)


class _StubModel:
    def __init__(self, logits):
        self.logits = list(logits)
        self.i = 0

    def forward(self, x):
        logit = self.logits[self.i % len(self.logits)]
        self.i += 1
        return logit


class TestEvaluate:
    def test_all_correct(self):
        samples = [(None, 1), (None, 0)]
        assert evaluate(_StubModel([5.0, -5.0]), samples) == 1.0

    def test_single_wrong(self):
        assert evaluate(_StubModel([-1.0]), [(None, 1)]) == 0.0

    def test_coin_flip_near_half(self):
        rng = np.random.default_rng(81)
        logits = rng.normal(size=2000)
        samples = [(None, i % 2) for i in range(2000)]
        acc = evaluate(_StubModel(logits), samples)
        assert abs(acc - 0.5) < 0.05

    def test_empty_error(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(_StubModel([0.0]), [])


class TestEncodeInput:
    def test_kinds_and_shapes(self):
        rng = np.random.default_rng(82)
        img = rng.uniform(0, 1, (24, 24, 3))
        for name in ("rvcnn-rgb", "rvcnn-hsv"):
            out = encode_input(config_from_name(name, 24), img)
            assert isinstance(out, np.ndarray) and out.shape == (3, 24, 24)
        for name in ("qvcnn-rgb", "qvcnn-hsv"):
            out = encode_input(config_from_name(name, 24), img)
            assert isinstance(out, QTensor) and out.shape == (1, 24, 24)

    def test_hsv_encodings_differ_from_rgb(self):
        rng = np.random.default_rng(83)
        img = rng.uniform(0.1, 0.9, (24, 24, 3))
        rgb = encode_input(config_from_name("qvcnn-rgb", 24), img)
        hsv = encode_input(config_from_name("qvcnn-hsv", 24), img)
        assert not np.allclose(rgb.data, hsv.data)


class TestAugmentationLeakage:
    def test_train_side_only_and_x4(self, tmp_path):
        data = make_fixture_dir(tmp_path, n=8)
        man = load_manifest(data)
        decoded = load_decoded_images(man, 24)
        train_ids, test_ids = split(man, 0.25, seed=0)
        config = config_from_name("rvcnn-rgb", 24)
        train_samples, train_inputs, test_inputs = build_run_inputs(
            config, decoded, train_ids, test_ids, augment=True
        )
        assert len(train_samples) == 4 * len(train_ids)
        assert {s.source_id for s in train_samples} == set(train_ids)
        assert not {s.source_id for s in train_samples} & set(test_ids)
        assert len(test_inputs) == len(test_ids)

    def test_no_augment(self, tmp_path):
        data = make_fixture_dir(tmp_path, n=8)
        man = load_manifest(data)
        decoded = load_decoded_images(man, 24)
        train_ids, test_ids = split(man, 0.25, seed=0)
        config = config_from_name("qvcnn-rgb", 24)
        train_samples, _, _ = build_run_inputs(
            config, decoded, train_ids, test_ids, augment=False
        )
        assert len(train_samples) == len(train_ids)


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
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload == [{
            "config": "qvcnn-rgb", "fraction": 0.2, "n": 2,
            "mean": stats[0].mean, "std": stats[0].std,
            "q25": stats[0].q25, "q75": stats[0].q75,
        }]

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


def smoke_plan(**overrides):
    defaults = dict(configs=("qvcnn-rgb",), fractions=(0.25,), runs=2, epochs=2,
                    base_seed=3, input_size=24, augment=False)
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


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

    def test_seed_column_matches_derivation(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        report = run_experiment(smoke_plan(), man, tmp_path / "out", log=lambda *_: None)
        for r in report.results:
            assert r.seed == derive_seed(3, r.config, r.fraction, r.run)

    def test_run_single_matches_sweep_row(self, tmp_path):
        man = load_manifest(make_fixture_dir(tmp_path, n=8))
        plan = smoke_plan()
        report = run_experiment(plan, man, tmp_path / "out", log=lambda *_: None)
        alone = run_single("qvcnn-rgb", man, 0.25, 0, plan)
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
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][:10]
        (out / "runs.csv").write_text(torn, encoding="utf-8")
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
    def test_count_params_golden(self, capsys):
        assert cli.main(["count-params"]) == 0
        out = capsys.readouterr().out
        for token in ("896", "18,496", "73,856", "12,801", "106,049",
                      "320", "4,672", "18,560", "36,353"):
            assert token in out

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
        assert (out_dir / "model.bin").exists()
        assert (out_dir / "metrics.csv").exists()
        result = json.loads((out_dir / "result.json").read_text())
        assert result["config"] == "qvcnn-rgb"
        assert 0.0 <= result["test_accuracy"] <= 1.0

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
        assert (out_dir / "summary.json").exists()

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

    def test_missing_data(self, monkeypatch):
        monkeypatch.delenv("QUATCNN_DATA", raising=False)
        with pytest.raises(SystemExit, match="QUATCNN_DATA"):
            cli.main(["train", "--config", "rvcnn-rgb", "--out", "/tmp/x"])

    def test_gradcheck_cli(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out
