"""Experiment harness: dataset manifests, stratified repeated splits,
the sweep over model/encoding configurations, and report emission.

A sweep cell is one (config, test fraction); each of its runs derives a
seed from a stable hash of (base seed, config, fraction, run), so
adding configurations or fractions never perturbs existing runs.
Results stream to ``runs.csv`` as they finish, and an interrupted sweep
resumes by skipping the (config, fraction, run) keys already present.
Wall-clock time is tracked per run but kept out of runs.csv so repeated
sweeps reproduce the file byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import encoding
from .encoding import LabeledSample, augment_flips, load_image, resize
from .layers import ModelConfig, atomic_write, config_from_name, trace_shapes, CONFIG_NAMES
from .quat import QTensor
from .train import train_model

__all__ = [
    "ManifestEntry",
    "DatasetManifest",
    "load_manifest",
    "split",
    "ExperimentPlan",
    "RunResult",
    "AggregateStats",
    "derive_seed",
    "encode_input",
    "evaluate",
    "load_decoded_images",
    "build_run_inputs",
    "run_single",
    "ExperimentReport",
    "run_experiment",
    "aggregate",
    "emit_report",
    "read_runs_csv",
    "generate_synthetic_dataset",
]

IMAGE_EXTENSIONS = (".ppm", ".pnm", ".tif", ".tiff", ".png", ".jpg", ".jpeg", ".bmp")


# ---------------------------------------------------------------------------
# manifests


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    label: int
    id: str


@dataclass(frozen=True)
class DatasetManifest:
    root: Path
    entries: tuple[ManifestEntry, ...]
    checksum: str


def _finish_manifest(root: Path, entries: list[ManifestEntry]) -> DatasetManifest:
    if not entries:
        raise ValueError(f"{root}: no labeled images found")
    labels = {e.label for e in entries}
    if labels != {0, 1}:
        raise ValueError(
            f"{root}: dataset must contain both classes, found labels {sorted(labels)}"
        )
    paths: dict[str, Path] = {}
    for e in entries:
        if e.id in paths:
            raise ValueError(
                f"{root}: duplicate sample id {e.id!r} for {paths[e.id]} and {e.path}"
            )
        paths[e.id] = e.path
    listing = "\n".join(f"{e.path.name},{e.label}" for e in entries)
    checksum = hashlib.sha256(listing.encode("utf-8")).hexdigest()
    return DatasetManifest(root=root, entries=tuple(entries), checksum=checksum)


def load_manifest(root, mode: str = "filename") -> DatasetManifest:
    """Build a manifest from a dataset directory.

    ``filename`` mode parses a trailing ``_0``/``_1`` before the file
    extension as the label (the ALL-IDB2 naming convention, e.g.
    Im001_1.tif). ``csv`` mode reads ``manifest.csv`` with header
    ``path,label`` and paths relative to the root.
    """
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"dataset root {root} does not exist")
    entries: list[ManifestEntry] = []
    if mode == "filename":
        for path in sorted(root.iterdir()):
            if path.suffix.lower() not in IMAGE_EXTENSIONS or not path.is_file():
                continue
            stem = path.stem
            if len(stem) < 2 or stem[-2] != "_" or stem[-1] not in "01":
                raise ValueError(
                    f"{path.name}: cannot parse label; expected a trailing _0 or _1 "
                    "before the extension"
                )
            entries.append(ManifestEntry(path=path, label=int(stem[-1]), id=stem))
    elif mode == "csv":
        csv_path = root / "manifest.csv"
        if not csv_path.is_file():
            raise ValueError(f"{csv_path} not found")
        with open(csv_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["path", "label"]:
                raise ValueError(f"{csv_path}:1: expected header 'path,label'")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 2:
                    raise ValueError(f"{csv_path}:{lineno}: expected 2 columns")
                rel, label_text = row
                if label_text not in ("0", "1"):
                    raise ValueError(
                        f"{csv_path}:{lineno}: label must be 0 or 1, got {label_text!r}"
                    )
                path = root / rel
                if not path.is_file():
                    raise ValueError(f"{csv_path}:{lineno}: {path} does not exist")
                entries.append(
                    ManifestEntry(path=path, label=int(label_text), id=Path(rel).stem)
                )
    else:
        raise ValueError(f"unknown manifest mode {mode!r}")
    return _finish_manifest(root, entries)


def split(manifest: DatasetManifest, test_fraction: float, seed: int,
          stratify: bool = True) -> tuple[list[str], list[str]]:
    """Random train/test partition, stratified per class by default.

    Returns (train ids, test ids); disjoint, union covers the dataset,
    deterministic per seed. Per-class test counts are round(fraction *
    class size), so they differ from the exact fraction by at most one.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    ids = [e.id for e in manifest.entries]
    train: list[str] = []
    test: list[str] = []
    if stratify:
        for label in (0, 1):
            members = [e.id for e in manifest.entries if e.label == label]
            order = rng.permutation(len(members))
            n_test = round(test_fraction * len(members))
            test.extend(members[i] for i in order[:n_test])
            train.extend(members[i] for i in order[n_test:])
    else:
        order = rng.permutation(len(ids))
        n_test = round(test_fraction * len(ids))
        test.extend(ids[i] for i in order[:n_test])
        train.extend(ids[i] for i in order[n_test:])
    if not train or not test:
        raise ValueError(
            f"test fraction {test_fraction} leaves an empty side "
            f"({len(train)} train / {len(test)} test)"
        )
    return train, test


# ---------------------------------------------------------------------------
# plans, runs, and derived seeds


@dataclass(frozen=True)
class ExperimentPlan:
    configs: tuple[str, ...] = CONFIG_NAMES
    fractions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    runs: int = 100
    epochs: int = 100
    base_seed: int = 0
    batch_size: int = 16
    input_size: int = 100
    augment: bool = True
    stratify: bool = True
    jobs: int = 1

    def __post_init__(self):
        for name in self.configs:
            if name not in CONFIG_NAMES:
                raise ValueError(f"unknown config {name!r}")
            trace_shapes(config_from_name(name, self.input_size))
        for f in self.fractions:
            if not 0.0 < f < 1.0:
                raise ValueError(f"test fractions must be in (0, 1), got {f}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass(frozen=True)
class RunResult:
    config: str
    fraction: float
    run: int
    seed: int
    test_accuracy: float
    train_accuracy: float
    wall_time: float = 0.0

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.config, repr(self.fraction), self.run)


@dataclass(frozen=True)
class AggregateStats:
    config: str
    fraction: float
    n: int
    mean: float
    std: float
    q25: float
    q75: float


def derive_seed(base_seed: int, config: str, fraction: float, run: int) -> int:
    """Stable 63-bit seed from the run coordinates; independent of plan
    composition, so extending a sweep never changes existing seeds."""
    text = f"{base_seed}|{config}|{fraction!r}|{run}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


# ---------------------------------------------------------------------------
# one run: split, augment the training side, encode, train, evaluate


def encode_input(config: ModelConfig, image: np.ndarray, dtype=np.float32):
    """Turn a unit-interval RGB image into the input the config expects."""
    if config.encoding == "hsv":
        image = encoding.rgb_to_hsv(image)
        if config.arithmetic == "quaternion":
            return encoding.encode_hsv_quaternion(image, dtype=dtype)
        return encoding.concat_channels(image, dtype=dtype)
    if config.arithmetic == "quaternion":
        return encoding.encode_rgb_quaternion(image, dtype=dtype)
    return encoding.concat_channels(image, dtype=dtype)


def evaluate(model, samples) -> float:
    """Fraction of samples whose sign-thresholded logit matches the label."""
    samples = list(samples)
    if not samples:
        raise ValueError("cannot evaluate on an empty sample set")
    correct = 0
    for x, label in samples:
        correct += int((model.forward(x) > 0) == (label == 1))
    return correct / len(samples)


def load_decoded_images(manifest: DatasetManifest, input_size: int) -> dict[str, LabeledSample]:
    """Decode and resize every manifest entry once, keyed by sample id."""
    decoded = {}
    for entry in manifest.entries:
        img = resize(load_image(entry.path), (input_size, input_size))
        decoded[entry.id] = LabeledSample(img, entry.label, entry.id)
    return decoded


def build_run_inputs(config: ModelConfig, decoded: dict[str, LabeledSample],
                     train_ids, test_ids, augment: bool = True):
    """Prepare encoded inputs for one run.

    Augmentation happens here, strictly after the split and only on the
    training side, so no flipped variant of a test image can leak into
    training. Returns (train samples with source ids, encoded train
    pairs, encoded test pairs).
    """
    train_samples: list[LabeledSample] = []
    for sid in train_ids:
        if augment:
            train_samples.extend(augment_flips(decoded[sid]))
        else:
            train_samples.append(decoded[sid])
    train_inputs = [
        (encode_input(config, s.image), s.label) for s in train_samples
    ]
    test_inputs = [
        (encode_input(config, decoded[sid].image), decoded[sid].label)
        for sid in test_ids
    ]
    return train_samples, train_inputs, test_inputs


def run_single(config_name: str, manifest: DatasetManifest, fraction: float,
               run: int, plan: ExperimentPlan,
               decoded: dict[str, LabeledSample] | None = None) -> RunResult:
    """Execute one (config, fraction, run) cell of a plan."""
    started = time.perf_counter()
    seed = derive_seed(plan.base_seed, config_name, fraction, run)
    config = config_from_name(config_name, plan.input_size)
    if decoded is None:
        decoded = load_decoded_images(manifest, plan.input_size)

    train_ids, test_ids = split(manifest, fraction, seed, stratify=plan.stratify)
    _, train_inputs, test_inputs = build_run_inputs(
        config, decoded, train_ids, test_ids, augment=plan.augment
    )

    model, metrics = train_model(
        config, train_inputs, epochs=plan.epochs,
        batch_size=plan.batch_size, seed=seed,
    )
    test_acc = evaluate(model, test_inputs)
    train_acc = metrics[-1].train_acc if metrics else float("nan")
    return RunResult(
        config=config_name, fraction=fraction, run=run, seed=seed,
        test_accuracy=test_acc, train_accuracy=train_acc,
        wall_time=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# the sweep


@dataclass(frozen=True)
class ExperimentReport:
    results: tuple[RunResult, ...]
    stats: tuple[AggregateStats, ...]
    n_executed: int
    n_skipped: int


_RUNS_HEADER = ["config", "fraction", "run", "seed", "test_accuracy", "train_accuracy"]

# worker-process dataset cache, filled once per worker by _pool_init
_POOL_STATE: dict = {}


def _pool_init(manifest: DatasetManifest, plan: ExperimentPlan):
    _POOL_STATE["manifest"] = manifest
    _POOL_STATE["plan"] = plan
    _POOL_STATE["decoded"] = load_decoded_images(manifest, plan.input_size)


def _pool_run(task: tuple[str, float, int]) -> RunResult:
    config_name, fraction, run = task
    return run_single(config_name, _POOL_STATE["manifest"], fraction, run,
                      _POOL_STATE["plan"], _POOL_STATE["decoded"])


def read_runs_csv(path) -> list[RunResult]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != _RUNS_HEADER:
        raise ValueError(f"{path}: unexpected header {rows[0] if rows else None}")
    results = []
    for i, row in enumerate(rows[1:], start=2):
        try:
            results.append(RunResult(
                config=row[0], fraction=float(row[1]), run=int(row[2]),
                seed=int(row[3]), test_accuracy=float(row[4]),
                train_accuracy=float(row[5]),
            ))
        except (IndexError, ValueError) as exc:
            if i == len(rows):
                break  # torn final row from an interrupted sweep; redo that run
            raise ValueError(f"{path}:{i}: malformed row {row}") from exc
    return results


def _result_row(r: RunResult) -> list[str]:
    return [r.config, repr(r.fraction), str(r.run), str(r.seed),
            repr(r.test_accuracy), repr(r.train_accuracy)]


def run_experiment(plan: ExperimentPlan, manifest: DatasetManifest,
                   out_dir, log=print) -> ExperimentReport:
    """Run every (config, fraction, run) cell of the plan.

    Completed runs are appended to ``<out_dir>/runs.csv`` immediately,
    so an interrupted sweep resumes where it stopped; keys already in
    the file are skipped. When ``plan.jobs`` > 1 runs execute in worker
    processes (each loads the dataset once); all writes stay in this
    process. Finishes by re-emitting the canonical, sorted report.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs_path = out_dir / "runs.csv"

    done: dict[tuple, RunResult] = {}
    if runs_path.exists():
        for prior in read_runs_csv(runs_path):
            done[prior.key] = prior

    tasks = []
    for config_name in plan.configs:
        for fraction in plan.fractions:
            for run in range(plan.runs):
                if (config_name, repr(fraction), run) not in done:
                    tasks.append((config_name, fraction, run))
    n_skipped = len(done)

    results: dict[tuple, RunResult] = dict(done)
    append_header = not runs_path.exists()
    with open(runs_path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if append_header:
            writer.writerow(_RUNS_HEADER)
            fh.flush()

        def record(result: RunResult):
            results[result.key] = result
            writer.writerow(_result_row(result))
            fh.flush()
            log(
                f"[{result.config} f={result.fraction} run={result.run}] "
                f"test_acc={result.test_accuracy:.4f} "
                f"({result.wall_time:.1f}s)"
            )

        if tasks and plan.jobs > 1:
            with ProcessPoolExecutor(
                max_workers=plan.jobs, initializer=_pool_init,
                initargs=(manifest, plan),
            ) as pool:
                futures = [pool.submit(_pool_run, t) for t in tasks]
                for fut in as_completed(futures):
                    record(fut.result())
        elif tasks:
            decoded = load_decoded_images(manifest, plan.input_size)
            for config_name, fraction, run in tasks:
                record(run_single(config_name, manifest, fraction, run, plan, decoded))

    ordered = tuple(sorted(results.values(), key=lambda r: (r.config, r.fraction, r.run)))
    stats = aggregate(ordered)
    emit_report(ordered, stats, out_dir)
    return ExperimentReport(
        results=ordered, stats=stats, n_executed=len(tasks), n_skipped=n_skipped
    )


def aggregate(results) -> tuple[AggregateStats, ...]:
    """Per (config, fraction): mean, population std, and the 25%/75%
    quantiles (linear interpolation) of test accuracy."""
    cells: dict[tuple[str, float], list[float]] = {}
    for r in results:
        cells.setdefault((r.config, r.fraction), []).append(r.test_accuracy)
    stats = []
    for (config, fraction), values in sorted(cells.items()):
        arr = np.array(values, dtype=np.float64)
        stats.append(AggregateStats(
            config=config, fraction=fraction, n=arr.size,
            mean=float(arr.mean()), std=float(arr.std()),
            q25=float(np.quantile(arr, 0.25)), q75=float(np.quantile(arr, 0.75)),
        ))
    return tuple(stats)


def _atomic_write(path: Path, text: str):
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


def emit_report(results, stats, out_dir) -> None:
    """Write runs.csv, stats.csv, and summary.json (a JSON mirror of
    stats.csv) atomically, overwriting previous reports."""
    results = list(results)
    if not results:
        raise ValueError("no results to report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    lines = [",".join(_RUNS_HEADER)]
    lines += [",".join(_result_row(r)) for r in results]
    _atomic_write(out_dir / "runs.csv", "\n".join(lines) + "\n")

    header = ["config", "fraction", "n", "mean", "std", "q25", "q75"]
    lines = [",".join(header)]
    for s in stats:
        lines.append(",".join([
            s.config, repr(s.fraction), str(s.n), repr(s.mean), repr(s.std),
            repr(s.q25), repr(s.q75),
        ]))
    _atomic_write(out_dir / "stats.csv", "\n".join(lines) + "\n")

    payload = [
        {"config": s.config, "fraction": s.fraction, "n": s.n, "mean": s.mean,
         "std": s.std, "q25": s.q25, "q75": s.q75}
        for s in stats
    ]
    _atomic_write(out_dir / "summary.json",
                  json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# synthetic fixtures: stained-cell lookalikes for CI and demos


def _hsv_pixel_to_rgb(h_deg: float, s: float, v: float) -> np.ndarray:
    h = (h_deg % 360.0) / 60.0
    c = v * s
    x = c * (1.0 - abs(h % 2.0 - 1.0))
    sector = [(c, x, 0), (x, c, 0), (0, c, x), (0, x, c), (x, 0, c), (c, 0, x)]
    r, g, b = sector[int(h) % 6]
    return np.array([r, g, b]) + (v - c)


def generate_synthetic_dataset(
    out_dir, n: int = 260, size: int = 100, seed: int = 0,
    healthy_hue: float = 330.0, blast_hue: float = 270.0,
    hue_jitter: float = 10.0, saturation: tuple[float, float] = (0.45, 0.7),
    value: tuple[float, float] = (0.65, 0.85), noise: float = 0.02,
) -> list[Path]:
    """Write n balanced PPM images of one stained-cell-like ellipse on a
    pale background, labels encoded in the filename (Im001_1.ppm).

    Class 0 ellipses take hues around ``healthy_hue`` (pinkish red by
    default), class 1 around ``blast_hue`` (bluish purple). Setting
    ``value`` to a degenerate range like (0.8, 0.8) yields the
    hue-separable-at-fixed-value task. A light mottled texture and
    pixel noise keep the task from being a single-pixel lookup.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    paths = []
    for i in range(n):
        label = i % 2
        hue = (blast_hue if label else healthy_hue) + rng.uniform(-hue_jitter, hue_jitter)
        sat = rng.uniform(*saturation)
        val = rng.uniform(*value)
        cell_rgb = _hsv_pixel_to_rgb(hue, sat, val)

        # pale background with a slight warm tint, like a smear slide
        img = np.empty((size, size, 3))
        img[...] = np.array([0.93, 0.88, 0.90]) + rng.uniform(-0.02, 0.02, 3)

        cy, cx = rng.uniform(0.35, 0.65, 2) * size
        ry, rx = rng.uniform(0.18, 0.30, 2) * size
        theta = rng.uniform(0.0, np.pi)
        ct, st = np.cos(theta), np.sin(theta)
        u = (xx - cx) * ct + (yy - cy) * st
        w = -(xx - cx) * st + (yy - cy) * ct
        mask = (u / rx) ** 2 + (w / ry) ** 2 <= 1.0

        texture = 1.0 + 0.08 * np.sin(2 * np.pi * (xx + yy) / rng.uniform(6, 14))
        for ch in range(3):
            img[..., ch] = np.where(mask, cell_rgb[ch] * texture, img[..., ch])
        img += rng.normal(0.0, noise, img.shape)
        np.clip(img, 0.0, 1.0, out=img)

        path = out_dir / f"Im{i + 1:03d}_{label}.ppm"
        encoding.write_ppm(path, img)
        paths.append(path)
    return paths
