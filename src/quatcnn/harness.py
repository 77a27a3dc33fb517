"""Experiment harness: dataset manifests, stratified repeated splits,
the sweep over model/encoding configurations, and report emission.

Images are decoded once per sweep, workers included; a run encodes each
side of its split in one call and flips the encoded training array x4.

A sweep cell is one (config, test fraction); each of its runs derives a
seed from a stable hash of (base seed, config, fraction, run), so
adding configurations or fractions never perturbs existing runs.
Results stream to ``runs.csv`` as they finish, and an interrupted sweep
resumes by skipping the (config, fraction, run) keys already present.
Wall-clock time is tracked per run but kept out of runs.csv so repeated
sweeps reproduce the file byte for byte. A resume under another plan or
``RESULTS_VERSION`` than the directory's ``plan.json`` records is
refused.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import encoding
from .encoding import resize  # also by name: perfbench's tests read harness.resize
from .layers import (
    CONFIG_NAMES, ModelConfig, atomic_write, chunk_size, config_from_name, trace_shapes,
)
from .train import Samples, train_model

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


def load_manifest(root) -> DatasetManifest:
    """Build a manifest from a dataset directory, labelling each image by
    a trailing ``_0``/``_1`` before the file extension (the ALL-IDB2
    naming convention, e.g. Im001_1.tif)."""
    root = Path(root)
    if not root.is_dir():
        reason = "is not a directory" if root.exists() else "does not exist"
        raise ValueError(f"dataset root {root} {reason}")
    entries: list[ManifestEntry] = []
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


def split(manifest: DatasetManifest, test_fraction: float, seed: int,
          stratify: bool = True) -> tuple[list[str], list[str]]:
    """Random train/test partition, stratified per class by default.

    Returns (train ids, test ids); disjoint, union covers the dataset,
    deterministic per seed. Each class (without ``stratify``, the whole
    set) is permuted and cut at round(fraction * size), so per-class test
    counts differ from the exact fraction by at most one.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    groups = ([[e.id for e in manifest.entries if e.label == label] for label in (0, 1)]
              if stratify else [[e.id for e in manifest.entries]])
    train: list[str] = []
    test: list[str] = []
    for members in groups:
        order = rng.permutation(len(members))
        n_test = round(test_fraction * len(members))
        test.extend(members[i] for i in order[:n_test])
        train.extend(members[i] for i in order[n_test:])
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
        for field in ("configs", "fractions"):
            if not getattr(self, field):
                raise ValueError(f"{field} must not be empty")
        for name in self.configs:
            trace_shapes(config_from_name(name, self.input_size))
        for f in self.fractions:
            if not 0.0 < f < 1.0:
                raise ValueError(f"test fractions must be in (0, 1), got {f}")
        # a cell is keyed by (config, repr(fraction), run), so a repeat would
        # train the same cell again
        for field, keys in (("config", list(self.configs)),
                            ("fraction", [repr(f) for f in self.fractions])):
            repeated = sorted({key for key in keys if keys.count(key) > 1})
            if repeated:
                raise ValueError(f"duplicate {field} in the plan: {', '.join(repeated)}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


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


def encode_input(config: ModelConfig, image: np.ndarray):
    """Turn a unit-interval RGB (H, W, 3) image or (N, H, W, 3) stack into
    the float32 input the config expects; a stack gives ``Samples.x``."""
    if config.encoding not in ("rgb", "hsv"):
        raise ValueError(f"encoding must be 'rgb' or 'hsv', got {config.encoding!r}")
    if config.encoding == "hsv":
        image = encoding.rgb_to_hsv(image)
        if config.arithmetic == "quaternion":
            return encoding.encode_hsv_quaternion(image, dtype=np.float32)
        return encoding.concat_channels(image, dtype=np.float32)
    if config.arithmetic == "quaternion":
        return encoding.encode_rgb_quaternion(image, dtype=np.float32)
    return encoding.concat_channels(encoding._check_rgb(image), dtype=np.float32)


def evaluate(model, samples: Samples) -> float:
    """Fraction of samples whose sign-thresholded logit matches the label.
    Forward passes run in chunks of ``chunk_size(model.config, n)``. A
    non-finite logit raises ValueError naming the config and the first
    sample that gave one."""
    n = len(samples)
    if not n:
        raise ValueError("cannot evaluate on an empty sample set")
    chunk = chunk_size(model.config, n)
    correct = 0
    for lo in range(0, n, chunk):
        # a view: Model.forward makes the chunk's one copy
        logits = model.forward(samples.x[..., lo:lo + chunk, :, :])
        bad = np.flatnonzero(~np.isfinite(logits))
        if bad.size:
            raise ValueError(f"{model.config.name}: non-finite logit {logits[bad[0]]} "
                             f"for sample {lo + bad[0]}")
        correct += int(np.count_nonzero((logits > 0) == (samples.y[lo:lo + chunk] == 1)))
    return correct / n


Decoded = dict[str, tuple[np.ndarray, int]]


def load_decoded_images(manifest: DatasetManifest, input_size: int) -> Decoded:
    """Decode and resize every manifest entry once: sample id -> (float64
    (H, W, 3) image, label)."""
    return {entry.id: (resize(encoding.load_image(entry.path), (input_size, input_size)),
                       entry.label)
            for entry in manifest.entries}


def build_run_inputs(config: ModelConfig, decoded: Decoded,
                     train_ids, test_ids, augment: bool = True):
    """Prepare encoded inputs for one run, each side of the split in one call.

    Augmentation happens here, strictly after the split and only on the
    training side, so no flipped variant of a test image can leak into
    training. Returns (the source id of each training sample, encoded
    train ``Samples``, encoded test ``Samples``).
    """
    def encoded(ids):
        images, labels = zip(*(decoded[sid] for sid in ids))
        return encode_input(config, np.stack(images)), np.array(labels)

    train_x, train_y = encoded(train_ids)
    sources = list(train_ids)
    if augment:
        train_x, train_y = encoding.augment_flips(train_x), np.repeat(train_y, 4)
        sources = np.repeat(sources, 4).tolist()
    return sources, Samples(train_x, train_y), Samples(*encoded(test_ids))


def _prepare_run(config_name: str, manifest: DatasetManifest, fraction: float,
                 run: int, plan: ExperimentPlan, decoded: Decoded):
    """Seed, config and encoded (train, test) inputs of one plan cell."""
    seed = derive_seed(plan.base_seed, config_name, fraction, run)
    config = config_from_name(config_name, plan.input_size)
    train_ids, test_ids = split(manifest, fraction, seed, stratify=plan.stratify)
    _, train_inputs, test_inputs = build_run_inputs(config, decoded, train_ids, test_ids,
                                                    augment=plan.augment)
    return seed, config, train_inputs, test_inputs


def run_single(config_name: str, manifest: DatasetManifest, fraction: float,
               run: int, plan: ExperimentPlan, decoded: Decoded) -> RunResult:
    """Execute one (config, fraction, run) cell of a plan on ``decoded``."""
    started = time.perf_counter()
    seed, config, train_inputs, test_inputs = _prepare_run(
        config_name, manifest, fraction, run, plan, decoded
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


_RUNS_HEADER = "config,fraction,run,seed,test_accuracy,train_accuracy\n"

# a worker's manifest, plan and decoded images, set once by _pool_init
_POOL_STATE: dict = {}


def _pool_init(manifest: DatasetManifest, plan: ExperimentPlan, decoded: Decoded):
    _POOL_STATE.update(manifest=manifest, plan=plan, decoded=decoded)


def _pool_run(task: tuple[str, float, int]) -> RunResult:
    config_name, fraction, run = task
    return run_single(config_name, _POOL_STATE["manifest"], fraction, run,
                      _POOL_STATE["plan"], _POOL_STATE["decoded"])


# One BLAS thread per pool worker, so that N workers keep N cores busy.
# BLAS reads these when numpy is imported, which is why the workers are
# spawned (a forked worker inherits the parent's already-started BLAS).
_WORKER_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}


@contextmanager
def _worker_pool(manifest: DatasetManifest, plan: ExperimentPlan, decoded: Decoded):
    """A pool of ``plan.jobs`` spawned worker processes, each running one
    BLAS thread and holding a copy of ``decoded``. The workers start with
    ``_WORKER_BLAS_ENV`` in their environment; this process's
    ``os.environ`` is restored when the pool closes. If the block raises,
    the runs not yet started are cancelled, so the error reaches the
    caller once the running ones end."""
    saved = dict(os.environ)
    os.environ.update(_WORKER_BLAS_ENV)
    try:
        with ProcessPoolExecutor(
            max_workers=plan.jobs, mp_context=multiprocessing.get_context("spawn"),
            initializer=_pool_init, initargs=(manifest, plan, decoded),
        ) as pool:
            try:
                yield pool
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    finally:
        os.environ.clear()
        os.environ.update(saved)


def read_runs_csv(path) -> list[RunResult]:
    """Parse runs.csv (LF or CRLF lines). A final line without its newline
    was torn by an interrupted sweep; it is dropped so its run is redone."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    lines.pop()  # "" after the final newline, else the torn row
    if not lines or lines[0] + "\n" != _RUNS_HEADER:
        raise ValueError(f"{path}: unexpected header {lines[0] if lines else None!r}")
    results = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            config, fraction, run, seed, test_acc, train_acc = line.split(",")
            results.append(RunResult(
                config=config, fraction=float(fraction), run=int(run),
                seed=int(seed), test_accuracy=float(test_acc),
                train_accuracy=float(train_acc),
            ))
        except ValueError as exc:
            raise ValueError(f"{path}:{i}: malformed row {line!r}") from exc
    return results


def _runs_line(r: RunResult) -> str:
    return ",".join([r.config, repr(r.fraction), str(r.run), str(r.seed),
                     repr(r.test_accuracy), repr(r.train_accuracy)]) + "\n"


def _write_runs_csv(path: Path, results) -> None:
    text = _RUNS_HEADER + "".join(_runs_line(r) for r in results)
    atomic_write(path, text.encode("utf-8"))


# the plan fields that change what a run computes; runs, configs,
# fractions and jobs only choose which runs exist and where they execute
_PLAN_FIELDS = ("epochs", "base_seed", "batch_size", "input_size", "augment", "stratify")


def _check_plan(plan: ExperimentPlan, manifest: DatasetManifest, out_dir: Path) -> None:
    """Raise if the runs in ``out_dir`` were computed under another plan or
    another ``RESULTS_VERSION``; else write the plan to
    ``<out_dir>/plan.json`` through ``atomic_write``. A ``plan.json``
    without the version predates it, so it reads as version 1, and so do
    the runs of a ``runs.csv`` without any ``plan.json``: such a directory
    is refused."""
    from . import RESULTS_VERSION  # the package attribute, read at call time

    current = {name: getattr(plan, name) for name in _PLAN_FIELDS}
    current["checksum"] = manifest.checksum
    current["results_version"] = RESULTS_VERSION
    path = out_dir / "plan.json"
    if path.exists():
        stored = {"results_version": 1} | json.loads(path.read_text(encoding="utf-8"))
    elif (out_dir / "runs.csv").exists():
        raise ValueError(f"{out_dir} holds runs.csv but no plan.json, so its runs predate "
                         f"plan.json (results_version 1 -> {RESULTS_VERSION}); "
                         "use a new output directory")
    else:
        stored = current
    changed = [f"{k} {stored.get(k)!r} -> {v!r}" for k, v in current.items()
               if stored.get(k) != v]
    if changed:
        raise ValueError(f"{out_dir} holds runs of a different plan ({'; '.join(changed)}); "
                         "resume with the same plan or use a new output directory")
    atomic_write(path, (json.dumps(current, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def run_experiment(plan: ExperimentPlan, manifest: DatasetManifest,
                   out_dir, log=print) -> ExperimentReport:
    """Run every (config, fraction, run) cell of the plan.

    Completed runs are appended to ``<out_dir>/runs.csv`` immediately,
    so an interrupted sweep resumes where it stopped; keys already in
    the file are skipped. The images are decoded once, here; when
    ``plan.jobs`` > 1 runs execute in spawned worker processes, which
    receive them, with one BLAS thread each; all writes stay in this
    process. Spawned workers import the calling script's main module, so
    a script that calls this with ``jobs`` > 1 keeps its top-level code
    under ``if __name__ == "__main__":``. A directory written under other ``_PLAN_FIELDS``, another
    manifest or another ``RESULTS_VERSION`` raises ``ValueError`` before
    anything runs; more runs, configs or fractions, or other ``jobs``,
    resume. A fraction that leaves either side of the manifest's split
    empty raises ``ValueError`` before anything is written. Finishes by
    re-emitting the canonical, sorted report.
    """
    for fraction in plan.fractions:  # split's counts do not depend on the seed
        split(manifest, fraction, plan.base_seed, plan.stratify)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _check_plan(plan, manifest, out_dir)
    runs_path = out_dir / "runs.csv"

    done = {r.key: r for r in read_runs_csv(runs_path)} if runs_path.exists() else {}
    tasks = [(c, f, run) for c in plan.configs for f in plan.fractions
             for run in range(plan.runs) if (c, repr(f), run) not in done]
    n_skipped = len(done)

    # drops a torn final row and CRLF endings, so appends start on a clean line
    _write_runs_csv(runs_path, done.values())
    results: dict[tuple, RunResult] = dict(done)
    with open(runs_path, "a", newline="", encoding="utf-8") as fh:
        def record(result: RunResult):
            results[result.key] = result
            fh.write(_runs_line(result))
            fh.flush()
            log(
                f"[{result.config} f={result.fraction} run={result.run}] "
                f"test_acc={result.test_accuracy:.4f} "
                f"({result.wall_time:.1f}s)"
            )

        decoded = load_decoded_images(manifest, plan.input_size) if tasks else {}
        if tasks and plan.jobs > 1:
            with _worker_pool(manifest, plan, decoded) as pool:
                futures = [pool.submit(_pool_run, t) for t in tasks]
                for fut in as_completed(futures):
                    record(fut.result())
        else:
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


def emit_report(results, stats, out_dir) -> None:
    """Write runs.csv and stats.csv atomically, overwriting previous
    reports."""
    results = list(results)
    if not results:
        raise ValueError("no results to report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    _write_runs_csv(out_dir / "runs.csv", results)

    header = ["config", "fraction", "n", "mean", "std", "q25", "q75"]
    lines = [",".join(header)]
    for s in stats:
        lines.append(",".join([
            s.config, repr(s.fraction), str(s.n), repr(s.mean), repr(s.std),
            repr(s.q25), repr(s.q75),
        ]))
    atomic_write(out_dir / "stats.csv", ("\n".join(lines) + "\n").encode("utf-8"))


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
    pixel noise keep the task from being a single-pixel lookup. A
    ``size`` below 1, a negative ``n``, a negative or non-finite
    ``noise`` or ``hue_jitter``, a non-finite hue, or a ``saturation`` or
    ``value`` range other than 0 <= lo <= hi <= 1 raises ValueError
    before the directory is made; ``n = 0`` writes nothing.

    Each call allocates its work arrays (image, noise, ellipse
    coordinates, mask) once and refills them per image. The bytes of
    every file are pinned by ``TestSyntheticData::test_bytes_are_pinned``.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 <= noise < np.inf:
        raise ValueError(f"noise must be >= 0 and finite, got {noise}")
    for name, hue in (("healthy_hue", healthy_hue), ("blast_hue", blast_hue)):
        if not np.isfinite(hue):
            raise ValueError(f"{name} must be finite, got {hue}")
    if not 0.0 <= hue_jitter < np.inf:
        raise ValueError(f"hue_jitter must be >= 0 and finite, got {hue_jitter}")
    for name, (lo, hi) in (("saturation", saturation), ("value", value)):
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"{name} must be a range 0 <= lo <= hi <= 1, got ({lo}, {hi})")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    axis = np.arange(size, dtype=np.float64)
    # the texture depends on x + y alone, which takes 2 * size - 1 values
    diagonal = np.arange(2 * size - 1, dtype=np.float64)
    diagonal_of = np.arange(size)[:, None] + np.arange(size)
    img = np.empty((size, size, 3))
    grain = np.empty_like(img)
    u = np.empty((size, size))
    w = np.empty_like(u)
    mask = np.empty(u.shape, dtype=bool)
    paths = []
    for i in range(n):
        label = i % 2
        hue = (blast_hue if label else healthy_hue) + rng.uniform(-hue_jitter, hue_jitter)
        sat = rng.uniform(*saturation)
        val = rng.uniform(*value)
        cell_rgb = _hsv_pixel_to_rgb(hue, sat, val)

        # pale background with a slight warm tint, like a smear slide
        background = np.array([0.93, 0.88, 0.90]) + rng.uniform(-0.02, 0.02, 3)

        cy, cx = rng.uniform(0.35, 0.65, 2) * size
        ry, rx = rng.uniform(0.18, 0.30, 2) * size
        theta = rng.uniform(0.0, np.pi)
        ct, st = np.cos(theta), np.sin(theta)
        dx, dy = axis - cx, axis - cy
        np.add(dx * ct, (dy * st)[:, None], out=u)  # the ellipse's own axes
        np.subtract((dy * ct)[:, None], dx * st, out=w)
        u /= rx
        w /= ry
        np.square(u, out=u)
        np.square(w, out=w)
        u += w
        np.less_equal(u, 1.0, out=mask)

        texture = 1.0 + 0.08 * np.sin(2 * np.pi * diagonal / rng.uniform(6, 14))
        for ch in range(3):  # u is free once the mask is set
            plane = img[..., ch]
            plane[...] = background[ch]
            np.take(cell_rgb[ch] * texture, diagonal_of, out=u)
            np.copyto(plane, u, where=mask)
        # the draws of rng.normal(0.0, noise, img.shape), scaled in place
        rng.standard_normal(out=grain)
        grain *= noise
        img += grain
        np.clip(img, 0.0, 1.0, out=img)

        path = out_dir / f"Im{i + 1:03d}_{label}.ppm"
        encoding.write_ppm(path, img)
        paths.append(path)
    return paths
