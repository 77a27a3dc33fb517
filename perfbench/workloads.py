"""The benchmark's workloads: train-24, train-100 and sweep-100.

Every workload reports the same end-to-end metrics (see NOTES.md for what
each one means per workload). Loss and accuracy are averages over a fixed
set of ``quality_seeds`` model or plan seeds, which every run completes
however long it takes; later repetitions reuse those seeds and must
reproduce their results bit for bit. Throughputs are medians over every
repetition that fits in ``--seconds``, each scaled by the reference
kernel timed just before it (see reference.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import perlayer
from reference import NOMINAL_S, reference_seconds, scaled, scaled_seconds
from spans import Instrumentation, Patches, Tracer, arch_of

ARCHS = perlayer.ARCHS
TRAIN_CONFIGS = {"rvcnn": "rvcnn-rgb", "qvcnn": "qvcnn-rgb"}
SETUP_REPEATS = 3
clock = time.perf_counter


@dataclass(frozen=True)
class TrainSpec:
    """train_model on set-up-encoded inputs, then harness.evaluate."""

    size: int
    images: int  # fixture images, half per class; half of them held out
    epochs: int
    eval_passes: int  # passes over the held-out set per cell
    quality_seeds: int  # model seeds behind final_loss and accuracy
    batch_size: int = 16


@dataclass(frozen=True)
class SweepSpec:
    """``quatcnn sweep`` over all four configs at one test fraction."""

    size: int = 100
    raster: int = 257  # ALL-IDB2's image size; resized to ``size``
    images: int = 8
    epochs: int = 2
    batch_size: int = 1
    fraction: float = 0.5
    quality_seeds: int = 5  # (fixture set, plan seed) pairs behind loss and accuracy


WORKLOADS = {
    "train-24": TrainSpec(size=24, images=32, epochs=4, eval_passes=8, quality_seeds=16),
    "train-100": TrainSpec(size=100, images=16, epochs=1, eval_passes=2, quality_seeds=12),
    "sweep-100": SweepSpec(),
}


@dataclass
class Metric:
    value: float
    unit: str
    samples: list = field(default_factory=list)  # the values behind a median


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)  # name -> Metric
    extra: dict = field(default_factory=dict)  # name -> value, printed only
    info: list = field(default_factory=list)  # lines printed before the metrics
    spans: list = field(default_factory=list)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(setup, tally, repeats):
    """Run ``setup`` ``repeats`` times; returns (last result, durations
    scaled by the reference kernel, unscaled durations). Every repetition
    must give the same digest as the first."""
    result, durations, raw, digests = None, [], [], []
    for i in range(repeats):
        with tally.operation(f"set-up {i}") as op:
            reference_s = reference_seconds()
            t0 = clock()
            result = setup()
            raw.append(clock() - t0)
            durations.append(scaled_seconds(raw[-1], reference_s))
            digests.append(digest(result))
            op.check(digests[-1] == digests[0], "set-up is not deterministic")
    return result, durations, raw


def digest(value) -> str:
    """sha256 over arrays (QTensor planes included), labels and bytes."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, dict):
            for key in sorted(v):
                h.update(str(key).encode())
                feed(v[key])
        elif isinstance(v, (list, tuple)):
            for item in v:
                feed(item)
        elif isinstance(v, bytes):
            h.update(v)
        elif hasattr(v, "tobytes"):
            h.update(v.tobytes())
        elif hasattr(v, "data") and hasattr(v.data, "tobytes"):
            h.update(v.data.tobytes())
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


def repeat(step, seconds: float, minimum: int) -> list[float]:
    """Call ``step(i)`` for i = 0, 1, ... until ``seconds`` have passed and
    at least ``minimum`` calls are done; returns each call's duration."""
    durations = []
    start = clock()
    while len(durations) < minimum or clock() - start < seconds:
        t0 = clock()
        step(len(durations))
        durations.append(clock() - t0)
    return durations


def traced_repeat(q, tracer: Tracer, step, seconds: float):
    """``repeat`` that traces every second call, so that a drift in the
    machine's speed affects traced and untraced calls alike. Returns
    (untraced durations, traced durations)."""

    def alternate(i):
        if i % 2 == 0:
            return step(i)
        inst = Instrumentation(tracer, q)
        try:
            return step(i)
        finally:
            inst.close()

    durations = repeat(alternate, seconds, 2)
    return durations[0::2], durations[1::2]


# ---------------------------------------------------------------------------
# train-24 and train-100


@dataclass
class Cell:
    train_sps: float
    eval_sps: float
    loss: float
    accuracy: float
    seconds: float  # train plus evaluate wall time
    reference_s: float  # the reference kernel's time before this round


def train_inputs(q, spec: TrainSpec, seed: int, data_dir: Path):
    """Synthetic fixtures at the input size, decoded, split in half and
    encoded (with flip augmentation of the training half) per config."""
    if data_dir.exists():
        shutil.rmtree(data_dir)
    q.harness.generate_synthetic_dataset(data_dir, n=spec.images, size=spec.size, seed=seed)
    manifest = q.harness.load_manifest(data_dir)
    decoded = q.harness.load_decoded_images(manifest, spec.size)
    train_ids, test_ids = q.harness.split(manifest, 0.5, seed)
    inputs = {}
    for arch, name in TRAIN_CONFIGS.items():
        config = q.layers.config_from_name(name, spec.size)
        _, train, test = q.harness.build_run_inputs(config, decoded, train_ids, test_ids)
        inputs[arch] = (config, train, test)
    return inputs


def train_cell(q, spec: TrainSpec, inputs, model_seed: int, reference_s: float, op) -> Cell:
    config, train, test = inputs
    t0 = clock()
    model, history = q.train.train_model(config, train, epochs=spec.epochs,
                                         batch_size=spec.batch_size, seed=model_seed)
    t1 = clock()
    for _ in range(spec.eval_passes):
        accuracy = q.harness.evaluate(model, test)
    t2 = clock()
    op.check(len(history) == spec.epochs, f"{len(history)} epochs recorded")
    op.check(all(math.isfinite(h.loss) for h in history), "non-finite loss")
    return Cell(len(train) * spec.epochs / (t1 - t0),
                len(test) * spec.eval_passes / (t2 - t1),
                history[-1].loss, accuracy, t2 - t0, reference_s)


def train_round(q, spec: TrainSpec, inputs, seed: int, r: int, cells, tally):
    """Train and evaluate each architecture once with model seed
    r mod quality_seeds; ``cells`` maps arch -> {round: Cell}."""
    k = r % spec.quality_seeds
    reference_s = reference_seconds()
    for arch in ARCHS:
        with tally.operation(f"{arch} round {r}") as op:
            cell = train_cell(q, spec, inputs[arch], seed * 1000 + k, reference_s, op)
            if r >= spec.quality_seeds and k in cells[arch]:
                first = cells[arch][k]
                op.check((cell.loss, cell.accuracy) == (first.loss, first.accuracy),
                         f"seed repeat of round {k} gave another loss or accuracy")
            cells[arch][r] = cell


def run_train(q, spec: TrainSpec, seed, seconds, trace, work: Path, tally) -> Result:
    result = Result()
    setup = lambda: train_inputs(q, spec, seed, work / "fixtures")
    if not trace:
        inputs, setups, raw_setups = timed_setups(setup, tally, SETUP_REPEATS)
        cells = {arch: {} for arch in ARCHS}
        repeat(lambda r: train_round(q, spec, inputs, seed, r, cells, tally),
               seconds, spec.quality_seeds)
        metrics = result.metrics
        for arch in ARCHS:
            cs = list(cells[arch].values())
            quality = [cells[arch][r] for r in range(spec.quality_seeds) if r in cells[arch]]
            sps = [scaled(c.train_sps, c.reference_s) for c in cs]
            metrics[f"{arch}.train_samples_per_s"] = Metric(statistics.median(sps), "1/s", sps)
            eps = [scaled(c.eval_sps, c.reference_s) for c in cs]
            metrics[f"{arch}.eval_samples_per_s"] = Metric(statistics.median(eps), "1/s", eps)
            losses = [c.loss for c in quality]
            metrics[f"{arch}.final_loss"] = Metric(statistics.fmean(losses), "nat", losses)
        rounds = [[cells[a][r] for a in ARCHS if r in cells[a]] for r in cells[ARCHS[0]]]
        per_min = [scaled(60.0 * len(cs) / sum(c.seconds for c in cs), cs[0].reference_s)
                   for cs in rounds]
        metrics["sweep.runs_per_min"] = Metric(statistics.median(per_min), "1/min", per_min)
        references = [cs[0].reference_s for cs in rounds]
        accs = [cells[a][r].accuracy for a in ARCHS
                for r in range(spec.quality_seeds) if r in cells[a]]
        metrics["sweep.test_accuracy_mean"] = Metric(statistics.fmean(accs), "fraction", accs)
        metrics["setup_s"] = Metric(statistics.median(setups), "s", setups)
        metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MiB")
        for what in ("train", "eval"):
            rv = metrics[f"rvcnn.{what}_samples_per_s"].value
            qv = metrics[f"qvcnn.{what}_samples_per_s"].value
            result.info.append(
                f"info: qvcnn/rvcnn {what} time per sample = {rv / qv:.3f} "
                f"(base: rvcnn {1e3 / rv:.3f} ms/sample)")
        raw = {f"{a}.{w}": statistics.median(getattr(c, f"{w}_sps") for c in cells[a].values())
               for a in ARCHS for w in ("train", "eval")}
        raw["setup"] = statistics.median(raw_setups)
        reference_info(result, references, raw)
        return result

    tracer = Tracer()
    inst = Instrumentation(tracer, q)
    try:
        inputs, _, _ = timed_setups(setup, tally, 1)
    finally:
        inst.close()
    cells = {arch: {} for arch in ARCHS}
    plain, traced = traced_repeat(
        q, tracer, lambda r: train_round(q, spec, inputs, seed, r, cells, tally), seconds)
    configs = {arch: inputs[arch][0] for arch in ARCHS}
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    finish_trace(result, tracer, configs, overhead,
                 f"round (n={len(plain)} untraced, {len(traced)} traced)", tally)
    return result


# ---------------------------------------------------------------------------
# sweep-100


class SweepRecorder(Patches):
    """Times harness.train_model and harness.evaluate where run_single looks
    them up, and keeps run_experiment's report."""

    def __init__(self, harness):
        super().__init__()
        self.trains, self.evals, self.reports = [], [], []
        train_model, evaluate, run_experiment = (
            harness.train_model, harness.evaluate, harness.run_experiment)

        def timed_train(config, dataset, *args, **kwargs):
            t0 = clock()
            model, history = train_model(config, dataset, *args, **kwargs)
            self.trains.append((config.name, len(dataset) * len(history),
                                clock() - t0, [h.loss for h in history]))
            return model, history

        def timed_evaluate(model, samples):
            t0 = clock()
            accuracy = evaluate(model, samples)
            self.evals.append((arch_of(model.config), len(samples), clock() - t0))
            return accuracy

        def kept_report(*args, **kwargs):
            report = run_experiment(*args, **kwargs)
            self.reports.append(report)
            return report

        self.set(harness, "train_model", timed_train)
        self.set(harness, "evaluate", timed_evaluate)
        self.set(harness, "run_experiment", kept_report)


@dataclass
class Repetition:
    index: int
    reference_s: float  # the reference kernel's time before this repetition
    seconds: float
    cells: int
    accuracies: list
    trains: list
    evals: list


def sweep_rep(q, spec: SweepSpec, data_dir: Path, out_dir: Path, index: int,
              plan_seed: int, reference_s: float, op, first_csv: dict) -> Repetition:
    """One ``quatcnn sweep`` into a fresh ``out_dir``. ``first_csv`` maps a
    plan seed to the runs.csv of its first repetition."""
    argv = ["sweep", "--data", str(data_dir), "--configs", *q.layers.CONFIG_NAMES,
            "--fractions", repr(spec.fraction), "--runs", "1",
            "--epochs", str(spec.epochs), "--batch-size", str(spec.batch_size),
            "--input-size", str(spec.size), "--jobs", "1",
            "--seed", str(plan_seed), "--out", str(out_dir)]
    recorder = SweepRecorder(q.harness)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = clock()
            status = q.cli.main(argv)
            seconds = clock() - t0
    finally:
        recorder.close()
    planned = len(q.layers.CONFIG_NAMES)
    op.check(status == 0, f"sweep exited with {status}")
    op.check(len(recorder.reports) == 1, "sweep did not run one experiment")
    report = recorder.reports[0]
    op.check(report.n_executed == planned and report.n_skipped == 0,
             f"executed {report.n_executed} of {planned} runs, skipped {report.n_skipped}")
    op.check(all(math.isfinite(loss) for *_, losses in recorder.trains for loss in losses),
             "non-finite loss")
    runs_csv = (out_dir / "runs.csv").read_bytes()
    op.check(runs_csv == first_csv.setdefault(plan_seed, runs_csv),
             "runs.csv differs from the repetition with the same seed")
    return Repetition(index, reference_s, seconds, report.n_executed,
                      [r.test_accuracy for r in report.results],
                      recorder.trains, recorder.evals)


def sweep_step(q, spec: SweepSpec, data_dirs, work, seed, i, reps, first_csv, tally):
    """Repetition i sweeps fixture set i mod quality_seeds with the plan
    seed of the same index."""
    out_dir = work / f"sweep-{i}"
    reference_s = reference_seconds()
    with tally.operation(f"sweep repetition {i}") as op:
        k = i % spec.quality_seeds
        reps.append(sweep_rep(q, spec, data_dirs[k], out_dir, i, seed * 1000 + k,
                              reference_s, op, first_csv))
    shutil.rmtree(out_dir, ignore_errors=True)


def sweep_fixtures(q, spec: SweepSpec, seed: int, data_dirs) -> list[bytes]:
    """One fixture set of ``raster``-sized PPMs per quality seed; returns
    the bytes written."""
    written = []
    for k, data_dir in enumerate(data_dirs):
        if data_dir.exists():
            shutil.rmtree(data_dir)
        paths = q.harness.generate_synthetic_dataset(
            data_dir, n=spec.images, size=spec.raster, seed=seed * 1000 + k)
        written += [p.read_bytes() for p in paths]
    return written


def run_sweep(q, spec: SweepSpec, seed, seconds, trace, work: Path, tally) -> Result:
    result = Result()
    data_dirs = [work / f"fixtures-{k}" for k in range(spec.quality_seeds)]
    setup = lambda: sweep_fixtures(q, spec, seed, data_dirs)
    reps: list[Repetition] = []
    first_csv: dict = {}
    step = lambda i: sweep_step(q, spec, data_dirs, work, seed, i, reps, first_csv, tally)
    if not trace:
        _, setups, raw_setups = timed_setups(setup, tally, SETUP_REPEATS)
        repeat(step, seconds, spec.quality_seeds + 1)
        quality = [r for r in reps if r.index < spec.quality_seeds]
        metrics = result.metrics
        raw = {}
        for arch in ARCHS:
            sps = [(n / s, r.reference_s) for r in reps for c, n, s, _ in r.trains
                   if c.startswith(arch)]
            eps = [(n / s, r.reference_s) for r in reps for a, n, s in r.evals if a == arch]
            for what, pairs in (("train", sps), ("eval", eps)):
                raw[f"{arch}.{what}"] = statistics.median(v for v, _ in pairs)
                values = [scaled(v, ref) for v, ref in pairs]
                metrics[f"{arch}.{what}_samples_per_s"] = Metric(
                    statistics.median(values), "1/s", values)
            # the rgb config, as on train-*: qvcnn-hsv's loss nears zero on
            # some seeds, so its relative spread across seeds is unbounded
            losses = [ls[-1] for r in quality for c, _, _, ls in r.trains
                      if c == TRAIN_CONFIGS[arch]]
            metrics[f"{arch}.final_loss"] = Metric(statistics.fmean(losses), "nat", losses)
        per_min = [scaled(60.0 * r.cells / r.seconds, r.reference_s) for r in reps]
        metrics["sweep.runs_per_min"] = Metric(statistics.median(per_min), "1/min", per_min)
        accs = [a for r in quality for a in r.accuracies]
        metrics["sweep.test_accuracy_mean"] = Metric(statistics.fmean(accs), "fraction", accs)
        with tally.operation("sweep accuracy above chance") as op:
            op.check(statistics.fmean(accs) > 0.5,
                     f"mean test accuracy {statistics.fmean(accs):.3f} is not above chance")
        metrics["setup_s"] = Metric(statistics.median(setups), "s", setups)
        metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MiB")
        rv = metrics["rvcnn.train_samples_per_s"].value
        qv = metrics["qvcnn.train_samples_per_s"].value
        result.info.append(f"info: qvcnn/rvcnn train time per sample = {rv / qv:.3f} "
                           f"(base: rvcnn {1e3 / rv:.3f} ms/sample)")
        raw["setup"] = statistics.median(raw_setups)
        reference_info(result, [r.reference_s for r in reps], raw)
        return result

    tracer = Tracer()
    inst = Instrumentation(tracer, q)
    try:
        timed_setups(setup, tally, 1)
    finally:
        inst.close()
    plain, traced = traced_repeat(q, tracer, step, seconds)
    configs = {arch: q.layers.config_from_name(name, spec.size)
               for arch, name in TRAIN_CONFIGS.items()}
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    finish_trace(result, tracer, configs, overhead,
                 f"sweep repetition (n={len(plain)} untraced, {len(traced)} traced)", tally)
    return result


def reference_info(result: Result, references, raw: dict):
    result.info.append(
        f"info: reference kernel median {1e3 * statistics.median(references):.2f} ms "
        f"(nominal {1e3 * NOMINAL_S:.0f} ms, n={len(references)}); unscaled medians: "
        + ", ".join(f"{name} {value:.4g}{' s' if name == 'setup' else '/s'}"
                    for name, value in raw.items()))


def finish_trace(result: Result, tracer: Tracer, configs, overhead: float, base: str, tally):
    result.spans = tracer.spans
    with tally.operation("per-layer metrics from the trace") as op:
        metrics, extra = perlayer.derive(tracer.spans, configs)
        units = {name: unit for name, unit, _ in perlayer.per_layer_specs(configs)}
        result.metrics = {name: Metric(value, units[name]) for name, value in metrics.items()}
        result.extra = extra
        result.extra["trace.overhead_share"] = overhead
        result.info.append(f"info: tracing overhead = {overhead:+.3f} of the median "
                           f"untraced {base}")
        for arch in ARCHS:
            share = extra[f"train.{arch}.residual_share"]
            per_sample = extra[f"train.{arch}.train_model_ms_per_sample"]
            result.info.append(
                f"info: {arch} train_model = {per_sample:.4f} ms/sample traced; layers + "
                f"model + loop + adam leave a residual of {share:+.2e} of it "
                f"(limit {perlayer.RESIDUAL_LIMIT})")
            op.check(abs(share) <= perlayer.RESIDUAL_LIMIT,
                     f"{arch} per-layer parts miss {share:+.3f} of train_model time")


def run(q, workload: str, seed: int, seconds: float, trace: bool, work: Path, tally) -> Result:
    spec = WORKLOADS[workload]
    runner = run_sweep if isinstance(spec, SweepSpec) else run_train
    return runner(q, spec, seed, seconds, trace, work, tally)
