"""Per-layer metrics derived from the spans of a traced run.

Layer, model and training-loop figures cover only spans inside
``train_model``, per training sample, so together with the Adam time
they add up to the traced ``train_model`` wall time; the residual of
that sum is reported and checked. Harness and encoding figures cover
every span of the run, set-up included.
"""

from __future__ import annotations

from collections import defaultdict

from spans import COUNT, END, NAME, PARENT, START, ancestor_named, self_times, totals_by_name

ARCHS = ("rvcnn", "qvcnn")
CONV_KINDS = ("conv", "qconv")
# exercised by every workload (train-* in its set-up); listed in BENCHMARK.json
HARNESS_COMMON = (("harness.load_decoded_images", "s"), ("harness.split", "ms"),
                  ("harness.build_run_inputs", "ms"))
ENCODING_COMMON = ("read_ppm", "load_image", "resize", "encode_rgb_quaternion",
                   "concat_channels", "augment_flips")
# exercised by sweep-100 only; printed and written to the trace file
ENCODING_SWEEP = ("rgb_to_hsv", "encode_hsv_quaternion")
RESIDUAL_LIMIT = 0.01


def conv_gemm_flops(config) -> dict[int, int]:
    """Forward FLOPs per sample of each conv/qconv layer, counted as the
    block-real-equivalent GEMM: a quaternion layer of F filters over C
    channels is a real (4F, 4C) convolution, as in ``as_block_conv``."""
    from quatcnn.layers import trace_shapes

    flops = {}
    planes = 4 if config.arithmetic == "quaternion" else 1
    channels = config.in_channels
    for i, (spec, out_ch, h, w, _) in enumerate(trace_shapes(config)):
        if spec.kind in CONV_KINDS:
            flops[i] = 2 * (planes * out_ch) * (planes * channels) * spec.kernel ** 2 * h * w
            channels = out_ch
    return flops


def per_layer_specs(configs) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric listed in
    BENCHMARK.json, in output order."""
    out = []
    for arch in ARCHS:
        for i, spec in enumerate(configs[arch].layers):
            base = f"layers.{arch}.{i:02d}_{spec.kind}"
            out += [(base + ".fwd_ms", "ms", "lower"), (base + ".bwd_ms", "ms", "lower")]
            if spec.kind in CONV_KINDS:
                out.append((base + ".gflops", "GFLOP/s", "higher"))
        out += [(f"layers.{arch}.model.self_ms", "ms", "lower"),
                (f"layers.{arch}.calls_per_sample", "count", "lower"),
                (f"train.{arch}.loop.self_ms", "ms", "lower"),
                (f"train.{arch}.adam_step_ms", "ms", "lower"),
                (f"harness.{arch}.evaluate_ms_per_sample", "ms", "lower")]
    out += [(f"{name}_{unit}", unit, "lower") for name, unit in HARNESS_COMMON]
    out += [(f"encoding.{fn}_ms", "ms", "lower") for fn in ENCODING_COMMON]
    return out


def derive(spans, configs) -> tuple[dict[str, float], dict[str, float]]:
    """(metrics listed in BENCHMARK.json, further figures).

    The further figures are the sweep-only harness and encoding metrics
    when the run exercised them, and per architecture the train_model
    wall time per sample with the residual of its decomposition.
    """
    selfs = self_times(spans)
    root = ancestor_named(spans, lambda name: name.endswith(".train_model"))
    inside: dict[str, list] = defaultdict(lambda: [0.0, 0])  # self seconds, calls
    samples: dict[str, int] = defaultdict(int)
    wall: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if root[i] < 0:
            continue
        arch = spans[root[i]][NAME].split(".")[1]
        name = f"train.{arch}.adam_step" if s[NAME] == "train.adam_step" else s[NAME]
        inside[name][0] += selfs[i]
        inside[name][1] += 1
        if root[i] == i:
            samples[arch] += s[COUNT]
            wall[arch] += s[END] - s[START]

    metrics: dict[str, float] = {}
    extra: dict[str, float] = {}
    for arch in ARCHS:
        config, n = configs[arch], samples[arch]
        flops = conv_gemm_flops(config)
        parts = layer_calls = 0
        for i, spec in enumerate(config.layers):
            base = f"layers.{arch}.{i:02d}_{spec.kind}"
            fwd, bwd = inside[base + ".fwd"], inside[base + ".bwd"]
            metrics[base + ".fwd_ms"] = 1e3 * fwd[0] / n
            metrics[base + ".bwd_ms"] = 1e3 * bwd[0] / n
            if spec.kind in CONV_KINDS:
                metrics[base + ".gflops"] = 3 * flops[i] * n / (fwd[0] + bwd[0]) / 1e9
            parts += fwd[0] + bwd[0]
            layer_calls += fwd[1] + bwd[1]
        model_self = inside[f"layers.{arch}.model.fwd"][0] + inside[f"layers.{arch}.model.bwd"][0]
        loop_self = inside[f"train.{arch}.train_model"][0]
        adam = inside[f"train.{arch}.adam_step"]
        metrics[f"layers.{arch}.model.self_ms"] = 1e3 * model_self / n
        metrics[f"layers.{arch}.calls_per_sample"] = layer_calls / n
        metrics[f"train.{arch}.loop.self_ms"] = 1e3 * loop_self / n
        metrics[f"train.{arch}.adam_step_ms"] = 1e3 * adam[0] / adam[1]
        parts += model_self + loop_self + adam[0]
        extra[f"train.{arch}.train_model_ms_per_sample"] = 1e3 * wall[arch] / n
        extra[f"train.{arch}.residual_share"] = (wall[arch] - parts) / wall[arch]

    table = totals_by_name(spans)
    for arch in ARCHS:
        row = table[f"harness.{arch}.evaluate"]
        metrics[f"harness.{arch}.evaluate_ms_per_sample"] = 1e3 * row["total"] / row["n"]
    for name, unit in HARNESS_COMMON:
        row = table[name]
        metrics[f"{name}_{unit}"] = row["total"] / row["calls"] * (1e3 if unit == "ms" else 1.0)
    for fn in ENCODING_COMMON:
        row = table[f"encoding.{fn}"]
        metrics[f"encoding.{fn}_ms"] = 1e3 * row["self"] / row["calls"]

    for fn in ENCODING_SWEEP:
        if f"encoding.{fn}" in table:
            row = table[f"encoding.{fn}"]
            extra[f"encoding.{fn}_ms"] = 1e3 * row["self"] / row["calls"]
    if "harness.emit_report" in table:
        row = table["harness.emit_report"]
        extra["harness.emit_report_ms"] = 1e3 * row["total"] / row["calls"]
    for name in ("harness.run_single", "harness.run_experiment"):
        if name in table:
            extra[f"{name}.self_ms"] = 1e3 * table[name]["self"] / table[name]["calls"]
    if "harness.run_single" in table:
        run_single = ancestor_named(spans, lambda name: name == "harness.run_single")
        in_train = sum(s[END] - s[START] for i, s in enumerate(spans)
                       if root[i] == i and s[PARENT] >= 0 and run_single[s[PARENT]] >= 0)
        base = table["harness.run_single"]["total"]
        extra["harness.train_share"] = in_train / base
        extra["harness.run_single.total_s"] = base
    return metrics, extra
