"""In-memory span tracer and the instrumentation of quatcnn's public API.

A span is ``[name, start, end, parent, n]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``n`` an optional item count (samples
evaluated, for example). Spans are recorded around calls made from this
directory only; nothing inside the package is changed on disk.
"""

from __future__ import annotations

import time
from collections import defaultdict

NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    """Records nested spans. ``wrap`` returns a traced version of a callable."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, count=None):
        """Trace ``fn``. ``name`` is a string or a function of the call's
        arguments; ``count``, if given, maps the arguments to the item count
        stored on the span."""
        clock, spans, stack = self.clock, self.spans, self._stack

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            n = count(*args, **kwargs) if count is not None else 0
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, n]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children lie inside their parent's interval, so this is the part of
    the interval no child covers. Parents precede their children in
    ``spans`` because a span is appended when it starts.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def ancestor_named(spans, predicate) -> list[int]:
    """For each span, the index of the nearest span (itself included)
    whose name satisfies ``predicate``, or -1."""
    out = []
    for i, s in enumerate(spans):
        if predicate(s[NAME]):
            out.append(i)
        else:
            out.append(out[s[PARENT]] if s[PARENT] >= 0 else -1)
    return out


def totals_by_name(spans) -> dict[str, dict]:
    """Per span name: calls, total duration, total self time and item count."""
    selfs = self_times(spans)
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total": 0.0,
                                                  "self": 0.0, "n": 0})
    for i, s in enumerate(spans):
        row = table[s[NAME]]
        row["calls"] += 1
        row["total"] += s[END] - s[START]
        row["self"] += selfs[i]
        row["n"] += s[COUNT]
    return dict(table)


def arch_of(config) -> str:
    """'rvcnn' or 'qvcnn' for a ModelConfig."""
    return "rvcnn" if config.arithmetic == "real" else "qvcnn"


class Patches:
    """Attribute replacements that ``close`` undoes in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def close(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Instrumentation(Patches):
    """Installs tracing wrappers on quatcnn's public functions and layer
    methods, and removes them again on ``close``.

    ``harness`` binds ``resize``, ``load_image``, ``augment_flips`` and
    ``train_model`` by name at import, so those names are wrapped in
    ``harness`` as well as in their home modules. Layers are wrapped per
    instance when a ``Model`` is built, which names each span after the
    layer's position and kind.
    """

    def __init__(self, tracer: Tracer, quatcnn):
        super().__init__()
        self.tracer = tracer
        enc, har, lay, trn = (quatcnn.encoding, quatcnn.harness,
                              quatcnn.layers, quatcnn.train)
        wrap = tracer.wrap

        for fn in ("read_ppm", "load_image", "resize", "rgb_to_hsv",
                   "encode_rgb_quaternion", "encode_hsv_quaternion",
                   "concat_channels", "augment_flips"):
            traced = wrap(getattr(enc, fn), f"encoding.{fn}")
            self.set(enc, fn, traced)
            if hasattr(har, fn) and getattr(har, fn) is traced.__wrapped__:
                self.set(har, fn, traced)

        for fn in ("load_decoded_images", "split", "build_run_inputs",
                   "emit_report", "run_single", "run_experiment"):
            self.set(har, fn, wrap(getattr(har, fn), f"harness.{fn}"))
        self.set(har, "evaluate", wrap(
            har.evaluate, lambda model, samples: f"harness.{arch_of(model.config)}.evaluate",
            count=lambda model, samples: len(samples)))

        traced_train = wrap(
            trn.train_model,
            lambda config, *a, **k: f"train.{arch_of(config)}.train_model",
            count=lambda config, dataset, epochs=100, *a, **k: len(dataset) * epochs)
        self.set(trn, "train_model", traced_train)
        self.set(har, "train_model", traced_train)
        self.set(trn.Adam, "step", wrap(trn.Adam.step, "train.adam_step"))

        model_init = lay.Model.__init__

        def traced_init(model, config, *args, **kwargs):
            model_init(model, config, *args, **kwargs)
            arch = arch_of(config)
            model.forward = wrap(model.forward, f"layers.{arch}.model.fwd")
            model.backward = wrap(model.backward, f"layers.{arch}.model.bwd")
            for i, (spec, layer) in enumerate(zip(config.layers, model.layers)):
                base = f"layers.{arch}.{i:02d}_{spec.kind}"
                layer.forward = wrap(layer.forward, base + ".fwd")
                layer.backward = wrap(layer.backward, base + ".bwd")

        self.set(lay.Model, "__init__", traced_init)
