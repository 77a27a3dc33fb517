"""Tests of the benchmark's own helpers: python3 -m pytest -q perfbench"""

import json
import math
import sys
from pathlib import Path

import pytest

import perlayer
import spans
from summary import TAIL_LADDER, Tally, tail_percentile, valid_metric_name

ROOT = Path(__file__).resolve().parent.parent


def make_span(name, start, end, parent, n=0):
    return [name, start, end, parent, n]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        make_span("root", 0.0, 10.0, -1),
        make_span("a", 1.0, 4.0, 0),
        make_span("a.inner", 2.0, 3.0, 1),
        make_span("b", 5.0, 9.0, 0),
        make_span("other", 11.0, 12.0, -1),
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0, 1.0]
    # self times of one tree add up to its root's duration
    assert sum(spans.self_times(recorded)[:4]) == 10.0


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x + 1, "inner", count=lambda x: x)
    outer = tracer.wrap(lambda x: inner(x) + inner(x), "outer")
    assert outer(3) == 8
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert [s[spans.COUNT] for s in tracer.spans] == [0, 3, 3]
    # clock reads: outer 0..5, inner 1..2 and 3..4
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]
    table = spans.totals_by_name(tracer.spans)
    assert table["inner"] == {"calls": 2, "total": 2.0, "self": 2.0, "n": 6}


def test_tracer_closes_span_when_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    (span,) = tracer.spans
    assert span[spans.END] >= span[spans.START]
    assert tracer.wrap(lambda: 1, "after")() == 1
    assert tracer.spans[1][spans.PARENT] == -1


def test_ancestor_named_finds_nearest_match():
    recorded = [
        make_span("train.rvcnn.train_model", 0, 9, -1),
        make_span("layers.rvcnn.model.fwd", 1, 2, 0),
        make_span("layers.rvcnn.00_conv.fwd", 1, 2, 1),
        make_span("harness.rvcnn.evaluate", 10, 11, -1),
    ]
    found = spans.ancestor_named(recorded, lambda n: n.endswith(".train_model"))
    assert found == [0, 0, 0, -1]


@pytest.mark.parametrize("name", [
    "layers.rvcnn.00_conv.fwd_ms", "setup_s", "train-24", "sweep.runs_per_min",
    "9lives", "a" * 64,
])
def test_metric_name_accepted(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", [
    "", "a b", "per/s", "_lead", ".lead", "-lead", "naïve", "a" * 65, "x\n",
])
def test_metric_name_rejected(name):
    assert not valid_metric_name(name)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(range(19)) is None
    assert tail_percentile(range(1, 21)) == (50.0, 10)
    assert tail_percentile(range(1, 101)) == (90.0, 90)
    assert tail_percentile(range(1, 1001)) == (99.0, 990)
    for n in range(1, 2500):
        choice = tail_percentile(range(n))
        leaves = [p for p in TAIL_LADDER if n - math.ceil(p / 100 * n) >= 10]
        if choice is None:
            assert not leaves
        else:
            assert choice[0] == max(leaves)


def test_failed_operations_are_counted_once_each(capsys):
    tally = Tally(err=sys.stdout)
    with tally.operation("fine") as op:
        assert op.check(True, "unused")
    with tally.operation("one bad check") as op:
        op.check(False, "loss is nan")
        op.check(False, "accuracy out of range")
    with tally.operation("raises") as op:
        raise ValueError("broken input")
    with tally.operation("after") as op:
        op.check(True, "unused")
    assert (tally.attempted, tally.failed) == (4, 2)
    out = capsys.readouterr().out
    assert "FAILED one bad check: loss is nan" in out
    assert "FAILED raises: raised ValueError: broken input" in out


def test_interrupt_is_counted_and_propagates():
    tally = Tally()
    with pytest.raises(KeyboardInterrupt):
        with tally.operation("interrupted"):
            raise KeyboardInterrupt
    assert (tally.attempted, tally.failed) == (1, 1)


def quatcnn_package():
    sys.path.insert(0, str(ROOT / "src"))
    import quatcnn
    import quatcnn.cli  # noqa: F401

    return quatcnn


def test_benchmark_json_names_match_emitted_metrics():
    q = quatcnn_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(valid_metric_name(n) for n in names)
    configs = {arch: q.layers.config_from_name(name, 100)
               for arch, name in (("rvcnn", "rvcnn-rgb"), ("qvcnn", "qvcnn-rgb"))}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        perlayer.per_layer_specs(configs)


def test_instrumentation_restores_every_patched_name():
    q = quatcnn_package()
    before = (q.harness.train_model, q.harness.resize, q.train.Adam.step,
              q.layers.Model.__init__, q.encoding.read_ppm)
    inst = spans.Instrumentation(spans.Tracer(), q)
    assert q.harness.train_model is q.train.train_model
    assert q.harness.train_model is not before[0]
    inst.close()
    after = (q.harness.train_model, q.harness.resize, q.train.Adam.step,
             q.layers.Model.__init__, q.encoding.read_ppm)
    assert after == before


def test_conv_flops_count_block_real_gemm():
    q = quatcnn_package()
    rv = perlayer.conv_gemm_flops(q.layers.config_from_name("rvcnn-rgb", 100))
    qv = perlayer.conv_gemm_flops(q.layers.config_from_name("qvcnn-rgb", 100))
    assert rv[0] == 2 * 32 * 3 * 9 * 98 * 98
    assert qv[0] == 2 * 32 * 4 * 9 * 98 * 98  # one input quaternion = four planes
    assert rv[3] == qv[3] == 2 * 64 * 32 * 9 * 47 * 47
