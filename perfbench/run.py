"""quatcnn benchmark: one workload per invocation.

    python3 perfbench/run.py --workload train-24 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit status is non-zero when any operation raised or failed an output
check. Scratch files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMING_UNITS = ("s", "1/s", "1/min")


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_quatcnn():
    """Import quatcnn from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "quatcnn" / "__init__.py").is_file():
        raise SystemExit(f"error: no quatcnn sources under {src}")
    sys.path.insert(0, str(src))
    import quatcnn
    import quatcnn.cli  # noqa: F401  (the sweep's entry point)

    if Path(quatcnn.__file__).resolve().parent != (src / "quatcnn").resolve():
        raise SystemExit(f"error: imported quatcnn from {quatcnn.__file__}, not {src}")
    return quatcnn


def print_report(result, trace: bool):
    from summary import quartiles, tail_percentile

    for line in result.info:
        print(line)
    kind = "per-layer (traced run)" if trace else "end-to-end"
    print(f"{kind} metrics:")
    for name, m in result.metrics.items():
        line = f"  {name:<44} {m.value:>14.6g} {m.unit:<8}"
        if m.samples:
            q1, _, q3 = quartiles(m.samples)
            line += f" n={len(m.samples):<4} q1={q1:.6g} q3={q3:.6g}"
        if m.samples and m.unit in TIMING_UNITS:
            tail = tail_percentile(m.samples)
            line += f" p{tail[0]:g}={tail[1]:.6g}" if tail else " (too few samples for a tail)"
        print(line)
    if result.extra:
        print("further figures (not gated):")
        for name, value in result.extra.items():
            print(f"  {name:<44} {value:>14.6g}")


def write_trace(result, path: Path):
    names = sorted({s[0] for s in result.spans})
    index = {n: i for i, n in enumerate(names)}
    payload = {
        "span_fields": ["name", "start", "end", "parent", "n"],
        "names": names,
        "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in result.spans],
        "metrics": {k: m.value for k, m in result.metrics.items()},
        "extra": result.extra,
    }
    path.write_text(json.dumps(payload, separators=(",", ":")))


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    q = import_quatcnn()
    import numpy

    import workloads
    from summary import Tally, fingerprint

    print("env: " + json.dumps(fingerprint(ROOT, numpy), sort_keys=True))
    scratch = ROOT / ".perfbench_work"
    work = scratch / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    started = time.perf_counter()
    try:
        result = workloads.run(q, args.workload, args.seed, args.seconds,
                               bool(args.trace), work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        trace_path = scratch / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(result, trace_path)
        print(f"spans: {len(result.spans)} written to {trace_path.relative_to(ROOT)}")
    print_report(result, bool(args.trace))
    print(f"wall: {time.perf_counter() - started:.1f} s; "
          f"operations: {tally.attempted} attempted, {tally.failed} failed")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in result.metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
