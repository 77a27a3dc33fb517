"""The benchmark's traced run against the current sources.

``perfbench/run.py --trace 1`` wraps quatcnn functions by name and
derives the per-layer metrics that BENCHMARK.json lists from their
spans; a renamed or no longer called function breaks it. The run goes
in a copy of ``perfbench/`` and ``src/``, so nothing is written into
the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_train_24_reports_every_listed_metric(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-24", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(listed) > 0
    missing = [name for name in listed if name not in result["metrics"]]
    assert not missing
