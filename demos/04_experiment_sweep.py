#!/usr/bin/env python3
"""A miniature end-to-end sweep on synthetic data.

The real experiment compares four (model, encoding) configurations over
five test fractions with 100 runs each; this demo shrinks everything so
it finishes in about a minute and prints the same report the CLI
produces. The synthetic images put the class signal entirely in the
ellipse hue at fixed brightness, the setting where the hue-angle HSV
quaternion encoding shines.
"""

import tempfile
from pathlib import Path

from quatcnn.harness import (
    ExperimentPlan, generate_synthetic_dataset, load_manifest, run_experiment,
)

with tempfile.TemporaryDirectory() as tmp:
    data_dir = Path(tmp) / "cells"
    generate_synthetic_dataset(data_dir, n=40, size=24, seed=11, value=(0.8, 0.8))
    manifest = load_manifest(data_dir)
    print(f"dataset: {len(manifest.entries)} images, checksum {manifest.checksum[:12]}")

    plan = ExperimentPlan(
        configs=("qvcnn-hsv", "qvcnn-rgb", "rvcnn-rgb"),
        fractions=(0.25,), runs=3, epochs=20, base_seed=0,
        batch_size=8, input_size=24, augment=False,
    )
    report = run_experiment(plan, manifest, Path(tmp) / "out")

    print(f"\n{'config':<12} {'mean':>7} {'std':>7} {'q25':>7} {'q75':>7}")
    for s in report.stats:
        print(f"{s.config:<12} {s.mean:>7.3f} {s.std:>7.3f} {s.q25:>7.3f} {s.q75:>7.3f}")
    print("\nwritten: plan.json, runs.csv, stats.csv")
    print("re-running the same plan would skip all completed runs (resume)")
