#!/usr/bin/env python3
"""Gradient verification and a small overfit run.

Every layer ships a hand-written backward pass, so before trusting any
training curve we compare analytic gradients of tiny end-to-end models
against central finite differences in double precision. Then both
architectures overfit a 20-image synthetic set to show the whole
pipeline (encode, forward, backward, Adam) closing the loop. The set is
one ``Samples``: the stack of images encoded in one call into a single
batch array, with the sample axis third from last, and a label vector.
"""

import tempfile
from pathlib import Path

import numpy as np

from quatcnn.harness import generate_synthetic_dataset, load_manifest, \
    load_decoded_images, encode_input
from quatcnn.layers import config_from_name
from quatcnn.train import Samples, run_gradient_verification, train_model

print("== finite-difference gradient checks (double precision, h = 1e-6) ==")
for name, err in run_gradient_verification(seed=0):
    print(f"  {name:<22} max relative error {err:.2e}")

print("\n== overfit smoke test ==")
with tempfile.TemporaryDirectory() as tmp:
    data_dir = Path(tmp) / "cells"
    generate_synthetic_dataset(data_dir, n=20, size=24, seed=7)
    manifest = load_manifest(data_dir)
    images, labels = zip(*load_decoded_images(manifest, 24).values())

    for name in ("qvcnn-rgb", "rvcnn-rgb"):
        config = config_from_name(name, 24)
        samples = Samples(encode_input(config, np.stack(images)), labels)
        model, metrics = train_model(config, samples, epochs=20, batch_size=16, seed=0)
        trace = " ".join(f"{m.train_acc:.2f}" for m in metrics[:12])
        print(f"{config.name}: train accuracy per epoch: {trace} ...")
        print(f"{config.name}: final loss {metrics[-1].loss:.4f}, "
              f"final accuracy {metrics[-1].train_acc:.2f}")
