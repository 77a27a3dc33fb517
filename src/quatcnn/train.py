"""Training machinery: loss, Adam, finite-difference verification, and
the deterministic single-run training loop.

Training runs in single precision; gradient checking converts the model
to double first so central differences at h=1e-6 are meaningful.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .layers import (
    LayerSpec, Model, ModelConfig, atomic_write, read_blobs, read_container,
    read_exact, write_blobs, write_container,
)
from .quat import QTensor

__all__ = [
    "bce_with_logits",
    "Adam",
    "grad_check",
    "EpochMetrics",
    "train_model",
    "save_checkpoint",
    "load_checkpoint",
    "run_gradient_verification",
]


def bce_with_logits(logit: float, label: int) -> tuple[float, float]:
    """Binary cross-entropy on a raw logit, in the stable softplus form.

    Returns (loss, dloss/dlogit). loss = softplus(logit) - label*logit,
    gradient = sigmoid(logit) - label. Safe for large |logit|.
    """
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    z = float(logit)
    softplus = max(z, 0.0) + np.log1p(np.exp(-abs(z)))
    loss = softplus - label * z
    sigmoid = 1.0 / (1.0 + np.exp(-z)) if z >= 0 else np.exp(z) / (1.0 + np.exp(z))
    return float(loss), float(sigmoid - label)


class Adam:
    """Adam with bias correction, updating parameter arrays in place."""

    def __init__(self, params: list[np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-7):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter list")
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def _model_loss(model: Model, x, label: int) -> float:
    loss, _ = bce_with_logits(model.forward(x), label)
    return loss


def grad_check(model: Model, x, label: int, h: float = 1e-6,
               num_samples: int = 200, rng: np.random.Generator | None = None) -> float:
    """Max relative error of analytic gradients vs central differences.

    Samples up to ``num_samples`` distinct parameters across all arrays
    and compares dL/dtheta against (L(theta+h) - L(theta-h)) / 2h.
    Samples whose finite difference is exactly zero are skipped (dead
    paths), and pairs where both magnitudes sit below 1e-6 are treated
    as matching: at h=1e-6 in double precision the difference quotient
    carries ~1e-10 of roundoff, so smaller gradients only measure noise.
    """
    if model.dtype != np.float64:
        raise ValueError("grad_check requires a float64 model (use model.astype)")
    rng = rng or np.random.default_rng(0)

    model.zero_grads()
    loss, dlogit = bce_with_logits(model.forward(x), label)
    model.backward(dlogit)
    analytic = [g.copy() for g in model.gradients]

    params = model.parameters
    sizes = np.array([p.size for p in params])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    chosen = rng.choice(total, size=min(num_samples, total), replace=False)

    max_rel = 0.0
    for flat in chosen:
        ai = int(np.searchsorted(offsets, flat, side="right") - 1)
        idx = int(flat - offsets[ai])
        p = params[ai].reshape(-1)
        orig = p[idx]
        p[idx] = orig + h
        lp = _model_loss(model, x, label)
        p[idx] = orig - h
        lm = _model_loss(model, x, label)
        p[idx] = orig
        fd = (lp - lm) / (2.0 * h)
        if fd == 0.0:
            continue
        a = float(analytic[ai].reshape(-1)[idx])
        scale = max(abs(a), abs(fd))
        if scale < 1e-6:
            continue
        max_rel = max(max_rel, abs(a - fd) / scale)
    return max_rel


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    loss: float
    train_acc: float


def train_model(config: ModelConfig, dataset, epochs: int = 100,
                batch_size: int = 16, seed: int = 0, lr: float = 1e-3,
                dtype=np.float32, metrics_path=None) -> tuple[Model, list[EpochMetrics]]:
    """Train a model from scratch on (input, label) pairs.

    Deterministic given (seed, config, dataset): the seed drives both
    Glorot initialization and the per-epoch shuffle. Loss is the mean
    per-sample binary cross-entropy over the epoch; train accuracy is
    running accuracy, i.e. measured from the forward passes used for
    training with the parameters current at each batch. Metrics stream
    to ``metrics_path`` as CSV (epoch, loss, train_acc) when given.
    A non-finite loss raises ValueError naming the epoch and batch.
    """
    samples = list(dataset)
    if not samples:
        raise ValueError("dataset is empty")
    labels = {label for _, label in samples}
    if labels == {0} or labels == {1}:
        raise ValueError("dataset contains a single class; need both labels")
    if not labels <= {0, 1}:
        raise ValueError(f"labels must be 0 or 1, got {sorted(labels)}")

    rng = np.random.default_rng(seed)
    model = Model(config, rng=rng, dtype=dtype)
    adam = Adam(model.parameters, lr=lr)

    writer = None
    fh = None
    if metrics_path is not None:
        fh = open(metrics_path, "w", newline="", encoding="utf-8")
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "train_acc"])

    metrics: list[EpochMetrics] = []
    n = len(samples)
    try:
        for epoch in range(epochs):
            order = rng.permutation(n)
            total_loss = 0.0
            correct = 0
            for start in range(0, n, batch_size):
                batch = order[start:start + batch_size]
                model.zero_grads()
                for si in batch:
                    x, label = samples[si]
                    logit = model.forward(x)
                    loss, dlogit = bce_with_logits(logit, label)
                    if not math.isfinite(loss):
                        raise ValueError(
                            f"non-finite loss {loss} at epoch {epoch}, "
                            f"batch {start // batch_size}"
                        )
                    model.backward(dlogit / len(batch))
                    total_loss += loss
                    correct += int((logit > 0) == (label == 1))
                adam.step(model.gradients)
            row = EpochMetrics(epoch, total_loss / n, correct / n)
            metrics.append(row)
            if writer is not None:
                writer.writerow([row.epoch, repr(row.loss), repr(row.train_acc)])
                fh.flush()
    finally:
        if fh is not None:
            fh.close()
    return model, metrics


# ---------------------------------------------------------------------------
# checkpoints: model container plus optimizer state

_ADAM_MAGIC = b"ADAM"


def save_checkpoint(path, model: Model, adam: Adam) -> None:
    """Model container followed by the Adam state (t, lr, beta1, beta2,
    eps, then m and v blobs in parameter order, little-endian float32),
    written atomically."""
    with atomic_write(path) as fh:
        write_container(fh, model)
        fh.write(_ADAM_MAGIC)
        fh.write(struct.pack("<Qdddd", adam.t, adam.lr, adam.beta1, adam.beta2, adam.eps))
        write_blobs(fh, adam.m + adam.v)


def load_checkpoint(path, config: ModelConfig, dtype=np.float32) -> tuple[Model, Adam]:
    with open(path, "rb") as fh:
        model = read_container(fh, config, dtype)
        if fh.read(4) != _ADAM_MAGIC:
            raise ValueError("checkpoint missing optimizer state")
        adam = Adam(model.parameters)
        adam.t, adam.lr, adam.beta1, adam.beta2, adam.eps = struct.unpack(
            "<Qdddd", read_exact(fh, 40)
        )
        read_blobs(fh, adam.m + adam.v)
        if fh.read(1):
            raise ValueError("trailing bytes after optimizer state")
    return model, adam


# ---------------------------------------------------------------------------
# the gradient verification suite behind the `gradcheck` command


def _tiny_config(arithmetic: str, input_size: int = 12) -> ModelConfig:
    conv = "qconv" if arithmetic == "quaternion" else "conv"
    return ModelConfig(
        name=f"tiny-{arithmetic}", arithmetic=arithmetic, encoding="rgb",
        input_size=input_size,
        in_channels=1 if arithmetic == "quaternion" else 3,
        layers=(
            LayerSpec(conv, filters=2), LayerSpec("relu"), LayerSpec("maxpool"),
            LayerSpec(conv, filters=2), LayerSpec("relu"), LayerSpec("maxpool"),
            LayerSpec("flatten"), LayerSpec("dense", filters=1),
        ),
    )


def run_gradient_verification(seed: int = 0, num_samples: int = 200) -> list[tuple[str, float]]:
    """Finite-difference checks for tiny end-to-end models of both
    arithmetics, three random instances each. Returns (name, max
    relative error) rows; every error should sit below 1e-4."""
    rng = np.random.default_rng(seed)
    rows: list[tuple[str, float]] = []
    for arithmetic in ("real", "quaternion"):
        config = _tiny_config(arithmetic)
        for rep in range(3):
            model = Model(config, rng=rng, dtype=np.float64)
            if arithmetic == "quaternion":
                x = QTensor(rng.uniform(-1, 1, size=(4, 1, 12, 12)))
            else:
                x = rng.uniform(-1, 1, size=(3, 12, 12))
            label = int(rng.integers(0, 2))
            err = grad_check(model, x, label, num_samples=num_samples, rng=rng)
            rows.append((f"{arithmetic}-model-{rep}", err))
    return rows
