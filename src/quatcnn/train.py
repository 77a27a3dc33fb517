"""Training machinery: loss, Adam, finite-difference verification, and
the deterministic single-run training loop.

Training runs in single precision; gradient checking converts the model
to double first so central differences at h=1e-6 are meaningful.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .layers import (
    Model, ModelConfig, _conv_stack, atomic_write, chunk_size, read_blob,
    read_container, read_exact, write_blob, write_container,
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
    """Adam with bias correction, updating the flat parameter vector
    ``theta`` in place. A step allocates nothing: it works through two
    preallocated scratch vectors, in the order of the expression
    theta -= lr * (m / b1c) / (sqrt(v / b2c) + eps)."""

    def __init__(self, theta: np.ndarray, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-7):
        self.theta = theta
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self._step, self._denom = np.empty_like(theta), np.empty_like(theta)

    def step(self, grad: np.ndarray) -> None:
        if grad.shape != self.theta.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match {self.theta.shape}")
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        m, v, step, denom = self.m, self.v, self._step, self._denom
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=step)
        v *= self.beta2
        v += np.multiply(np.square(grad, out=step), 1.0 - self.beta2, out=step)
        np.sqrt(np.divide(v, b2c, out=denom), out=denom)
        denom += self.eps
        np.multiply(np.divide(m, b1c, out=step), self.lr, out=step)
        self.theta -= np.divide(step, denom, out=step)


def _minibatch(model: Model, batch, chunk: int) -> list[tuple[float, float]]:
    """Zero the gradients, then accumulate the gradient of the mean BCE
    over ``batch`` ((input, label) pairs), ``chunk`` samples per forward
    and backward. Returns each sample's (loss, logit) in batch order."""
    model.zero_grads()
    out = []
    for lo in range(0, len(batch), chunk):
        part = batch[lo:lo + chunk]
        logits = model.forward([x for x, _ in part])
        dlogits = []
        for logit, (_, label) in zip(logits, part):
            loss, dlogit = bce_with_logits(logit, label)
            out.append((loss, float(logit)))
            dlogits.append(dlogit / len(batch))
        model.backward(dlogits)
    return out


def _mean_loss(model: Model, xs, labels) -> float:
    logits = model.forward(xs)
    return sum(bce_with_logits(z, y)[0] for z, y in zip(logits, labels)) / len(xs)


def grad_check(model: Model, x, label, h: float = 1e-6,
               num_samples: int = 200, rng: np.random.Generator | None = None) -> float:
    """Max relative error of analytic gradients vs central differences.

    ``x`` and ``label`` are one sample and its label, or equal-length
    lists of them; the loss is the mean BCE over the batch, whose
    gradient comes from one batched forward and backward. Samples up to
    ``num_samples`` distinct entries of ``model.theta`` and compares
    dL/dtheta against (L(theta+h) - L(theta-h)) / 2h.
    Samples whose finite difference is exactly zero are skipped (dead
    paths), and pairs where both magnitudes sit below 1e-6 are treated
    as matching: at h=1e-6 in double precision the difference quotient
    carries ~1e-10 of roundoff, so smaller gradients only measure noise.
    """
    if model.dtype != np.float64:
        raise ValueError("grad_check requires a float64 model (use model.astype)")
    rng = rng or np.random.default_rng(0)
    xs, labels = (x, label) if isinstance(x, list) else ([x], [label])
    if len(xs) != len(labels):
        raise ValueError(f"{len(xs)} samples but {len(labels)} labels")

    _minibatch(model, list(zip(xs, labels)), len(xs))
    analytic = model.grad.copy()

    theta = model.theta
    chosen = rng.choice(theta.size, size=min(num_samples, theta.size), replace=False)

    max_rel = 0.0
    for i in chosen:
        orig = theta[i]
        theta[i] = orig + h
        lp = _mean_loss(model, xs, labels)
        theta[i] = orig - h
        lm = _mean_loss(model, xs, labels)
        theta[i] = orig
        fd = (lp - lm) / (2.0 * h)
        if fd == 0.0:
            continue
        a = float(analytic[i])
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
    Glorot initialization and the per-epoch shuffle. Each minibatch runs
    in chunks of ``layers.chunk_size(config, batch_size)`` samples, one
    forward and one backward per chunk, and takes one Adam step on the
    gradient of its mean loss. Loss is the mean
    per-sample binary cross-entropy over the epoch; train accuracy is
    running accuracy, i.e. measured from the forward passes used for
    training with the parameters current at each batch. Metrics stream
    to ``metrics_path`` as CSV (epoch, loss, train_acc) when given.
    A non-finite loss raises ValueError naming the epoch and batch.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
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
    adam = Adam(model.theta, lr=lr)
    chunk = chunk_size(config, batch_size)

    fh = None
    if metrics_path is not None:
        fh = open(metrics_path, "w", newline="", encoding="utf-8")
        fh.write("epoch,loss,train_acc\n")

    metrics: list[EpochMetrics] = []
    n = len(samples)
    try:
        for epoch in range(epochs):
            order = rng.permutation(n)
            total_loss = 0.0
            correct = 0
            for start in range(0, n, batch_size):
                batch = [samples[si] for si in order[start:start + batch_size]]
                results = _minibatch(model, batch, chunk)
                for (loss, logit), (_, label) in zip(results, batch):
                    if not math.isfinite(loss):
                        raise ValueError(
                            f"non-finite loss {loss} at epoch {epoch}, "
                            f"batch {start // batch_size}"
                        )
                    total_loss += loss
                    correct += int((logit > 0) == (label == 1))
                adam.step(model.grad)
            row = EpochMetrics(epoch, total_loss / n, correct / n)
            metrics.append(row)
            if fh is not None:
                fh.write(f"{row.epoch},{row.loss!r},{row.train_acc!r}\n")
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
    eps, then the m and v blobs, little-endian float32), written
    atomically."""
    with atomic_write(path) as fh:
        write_container(fh, model)
        fh.write(_ADAM_MAGIC)
        fh.write(struct.pack("<Qdddd", adam.t, adam.lr, adam.beta1, adam.beta2, adam.eps))
        write_blob(fh, adam.m)
        write_blob(fh, adam.v)


def load_checkpoint(path, config: ModelConfig, dtype=np.float32) -> tuple[Model, Adam]:
    with open(path, "rb") as fh:
        model = read_container(fh, config, dtype)
        if fh.read(4) != _ADAM_MAGIC:
            raise ValueError("checkpoint missing optimizer state")
        adam = Adam(model.theta)
        adam.t, adam.lr, adam.beta1, adam.beta2, adam.eps = struct.unpack(
            "<Qdddd", read_exact(fh, 40)
        )
        read_blob(fh, adam.m)
        read_blob(fh, adam.v)
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
        layers=_conv_stack(conv, (2, 2)),
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
