"""Training machinery: the labelled sample set, loss, Adam,
finite-difference verification, and the deterministic single-run
training loop.

A split is one ``Samples``: a batch array holding every sample along its
third-from-last axis, as ``Model.forward`` takes it, and an int label
vector. A chunk of it is one ``take`` along that axis, and the loss and
accuracy of a chunk are array expressions over its logits.

Training runs in single precision; gradient checking builds its models
in double precision (``Model(config, dtype=np.float64)``) so central
differences at h=1e-6 are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Model, ModelConfig, _conv_stack, chunk_size

__all__ = [
    "Samples",
    "bce_with_logits",
    "Adam",
    "grad_check",
    "EpochMetrics",
    "train_model",
    "run_gradient_verification",
]


def _check_labels(y: np.ndarray):
    if not ((y == 0) | (y == 1)).all():
        raise ValueError(f"labels must be 0 or 1, got {np.unique(y).tolist()}")


@dataclass(eq=False)
class Samples:
    """A labelled set of network inputs. ``x`` holds the samples along
    its third-from-last axis: a real (C, N, H, W) or quaternion
    (4, C, N, H, W) array. ``y`` holds their N labels, each 0 or 1."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y)
        if self.x.ndim < 3:
            raise ValueError(f"samples need an (..., N, H, W) array, got shape {self.x.shape}")
        if self.y.shape != (self.x.shape[-3],):
            raise ValueError(f"{self.x.shape[-3]} samples but {self.y.size} labels")
        _check_labels(self.y)
        self.y = np.ascontiguousarray(self.y, dtype=np.int64)

    def __len__(self) -> int:
        return self.y.size

    def tobytes(self) -> bytes:
        """``x.tobytes() + y.tobytes()``, assembled in one allocation: a
        split is megabytes, and the sum would copy it twice."""
        return b"".join((np.ascontiguousarray(self.x), self.y))


def bce_with_logits(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    """Binary cross-entropy on raw logits, in the stable softplus form,
    element by element in float64.

    Returns (loss, dloss/dlogit) arrays. loss = softplus(z) - label*z,
    gradient = sigmoid(z) - label. Both come from e = exp(-|z|), which
    cannot overflow: softplus(z) = max(z, 0) + log1p(e), and sigmoid(z)
    is 1 / (1 + e) for z >= 0 and e / (1 + e) below.
    """
    labels = np.asarray(labels)
    _check_labels(labels)
    return _bce(logits, labels)


def _bce(logits, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``bce_with_logits`` on labels already known to be 0 or 1, such as
    those of a ``Samples``."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(-np.abs(z))
    loss = np.maximum(z, 0.0) + np.log1p(e) - labels * z
    sigmoid = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return loss, sigmoid - labels


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


def _minibatch(model: Model, data: Samples, batch: np.ndarray,
               chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero the gradients, then accumulate the gradient of the mean BCE
    over the samples of ``data`` indexed by ``batch``, ``chunk`` samples
    per forward and backward. Returns their float64 losses and their
    logits, in batch order."""
    model.zero_grads()
    losses, logits = np.empty(len(batch)), np.empty(len(batch))
    for lo in range(0, len(batch), chunk):
        part = batch[lo:lo + chunk]
        z = model.forward(data.x.take(part, axis=-3))
        loss, dz = _bce(z, data.y[part])
        model.backward(dz / len(batch))
        losses[lo:lo + len(part)] = loss
        logits[lo:lo + len(part)] = z
    return losses, logits


def _mean_loss(model: Model, data: Samples) -> float:
    return float(_bce(model.forward(data.x), data.y)[0].mean())


def grad_check(model: Model, data: Samples, h: float = 1e-6,
               num_samples: int = 200, rng: np.random.Generator | None = None) -> float:
    """Max relative error of analytic gradients vs central differences.

    The loss is the mean BCE over ``data``, whose gradient comes from
    one batched forward and backward. Samples up to
    ``num_samples`` distinct entries of ``model.theta`` and compares
    dL/dtheta against (L(theta+h) - L(theta-h)) / 2h.
    Samples whose finite difference is exactly zero are skipped (dead
    paths), and pairs where both magnitudes sit below 1e-6 are treated
    as matching: at h=1e-6 in double precision the difference quotient
    carries ~1e-10 of roundoff, so smaller gradients only measure noise.
    """
    if model.dtype != np.float64:
        raise ValueError("grad_check requires a float64 model (build it with dtype=np.float64)")
    rng = rng or np.random.default_rng(0)
    _minibatch(model, data, np.arange(len(data)), len(data))
    analytic = model.grad.copy()

    theta = model.theta
    chosen = rng.choice(theta.size, size=min(num_samples, theta.size), replace=False)

    max_rel = 0.0
    for i in chosen:
        orig = theta[i]
        theta[i] = orig + h
        lp = _mean_loss(model, data)
        theta[i] = orig - h
        lm = _mean_loss(model, data)
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


def train_model(config: ModelConfig, dataset: Samples, epochs: int = 100,
                batch_size: int = 16, seed: int = 0, lr: float = 1e-3,
                dtype=np.float32, metrics_path=None) -> tuple[Model, list[EpochMetrics]]:
    """Train a model from scratch on a labelled sample set.

    Deterministic given (seed, config, dataset): the seed drives both
    Glorot initialization and the per-epoch shuffle. Each minibatch runs
    in chunks of ``layers.chunk_size(config, batch_size)`` samples, one
    forward and one backward per chunk, and takes one Adam step on the
    gradient of its mean loss. Loss is the mean
    per-sample binary cross-entropy over the epoch, summed left to right
    in the order the samples were trained; train accuracy is
    running accuracy, i.e. measured from the forward passes used for
    training with the parameters current at each batch. Metrics stream
    to ``metrics_path`` as CSV (epoch, loss, train_acc) when given.
    A non-finite loss raises ValueError naming the epoch and batch.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(dataset)
    if not n:
        raise ValueError("dataset is empty")
    if dataset.y.min() == dataset.y.max():
        raise ValueError("dataset contains a single class; need both labels")

    rng = np.random.default_rng(seed)
    model = Model(config, rng=rng, dtype=dtype)
    adam = Adam(model.theta, lr=lr)
    chunk = chunk_size(config, batch_size)

    fh = None
    if metrics_path is not None:
        fh = open(metrics_path, "w", newline="", encoding="utf-8")
        fh.write("epoch,loss,train_acc\n")

    metrics: list[EpochMetrics] = []
    try:
        for epoch in range(epochs):
            order = rng.permutation(n)
            losses = np.empty(n)
            correct = 0
            for start in range(0, n, batch_size):
                batch = order[start:start + batch_size]
                loss, logits = _minibatch(model, dataset, batch, chunk)
                bad = loss[~np.isfinite(loss)]
                if bad.size:
                    raise ValueError(
                        f"non-finite loss {bad[0]} at epoch {epoch}, "
                        f"batch {start // batch_size}"
                    )
                losses[start:start + len(batch)] = loss
                correct += int(np.count_nonzero((logits > 0) == (dataset.y[batch] == 1)))
                adam.step(model.grad)
            # np.sum would add pairwise; cumsum adds one sample after another,
            # so the epoch loss keeps the value a per-sample loop gives
            row = EpochMetrics(epoch, float(np.cumsum(losses)[-1]) / n, correct / n)
            metrics.append(row)
            if fh is not None:
                fh.write(f"{row.epoch},{row.loss!r},{row.train_acc!r}\n")
                fh.flush()
    finally:
        if fh is not None:
            fh.close()
    return model, metrics


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
                x = rng.uniform(-1, 1, size=(4, 1, 1, 12, 12))
            else:
                x = rng.uniform(-1, 1, size=(3, 1, 12, 12))
            label = int(rng.integers(0, 2))
            err = grad_check(model, Samples(x, [label]), num_samples=num_samples, rng=rng)
            rows.append((f"{arithmetic}-model-{rep}", err))
    return rows
