"""Network layers: forward passes, reverse-mode backward passes, and
the two reference architectures.

Real convolutions are valid cross-correlations (no kernel flip, no
padding, stride 1) built on an im2col + matmul core. The quaternion
convolution runs on the same core as one real GEMM over the 4C stacked
component planes, with the (4F, 4C, k, k) block kernel that
``as_block_conv`` assembles from the four weight banks and the Hamilton
sign pattern in ``_QCONV_TERMS``; its weight gradient folds back into
the banks through the same table. Max pooling takes the maximum of the
window's strided slices, uses a (2, 2) window with stride 2 and drops
trailing odd rows/columns, which is what makes a 100x100 input
flow 100 -> 98 -> 49 -> 47 -> 23 -> 21 -> 10 and feed the dense layer
exactly 12,800 values in both architectures.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .quat import QTensor

__all__ = [
    "ConvParams",
    "QConvParams",
    "DenseParams",
    "glorot_uniform",
    "conv2d_forward",
    "qconv2d_forward",
    "maxpool2d",
    "relu",
    "flatten_to_real",
    "unflatten_to_qtensor",
    "dense_forward",
    "as_block_conv",
    "Conv2d",
    "QConv2d",
    "MaxPool2d",
    "ReLU",
    "Flatten",
    "Dense",
    "LayerSpec",
    "ModelConfig",
    "rvcnn_config",
    "qvcnn_config",
    "config_from_name",
    "CONFIG_NAMES",
    "trace_shapes",
    "count_parameters",
    "Model",
    "config_digest",
    "save_model",
    "load_model",
]


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class ConvParams:
    """Real convolution weights: kernel bank (F, C, k, k) and F biases."""

    w: np.ndarray
    bias: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        return [self.w, self.bias]

    @property
    def count(self) -> int:
        return self.w.size + self.bias.size


@dataclass
class QConvParams:
    """Quaternion convolution weights.

    Four real kernel banks of identical shape (F, C, k, k), one per
    quaternion component of the filter, plus F quaternion biases stored
    as a (4, F) array.
    """

    w0: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        ref = self.w0.shape
        for name in ("w1", "w2", "w3"):
            shape = getattr(self, name).shape
            if shape != ref:
                raise ValueError(f"kernel bank {name} has shape {shape}, expected {ref}")
        if self.bias.shape != (4, ref[0]):
            raise ValueError(
                f"bias must have shape (4, {ref[0]}), got {self.bias.shape}"
            )

    def arrays(self) -> list[np.ndarray]:
        return [self.w0, self.w1, self.w2, self.w3, self.bias]

    @property
    def count(self) -> int:
        return 4 * self.w0.size + self.bias.size


@dataclass
class DenseParams:
    """Single-output dense layer: weight vector (D,) and scalar bias."""

    w: np.ndarray
    b: np.ndarray  # 0-d array so the optimizer can update it in place

    def arrays(self) -> list[np.ndarray]:
        return [self.w, self.b]

    @property
    def count(self) -> int:
        return self.w.size + 1


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int,
                   dtype=np.float32) -> np.ndarray:
    """Uniform samples in [-L, L] with L = sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fans must be >= 1, got fan_in={fan_in}, fan_out={fan_out}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


# ---------------------------------------------------------------------------
# correlation core, shared by the real and quaternion convolutions


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(C, H, W) -> (C*k*k, OH*OW) patch matrix for a valid correlation."""
    c, h, w = x.shape
    oh, ow = h - k + 1, w - k + 1
    s0, s1, s2 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(c, k, k, oh, ow), strides=(s0, s1, s2, s1, s2)
    )
    return windows.reshape(c * k * k, oh * ow)


def _col2im(cols: np.ndarray, shape: tuple[int, int, int], k: int) -> np.ndarray:
    """Scatter-add the inverse of _im2col back onto an input-shaped array."""
    c, h, w = shape
    oh, ow = h - k + 1, w - k + 1
    out = np.zeros(shape, dtype=cols.dtype)
    patches = cols.reshape(c, k, k, oh, ow)
    for di in range(k):
        for dj in range(k):
            out[:, di:di + oh, dj:dj + ow] += patches[:, di, dj]
    return out


def _check_conv_input(x_shape, w_shape):
    f, c, k, k2 = w_shape
    if k != k2:
        raise ValueError(f"kernels must be square, got {k}x{k2}")
    xc, h, w = x_shape
    if xc != c:
        raise ValueError(f"input has {xc} channels, kernel expects {c}")
    if h < k or w < k:
        raise ValueError(f"spatial size {h}x{w} smaller than kernel {k}x{k}")


def _correlate(x: np.ndarray, w: np.ndarray, bias: np.ndarray):
    """Valid correlation (C, H, W) with (F, C, k, k) plus bias, as one
    GEMM over the im2col patches. Returns the output and the patches."""
    _check_conv_input(x.shape, w.shape)
    f, _, k, _ = w.shape
    cols = _im2col(x, k)
    out = (w.reshape(f, -1) @ cols).reshape(f, x.shape[1] - k + 1, x.shape[2] - k + 1)
    out += bias[:, None, None]
    return out, cols


def _correlate_backward(g: np.ndarray, w: np.ndarray, cols: np.ndarray, x_shape):
    """Gradients of _correlate: (weight, bias, input)."""
    f, _, k, _ = w.shape
    gmat = g.reshape(f, -1)
    gw = (gmat @ cols.T).reshape(w.shape)
    gx = _col2im(w.reshape(f, -1).T @ gmat, x_shape, k)
    return gw, g.sum(axis=(1, 2)), gx


def conv2d_forward(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Valid cross-correlation plus bias: (C, H, W) -> (F, H-k+1, W-k+1)."""
    return _correlate(x, params.w, params.bias)[0]


# Hamilton product sign structure, written as the four-term expansion of
# each output plane: out[c] = sum of sign * correlate(x[b], W[a]).
_QCONV_TERMS = (
    ((0, 0, 1.0), (1, 1, -1.0), (2, 2, -1.0), (3, 3, -1.0)),
    ((0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, -1.0)),
    ((0, 2, 1.0), (1, 3, -1.0), (2, 0, 1.0), (3, 1, 1.0)),
    ((0, 3, 1.0), (1, 2, 1.0), (2, 1, -1.0), (3, 0, 1.0)),
)


def _block_terms(f: int, c: int):
    """(bank, sign, rows, planes) of the 16 Hamilton terms: bank ``a``
    times ``sign`` fills block[rows, planes] of the (4F, 4C, k, k) kernel."""
    for comp, terms in enumerate(_QCONV_TERMS):
        for a, b, sign in terms:
            yield a, sign, slice(comp * f, (comp + 1) * f), slice(b * c, (b + 1) * c)


def as_block_conv(params: QConvParams) -> ConvParams:
    """Assemble the equivalent real convolution on stacked planes.

    The quaternion convolution of C quaternion channels equals one real
    convolution of 4C planes with a (4F, 4C, k, k) kernel whose 4x4
    block structure carries the Hamilton signs. This is the form the
    quaternion layers run in; it also exports to real-conv runtimes.
    """
    f, c, k, _ = params.w0.shape
    banks = (params.w0, params.w1, params.w2, params.w3)
    block = np.empty((4 * f, 4 * c, k, k), dtype=params.w0.dtype)
    for a, sign, rows, planes in _block_terms(f, c):
        block[rows, planes] = sign * banks[a]
    return ConvParams(w=block, bias=params.bias.reshape(-1).copy())


def _qconv_forward(x: np.ndarray, params: QConvParams):
    """(4, C, H, W) -> (4, F, OH, OW) as one block correlation over the
    4C stacked planes; also returns the block kernel and the patches."""
    _check_conv_input(x.shape[1:], params.w0.shape)
    block = as_block_conv(params)
    out, cols = _correlate(x.reshape(-1, *x.shape[2:]), block.w, block.bias)
    return out.reshape(4, -1, *out.shape[1:]), block.w, cols


def qconv2d_forward(x: QTensor, params: QConvParams) -> QTensor:
    """Quaternion convolution: Hamilton product of filter and input at
    every tap of a valid cross-correlation, plus the quaternion bias.
    """
    return QTensor(_qconv_forward(x.data, params)[0])


def _window_size(window) -> int:
    if isinstance(window, (tuple, list)):
        if len(window) != 2 or window[0] != window[1]:
            raise ValueError(f"only square pool windows are supported, got {window}")
        return int(window[0])
    return int(window)


def _pool_views(x: np.ndarray, window: int, stride: int) -> list[np.ndarray]:
    """The window**2 strided views of (..., H, W), one per window offset in
    row-major order; view d holds element d of every pooling window."""
    h, w = x.shape[-2:]
    if h < window or w < window:
        raise ValueError(f"spatial size {h}x{w} smaller than pool window {window}")
    rows = stride * ((h - window) // stride) + 1
    cols = stride * ((w - window) // stride) + 1
    return [x[..., di:di + rows:stride, dj:dj + cols:stride]
            for di in range(window) for dj in range(window)]


def _maxpool(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Per-plane max pooling over the last two axes."""
    views = _pool_views(x, window, stride)
    out = views[0].copy()
    for view in views[1:]:
        np.maximum(out, view, out=out)
    return out


def _maxpool_backward(g: np.ndarray, x: np.ndarray, out: np.ndarray, window: int,
                      stride: int) -> np.ndarray:
    """Route each window's gradient to its first maximum in row-major
    order; windows that overlap add their shares."""
    gx = np.zeros(x.shape, dtype=g.dtype)
    free = np.ones(out.shape, dtype=bool)
    for view, gview in zip(_pool_views(x, window, stride),
                           _pool_views(gx, window, stride)):
        hit = view == out
        hit &= free
        free ^= hit
        gview += g * hit
    return gx


def maxpool2d(x, window=2, stride: int = 2):
    """Per-plane max pooling; accepts a real (C, H, W) array or a QTensor.
    ``window`` may be an int or a square (w, w) tuple."""
    window = _window_size(window)
    if isinstance(x, QTensor):
        return QTensor(_maxpool(x.data, window, stride))
    return _maxpool(np.asarray(x), window, stride)


def relu(x):
    """Element-wise max(0, .); applied to every plane of a QTensor."""
    if isinstance(x, QTensor):
        return QTensor(np.maximum(x.data, 0))
    return np.maximum(np.asarray(x), 0)


def flatten_to_real(x: QTensor) -> np.ndarray:
    """(C, H, W) quaternion tensor -> real vector of length 4*C*H*W.

    Ordering is component-major, then channel, row, column, so index
    ((comp*C + c)*H + h)*W + w holds plane comp of element (c, h, w).
    """
    return x.data.reshape(-1).copy()


def unflatten_to_qtensor(v: np.ndarray, channels: int, height: int,
                         width: int) -> QTensor:
    """Inverse of flatten_to_real for the documented ordering."""
    return QTensor(v.reshape(4, channels, height, width).copy())


def dense_forward(v: np.ndarray, params: DenseParams) -> float:
    """dot(w, v) + b for the single-logit output layer."""
    if v.shape != params.w.shape:
        raise ValueError(f"input length {v.shape} does not match weights {params.w.shape}")
    return float(v @ params.w + params.b)


# ---------------------------------------------------------------------------
# layer objects (forward caching + reverse-mode backward)


class Conv2d:
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 dtype=np.float32):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.params = ConvParams(
            w=np.zeros(shape, dtype=dtype), bias=np.zeros(out_channels, dtype=dtype)
        )
        self.grads = ConvParams(
            w=np.zeros(shape, dtype=dtype), bias=np.zeros(out_channels, dtype=dtype)
        )
        self._cache = None

    def initialize(self, rng: np.random.Generator):
        k = self.kernel_size
        self.params.w[...] = glorot_uniform(
            rng, self.params.w.shape,
            fan_in=self.in_channels * k * k, fan_out=self.out_channels * k * k,
            dtype=self.params.w.dtype,
        )
        self.params.bias[...] = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, cols = _correlate(x, self.params.w, self.params.bias)
        self._cache = (cols, x.shape)
        return out

    def backward(self, g: np.ndarray) -> np.ndarray:
        cols, x_shape = self._cache
        gw, gbias, gx = _correlate_backward(g, self.params.w, cols, x_shape)
        self.grads.w += gw
        self.grads.bias += gbias
        return gx

    def zero_grads(self):
        self.grads.w[...] = 0
        self.grads.bias[...] = 0

    @property
    def param_count(self) -> int:
        return self.params.count


class QConv2d:
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 dtype=np.float32):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        zeros = lambda: np.zeros(shape, dtype=dtype)
        self.params = QConvParams(
            w0=zeros(), w1=zeros(), w2=zeros(), w3=zeros(),
            bias=np.zeros((4, out_channels), dtype=dtype),
        )
        self.grads = QConvParams(
            w0=zeros(), w1=zeros(), w2=zeros(), w3=zeros(),
            bias=np.zeros((4, out_channels), dtype=dtype),
        )
        self._cache = None

    def initialize(self, rng: np.random.Generator):
        # component-wise Glorot with fans counted in quaternion channels
        k = self.kernel_size
        fan_in = self.in_channels * k * k
        fan_out = self.out_channels * k * k
        for bank in (self.params.w0, self.params.w1, self.params.w2, self.params.w3):
            bank[...] = glorot_uniform(rng, bank.shape, fan_in, fan_out,
                                       dtype=bank.dtype)
        self.params.bias[...] = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        """x: (4, C, H, W) -> (4, F, OH, OW)."""
        out, block, cols = _qconv_forward(x, self.params)
        self._cache = (block, cols, x.shape)
        return out

    def backward(self, g: np.ndarray) -> np.ndarray:
        block, cols, x_shape = self._cache
        f, c = self.out_channels, self.in_channels
        gblock, gbias, gx = _correlate_backward(
            g.reshape(4 * f, *g.shape[2:]), block, cols, (4 * c, *x_shape[2:])
        )
        gbanks = (self.grads.w0, self.grads.w1, self.grads.w2, self.grads.w3)
        for a, sign, rows, planes in _block_terms(f, c):
            gbanks[a][...] += sign * gblock[rows, planes]
        self.grads.bias += gbias.reshape(4, f)
        return gx.reshape(x_shape)

    def zero_grads(self):
        for arr in self.grads.arrays():
            arr[...] = 0

    @property
    def param_count(self) -> int:
        return self.params.count


class MaxPool2d:
    def __init__(self, window=2, stride: int = 2):
        self.window = _window_size(window)
        self.stride = stride
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = _maxpool(x, self.window, self.stride)
        self._cache = (x, out)
        return out

    def backward(self, g: np.ndarray) -> np.ndarray:
        x, out = self._cache
        return _maxpool_backward(g, x, out, self.window, self.stride)

    param_count = 0

    def zero_grads(self):
        pass


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, g: np.ndarray) -> np.ndarray:
        return g * self._mask

    param_count = 0

    def zero_grads(self):
        pass


class Flatten:
    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(-1)

    def backward(self, g: np.ndarray) -> np.ndarray:
        return g.reshape(self._shape)

    param_count = 0

    def zero_grads(self):
        pass


class Dense:
    def __init__(self, in_features: int, dtype=np.float32):
        self.in_features = in_features
        self.params = DenseParams(
            w=np.zeros(in_features, dtype=dtype), b=np.zeros((), dtype=dtype)
        )
        self.grads = DenseParams(
            w=np.zeros(in_features, dtype=dtype), b=np.zeros((), dtype=dtype)
        )
        self._cache = None

    def initialize(self, rng: np.random.Generator):
        self.params.w[...] = glorot_uniform(
            rng, self.params.w.shape, fan_in=self.in_features, fan_out=1,
            dtype=self.params.w.dtype,
        )
        self.params.b[...] = 0

    def forward(self, v: np.ndarray) -> float:
        if v.shape != self.params.w.shape:
            raise ValueError(
                f"input length {v.shape} does not match weights {self.params.w.shape}"
            )
        self._cache = v
        return float(v @ self.params.w + self.params.b)

    def backward(self, g: float) -> np.ndarray:
        v = self._cache
        self.grads.w += g * v
        self.grads.b += g
        return (g * self.params.w).astype(v.dtype, copy=False)

    @property
    def param_count(self) -> int:
        return self.params.count

    def zero_grads(self):
        self.grads.w[...] = 0
        self.grads.b[...] = 0


# ---------------------------------------------------------------------------
# architecture description


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # "conv" | "qconv" | "relu" | "maxpool" | "flatten" | "dense"
    filters: int = 0
    kernel: int = 3
    pool: int = 2


@dataclass(frozen=True)
class ModelConfig:
    """Architecture plus input description.

    ``arithmetic`` selects real or quaternion layers; ``encoding``
    names how images are turned into network inputs (rgb or hsv);
    ``in_channels`` counts real channels for real models and quaternion
    channels for quaternion models.
    """

    name: str
    arithmetic: str  # "real" | "quaternion"
    encoding: str  # "rgb" | "hsv"
    input_size: int
    in_channels: int
    layers: tuple[LayerSpec, ...]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "arithmetic": self.arithmetic,
            "encoding": self.encoding,
            "input_size": self.input_size,
            "in_channels": self.in_channels,
            "layers": [
                {"kind": s.kind, "filters": s.filters, "kernel": s.kernel,
                 "pool": s.pool}
                for s in self.layers
            ],
        }


def _conv_stack(conv_kind: str, filters) -> tuple[LayerSpec, ...]:
    specs: list[LayerSpec] = []
    for f in filters:
        specs.append(LayerSpec(conv_kind, filters=f, kernel=3))
        specs.append(LayerSpec("relu"))
        specs.append(LayerSpec("maxpool", pool=2))
    specs.append(LayerSpec("flatten"))
    specs.append(LayerSpec("dense", filters=1))
    return tuple(specs)


def rvcnn_config(encoding: str = "rgb", input_size: int = 100,
                 filters=(32, 64, 128)) -> ModelConfig:
    """Real-valued reference model: conv stacks of 32/64/128 filters."""
    return ModelConfig(
        name=f"rvcnn-{encoding}", arithmetic="real", encoding=encoding,
        input_size=input_size, in_channels=3,
        layers=_conv_stack("conv", filters),
    )


def qvcnn_config(encoding: str = "rgb", input_size: int = 100,
                 filters=(8, 16, 32)) -> ModelConfig:
    """Quaternion model: a quarter of the real model's filters per layer."""
    return ModelConfig(
        name=f"qvcnn-{encoding}", arithmetic="quaternion", encoding=encoding,
        input_size=input_size, in_channels=1,
        layers=_conv_stack("qconv", filters),
    )


CONFIG_NAMES = ("rvcnn-rgb", "rvcnn-hsv", "qvcnn-rgb", "qvcnn-hsv")


def config_from_name(name: str, input_size: int = 100) -> ModelConfig:
    kind, _, encoding = name.partition("-")
    if name not in CONFIG_NAMES:
        raise ValueError(f"unknown config {name!r}, expected one of {CONFIG_NAMES}")
    if kind == "rvcnn":
        return rvcnn_config(encoding, input_size)
    return qvcnn_config(encoding, input_size)


def trace_shapes(config: ModelConfig):
    """Return (spec, out_channels, out_h, out_w, flat_len) rows per layer,
    validating the spatial arithmetic; flat_len is the flattened length
    once a flatten layer has run, else None. Raises ValueError on an
    inconsistent chain."""
    channels = config.in_channels
    h = w = config.input_size
    flat: int | None = None
    out = []
    for spec in config.layers:
        if spec.kind in ("conv", "qconv"):
            if h < spec.kernel or w < spec.kernel:
                raise ValueError(
                    f"inconsistent config: {spec.kind} kernel {spec.kernel} "
                    f"does not fit input {h}x{w}"
                )
            channels = spec.filters
            h, w = h - spec.kernel + 1, w - spec.kernel + 1
        elif spec.kind == "maxpool":
            if h < spec.pool or w < spec.pool:
                raise ValueError(
                    f"inconsistent config: pool window {spec.pool} "
                    f"does not fit input {h}x{w}"
                )
            h = (h - spec.pool) // spec.pool + 1
            w = (w - spec.pool) // spec.pool + 1
        elif spec.kind == "flatten":
            per_channel = 4 if config.arithmetic == "quaternion" else 1
            flat = per_channel * channels * h * w
        elif spec.kind == "dense":
            if flat is None:
                raise ValueError("inconsistent config: dense before flatten")
        elif spec.kind != "relu":
            raise ValueError(f"unknown layer kind {spec.kind!r}")
        out.append((spec, channels, h, w, flat))
    return out


def count_parameters(config: ModelConfig) -> tuple[list[int], int]:
    """Exact trainable real-parameter count of each parameterized layer.

    Returns (per-layer counts in declaration order, total). The
    reference architectures give [896, 18496, 73856, 12801] -> 106049
    for the real model and [320, 4672, 18560, 12801] -> 36353 for the
    quaternion one.
    """
    counts = []
    in_channels = config.in_channels
    for spec, channels, h, w, flat in trace_shapes(config):
        if spec.kind == "conv":
            counts.append(spec.filters * in_channels * spec.kernel ** 2 + spec.filters)
            in_channels = spec.filters
        elif spec.kind == "qconv":
            counts.append(
                4 * spec.filters * in_channels * spec.kernel ** 2 + 4 * spec.filters
            )
            in_channels = spec.filters
        elif spec.kind == "dense":
            counts.append(flat + 1)
    return counts, sum(counts)


# ---------------------------------------------------------------------------
# the sequential model


class Model:
    """Sequential network built from a ModelConfig.

    Forward keeps per-layer caches so one backward sweep accumulates the
    exact reverse-mode gradients for every trainable array. Quaternion
    models take a QTensor input and carry its (4, C, H, W) planes
    through the stack; real models take a (C, H, W) array.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.layers = []
        in_channels = config.in_channels
        for spec, channels, h, w, flat in trace_shapes(config):
            if spec.kind == "conv":
                self.layers.append(Conv2d(in_channels, spec.filters, spec.kernel, dtype))
                in_channels = spec.filters
            elif spec.kind == "qconv":
                self.layers.append(QConv2d(in_channels, spec.filters, spec.kernel, dtype))
                in_channels = spec.filters
            elif spec.kind == "relu":
                self.layers.append(ReLU())
            elif spec.kind == "maxpool":
                self.layers.append(MaxPool2d(spec.pool, spec.pool))
            elif spec.kind == "flatten":
                self.layers.append(Flatten())
            elif spec.kind == "dense":
                self.layers.append(Dense(flat, dtype))
        if rng is not None:
            self.initialize(rng)

    def initialize(self, rng: np.random.Generator):
        for layer in self.layers:
            if hasattr(layer, "initialize"):
                layer.initialize(rng)

    def _unwrap(self, x) -> np.ndarray:
        if self.config.arithmetic == "quaternion":
            if not isinstance(x, QTensor):
                raise TypeError("quaternion model expects a QTensor input")
            data = x.data
        else:
            data = np.asarray(x)
            if data.ndim != 3:
                raise ValueError(f"real model expects (C, H, W) input, got {data.shape}")
        spatial = data.shape[-2:]
        if spatial != (self.config.input_size, self.config.input_size):
            raise ValueError(
                f"input spatial size {spatial} does not match configured "
                f"{self.config.input_size}"
            )
        return data.astype(self.dtype, copy=False)

    def forward(self, x) -> float:
        h = self._unwrap(x)
        for layer in self.layers:
            h = layer.forward(h)
        return h  # dense returns a python float logit

    def backward(self, dlogit: float):
        g = dlogit
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g

    def zero_grads(self):
        for layer in self.layers:
            layer.zero_grads()

    @property
    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            if hasattr(layer, "params"):
                out.extend(layer.params.arrays())
        return out

    @property
    def gradients(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            if hasattr(layer, "grads"):
                out.extend(layer.grads.arrays())
        return out

    @property
    def param_count(self) -> int:
        return sum(layer.param_count for layer in self.layers)

    def astype(self, dtype) -> "Model":
        clone = Model(self.config, rng=None, dtype=dtype)
        for dst, src in zip(clone.parameters, self.parameters):
            dst[...] = src.astype(dtype)
        return clone


# ---------------------------------------------------------------------------
# serialization: flat binary container of little-endian float32 blobs

_MAGIC = b"QVCN"
_VERSION = 1


def config_digest(config: ModelConfig) -> bytes:
    """sha256 over the canonical JSON form of the config."""
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).digest()


def save_model(path, model: Model) -> None:
    """Write magic, version, config digest, then every parameter array in
    declaration order as little-endian float32."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(config_digest(model.config))
        for arr in model.parameters:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError("model file truncated")
    return data


def load_model(path, config: ModelConfig, dtype=np.float32) -> Model:
    """Rebuild a Model from the container; the config must match the
    digest recorded at save time."""
    model = Model(config, rng=None, dtype=dtype)
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != _MAGIC:
            raise ValueError("not a model container (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != _VERSION:
            raise ValueError(f"unsupported container version {version}")
        digest = _read_exact(fh, 32)
        if digest != config_digest(config):
            raise ValueError("config digest mismatch: file was saved from a different config")
        for arr in model.parameters:
            raw = _read_exact(fh, arr.size * 4)
            arr[...] = np.frombuffer(raw, dtype="<f4").reshape(arr.shape).astype(dtype)
        if fh.read(1):
            raise ValueError("trailing bytes after parameter blobs")
    return model
