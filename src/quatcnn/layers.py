"""Network layers: forward passes, reverse-mode backward passes, the
two reference architectures, and the model container.

Every layer implements the one ``Layer`` interface. ``trace_shapes`` is
the one shape rule for a config, and ``Model`` builds each layer from
one kind -> constructor table. A model's parameters are one flat
``theta`` and their gradients one flat ``grad``, in declaration order;
each weighted layer's arrays are reshaped views of its slice, and a
quaternion layer's four weight banks are one (4, F, C, k, k) view.

Layers run on batches of samples. The sample axis sits third from last,
just before the spatial axes: a real batch is (C, N, H, W) and a
quaternion batch (4, C, N, H, W). In this channel-major layout the
im2col copy of a batch and the GEMM output need no transposes, and a
batch of one costs what a single sample does. ``Flatten`` makes one
(N, D) copy and ``Dense`` returns (N,) logits. ``Model.forward`` takes
one such batch array, as ``train.Samples`` holds a whole split, and
returns its (N,) logits.

Real convolutions are valid cross-correlations (no kernel flip, no
padding, stride 1) built on an im2col + matmul core: one im2col and one
GEMM per batch. The input gradient is the transposed GEMM on the output
gradient zero-padded to the input width, scattered back with one
contiguous add per tap over the flat (P, N, H*W) planes; the taps that
wrap past a row's end fall on the pad columns and add exact zeros.
The quaternion convolution runs on the same core as one
real GEMM over the 4C stacked component planes, with the (4F, 4C, k, k)
block kernel gathered from the banks through 4x4 bank and sign tables
derived from the Hamilton sign pattern in ``_QCONV_TERMS``, once per
batch; its weight gradient folds back into the banks through the
inverse tables, once per batch.

Max pooling takes the maximum over whole rows, then over columns, with
the stride equal to the window, so windows never overlap. The reference
configs use a 2x2 window and drop trailing odd rows/columns, which is
what makes a 100x100 input flow 100 -> 98 -> 49 -> 47 -> 23 -> 21 -> 10
and feed the dense layer exactly 12,800 values in both architectures.
Its backward routes each window's gradient to the window's first
maximum in row-major order, one pass over the window offsets, each
writing straight into its strided view of the input gradient.

``Model`` runs a ReLU that feeds a max pool after the pool, on a quarter
of the elements; configs and ``Model.layers`` keep declaration order.
This is exact: ReLU is monotone, so it commutes with the maximum. A
window whose maximum is <= 0 gets a zero gradient in either order, and
any other keeps its first maximum.

How many samples go through at once is ``chunk_size``: the most, up to
the batch size, whose largest per-layer float32 im2col matrix fits in
``IM2COL_BUDGET`` bytes. A chunk's activations are kept until its
backward pass, so this budget is what bounds training memory. It gives
chunks of 8 at 24x24. At 100x100 one sample's conv2 patches (2.5 MB)
already exceed it, so the paper-size path runs one sample per chunk
and keeps the memory of an unbatched loop.

``save_model``/``load_model`` are the one writer and reader of the
model container: a header (magic, version, config digest), then
``theta`` as one little-endian float32 blob.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

__all__ = [
    "ConvParams",
    "QConvParams",
    "DenseParams",
    "glorot_uniform",
    "conv2d_forward",
    "qconv2d_forward",
    "as_block_conv",
    "Layer",
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
    "IM2COL_BUDGET",
    "chunk_size",
    "Model",
    "config_digest",
    "atomic_write",
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


@dataclass
class QConvParams:
    """Quaternion convolution weights.

    The four real kernel banks, one per quaternion component of the
    filter, stacked as one (4, F, C, k, k) array, plus F quaternion
    biases stored as a (4, F) array.
    """

    w: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.w.ndim != 5 or self.w.shape[0] != 4:
            raise ValueError(f"kernel banks must have shape (4, F, C, k, k), got {self.w.shape}")
        if self.bias.shape != (4, self.w.shape[1]):
            raise ValueError(
                f"bias must have shape (4, {self.w.shape[1]}), got {self.bias.shape}"
            )


@dataclass
class DenseParams:
    """Single-output dense layer: weight vector (D,) and scalar bias."""

    w: np.ndarray
    b: np.ndarray


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
    """(C, N, H, W) -> (C*k*k, N*OH*OW) patch matrix for a valid correlation."""
    c, n, h, w = x.shape
    oh, ow = h - k + 1, w - k + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(c, k, k, n, oh, ow), strides=(s0, s2, s3, s1, s2, s3)
    )
    return windows.reshape(c * k * k, n * oh * ow)


def _check_conv_input(x_shape, w_shape):
    """x_shape is (C, ..., H, W): channels first, spatial size last."""
    f, c, k, k2 = w_shape
    if k != k2:
        raise ValueError(f"kernels must be square, got {k}x{k2}")
    xc, (h, w) = x_shape[0], x_shape[-2:]
    if xc != c:
        raise ValueError(f"input has {xc} channels, kernel expects {c}")
    if h < k or w < k:
        raise ValueError(f"spatial size {h}x{w} smaller than kernel {k}x{k}")


def _correlate(x: np.ndarray, w: np.ndarray, bias: np.ndarray):
    """Valid correlation of the (..., C, N, H, W) input's P stacked planes
    (P = C times the leading sizes) with a (F, P, k, k) kernel plus bias,
    as one GEMM over the im2col patches of all N samples. Returns the
    (F, N, OH, OW) output and the patches."""
    planes = x.reshape(-1, *x.shape[-3:])
    f, _, k, _ = w.shape
    n, h, wd = planes.shape[1:]
    cols = _im2col(planes, k)
    out = (w.reshape(f, -1) @ cols).reshape(f, n, h - k + 1, wd - k + 1)
    out += bias[:, None, None, None]
    return out, cols


def conv2d_forward(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Valid cross-correlation plus bias: (C, H, W) -> (F, H-k+1, W-k+1)."""
    _check_conv_input(x.shape, params.w.shape)
    return _correlate(x[:, None], params.w, params.bias)[0][:, 0]


# Hamilton product sign structure, written as the four-term expansion of
# each output plane: out[c] = sum of sign * correlate(x[b], W[a]).
_QCONV_TERMS = (
    ((0, 0, 1.0), (1, 1, -1.0), (2, 2, -1.0), (3, 3, -1.0)),
    ((0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, -1.0)),
    ((0, 2, 1.0), (1, 3, -1.0), (2, 0, 1.0), (3, 1, 1.0)),
    ((0, 3, 1.0), (1, 2, 1.0), (2, 1, -1.0), (3, 0, 1.0)),
)


def _hamilton_tables():
    """``_QCONV_TERMS`` as 4x4 tables. Indexed [output component, input
    component b]: the bank and sign of block (comp, b) of the block
    kernel. Indexed [output component, bank a]: the input component whose
    block gradient folds into bank a, and its sign."""
    bank, plane = np.zeros((2, 4, 4), dtype=np.intp)
    sign, fold_sign = np.zeros((2, 4, 4), dtype=np.float32)
    for comp, terms in enumerate(_QCONV_TERMS):
        for a, b, s in terms:
            bank[comp, b], sign[comp, b] = a, s
            plane[comp, a], fold_sign[comp, a] = b, s
    return bank, sign, plane, fold_sign


_BANK, _SIGN, _PLANE, _FOLD_SIGN = _hamilton_tables()
_COMPONENTS = np.arange(4)[:, None]


def _block_kernel(w: np.ndarray) -> np.ndarray:
    """The (4F, 4C, k, k) block kernel of (4, F, C, k, k) banks: one
    gather into (comp, F, b, C, k, k) order, times the sign table."""
    _, f, c, k, _ = w.shape
    block = w[_BANK[:, None, :], np.arange(f)[:, None]]
    block *= _SIGN[:, None, :, None, None, None]
    return block.reshape(4 * f, 4 * c, k, k)


def _fold_block(gw: np.ndarray, gblock: np.ndarray):
    """Add a (4F, 4C, k, k) block-kernel gradient into the (4, F, C, k, k)
    bank gradient ``gw``: one gather and a sign multiply, then one add
    per output component in component order."""
    _, f, c, k, _ = gw.shape
    terms = gblock.reshape(4, f, 4, c, k, k)[_COMPONENTS, :, _PLANE]
    terms *= _FOLD_SIGN[..., None, None, None, None]
    for term in terms:
        gw += term


def as_block_conv(params: QConvParams) -> ConvParams:
    """Assemble the equivalent real convolution on stacked planes.

    The quaternion convolution of C quaternion channels equals one real
    convolution of 4C planes with a (4F, 4C, k, k) kernel whose 4x4
    block structure carries the Hamilton signs. This is the form the
    quaternion layers run in; it also exports to real-conv runtimes.
    """
    return ConvParams(w=_block_kernel(params.w), bias=params.bias.reshape(-1).copy())


def qconv2d_forward(x: np.ndarray, params: QConvParams) -> np.ndarray:
    """Quaternion convolution: Hamilton product of filter and input at
    every tap of a valid cross-correlation, plus the quaternion bias.
    (4, C, H, W) component planes -> (4, F, H-k+1, W-k+1).
    """
    if x.ndim != 4 or x.shape[0] != 4:
        raise ValueError(f"quaternion input must have shape (4, C, H, W), got {x.shape}")
    _check_conv_input(x.shape[1:], params.w.shape[1:])
    block = as_block_conv(params)
    out = _correlate(x[:, :, None], block.w, block.bias)[0][:, 0]
    return out.reshape(4, -1, *out.shape[1:])


def _window_rows(x: np.ndarray, window: int) -> list[np.ndarray]:
    """The ``window`` strided views of (..., H, W), one per row offset of
    a pooling window, each holding whole rows. Trailing rows and columns
    that fill no whole window are dropped."""
    h, w = x.shape[-2:]
    if h < window or w < window:
        raise ValueError(f"spatial size {h}x{w} smaller than pool window {window}")
    rows, cols = window * (h // window), window * (w // window)
    return [x[..., di:rows:window, :cols] for di in range(window)]


def _pool_views(x: np.ndarray, window: int) -> list[np.ndarray]:
    """The window**2 strided views of (..., H, W), one per window offset in
    row-major order; view d holds element d of every pooling window."""
    return [row[..., dj::window] for row in _window_rows(x, window) for dj in range(window)]


# ---------------------------------------------------------------------------
# layer objects (forward caching + reverse-mode backward)


class Layer:
    """The interface every layer implements.

    ``forward`` takes a batch, with the sample axis third from last
    before flattening, and caches what ``backward`` needs; ``backward``
    takes the output gradient, accumulates into ``grad`` (summed over
    the batch) and returns the input gradient. A cache lives until the
    next ``forward`` replaces it, so a training loop reuses the same
    memory from chunk to chunk. ``theta`` and ``grad`` are the layer's
    flat parameter and gradient vectors; they are empty for a
    parameter-free layer.
    """

    theta = grad = np.zeros(0)

    def bind(self, theta: np.ndarray, grad: np.ndarray):
        """Make the flat ``theta`` and ``grad`` (slices of the model's) the
        layer's parameter and gradient vectors."""
        self.theta, self.grad = theta, grad

    def initialize(self, rng: np.random.Generator):
        """Draw initial parameter values from ``rng``."""

    @property
    def param_count(self) -> int:
        return self.theta.size


class _WeightedLayer(Layer):
    """A layer whose arrays (weight banks, then the bias) are views of
    its flat ``theta``, as a ``params`` container, with the same views
    of its flat ``grad`` as ``grads``. A layer built on its own owns its
    vectors until ``Model`` binds it to slices of the model's.
    Initialization is Glorot on the banks, zero bias."""

    def __init__(self, params_type, shapes, fan_in: int, fan_out: int, dtype):
        self.params_type, self.shapes = params_type, shapes
        self.fans = (fan_in, fan_out)
        n = sum(math.prod(shape) for shape in shapes)
        self.bind(np.zeros(n, dtype=dtype), np.zeros(n, dtype=dtype))
        self._cache = None

    def bind(self, theta: np.ndarray, grad: np.ndarray):
        super().bind(theta, grad)
        cuts = np.cumsum([math.prod(shape) for shape in self.shapes])[:-1]
        views = lambda flat: (part.reshape(shape)
                              for part, shape in zip(np.split(flat, cuts), self.shapes))
        self.params, self.grads = self.params_type(*views(theta)), self.params_type(*views(grad))

    def initialize(self, rng: np.random.Generator):
        w, bias = vars(self.params).values()
        # one bank at a time: QConv2d's (4, F, C, k, k) holds four
        for bank in w.reshape(-1, *w.shape[-4:]):
            bank[...] = glorot_uniform(rng, bank.shape, *self.fans, dtype=bank.dtype)
        bias[...] = 0


class _Correlation(_WeightedLayer):
    """Shared forward and backward of Conv2d and QConv2d: one im2col and
    one GEMM over the batch's stacked planes with the kernel from
    ``_kernel``; ``_fold`` adds that kernel's gradient into ``grads``.
    ``lead`` is the shape of the axes before (C, N, H, W): none for a real
    batch, the four quaternion components for a quaternion one."""

    lead = ()

    def __init__(self, params_type, bank_shape, in_channels: int, out_channels: int,
                 kernel_size: int, dtype):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        super().__init__(params_type, ((*bank_shape, *shape), (*bank_shape, out_channels)),
                         fan_in=in_channels * kernel_size ** 2,
                         fan_out=out_channels * kernel_size ** 2, dtype=dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        ndim = len(self.lead) + 4
        if x.ndim != ndim or x.shape[:-4] != self.lead:
            layout = ", ".join([*map(str, self.lead), "C", "N", "H", "W"])
            raise ValueError(
                f"{type(self).__name__} expects a {ndim}-d ({layout}) batch, got {x.shape}"
            )
        _check_conv_input(x.shape[-4:], self.params.w.shape[-4:])
        w, bias = self._kernel()
        out, cols = _correlate(x, w, bias)
        self._cache = (w, cols, x.shape)
        return out.reshape(*x.shape[:-4], -1, *out.shape[1:])

    def backward(self, g: np.ndarray, input_grad: bool = True):
        """``input_grad=False`` skips the input gradient and returns None,
        as the model's first layer does."""
        w, cols, x_shape = self._cache
        f, k = w.shape[0], w.shape[-1]
        gmat = g.reshape(f, -1)
        # the same dot products as gmat @ cols.T, and faster at 100x100
        self._fold((cols @ gmat.T).T.reshape(w.shape), gmat.sum(axis=1))
        if not input_grad:
            return None
        # With g zero-padded to the input width W, tap (di, dj) of flat
        # output position t lands on flat input position t + di*W + dj. The
        # taps that wrap past a row's end come from pad columns and add
        # exact zeros, so each input element gets the nonzero terms of a
        # per-tap strided scatter in the same (di, dj) order.
        n, h, wd = x_shape[-3:]
        oh, ow = h - k + 1, wd - k + 1
        gpad = np.zeros((f, n, oh, wd), dtype=g.dtype)
        gpad[..., :ow] = g.reshape(f, n, oh, ow)
        taps = (w.reshape(f, -1).T @ gpad.reshape(f, -1)).reshape(-1, k, k, n, oh * wd)
        gx = np.empty((taps.shape[0], n, h * wd), dtype=taps.dtype)
        gx[..., :oh * wd] = taps[:, 0, 0]
        gx[..., oh * wd:] = 0
        for d in range(1, k * k):
            di, dj = divmod(d, k)
            start = di * wd + dj
            span = min(oh * wd, h * wd - start)
            gx[..., start:start + span] += taps[:, di, dj, :, :span]
        return gx.reshape(x_shape)


class Conv2d(_Correlation):
    """Real valid correlation of a (C, N, H, W) batch -> (F, N, OH, OW)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 dtype=np.float32):
        super().__init__(ConvParams, (), in_channels, out_channels, kernel_size, dtype)

    def _kernel(self):
        return self.params.w, self.params.bias

    def _fold(self, gw: np.ndarray, gbias: np.ndarray):
        self.grads.w += gw
        self.grads.bias += gbias


class QConv2d(_Correlation):
    """Quaternion correlation of a (4, C, N, H, W) batch -> (4, F, N, OH, OW)
    as one block correlation over the 4C stacked planes. Its banks are
    one (4, F, C, k, k) view; Glorot is component-wise, with fans counted
    in quaternion channels."""

    lead = (4,)

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 dtype=np.float32):
        super().__init__(QConvParams, (4,), in_channels, out_channels, kernel_size, dtype)

    def _kernel(self):
        return _block_kernel(self.params.w), self.params.bias.reshape(-1)

    def _fold(self, gblock: np.ndarray, gbias: np.ndarray):
        _fold_block(self.grads.w, gblock)
        self.grads.bias += gbias.reshape(4, -1)


class MaxPool2d(Layer):
    """Per-plane max pooling of a square ``window``, with stride
    ``window``, over the last two axes of a real (C, N, H, W) or
    quaternion (4, C, N, H, W) batch."""

    def __init__(self, window: int = 2):
        self.window = window
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        row_max = reduce(np.maximum, _window_rows(x, self.window))
        out = reduce(np.maximum, [row_max[..., dj::self.window] for dj in range(self.window)])
        self._cache = (x, out)
        return out

    def backward(self, g: np.ndarray) -> np.ndarray:
        """Route each window's gradient to its first maximum in row-major
        order.

        ``free`` marks the windows whose maximum is still unclaimed. A
        window's maximum is one of its elements, so at the last offset
        every free window hits. Windows own disjoint input elements, so
        each offset writes its routed gradient straight into its strided
        view of ``gx``. ``out`` may since have been rectified in place:
        windows with a positive maximum still match it, and the others
        carry a zero gradient."""
        x, out = self._cache
        gx = np.empty(x.shape, dtype=g.dtype)
        rows, cols = (self.window * size for size in out.shape[-2:])
        gx[..., rows:, :] = gx[..., cols:] = 0
        views = _pool_views(x, self.window)
        gviews = _pool_views(gx, self.window)
        free = np.ones(out.shape, dtype=bool)
        hit = np.empty(out.shape, dtype=bool)
        for d, (view, gview) in enumerate(zip(views, gviews)):
            if d == len(views) - 1:
                hit = free
            else:
                np.equal(view, out, out=hit)
                if d:
                    hit &= free
                free ^= hit
            np.multiply(g, hit, out=gview)
        return gx


class ReLU(Layer):
    """Element-wise max(0, .), applied to every plane. ``forward``
    rectifies its input in place, in a model a max pool's output, and
    returns it; the mask for ``backward`` is read from that output."""

    def __init__(self):
        self._out = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.maximum(x, 0, out=x)
        return x

    def backward(self, g: np.ndarray) -> np.ndarray:
        return g * (self._out > 0)


class Flatten(Layer):
    """Batch -> (N, D) real rows in C order. Each sample of a quaternion
    (4, C, N, H, W) batch flattens component-major, then channel, row,
    column, so index ((comp*C + c)*H + h)*W + w of row n holds plane comp
    of element (c, h, w) of sample n."""

    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return np.moveaxis(x, -3, 0).reshape(x.shape[-3], -1)

    def backward(self, g: np.ndarray) -> np.ndarray:
        shape = self._shape
        moved = (shape[-3], *shape[:-3], *shape[-2:])
        return np.moveaxis(g.reshape(moved), 0, -3)


class Dense(_WeightedLayer):
    """Single-output dense layer: (N, D) rows -> (N,) logits v @ w + b."""

    def __init__(self, in_features: int, dtype=np.float32):
        self.in_features = in_features
        super().__init__(DenseParams, ((in_features,), ()), fan_in=in_features,
                         fan_out=1, dtype=dtype)

    def forward(self, v: np.ndarray) -> np.ndarray:
        if v.ndim != 2 or v.shape[1:] != self.params.w.shape:
            raise ValueError(
                f"input length {v.shape} does not match weights {self.params.w.shape}"
            )
        self._cache = v
        return v @ self.params.w + self.params.b

    def backward(self, g: np.ndarray) -> np.ndarray:
        v = self._cache
        self.grads.w += g @ v
        self.grads.b += g.sum()
        return np.outer(g, self.params.w)


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
    """Return (spec, out_channels, out_h, out_w, flat_len) rows per layer
    in declaration order, not ``Model.run_order``, validating the spatial
    arithmetic; flat_len is the flattened length once a flatten layer
    has run, else None. Raises ValueError on an inconsistent chain, or
    if the first layer is not a convolution, the one layer whose input
    gradient ``Model.backward`` may skip."""
    if not config.layers or config.layers[0].kind not in ("conv", "qconv"):
        first = config.layers[0].kind if config.layers else "none"
        raise ValueError(f"inconsistent config: first layer must be conv or qconv, got {first}")
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
            h, w = h // spec.pool, w // spec.pool
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
    counts = [layer.param_count for layer in Model(config).layers if layer.param_count]
    return counts, sum(counts)


# Bytes of float32 im2col patches one chunk may build in its largest conv
# layer. By trace_shapes, that layer is conv2 in all four reference
# configs: 288 x 81 floats (93,312 bytes) per sample at 24x24, and
# 288 x 2,209 floats (2,544,768 bytes) at 100x100. This budget holds eight
# 24x24 samples and less than one 100x100 sample.
IM2COL_BUDGET = 8 * 93_312


def chunk_size(config: ModelConfig, batch_size: int) -> int:
    """How many samples of a ``batch_size`` batch go through the model in
    one forward and one backward: the most, up to ``batch_size``, whose
    largest per-layer float32 im2col matrix fits in ``IM2COL_BUDGET``,
    and at least one. For the four reference configs that is
    min(batch_size, 8) at 24x24 and 1 at 100x100.
    """
    planes = 4 if config.arithmetic == "quaternion" else 1
    channels, per_sample = config.in_channels, 0
    for spec, out_channels, h, w, _ in trace_shapes(config):
        if spec.kind in ("conv", "qconv"):
            rows = planes * channels * spec.kernel ** 2
            per_sample = max(per_sample, 4 * rows * h * w)
        channels = out_channels
    fits = IM2COL_BUDGET // per_sample if per_sample else batch_size
    return max(1, min(batch_size, fits))


# ---------------------------------------------------------------------------
# the sequential model

# layer kind -> constructor(spec, in_channels, flat_len, dtype); the kinds
# and their shape rules are validated by trace_shapes
_LAYER_BUILDERS = {
    "conv": lambda spec, c, flat, dtype: Conv2d(c, spec.filters, spec.kernel, dtype),
    "qconv": lambda spec, c, flat, dtype: QConv2d(c, spec.filters, spec.kernel, dtype),
    "relu": lambda spec, c, flat, dtype: ReLU(),
    "maxpool": lambda spec, c, flat, dtype: MaxPool2d(spec.pool),
    "flatten": lambda spec, c, flat, dtype: Flatten(),
    "dense": lambda spec, c, flat, dtype: Dense(flat, dtype),
}


class Model:
    """Sequential network built from a ModelConfig.

    All trainable parameters live in one flat ``theta`` and their
    gradients in one flat ``grad``, both in the model's dtype and in
    declaration order; each weighted layer's arrays are views of its
    slice. Forward keeps per-layer caches so one backward sweep
    accumulates the exact reverse-mode gradients into ``grad``, summed
    over the batch. A real model takes a (C, N, H, W) batch array and a
    quaternion model a (4, C, N, H, W) one. ``run_order`` is ``layers``
    with each ReLU that feeds a max pool moved after it; forward runs
    it, and backward its reverse.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.layers: list[Layer] = []
        in_channels = config.in_channels
        for spec, channels, _, _, flat in trace_shapes(config):
            self.layers.append(_LAYER_BUILDERS[spec.kind](spec, in_channels, flat, dtype))
            in_channels = channels
        cuts = np.cumsum([layer.param_count for layer in self.layers])
        self.theta = np.zeros(cuts[-1], dtype=self.dtype)
        self.grad = np.zeros_like(self.theta)
        for layer, theta, grad in zip(self.layers, np.split(self.theta, cuts),
                                      np.split(self.grad, cuts)):
            layer.bind(theta, grad)
        self.run_order = list(self.layers)
        for i in range(len(self.run_order) - 1):
            relu, pool = self.run_order[i:i + 2]
            if isinstance(relu, ReLU) and isinstance(pool, MaxPool2d):
                self.run_order[i:i + 2] = pool, relu
        if rng is not None:
            self.initialize(rng)

    def initialize(self, rng: np.random.Generator):
        for layer in self.layers:
            layer.initialize(rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(N,) logits of a batch whose sample axis is third from last.
        The first layer, a convolution, checks the batch's layout and
        only reads ``x``."""
        spatial = x.shape[-2:]
        if spatial != (self.config.input_size, self.config.input_size):
            raise ValueError(
                f"input spatial size {spatial} does not match configured "
                f"{self.config.input_size}"
            )
        h = x.astype(self.dtype, copy=False)
        for layer in self.run_order:
            h = layer.forward(h)
        return h

    def backward(self, dlogits) -> None:
        """Accumulate the parameter gradients of the last forward, given
        dloss/dlogit per sample. The first layer's input gradient is not
        computed: no caller needs it."""
        g = np.asarray(dlogits, dtype=self.dtype).reshape(-1)
        for layer in self.run_order[:0:-1]:
            g = layer.backward(g)
        self.run_order[0].backward(g, input_grad=False)

    def zero_grads(self):
        self.grad.fill(0)

    @property
    def param_count(self) -> int:
        return self.theta.size


# ---------------------------------------------------------------------------
# serialization: a fixed header, then theta as one little-endian float32 blob

_MAGIC = b"QVCN"
_VERSION = 1
_HEADER = struct.Struct("<4sI32s")  # magic, version, config digest


def config_digest(config: ModelConfig) -> bytes:
    """sha256 over the canonical JSON form of the config."""
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).digest()


@contextmanager
def atomic_write(path):
    """Yield a binary handle on a temporary file beside ``path`` and move
    it over ``path`` when the block completes. If the block raises, the
    previous file is left as it was and the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_model(path, model: Model) -> None:
    """Write the model container to ``path`` atomically: magic, version,
    config digest, then ``theta`` (every parameter array in declaration
    order) as one little-endian float32 blob."""
    with atomic_write(path) as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, config_digest(model.config)))
        fh.write(np.asarray(model.theta, dtype="<f4").tobytes())


def load_model(path, config: ModelConfig, dtype=np.float32) -> Model:
    """Rebuild a Model from the container; the config must match the
    digest recorded at save time, and the blob must hold exactly its
    parameters."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise ValueError("file truncated")
    magic, version, digest = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("not a model container (bad magic)")
    if version != _VERSION:
        raise ValueError(f"unsupported container version {version}")
    if digest != config_digest(config):
        raise ValueError("config digest mismatch: file was saved from a different config")
    model = Model(config, rng=None, dtype=dtype)
    blob = data[_HEADER.size:]
    if len(blob) < 4 * model.theta.size:
        raise ValueError("file truncated")
    if len(blob) > 4 * model.theta.size:
        raise ValueError("trailing bytes after parameter blob")
    model.theta[...] = np.frombuffer(blob, dtype="<f4")
    return model
