"""Network layers: forward passes, reverse-mode backward passes, the
two reference architectures, and the model container.

Every layer implements the one ``Layer`` interface. The reference
architectures are rows of ``_ARCHITECTURES``, which one builder makes
into configs. ``trace_shapes`` is the one shape rule for a config, and
``Model`` builds each (convolution, ReLU, max pool) block, then flatten
and dense, from its rows and the convolution class of its arithmetic.
A model's parameters are one flat ``theta`` and their gradients one flat
``grad``, in declaration order. A weighted layer's ``w`` and ``bias``
are reshaped views of its slice of ``theta``, and its ``grad_w`` and
``grad_bias`` the same views of ``grad``; a quaternion layer's four
weight banks are one (4, F, C, k, k) view. The layers are the one way
to run a convolution.

Layers run on batches of samples with the sample axis last: a real
batch is (C, H, W, N) and a quaternion batch (4, C, H, W, N). In this
layout the im2col copy of a batch and the GEMM output need no
transposes, every run the im2col and col2im copies move is contiguous
across the samples, and a batch of one costs what a single sample does.
``Flatten`` returns a (D, N) view and ``Dense`` returns (N,) logits.
``Model.forward`` takes one batch in the layout of ``train.Samples``,
with the sample axis third from last, checks it as given, moves that
axis last once per batch and returns its (N,) logits.

Real convolutions are valid cross-correlations (no kernel flip, no
padding, stride 1) built on an im2col + matmul core: one im2col and one
GEMM per batch.
A ``Model`` is a chain of (convolution, ReLU, max pool) blocks, and in
it each convolution is pool-major: for its block's pool of window p,
its im2col columns are the p*(OH//p) x p*(OW//p) output positions that
the pool reads, in (window row offset, window column offset, row,
column, sample) order, so the GEMM writes an (F, p, p, PH, PW, N)
output, (4, F, p, p, PH, PW, N) for a quaternion layer. A standalone
convolution, built without a pool window, runs as p = 1 and keeps the
raster (F, OH, OW, N) output with its bias and the single im2col copy.
The input gradient is the transposed GEMM on the output gradient in
raster order, with the p*p offset blocks put back by one strided copy
each, scattered back with one add per tap, in one of two forms. The
compact form runs on just the p*PH x p*PW positions the pool reads and
adds each tap into a zeroed input gradient as one 2-D strided add. The
flat form runs on the output gradient zero-padded to OH rows of the
input width and adds each tap as one contiguous add over the flat
(P, H*W*N) planes; the taps that wrap past a row's end, and those of
positions no pool reads, fall on the pad and add exact zeros. The
compact form skips that pad, (W - p*PW)*N floats per pooled row, but
its adds pay per row; it runs where the pad is 12 floats or more, so
at 24x24 on chunks of 4 or more (conv2) and 8 or more (conv3), and the
100x100 path keeps the flat form. Both add the taps in the same order,
but from GEMMs of other shapes, which Haswell sgemm (unlike SkylakeX
and Sandybridge) rounds otherwise: there ``_PAD_FLOATS`` moves results,
as ``IM2COL_BUDGET`` does.
The patch matrix carries one extra row of ones, which the forward GEMM
does not read, so the weight-gradient GEMM yields the bias gradient as
its last row. That GEMM sums its long inner dimension (OH*OW*N) in
fixed blocks of 512, added in order, so a trained model has the same
bits at one and two BLAS threads. The quaternion convolution runs on
the same core as one real GEMM over the 4C stacked component planes,
with the (4F, 4C, k, k) block kernel gathered from the banks stacked on
their negatives through one 4x4 signed-bank table built from
``quat.hamilton`` on the four unit quaternions, once per parameter
state: a layer keeps the kernel with the bits of the banks it was
gathered from, and gathers again only when the banks' bits differ, so
every write to ``theta`` is seen and the chunks between two optimizer
steps share one kernel. Its weight gradient folds back into the banks
through the inverse plane and sign tables, once per batch.
``as_block_conv`` returns that block kernel as the equivalent
``Conv2d``. A batch whose real plane is all zero, a pure quaternion as
the rgb encoding makes, runs on its 3C imaginary planes alone: one
``any`` over the real plane decides it per batch, and the GEMM leaves
out the block kernel's first C columns (input component 0), which would
meet exact zeros. So the first layer of qvcnn-rgb runs its forward GEMM
at K = 27, not 36, and its weight-gradient GEMM on 28 rows, not 37; the
fold puts exact zeros where the real plane's blocks were, and an input
gradient still takes its taps from the whole block kernel, so it keeps
its four planes. The bits are the full path's under SkylakeX and
Sandybridge sgemm; Haswell sgemm rounds the two inner sizes otherwise.

A max pool reads its window and bias from its block's convolution, built
with that window, and takes only the convolution's pool-major output. It
takes the maximum over the window**2 contiguous blocks of that output,
one per window offset, into one array in offset order, with the stride
equal to the window, so windows never overlap. The reference configs
use a 2x2 window and drop trailing odd rows/columns, which is what
makes a 100x100 input flow 100 -> 98 -> 49 -> 47 -> 23 -> 21 -> 10 and
feed the dense layer exactly 12,800 values in both architectures; a
pool-major convolution does not compute the dropped rows and columns
at all, and its input gradient takes nothing from them. The pool's
backward routes each window's gradient to the window's first maximum
in row-major order, one pass over the window offsets, each writing
straight into its block of the input gradient.

A pool-major convolution adds no bias: the pool of its block adds the
bias to the maxima, a quarter of the elements, and then applies the
block's ReLU in place, so the ReLUs leave ``Model.run_order``; configs
and ``Model.layers`` keep declaration order. On the same convolution
output the bits are kept: rounding is monotone, so adding a per-channel
constant commutes with the maximum and with ReLU. The pool's backward
starts with the windows whose maximum exceeds minus the bias, which is
exactly fl(max + bias) > 0, and routes each one's gradient to its first
maximum before the bias; a window whose elements the bias rounds to
one value sends it to its maximum, not to its first element. The pool
caches its input and the maxima before the bias. A pass in declaration
order through raster convolutions with their bias, a ReLU and a raster
max pool gives the same logits, bit for bit where BLAS rounds a GEMM
alike at both shapes (not Haswell sgemm); the tests build that
reference from standalone convolutions and their own pooling oracle.

How many samples go through at once is ``chunk_size``: the most, up to
the batch size, whose largest per-layer float32 im2col matrix, counted
over the full valid convolution output, fits in ``IM2COL_BUDGET`` bytes.
The budget fixes only the chunk size; it does not bound the memory of
a step. The patches go into a buffer each convolution keeps from chunk
to chunk, and the backward's input-gradient taps go over them once the
weight gradient is taken, so that buffer holds the larger of the two:
conv2's is 1,824,768 bytes at 24x24 (chunk 16) and 2,653,056 bytes at
100x100 in both architectures. A pooled im2col's gathered planes are a
temporary of the forward. The budget gives chunks of 16 at 24x24, so a
minibatch of 16 runs as one forward and one backward. At 100x100 one
sample's conv2 patches (2.5 MB) already exceed it, so the paper-size
path runs one sample per chunk. The budget stays fixed: another value
would move the chunk sizes, and with them the summation order and the
results.

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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import quat

__all__ = [
    "glorot_uniform",
    "Layer",
    "Conv2d",
    "QConv2d",
    "as_block_conv",
    "MaxPool2d",
    "ReLU",
    "Flatten",
    "Dense",
    "LayerSpec",
    "ModelConfig",
    "config_from_name",
    "CONFIG_NAMES",
    "trace_shapes",
    "count_parameters",
    "IM2COL_BUDGET",
    "chunk_size",
    "Model",
    "config_digest",
    "atomic_write",
    "write_csv",
    "save_model",
    "load_model",
]


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int,
                   dtype=np.float32) -> np.ndarray:
    """Uniform samples in [-L, L] with L = sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fans must be >= 1, got fan_in={fan_in}, fan_out={fan_out}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


# ---------------------------------------------------------------------------
# correlation core, shared by the real and quaternion convolutions


def _im2col(x: np.ndarray, k: int, p: int, buf: np.ndarray) -> np.ndarray:
    """(C, H, W, N) -> (C*k*k + 1, p*p*PH*PW*N) patch matrix of a valid
    correlation, copied into the front of the flat buffer ``buf``; its
    last row is ones, so the weight-gradient GEMM also yields the bias
    gradient. Its columns are the p*PH x p*PW output positions that a max
    pool of window p reads (PH = OH//p, PW = OW//p), in (window row offset
    a, window column offset b, PH, PW, N) order: column ((a*p + b)*PH +
    i)*PW + j)*N + n holds the patch of output (p*i + a, p*j + b) of
    sample n. At p = 1 that is raster (OH, OW, N) order, in one copy whose
    runs are OW*N contiguous floats. At p > 1 the (k+p-1)**2 shifted input
    planes are first gathered into one temporary array, so that the copy
    into ``buf`` moves contiguous blocks of PH*PW*N floats."""
    c, h, w, n = x.shape
    ph, pw = (h - k + 1) // p, (w - k + 1) // p
    span = k + p - 1
    s0, s1, s2, s3 = x.strides
    # plane (u, v) holds input element (u + p*i, v + p*j) at (i, j)
    planes = np.lib.stride_tricks.as_strided(
        x, shape=(c, span, span, ph, pw, n), strides=(s0, s1, s2, p * s1, p * s2, s3)
    )
    if p > 1:
        planes = planes.copy()
    t0, t1, t2, t3, t4, t5 = planes.strides
    windows = np.lib.stride_tricks.as_strided(
        planes, shape=(c, k, k, p, p, ph, pw, n), strides=(t0, t1, t2, t1, t2, t3, t4, t5)
    )
    rows, size = c * k * k, p * p * ph * pw * n
    cols = buf[:(rows + 1) * size].reshape(rows + 1, size)
    np.copyto(cols[:rows].reshape(windows.shape), windows)
    cols[rows] = 1
    return cols


# The inner-dimension block of the weight-gradient GEMMs. Multithreaded
# OpenBLAS sums a long inner dimension in another order than one thread
# does; blocks of 512 are summed the same way at one and two threads.
_K_BLOCK = 512


def _weight_grad(cols: np.ndarray, gmat: np.ndarray) -> np.ndarray:
    """The (M, F) product ``cols @ gmat.T`` of the (M, K) patches and the
    (F, K) output gradient, with the same sums at one and two BLAS threads:
    the GEMMs of K's whole ``_K_BLOCK``-wide blocks run in a single
    ``matmul`` call and are added in block order, and their sum is added
    to the GEMM of the tail, which below K = ``_K_BLOCK`` is all of K."""
    (m, k), f = cols.shape, gmat.shape[0]
    ka = k // _K_BLOCK * _K_BLOCK
    out = cols[:, ka:] @ gmat[:, ka:].T
    if ka:  # summing no blocks would still allocate and add an (M, F) zero array
        out += np.add.reduce(np.matmul(cols[:, :ka].reshape(m, -1, _K_BLOCK).transpose(1, 0, 2),
                                       gmat[:, :ka].reshape(f, -1, _K_BLOCK).transpose(1, 2, 0)),
                             axis=0)
    return out


def _correlate(x: np.ndarray, w: np.ndarray, p: int, buf: np.ndarray):
    """Valid correlation of the (..., C, H, W, N) input's P stacked planes
    (P = C times the leading sizes) with a (F, P, k, k) kernel, without
    bias, as one GEMM over the im2col patches of all N samples, which are
    copied into ``buf``, in the column order of ``_im2col`` for a pool
    window p. Returns the (F, p*p*PH*PW*N) output and the patches with
    their row of ones, which the GEMM does not read."""
    f, _, k, _ = w.shape
    cols = _im2col(x.reshape(-1, *x.shape[-3:]), k, p, buf)
    # The GEMM skips the row of ones. Reading it would add the bias here
    # (K = P*k*k + 1), but OpenBLAS 0.3.31 sgemm sums some inner sizes in
    # another order at two threads than at one: K = 500, 513, 577, 600, 700
    # and 769 give other bits, K = 27, 28, 256, 288, 289, 384, 400, 511,
    # 512, 576, 640 and 768 the same. conv3 would run at K = 577, and a
    # trained model would depend on the BLAS thread count.
    return w.reshape(f, -1) @ cols[:-1], cols


# The fewest floats of pad per pooled row, (W - p*PW)*N, at which a
# convolution's input gradient leaves out the output positions its pool
# does not read. Below it, the flat form's contiguous shifted adds cost
# less than the nine 2-D adds of short rows; at 24x24 that holds for
# chunks of 1-2 (conv2) and 1-4 (conv3) samples, and at 100x100 always.
_PAD_FLOATS = 12


def _grad_raster(h: int, w: int, k: int, p: int, n: int) -> tuple[int, int]:
    """(rows, columns) of the output-gradient raster on which the input
    gradient of a k x k correlation of an (H, W) input, pooled by window
    p, runs its taps GEMM for N samples: the p*PH x p*PW positions that
    the pool reads, or, where they leave fewer than ``_PAD_FLOATS``
    floats of pad per row, the OH x W zero-padded raster of the flat
    form. Haswell sgemm rounds the two forms' GEMMs differently."""
    oh, ow = h - k + 1, w - k + 1
    cols = p * (ow // p)
    if (w - cols) * n < _PAD_FLOATS:
        return oh, w
    return p * (oh // p), cols


def _hamilton_tables():
    """The sign pattern of ``quat.hamilton`` as 4x4 tables. The product of
    filter unit e_a and input unit e_b is sign * e_comp, so output plane
    comp gets sign * correlate(x[b], W[a]). Indexed [output component,
    input component b]: block (comp, b) of the block kernel as an index
    into the banks stacked on their negatives, bank a or, where the sign
    is -1, 4 + a. Indexed [output component, bank a]: the input component
    b whose block gradient folds into bank a, and its sign."""
    signed_bank, plane = np.zeros((2, 4, 4), dtype=np.intp)
    fold_sign = np.zeros((4, 4), dtype=np.float32)
    units = (quat.ONE, quat.I, quat.J, quat.K)
    for a, filter_unit in enumerate(units):
        for b, input_unit in enumerate(units):
            product = quat.hamilton(filter_unit, input_unit).components()
            comp = next(i for i, value in enumerate(product) if value)
            signed_bank[comp, b] = a if product[comp] > 0 else 4 + a
            plane[comp, a], fold_sign[comp, a] = b, product[comp]
    return signed_bank, plane, fold_sign


_SIGNED_BANK, _PLANE, _FOLD_SIGN = _hamilton_tables()
_COMPONENTS = np.arange(4)[:, None]


def _block_kernel(w: np.ndarray) -> np.ndarray:
    """The (4F, 4C, k, k) block kernel of (4, F, C, k, k) banks: one
    gather into (comp, F, b, C, k, k) order from the banks and their
    negatives, which ``np.negative`` makes exactly."""
    _, f, c, k, _ = w.shape
    block = np.concatenate((w, np.negative(w)))[_SIGNED_BANK[:, None, :], np.arange(f)[:, None]]
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


def _pool_views(x: np.ndarray, window: int) -> list[np.ndarray]:
    """The window**2 contiguous (..., PH, PW, N) blocks of a pool-major
    (..., window, window, PH, PW, N) batch, one per window offset in
    row-major order; block d holds element d of every pooling window."""
    return [x[..., a, b, :, :, :] for a in range(window) for b in range(window)]


# ---------------------------------------------------------------------------
# layer objects (forward caching + reverse-mode backward)


class Layer:
    """The interface every layer implements.

    ``forward`` takes a batch, with the sample axis last, and caches
    what ``backward`` needs; ``backward``
    takes the output gradient, accumulates into ``grad`` (summed over
    the batch) and returns the input gradient. A cache serves one
    ``backward`` and lives at most until the next ``forward``; a
    ``backward`` with no forward of its own raises RuntimeError. A
    convolution keeps its patches in a buffer that it reuses from batch
    to batch, so a training loop does not allocate them per chunk, and
    a max pool frees its cache before it allocates the next batch's.
    ``theta`` and ``grad`` are the layer's flat parameter and gradient
    vectors; they are empty for a parameter-free layer.
    """

    theta = grad = np.zeros(0)
    _cache = None

    def bind(self, theta: np.ndarray, grad: np.ndarray):
        """Make the flat ``theta`` and ``grad`` (slices of the model's) the
        layer's parameter and gradient vectors."""
        self.theta, self.grad = theta, grad

    def initialize(self, rng: np.random.Generator):
        """Draw initial parameter values from ``rng``."""

    @property
    def param_count(self) -> int:
        return self.theta.size

    def _forward_cache(self):
        """What the last ``forward`` cached for ``backward``; raises if none."""
        if self._cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward needs a forward of its own")
        return self._cache


class _WeightedLayer(Layer):
    """A layer whose weights ``w`` and ``bias`` are views of its flat
    ``theta``, in that order, and whose ``grad_w`` and ``grad_bias`` are
    the same views of its flat ``grad``. A layer built on its own owns
    its vectors until ``Model`` binds it to slices of the model's.
    Initialization is Glorot on the banks, zero bias."""

    def __init__(self, w_shape, bias_shape, fan_in: int, fan_out: int, dtype):
        self.shapes = (w_shape, bias_shape)
        self.fans = (fan_in, fan_out)
        n = math.prod(w_shape) + math.prod(bias_shape)
        self.bind(np.zeros(n, dtype=dtype), np.zeros(n, dtype=dtype))

    def bind(self, theta: np.ndarray, grad: np.ndarray):
        super().bind(theta, grad)
        w_shape, bias_shape = self.shapes
        cut = math.prod(w_shape)
        self.w, self.bias = theta[:cut].reshape(w_shape), theta[cut:].reshape(bias_shape)
        self.grad_w, self.grad_bias = grad[:cut].reshape(w_shape), grad[cut:].reshape(bias_shape)

    def initialize(self, rng: np.random.Generator):
        # one bank at a time: QConv2d's (4, F, C, k, k) holds four
        for bank in self.w.reshape(-1, *self.w.shape[-4:]):
            bank[...] = glorot_uniform(rng, bank.shape, *self.fans, dtype=bank.dtype)
        self.bias[...] = 0


class _Correlation(_WeightedLayer):
    """Shared forward and backward of Conv2d and QConv2d: one im2col and
    one GEMM over the batch's stacked planes with the kernel from
    ``_kernel``, or over the planes and kernel columns that ``_operands``
    keeps of them; ``_fold`` adds the gradient of those columns into
    ``grad_w`` and ``grad_bias``. ``lead`` is the shape of the axes before
    (C, H, W, N), and of the weight and bias axes before (F, C, k, k) and
    (F,): none for a real layer, the four quaternion components for a
    quaternion one; ``kind`` is its ``LayerSpec`` kind, and
    ``image_channels`` an encoded image's channels. ``pool``, fixed
    when the layer is built, is the window of its block's max pool, which
    adds the bias; None gives a standalone layer's raster output with it."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 dtype=np.float32, *, pool: int | None = None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.pool = pool
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        super().__init__((*self.lead, *shape), (*self.lead, out_channels),
                         fan_in=in_channels * kernel_size ** 2,
                         fan_out=out_channels * kernel_size ** 2, dtype=dtype)
        self._buf = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        ndim = len(self.lead) + 4
        if x.ndim != ndim or x.shape[:-4] != self.lead:
            layout = ", ".join([*map(str, self.lead), "C", "H", "W", "N"])
            raise ValueError(
                f"{type(self).__name__} expects a {ndim}-d ({layout}) batch, got {x.shape}"
            )
        c, h, wd, n = x.shape[-4:]
        k = self.kernel_size
        if c != self.in_channels:
            raise ValueError(f"input has {c} channels, kernel expects {self.in_channels}")
        if h < k or wd < k:
            raise ValueError(f"spatial size {h}x{wd} smaller than kernel {k}x{k}")
        w, bias = self._kernel()
        planes, kernel = self._operands(x, w)
        p = self.pool or 1
        oh, ow = h - k + 1, wd - k + 1
        ph, pw = oh // p, ow // p
        # The patches and their row of ones, P*k*k + 1 rows of p*p*PH*PW*N,
        # and the taps that backward writes over them, with the full
        # kernel's P*k*k rows of at most OH*W*N. The buffer is kept from
        # batch to batch, so the largest arrays of a training step are not
        # allocated per chunk.
        size = max(w[0].size * oh * wd, (kernel[0].size + 1) * p * p * ph * pw) * n
        dtype = np.result_type(x, w)
        if self._buf is None or self._buf.size < size or self._buf.dtype != dtype:
            self._buf = np.empty(size, dtype)
        out, cols = _correlate(planes, kernel, p, self._buf)
        self._cache = (w, cols, x.shape)
        if self.pool is None:
            out += bias[:, None]
            return out.reshape(*self.lead, -1, oh, ow, n)
        # the pool adds the bias to its maxima
        return out.reshape(*self.lead, -1, p, p, ph, pw, n)

    def _operands(self, x: np.ndarray, w: np.ndarray):
        return x, w

    def backward(self, g: np.ndarray, input_grad: bool = True):
        """``input_grad=False`` skips the input gradient and returns None,
        as the model's first layer does. Each forward takes one backward:
        the input gradient's taps overwrite the cached patches. ``g`` is in
        the layout of the output, so its (F, K) matrix is a reshape. The
        patches' row of ones makes the last row of the weight-gradient
        GEMM the bias gradient."""
        w, cols, x_shape = self._forward_cache()
        self._cache = None
        f, k = w.shape[0], w.shape[-1]
        grads = _weight_grad(cols, g.reshape(f, -1))
        self._fold(grads[:-1].T.reshape(f, -1, k, k), grads[-1])
        if not input_grad:
            return None
        # The taps GEMM runs on g put back in raster order, with each of
        # the p*p offset blocks in one strided copy, in one of two forms
        # that ``_grad_raster`` picks from the shapes alone:
        # - compact: the p*PH x p*PW positions the pool reads, and one 2-D
        #   strided add per tap (di, dj) into a zeroed input gradient.
        # - flat: g zero-padded to OH rows of the input width W, so tap
        #   (di, dj) of flat output position t lands on flat input position
        #   t + (di*W + dj)*N, one contiguous add per tap. The taps that
        #   wrap past a row's end, and those of the positions no pool
        #   window reads, come from the pad and add exact zeros.
        # Either way each input element adds its taps in the same (di, dj)
        # order; the taps' bits are the GEMM's (see ``_grad_raster``).
        h, wd, n = x_shape[-3:]
        p = self.pool or 1
        oh, ow = h - k + 1, wd - k + 1
        ph, pw = oh // p, ow // p
        rows, cols = _grad_raster(h, wd, k, p, n)
        flat = cols == wd  # the compact raster is narrower than the input
        graster = (np.zeros if flat else np.empty)((f, rows, cols, n), dtype=g.dtype)
        offsets = g.reshape(f, p, p, ph, pw, n)
        for a in range(p):
            for b in range(p):
                graster[:, a:p * ph:p, b:p * pw:p] = offsets[:, a, b]
        wt = w.reshape(f, -1).T
        size = rows * cols * n
        taps = self._buf[:wt.shape[0] * size].reshape(wt.shape[0], -1)
        if taps.dtype != np.result_type(wt, graster):
            taps = None  # a g of another dtype gets a fresh product in its own dtype
        taps = np.matmul(wt, graster.reshape(f, -1), out=taps)
        if not flat:
            taps = taps.reshape(-1, k, k, rows, cols, n)
            gx = np.zeros((taps.shape[0], h, wd, n), dtype=taps.dtype)
            for di in range(k):
                for dj in range(k):
                    gx[:, di:di + rows, dj:dj + cols] += taps[:, di, dj]
            return gx.reshape(x_shape)
        taps = taps.reshape(-1, k, k, size)
        gx = np.empty((taps.shape[0], h * wd * n), dtype=taps.dtype)
        gx[:, :size] = taps[:, 0, 0]
        gx[:, size:] = 0
        for d in range(1, k * k):
            di, dj = divmod(d, k)
            start = (di * wd + dj) * n
            span = min(size, gx.shape[1] - start)
            gx[:, start:start + span] += taps[:, di, dj, :span]
        return gx.reshape(x_shape)


class Conv2d(_Correlation):
    """Real valid correlation of a (C, H, W, N) batch -> (F, OH, OW, N),
    with an (F, C, k, k) kernel ``w`` and F biases."""

    kind, lead, image_channels = "conv", (), 3

    def _kernel(self):
        return self.w, self.bias

    def _fold(self, gw: np.ndarray, gbias: np.ndarray):
        self.grad_w += gw
        self.grad_bias += gbias


class QConv2d(_Correlation):
    """Quaternion correlation of a (4, C, H, W, N) batch -> (4, F, OH, OW, N):
    the Hamilton product of filter and input at every tap, plus the
    quaternion bias, run as one block correlation over the 4C stacked
    planes. ``w`` holds the four real kernel banks, one per quaternion
    component of the filter, as one (4, F, C, k, k) view, and ``bias``
    the F quaternion biases as (4, F). Glorot is component-wise, with
    fans counted in quaternion channels. The block kernel is built once
    per parameter state: it is kept with the bits of the banks it came
    from and gathered again when they differ. A batch whose real plane
    is all zero runs on its 3C imaginary planes and the block kernel's
    last 3C columns: its output and weight gradient are those of the 4C
    planes where BLAS rounds the shorter GEMMs alike, and its input
    gradient keeps its four planes."""

    kind, lead, image_channels = "qconv", (4,), 1
    _block = _block_bits = None

    def _kernel(self):
        # The block kernel depends on the banks alone, so it is gathered
        # again only when their bits differ from those it was built from:
        # any write to theta shows, a bank turned from +0 to -0 included.
        # Each rebuild makes a new array, and nothing writes into one, so
        # a cache or a caller that holds the previous kernel keeps it.
        bits = self.w.tobytes()
        if bits != self._block_bits:
            self._block, self._block_bits = _block_kernel(self.w), bits
        return self._block, self.bias.reshape(-1)

    def _operands(self, x: np.ndarray, w: np.ndarray):
        # A batch whose real plane is all zero, a pure quaternion, meets
        # the block kernel's first C columns (input component b = 0) with
        # exact zeros only: the GEMM runs without both.
        if x[0].any():
            return x, w
        return x[1:], w[:, self.in_channels:]

    def _fold(self, gblock: np.ndarray, gbias: np.ndarray):
        c = self.in_channels
        if gblock.shape[1] < 4 * c:  # a pure forward's: its b = 0 blocks are exact zeros
            gblock = np.concatenate([np.zeros_like(gblock[:, :c]), gblock], axis=1)
        _fold_block(self.grad_w, gblock)
        self.grad_bias += gbias.reshape(4, -1)


def as_block_conv(layer: QConv2d) -> Conv2d:
    """The real convolution equal to a quaternion one.

    The quaternion convolution of C quaternion channels equals one real
    convolution of the 4C stacked component planes with a (4F, 4C, k, k)
    kernel whose 4x4 block structure carries the Hamilton signs, and the
    4F component biases. This is the form ``QConv2d`` runs in; the
    returned ``Conv2d`` owns copies of that kernel and bias, so it also
    exports to real-conv runtimes.
    """
    conv = Conv2d(4 * layer.in_channels, 4 * layer.out_channels, layer.kernel_size,
                  dtype=layer.theta.dtype)
    conv.w[...], conv.bias[...] = layer._kernel()
    return conv


class MaxPool2d(Layer):
    """Per-plane max pooling of the pool-major output of the convolution
    ``conv`` of its block, with ``conv.pool`` as square window and stride:
    a real (F, window, window, PH, PW, N) or quaternion
    (4, F, window, window, PH, PW, N) batch without the bias, which the
    pool adds to its maxima before it applies the block's ReLU to them in
    place. The output is the (..., PH, PW, N) raster of the rectified
    maxima. A ``conv`` built without a window raises ValueError."""

    def __init__(self, conv: _Correlation):
        if conv.pool is None:
            raise ValueError(f"MaxPool2d needs a convolution built with a pool window, "
                             f"got a {type(conv).__name__} with pool=None")
        self.conv = conv

    window = property(lambda self: self.conv.pool)

    def forward(self, x: np.ndarray) -> np.ndarray:
        # the previous batch's input and maxima go before this batch's
        # are allocated, into the memory they free
        self._cache = None
        views = _pool_views(x, self.window)
        # in offset order, into one array: max(-0, +0) depends on the order
        peak = np.maximum(views[0], views[1]) if len(views) > 1 else views[0].copy()
        for view in views[2:]:
            np.maximum(peak, view, out=peak)
        self._cache = (x, peak)
        out = np.add(peak, self.conv.bias[..., None, None, None])
        return np.maximum(out, 0, out=out)

    def backward(self, g: np.ndarray) -> np.ndarray:
        """Route each window's gradient to its first maximum in row-major
        order, in the layout of the input.

        ``free`` marks the windows whose maximum is still unclaimed. A
        window's maximum is one of its elements, so at the last offset
        every free window hits. Windows own disjoint input elements, so
        each offset writes its routed gradient straight into its block of
        ``gx``. A window starts free only if its rectified output is
        positive: max + bias > 0 in exact arithmetic, which rounding
        keeps, so the test is max > -bias."""
        x, peak = self._forward_cache()
        gx = np.empty(x.shape, dtype=g.dtype)
        free = np.greater(peak, np.negative(self.conv.bias[..., None, None, None]))
        views, gviews = _pool_views(x, self.window), _pool_views(gx, self.window)
        hit = np.empty(peak.shape, dtype=bool)
        for d, (view, gview) in enumerate(zip(views, gviews)):
            if d == len(views) - 1:
                hit = free
            else:
                np.equal(view, peak, out=hit)
                hit &= free
                free ^= hit
            np.multiply(g, hit, out=gview)
        return gx


class ReLU(Layer):
    """Element-wise max(0, .), applied to every plane. ``forward``
    rectifies its input in place and returns it; the mask for
    ``backward`` is read from that output. In a ``Model`` each ReLU runs
    inside the max pool of its block instead."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = np.maximum(x, 0, out=x)
        return x

    def backward(self, g: np.ndarray) -> np.ndarray:
        return g * (self._forward_cache() > 0)


class Flatten(Layer):
    """Batch -> the (D, N) matrix of its samples' columns, a view. Each
    sample of a quaternion (4, C, H, W, N) batch flattens component-major,
    then channel, row, column, so index ((comp*C + c)*H + h)*W + w of
    column n holds plane comp of element (c, h, w) of sample n."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x.shape
        return x.reshape(-1, x.shape[-1])

    def backward(self, g: np.ndarray) -> np.ndarray:
        return g.reshape(self._forward_cache())


class Dense(_WeightedLayer):
    """Single-output dense layer: a (D, N) matrix -> (N,) logits
    w @ v + bias, with a (D,) weight vector ``w`` and a scalar ``bias``."""

    def __init__(self, in_features: int, dtype=np.float32):
        self.in_features = in_features
        super().__init__((in_features,), (), fan_in=in_features, fan_out=1, dtype=dtype)

    def forward(self, v: np.ndarray) -> np.ndarray:
        if v.ndim != 2 or v.shape[:1] != self.w.shape:
            raise ValueError(f"input length {v.shape} does not match weights {self.w.shape}")
        self._cache = v
        return self.w @ v + self.bias

    def backward(self, g: np.ndarray) -> np.ndarray:
        v = self._forward_cache()
        # One sample's v @ g is one product per weight, which BLAS runs as
        # D dot products of length 1 at ten times the cost. The bits are
        # the same, but for a zero's sign, and adding to grad_w, which is
        # never -0, drops that.
        self.grad_w += v[:, 0] * g[0] if g.size == 1 else v @ g
        self.grad_bias += g.sum()
        return np.outer(self.w, g)


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


def _conv_stack(conv_kind: str, filters) -> tuple[LayerSpec, ...]:
    specs: list[LayerSpec] = []
    for f in filters:
        specs.append(LayerSpec(conv_kind, filters=f, kernel=3))
        specs.append(LayerSpec("relu"))
        specs.append(LayerSpec("maxpool", pool=2))
    specs.append(LayerSpec("flatten"))
    specs.append(LayerSpec("dense", filters=1))
    return tuple(specs)


_CONVOLUTIONS = {"real": Conv2d, "quaternion": QConv2d}  # by arithmetic

# The two reference architectures, by name prefix: arithmetic and the
# filters of each block; a quaternion filter is four real planes, so
# qvcnn has a quarter of rvcnn's filters and the same planes per layer.
_ARCHITECTURES = {"rvcnn": ("real", (32, 64, 128)), "qvcnn": ("quaternion", (8, 16, 32))}
CONFIG_NAMES = tuple(f"{prefix}-{encoding}" for prefix in _ARCHITECTURES
                     for encoding in ("rgb", "hsv"))


def _build_config(name: str, encoding: str, input_size: int, arithmetic: str,
                  filters) -> ModelConfig:
    """The config of (convolution, ReLU, max pool) blocks of ``filters`` in
    the convolution class of ``arithmetic``, which gives the kind and channels."""
    conv = _CONVOLUTIONS[arithmetic]
    return ModelConfig(name=name, arithmetic=arithmetic, encoding=encoding,
                       input_size=input_size, in_channels=conv.image_channels,
                       layers=_conv_stack(conv.kind, filters))


def config_from_name(name: str, input_size: int = 100) -> ModelConfig:
    """The reference config ``name`` of ``CONFIG_NAMES``, an architecture
    (rvcnn: real, 32/64/128 filters; qvcnn: quaternion, 8/16/32) and an
    encoding (rgb or hsv), for inputs of ``input_size`` squared, by
    default the paper's 100x100; any other name raises ValueError."""
    if name not in CONFIG_NAMES:
        raise ValueError(f"unknown config {name!r}, expected one of {CONFIG_NAMES}")
    prefix, _, encoding = name.partition("-")
    return _build_config(name, encoding, input_size, *_ARCHITECTURES[prefix])


def trace_shapes(config: ModelConfig):
    """Return (spec, out_channels, out_h, out_w, flat_len) rows per layer
    in declaration order, not ``Model.run_order``, validating the spatial
    arithmetic; flat_len is the flattened length once a flatten layer
    has run, else None.

    The one network shape is k >= 1 blocks of (convolution, ReLU, max
    pool), then flatten and dense, with ``conv`` layers for a real model
    and ``qconv`` layers for a quaternion one. Raises ValueError on any
    other chain, on an arithmetic other than real or quaternion, on an
    input channel count, filter count, kernel or pool window below 1, on
    a dense layer of other than one output, and on a kernel or pool window
    that does not fit its input."""
    conv = _CONVOLUTIONS.get(config.arithmetic)
    if conv is None:
        raise ValueError(f"inconsistent config: arithmetic must be 'real' or 'quaternion', "
                         f"got {config.arithmetic!r}")
    kinds = [spec.kind for spec in config.layers]
    blocks = (len(kinds) - 2) // 3
    if blocks < 1 or kinds != [conv.kind, "relu", "maxpool"] * blocks + ["flatten", "dense"]:
        raise ValueError(f"inconsistent config: layers must be ({conv.kind}, relu, maxpool) "
                         f"* k + (flatten, dense) with k >= 1, got ({', '.join(kinds)})")

    def positive(field: str, value: int):
        if value < 1:
            raise ValueError(f"inconsistent config: {field} must be >= 1, got {value}")

    channels = config.in_channels
    positive("in_channels", channels)
    h = w = config.input_size
    flat: int | None = None
    out = []
    for spec in config.layers:
        if spec.kind == conv.kind:
            positive(f"{spec.kind} filters", spec.filters)
            positive(f"{spec.kind} kernel", spec.kernel)
            if h < spec.kernel or w < spec.kernel:
                raise ValueError(
                    f"inconsistent config: {spec.kind} kernel {spec.kernel} "
                    f"does not fit input {h}x{w}"
                )
            channels = spec.filters
            h, w = h - spec.kernel + 1, w - spec.kernel + 1
        elif spec.kind == "maxpool":
            positive("maxpool pool", spec.pool)
            if h < spec.pool or w < spec.pool:
                raise ValueError(
                    f"inconsistent config: pool window {spec.pool} "
                    f"does not fit input {h}x{w}"
                )
            h, w = h // spec.pool, w // spec.pool
        elif spec.kind == "flatten":
            flat = math.prod(conv.lead) * channels * h * w
        elif spec.kind == "dense" and spec.filters != 1:
            raise ValueError(f"inconsistent config: dense filters must be 1 (one logit), "
                             f"got {spec.filters}")
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
# layer, counted over the full valid output. By trace_shapes, that layer
# is conv2 in all four reference configs: 288 x 81 floats (93,312 bytes)
# per sample at 24x24, and 288 x 2,209 floats (2,544,768 bytes) at
# 100x100. This budget (1,492,992 bytes) holds sixteen 24x24 samples and
# less than one 100x100 sample. conv2's pool-major patches are smaller:
# 288 x 64 and 288 x 2,116 floats per sample.
IM2COL_BUDGET = 16 * 93_312


def chunk_size(config: ModelConfig, batch_size: int) -> int:
    """How many samples of a ``batch_size`` batch go through the model in
    one forward and one backward: the most, up to ``batch_size``, whose
    largest per-layer float32 im2col matrix, counted over the full valid
    output, fits in ``IM2COL_BUDGET``, and at least one. For the four
    reference configs that is min(batch_size, 16) at 24x24 and 1 at
    100x100.
    """
    convs = trace_shapes(config)[:-2:3]
    planes = math.prod(_CONVOLUTIONS[config.arithmetic].lead)
    channels, per_sample = config.in_channels, 0
    for spec, out_channels, h, w, _ in convs:
        per_sample = max(per_sample, 4 * planes * channels * spec.kernel ** 2 * h * w)
        channels = out_channels
    return max(1, min(batch_size, IM2COL_BUDGET // per_sample))


# ---------------------------------------------------------------------------
# the sequential model


class Model:
    """Sequential network built from a ModelConfig.

    All trainable parameters live in one flat ``theta`` and their
    gradients in one flat ``grad``, both in the model's dtype and in
    declaration order; each weighted layer's arrays are views of its
    slice. Forward keeps per-layer caches so one backward sweep
    accumulates the exact reverse-mode gradients into ``grad``, summed
    over the batch. A real model takes a (C, N, H, W) batch array and a
    quaternion model a (4, C, N, H, W) one, in the layout of
    ``train.Samples``, and its layers run on the same batch with the
    sample axis last. ``run_order`` is ``layers`` without the ReLUs:
    the max pool of each block takes its convolution's pool-major output,
    adds that convolution's bias and applies the block's ReLU. Forward
    runs ``run_order``, and backward its reverse.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        # trace_shapes admits only (conv, relu, maxpool) blocks, then flatten and dense
        rows = trace_shapes(config)
        conv_type = _CONVOLUTIONS[config.arithmetic]
        self.layers: list[Layer] = []
        in_channels = config.in_channels
        for (spec, channels, *_), (pool, *_) in zip(rows[:-2:3], rows[2::3]):
            conv = conv_type(in_channels, spec.filters, spec.kernel, dtype, pool=pool.pool)
            self.layers += [conv, ReLU(), MaxPool2d(conv)]
            in_channels = channels
        self.layers += [Flatten(), Dense(rows[-1][4], dtype)]
        cuts = np.cumsum([layer.param_count for layer in self.layers])
        self.theta = np.zeros(cuts[-1], dtype=self.dtype)
        self.grad = np.zeros_like(self.theta)
        for layer, theta, grad in zip(self.layers, np.split(self.theta, cuts),
                                      np.split(self.grad, cuts)):
            layer.bind(theta, grad)
        self.run_order = [layer for layer in self.layers if not isinstance(layer, ReLU)]
        if rng is not None:
            self.initialize(rng)

    def initialize(self, rng: np.random.Generator):
        for layer in self.layers:
            layer.initialize(rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(N,) logits of a real (C, N, H, W) or quaternion (4, C, N, H, W)
        batch, whose layout is checked as given. The sample axis moves last
        in one copy in the model's dtype, which a batch of one in that dtype
        does not need; the first layer, a convolution, only reads it."""
        lead = self.layers[0].lead
        ndim, c = len(lead) + 4, self.config.in_channels
        if x.ndim != ndim or x.shape[:-4] != lead or x.shape[-4] != c:
            layout = ", ".join([*map(str, lead), "C", "N", "H", "W"])
            raise ValueError(f"{self.config.name} takes a {ndim}-d ({layout}) batch with "
                             f"C = {c}, got {x.shape}")
        spatial = x.shape[-2:]
        if spatial != (self.config.input_size, self.config.input_size):
            raise ValueError(
                f"input spatial size {spatial} does not match configured "
                f"{self.config.input_size}"
            )
        h = np.ascontiguousarray(np.moveaxis(x, -3, -1), self.dtype)
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
    """sha256 over the canonical JSON form of the config: its fields, and
    each layer spec's, as sorted-key JSON objects."""
    blob = json.dumps(asdict(config), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).digest()


def atomic_write(path, data: bytes) -> None:
    """Replace ``path`` with ``data``: write ``<name>.tmp`` beside it, then
    move that over ``path``. If anything fails, the previous file is left
    as it was and the temporary file is removed. The one way the package
    writes an output file, ``write_ppm``'s fixture images aside."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, rows, columns) -> None:
    """The one CSV writer: replace ``path`` through ``atomic_write`` with a
    header of ``columns``, then one LF line per row of its attributes of
    those names in ``str`` (a float's shortest round-trip text)."""
    lines = [",".join(columns)]
    lines += [",".join(str(getattr(row, name)) for name in columns) for row in rows]
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def save_model(path, model: Model) -> None:
    """Write the model container to ``path`` through ``atomic_write``:
    magic, version, config digest, then ``theta`` (every parameter array
    in declaration order) as one little-endian float32 blob."""
    atomic_write(path, _HEADER.pack(_MAGIC, _VERSION, config_digest(model.config))
                 + np.asarray(model.theta, dtype="<f4").tobytes())


def load_model(path, config: ModelConfig) -> Model:
    """Rebuild a float32 Model from the container; the config must match
    the digest recorded at save time, and the blob must hold exactly its
    parameters, each finite."""
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
    model = Model(config)
    blob = data[_HEADER.size:]
    if len(blob) < 4 * model.theta.size:
        raise ValueError("file truncated")
    if len(blob) > 4 * model.theta.size:
        raise ValueError("trailing bytes after parameter blob")
    theta = np.frombuffer(blob, dtype="<f4")
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ValueError(f"non-finite parameter {theta[bad[0]]} at index {bad[0]}")
    model.theta[...] = theta
    return model
