"""Shared test helpers: tolerance checks and independent oracles.

The oracles here deliberately avoid the library's code paths: the
Hamilton oracle multiplies via the basis table derived from
i^2 = j^2 = k^2 = ijk = -1, the convolution oracles are plain
python loops over output pixels, taps, and channels, the convolution
input-gradient oracles scatter one tap at a time without a patch
matrix, and the pooling oracle picks each window's maximum by argmax
and scatters gradients with np.add.at. ``col2im_oracle`` is the
nine-strided-add scatter the library used before its row-shifted form,
kept to pin that form bit for bit; ``bce_oracle`` is, likewise, the
one-logit scalar loss the library used before its array form.

``pool_major`` and ``from_pool_major`` move a sample-last batch between
the raster layout and the pool-major one that a ``MaxPool2d`` takes.
``DeclarationOrderPass`` is the reference a ``Model`` is checked
against: its blocks run in declaration order as standalone raster
convolutions with their bias (which the convolution tests check
against the loop oracles), ``np.maximum(., 0)`` and ``maxpool_oracle``,
so no pool code of the library checks itself.
"""

import numpy as np

from quatcnn.layers import Dense, MaxPool2d
from quatcnn.quat import Quaternion, add, hamilton


def assert_close(a, b, tol, context=""):
    """Combined absolute/relative bound: |a-b| <= tol * max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    diff = float(np.max(np.abs(a - b)))
    assert diff <= tol * scale, f"{context}: diff {diff} > {tol} * {scale}"


def norm_rel_err(a, b) -> float:
    """Relative error in the max norm: ||a-b||_inf / ||b||_inf."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = float(np.max(np.abs(b)))
    return float(np.max(np.abs(a - b))) / max(denom, 1e-300)


# basis product table from the unit rules; entries (sign, unit index)
_UNIT_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def hamilton_oracle(p: Quaternion, q: Quaternion) -> Quaternion:
    """Brute-force product: expand all 16 basis terms via the unit table."""
    out = [0.0, 0.0, 0.0, 0.0]
    pc, qc = p.components(), q.components()
    for a in range(4):
        for b in range(4):
            sign, unit = _UNIT_TABLE[(a, b)]
            out[unit] += sign * pc[a] * qc[b]
    return Quaternion(*out)


def random_quaternion(rng, lo=-1.0, hi=1.0) -> Quaternion:
    return Quaternion(*rng.uniform(lo, hi, 4))


def quat_at(arr: np.ndarray, c: int, h: int, w: int) -> Quaternion:
    """Element (c, h, w) of a (4, C, H, W) component-plane array."""
    return Quaternion(*(float(arr[comp, c, h, w]) for comp in range(4)))


def bce_oracle(logit: float, label: int) -> tuple[float, float]:
    """Binary cross-entropy of one logit in the stable softplus form,
    branching on the sign of the logit for the sigmoid. Returns (loss,
    dloss/dlogit)."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    z = float(logit)
    softplus = max(z, 0.0) + np.log1p(np.exp(-abs(z)))
    loss = softplus - label * z
    sigmoid = 1.0 / (1.0 + np.exp(-z)) if z >= 0 else np.exp(z) / (1.0 + np.exp(z))
    return float(loss), float(sigmoid - label)


def conv2d_oracle(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Direct triple-loop valid cross-correlation."""
    f_out, c_in, k, _ = w.shape
    oh, ow = x.shape[1] - k + 1, x.shape[2] - k + 1
    out = np.zeros((f_out, oh, ow))
    for f in range(f_out):
        for i in range(oh):
            for j in range(ow):
                acc = float(bias[f])
                for c in range(c_in):
                    for di in range(k):
                        for dj in range(k):
                            acc += float(w[f, c, di, dj]) * float(x[c, i + di, j + dj])
                out[f, i, j] = acc
    return out


def col2im_oracle(cols: np.ndarray, shape, k: int) -> np.ndarray:
    """Scatter-add a (C*k*k, OH*OW*N) patch-gradient matrix back onto a
    (C, H, W, N) array: one strided add per tap (di, dj), in row-major
    tap order."""
    c, h, w, n = shape
    oh, ow = h - k + 1, w - k + 1
    out = np.zeros(shape, dtype=cols.dtype)
    patches = cols.reshape(c, k, k, oh, ow, n)
    for di in range(k):
        for dj in range(k):
            out[:, di:di + oh, dj:dj + ow] += patches[:, di, dj]
    return out


def conv_input_grad_oracle(g: np.ndarray, w: np.ndarray, in_hw) -> np.ndarray:
    """Input gradient of a valid correlation, one tap at a time: output
    gradient (F, OH, OW, N) and kernel (F, C, k, k) give (C, H, W, N),
    where tap (di, dj) adds sum_f w[f, :, di, dj] * g[f] at offset
    (di, dj). Accumulates in float64."""
    f, c, k, _ = w.shape
    _, oh, ow, n = g.shape
    gx = np.zeros((c, *in_hw, n))
    g64 = g.astype(np.float64)
    for di in range(k):
        for dj in range(k):
            gx[:, di:di + oh, dj:dj + ow] += np.einsum(
                "fc,fijn->cijn", w[:, :, di, dj].astype(np.float64), g64)
    return gx


def qconv_input_grad_oracle(g: np.ndarray, banks: np.ndarray, in_hw) -> np.ndarray:
    """Input gradient of the quaternion correlation: output component
    e_a * e_b gets sign * correlate(x[b], W[a]) (signs and units from
    _UNIT_TABLE), so x[b] gets sign times the real input gradient of
    bank a under that component's output gradient. ``g`` is
    (4, F, OH, OW, N), ``banks`` (4, F, C, k, k); returns (4, C, H, W, N)."""
    _, _, c, _, _ = banks.shape
    gx = np.zeros((4, c, *in_hw, g.shape[-1]))
    for (a, b), (sign, unit) in _UNIT_TABLE.items():
        gx[b] += sign * conv_input_grad_oracle(g[unit], banks[a], in_hw)
    return gx


def per_array(*arrays):
    """A layer's weight and bias arrays (``w``, ``bias`` or ``grad_w``,
    ``grad_bias``) as views, one per weight bank or bias: a
    (4, F, C, k, k) quaternion bank array gives its four banks."""
    return [bank for arr in arrays for bank in (arr if arr.ndim == 5 else [arr])]


def grad_arrays(model):
    """Copies of a model's gradient arrays, per bank, in declaration order."""
    return [g.copy() for layer in model.layers if layer.param_count
            for g in per_array(layer.grad_w, layer.grad_bias)]


def layer_fd_check(layer, x, rng, h=1e-6, n_samples=40, tol=1e-4):
    """Project the layer output with fixed weights and compare analytic
    parameter/input gradients against central finite differences.

    Works on any ``Layer`` (parameter-free ones check the input only); the
    scalar objective is sum(forward(x) * projection). Every forward gets
    a copy of ``x``, because a layer may overwrite its input. Zero finite
    differences are skipped (dead paths) and pairs below 1e-6 in both
    magnitudes are treated as matching, since the difference quotient
    at h=1e-6 carries roundoff around 1e-10.
    """
    out = layer.forward(x.copy())
    proj = rng.uniform(-1, 1, np.shape(out)) if np.ndim(out) else float(rng.uniform(-1, 1))

    def loss_at(inp):
        return float(np.sum(np.asarray(layer.forward(inp)) * proj))

    layer.forward(x.copy())
    layer.grad.fill(0)
    gx = layer.backward(proj)
    pairs = (zip(per_array(layer.w, layer.bias), per_array(layer.grad_w, layer.grad_bias))
             if layer.param_count else ())

    worst = 0.0

    def compare(analytic, fd):
        nonlocal worst
        if fd == 0.0:
            return
        scale = max(abs(analytic), abs(fd))
        if scale < 1e-6:
            return
        worst = max(worst, abs(analytic - fd) / scale)

    for p, g in pairs:
        flat = p.reshape(-1)
        for idx in rng.choice(flat.size, size=min(n_samples, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = loss_at(x.copy())
            flat[idx] = orig - h
            lm = loss_at(x.copy())
            flat[idx] = orig
            compare(float(g.reshape(-1)[idx]), (lp - lm) / (2 * h))

    xflat = x.reshape(-1)
    gxflat = np.asarray(gx).reshape(-1)
    for idx in rng.choice(xflat.size, size=min(n_samples, xflat.size), replace=False):
        orig = xflat[idx]
        xflat[idx] = orig + h
        lp = loss_at(x.copy())
        xflat[idx] = orig - h
        lm = loss_at(x.copy())
        xflat[idx] = orig
        compare(float(gxflat[idx]), (lp - lm) / (2 * h))

    assert worst < tol, f"{type(layer).__name__}: max relative error {worst}"
    return worst


def qconv2d_oracle(x, banks, bias) -> np.ndarray:
    """Per-pixel quaternion convolution of a (4, C, H, W) input with
    (4, F, C, k, k) kernel banks and a (4, F) bias, using hamilton() and
    add() only."""
    w0, w1, w2, w3 = banks
    f_out, c_in, k, _ = w0.shape
    _, _, h, w = x.shape
    oh, ow = h - k + 1, w - k + 1
    out = np.zeros((4, f_out, oh, ow))
    for f in range(f_out):
        for i in range(oh):
            for j in range(ow):
                acc = Quaternion(*(float(bias[comp, f]) for comp in range(4)))
                for c in range(c_in):
                    for di in range(k):
                        for dj in range(k):
                            wq = Quaternion(
                                float(w0[f, c, di, dj]),
                                float(w1[f, c, di, dj]),
                                float(w2[f, c, di, dj]),
                                float(w3[f, c, di, dj]),
                            )
                            acc = add(acc, hamilton(wq, quat_at(x, c, i + di, j + dj)))
                out[:, f, i, j] = acc.components()
    return out


def qconv2d_hamilton_sum_oracle(x, banks, bias) -> np.ndarray:
    """Quaternion convolution of a (4, C, H, W) input with (4, F, C, k, k)
    kernel banks and a (4, F) bias as 16 real correlations, one per pair
    of filter component a and input component b, each added into output
    component e_a * e_b with its sign, both read from _UNIT_TABLE (not
    from the library's sign table)."""
    f_out, _, k, _ = banks[0].shape
    _, _, h, w = x.shape
    out = np.zeros((4, f_out, h - k + 1, w - k + 1))
    for (a, b), (sign, unit) in _UNIT_TABLE.items():
        out[unit] += sign * conv2d_oracle(x[b], banks[a], np.zeros(f_out))
    return out + np.asarray(bias, dtype=np.float64)[:, :, None, None]


def maxpool_oracle(x: np.ndarray, g: np.ndarray, window: int):
    """Max pooling of (..., H, W) with stride ``window`` by argmax over
    each row-major flattened window (first index wins ties). Returns the
    pooled values and the input gradient for output gradient ``g``,
    scattered with np.add.at."""
    lead = x.shape[:-2]
    flat = x.reshape(-1, *x.shape[-2:])
    p, h, w = flat.shape
    oh, ow = h // window, w // window
    s0, s1, s2 = flat.strides
    win = np.lib.stride_tricks.as_strided(
        flat, shape=(p, oh, ow, window, window),
        strides=(s0, window * s1, window * s2, s1, s2),
    ).reshape(p, oh, ow, window * window)
    idx = win.argmax(axis=3)
    out = np.take_along_axis(win, idx[..., None], axis=3)[..., 0]
    gx = np.zeros(flat.shape, dtype=g.dtype)
    pi, oi, oj = np.indices((p, oh, ow))
    np.add.at(gx, (pi, oi * window + idx // window, oj * window + idx % window),
              g.reshape(p, oh, ow))
    return out.reshape(*lead, oh, ow), gx.reshape(x.shape)


def pool_major(x: np.ndarray, window: int) -> np.ndarray:
    """The pool-major (..., p, p, PH, PW, N) copy of a raster (..., H, W, N)
    batch for windows of p = ``window``: block (a, b) holds element (a, b)
    of every window, and the trailing rows and columns that fill no whole
    window are left out."""
    ph, pw = (size // window for size in x.shape[-3:-1])
    return np.stack([np.stack([x[..., a:window * ph:window, b:window * pw:window, :]
                               for b in range(window)], axis=-4)
                     for a in range(window)], axis=-5)


def from_pool_major(x: np.ndarray, hw=None) -> np.ndarray:
    """The raster (..., H, W, N) batch of a pool-major (..., p, p, PH, PW, N)
    one: block (a, b) goes back on rows a, a + p, ... and columns b, b + p,
    ..., and the trailing rows and columns that no window reads hold
    zeros. (H, W) defaults to (p*PH, p*PW)."""
    p, _, ph, pw, n = x.shape[-5:]
    h, w = hw or (p * ph, p * pw)
    out = np.zeros((*x.shape[:-5], h, w, n), dtype=x.dtype)
    for a in range(p):
        for b in range(p):
            out[..., a:p * ph:p, b:p * pw:p, :] = x[..., a, b, :, :, :]
    return out


def _sample_last_pool(y: np.ndarray, window: int, g=None):
    """``maxpool_oracle`` on a sample-last (..., H, W, N) batch, for a
    sample-last output gradient ``g`` (zeros when None)."""
    y = np.moveaxis(y, -1, 0)
    if g is None:
        g = np.zeros((*y.shape[:-2], y.shape[-2] // window, y.shape[-1] // window), y.dtype)
    else:
        g = np.moveaxis(g, -1, 0)
    out, gx = maxpool_oracle(y, g, window)
    return np.ascontiguousarray(np.moveaxis(out, 0, -1)), np.moveaxis(gx, 0, -1)


class DeclarationOrderPass:
    """A ``Model``'s layers run in declaration order, without its pools: per
    block, a fresh standalone copy of its convolution with the model's
    weights and bias gives the raster output with the bias, then
    ``np.maximum(., 0)`` and ``maxpool_oracle``; then the flatten and a
    fresh copy of the dense layer. ``forward`` takes a sample-last batch
    and returns the logits; ``backward`` returns the parameter gradient,
    in the order of ``model.theta``, and the input gradient.
    ``conv_inputs`` holds each block's input from the last forward."""

    def __init__(self, model):
        self.convs, self.windows = [], []
        for layer in model.layers:
            if isinstance(layer, MaxPool2d):
                conv = layer._conv
                fresh = type(conv)(conv.in_channels, conv.out_channels, conv.kernel_size,
                                   dtype=model.dtype)
                fresh.theta[...] = conv.theta
                self.convs.append(fresh)
                self.windows.append(layer.window)
        dense = model.layers[-1]
        self.dense = Dense(dense.in_features, dtype=model.dtype)
        self.dense.theta[...] = dense.theta

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.conv_inputs, self.rectified = [], []
        for conv, window in zip(self.convs, self.windows):
            self.conv_inputs.append(x)
            y = np.maximum(conv.forward(x), 0)
            self.rectified.append(y)
            x, _ = _sample_last_pool(y, window)
        self.pooled_shape = x.shape
        return self.dense.forward(x.reshape(-1, x.shape[-1]).T)

    def backward(self, dlogits: np.ndarray):
        g = self.dense.backward(dlogits).T.reshape(self.pooled_shape)
        for conv, window, y in zip(self.convs[::-1], self.windows[::-1], self.rectified[::-1]):
            _, g = _sample_last_pool(y, window, g)
            g = conv.backward(g * (y > 0))
        grad = np.concatenate([*(conv.grad for conv in self.convs), self.dense.grad])
        return grad, g
