"""Shared test helpers: tolerance checks and independent oracles.

The oracles here deliberately avoid the library's code paths: the
Hamilton oracle multiplies via the basis table derived from
i^2 = j^2 = k^2 = ijk = -1, the convolution oracles are plain
python loops over output pixels, taps, and channels, and the pooling
oracle picks each window's maximum by argmax and scatters gradients
with np.add.at.
"""

import numpy as np

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


def layer_fd_check(layer, x, rng, h=1e-6, n_samples=40, tol=1e-4):
    """Project the layer output with fixed weights and compare analytic
    parameter/input gradients against central finite differences.

    Works on any ``Layer`` (parameter-free ones check the input only); the
    scalar objective is sum(forward(x) * projection). Zero finite
    differences are skipped (dead paths) and pairs below 1e-6 in both
    magnitudes are treated as matching, since the difference quotient
    at h=1e-6 carries roundoff around 1e-10.
    """
    out = layer.forward(x.copy())
    proj = rng.uniform(-1, 1, np.shape(out)) if np.ndim(out) else float(rng.uniform(-1, 1))

    def loss_at(inp):
        return float(np.sum(np.asarray(layer.forward(inp)) * proj))

    layer.forward(x.copy())
    layer.zero_grads()
    gx = layer.backward(proj)
    params = layer.parameters
    grads = layer.gradients

    worst = 0.0

    def compare(analytic, fd):
        nonlocal worst
        if fd == 0.0:
            return
        scale = max(abs(analytic), abs(fd))
        if scale < 1e-6:
            return
        worst = max(worst, abs(analytic - fd) / scale)

    for p, g in zip(params, grads):
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
        lp = loss_at(x)
        xflat[idx] = orig - h
        lm = loss_at(x)
        xflat[idx] = orig
        compare(float(gxflat[idx]), (lp - lm) / (2 * h))

    assert worst < tol, f"{type(layer).__name__}: max relative error {worst}"
    return worst


def qconv2d_oracle(x, params) -> np.ndarray:
    """Per-pixel quaternion convolution using hamilton() and add() only."""
    f_out, c_in, k, _ = params.w0.shape
    _, h, w = x.shape
    oh, ow = h - k + 1, w - k + 1
    out = np.zeros((4, f_out, oh, ow))
    for f in range(f_out):
        for i in range(oh):
            for j in range(ow):
                acc = Quaternion(
                    float(params.bias[0, f]), float(params.bias[1, f]),
                    float(params.bias[2, f]), float(params.bias[3, f]),
                )
                for c in range(c_in):
                    for di in range(k):
                        for dj in range(k):
                            wq = Quaternion(
                                float(params.w0[f, c, di, dj]),
                                float(params.w1[f, c, di, dj]),
                                float(params.w2[f, c, di, dj]),
                                float(params.w3[f, c, di, dj]),
                            )
                            acc = add(acc, hamilton(wq, x.at(c, i + di, j + dj)))
                out[:, f, i, j] = acc.components()
    return out


def qconv2d_hamilton_sum_oracle(x, params) -> np.ndarray:
    """Quaternion convolution as 16 real correlations, one per pair of
    filter component a and input component b, each added into output
    component e_a * e_b with its sign, both read from _UNIT_TABLE (not
    from the library's sign table)."""
    banks = (params.w0, params.w1, params.w2, params.w3)
    f_out, _, k, _ = params.w0.shape
    _, _, h, w = x.data.shape
    out = np.zeros((4, f_out, h - k + 1, w - k + 1))
    for (a, b), (sign, unit) in _UNIT_TABLE.items():
        out[unit] += sign * conv2d_oracle(x.data[b], banks[a], np.zeros(f_out))
    return out + np.asarray(params.bias, dtype=np.float64)[:, :, None, None]


def maxpool_oracle(x: np.ndarray, g: np.ndarray, window: int, stride: int):
    """Max pooling of (..., H, W) by argmax over each row-major flattened
    window (first index wins ties). Returns the pooled values and the
    input gradient for output gradient ``g``, scattered with np.add.at."""
    lead = x.shape[:-2]
    flat = x.reshape(-1, *x.shape[-2:])
    p, h, w = flat.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    s0, s1, s2 = flat.strides
    win = np.lib.stride_tricks.as_strided(
        flat, shape=(p, oh, ow, window, window),
        strides=(s0, stride * s1, stride * s2, s1, s2),
    ).reshape(p, oh, ow, window * window)
    idx = win.argmax(axis=3)
    out = np.take_along_axis(win, idx[..., None], axis=3)[..., 0]
    gx = np.zeros(flat.shape, dtype=g.dtype)
    pi, oi, oj = np.indices((p, oh, ow))
    np.add.at(gx, (pi, oi * stride + idx // window, oj * stride + idx % window),
              g.reshape(p, oh, ow))
    return out.reshape(*lead, oh, ow), gx.reshape(x.shape)
