"""Image ingestion and the four network input constructions.

Each encoder takes an (H, W, 3) image or an (N, H, W, 3) stack, indexing
channels as ``img[..., c]``. Real models consume channel-concatenated
RGB or HSV arrays, (3, H, W) or (3, N, H, W); quaternion models consume
one of two single-channel quaternion encodings, (4, 1, H, W) or
(4, 1, N, H, W) arrays of component planes, so an encoded stack is the
``train.Samples`` layout:

* rgb: q = 0 + R i + G j + B k (real plane identically zero)
* hsv: q = S cos(H) + S sin(H) i + V cos(H) j + V sin(H) k

Hue lives in radians [0, 2pi); saturation and value in [0, 1]. RGB
values are unit-interval. 8-bit rasters are normalized by /255 on load.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

__all__ = [
    "rgb_to_hsv",
    "encode_rgb_quaternion",
    "encode_hsv_quaternion",
    "concat_channels",
    "resize",
    "augment_flips",
    "read_ppm",
    "write_ppm",
    "load_image",
]

TWO_PI = 2.0 * np.pi


def _check_shape(img: np.ndarray, ndims=(3, 4)) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim not in ndims or img.shape[-1] != 3:
        expected = "(H, W, 3) image" + (" or (N, H, W, 3) stack" if 4 in ndims else "")
        raise ValueError(f"expected {expected}, got shape {img.shape}")
    return img


def _check_rgb(img: np.ndarray) -> np.ndarray:
    img = _check_shape(img)
    lo, hi = img.min(), img.max()  # a NaN anywhere makes both NaN
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("RGB values must be finite")
    if lo < 0.0 or hi > 1.0:
        raise ValueError("RGB values must lie in [0, 1]")
    return img


def _check_hsv(img: np.ndarray) -> np.ndarray:
    img = _check_shape(img)
    if not np.isfinite(img).all():
        raise ValueError("HSV values must be finite")
    h, s, v = img[..., 0], img[..., 1], img[..., 2]
    if h.min() < 0.0 or h.max() >= TWO_PI:
        raise ValueError("hue must lie in [0, 2pi)")
    if s.min() < 0.0 or s.max() > 1.0 or v.min() < 0.0 or v.max() > 1.0:
        raise ValueError("saturation and value must lie in [0, 1]")
    return img


def rgb_to_hsv(img: np.ndarray) -> np.ndarray:
    """Hexcone RGB -> HSV with hue in radians [0, 2pi), same shape out.

    Achromatic pixels (zero chroma) take H = 0 by convention; black
    pixels additionally take S = 0.
    """
    img = _check_rgb(img)
    r, g, b = img[..., 0], img[..., 1], img[..., 2]
    v = img.max(axis=-1)
    c = v - img.min(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        hp = np.select(
            [c == 0, v == r, v == g],
            [0.0, ((g - b) / c) % 6.0, (b - r) / c + 2.0],
            default=(r - g) / c + 4.0,
        )
        s = np.where(v > 0, c / np.where(v > 0, v, 1.0), 0.0)
    h = (hp * (np.pi / 3.0)) % TWO_PI
    return np.stack([h, s, v], axis=-1)


def encode_rgb_quaternion(img: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Pure-imaginary encoding: (4, 1, ...) planes (0, R, G, B), one
    quaternion channel."""
    img = _check_rgb(img)
    data = np.zeros((4, 1, *img.shape[:-1]), dtype=dtype)
    data[1:, 0] = np.moveaxis(img, -1, 0)
    return data


def encode_hsv_quaternion(img: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Hue-angle encoding: (4, 1, ...) planes (S cosH, S sinH, V cosH,
    V sinH), one quaternion channel."""
    img = _check_hsv(img)
    h, s, v = img[..., 0], img[..., 1], img[..., 2]
    cos_h, sin_h = np.cos(h), np.sin(h)
    data = np.stack([s * cos_h, s * sin_h, v * cos_h, v * sin_h])
    return data[:, None].astype(dtype)


def concat_channels(img: np.ndarray, dtype=np.float64) -> np.ndarray:
    """(..., 3) -> (3, ...) channel-major stack, values untouched (HSV hue
    stays in radians)."""
    img = _check_shape(img)
    return np.ascontiguousarray(np.moveaxis(img, -1, 0), dtype=dtype)


def resize(img: np.ndarray, target: tuple[int, int] = (100, 100)) -> np.ndarray:
    """Bilinear resize of an (H, W) or (H, W, C) image.

    Pixel centers are aligned via src = (dst + 0.5) * scale - 0.5, so a
    same-size resize is the identity. Output is clipped to the source
    value range, which bilinear interpolation cannot exceed anyway.
    """
    img = np.asarray(img)
    th, tw = target
    sh, sw = img.shape[:2]
    if sh < 2 or sw < 2:
        raise ValueError(f"source too small to resize: {sh}x{sw}")
    if th < 1 or tw < 1:
        raise ValueError(f"bad target size {target}")
    if (sh, sw) == (th, tw):
        return img.copy()

    def axis_coords(src_n, dst_n):
        x = (np.arange(dst_n) + 0.5) * (src_n / dst_n) - 0.5
        x = np.clip(x, 0.0, src_n - 1.0)
        lo = np.floor(x).astype(np.intp)
        lo = np.minimum(lo, src_n - 2)
        return lo, x - lo

    ylo, yfrac = axis_coords(sh, th)
    xlo, xfrac = axis_coords(sw, tw)
    yfrac = yfrac[:, None] if img.ndim == 2 else yfrac[:, None, None]
    xfrac = xfrac[None, :] if img.ndim == 2 else xfrac[None, :, None]
    top = img[ylo][:, xlo] * (1 - xfrac) + img[ylo][:, xlo + 1] * xfrac
    bot = img[ylo + 1][:, xlo] * (1 - xfrac) + img[ylo + 1][:, xlo + 1] * xfrac
    out = top * (1 - yfrac) + bot * yfrac
    return np.clip(out, img.min(), img.max())


def augment_flips(x: np.ndarray) -> np.ndarray:
    """Deterministic x4 expansion of an encoded (..., N, H, W) array to
    (..., 4N, H, W): each sample's original, horizontal, vertical and
    double flip, next to each other in that order.

    Flipping the encoded planes equals encoding the flipped image,
    because all four encodings act on each pixel alone.
    """
    x = np.asarray(x)
    if x.ndim < 3:
        raise ValueError(f"expected an (..., N, H, W) array, got shape {x.shape}")
    variants = np.stack([x, x[..., ::-1], x[..., ::-1, :], x[..., ::-1, ::-1]], axis=-3)
    return variants.reshape(*x.shape[:-3], 4 * x.shape[-3], *x.shape[-2:])


# ---------------------------------------------------------------------------
# raster IO: portable pixmap built in, anything else through Pillow


def read_ppm(path) -> np.ndarray:
    """Read a binary (P6) or ascii (P3) portable pixmap as uint8 (H, W, 3).
    A malformed file raises ValueError naming its path."""
    raw = Path(path).read_bytes()
    tokens = []
    pos = 0
    while len(tokens) < 4 and pos < len(raw):
        m = re.compile(rb"\s*(?:#[^\n]*\n\s*)*(\S+)").match(raw, pos)
        if not m:
            break
        tokens.append(m.group(1))
        pos = m.end()
    if len(tokens) < 4 or tokens[0] not in (b"P3", b"P6"):
        raise ValueError(f"{path}: not a P3/P6 portable pixmap")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise ValueError(f"{path}: non-numeric width, height or maxval") from None
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported, got {maxval}")
    n = width * height * 3
    if tokens[0] == b"P6":
        data = raw[pos + 1:pos + 1 + n]  # single whitespace byte after maxval
        if len(data) != n:
            raise ValueError(f"{path}: truncated pixel data")
        flat = np.frombuffer(data, dtype=np.uint8)
    else:
        values = raw[pos:].split()
        if len(values) != n:
            raise ValueError(f"{path}: expected {n} ascii samples, got {len(values)}")
        try:
            flat = np.array([int(v) for v in values])
        except ValueError:
            raise ValueError(f"{path}: non-numeric ascii sample") from None
        if flat.size and not 0 <= flat.min() <= flat.max() <= 255:
            raise ValueError(f"{path}: ascii samples must lie in [0, 255]")
        flat = flat.astype(np.uint8)
    return flat.reshape(height, width, 3)


def write_ppm(path, img: np.ndarray) -> None:
    """Write (H, W, 3) data as binary P6. Float input must be finite and
    unit-interval and is rounded to 8 bits; uint8 passes through. Bad
    input raises ValueError before the file is opened."""
    img = _check_shape(img, ndims=(3,))
    if img.dtype != np.uint8:
        scaled = _check_rgb(img) * 255.0
        img = np.round(scaled, out=scaled).astype(np.uint8)
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img))


def load_image(path) -> np.ndarray:
    """Decode any supported raster to float64 RGB in [0, 1].

    Portable pixmaps are decoded natively; other formats (for example
    the .tif files ALL-IDB2 ships) go through the Pillow adapter and
    need the optional ``images`` extra installed.
    """
    path = Path(path)
    if path.suffix.lower() in (".ppm", ".pnm"):
        return read_ppm(path).astype(np.float64) / 255.0
    try:
        from PIL import Image
    except ImportError as exc:
        raise ValueError(
            f"{path}: decoding {path.suffix} files requires Pillow "
            "(pip install quatcnn[images])"
        ) from exc
    with Image.open(path) as im:
        arr = np.asarray(im.convert("RGB"), dtype=np.float64)
    return arr / 255.0
