import re

import numpy as np
import pytest

from quatcnn.encoding import (
    rgb_to_hsv, encode_rgb_quaternion, encode_hsv_quaternion,
    concat_channels, resize, augment_flips, read_ppm, write_ppm, load_image,
)
from testutil import quat_at

TWO_PI = 2.0 * np.pi


def hsv_to_rgb_oracle(h, s, v):
    """Independent inverse conversion (straight from the hexcone walk)."""
    h6 = (h % TWO_PI) / (np.pi / 3.0)
    c = v * s
    x = c * (1.0 - abs(h6 % 2.0 - 1.0))
    sector = int(h6) % 6
    r, g, b = [(c, x, 0), (x, c, 0), (0, c, x), (0, x, c), (x, 0, c), (c, 0, x)][sector]
    m = v - c
    return np.array([r + m, g + m, b + m])


class TestRgbToHsv:
    def test_pure_red(self):
        out = rgb_to_hsv(np.array([[[1.0, 0.0, 0.0]]]))
        assert np.allclose(out[0, 0], [0.0, 1.0, 1.0])

    def test_gray_achromatic_convention(self):
        out = rgb_to_hsv(np.full((1, 1, 3), 0.5))
        assert np.allclose(out[0, 0], [0.0, 0.0, 0.5])

    def test_black(self):
        out = rgb_to_hsv(np.zeros((1, 1, 3)))
        assert np.allclose(out[0, 0], [0.0, 0.0, 0.0])

    def test_primaries_and_secondaries(self):
        pixels = {
            (0.0, 1.0, 0.0): 2 * np.pi / 3,   # green
            (0.0, 0.0, 1.0): 4 * np.pi / 3,   # blue
            (1.0, 1.0, 0.0): np.pi / 3,       # yellow
            (0.0, 1.0, 1.0): np.pi,           # cyan
            (1.0, 0.0, 1.0): 5 * np.pi / 3,   # magenta
        }
        for rgb, hue in pixels.items():
            out = rgb_to_hsv(np.array([[rgb]]))
            assert np.allclose(out[0, 0], [hue, 1.0, 1.0]), rgb

    def test_round_trip_chromatic(self):
        rng = np.random.default_rng(60)
        img = rng.uniform(0.05, 1.0, (10, 100, 3))
        hsv = rgb_to_hsv(img)
        for i in range(10):
            for j in range(100):
                h, s, v = hsv[i, j]
                if s == 0:
                    continue
                back = hsv_to_rgb_oracle(h, s, v)
                assert np.max(np.abs(back - img[i, j])) < 1e-6

    def test_output_ranges(self):
        rng = np.random.default_rng(61)
        hsv = rgb_to_hsv(rng.uniform(0, 1, (20, 20, 3)))
        assert hsv[..., 0].min() >= 0.0 and hsv[..., 0].max() < TWO_PI
        assert hsv[..., 1:].min() >= 0.0 and hsv[..., 1:].max() <= 1.0

    def test_out_of_range_error(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            rgb_to_hsv(np.full((1, 1, 3), 1.5))

    def test_nan_pixel_rejected(self):
        img = np.full((2, 2, 3), 0.5)
        img[1, 0, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            rgb_to_hsv(img)


class TestRgbQuaternionEncoding:
    def test_red_pixel(self):
        t = encode_rgb_quaternion(np.array([[[1.0, 0.0, 0.0]]]))
        assert quat_at(t, 0, 0, 0).components() == (0.0, 1.0, 0.0, 0.0)

    def test_black_pixel(self):
        t = encode_rgb_quaternion(np.zeros((1, 1, 3)))
        assert quat_at(t, 0, 0, 0).components() == (0.0, 0.0, 0.0, 0.0)

    def test_real_plane_identically_zero(self):
        rng = np.random.default_rng(62)
        t = encode_rgb_quaternion(rng.uniform(0, 1, (7, 9, 3)))
        assert np.all(t[0] == 0.0)
        assert t.shape == (4, 1, 7, 9)

    def test_range_error(self):
        with pytest.raises(ValueError):
            encode_rgb_quaternion(np.full((2, 2, 3), -0.1))

    def test_nan_pixel_rejected(self):
        img = np.full((2, 2, 3), 0.5)
        img[0, 1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            encode_rgb_quaternion(img)


class TestHsvQuaternionEncoding:
    def test_quarter_turn(self):
        img = np.array([[[np.pi / 2, 1.0, 0.5]]])
        q = quat_at(encode_hsv_quaternion(img), 0, 0, 0)
        assert np.allclose(q.components(), (0.0, 1.0, 0.0, 0.5), atol=1e-15)

    def test_zero_hue(self):
        img = np.array([[[0.0, 1.0, 1.0]]])
        q = quat_at(encode_hsv_quaternion(img), 0, 0, 0)
        assert q.components() == (1.0, 0.0, 1.0, 0.0)

    def test_norm_identity(self):
        rng = np.random.default_rng(63)
        h = rng.uniform(0, TWO_PI - 1e-9, (25, 40))
        s = rng.uniform(0, 1, (25, 40))
        v = rng.uniform(0, 1, (25, 40))
        t = encode_hsv_quaternion(np.stack([h, s, v], axis=2))
        assert t.shape == (4, 1, 25, 40)
        sq_norm = np.sum(t ** 2, axis=0)[0]
        expect = s ** 2 + v ** 2
        assert np.max(np.abs(sq_norm - expect)) <= 1e-10 * np.maximum(1.0, expect).max()

    def test_hue_range_error(self):
        with pytest.raises(ValueError, match="hue"):
            encode_hsv_quaternion(np.array([[[TWO_PI, 0.5, 0.5]]]))

    @pytest.mark.parametrize("channel", [0, 1, 2])
    def test_nan_pixel_rejected(self, channel):
        img = np.full((2, 2, 3), 0.5)
        img[1, 1, channel] = np.nan
        with pytest.raises(ValueError, match="finite"):
            encode_hsv_quaternion(img)

    @pytest.mark.parametrize("channel", [1, 2], ids=["saturation", "value"])
    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_saturation_or_value_range_error(self, channel, bad):
        img = np.full((2, 2, 3), 0.5)
        img[0, 1, channel] = bad
        with pytest.raises(ValueError, match=r"^saturation and value must lie in \[0, 1\]$"):
            encode_hsv_quaternion(img)


class TestConcatChannels:
    def test_rgb_pixel(self):
        out = concat_channels(np.array([[[1.0, 0.0, 0.0]]]))
        assert out.shape == (3, 1, 1)
        assert out[0, 0, 0] == 1.0 and out[1, 0, 0] == 0.0 and out[2, 0, 0] == 0.0

    def test_hsv_radians_untouched(self):
        out = concat_channels(np.array([[[np.pi, 1.0, 1.0]]]))
        assert out[0, 0, 0] == np.pi

    def test_shape(self):
        assert concat_channels(np.zeros((100, 100, 3))).shape == (3, 100, 100)


class TestResize:
    def test_constant_image(self):
        out = resize(np.full((7, 5, 3), 0.37), (100, 100))
        assert out.shape == (100, 100, 3)
        assert np.allclose(out, 0.37)

    def test_same_size_is_identity(self):
        rng = np.random.default_rng(64)
        img = rng.uniform(0, 1, (100, 100, 3))
        out = resize(img, (100, 100))
        assert np.array_equal(out, img)
        assert out is not img

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(65)
        src = rng.uniform(0, 1, (9, 13))
        th, tw = 5, 6
        out = resize(src, (th, tw))
        sh, sw = src.shape
        for i in range(th):
            for j in range(tw):
                y = min(max((i + 0.5) * sh / th - 0.5, 0.0), sh - 1.0)
                x = min(max((j + 0.5) * sw / tw - 0.5, 0.0), sw - 1.0)
                y0, x0 = min(int(y), sh - 2), min(int(x), sw - 2)
                fy, fx = y - y0, x - x0
                val = (src[y0, x0] * (1 - fy) * (1 - fx)
                       + src[y0, x0 + 1] * (1 - fy) * fx
                       + src[y0 + 1, x0] * fy * (1 - fx)
                       + src[y0 + 1, x0 + 1] * fy * fx)
                assert abs(out[i, j] - val) < 1e-6

    def test_bounds_preserved(self):
        rng = np.random.default_rng(66)
        img = rng.uniform(0.2, 0.8, (257, 257, 3))
        out = resize(img, (100, 100))
        assert out.min() >= img.min() and out.max() <= img.max()

    def test_upsample_bounds(self):
        rng = np.random.default_rng(67)
        img = rng.uniform(0, 1, (4, 4))
        out = resize(img, (11, 9))
        assert out.min() >= img.min() - 1e-12 and out.max() <= img.max() + 1e-12

    def test_degenerate_source(self):
        with pytest.raises(ValueError, match="too small"):
            resize(np.zeros((1, 5, 3)), (10, 10))

    @pytest.mark.parametrize("target", [(0, 10), (10, 0), (-1, -1)])
    def test_target_below_one(self, target):
        with pytest.raises(ValueError, match=re.escape(f"bad target size {target}")):
            resize(np.zeros((4, 5, 3)), target)


class TestFlips:
    """``augment_flips`` on encoded (..., N, H, W) arrays."""

    def test_augment_produces_four(self):
        rng = np.random.default_rng(68)
        x = rng.uniform(0, 1, (4, 1, 5, 6, 8))
        out = augment_flips(x)
        assert out.shape == (4, 1, 20, 6, 8)  # x4 multiplicity over the set
        for n in range(5):
            sample = x[..., n, :, :]
            variants = out[..., 4 * n:4 * n + 4, :, :]
            assert np.array_equal(variants[..., 0, :, :], sample)
            assert np.array_equal(variants[..., 1, :, :], np.flip(sample, axis=-1))
            assert np.array_equal(variants[..., 2, :, :], np.flip(sample, axis=-2))
            assert np.array_equal(variants[..., 3, :, :], np.flip(sample, axis=(-2, -1)))

    def test_flips_are_involutions(self):
        rng = np.random.default_rng(69)
        x = rng.uniform(0, 1, (3, 1, 5, 7))
        out = augment_flips(x)
        for k in range(1, 4):  # the same flip of a flipped variant restores the original
            again = augment_flips(out[..., k:k + 1, :, :])
            assert np.array_equal(again[..., k, :, :], x[..., 0, :, :])

    def test_symmetric_image_duplicates(self):
        img = np.zeros((4, 4, 3))
        img[1:3, 1:3] = 1.0  # symmetric under both flips
        variants = augment_flips(concat_channels(img[None]))
        assert variants.shape == (3, 4, 4, 4)
        for k in range(1, 4):
            assert np.array_equal(variants[:, k], variants[:, 0])

    def test_rejects_an_unbatched_array(self):
        with pytest.raises(ValueError, match=r"\(\.\.\., N, H, W\)"):
            augment_flips(np.zeros((4, 4)))


class TestStacks:
    """Each encoder takes an (H, W, 3) image or an (N, H, W, 3) stack."""

    # encoder and the axis that holds the samples of its output for a stack
    ENCODERS = {"rgb_to_hsv": (rgb_to_hsv, 0),
                "encode_rgb_quaternion": (encode_rgb_quaternion, -3),
                "encode_hsv_quaternion": (encode_hsv_quaternion, -3),
                "concat_channels": (concat_channels, -3)}

    @pytest.mark.parametrize("name", ENCODERS)
    def test_stack_matches_each_image(self, name):
        encode, sample_axis = self.ENCODERS[name]
        rng = np.random.default_rng(72)
        images = rng.uniform(0, 1, (3, 5, 7, 3))
        images[1, 2, 3] = 0.4  # achromatic pixel
        if name == "encode_hsv_quaternion":
            images = rgb_to_hsv(images)
        out = encode(images)
        for n in range(3):
            assert np.array_equal(np.take(out, n, axis=sample_axis), encode(images[n]))

    def test_stack_shapes(self):
        images = np.zeros((2, 5, 7, 3))
        assert rgb_to_hsv(images).shape == (2, 5, 7, 3)
        assert encode_rgb_quaternion(images).shape == (4, 1, 2, 5, 7)
        assert encode_hsv_quaternion(images).shape == (4, 1, 2, 5, 7)
        assert concat_channels(images).shape == (3, 2, 5, 7)

    @pytest.mark.parametrize("shape", [(4, 4, 4), (2, 4, 4, 2), (4, 3), (1, 2, 4, 4, 3)],
                             ids=["hw4", "nhw2", "2d", "5d"])
    @pytest.mark.parametrize("name", ENCODERS)
    def test_encoders_reject_other_shapes(self, name, shape):
        encode, _ = self.ENCODERS[name]
        with pytest.raises(ValueError, match=r"\(H, W, 3\) image or \(N, H, W, 3\) stack"):
            encode(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(4, 4, 4), (2, 4, 4, 3), (4, 3)],
                             ids=["hw4", "stack", "2d"])
    def test_write_ppm_takes_one_image_only(self, tmp_path, shape):
        with pytest.raises(ValueError, match=r"expected \(H, W, 3\) image, got"):
            write_ppm(tmp_path / "img.ppm", np.zeros(shape, dtype=np.uint8))
        assert not (tmp_path / "img.ppm").exists()


class TestPpmIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(70)
        img = rng.integers(0, 256, (9, 11, 3)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_float_write_quantizes(self, tmp_path):
        img = np.full((2, 2, 3), 0.5)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        assert np.all(read_ppm(path) == 128)  # round(0.5 * 255) = 128

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_float_write_rejects_non_finite(self, tmp_path, bad):
        img = np.full((2, 2, 3), 0.5)
        img[1, 0, 0] = bad
        path = tmp_path / "img.ppm"
        with pytest.raises(ValueError, match="must be finite"):
            write_ppm(path, img)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_float_write_rejects_out_of_range(self, tmp_path, bad):
        img = np.full((2, 2, 3), 0.5)
        img[0, 1, 2] = bad
        path = tmp_path / "img.ppm"
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            write_ppm(path, img)
        assert not path.exists()

    def test_ascii_p3(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_text("P3\n# comment\n2 1\n255\n255 0 0  0 0 255\n")
        img = read_ppm(path)
        assert np.array_equal(img, [[[255, 0, 0], [0, 0, 255]]])

    @pytest.mark.parametrize("raw,match", [
        (b"P5\n2 2\n255\n" + bytes(4), "not a P3/P6 portable pixmap"),
        (b"P6 ", "not a P3/P6 portable pixmap"),
        (b"P6\n2 2\n65535\n" + bytes(24), "only maxval 255 is supported, got 65535"),
        (b"P6\n2 2\n255\n" + bytes(11), "truncated pixel data"),
        (b"P3\n2 1\n255\n255 0 0  0 0\n", "expected 6 ascii samples, got 5"),
        (b"P3\n2 1\n255\n255 0 0  0 0 300\n", r"ascii samples must lie in \[0, 255\]"),
        (b"P3\n2 1\n255\n255 0 0  0 -1 0\n", r"ascii samples must lie in \[0, 255\]"),
        (b"P3\n2 1\n255\n255 0 0  0 x 0\n", "non-numeric ascii sample"),
        (b"P6\ntwo 2\n255\n" + bytes(12), "non-numeric width, height or maxval"),
        (b"P3\n2 1\n25.5\n255 0 0  0 0 0\n", "non-numeric width, height or maxval"),
        (b"P6\n-2 2\n255\n" + bytes(12), "width and height must be >= 1"),
        (b"P3\n1 -1\n255\n0 0 0\n", "width and height must be >= 1"),
        (b"P6\n0 0\n255\n", "width and height must be >= 1"),
        (b"P3\n0 2\n255\n", "width and height must be >= 1"),
    ], ids=["p5", "header-ends-after-magic", "maxval", "truncated-p6", "p3-sample-count",
            "p3-sample-above-255", "p3-negative-sample", "p3-non-numeric-sample",
            "non-numeric-width", "non-numeric-maxval", "negative-width", "negative-height",
            "zero-size", "zero-width"])
    def test_rejects_bad_pixmaps(self, tmp_path, raw, match):
        path = tmp_path / "img.ppm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="^" + re.escape(str(path)) + ": " + match):
            read_ppm(path)

    def test_load_image_normalizes(self, tmp_path):
        img = np.zeros((3, 3, 3), dtype=np.uint8)
        img[..., 0] = 255
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        loaded = load_image(path)
        assert loaded.dtype == np.float64
        assert np.allclose(loaded[..., 0], 1.0) and np.allclose(loaded[..., 1:], 0.0)

    def test_load_image_via_pillow_adapter(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        arr = np.zeros((4, 5, 3), dtype=np.uint8)
        arr[..., 2] = 200
        path = tmp_path / "img.png"
        PIL.fromarray(arr).save(path)
        loaded = load_image(path)
        assert loaded.shape == (4, 5, 3)
        assert np.allclose(loaded[..., 2], 200 / 255)

    def test_encoding_determinism(self, tmp_path):
        rng = np.random.default_rng(71)
        img = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        a = encode_rgb_quaternion(load_image(path))
        b = encode_rgb_quaternion(load_image(path))
        assert np.array_equal(a, b)
        ha = encode_hsv_quaternion(rgb_to_hsv(load_image(path)))
        hb = encode_hsv_quaternion(rgb_to_hsv(load_image(path)))
        assert np.array_equal(ha, hb)
