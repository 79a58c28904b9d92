import numpy as np
import pytest

from radclust.errors import BoundsError, ParseError
from radclust.imaging import (
    CropRect,
    ImageGray,
    crop,
    load_pgm,
    normalize,
    resize,
    save_pgm,
)


def make_image(pixels):
    px = np.asarray(pixels, dtype=np.uint8)
    return ImageGray(width=px.shape[1], height=px.shape[0], pixels=px)


def ramp(h, w):
    return make_image(np.arange(h * w, dtype=np.uint8).reshape(h, w))


class TestLoadPgm:
    def test_direct_encoding(self):
        img = load_pgm(b"P5 2 2 255 " + bytes([0, 64, 128, 255]))
        assert (img.width, img.height) == (2, 2)
        assert np.array_equal(img.pixels, [[0, 64], [128, 255]])

    def test_wrong_magic(self):
        with pytest.raises(ParseError, match="unsupported magic") as exc:
            load_pgm(b"P6 2 2 255 " + bytes(12))
        assert exc.value.offset == 0

    def test_truncated_payload_reports_offset(self):
        data = b"P5 4 4 255 " + bytes(15)
        with pytest.raises(ParseError, match="truncated") as exc:
            load_pgm(data)
        assert exc.value.offset == len(data)

    def test_maxval_above_65535_rejected(self):
        with pytest.raises(ParseError, match="maxval must be in 1..65535") as exc:
            load_pgm(b"P5 1 1 65536 " + bytes(2))
        assert exc.value.offset == 7

    def test_16bit_full_range_rescales_big_endian_samples(self):
        # 0x0100 is 256 read big-endian (1 after rescaling) but 1 little-endian (0)
        samples = [0x0000, 0x0100, 0x0101, 0x8000, 0xFFFF]
        data = b"P5 5 1 65535 " + b"".join(v.to_bytes(2, "big") for v in samples)
        img = load_pgm(data)
        # (v * 255 + 32767) // 65535
        assert img.pixels.dtype == np.uint8
        assert np.array_equal(img.pixels, [[0, 1, 1, 128, 255]])

    def test_10bit_maxval_rescales(self):
        data = b"P5 5 1 1023 " + b"".join(v.to_bytes(2, "big") for v in [0, 1, 4, 512, 1023])
        # (v * 255 + 511) // 1023
        assert np.array_equal(load_pgm(data).pixels, [[0, 0, 1, 128, 255]])

    def test_16bit_truncated_payload_counts_samples(self):
        data = b"P5 2 2 1023 " + bytes(7)
        with pytest.raises(ParseError, match="expected 4 2-byte samples, found 3") as exc:
            load_pgm(data)
        assert exc.value.offset == len(data)

    def test_16bit_value_above_maxval_reports_offset(self):
        header = b"P5 3 1 1023 "
        data = header + b"".join(v.to_bytes(2, "big") for v in [5, 1024, 0])
        with pytest.raises(ParseError, match="PGM value 1024 at byte 14 exceeds maxval 1023") as exc:
            load_pgm(data)
        assert exc.value.offset == len(header) + 2

    def test_low_maxval_rescales_to_full_range(self):
        img = load_pgm(b"P5 4 1 15 " + bytes([0, 1, 7, 15]))
        # (v * 255 + 7) // 15
        assert np.array_equal(img.pixels, [[0, 17, 119, 255]])

    def test_value_above_maxval_reports_offset(self):
        data = b"P5 3 1 15 " + bytes([15, 200, 3])
        with pytest.raises(ParseError, match="exceeds maxval 15") as exc:
            load_pgm(data)
        assert exc.value.offset == 11
        assert data[exc.value.offset] == 200

    def test_comments_and_whitespace_variants(self):
        data = b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([7, 9])
        img = load_pgm(data)
        assert np.array_equal(img.pixels, [[7, 9]])

    def test_non_numeric_header_field(self):
        with pytest.raises(ParseError, match="width"):
            load_pgm(b"P5 x 2 255 " + bytes(4))

    def test_round_trip_is_bit_exact(self):
        img = ramp(5, 7)
        data = save_pgm(img)
        back = load_pgm(data)
        assert np.array_equal(back.pixels, img.pixels)
        assert save_pgm(back) == data


class TestCrop:
    def test_top_left_block(self):
        out = crop(ramp(4, 4), CropRect(0, 0, 2, 2))
        assert np.array_equal(out.pixels, [[0, 1], [4, 5]])

    def test_whole_image_is_identity(self):
        img = ramp(3, 5)
        out = crop(img, CropRect(0, 0, 5, 3))
        assert np.array_equal(out.pixels, img.pixels)

    def test_out_of_bounds(self):
        with pytest.raises(BoundsError, match="5"):
            crop(ramp(4, 4), CropRect(3, 3, 2, 2))

    def test_offset_semantics(self):
        out = crop(ramp(4, 4), CropRect(1, 2, 2, 2))
        assert np.array_equal(out.pixels, [[9, 10], [13, 14]])

    def test_composes(self):
        img = ramp(8, 8)
        inner = crop(crop(img, CropRect(1, 2, 5, 4)), CropRect(2, 1, 3, 2))
        direct = crop(img, CropRect(3, 3, 3, 2))
        assert np.array_equal(inner.pixels, direct.pixels)


class TestResize:
    def test_area_average_rounds_half_up(self):
        out = resize(make_image([[0, 2], [4, 6]]), 1, 1)
        assert out.pixels[0, 0] == 3

    def test_own_size_is_identity(self):
        img = ramp(6, 4)
        out = resize(img, 4, 6)
        assert np.array_equal(out.pixels, img.pixels)

    def test_constant_image_stays_constant_both_kernels(self):
        img = make_image(np.full((4, 4), 77))
        for tw, th in [(2, 2), (3, 3), (8, 8), (5, 7)]:
            out = resize(img, tw, th)
            assert np.all(out.pixels == 77)

    def test_range_preserved(self):
        rng = np.random.RandomState(0)
        img = make_image(rng.randint(0, 256, size=(9, 13)))
        for tw, th in [(4, 4), (13, 9), (20, 3)]:
            out = resize(img, tw, th)
            assert out.pixels.min() >= 0 and out.pixels.max() <= 255

    def test_integer_downscale_matches_block_means(self):
        img = ramp(4, 4)
        out = resize(img, 2, 2)
        blocks = img.pixels.reshape(2, 2, 2, 2).mean(axis=(1, 3))
        assert np.array_equal(out.pixels, np.floor(blocks + 0.5).astype(np.uint8))


class TestNormalize:
    def test_endpoints_and_scale(self):
        img = make_image([[255, 0], [51, 102]])
        t = normalize(img)
        assert t.values.shape == (2, 2, 1)
        assert t.values[0, 0, 0] == 1.0
        assert t.values[0, 1, 0] == 0.0
        assert t.values[1, 0, 0] == pytest.approx(0.2)
        assert t.channels == 1

    def test_values_in_unit_interval(self):
        rng = np.random.RandomState(1)
        img = make_image(rng.randint(0, 256, size=(8, 8)))
        t = normalize(img)
        assert t.values.min() >= 0.0 and t.values.max() <= 1.0
