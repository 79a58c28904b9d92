import numpy as np
import pytest

from radclust.errors import BoundsError, ParseError, ShapeError
from radclust.imaging import (
    CropRect,
    ImageGray,
    PixelTensor,
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

    @pytest.mark.parametrize("header", [b"P5 2 1 # 255", b"P5 2 1 #255", b"P5 2 1\n#\n# 255"],
                             ids=["spaced", "unspaced", "after-a-comment-line"])
    def test_comment_to_the_end_of_the_data_holds_no_token(self, header):
        # the digits inside the comment must not be read as maxval
        with pytest.raises(ParseError, match=f"end of PGM header at byte {len(header)}") as exc:
            load_pgm(header)
        assert exc.value.offset == len(header)

    def test_comment_straight_after_a_token(self):
        img = load_pgm(b"P5#m\n2#w\n1#h\r255\n" + bytes([7, 9]))
        assert np.array_equal(img.pixels, [[7, 9]])

    def test_non_numeric_header_field(self):
        with pytest.raises(ParseError, match="width"):
            load_pgm(b"P5 x 2 255 " + bytes(4))

    @pytest.mark.parametrize("token", [b"1_0", b"+1", b"-1"])
    def test_header_field_must_be_ascii_digits(self, token):
        # int() would read 1_0 as 10 and +1 as 1
        with pytest.raises(ParseError, match="height is not an integer") as exc:
            load_pgm(b"P5 2 " + token + b" 255 " + bytes(40))
        assert exc.value.offset == 5

    @pytest.mark.parametrize("header, message, offset", [
        (b"P5\n0 3\n255\n", "PGM width must be >= 1, got 0", 3),
        (b"P5\n5 0\n255\n", "PGM height must be >= 1, got 0", 5),
    ], ids=["width", "height"])
    def test_zero_dimension_reports_offset(self, header, message, offset):
        with pytest.raises(ParseError, match=message) as exc:
            load_pgm(header)
        assert exc.value.offset == offset

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
        with pytest.raises(BoundsError, match="bottom edge 5 exceeds image height 4"):
            crop(ramp(4, 6), CropRect(0, 3, 2, 2))

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

    @pytest.mark.parametrize("out_w, out_h", [(0, 4), (4, 0)])
    def test_empty_target_rejected(self, out_w, out_h):
        with pytest.raises(ShapeError, match="resize target must be >= 1"):
            resize(ramp(4, 4), out_w, out_h)

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

    def test_values_in_unit_interval(self):
        rng = np.random.RandomState(1)
        img = make_image(rng.randint(0, 256, size=(8, 8)))
        t = normalize(img)
        assert t.values.min() >= 0.0 and t.values.max() <= 1.0


class TestContainers:
    @pytest.mark.parametrize("width, height, pixels, message", [
        (0, 2, np.zeros((2, 0)), "image dimensions must be >= 1, got 0x2"),
        (3, 2, np.zeros((3, 2)), r"pixel array shape \(3, 2\) does not match 2x3"),
    ], ids=["empty", "transposed"])
    def test_image_gray_checks_its_shape(self, width, height, pixels, message):
        with pytest.raises(ShapeError, match=message):
            ImageGray(width=width, height=height, pixels=pixels)

    @pytest.mark.parametrize("values, message", [
        (np.zeros((2, 2)), r"pixel tensor must be \(h, w, 1\), got \(2, 2\)"),
        (np.zeros((2, 2, 3)), r"pixel tensor must be \(h, w, 1\), got \(2, 2, 3\)"),
        (np.full((2, 2, 1), 1.5), r"pixel tensor values must lie in \[0, 1\]"),
        (np.full((2, 2, 1), -0.25), r"pixel tensor values must lie in \[0, 1\]"),
    ], ids=["2-d", "3-channel", "above-1", "below-0"])
    def test_pixel_tensor_checks_shape_and_range(self, values, message):
        with pytest.raises(ShapeError, match=message):
            PixelTensor(values)
