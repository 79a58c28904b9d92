"""Property tests: any mutation of a weight file ends in a WeightSet or a positioned ParseError."""

import struct
import zlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from radclust.cnn import CnnSpec, WeightSet, init_weights, load_weights, save_weights  # noqa: E402
from radclust.errors import ParseError  # noqa: E402

WEIGHTS = init_weights(CnnSpec(), 3)
BLOB = save_weights(WEIGHTS)
PAYLOAD_START = len(BLOB) - 4 - sum(4 * (w.size + b.size) for w, b in WEIGHTS.layers)
PAYLOAD_FLOATS = (len(BLOB) - 4 - PAYLOAD_START) // 4

# xor masks that reach the exponent byte's NaN/inf patterns as well as plain noise
masks = st.one_of(st.integers(min_value=1, max_value=255), st.sampled_from([0x7F, 0x80, 0xFF]))


def assert_weightset_or_positioned_error(data):
    try:
        result = load_weights(data)
    except ParseError as exc:
        assert isinstance(exc.offset, int)
        assert 0 <= exc.offset <= len(data)
    else:
        assert isinstance(result, WeightSet)


def with_crc(data):
    data = bytearray(data)
    data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[PAYLOAD_START:-4])) & 0xFFFFFFFF)
    return bytes(data)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(min_value=0, max_value=PAYLOAD_START + 64),
                 st.integers(min_value=0, max_value=len(BLOB) - 1)))
def test_truncated_file(length):
    assert_weightset_or_positioned_error(BLOB[:length])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(min_value=0, max_value=PAYLOAD_START + 8),
                                    st.integers(min_value=0, max_value=len(BLOB) - 1)),
                          masks),
                min_size=1, max_size=4))
@example([(5, 0x01)])  # the shape table declares 7 layers
def test_flipped_bytes(flips):
    data = bytearray(BLOB)
    for at, mask in flips:
        data[at] ^= mask
    assert_weightset_or_positioned_error(bytes(data))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=PAYLOAD_FLOATS - 1),
                          st.integers(min_value=0, max_value=3),
                          masks),
                min_size=1, max_size=4))
# the first kernel float becomes a quiet NaN (exponent bits all set)
@example([(0, 3, BLOB[PAYLOAD_START + 3] ^ 0x7F), (0, 2, BLOB[PAYLOAD_START + 2] ^ 0xC0)])
def test_flipped_payload_bytes_with_valid_crc(flips):
    data = bytearray(BLOB)
    for index, byte, mask in flips:
        data[PAYLOAD_START + 4 * index + byte] ^= mask
    data = with_crc(data)
    floats = np.frombuffer(data, dtype="<f4", count=PAYLOAD_FLOATS, offset=PAYLOAD_START)
    bad = np.flatnonzero(~np.isfinite(floats))
    if bad.size:
        with pytest.raises(ParseError, match="non-finite") as exc:
            load_weights(data)
        assert exc.value.offset == PAYLOAD_START + 4 * int(bad[0])
    else:
        assert isinstance(load_weights(data), WeightSet)
