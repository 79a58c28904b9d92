"""Property tests: any mutation of a weight file ends in a WeightSet or a positioned ParseError.

The reader must also accept and refuse the same files as the field-by-field
reference in ``oracles``, each refusal inside the same field.
"""

import bisect
import itertools
import struct
import zlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from radclust import cnn  # noqa: E402
from radclust.cnn import (  # noqa: E402
    LAYERS, CnnSpec, WeightSet, init_weights, load_weights, save_weights,
)
from radclust.errors import ParseError  # noqa: E402
from oracles import fieldwise_load_weights  # noqa: E402

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
@example([(9, 0x01)])  # layer 0 declares 5 dims
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


# the end of each field: magic, version, layer count, then each layer's ndim and dims
FIELD_ENDS = list(itertools.accumulate([4, 1, 4, *(4 * (1 + len(shape)) for _, shape in LAYERS)]))
# then the payload and the checksum; any later offset is after the checksum
FIELD_ENDS += [len(BLOB) - 4, len(BLOB)]


def field_of(offset):
    """Index of the field holding byte ``offset`` (len(FIELD_ENDS) after the checksum)."""
    return bisect.bisect_right(FIELD_ENDS, offset)


def verdict(reader, data):
    try:
        return reader(data)
    except ParseError as exc:
        return exc


def test_header_and_file_size_are_pinned():
    assert FIELD_ENDS[len(LAYERS) + 2] == len(cnn._HEADER) == PAYLOAD_START == 113
    assert len(BLOB) == cnn._FILE_SIZE == 3_137_717
    assert BLOB[:113] == cnn._HEADER


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.integers(min_value=0, max_value=PAYLOAD_START + 64),
                 st.integers(min_value=0, max_value=len(BLOB) + 8)),
       st.lists(st.tuples(st.one_of(st.integers(min_value=0, max_value=PAYLOAD_START + 8),
                                    st.integers(min_value=0, max_value=len(BLOB) + 7)),
                          masks),
                max_size=3))
@example(0, [])  # an empty file
@example(2, [])  # a shortened magic: truncated at 2, where the reference said bad magic at 0
@example(PAYLOAD_START, [])
@example(len(BLOB) + 1, [])
@example(len(BLOB), [(5, 0x01)])  # the shape table declares 7 layers
@example(len(BLOB), [(9, 0x01)])  # layer 0 declares 5 dims
@example(len(BLOB), [(18, 0x01)])  # layer 0's second dim, not its first byte
@example(11, [(3, 0x20)])  # a bad magic in a truncated file
def test_same_files_refused_in_the_same_field_as_the_fieldwise_reader(length, flips):
    data = bytearray(BLOB + bytes(8))
    for at, mask in flips:
        data[at] ^= mask
    data = bytes(data[:length])
    want, got = verdict(fieldwise_load_weights, data), verdict(load_weights, data)
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError), f"accepted a file the reference refused: {want}"
        assert field_of(got.offset) == field_of(want.offset), (got, want)
    else:
        assert isinstance(got, WeightSet), f"refused a file the reference accepted: {got}"
        for (wa, ba), (wb, bb) in zip(want.layers, got.layers):
            assert wa.tobytes() == wb.tobytes() and ba.tobytes() == bb.tobytes()


@pytest.mark.parametrize("length, flip, offset, message", [
    (2, None, 2, "truncated weight stream at byte 2 while reading magic"),
    (len(BLOB), (2, 0x01), 2, r"header differs at byte 2: magic must be b'OCNN'"),
    (len(BLOB), (4, 0x03), 4, "header differs at byte 4: version must be 1"),
    (len(BLOB), (7, 0x01), 7, "header differs at byte 7: layer count must be 6"),
    (len(BLOB), (18, 0x01), 18,
     r"header differs at byte 18: shape table entry of layer 0 must be \(64, 1, 3, 3\)"),
    (len(BLOB), (112, 0x01), 112,
     r"header differs at byte 112: shape table entry of layer 5 must be \(16, 64\)"),
    (100, None, 100, "truncated weight stream at byte 100 while reading shape table entry of layer 4"),
    (PAYLOAD_START, None, PAYLOAD_START, "truncated weight stream at byte 113$"),
])
def test_header_refusal_names_its_field_and_first_differing_byte(length, flip, offset, message):
    data = bytearray(BLOB[:length])
    if flip:
        data[flip[0]] ^= flip[1]
    with pytest.raises(ParseError, match=message) as exc:
        load_weights(bytes(data))
    assert exc.value.offset == offset
