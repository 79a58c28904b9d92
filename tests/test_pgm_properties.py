"""Property tests: any mutation of a PGM file ends in an ImageGray or a positioned ParseError."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from radclust.errors import ParseError  # noqa: E402
from radclust.imaging import ImageGray, load_pgm, save_pgm  # noqa: E402

VALID = {
    "8-bit": save_pgm(ImageGray(width=5, height=3,
                                pixels=np.arange(15, dtype=np.uint8).reshape(3, 5) * 17)),
    "16-bit": b"P5\n# scanner export\n3 2\n1023\n"
              + b"".join(v.to_bytes(2, "big") for v in [0, 1, 511, 512, 1000, 1023]),
}
TOKENS = [b"P5", b"P2", b"#", b"# c\n", b" ", b"\t", b"\n", b"\r", b"0", b"1", b"-", b"+",
          b"_", b"1_0", b"255", b"256", b"65535", b"65536", b"9" * 25, b"\x00", b"\xff"]
INSERT, OVERWRITE, DELETE, TRUNCATE = range(4)
edits = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=3),
              st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=4))),
    min_size=1, max_size=4,
)


def mutate(data, changes):
    data = bytearray(data)
    for at, op, token in changes:
        at %= len(data) + 1
        if op == INSERT:
            data[at:at] = token
        elif op == OVERWRITE:
            data[at:at + len(token)] = token
        elif op == DELETE:
            del data[at:at + len(token)]
        else:
            del data[at:]
    return bytes(data)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(VALID)), edits)
@example("8-bit", [(3, INSERT, b"_")])  # width 5 becomes 5_: not digits
@example("8-bit", [(3, INSERT, b"+")])  # a signed width
@example("16-bit", [(0, TRUNCATE, b"")])  # empty file
@example("16-bit", [(24, OVERWRITE, b"9" * 25)])  # maxval far above 65535
def test_mutated_file_loads_or_fails_positioned(kind, changes):
    data = mutate(VALID[kind], changes)
    try:
        img = load_pgm(data)
    except ParseError as exc:
        assert isinstance(exc.offset, int)
        assert 0 <= exc.offset <= len(data)
    else:
        assert isinstance(img, ImageGray)
