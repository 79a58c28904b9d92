"""Property tests for the CSV formats.

Any mutation of a manifest, feature or labels file either parses or ends in
a ParseError that carries a line number or a byte offset, and every id or
path the writers accept reads back unchanged.
"""

import csv

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from radclust.errors import ParseError  # noqa: E402
from radclust.features import FeatureMatrix  # noqa: E402
from radclust.imaging import CropRect  # noqa: E402
from radclust.pipeline import (  # noqa: E402
    ManifestEntry,
    read_features,
    read_labels,
    read_manifest,
    write_features,
    write_labels,
    write_manifest,
)

VALID = {
    "manifest": (read_manifest, write_manifest([
        ManifestEntry(path="a.pgm", crop=CropRect(1, 2, 30, 40), age=64.0, sex="F"),
        ManifestEntry(path="b.pgm"),
        ManifestEntry(path="c.pgm", age=7.5, sex="M"),
    ])),
    "features": (read_features, write_features(FeatureMatrix(
        rows=np.array([[0.5, -1.25, 3e-7], [2.0, 0.0, -4.5]]), ids=["a", "b"],
    ))),
    "labels": (read_labels, write_labels(["a", "b", "c"], [0, 1, 0])),
}
OVERLONG = b"x" * (csv.field_size_limit() + 1)
TOKENS = [b",", b'"', b"\r", b"\n", b"\r\n", b"\x00", b"\xff", b"\xc3", b"-", b"-1", b"0",
          b"9" * 25, b"nan", b"1e999", b" ", OVERLONG]
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


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(VALID)), edits)
@example("labels", [(11, INSERT, b"\xff")])  # not UTF-8
@example("features", [(18, INSERT, b"\r")])  # a bare CR in an unquoted field
@example("manifest", [(49, INSERT, OVERLONG)])  # a field over the csv size limit
@example("manifest", [(48, INSERT, b"-")])  # a negative crop offset
@example("manifest", [(41, DELETE, b"a.pgm")])  # an empty path
@example("features", [(12, TRUNCATE, b"")])  # the header and no data rows
@example("features", [(0, TRUNCATE, b"")])  # an empty file
@example("manifest", [(41, INSERT, b",")])  # a row with 8 fields
@example("labels", [(0, OVERWRITE, b"x")])  # a wrong header
@example("labels", [(14, INSERT, b",")])  # a row with 3 fields
def test_mutated_file_parses_or_fails_positioned(kind, changes):
    read, valid = VALID[kind]
    data = mutate(valid, changes)
    try:
        read(data)
    except ParseError as exc:
        if exc.offset is None:
            assert isinstance(exc.line, int) and exc.line >= 1
        else:
            assert isinstance(exc.offset, int) and 0 <= exc.offset < len(data)


@pytest.mark.parametrize("kind, data, line, offset, message", [
    ("labels", b"id,cluster\na\xffb,0\n", None, 12, "not UTF-8"),
    ("features", b"id,f0\na,1.0\nb\rc,2.0\n", 3, None, "new-line character"),
    ("manifest", b"path,crop_x,crop_y,crop_w,crop_h,age,sex\n" + OVERLONG + b",,,,,,\n",
     2, None, "field larger than field limit"),
    ("manifest", b"path,crop_x,crop_y,crop_w,crop_h,age,sex\n\nb.pgm,-1,0,4,4,,\n",
     3, None, "crop offset must be >= 0"),
    ("manifest", b"path,crop_x,crop_y,crop_w,crop_h,age,sex\nb.pgm,0,0,4,-4,,\n",
     2, None, "crop extent must be >= 1"),
    ("labels", b'id,cluster\n"x"y,1\n', 2, None, "',' expected after '\"'"),
    ("labels", b'id,cluster\n"x,1\na,2\n', 2, None, "unexpected end of data"),
])
def test_escapes_become_positioned_parse_errors(kind, data, line, offset, message):
    with pytest.raises(ParseError, match=message) as exc:
        VALID[kind][0](data)
    assert (exc.value.line, exc.value.offset) == (line, offset)


def test_line_is_where_a_row_starts():
    # the quoted id spans lines 2-3, so the ragged row after it starts on line 4
    data = b'id,f0\n"a\nb",1.0\nc\n'
    with pytest.raises(ParseError, match="feature line 4") as exc:
        read_features(data)
    assert exc.value.line == 4


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=6), min_size=1, max_size=5, unique=True))
@example(["a,b", 'say "hi"', "x\ny", "cr\rhere", "crlf\r\n", ""])
def test_any_id_round_trips(ids):
    labels = list(range(len(ids)))
    assert read_labels(write_labels(ids, labels))[0] == ids
    fm = FeatureMatrix(rows=np.arange(len(ids), dtype=np.float64)[:, None], ids=ids)
    back = read_features(write_features(fm))
    assert back.ids == ids and np.array_equal(back.rows, fm.rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=6).filter(lambda p: p == p.strip() and p),
                min_size=1, max_size=4))
@example(["scan,1.pgm", 'dir "x"/a.pgm', "two\nlines.pgm"])
def test_any_manifest_path_round_trips(paths):
    entries = [ManifestEntry(path=p) for p in paths]
    assert [e.path for e in read_manifest(write_manifest(entries))] == paths


def test_fields_are_quoted_only_when_needed():
    assert write_labels(["plain", "a,b", 'q"t', "n\nl"], [0, 1, 2, 3]) == (
        b'id,cluster\nplain,0\n"a,b",1\n"q""t",2\n"n\nl",3\n'
    )
