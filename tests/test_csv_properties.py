"""Property tests for the CSV formats.

Any mutation of a manifest, feature or labels file either parses or ends in
a ParseError that carries a line number or a byte offset, and reads as the
eager readers in ``oracles`` read it, up to which of several faults is
named. Every id or path the writers accept reads back unchanged, as does
every manifest entry ``write_manifest`` accepts.
"""

import csv
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import radclust.pipeline as pl  # noqa: E402
from oracles import eager_read_csv, eager_read_features  # noqa: E402
from radclust.errors import DataError, ParseError  # noqa: E402
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


def outcome(read, data):
    """What ``read`` makes of ``data``: ("ok", comparable value) or ("error", ParseError)."""
    try:
        value = read(data)
    except ParseError as exc:
        return "error", exc
    if isinstance(value, tuple):  # labels: ids and the label array
        return "ok", (value[0], value[1].dtype.str, value[1].tobytes())
    if isinstance(value, list):  # manifest entries
        return "ok", [(e.path, e.crop and vars(e.crop), repr(e.age), e.sex) for e in value]
    return "ok", (value.ids, value.rows.shape, value.rows.tobytes())


def eager(kind):
    """The reader of ``kind`` as it was before rows were read one at a time."""
    if kind == "features":
        return eager_read_features
    read = VALID[kind][0]

    def read_eagerly(data):
        with mock.patch.object(pl, "_read_csv", eager_read_csv):
            return read(data)
    return read_eagerly


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(VALID)), edits)
@example("features", [(25, INSERT, b"x"), (31, INSERT, b'"')])  # bad value, then open quote
@example("labels", [(13, INSERT, b"x"), (21, INSERT, b"\r")])  # bad cluster, then bare CR
@example("manifest", [(0, OVERWRITE, b"x"), (60, INSERT, OVERLONG)])  # header, then long field
@example("labels", [(0, INSERT, b'"')])  # a quote left open from the header on
def test_mutated_file_reads_as_the_eager_reader_reads_it(kind, changes):
    data = mutate(VALID[kind][1], changes)
    got, want = outcome(VALID[kind][0], data), outcome(eager(kind), data)
    if want[0] == "ok" or got[0] == "ok":
        assert got == want
        return
    got, want = got[1], want[1]
    if (str(got), got.line, got.offset) != (str(want), want.line, want.offset):
        # several faults: the lazy reader names one on an earlier line
        assert got.offset is None and want.offset is None and got.line < want.line


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
    ("features", b'"id,f0\na,1.0\n', 1, None, "unexpected end of data"),
    ("labels", b'id,"clu"ster\na,0\n', 1, None, "',' expected after '\"'"),
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
@given(st.lists(st.text(min_size=1, max_size=6).filter(str.strip), min_size=1, max_size=4))
@example(["scan,1.pgm", 'dir "x"/a.pgm', "two\nlines.pgm", " padded.pgm\t"])
def test_any_manifest_path_round_trips(paths):
    entries = [ManifestEntry(path=p) for p in paths]
    assert [e.path for e in read_manifest(write_manifest(entries))] == paths


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6))
@example([1e16, 1e-05, -0.0, 5e-324, 2.2250738585072014e-308, 1.5e-310, 1.7976931348623157e308])
def test_every_written_feature_value_reads_back_to_the_same_bits(values):
    fm = FeatureMatrix(rows=np.array(values)[:, None], ids=[f"r{i}" for i in range(len(values))])
    assert read_features(write_features(fm)).rows.tobytes() == fm.rows.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=130.0), min_size=1, max_size=4))
@example([64.123456789, 70.0, 130.0, 5e-324])
def test_any_age_round_trips(ages):
    entries = [ManifestEntry(path=f"{i}.pgm", age=age) for i, age in enumerate(ages)]
    back = read_manifest(write_manifest(entries))
    assert [repr(e.age) for e in back] == [repr(age) for age in ages]


manifest_entries = st.builds(
    ManifestEntry,
    path=st.text(max_size=6),
    crop=st.none() | st.builds(CropRect, *[st.integers(lo, 10**9) for lo in (0, 0, 1, 1)]),
    age=st.none() | st.floats(min_value=-1.0, max_value=131.0) | st.floats(),
    sex=st.sampled_from(["M", "F", "unknown"]) | st.text(max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(manifest_entries, max_size=4))
@example([ManifestEntry(path=" a.pgm\t", age=-0.0), ManifestEntry(path="b", age=130.0)])
def test_every_manifest_the_writer_accepts_reads_back_equal(entries):
    try:
        data = write_manifest(entries)
    except DataError as exc:
        assert str(exc).startswith("manifest entry ")
        return
    back = read_manifest(data)
    assert [(e.path, e.crop and vars(e.crop), repr(e.age), e.sex) for e in back] == [
        (e.path, e.crop and vars(e.crop), repr(e.age), e.sex) for e in entries]


def test_fields_are_quoted_only_when_needed():
    assert write_labels(["plain", "a,b", 'q"t', "n\nl"], [0, 1, 2, 3]) == (
        b'id,cluster\nplain,0\n"a,b",1\n"q""t",2\n"n\nl",3\n'
    )
