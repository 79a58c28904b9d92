"""Property tests: any label input to the metrics ends in a score or a typed error."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from radclust.errors import ConfigError, ShapeError  # noqa: E402
from radclust.metrics import silhouette, sse  # noqa: E402

ROWS = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 0.0], [5.0, 1.0]])
CENTROIDS = np.array([[0.0, 0.5], [5.0, 0.5], [9.0, 9.0]])

scalars = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-1, max_value=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, 2.0, -0.0, 0.5]),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
)
nested = st.recursive(scalars, lambda inner: st.lists(inner, max_size=5), max_leaves=12)
label_inputs = st.one_of(
    st.lists(scalars, min_size=3, max_size=5),
    st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
    nested,
    hnp.arrays(np.uint64, st.integers(min_value=3, max_value=5),
               elements=st.integers(min_value=0, max_value=2**64 - 1)),
    hnp.arrays(np.uint64, 4, elements=st.integers(min_value=0, max_value=3)),
    hnp.arrays(np.float64, 4),
    hnp.arrays(np.int64, 4, elements=st.integers(min_value=-3, max_value=6)),
)


def _valid(labels, bound):
    """The labels as ints when they are four whole numbers in [0, bound), else None."""
    values = labels.tolist() if isinstance(labels, np.ndarray) else labels
    if not isinstance(values, list) or len(values) != 4:
        return None
    for v in values:
        if not (isinstance(v, int) or isinstance(v, float) and v.is_integer()):
            return None
        if not 0 <= v < bound:
            return None
    return [int(v) for v in values]


EXAMPLES = ([0, 10**20, 1, 0], [0.5, 1.7, 0, 1], [[0], [1], [2], [3]],
            np.array([0, 1, 2**63, 0], dtype=np.uint64), [0, 1, "a", 1])


def with_examples(test):
    for labels in EXAMPLES:
        test = example(labels)(test)
    return test


@settings(max_examples=200, deadline=None)
@with_examples
@given(label_inputs)
def test_silhouette_scores_or_raises_typed_error(labels):
    try:
        report = silhouette(ROWS, labels)
    except (ShapeError, ConfigError):
        return
    assert _valid(labels, ROWS.shape[0]) is not None
    assert -1.0 <= report.mean <= 1.0


@settings(max_examples=200, deadline=None)
@with_examples
@given(label_inputs)
def test_sse_scores_or_raises_typed_error(labels):
    try:
        value = sse(ROWS, labels, CENTROIDS)
    except ShapeError:
        assert _valid(labels, CENTROIDS.shape[0]) is None
        return
    expected = _valid(labels, CENTROIDS.shape[0])
    assert expected is not None
    diff = ROWS - CENTROIDS[expected]
    assert value == float((diff * diff).sum())
