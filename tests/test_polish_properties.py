"""Property tests: the screened Hartigan polish replays its scalar loop exactly.

``kmeans._polish`` screens blocks of rows against a cached distance table and
applies one move at a time. It must give the bytes of the row-by-row sweep it
replaced, kept in ``tests/oracles.py`` as ``sequential_polish``. Rows are
drawn from a small pool of values, so inputs have duplicate rows, constant
data and ties; labels are arbitrary, so singleton and empty clusters occur
and most starts need several passes.
"""

import numpy as np
import pytest

import radclust.clustering.kmeans as KMEANS

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from oracles import sequential_polish  # noqa: E402

VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def polish_cases(draw):
    """(rows, labels, k): rows from a pool of 1-4 values, any labels in [0, k)."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    pool = draw(st.lists(VALUES, min_size=1, max_size=4))
    cells = draw(st.lists(st.sampled_from(pool), min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return np.array(cells).reshape(n, d), np.array(labels, dtype=np.intp), k


def assert_same_polish(rows, labels, k):
    want_labels, want_centers = sequential_polish(rows, labels, k)
    got_labels, got_centers, stats = KMEANS._polish(rows, labels, k)
    assert np.array_equal(got_labels, want_labels)
    assert got_labels.dtype == want_labels.dtype
    assert got_centers.tobytes() == want_centers.tobytes()
    assert 1 <= stats["passes"] <= 200 and stats["moves"] >= 0
    assert stats["passes"] == 200 or not stats["capped"]
    return stats


@settings(max_examples=200, deadline=None)
@given(polish_cases())
# a singleton cluster whose point would otherwise join the other one
@example((np.array([[0.0], [0.1], [5.0], [5.2]]), np.array([1, 0, 0, 0]), 2))
# constant data: every gain is 0, nothing moves
@example((np.full((6, 3), 0.3), np.array([0, 1, 0, 1, 2, 2]), 3))
# k = n, every cluster a singleton
@example((np.arange(5.0).reshape(5, 1), np.arange(5), 5))
# duplicate rows split across clusters
@example((np.array([[1.0, 2.0]] * 4 + [[7.0, 1.0]] * 3), np.array([0, 1, 0, 1, 0, 1, 1]), 2))
# two empty clusters; the last row ties exactly between two pairs, and the
# rounding of the gain exceeds the 1e-12 threshold, so it flips every pass
@example((np.array([[0.0, 0.0]] * 8 + [[0.0, 396.5], [396.5, 0.0], [396.5, 0.0],
                    [0.0, 396.5], [396.5, 396.5]]), np.zeros(13, dtype=np.intp), 3))
def test_polish_matches_sequential_sweep(case):
    assert_same_polish(*case)


def test_polish_matches_sequential_sweep_across_blocks_and_passes():
    # n past two screen blocks, from a start that needs several passes
    rng = np.random.RandomState(11)
    rows = rng.randn(700, 3) + 4.0 * rng.randint(0, 4, size=(700, 1))
    labels = rng.randint(0, 5, size=700)
    stats = assert_same_polish(rows, labels, 5)
    assert stats["passes"] > 2 and stats["moves"] > KMEANS._SCREEN_ROWS
