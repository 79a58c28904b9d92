"""Property tests: silhouette is invariant where its definition says it must be.

Rows are small whole numbers, so their Gram-form distances are exact. The
permutation, relabelling and batch tolerances cover only the order in which
the per-cluster distance sums are added up; the translation and scaling ones
also cover the rounding of the moved rows.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import radclust.metrics  # noqa: E402
from radclust.errors import ConfigError  # noqa: E402
from radclust.metrics import SilhouetteReport, silhouette, silhouette_batch  # noqa: E402

from oracles import naive_silhouette  # noqa: E402


@st.composite
def labelings(draw, n):
    """Labels in [0, n) that use at least two clusters."""
    return np.array(draw(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n).filter(lambda v: len(set(v)) > 1)
    ))


@st.composite
def problems(draw):
    """(rows, labels): 3..24 rows of 1..4 whole-number coordinates in [-20, 20]."""
    n = draw(st.integers(3, 24))
    d = draw(st.integers(1, 4))
    rows = draw(hnp.arrays(np.float64, (n, d), elements=st.integers(-20, 20).map(float)))
    return rows, draw(labelings(n))


@settings(deadline=None)
@given(problems(), st.data())
def test_permuting_rows_and_labels_permutes_per_point(problem, data):
    rows, labels = problem
    perm = np.array(data.draw(st.permutations(range(len(rows)))))
    base = silhouette(rows, labels).per_point
    moved = silhouette(rows[perm], labels[perm]).per_point
    assert np.abs(moved - base[perm]).max() <= 1e-12


@settings(deadline=None)
@given(problems(), st.data())
def test_injective_relabelling_leaves_per_point_unchanged(problem, data):
    rows, labels = problem
    mapping = np.array(data.draw(st.permutations(range(len(rows)))))
    base = silhouette(rows, labels).per_point
    assert np.abs(silhouette(rows, mapping[labels]).per_point - base).max() <= 1e-12


@settings(deadline=None)
@given(problems(), st.data())
def test_translation_leaves_per_point_unchanged(problem, data):
    # The Gram form loses about eps * |x|**2 / dist**2 of relative accuracy,
    # so the shift stays within a hundred grid steps of the data.
    rows, labels = problem
    shift = data.draw(hnp.arrays(np.float64, rows.shape[1], elements=st.floats(-100.0, 100.0)))
    base = silhouette(rows, labels).per_point
    np.testing.assert_allclose(silhouette(rows + shift, labels).per_point, base,
                               rtol=1e-9, atol=1e-9)


@settings(deadline=None)
@given(problems(), st.floats(1e-3, 1e3))
# two copies of a row at different positions must stay exactly 0 apart once scaled
@example(
    problem=(np.array([[0.0, 0.0]] * 4 + [[1.0, 3.0]] * 2 + [[0.0, 0.0]]),
             np.array([0, 0, 0, 0, 0, 0, 1])),
    scale=256.2095796303945,
)
def test_positive_scaling_leaves_per_point_unchanged(problem, scale):
    rows, labels = problem
    base = silhouette(rows, labels).per_point
    np.testing.assert_allclose(silhouette(rows * scale, labels).per_point, base,
                               rtol=1e-9, atol=1e-9)


@settings(deadline=None)
@given(problems(), st.data(), st.sampled_from([1, 7, 50, 1 << 20]),
       st.sampled_from([1, 7, 50, 1 << 20]))
def test_labeling_scores_within_rounding_in_a_batch_as_alone(problem, data, block_elements,
                                                             group_elements):
    # Small blocks split the rows into blocks, and small groups the one-hot
    # columns into several groups, or a labeling's clusters into chunks. A
    # batch shares each GEMM among its labelings, so its sums round as a
    # wider product than a labeling's own: per-point values agree within the
    # summation-order tolerance, and only what does not depend on that shape
    # is exact.
    rows, labels = problem
    n = len(rows)
    batch = [labels] + data.draw(st.lists(
        st.one_of(labelings(n), st.integers(0, n - 1).map(lambda c: np.full(n, c))),
        max_size=3,
    ))
    scoreable = [other for other in batch if len(set(other.tolist())) > 1]
    with mock.patch.object(radclust.metrics, "_BLOCK_ELEMENTS", block_elements), \
            mock.patch.object(radclust.metrics, "_GROUP_ELEMENTS", group_elements):
        together = silhouette_batch(rows, batch)
        again = silhouette_batch(rows, batch)
        without_failures = iter(silhouette_batch(rows, scoreable))
        for labels, scored, rescored in zip(batch, together, again):
            if len(set(labels.tolist())) == 1:
                assert isinstance(scored, ConfigError)
                with pytest.raises(ConfigError, match=str(scored)):
                    silhouette(rows, labels)
                continue
            assert isinstance(scored, SilhouetteReport)
            assert scored.per_point.tobytes() == rescored.per_point.tobytes()
            assert scored.per_point.tobytes() == next(without_failures).per_point.tobytes()
            alone = silhouette(rows, labels)
            assert np.abs(scored.per_point - alone.per_point).max() <= 1e-12
            assert np.abs(scored.per_point - naive_silhouette(rows, labels)[0]).max() <= 1e-12
