"""Property tests for ``RngStream.sample``.

Any draw of m of n indices is m distinct ints in [0, n), and the same seed
draws the same list.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from radclust.numerics import RngStream  # noqa: E402


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, min(n, 300)), st.integers(0, 2**64 - 1))))
def test_sample_draws_distinct_indices_reproducibly(case):
    n, m, seed = case
    out = RngStream(seed).sample(n, m)
    assert len(out) == m and len(set(out)) == m
    assert all(isinstance(i, int) and 0 <= i < n for i in out)
    assert RngStream(seed).sample(n, m) == out
