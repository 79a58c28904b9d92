"""Property tests for the bulk draws of ``RngStream``.

Any draw of m of n indices is m distinct ints in [0, n), and the same seed
draws the same list. Bulk draws made block by block give the bits and the
final state of one pass over the whole counter range, at block boundaries
and where the counter wraps past 2**64.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from radclust.numerics import _BLOCK, RngStream  # noqa: E402

from oracles import ONE_SHOT_DRAWS  # noqa: E402


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, min(n, 300)), st.integers(0, 2**64 - 1))))
def test_sample_draws_distinct_indices_reproducibly(case):
    n, m, seed = case
    out = RngStream(seed).sample(n, m)
    assert len(out) == m and len(set(out)) == m
    assert all(isinstance(i, int) and 0 <= i < n for i in out)
    assert RngStream(seed).sample(n, m) == out


def _counts(kind):
    """0, 1 and the counts around one block of ``kind``, or two blocks and an odd remainder."""
    block = _BLOCK // ONE_SHOT_DRAWS[kind][1]
    edges = st.sampled_from([0, 1, block - 1, block, block + 1])
    return st.one_of(edges, st.integers(0, block // 2).map(lambda i: 2 * block + 2 * i + 1))


_SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 2**10, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ONE_SHOT_DRAWS)).flatmap(
    lambda kind: st.tuples(st.just(kind), _counts(kind), _SEEDS)))
@example(("u64s", 2 * _BLOCK + 1, 2**64 - 1))
@example(("gaussians", _BLOCK + 3, 2**64 - 1))  # two full blocks of _BLOCK // 2 values and 3
def test_bulk_draws_match_the_one_shot_oracle(case):
    kind, count, seed = case
    oracle_draws = ONE_SHOT_DRAWS[kind][0]
    stream, oracle = RngStream(seed), RngStream(seed)
    got = getattr(stream, kind)(count)
    want = oracle_draws(oracle, count)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert stream._state == oracle._state
