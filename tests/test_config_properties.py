"""Property test: building a ClusterConfig raises exactly what the old validate() returned."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from radclust import ClusterConfig  # noqa: E402
from radclust.errors import ConfigError  # noqa: E402

from oracles import CLUSTER_CONFIG_FIELDS, cluster_config_error  # noqa: E402

# Ints, floats with nan and inf, bools, strings and None, for every field.
_VALUES = st.one_of(
    st.integers(-3, 3), st.integers(),
    st.sampled_from([0.0, -0.0, 1e-4, 0.5, 2.0, -1.5, math.nan, math.inf, -math.inf]),
    st.floats(), st.booleans(), st.sampled_from(["", "2", "1e-3"]), st.none(),
)


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({}, optional={name: _VALUES for name, _, _ in CLUSTER_CONFIG_FIELDS}),
       _VALUES)
@example({}, 2)
@example({"seed": -1, "tol": 0.5, "batch_size": 3, "rbf_sigma": 1, "birch_threshold": None}, 1)
@example({"tol": math.nan}, 2)
@example({"max_iters": 0, "tol": "1e-3"}, 2)  # every type check runs before any range check
def test_building_raises_exactly_what_the_oracle_returns(given_values, k):
    kwargs = {"k": k, **given_values}
    values = {name: kwargs.get(name, default) for name, _, default in CLUSTER_CONFIG_FIELDS}
    want = cluster_config_error(values)
    try:
        ClusterConfig(**kwargs)
    except ConfigError as exc:
        assert str(exc) == want
    else:
        assert want is None
