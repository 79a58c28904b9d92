"""ClusterConfig and SweepConfig reject bad values with a ConfigError naming the field."""

import numpy as np
import pytest

from radclust import ClusterConfig, kmeans
from radclust.errors import ConfigError
from radclust.pipeline import SweepConfig

ROWS = np.arange(20, dtype=np.float64).reshape(10, 2)

# The checks that do not depend on the sample count: one bad value each.
OUT_OF_RANGE = [
    ("max_iters", 0),
    ("tol", 0.0),
    ("init", "random"),
    ("restarts", 0),
    ("batch_size", 0),
    ("rbf_sigma", -1.0),
    ("birch_threshold", float("nan")),
]


@pytest.mark.parametrize("name, value", OUT_OF_RANGE)
def test_out_of_range_knob_rejected_before_any_data(name, value):
    with pytest.raises(ConfigError, match=name):
        ClusterConfig(k=2, **{name: value}).validate()
    with pytest.raises(ConfigError, match=name):
        ClusterConfig(k=2, **{name: value}).validate_for(10)
    with pytest.raises(ConfigError, match=name):
        SweepConfig(knobs={name: value})


@pytest.mark.parametrize("name, value", [
    ("k", 2.5),
    ("seed", 1.5),
    ("max_iters", 10.0),
    ("restarts", "2"),
    ("batch_size", 4.0),
    ("tol", "1e-3"),
    ("rbf_sigma", "1"),
    ("birch_threshold", [0.5]),
])
def test_wrong_type_rejected(name, value):
    cfg = ClusterConfig(**{"k": 2, name: value})
    with pytest.raises(ConfigError, match=f"{name} must be"):
        cfg.validate_for(10)
    with pytest.raises(ConfigError, match=f"{name} must be"):
        kmeans(ROWS, cfg)


@pytest.mark.parametrize("name", ["k", "seed", "max_iters", "restarts", "batch_size", "tol",
                                  "rbf_sigma", "birch_threshold"])
@pytest.mark.parametrize("value", [True, False])
def test_bool_rejected_in_number_fields(name, value):
    # bool is an Integral, so True would otherwise pass as 1
    cfg = ClusterConfig(**{"k": 2, name: value})
    with pytest.raises(ConfigError, match=f"{name} must be .*, got {value}"):
        cfg.validate()
    with pytest.raises(ConfigError, match=f"{name} must be"):
        kmeans(ROWS, cfg)


def test_valid_values_accepted():
    ClusterConfig(k=2, batch_size=None, rbf_sigma=None, birch_threshold=None).validate_for(2)
    ClusterConfig(k=np.int64(2), max_iters=np.int32(5), tol=np.float32(0.1), rbf_sigma=1).validate()
    cfg = SweepConfig(ks=np.array([3, 2]), knobs={
        "max_iters": 5, "tol": 1e-3, "init": "kmeans++", "restarts": 2,
        "batch_size": 8, "rbf_sigma": 0.5, "birch_threshold": 0.1,
    })
    assert cfg.ks == [2, 3]


@pytest.mark.parametrize("kwargs, message", [
    ({"knobs": {"bogus": 1}}, "knob 'bogus' is unknown"),
    ({"knobs": {"k": 3}}, "knob 'k' is set per cell by the sweep"),
    ({"knobs": {"seed": 3}}, "knob 'seed' is set per cell by the sweep"),
    ({"ks": [2.7]}, "every k must be an integer, got 2.7"),
    ({"ks": [2, "3"]}, "every k must be an integer, got '3'"),
    ({"algorithms": []}, "algorithm list must not be empty"),
    ({"algorithms": ["kmeans", "kmeanz"]}, r"unknown algorithms \['kmeanz'\]; valid: kmeans, "),
    ({"ks": [True, 3]}, "every k must be an integer, got True"),
    ({"knobs": {"max_iters": True}}, "max_iters must be an integer, got True"),
])
def test_sweep_config_rejects_bad_knobs_and_ks(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        SweepConfig(**kwargs)

