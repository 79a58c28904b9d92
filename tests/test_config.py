"""ClusterConfig and SweepConfig reject bad values with a ConfigError naming the field."""

import dataclasses

import numpy as np
import pytest

from radclust import ClusterConfig, pipeline
from radclust.errors import ConfigError
from radclust.numerics import mix_seed
from radclust.pipeline import SweepConfig, synth_blobs

from oracles import CLUSTER_CONFIG_FIELDS

# The checks that do not depend on the sample count: one bad value each.
OUT_OF_RANGE = [
    ("max_iters", 0),
    ("tol", 0.0),
    ("batch_size", 0),
    ("rbf_sigma", -1.0),
    ("birch_threshold", float("nan")),
    ("tol", float("inf")),
    ("rbf_sigma", float("inf")),
    ("birch_threshold", float("inf")),
]


@pytest.mark.parametrize("name, value", OUT_OF_RANGE)
def test_out_of_range_knob_rejected_before_any_data(name, value):
    with pytest.raises(ConfigError, match=name):
        ClusterConfig(k=2, **{name: value})
    with pytest.raises(ConfigError, match=name):
        SweepConfig(knobs={name: value})


@pytest.mark.parametrize("name, value", [
    ("k", 2.5),
    ("seed", 1.5),
    ("max_iters", 10.0),
    ("seed", None),
    ("batch_size", 4.0),
    ("tol", "1e-3"),
    ("rbf_sigma", "1"),
    ("birch_threshold", [0.5]),
])
def test_wrong_type_rejected(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be"):
        ClusterConfig(**{"k": 2, name: value})


@pytest.mark.parametrize("name", ["k", "seed", "max_iters", "batch_size", "tol",
                                  "rbf_sigma", "birch_threshold"])
@pytest.mark.parametrize("value", [True, False])
def test_bool_rejected_in_number_fields(name, value):
    # bool is an Integral, so True would otherwise pass as 1
    with pytest.raises(ConfigError, match=f"{name} must be .*, got {value}"):
        ClusterConfig(**{"k": 2, name: value})


def test_valid_values_accepted():
    ClusterConfig(k=2, batch_size=None, rbf_sigma=None, birch_threshold=None).validate_for(2)
    ClusterConfig(k=np.int64(2), max_iters=np.int32(5), tol=np.float32(0.1), rbf_sigma=1)
    cfg = SweepConfig(ks=np.array([3, 2]), knobs={
        "max_iters": 5, "tol": 1e-3, "batch_size": 8, "rbf_sigma": 0.5, "birch_threshold": 0.1,
    })
    assert cfg.ks == [2, 3]


def test_fields_are_the_seven_a_run_sets():
    names = [f.name for f in dataclasses.fields(ClusterConfig)]
    assert names == [name for name, _, _ in CLUSTER_CONFIG_FIELDS]
    assert pipeline._KNOBS == ["max_iters", "tol", "batch_size", "rbf_sigma", "birch_threshold"]


def test_config_is_frozen_and_replace_checks_again():
    cfg = ClusterConfig(k=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.tol = -1.0
    with pytest.raises(ConfigError, match="tol must be positive, got -1"):
        dataclasses.replace(cfg, tol=-1)
    assert dataclasses.replace(cfg, k=3) == ClusterConfig(k=3)


def test_k_is_checked_against_n_by_validate_for():
    cfg = ClusterConfig(k=11)
    cfg.validate_for(11)
    with pytest.raises(ConfigError, match="k must satisfy 1 <= k <= n=10, got 11"):
        cfg.validate_for(10)
    with pytest.raises(ConfigError, match="k must satisfy 1 <= k <= n=10, got 0"):
        ClusterConfig(k=0).validate_for(10)


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
    ({"knobs": {"init": "kmeans++"}}, "knob 'init' is unknown"),
    ({"knobs": {"restarts": 3}}, "knob 'restarts' is unknown"),
])
def test_sweep_config_rejects_bad_knobs_and_ks(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        SweepConfig(**kwargs)


# The variants that read each sweep knob: spectral and BIRCH pass max_iters
# and tol on to their global k-means phase, and GMM to its starting k-means.
_ITERATIVE = {"kmeans", "minibatch-kmeans", "spectral", "birch", "gmm-tied", "gmm-diag",
              "gmm-full"}
KNOB_READERS = {
    "max_iters": ({"max_iters": 2}, _ITERATIVE),
    "tol": ({"tol": 0.3}, _ITERATIVE),
    "batch_size": ({"batch_size": 7}, {"minibatch-kmeans"}),
    "rbf_sigma": ({"rbf_sigma": 0.8}, {"spectral"}),
    "birch_threshold": ({"birch_threshold": 0.3}, {"birch"}),
}


def _cells(rows, knobs):
    """{(slug, k): labels, trace and converged} of each variant at k=2..4, seeded as in a sweep."""
    cells = {}
    for index, (slug, _, runner) in enumerate(pipeline.ALGORITHMS):
        for k in (2, 3, 4):
            res = runner(rows, ClusterConfig(k=k, seed=mix_seed(0, index, k), **knobs))
            cells[slug, k] = (res.labels.tobytes(), np.array(res.objective_trace).tobytes(),
                              res.converged)
    return cells


@pytest.fixture(scope="module")
def knob_rows_and_default_cells():
    fm, _ = synth_blobs(30, 3, 4, 1.0, 1.0, seed=4)
    return fm.rows, _cells(fm.rows, {})


@pytest.mark.parametrize("knob", sorted(KNOB_READERS))
def test_a_knob_moves_only_the_variants_that_read_it(knob, knob_rows_and_default_cells):
    rows, default = knob_rows_and_default_cells
    assert sorted(KNOB_READERS) == sorted(pipeline._KNOBS)
    knobs, readers = KNOB_READERS[knob]
    changed = _cells(rows, knobs)
    moved = {slug for (slug, k), cell in changed.items() if cell != default[slug, k]}
    assert moved == readers
