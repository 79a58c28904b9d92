import numpy as np
import pytest

from stats import median, percentile


@pytest.mark.parametrize("values", [[3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0, 3.0],
                                    list(np.random.default_rng(4).normal(size=37))])
@pytest.mark.parametrize("q", [0, 10, 25, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(values, q):
    assert percentile(values, q) == pytest.approx(float(np.percentile(values, q)), abs=1e-12)


def test_median_of_odd_and_even_counts():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
