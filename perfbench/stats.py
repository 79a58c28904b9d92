"""Order statistics used for every reported timing."""


def percentile(values, q):
    """The q-th percentile (0..100) by linear interpolation between order
    statistics, the same rule as ``numpy.percentile``'s default."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within 0..100, got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)
