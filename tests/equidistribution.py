"""Chi-square uniformity test of zero locations on the circle.

It lived in `realroots.montecarlo` until no library code called it; it is
the only place the counters' checks need scipy.
"""

import numpy as np
from scipy import stats


def equidistribution_check(values: np.ndarray, bins: int = 16) -> tuple[float, float]:
    """Chi-square uniformity test of points on the circle; returns the test
    statistic and its p-value."""
    observed, _ = np.histogram(np.asarray(values) % 1.0, bins=bins, range=(0.0, 1.0))
    result = stats.chisquare(observed)
    return float(result.statistic), float(result.pvalue)
