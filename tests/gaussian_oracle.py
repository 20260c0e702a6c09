"""The Gaussian mixed-volume estimator that `realroots.montecarlo` ran
before it took |det G| as a product of Gram-Schmidt residual norms: a test
oracle, kept verbatim but for the sample-count check.

It stacks the rows of 65536 matrices at a time and takes one LAPACK LU
determinant (`np.linalg.det`) per matrix.  The draws are the library's: one
standard normal stream from `SeedSequence(seed)` in (sample, row, column)
order, so the two agree to rounding on every seed and sample count.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from realroots.montecarlo import MonteCarloStats


def gaussian_mixed_volume(
    covariances: Sequence[np.ndarray], samples: int = 100_000, seed: int = 0
) -> MonteCarloStats:
    qs = [np.asarray(q, dtype=float) for q in covariances]
    n = qs[0].shape[0]
    if len(qs) != n or any(q.shape != (n, n) for q in qs):
        raise ValueError("need n covariance matrices of size n")
    factors = []
    for q in qs:
        vals, vecs = np.linalg.eigh(0.5 * (q + q.T))
        vals = np.clip(vals, 0.0, None)
        factors.append(vecs * np.sqrt(vals))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    const = (2 * math.pi) ** (n / 2) / math.factorial(n)
    dets = np.empty(samples)
    done = 0
    while done < samples:
        block = min(65536, samples - done)
        z = rng.standard_normal((block, n, n))
        rows = np.stack([z[:, i, :] @ factors[i].T for i in range(n)], axis=1)
        dets[done : done + block] = np.abs(np.linalg.det(rows))
        done += block
    return MonteCarloStats(
        value=const * float(dets.mean()),
        stderr=const * float(dets.std(ddof=1) / math.sqrt(samples)),
        samples=samples,
    )
