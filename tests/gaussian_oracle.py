"""Two Gaussian mixed-volume estimators for testing
`realroots.montecarlo.gaussian_mixed_volume`, both on LAPACK determinants
(`np.linalg.det`) of 65536 samples at a time.

`gaussian_mixed_volume` is the library's estimator computed another way: it
draws the library's n(n-1) normals per sample (one standard normal stream
from `SeedSequence(seed)` in (sample, row, column) order), takes the
cofactor vector w of the first n-1 rows from the determinants of their n
maximal minors, so that det G = <w, g_{n-1}>, and averages
sqrt(2/pi) sqrt(w^T Q_{n-1} w), the conditional mean of |det G|.  The two
agree to rounding on every seed and sample count.

`full_draw_gaussian_mixed_volume` is the estimator the library ran before
it integrated the last row out: it draws all n^2 normals per sample and
averages |det G| itself.  Its mean is the same and its variance larger.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from realroots.montecarlo import MonteCarloStats

_BLOCK = 65536


def _factors(covariances: Sequence[np.ndarray]) -> list[np.ndarray]:
    qs = [np.asarray(q, dtype=float) for q in covariances]
    n = qs[0].shape[0]
    if len(qs) != n or any(q.shape != (n, n) for q in qs):
        raise ValueError("need n covariance matrices of size n")
    factors = []
    for q in qs:
        vals, vecs = np.linalg.eigh(0.5 * (q + q.T))
        vals = np.clip(vals, 0.0, None)
        factors.append(vecs * np.sqrt(vals))
    return factors


def _stats(dets: np.ndarray, const: float) -> MonteCarloStats:
    samples = dets.size
    return MonteCarloStats(
        value=const * float(dets.mean()),
        stderr=const * float(dets.std(ddof=1) / math.sqrt(samples)),
        samples=samples,
    )


def gaussian_mixed_volume(
    covariances: Sequence[np.ndarray], samples: int = 100_000, seed: int = 0
) -> MonteCarloStats:
    factors = _factors(covariances)
    n = len(factors)
    last = factors[-1] @ factors[-1].T
    signs = (-1.0) ** (n - 1 + np.arange(n))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dets = np.empty(samples)
    for done in range(0, samples, _BLOCK):
        block = min(_BLOCK, samples - done)
        z = rng.standard_normal((block, n - 1, n))
        rows = np.empty_like(z)
        for i in range(n - 1):
            rows[:, i, :] = z[:, i, :] @ factors[i].T
        minors = [np.linalg.det(np.delete(rows, j, axis=2)) for j in range(n)]
        w = np.stack(minors, axis=1) * signs
        dets[done : done + block] = np.sqrt(np.einsum("bj,jk,bk->b", w, last, w).clip(0.0))
    const = math.sqrt(2 / math.pi) * (2 * math.pi) ** (n / 2) / math.factorial(n)
    return _stats(dets, const)


def full_draw_gaussian_mixed_volume(
    covariances: Sequence[np.ndarray], samples: int = 100_000, seed: int = 0
) -> MonteCarloStats:
    factors = _factors(covariances)
    n = len(factors)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dets = np.empty(samples)
    for done in range(0, samples, _BLOCK):
        block = min(_BLOCK, samples - done)
        z = rng.standard_normal((block, n, n))
        rows = np.stack([z[:, i, :] @ factors[i].T for i in range(n)], axis=1)
        dets[done : done + block] = np.abs(np.linalg.det(rows))
    return _stats(dets, (2 * math.pi) ** (n / 2) / math.factorial(n))
