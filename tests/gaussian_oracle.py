"""Three Gaussian mixed-volume estimators for testing
`realroots.montecarlo.gaussian_mixed_volume`, all on LAPACK factorizations
(`np.linalg.svd`, `np.linalg.det`) of 65536 samples at a time.

`gaussian_mixed_volume` is the library's estimator computed another way: it
draws the library's n(n-2) normals per sample (one standard normal stream
from `SeedSequence(seed)` in (sample, row, column) order), takes the
product of the drawn rows' singular values and an orthonormal basis U of
the plane they leave from a full SVD, restricts the last two covariances
to that plane, A = U^T Q_(n-2) U and C = U^T Q_(n-1) U, and averages
|det| = volume times E|det| of the 2 x 2 Gaussian matrix with row
covariances A and C.  That is 2 s_1 E(1 - s_2^2 / s_1^2) / pi, from the
singular values s_1 >= s_2 of A^(1/2) J C^(1/2) (J the quarter turn,
square roots by eigh) and `scipy.special.ellipe`.  At n = 1 it returns the
segment length 2 sqrt(Q).  The two agree to rounding on every seed and
sample count.

`one_row_gaussian_mixed_volume` is the estimator the library ran before it
integrated the last two rows out: it draws n(n-1) normals per sample,
takes the cofactor vector w of the first n-1 rows from the determinants of
their n maximal minors, so that det G = <w, g_(n-1)>, and averages
sqrt(2/pi) sqrt(w^T Q_(n-1) w), the conditional mean of |det G| given
those rows.

`full_draw_gaussian_mixed_volume` integrates nothing out: it draws all n^2
normals per sample and averages |det G| itself.

All three have the same mean; each integrates out fewer rows than the one
before it and has a larger variance.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import ellipe

from realroots.montecarlo import MonteCarloStats

_BLOCK = 65536
_QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])


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
    # deviations from the first sample: a constant estimate has stderr 0
    shift = dets[0]
    dets = dets - shift
    return MonteCarloStats(
        value=const * float(shift + dets.mean()),
        stderr=const * float(dets.std(ddof=1) / math.sqrt(samples)),
        samples=samples,
    )


def _psd_sqrt(q: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(q)
    root = np.sqrt(np.clip(vals, 0.0, None))[..., None, :]
    return (vecs * root) @ np.swapaxes(vecs, -1, -2)


def _planar_mean_abs_det(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """E|det| of 2 x 2 Gaussian matrices with row covariances a and c."""
    s = np.linalg.svd(_psd_sqrt(a) @ _QUARTER_TURN @ _psd_sqrt(c), compute_uv=False)
    s1, s2 = s[..., 0], s[..., 1]
    ratio = np.divide(s2, s1, out=np.zeros_like(s1), where=s1 > 0)
    return 2.0 * s1 * ellipe(1.0 - ratio * ratio) / math.pi


def gaussian_mixed_volume(
    covariances: Sequence[np.ndarray], samples: int = 100_000, seed: int = 0
) -> MonteCarloStats:
    factors = _factors(covariances)
    n = len(factors)
    if n == 1:
        return _stats(np.full(samples, 2.0 * np.sqrt(factors[0] @ factors[0].T)[0, 0]), 1.0)
    q, q2 = (f @ f.T for f in factors[-2:])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dets = np.empty(samples)
    for done in range(0, samples, _BLOCK):
        block = min(_BLOCK, samples - done)
        z = rng.standard_normal((block, n - 2, n))
        if n == 2:
            volume, plane = np.ones(block), np.broadcast_to(np.eye(2), (block, 2, 2))
        else:
            rows = np.stack([z[:, i, :] @ factors[i].T for i in range(n - 2)], axis=1)
            _, sv, vh = np.linalg.svd(rows, full_matrices=True)
            volume, plane = sv.prod(axis=1), vh[:, n - 2 :, :]
        planet = np.swapaxes(plane, -1, -2)
        area = _planar_mean_abs_det(plane @ q @ planet, plane @ q2 @ planet)
        dets[done : done + block] = volume * area
    return _stats(dets, (2 * math.pi) ** (n / 2) / math.factorial(n))


def one_row_gaussian_mixed_volume(
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
