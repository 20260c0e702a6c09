"""Three Gaussian mixed-volume estimators for testing
`realroots.montecarlo.gaussian_mixed_volume`, all on LAPACK factorizations
(`np.linalg.svd`, `np.linalg.det`) of 65536 samples at a time.

`gaussian_mixed_volume` is the library's estimator computed another way: it
takes the library's n(n-2) normals per sample from its point helper
(`realroots.montecarlo._shifted_normals`: min(32, samples) digital shifts
of ceil(samples / shifts) Sobol points, 65536 rows at a time where the
library takes 16384), takes the product of the drawn rows' singular values
and an orthonormal basis U of the plane they leave from a full SVD,
restricts the last two covariances to that plane, A = U^T Q_(n-2) U and
C = U^T Q_(n-1) U, and averages |det| = volume times E|det| of the 2 x 2
Gaussian matrix with row covariances A and C.  That is
2 s_1 E(1 - s_2^2 / s_1^2) / pi, from the singular values s_1 >= s_2 of
A^(1/2) J C^(1/2) (J the quarter turn, square roots by eigh) and
`scipy.special.ellipe`.  Its estimate is the mean of the shifts' means and
its stderr their spread over sqrt(shifts).  At n = 1 it returns the
segment length 2 sqrt(Q).  The two agree to rounding on every seed and
sample count.

`one_row_gaussian_mixed_volume` is the estimator the library ran before it
integrated the last two rows out: it takes n(n-1) normals per sample from
the same point helper and shifts, takes the cofactor vector w of the first
n-1 rows from the determinants of their n maximal minors, so that
det G = <w, g_(n-1)>, and averages sqrt(2/pi) sqrt(w^T Q_(n-1) w), the
conditional mean of |det G| given those rows, with the stderr of the
shifts' means.  As both draw the same kind of points, comparing the two
isolates the second row integrated out.

`full_draw_gaussian_mixed_volume` integrates nothing out: it draws all n^2
plain standard normals per sample from `SeedSequence(seed)` and averages
|det G| itself, with the stderr of independent samples.

All three have the same mean; each integrates out fewer rows than the one
before it and has a larger variance.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import ellipe

from realroots.montecarlo import MonteCarloStats, _shifted_normals

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


def _shift_stats(dets: np.ndarray, shifts: int, const: float) -> MonteCarloStats:
    # deviations from the first sample, so a constant estimate has stderr 0
    shift = dets[0]
    means = (dets - shift).reshape(shifts, -1).mean(axis=1)
    return MonteCarloStats(
        value=const * float(shift + means.mean()),
        stderr=const * float(means.std(ddof=1) / math.sqrt(shifts)),
        samples=dets.size,
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
    shifts = min(32, samples)
    points = -(-samples // shifts)
    if n == 1:
        return _shift_stats(np.full(shifts * points, 2.0 * np.sqrt(factors[0] @ factors[0].T)[0, 0]), shifts, 1.0)
    q, q2 = (f @ f.T for f in factors[-2:])
    dets = []
    for _, normals in _shifted_normals(n * (n - 2), shifts, points, seed, _BLOCK):
        block = len(normals)
        z = normals.reshape(block, n - 2, n)
        if n == 2:
            volume, plane = np.ones(block), np.broadcast_to(np.eye(2), (block, 2, 2))
        else:
            rows = np.stack([z[:, i, :] @ factors[i].T for i in range(n - 2)], axis=1)
            _, sv, vh = np.linalg.svd(rows, full_matrices=True)
            volume, plane = sv.prod(axis=1), vh[:, n - 2 :, :]
        planet = np.swapaxes(plane, -1, -2)
        dets.append(volume * _planar_mean_abs_det(plane @ q @ planet, plane @ q2 @ planet))
    return _shift_stats(np.concatenate(dets), shifts, (2 * math.pi) ** (n / 2) / math.factorial(n))


def one_row_gaussian_mixed_volume(
    covariances: Sequence[np.ndarray], samples: int = 100_000, seed: int = 0
) -> MonteCarloStats:
    factors = _factors(covariances)
    n = len(factors)
    last = factors[-1] @ factors[-1].T
    signs = (-1.0) ** (n - 1 + np.arange(n))
    shifts = min(32, samples)
    points = -(-samples // shifts)
    dets = []
    for _, normals in _shifted_normals(n * (n - 1), shifts, points, seed, _BLOCK):
        z = normals.reshape(-1, n - 1, n)
        rows = np.empty_like(z)
        for i in range(n - 1):
            rows[:, i, :] = z[:, i, :] @ factors[i].T
        minors = [np.linalg.det(np.delete(rows, j, axis=2)) for j in range(n)]
        w = np.stack(minors, axis=1) * signs
        dets.append(np.sqrt(np.einsum("bj,jk,bk->b", w, last, w).clip(0.0)))
    const = math.sqrt(2 / math.pi) * (2 * math.pi) ** (n / 2) / math.factorial(n)
    return _shift_stats(np.concatenate(dets), shifts, const)


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
