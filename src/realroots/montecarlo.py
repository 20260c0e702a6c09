"""Monte Carlo verification: direct zero counting for random ensembles.

Circle counting locates sign changes of real random trigonometric
polynomials on an oversampled grid; the planar torus counter runs a
Lipschitz-certified exclusion subdivision followed by Newton polishing, and
discards (rare) samples it cannot certify.  A Gaussian determinant estimator
for mixed volumes of ellipsoids serves as an independent oracle for the
analytic formulas.

Everything runs in the calling thread and is deterministic given a seed.
The circle counters draw their coefficients in blocks of 256 samples from
one generator seeded by `seed`; the planar counter spawns one generator per
sample from `seed`, so its sample i depends only on (seed, i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .torus import Support

__all__ = [
    "MonteCarloStats",
    "sample_real_laurent",
    "count_zeros_circle",
    "circle_zero_locations",
    "count_common_zeros_torus2",
    "gaussian_mixed_volume",
    "equidistribution_check",
]


@dataclass(frozen=True)
class MonteCarloStats:
    """Sample mean with its standard error."""

    value: float
    stderr: float
    samples: int
    discarded: int = 0

    @property
    def discard_rate(self) -> float:
        total = self.samples + self.discarded
        return self.discarded / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "samples": self.samples,
            "discarded": self.discarded,
        }


# ---------------------------------------------------------------------------
# coefficient sampling
# ---------------------------------------------------------------------------

def _pair_indices(support: Support) -> tuple[int | None, list[tuple[int, int]]]:
    """Index of the zero frequency (if present) and (positive, mirror) index
    pairs; "positive" means lexicographically larger than its negation."""
    index = {p: i for i, p in enumerate(support.points)}
    zero = index.get((0,) * support.dim)
    pairs = []
    for p, i in index.items():
        neg = tuple(-c for c in p)
        if p > neg:
            pairs.append((i, index[neg]))
    return zero, pairs


def _sample_coefficient_matrix(support: Support, count: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of complex coefficients with conjugate symmetry and unit variance
    per frequency, making sum a_lam exp(2 pi i <lam, x>) real and stationary
    with the counting spectral measure."""
    zero, pairs = _pair_indices(support)
    out = np.zeros((count, len(support)), dtype=complex)
    if zero is not None:
        out[:, zero] = rng.standard_normal(count)
    if pairs:
        g = rng.standard_normal((count, len(pairs), 2))
        vals = (g[:, :, 0] + 1j * g[:, :, 1]) / math.sqrt(2.0)
        pos = [p for p, _ in pairs]
        neg = [q for _, q in pairs]
        out[:, pos] = vals
        out[:, neg] = vals.conj()
    return out


def sample_real_laurent(support: Support, rng: np.random.Generator) -> dict[tuple[int, ...], complex]:
    """One random coefficient assignment for a real ensemble on `support`."""
    support.require_symmetric()
    row = _sample_coefficient_matrix(support, 1, rng)[0]
    return dict(zip(support.points, row))


# ---------------------------------------------------------------------------
# circle (dimension one)
# ---------------------------------------------------------------------------

def _circle_grid_values(support: Support, coeffs: np.ndarray, grid: int) -> np.ndarray:
    freqs = np.array([p[0] for p in support.points], dtype=float)
    x = np.arange(grid) / grid
    basis = np.exp(2j * np.pi * np.outer(freqs, x))
    return (coeffs @ basis).real


def _eval_circle(support: Support, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    freqs = np.array([p[0] for p in support.points], dtype=float)
    basis = np.exp(2j * np.pi * np.outer(points, freqs))
    return (basis * coeffs).sum(axis=1).real


def _count_flips_with_refinement(
    support: Support, coeffs: np.ndarray, grid: int
) -> tuple[np.ndarray, list[tuple[int, float, float]]]:
    """Sign-change counts per sample plus the located flip cells.

    Cells whose endpoints are both below the local Lipschitz displacement
    bound are re-examined on a finer local grid so that zero pairs hiding
    inside one cell are still counted.
    """
    vals = _circle_grid_values(support, coeffs, grid)
    nxt = np.roll(vals, -1, axis=1)
    flip = (vals > 0) != (nxt > 0)
    counts = flip.sum(axis=1).astype(float)
    freqs = np.array([p[0] for p in support.points], dtype=float)
    lip = 2 * np.pi * (np.abs(coeffs) * np.abs(freqs)).sum(axis=1)
    h = 1.0 / grid
    bound = (lip * h)[:, None]
    suspicious = (np.abs(vals) < bound) & (np.abs(nxt) < bound) & ~flip
    cells: list[tuple[int, float, float]] = []
    for s, j in zip(*np.nonzero(suspicious)):
        lo = j / grid
        fine = lo + np.arange(33) / (32.0 * grid)
        fv = _eval_circle(support, coeffs[s], fine)
        extra = ((fv[:-1] > 0) != (fv[1:] > 0)).sum()
        counts[s] += extra
        for t in range(32):
            if (fv[t] > 0) != (fv[t + 1] > 0):
                cells.append((s, fine[t], fine[t + 1]))
    flip_cells = [
        (int(s), j / grid, (j + 1) / grid) for s, j in zip(*np.nonzero(flip))
    ]
    return counts, flip_cells + cells


def _circle_blocks(
    support: Support, samples: int, seed: int, grid: int | None
) -> Iterator[tuple[np.ndarray, np.ndarray, list[tuple[int, float, float]]]]:
    """(coefficients, zero counts, flip cells) for successive blocks of at
    most 256 samples, all drawn from one generator seeded by `seed`."""
    support.require_symmetric()
    if support.dim != 1:
        raise ValueError("circle counting needs one-dimensional supports")
    degree = max(abs(p[0]) for p in support.points)
    n = grid or max(4096, 64 * degree)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    done = 0
    while done < samples:
        block = min(256, samples - done)
        coeffs = _sample_coefficient_matrix(support, block, rng)
        counts, cells = _count_flips_with_refinement(support, coeffs, n)
        yield coeffs, counts, cells
        done += block


def count_zeros_circle(
    support: Support, samples: int, seed: int, grid: int | None = None
) -> MonteCarloStats:
    """Monte Carlo mean of the number of zeros on the circle of a random
    real ensemble with the given frequency support."""
    blocks = [counts for _, counts, _ in _circle_blocks(support, samples, seed, grid)]
    counts = np.concatenate(blocks) if blocks else np.empty(0)
    return MonteCarloStats(
        value=float(counts.mean()),
        stderr=float(counts.std(ddof=1) / math.sqrt(samples)),
        samples=samples,
    )


def circle_zero_locations(
    support: Support, samples: int, seed: int, grid: int | None = None
) -> np.ndarray:
    """Pooled zero locations (mod 1) over many samples, refined by bisection."""
    locations: list[np.ndarray] = []
    for coeffs, _, cells in _circle_blocks(support, samples, seed, grid):
        if not cells:
            continue
        sidx, lo, hi = (np.array(column) for column in zip(*cells))
        rows = coeffs[sidx]
        flo = _eval_circle(support, rows, lo)
        for _ in range(45):
            mid = 0.5 * (lo + hi)
            fmid = _eval_circle(support, rows, mid)
            left = (flo > 0) != (fmid > 0)
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, mid)
            flo = np.where(left, flo, fmid)
        locations.append(0.5 * (lo + hi) % 1.0)
    return np.concatenate(locations) if locations else np.empty(0)


# ---------------------------------------------------------------------------
# torus in dimension two: certified subdivision + Newton
# ---------------------------------------------------------------------------

def _eval2(points: np.ndarray, freqs: np.ndarray, coeffs: np.ndarray):
    phase = np.exp(2j * np.pi * (points @ freqs.T))
    f = (phase @ coeffs).real
    gx = (phase @ (coeffs * 2j * np.pi * freqs[:, 0])).real
    gy = (phase @ (coeffs * 2j * np.pi * freqs[:, 1])).real
    return f, gx, gy


def _circular_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.abs(a[:, None, :] - b[None, :, :])
    d = np.minimum(d, 1.0 - d)
    return np.sqrt((d * d).sum(axis=2))


def _newton_polish(
    starts: np.ndarray, f1, c1, f2, c2, iterations: int = 40
) -> np.ndarray:
    pts = starts.copy()
    for _ in range(iterations):
        v1, ax, ay = _eval2(pts, f1, c1)
        v2, bx, by = _eval2(pts, f2, c2)
        det = ax * by - ay * bx
        det = np.where(np.abs(det) < 1e-300, np.nan, det)
        dx = (v1 * by - v2 * ay) / det
        dy = (v2 * ax - v1 * bx) / det
        step = np.stack([dx, dy], axis=1)
        pts = pts - step
    return pts


def _certified_sample_count(
    f1: np.ndarray, c1: np.ndarray, f2: np.ndarray, c2: np.ndarray
) -> int | None:
    """Count common zeros of one sampled pair on [0,1)^2, or None if the
    subdivision cannot be certified (caller discards the sample)."""
    lip1 = 2 * np.pi * float((np.abs(c1) * np.linalg.norm(f1, axis=1)).sum())
    lip2 = 2 * np.pi * float((np.abs(c2) * np.linalg.norm(f2, axis=1)).sum())

    def survivors(centers: np.ndarray, radius: float) -> np.ndarray:
        v1, _, _ = _eval2(centers, f1, c1)
        v2, _, _ = _eval2(centers, f2, c2)
        slack = radius * math.sqrt(2.0)
        keep = (np.abs(v1) <= lip1 * slack) & (np.abs(v2) <= lip2 * slack)
        return centers[keep]

    def refine(centers: np.ndarray, radius: float) -> tuple[np.ndarray, float]:
        half = radius / 2.0
        offs = np.array([[-half, -half], [-half, half], [half, -half], [half, half]])
        return (centers[:, None, :] + offs[None, :, :]).reshape(-1, 2), half

    base = 16
    ax = (np.arange(base) + 0.5) / base
    centers = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    radius = 0.5 / base
    for _ in range(7):
        centers = survivors(centers, radius)
        if centers.size == 0:
            return 0
        centers, radius = refine(centers, radius)
    active = survivors(centers, radius)
    if active.size == 0:
        return 0

    def accepted_zeros(starts: np.ndarray) -> np.ndarray:
        pts = _newton_polish(starts, f1, c1, f2, c2)
        v1, ax_, ay_ = _eval2(pts, f1, c1)
        v2, bx_, by_ = _eval2(pts, f2, c2)
        finite = np.isfinite(pts).all(axis=1)
        res = np.hypot(v1, v2)
        tol = 1e-10 * max(lip1, lip2, 1.0)
        tsum = ax_ * ax_ + ay_ * ay_ + bx_ * bx_ + by_ * by_
        det = np.abs(ax_ * by_ - ay_ * bx_)
        disc = np.sqrt(np.maximum(tsum * tsum - 4 * det * det, 0.0))
        smin = np.sqrt(np.maximum((tsum - disc) / 2.0, 0.0))
        ok = finite & (res < tol) & (smin > 1e-6 * np.sqrt(np.maximum(tsum, 1e-300)))
        return pts[ok] % 1.0

    zeros = accepted_zeros(active)
    uncovered = active
    extra_levels = 0
    while True:
        if zeros.shape[0]:
            dist = _circular_dist(uncovered, zeros).min(axis=1)
            uncovered = uncovered[dist > 8 * radius]
        if uncovered.shape[0] == 0:
            break
        if extra_levels >= 8:
            return None
        uncovered, radius = refine(uncovered, radius)
        uncovered = survivors(uncovered, radius)
        extra_levels += 1
        if uncovered.shape[0] == 0:
            break
        zeros = np.concatenate([zeros, accepted_zeros(uncovered)], axis=0)

    if zeros.shape[0] == 0:
        return 0
    # deduplicate on the torus
    order = np.lexsort((zeros[:, 1], zeros[:, 0]))
    zeros = zeros[order]
    keep = []
    for i in range(zeros.shape[0]):
        if not keep:
            keep.append(i)
            continue
        d = _circular_dist(zeros[i : i + 1], zeros[keep]).min()
        if d > 1e-6:
            keep.append(i)
    return len(keep)


def count_common_zeros_torus2(
    supports: Support | Sequence[Support], samples: int, seed: int
) -> MonteCarloStats:
    """Monte Carlo mean of the number of common zeros on [0,1)^2 of a pair
    of independent random real ensembles.  Samples whose zero set cannot be
    certified are discarded and reported."""
    if isinstance(supports, Support):
        supports = [supports, supports]
    s1, s2 = supports
    for s in (s1, s2):
        s.require_symmetric()
        if s.dim != 2:
            raise ValueError("planar counting needs two-dimensional supports")
    f1 = np.array(s1.points, dtype=float)
    f2 = np.array(s2.points, dtype=float)
    children = np.random.SeedSequence(seed).spawn(samples)

    def one(child) -> int | None:
        rng = np.random.default_rng(child)
        c1 = _sample_coefficient_matrix(s1, 1, rng)[0]
        c2 = _sample_coefficient_matrix(s2, 1, rng)[0]
        return _certified_sample_count(f1, c1, f2, c2)

    results = [one(child) for child in children]
    counts = np.array([r for r in results if r is not None], dtype=float)
    discarded = sum(1 for r in results if r is None)
    if counts.size == 0:
        raise ArithmeticError("all samples were discarded")
    return MonteCarloStats(
        value=float(counts.mean()),
        stderr=float(counts.std(ddof=1) / math.sqrt(counts.size)),
        samples=int(counts.size),
        discarded=discarded,
    )


# ---------------------------------------------------------------------------
# Gaussian mixed-volume estimator
# ---------------------------------------------------------------------------

def gaussian_mixed_volume(
    covariances: Sequence[np.ndarray], samples: int = 100_000, seed: int = 0
) -> MonteCarloStats:
    """Mixed volume of ellipsoids from the expected absolute determinant of
    a Gaussian matrix whose row i has covariance Q_i."""
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


# ---------------------------------------------------------------------------
# equidistribution
# ---------------------------------------------------------------------------

def equidistribution_check(values: np.ndarray, bins: int = 16) -> tuple[float, float]:
    """Chi-square uniformity test of points on the circle; returns the test
    statistic and its p-value."""
    from scipy import stats

    observed, _ = np.histogram(np.asarray(values) % 1.0, bins=bins, range=(0.0, 1.0))
    result = stats.chisquare(observed)
    return float(result.statistic), float(result.pvalue)
