"""Monte Carlo verification: direct zero counting for random ensembles.

Both zero counters count only certified zeros.  On the circle, f and f' come
from one matmul on a starting grid of 16 cells per unit of degree and |f''|
is bounded by M2 = (2 pi)^2 sum |c_k| k^2.  A cell of width h with a sign
change holds exactly one zero when |f'| - M2 h > 0 at one of its ends; a
cell without a sign change holds none when the second-order Taylor lower
bound on |f| stays positive.  The other cells are halved, all of a block at
once.  On the 2-torus, a box counter written for n systems on [0,1)^n
decides the boxes of a whole block of samples together, each box carrying
the index of its sample: boxes are dropped by a first- or second-order
exclusion bound, and the Krawczyk test (interval Jacobian = centre Jacobian
+- a Hessian bound from sum |c| |lambda|^2 times the radius) certifies
exactly one zero in a box or none; each certified zero is polished by
Newton and credited to the one half-open box that holds it.  The other
boxes are split in 2^n.  F and its Jacobian come from per-coordinate tables
of exp(2 pi i k t), whose products give every frequency.  A sample with
cells or boxes still undecided after a fixed number of splits, or with too
many of them, is discarded without touching the rest of its block: it is
reported in `MonteCarloStats.discarded` and left out of the mean, and fewer
than 2 kept samples raise ArithmeticError.  A Gaussian determinant estimator
for mixed volumes of ellipsoids serves as an independent oracle for the
analytic formulas.

Everything runs in the calling thread and is deterministic given a seed.
The circle counters draw their coefficients in blocks of 256 samples from
one generator seeded by `seed`; the planar counter spawns one generator per
sample from `seed`, so its sample i depends only on (seed, i), and decides
its samples _SAMPLE_BLOCK at a time, so memory does not grow with `samples`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .convex import _psd_eigh
from .torus import Support

__all__ = [
    "MonteCarloStats",
    "count_zeros_circle",
    "circle_zero_locations",
    "count_common_zeros_torus2",
    "gaussian_mixed_volume",
]


@dataclass(frozen=True)
class MonteCarloStats:
    """Sample mean with its standard error."""

    value: float
    stderr: float
    samples: int
    discarded: int = 0

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "samples": self.samples,
            "discarded": self.discarded,
        }


def _require_samples(samples: int, minimum: int = 2) -> None:
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < minimum:
        raise ValueError(f"need an integer of at least {minimum} samples, got {samples!r}")


# ---------------------------------------------------------------------------
# coefficient sampling
# ---------------------------------------------------------------------------

def _coefficient_sampler(support: Support):
    """A function (count, rng) -> rows of complex coefficients with conjugate
    symmetry and unit variance per frequency, making sum a_lam
    exp(2 pi i <lam, x>) real and stationary with the counting spectral
    measure.  The zero frequency (if present) draws first, then one complex
    value per (positive, mirror) pair; "positive" means lexicographically
    larger than its negation."""
    index = {p: i for i, p in enumerate(support.points)}
    zero = index.get((0,) * support.dim)
    pos, neg = [], []
    for p, i in index.items():
        mirror = tuple(-c for c in p)
        if p > mirror:
            pos.append(i)
            neg.append(index[mirror])

    def draw(count: int, rng: np.random.Generator) -> np.ndarray:
        out = np.zeros((count, len(support)), dtype=complex)
        if zero is not None:
            out[:, zero] = rng.standard_normal(count)
        if pos:
            g = rng.standard_normal((count, len(pos), 2))
            vals = (g[:, :, 0] + 1j * g[:, :, 1]) / math.sqrt(2.0)
            out[:, pos] = vals
            out[:, neg] = vals.conj()
        return out

    return draw


# ---------------------------------------------------------------------------
# certificates shared by both counters
# ---------------------------------------------------------------------------

# A computed value of an exponential sum is trusted only beyond this multiple
# of the sum of its |coefficients| (times 2 pi |frequency| for a derivative):
# far above the rounding error of the evaluation, far below any value the
# certificates need.
_ROUNDING = 1e-12


def _kept_stats(counts: np.ndarray, discarded: int) -> MonteCarloStats:
    """Mean and standard error of the kept per-sample counts; fewer than 2
    kept samples raise ArithmeticError."""
    if counts.size < 2:
        raise ArithmeticError(
            f"{discarded} of {counts.size + discarded} samples were discarded, fewer than 2 kept"
        )
    return MonteCarloStats(
        value=float(counts.mean()),
        stderr=float(counts.std(ddof=1) / math.sqrt(counts.size)),
        samples=int(counts.size),
        discarded=int(discarded),
    )


# ---------------------------------------------------------------------------
# circle (dimension one): Taylor-certified cells
# ---------------------------------------------------------------------------

_CIRCLE_ROUNDS = 30  # halvings of an undecided cell before its sample is discarded
_CIRCLE_CELL_CAP = 2048  # undecided cells one sample may hold before it is discarded


def _fold(freqs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Rows g with Re sum_k c_k e(k x) = Re sum_j g_j e(j x), j = 0..max|k|,
    where e(t) = exp(2 pi i t)."""
    fold = np.zeros((len(freqs), int(np.abs(freqs).max()) + 1))
    fold[np.arange(len(freqs)), np.abs(freqs)] = 1.0
    return np.where(freqs < 0, coeffs.conj(), coeffs) @ fold


def _circle_eval(g: np.ndarray, rows: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f and f' of the rows g[rows] at the points x, by Horner's rule."""
    z = np.exp(2j * np.pi * x)
    top = g.shape[1] - 1
    f = g[rows, top]
    df = top * f
    for j in range(top - 1, -1, -1):
        col = g[rows, j]
        f = f * z + col
        df = df * z + j * col
    return f.real, (2j * np.pi * df).real


def _circle_decide(f0, d0, f1, d1, h, m2, ef, ed):
    """(exactly one zero, no zero) certificates of cells [x, x + h] from f and
    f' at both ends, given |f''| <= m2 and evaluation errors ef and ed."""
    sure = (np.abs(f0) > ef) & (np.abs(f1) > ef)
    flip = (f0 > 0) != (f1 > 0)
    # |f'| >= |f'(end)| - m2 h > 0: f is monotone, so a sign change is one zero
    one = sure & flip & (np.maximum(np.abs(d0), np.abs(d1)) > m2 * h + ed)
    # on the half cell next to each end, s f >= |f(end)| +- s f'(end) t - m2 t^2 / 2
    s = np.sign(f0)
    q = m2 * h * h / 8 + ed * h / 2 + ef
    free = sure & ~flip & (np.abs(f0) + s * d0 * h / 2 > q) & (np.abs(f1) - s * d1 * h / 2 > q)
    return one, free


def _circle_cells(g: np.ndarray, grid: int):
    """Certified zeros of real trigonometric polynomials on [0, 1).

    Row s of `g` is f_s(x) = Re sum_j g_sj exp(2 pi i j x).  f and f' on the
    grid come from one matmul and the cells are decided as one (rows x grid)
    array; the undecided cells are halved as one flat array, at most
    _CIRCLE_ROUNDS times.  A row still undecided then, or holding more than
    _CIRCLE_CELL_CAP undecided cells, is not kept.  Returns the certified zero
    count of each row, the kept mask, and the certified one-zero cells as
    (row, left end, width) arrays."""
    b = len(g)
    k = np.arange(g.shape[1])
    mag = np.abs(g)
    ef = _ROUNDING * mag.sum(axis=1)
    ed = _ROUNDING * 2 * np.pi * (mag @ k)
    m2 = (2 * np.pi) ** 2 * (mag @ (k * k))
    h = 1.0 / grid
    jet = np.vstack([g, 2j * np.pi * k * g])
    angle = 2 * np.pi / grid * np.outer(k, np.arange(grid))
    vals = np.hstack([jet.real, -jet.imag]) @ np.vstack([np.cos(angle), np.sin(angle)])
    f, d = vals[:b], vals[b:]
    f1, d1 = np.roll(f, -1, axis=1), np.roll(d, -1, axis=1)
    one, free = _circle_decide(f, d, f1, d1, h, m2[:, None], ef[:, None], ed[:, None])
    counts = one.sum(axis=1)
    rows, cols = np.nonzero(one)
    cells = [(rows, cols * h, np.full(rows.size, h))]
    rows, cols = np.nonzero(~(one | free))
    state = (cols * h, f[rows, cols], d[rows, cols], f1[rows, cols], d1[rows, cols])
    kept = np.ones(b, dtype=bool)
    for _ in range(_CIRCLE_ROUNDS):
        if rows.size == 0:
            break
        kept &= np.bincount(rows, minlength=b) <= _CIRCLE_CELL_CAP
        live = kept[rows]
        rows = rows[live]
        lo, f0, d0, fe, de = (a[live] for a in state)
        h /= 2
        fm, dm = _circle_eval(g, rows, lo + h)
        rows = np.concatenate([rows, rows])
        lo, f0, d0, fe, de = (
            np.concatenate(pair)
            for pair in ((lo, lo + h), (f0, fm), (d0, dm), (fm, fe), (dm, de))
        )
        one, free = _circle_decide(f0, d0, fe, de, h, m2[rows], ef[rows], ed[rows])
        counts += np.bincount(rows[one], minlength=b)
        cells.append((rows[one], lo[one], np.full(int(one.sum()), h)))
        rest = ~(one | free)
        rows = rows[rest]
        state = tuple(a[rest] for a in (lo, f0, d0, fe, de))
    kept[rows] = False
    return counts, kept, tuple(np.concatenate(column) for column in zip(*cells))


def _circle_blocks(support: Support, samples: int, seed: int) -> Iterator[tuple]:
    """(folded coefficients g, zero counts, kept mask, one-zero cells) for
    successive blocks of at most 256 samples, all drawn from one generator
    seeded by `seed`, on a starting grid of 16 cells per unit of degree; see
    _circle_cells."""
    support.require_symmetric()
    if support.dim != 1:
        raise ValueError("circle counting needs one-dimensional supports")
    freqs = np.array([p[0] for p in support.points])
    grid = 16 * max(1, int(np.abs(freqs).max()))
    draw = _coefficient_sampler(support)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    done = 0
    while done < samples:
        block = min(256, samples - done)
        g = _fold(freqs, draw(block, rng))
        yield (g, *_circle_cells(g, grid))
        done += block


def count_zeros_circle(support: Support, samples: int, seed: int) -> MonteCarloStats:
    """Monte Carlo mean of the number of zeros on the circle of a random
    real ensemble with the given frequency support.  Every counted zero is
    certified, samples that cannot be certified are discarded and reported,
    and fewer than 2 kept samples raise ArithmeticError."""
    _require_samples(samples)
    blocks = [counts[kept] for _, counts, kept, _ in _circle_blocks(support, samples, seed)]
    counts = np.concatenate(blocks).astype(float)
    return _kept_stats(counts, samples - counts.size)


def circle_zero_locations(support: Support, samples: int, seed: int) -> np.ndarray:
    """Pooled zero locations (mod 1) over the kept samples, found by bisection
    inside the certified one-zero cells."""
    _require_samples(samples, 1)
    locations: list[np.ndarray] = []
    for g, _, kept, (rows, lo, width) in _circle_blocks(support, samples, seed):
        take = kept[rows]
        rows, lo = rows[take], lo[take]
        hi = lo + width[take]
        flo, _ = _circle_eval(g, rows, lo)
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            fmid, _ = _circle_eval(g, rows, mid)
            left = (flo > 0) != (fmid > 0)
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, mid)
            flo = np.where(left, flo, fmid)
        locations.append(0.5 * (lo + hi) % 1.0)
    return np.concatenate(locations) if locations else np.empty(0)


# ---------------------------------------------------------------------------
# torus in any dimension: exclusion and Krawczyk subdivision
# ---------------------------------------------------------------------------

_BOX_BASE = 16  # boxes per side of the starting grid
_BOX_LEVELS = 16  # splits of an undecided box before its sample is discarded
_BOX_CAP = 4096  # undecided boxes one sample may hold before it is discarded
_BOX_INFLATE = 2.0  # the Krawczyk test runs on the box blown up by this factor
_NEWTON_STEPS = 6  # full Newton steps polishing a certified zero
# A polished zero is rounded to this lattice before it is credited to a box:
# far finer than any box edge, far coarser than the spread of two polishes of
# one zero, so every box that finds a zero credits it to the same box.
_SNAP = 2.0**-40
_SAMPLE_BLOCK = 64  # samples whose boxes are subdivided together
_JET_CHUNK = 512  # points per evaluation of the jet


def _table_jet(freqs: Sequence[np.ndarray], coeffs: Sequence[np.ndarray]):
    """A function of points (m x n) and their sample rows (m) giving
    F = (F_1, ..., F_n) (m x n) and its Jacobian (m x n x n) for the
    coefficient rows coeffs[i][rows] on the frequencies freqs[i].

    Only real parts are kept, and Re(w e(-lam t)) = Re(conj(w) e(lam t)), so
    the weights of -lam fold onto lam, whose first nonzero coordinate is
    then positive (as `_fold` does on the circle), so lam_1 >= 0.
    Frequencies are integers, so e(<lam, t>) = prod_c e(t_c)^lam_c,
    e(x) = exp(2 pi i x), is a product of one entry of a table of e(k t_1),
    k = 0..top, and one of e(k t_c), k = -top..top, for each later
    coordinate: top + 1 `exp`s per coordinate (e(-k t) is the conjugate of
    e(k t)) instead of one per frequency.  Points are evaluated _JET_CHUNK
    at a time, so the work arrays stay small however many points there
    are."""
    n, size, every = len(freqs), len(coeffs[0]), np.vstack(freqs).astype(int)
    flip = every[np.arange(len(every)), np.argmax(every != 0, axis=1)] < 0
    half, where = np.unique(np.where(flip[:, None], -every, every), axis=0, return_inverse=True)
    raw = np.zeros((size, len(every), n, n + 1), dtype=complex)
    equation = np.repeat(np.arange(n), [len(f) for f in freqs])
    terms = np.hstack([np.ones((len(every), 1)), 2j * np.pi * every])
    raw[:, np.arange(len(every)), equation] = np.hstack(coeffs)[:, :, None] * terms
    raw = np.where(flip[None, :, None, None], raw.conj(), raw).reshape(size, len(every), -1)
    weights = np.zeros((size, len(half), n * (n + 1)), dtype=complex)
    np.add.at(weights, (slice(None), where), raw)
    top = int(np.abs(half).max())
    ks = 2j * np.pi * np.arange(top + 1)
    index = half.T.copy()
    index[1:] += top

    def jet(points: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = np.empty((len(points), n * (n + 1)))
        for lo in range(0, len(points), _JET_CHUNK):
            part = slice(lo, lo + _JET_CHUNK)
            table = np.exp(points[part].T[:, :, None] * ks)
            powers = table[0][:, index[0]]
            for c in range(1, n):
                both = np.concatenate([table[c][:, :0:-1].conj(), table[c]], axis=1)
                powers = powers * both[:, index[c]]
            out[part] = np.matmul(powers[:, None, :], weights[rows[part]])[:, 0].real
        out = out.reshape(-1, n, n + 1)
        return out[:, :, 0], out[:, :, 1:]

    return jet


@functools.lru_cache(maxsize=None)
def _leibniz(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index and sign tables of the adjugate of an n x n matrix M read as a
    flat row of n * n entries: adj[i, j] = sum_t sign[i n + j, t] prod_k
    M.flat[index[i n + j, t, k]], the sum over the permutations p with
    p(j) = i of sgn(p) prod_{r != j} M[r, p(r)]."""
    terms: list[list[tuple[float, list[int]]]] = [[] for _ in range(n * n)]
    for p in itertools.permutations(range(n)):
        sign = (-1.0) ** sum(p[a] > p[b] for a, b in itertools.combinations(range(n), 2))
        for j in range(n):
            terms[p[j] * n + j].append((sign, [r * n + p[r] for r in range(n) if r != j]))
    index = np.array([[entries for _, entries in entry] for entry in terms], dtype=int)
    return index, np.array([[sign for sign, _ in entry] for entry in terms])


def _inverse(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack of n x n matrices, as the Leibniz adjugate over
    the determinant expanded along the first row, and the mask of those not
    too close to singular to invert."""
    n = jac.shape[1]
    index, signs = _leibniz(n)
    adj = (signs * jac.reshape(-1, n * n)[:, index].prod(axis=3)).sum(axis=2).reshape(-1, n, n)
    det = (jac[:, 0, :] * adj[:, :, 0]).sum(axis=1)
    ok = np.abs(det) > _ROUNDING * (jac * jac).sum(axis=(1, 2))
    return adj / np.where(ok, det, 1.0)[:, None, None], ok


def _certified_counts(
    freqs: Sequence[np.ndarray], coeffs: Sequence[np.ndarray]
) -> list[int | None]:
    """Count the common zeros on [0,1)^n, n = len(freqs), of the systems with
    coefficient rows coeffs[i][s] on the frequencies freqs[i], one count per
    row s, or None for a row whose zeros the subdivision cannot certify (the
    caller discards that sample).

    The boxes of all rows are subdivided together, level by level; each box
    carries its row, and the row's bounds and coefficients are gathered by
    it.  Each level first drops the boxes where some |F_i| is bounded away
    from 0 by a Lipschitz or second-order Taylor bound around the centre (a
    box of radius r lies within sqrt(n) r of it, so the Hessian term is
    (n / 2) r^2 sum |c| |2 pi lam|^2).  On the others, the Krawczyk operator
    K(X) of the box X blown up by _BOX_INFLATE, with the interval Jacobian
    taken as the centre Jacobian +- a Hessian bound times sqrt(n) times the
    radius, holds every zero in X: inside int X it certifies exactly one,
    disjoint from X none.  Newton polishes a certified zero and the box
    credits it to its row only if its own half-open box holds it, so a zero
    found by several boxes is counted once.  The other boxes are split in
    2^n.  A row with more than _BOX_CAP of them, or with any left after
    _BOX_LEVELS splits, is dropped without touching the others."""
    n, size = len(freqs), len(coeffs[0])
    systems = list(zip(freqs, coeffs))
    lip = np.stack([2 * np.pi * np.abs(c) @ np.linalg.norm(f, axis=1) for f, c in systems], axis=1)
    hess = np.stack(
        [(2 * np.pi) ** 2 * np.abs(c) @ (f * f).sum(axis=1) for f, c in systems], axis=1
    )
    ef = np.stack([_ROUNDING * np.abs(c).sum(axis=1) for _, c in systems], axis=1)
    ed = _ROUNDING * lip
    jet = _table_jet(freqs, coeffs)

    axis = (np.arange(_BOX_BASE) + 0.5) / _BOX_BASE
    grid = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    centers = np.tile(grid, (size, 1))
    rows = np.repeat(np.arange(size), len(grid))
    radius = 0.5 / _BOX_BASE
    counts = np.zeros(size, dtype=int)
    kept = np.ones(size, dtype=bool)
    for level in range(_BOX_LEVELS + 1):
        val, jac = jet(centers, rows)
        reach = np.minimum(
            lip[rows] * math.sqrt(n) * radius,
            (np.abs(jac).sum(axis=2) + n * ed[rows]) * radius
            + hess[rows] * (n / 2) * radius * radius,
        )
        live = (np.abs(val) <= reach + ef[rows]).all(axis=1)
        centers, rows, val, jac = centers[live], rows[live], val[live], jac[live]
        # Krawczyk: K(X) = x - Y F(x) + (I - Y J(X)) (X - x), Y = J(x)^-1
        wide = _BOX_INFLATE * radius
        inv, ok = _inverse(jac)
        step = np.einsum("nab,nb->na", inv, val)
        spread = np.abs(np.eye(n) - inv @ jac).sum(axis=2)
        bound = hess[rows] * math.sqrt(n) * wide + ed[rows]
        spread += n * np.einsum("nab,nb->na", np.abs(inv), bound)
        k_radius = np.einsum("nab,nb->na", np.abs(inv), ef[rows]) + wide * spread
        free = (np.abs(step) > wide + k_radius).any(axis=1)
        ok &= (np.abs(step) + k_radius < wide).all(axis=1)
        if ok.any():
            # a box whose Newton polish leaves it or does not settle stays undecided
            zeros, zrows = centers[ok] - step[ok], rows[ok]
            settled = np.ones(zeros.shape[0], dtype=bool)
            for _ in range(_NEWTON_STEPS):
                zval, zjac = jet(zeros, zrows)
                zinv, zok = _inverse(zjac)
                move = np.einsum("nab,nb->na", zinv, zval) * zok[:, None]
                settled &= zok
                zeros = zeros - move
            settled &= (np.abs(move) < _SNAP).all(axis=1)
            settled &= (np.abs(zeros - centers[ok]) < wide).all(axis=1)
            ok[ok] = settled
            snapped = np.round(zeros[settled] / _SNAP) * _SNAP % 1.0
            low = centers[ok] - radius
            inside = ((low <= snapped) & (snapped < low + 2 * radius)).all(axis=1)
            counts += np.bincount(rows[ok][inside], minlength=size)
        undecided = ~(ok | free)
        centers, rows = centers[undecided], rows[undecided]
        # a row over the cap, or still undecided after the last level, is dropped
        load = np.bincount(rows, minlength=size)
        kept &= load <= (_BOX_CAP if level < _BOX_LEVELS else 0)
        mine = kept[rows]
        centers, rows = centers[mine], rows[mine]
        if rows.size == 0:
            break
        radius /= 2.0
        centers = (centers[:, None, :] + radius * corners).reshape(-1, n)
        rows = np.repeat(rows, len(corners))
    return [int(c) if k else None for c, k in zip(counts, kept)]


def count_common_zeros_torus2(
    supports: Support | Sequence[Support], samples: int, seed: int
) -> MonteCarloStats:
    """Monte Carlo mean of the number of common zeros on [0,1)^2 of a pair
    of independent random real ensembles.  Every counted zero is certified;
    samples that cannot be certified are discarded and reported, and fewer
    than 2 kept samples raise ArithmeticError."""
    _require_samples(samples)
    if isinstance(supports, Support):
        supports = [supports, supports]
    if len(supports) != 2 or any(s.dim != 2 for s in supports):
        raise ValueError("planar counting needs two two-dimensional supports")
    for s in supports:
        s.require_symmetric()
    freqs = [np.array(s.points, dtype=float) for s in supports]
    draws = [_coefficient_sampler(s) for s in supports]
    root = np.random.SeedSequence(seed)
    results: list[int | None] = []
    while len(results) < samples:
        # spawning in blocks gives the same children as spawning all at once
        rngs = map(np.random.default_rng, root.spawn(min(_SAMPLE_BLOCK, samples - len(results))))
        rows = [[draw(1, rng) for draw in draws] for rng in rngs]
        results += _certified_counts(freqs, [np.vstack(c) for c in zip(*rows)])
    counts = np.array([r for r in results if r is not None], dtype=float)
    return _kept_stats(counts, samples - counts.size)


# ---------------------------------------------------------------------------
# Gaussian mixed-volume estimator
# ---------------------------------------------------------------------------

_DET_BLOCK = 16384  # Gaussian matrices drawn and reduced together


def gaussian_mixed_volume(
    covariances: Sequence[np.ndarray], samples: int = 100_000, seed: int = 0
) -> MonteCarloStats:
    """Mixed volume of ellipsoids from the expected absolute determinant of
    a Gaussian matrix G whose row i has covariance Q_i.

    The last row is integrated out exactly.  Let b_0 .. b_{n-2} be the
    Gram-Schmidt unit vectors of rows 0..n-2 and P the product of their
    residual norms (row i minus its projection on the span of rows
    0..i-1).  Then det G = P <g_{n-1}, u> with u the unit normal of that
    span, <g_{n-1}, u> ~ N(0, u^T Q u) for Q = Q_{n-1}, and
    u u^T = I - sum_k b_k b_k^T, so

        E[|det G| | rows 0..n-2] = sqrt(2/pi) P sqrt(tr Q - sum_k b_k^T Q b_k),

    and the estimate averages this conditional mean: the expectation of
    |det G| with no larger variance (Rao-Blackwellization), from n(n-1)
    normals per sample.  At n = 1 nothing is drawn and the estimate is
    exact.  Each block of _DET_BLOCK samples is reduced at once: row i of
    every sample in the block is one column of an (n, block) array.  The
    draws are one standard normal stream in (sample, row, column) order, so
    the blocking does not change them.  Every Q_i must be finite and
    positive semidefinite (as for `Ellipsoid`)."""
    _require_samples(samples)
    qs = [np.asarray(q, dtype=float) for q in covariances]
    n = len(qs)
    if n == 0 or any(q.shape != (n, n) for q in qs):
        raise ValueError("need n >= 1 covariance matrices of size n")
    factors = []
    for q in qs:
        vals, vecs = _psd_eigh(q)
        factors.append(vecs * np.sqrt(vals))
    last = factors[-1] @ factors[-1].T
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    const = math.sqrt(2 / math.pi) * (2 * math.pi) ** (n / 2) / math.factorial(n)
    dets = np.ones(samples)
    for done in range(0, samples, _DET_BLOCK):
        block = min(_DET_BLOCK, samples - done)
        z = rng.standard_normal((block, n - 1, n))
        det = dets[done : done + block]
        var = np.full(block, np.trace(last))
        basis: list[np.ndarray] = []
        for i, factor in enumerate(factors[:-1]):
            row = factor @ z[:, i, :].T
            for unit in basis:
                row -= np.einsum("kb,kb->b", unit, row) * unit
            norm = np.sqrt(np.einsum("kb,kb->b", row, row))
            det *= norm
            # a zero residual has already made the determinant 0; as a zero
            # basis vector it removes nothing from the later rows
            np.divide(row, norm, out=row, where=norm > 0)
            basis.append(row)
            var -= np.einsum("kb,kb->b", row, last @ row)
        det *= np.sqrt(np.maximum(var, 0.0, out=var), out=var)
    # deviations from the first sample: a constant estimate has stderr 0
    shift = dets[0]
    dets -= shift
    return MonteCarloStats(
        value=const * float(shift + dets.mean()),
        stderr=const * float(dets.std(ddof=1) / math.sqrt(samples)),
        samples=samples,
    )
