"""Monte Carlo verification: direct zero counting for random ensembles.

Both zero counters count only certified zeros.  On the circle, f and f' come
from one matmul on a starting grid of 16 cells per unit of degree and |f''|
is bounded by M2 = (2 pi)^2 sum |c_k| k^2.  A cell of width h with a sign
change holds exactly one zero when |f'| - M2 h > 0 at one of its ends; a
cell without a sign change holds none when the second-order Taylor lower
bound on |f| stays positive.  The other cells are halved, all of a block at
once.  On the 2-torus, a box counter written for n systems on [0,1)^n
decides the boxes of a whole block of samples together, each box carrying
the index of its sample, from a starting grid of 16 boxes per side per unit
of the largest frequency coordinate: boxes are dropped by a first- or
second-order exclusion bound as they are made, the latter with the box's
own Hessian at its centre and a third-order remainder from sum |c|
|lambda|_1^3, and the Krawczyk test (interval Jacobian = centre Jacobian +-
the smaller of a bound from sum |c| |lambda|_1^2 and one from the centre
Hessian, times the radius) certifies exactly one zero in a box or none.
Every bound reads |<lambda, d>| <= |lambda|_1 r on a box of radius r.  The
other boxes are split in 2^n.  F and its Jacobian are real matmuls of a
box's exponential products e(<lambda, x>) with its sample's weights; the
starting grid's products are computed once per block, and a child's are its
parent's times a fixed unit shift per corner, so no `exp` runs below the
grid.  The certified boxes of every level are polished by Newton together,
until every zero has settled, and each zero is credited to the one
half-open box that holds it.  A sample with cells or boxes still undecided
after a fixed number of splits, with too many of them, or with a certified
box whose polish does not settle, is discarded without touching the rest of
its block: it is reported in `MonteCarloStats.discarded` and left out of
the mean, and fewer than 2 kept samples raise ArithmeticError.  A Gaussian
determinant estimator gives mixed
volumes of ellipsoids where no closed form applies: it draws the first n - 2
rows and integrates the last two out through the planar mixed area, the
closed form of `convex`.  So at n <= 2 it draws nothing and returns that
closed form, and only from n = 3 on does it check the sphere rule by
sampling.

Everything runs in the calling thread and is deterministic given a seed.
The circle counters draw their coefficients in blocks of 256 samples from
one generator seeded by `seed`; the planar counter spawns one generator per
sample from `seed`, draws all of a sample's normals in one call, so its
sample i depends only on (seed, i), and decides its samples _SAMPLE_BLOCK at
a time.  The Gaussian estimator reduces its draws _DET_BLOCK at a time and
keeps only pooled sums.  So no memory grows with `samples`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .convex import _complement_mixed_areas, _mixed_area, _psd_eigh
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
    """Sample mean with its standard error.  `samples` counts the samples
    the mean is over: 0 for an exact value, which draws none."""

    value: float
    stderr: float
    samples: int
    discarded: int = 0


def _require_draws(samples: int, seed: int, minimum: int = 2) -> None:
    """ValueError, naming the value, unless `samples` is an integer of at
    least `minimum` and `seed` a non-negative one (a bool is neither): no
    counter draws from OS entropy."""
    for value, least, what in ((samples, minimum, "samples"), (seed, 0, "for the seed")):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"need an integer of at least {least} {what}, got {value!r}")


# ---------------------------------------------------------------------------
# coefficient sampling
# ---------------------------------------------------------------------------

def _coefficient_rows(support: Support):
    """(lead, width, rows): rows(normals) turns standard normals (count x
    width) into rows of complex coefficients with conjugate symmetry and
    unit variance per frequency, making sum a_lam exp(2 pi i <lam, x>) real
    and stationary with the counting spectral measure.  The first `lead`
    columns (1 if the zero frequency is present, else 0) are its value, the
    rest the (Re, Im) pairs of one complex value per (positive, mirror)
    pair; "positive" means lexicographically larger than its negation."""
    index = {p: i for i, p in enumerate(support.points)}
    zero = index.get((0,) * support.dim)
    lead = int(zero is not None)
    pos, neg = [], []
    for p, i in index.items():
        mirror = tuple(-c for c in p)
        if p > mirror:
            pos.append(i)
            neg.append(index[mirror])

    def rows(normals: np.ndarray) -> np.ndarray:
        out = np.zeros((len(normals), len(support)), dtype=complex)
        if lead:
            out[:, zero] = normals[:, 0]
        if pos:
            g = normals[:, lead:].reshape(len(normals), len(pos), 2)
            vals = (g[:, :, 0] + 1j * g[:, :, 1]) / math.sqrt(2.0)
            out[:, pos] = vals
            out[:, neg] = vals.conj()
        return out

    return lead, lead + 2 * len(pos), rows


def _coefficient_sampler(support: Support):
    """A function (count, rng) -> `count` coefficient rows (see
    _coefficient_rows).  A block draws the zero frequency's column first,
    then the pairs, so one row (count 1) is its `width` normals in order."""
    lead, width, rows = _coefficient_rows(support)

    def draw(count: int, rng: np.random.Generator) -> np.ndarray:
        first = rng.standard_normal((count, lead))
        return rows(np.hstack([first, rng.standard_normal((count, width - lead))]))

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
    _require_draws(samples, seed)
    blocks = [counts[kept] for _, counts, kept, _ in _circle_blocks(support, samples, seed)]
    counts = np.concatenate(blocks).astype(float)
    return _kept_stats(counts, samples - counts.size)


def circle_zero_locations(support: Support, samples: int, seed: int) -> np.ndarray:
    """Pooled zero locations (mod 1) over the kept samples, found by bisection
    inside the certified one-zero cells."""
    _require_draws(samples, seed, 1)
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

_BOX_BASE = 16  # boxes per side of the starting grid per unit of the largest frequency
_BOX_LEVELS = 16  # splits of an undecided box before its sample is discarded
_BOX_CAP = 4096  # undecided boxes one sample may hold before it is discarded
_BOX_INFLATE = 2.0  # the Krawczyk test runs on the box blown up by this factor
_NEWTON_STEPS = 6  # most Newton steps polishing the certified zeros of a block
# A polished zero is rounded to this lattice before it is credited to a box:
# far finer than any box edge, far coarser than the spread of two polishes of
# one zero, so every box that finds a zero credits it to the same box.
_SNAP = 2.0**-40
_SAMPLE_BLOCK = 64  # samples whose boxes are subdivided together
_BOX_CHUNK = 2048  # boxes made and tested for exclusion, or Krawczyk-tested, at once


def _product_jet(freqs: Sequence[np.ndarray], coeffs: Sequence[np.ndarray]):
    """(half, jet, curvature) for the systems with coefficient rows
    coeffs[i][s] on the frequencies freqs[i]: `half` (H x n) holds the
    distinct frequencies up to sign, jet(products, rows) gives F = (F_1,
    ..., F_n) (m x n) and its Jacobian (m x n x n) at m points from their
    exponential products e(<half, x>) (m x H), e(t) = exp(2 pi i t), and
    curvature(products, rows) gives sum_jk |H_i,jk| (m x n), H_i the
    Hessian of F_i, from n(n + 1)/2 more weight columns per equation.

    Only real parts are kept, and Re(w e(-lam t)) = Re(conj(w) e(lam t)), so
    the weights of -lam fold onto lam, whose first nonzero coordinate is
    then positive (as `_fold` does on the circle).  The weights of row s
    are real (2H x columns) matrices acting on the products read as (Re, Im)
    pairs, so F, J and H are real matmuls.  `rows` gives the sample row of
    each point and must be sorted: each run of one row is contracted with
    that row's weights in one matmul, and no weights are gathered per
    point.  A slice of rows instead evaluates every point for each row in
    it, one row after the other (as the starting grid, which every sample
    shares, is evaluated)."""
    n, size, every = len(freqs), len(coeffs[0]), np.vstack(freqs).astype(int)
    flip = every[np.arange(len(every)), np.argmax(every != 0, axis=1)] < 0
    half, where = np.unique(np.where(flip[:, None], -every, every), axis=0, return_inverse=True)
    upper = np.triu_indices(n)
    terms = np.hstack(
        [
            np.ones((len(every), 1)),
            2j * np.pi * every,
            (2j * np.pi) ** 2 * every[:, upper[0]] * every[:, upper[1]],
        ]
    )
    raw = np.zeros((size, len(every), n, terms.shape[1]), dtype=complex)
    equation = np.repeat(np.arange(n), [len(f) for f in freqs])
    raw[:, np.arange(len(every)), equation] = np.hstack(coeffs)[:, :, None] * terms
    raw = np.where(flip[None, :, None, None], raw.conj(), raw)
    folded = np.zeros((size, len(half), n, terms.shape[1]), dtype=complex)
    np.add.at(folded, (slice(None), where), raw)
    # Re(p w) = Re p Re w - Im p Im w, against p's (Re, Im) pairs
    weights = np.stack([folded.real, -folded.imag], axis=2).reshape(size, 2 * len(half), n, -1)
    first = np.ascontiguousarray(weights[..., : n + 1].reshape(size, 2 * len(half), -1))
    second = np.ascontiguousarray(weights[..., n + 1 :].reshape(size, 2 * len(half), -1))
    # an entry off the diagonal stands for two of the symmetric Hessian
    twice = np.where(upper[0] == upper[1], 1.0, 2.0)

    def contract(table: np.ndarray, products: np.ndarray, rows: np.ndarray | slice) -> np.ndarray:
        flat = products.view(float)
        if isinstance(rows, slice):
            return flat @ table[rows]
        out = np.empty((len(rows), table.shape[2]))
        starts = [0, *(np.flatnonzero(rows[1:] != rows[:-1]) + 1)][: len(rows)]
        for lo, hi in zip(starts, [*starts[1:], len(rows)]):
            np.matmul(flat[lo:hi], table[rows[lo]], out=out[lo:hi])
        return out

    def jet(products: np.ndarray, rows: np.ndarray | slice) -> tuple[np.ndarray, np.ndarray]:
        out = contract(first, products, rows).reshape(-1, n, n + 1)
        return out[:, :, 0], out[:, :, 1:]

    def curvature(products: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.abs(contract(second, products, rows).reshape(-1, n, len(twice))) @ twice

    return half, jet, curvature


def _exponentials(points: np.ndarray, half: np.ndarray) -> np.ndarray:
    """The products e(<half, x>) (m x H) at the points x (m x n)."""
    return np.exp(2j * np.pi * (points @ half.T))


def _children(
    centers: np.ndarray, products: np.ndarray, radius: float, half: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Centres and products e(<half, .>) of the 2^n children of radius
    `radius` of boxes with the given centres and products, children of one
    parent consecutive.  The child c + radius corner has the products
    e(<half, c>) e(radius <half, corner>): the parent's times a unit shift
    per corner, so no `exp` runs per box.  Each split adds about one
    rounding to the products, far below the _ROUNDING margin of the
    certificates after _BOX_LEVELS splits."""
    n = centers.shape[1]
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    shifts = _exponentials(radius * corners, half)
    return (
        (centers[:, None, :] + radius * corners).reshape(-1, n),
        (products[:, None, :] * shifts).reshape(-1, len(half)),
    )


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


def _across(op, stack: np.ndarray) -> np.ndarray:
    """op folded over the short last axis of `stack` one column at a time,
    as op.reduce(stack, axis=-1) (np.add adds the same floats in the same
    order), without numpy's slow loops over a short strided axis."""
    return functools.reduce(op, (stack[..., k] for k in range(stack.shape[-1])))


def _abs_row_sums(stack: np.ndarray) -> np.ndarray:
    """np.abs(stack).sum(axis=-1), one column at a time (see _across)."""
    return functools.reduce(np.add, (np.abs(stack[..., k]) for k in range(stack.shape[-1])))


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


def _row_bounds(freqs: Sequence[np.ndarray], coeffs: Sequence[np.ndarray]) -> np.ndarray:
    """(lip, hess, ef, ed, third, eh) of the systems of `_certified_counts`,
    one (6 x n) array per coefficient row.  A point off x by d, |d|_inf <=
    r, has |<lam, d>| <= |lam|_1 r, so F_i moves by at most lip_i r, lip_i =
    2 pi sum |c| |lam|_1; its first-order Taylor remainder is at most
    hess_i r^2 / 2, hess_i = (2 pi)^2 sum |c| |lam|_1^2, and its
    second-order one at most third_i r^3 / 6, third_i = (2 pi)^3 sum |c|
    |lam|_1^3.  Row i of its Jacobian moves by at most hess_i r in sum, and
    by at most sum_jk |H_i,jk(x)| r + third_i r^2 / 2, H_i(x) the Hessian
    of F_i at x.  ef, ed and eh are the rounding allowances of a computed
    F_i, of one computed Jacobian entry and of one computed Hessian entry."""
    systems = list(zip(freqs, coeffs))
    # (2 pi)^k sum |c| |lam|_1^k for k = 0..3
    powers = [
        np.stack([(2 * np.pi) ** k * np.abs(c) @ np.abs(f).sum(axis=1) ** k for f, c in systems], 1)
        for k in range(4)
    ]
    lip, hess, third = powers[1:]
    ef, ed, eh = (_ROUNDING * p for p in powers[:3])
    return np.stack([lip, hess, ef, ed, third, eh], axis=1)


def _polish(
    jet, half: np.ndarray, zeros: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps on the zeros (m x n) of the sorted sample rows `rows`,
    with F and J from `jet` (see _product_jet), until a step moves every
    zero by less than _SNAP or _NEWTON_STEPS steps have run: the polished
    zeros, and the mask of those whose last step moved them by less than
    _SNAP with an invertible Jacobian at every step."""
    settled = np.ones(len(rows), dtype=bool)
    for _ in range(_NEWTON_STEPS):
        zval, zjac = jet(_exponentials(zeros, half), rows)
        zinv, zok = _inverse(zjac)
        move = np.einsum("nab,nb->na", zinv, zval) * zok[:, None]
        settled &= zok
        zeros = zeros - move
        still = _across(np.logical_or, np.abs(move) >= _SNAP)
        if not still.any():
            break
    return zeros, settled & ~still


def _certified_counts(
    freqs: Sequence[np.ndarray], coeffs: Sequence[np.ndarray]
) -> list[int | None]:
    """Count the common zeros on [0,1)^n, n = len(freqs), of the systems with
    coefficient rows coeffs[i][s] on the frequencies freqs[i], one count per
    row s, or None for a row whose zeros the subdivision cannot certify (the
    caller discards that sample).

    The boxes of all rows are subdivided together, level by level; each box
    carries its row, kept sorted, and the row's bounds are gathered by it.
    The starting grid has _BOX_BASE boxes per side per unit of the largest
    |frequency coordinate|, as the circle's has 16 cells per unit of degree.
    Each box is tested for exclusion as it is made: it is dropped where
    some |F_i| is bounded away from 0 on it (`_row_bounds`, r the radius).
    The first test takes the smaller of the Lipschitz reach lip_i r and the
    first-order Taylor reach around the centre, with remainder hess_i r^2 /
    2; only a box it keeps has its Hessian sums sum_jk |H_i,jk| computed,
    for the second-order Taylor reach sum_j |J_ij| r + sum_jk |H_i,jk| r^2
    / 2 + third_i r^3 / 6.  The products of the starting grid are computed
    once for the whole block, and only the boxes that survive keep theirs;
    a child's products are its parent's times a shift (`_children`).
    Children are made and tested _BOX_CHUNK at a time, so their memory
    stays near (live boxes x H).  The grid is tested a whole number of rows
    at a time, at least one, so a grid of more than _BOX_CHUNK boxes (48^2
    for box:2:3, 32^3 for box:3:2) is tested whole, one row at a time, and
    its products stay held for the whole block: 32768 x 63 complex doubles,
    33 MB, for box:3:2.  On the surviving boxes, _BOX_CHUNK at a time, the
    Krawczyk operator K(X) of the box X blown up by _BOX_INFLATE to radius
    w, with the interval Jacobian taken as the centre Jacobian +- a bound
    whose row i sums to the smaller of hess_i w and sum_jk |H_i,jk| w +
    third_i w^2 / 2, holds every zero in X: inside int X it certifies
    exactly one, disjoint from X none.  The other boxes are split in 2^n.
    A row with more than _BOX_CAP of them, or with any left after
    _BOX_LEVELS splits, is dropped without touching the others.  The
    certified boxes of every level are polished together at the end, by
    Newton steps from their first Krawczyk iterate until one step moves
    every zero by less than _SNAP (`_polish`), and each credits its zero
    to its row only if its own half-open box holds it, so a zero found by
    several boxes is counted once.  A row with a certified box whose polish
    does not settle, or leaves the blown-up box, is dropped too (it is not
    split further)."""
    n, size = len(freqs), len(coeffs[0])
    per_row = _row_bounds(freqs, coeffs)
    half, jet, curvature = _product_jet(freqs, coeffs)

    def live(val, jac, rows, radius, products):
        """The mask of the boxes no exclusion bound drops, and their Hessian
        sums with allowance; products(mask) gives the masked boxes' products."""
        lip, hess, ef, ed = np.take(per_row[:, :4], rows, axis=0).transpose(1, 0, 2)
        first = (_abs_row_sums(jac) + n * ed) * radius
        reach = np.minimum(lip * radius, first + hess / 2 * radius**2)
        mine = _across(np.logical_and, np.abs(val) <= reach + ef)
        # only the boxes the first-order bounds keep have their Hessians computed
        rows = rows[mine]
        _, _, ef, _, third, eh = np.take(per_row, rows, axis=0).transpose(1, 0, 2)
        curve = curvature(products(mine), rows) + n * n * eh
        reach = first[mine] + curve / 2 * radius**2 + third / 6 * radius**3
        near = _across(np.logical_and, np.abs(val[mine]) <= reach + ef)
        mine[mine] = near
        return mine, curve[near]

    def krawczyk(val, jac, curve, rows, radius):
        """(exactly one zero, no zero, Newton step) of each box."""
        # K(X) = x - Y F(x) + (I - Y J(X)) (X - x), Y = J(x)^-1
        _, hess, ef, ed, third, _ = np.take(per_row, rows, axis=0).transpose(1, 0, 2)
        wide = _BOX_INFLATE * radius
        inv, ok = _inverse(jac)
        step = np.einsum("nab,nb->na", inv, val)
        spread = _abs_row_sums(np.eye(n) - inv @ jac)
        # row i of J(X) - J(x) sums to at most the smaller of hess_i wide and
        # curve_i wide + third_i wide^2 / 2, plus n roundings
        moved = np.minimum(hess, curve + third / 2 * wide) * wide
        spread += np.einsum("nab,nb->na", np.abs(inv), moved + n * ed)
        k_radius = np.einsum("nab,nb->na", np.abs(inv), ef) + wide * spread
        free = _across(np.logical_or, np.abs(step) > wide + k_radius)
        ok &= _across(np.logical_and, np.abs(step) + k_radius < wide)
        return ok, free, step

    def grid_survivors(radius):
        # every row starts from the same grid, whose products are computed once
        every = max(1, _BOX_CHUNK // len(grid))
        for lo in range(0, size, every):
            samples = slice(lo, lo + every)
            val, jac = jet(grid_products, samples)
            rows = np.repeat(np.arange(size)[samples], len(grid))
            mine, curve = live(
                val, jac, rows, radius, lambda m: grid_products[np.flatnonzero(m) % len(grid)]
            )
            at = np.flatnonzero(mine) % len(grid)
            yield grid[at], rows[mine], grid_products[at], val[mine], jac[mine], curve

    def child_survivors(centers, rows, products, radius):
        every = max(1, _BOX_CHUNK >> n)
        for lo in range(0, len(rows), every):
            part = slice(lo, lo + every)
            child_centers, child_products = _children(centers[part], products[part], radius, half)
            child_rows = np.repeat(rows[part], 2**n)
            val, jac = jet(child_products, child_rows)
            mine, curve = live(val, jac, child_rows, radius, lambda m: child_products[m])
            yield (
                child_centers[mine], child_rows[mine], child_products[mine], val[mine], jac[mine], curve
            )

    side = _BOX_BASE * max(1, int(np.abs(half).max()))
    axis = (np.arange(side) + 0.5) / side
    grid = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)
    grid_products = _exponentials(grid, half)
    radius = 0.5 / side
    centers, rows, products, val, jac, curve = (
        np.concatenate(c) for c in zip(*grid_survivors(radius))
    )
    kept = np.ones(size, dtype=bool)
    certified = []
    for level in range(_BOX_LEVELS + 1):
        # at least one part, so a level without boxes gives empty columns
        parts = [slice(lo, lo + _BOX_CHUNK) for lo in range(0, max(len(rows), 1), _BOX_CHUNK)]
        tests = (krawczyk(val[part], jac[part], curve[part], rows[part], radius) for part in parts)
        ok, free, step = (np.concatenate(c) for c in zip(*tests))
        certified.append((centers[ok] - step[ok], centers[ok], rows[ok], np.full(ok.sum(), radius)))
        undecided = ~(ok | free)
        # a row over the cap, or still undecided after the last level, is dropped
        load = np.bincount(rows[undecided], minlength=size)
        kept &= load <= (_BOX_CAP if level < _BOX_LEVELS else 0)
        undecided &= kept[rows]
        if not undecided.any():
            break
        centers, rows, products = centers[undecided], rows[undecided], products[undecided]
        radius /= 2.0
        children = zip(*child_survivors(centers, rows, products, radius))
        centers, rows, products, val, jac, curve = (np.concatenate(c) for c in children)

    # one Newton polish for the certified boxes of every level and kept row
    zeros, centers, rows, radii = (np.concatenate(column) for column in zip(*certified))
    order = np.argsort(rows, kind="stable")
    order = order[kept[rows[order]]]
    zeros, centers, rows, radii = zeros[order], centers[order], rows[order], radii[order, None]
    zeros, settled = _polish(jet, half, zeros, rows)
    settled &= (np.abs(zeros - centers) < _BOX_INFLATE * radii).all(axis=1)
    kept[rows[~settled]] = False
    snapped = np.round(zeros / _SNAP) * _SNAP % 1.0
    low = centers - radii
    inside = ((low <= snapped) & (snapped < low + 2 * radii)).all(axis=1)
    counts = np.bincount(rows[inside], minlength=size)
    return [int(c) if k else None for c, k in zip(counts, kept)]


def count_common_zeros_torus2(
    supports: Support | Sequence[Support], samples: int, seed: int
) -> MonteCarloStats:
    """Monte Carlo mean of the number of common zeros on [0,1)^2 of a pair
    of independent random real ensembles.  Every counted zero is certified;
    samples that cannot be certified are discarded and reported, and fewer
    than 2 kept samples raise ArithmeticError."""
    _require_draws(samples, seed)
    if isinstance(supports, Support):
        supports = [supports, supports]
    if len(supports) != 2 or any(s.dim != 2 for s in supports):
        raise ValueError("planar counting needs two two-dimensional supports")
    for s in supports:
        s.require_symmetric()
    freqs = [np.array(s.points, dtype=float) for s in supports]
    _, widths, builds = zip(*map(_coefficient_rows, supports))
    root = np.random.SeedSequence(seed)
    results: list[int | None] = []
    while len(results) < samples:
        # spawning in blocks gives the same children as spawning all at once
        rngs = map(np.random.default_rng, root.spawn(min(_SAMPLE_BLOCK, samples - len(results))))
        # a sample's normals for both equations, in the order of one row each
        normals = np.stack([rng.standard_normal(sum(widths)) for rng in rngs])
        parts = np.split(normals, [widths[0]], axis=1)
        results += _certified_counts(freqs, [rows(part) for rows, part in zip(builds, parts)])
    counts = np.array([r for r in results if r is not None], dtype=float)
    return _kept_stats(counts, samples - counts.size)


# ---------------------------------------------------------------------------
# Gaussian mixed-volume estimator
# ---------------------------------------------------------------------------

_DET_BLOCK = 16384  # Gaussian matrices drawn and reduced together


def gaussian_mixed_volume(covariances: Sequence[np.ndarray], samples: int, seed: int) -> MonteCarloStats:
    """Mixed volume of ellipsoids from the expected absolute determinant of
    a Gaussian matrix G whose row i has covariance Q_i.

    The last two rows are integrated out exactly.  Given rows 0..n-3, let
    R be the volume they span and U an orthonormal basis of the plane they
    leave.  Then det G = R det [U^T x, U^T y] for the last two rows x and y,
    a planar determinant of rows drawn from A = U^T Q U and C = U^T Q' U,
    Q = Q_(n-2) and Q' = Q_(n-1), and

        E[|det G| | rows 0..n-3] = R V(A, C) / pi,

    V the mixed area of planar ellipses.  The estimate averages this
    conditional mean: the expectation of |det G| with no larger variance
    (Rao-Blackwellization), from n(n-2) normals per sample.
    `convex._complement_mixed_areas` computes R V(A, C) from the normals
    and the drawn rows' covariance factors, by Gram-Schmidt on the drawn
    rows and trace formulas for the two invariants of A and C that V
    depends on, in O(n^3) per sample, or at n = 3 by three quadratic forms
    in the normals; the sphere rule reads its areas from the same map.  At
    n <= 2 nothing is drawn and the estimate is exact, with stderr 0 and
    `samples` 0: 2 sqrt(Q) at n = 1 and V(Q_0, Q_1) at n = 2.  Each block of _DET_BLOCK samples is reduced at
    once, and only two sums are kept of its deviations from the first
    sample, their sum and their sum of squares, which give the block's mean
    and squared deviations, pooled with the blocks before it; so memory does
    not grow with `samples`, and a constant estimate has stderr 0.  The
    draws are one standard normal stream in (sample, row, column) order, so
    the blocking does not change them.  Every Q_i must be finite and positive
    semidefinite (as for `Ellipsoid`)."""
    _require_draws(samples, seed)
    qs = [np.asarray(q, dtype=float) for q in covariances]
    n = len(qs)
    if n == 0 or any(q.shape != (n, n) for q in qs):
        raise ValueError("need n >= 1 covariance matrices of size n")
    factors = []
    for q in qs:
        vals, vecs = _psd_eigh(q)
        factors.append(vecs * np.sqrt(vals))
    if n == 1:
        return MonteCarloStats(2.0 * float(np.linalg.norm(factors[0])), 0.0, 0)
    q, q2 = (f @ f.T for f in factors[-2:])
    if n == 2:
        return MonteCarloStats(float(_mixed_area(q, q2)), 0.0, 0)
    areas = _complement_mixed_areas(q, q2, np.stack(factors[:-2]))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    const = (2 * math.pi) ** (n / 2) / (math.pi * math.factorial(n))
    # mean and squared deviations of the deviations from the first sample
    shift = mean = square = 0.0
    for done in range(0, samples, _DET_BLOCK):
        block = min(_DET_BLOCK, samples - done)
        dets = areas(rng.standard_normal((block, n - 2, n)))
        if done == 0:
            shift = float(dets[0])
        dets -= shift
        total = float(dets.sum())
        part = total / block
        # pooled with the blocks before (Chan, Golub and LeVeque, 1979)
        gap, count = part - mean, done + block
        mean += gap * block / count
        square += max(float(dets @ dets) - total * part, 0.0) + gap * gap * done * block / count
    return MonteCarloStats(
        value=const * float(shift + mean),
        stderr=const * math.sqrt(square / (samples - 1) / samples),
        samples=samples,
    )
