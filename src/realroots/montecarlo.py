"""Monte Carlo verification: direct zero counting for random ensembles.

Both zero counters count only certified zeros, and both take a sample as its
one-sided spectrum: f = Re sum b_lam e(<lam, x>), e(t) = exp(2 pi i t), over
the zero frequency and one lam of each pair +-lam, with b_lam = 2 a_lam for
the real ensemble sum a_lam e(<lam, x>), a_-lam = conj(a_lam), as
`_coefficient_rows` draws it; no weight is mirrored or folded back.  On the
circle, f and f' come from matmuls on a starting grid of 16 cells per unit
of degree, its angles reduced exactly, and |f''| is bounded by M2 = (2 pi)^2
sum |b_k| k^2.  A cell of width h with a sign change holds exactly one zero
when |f'| - M2 h > 0 at one of its ends; a cell without a sign change holds
none when the second-order Taylor lower bound on |f| stays positive.  The
other cells are halved, all of a block at once.  On the 2-torus, a box
counter written for n systems on [0,1)^n decides the boxes of a whole block
of samples together, each box carrying the index of its sample, from a
starting grid of 16 boxes per side per unit of the largest frequency
coordinate: boxes are dropped by a first- or second-order exclusion bound as
they are made, the latter with the box's own Hessian at its centre and a
third-order remainder from sum |b| |lambda|_1^3, and the Krawczyk test on
the box blown up by 9/8 (interval Jacobian = centre Jacobian +- the smaller
of a bound from sum |b| |lambda|_1^2 and one from the centre Hessian, times
the blown-up radius) certifies exactly one zero in a box or none.  Every
bound reads |<lambda, d>| <= |lambda|_1 r on a box of radius r.  The other
boxes are split in 2^n.  F and its Jacobian are real matmuls of a box's
exponential products e(<lambda, x>) with its sample's weights; the grid's
products are built from one table per axis and a child's are its parent's
times a fixed unit shift per corner, so no `exp` runs per box.  The
certified boxes of every level are polished by Newton together until every
zero has settled, and each zero is credited to the one half-open box that
holds it.  A sample with cells or boxes still undecided after a fixed
number of splits, with more than _BLOCK_CELLS of them when decided alone,
or with a certified box whose polish does not settle, is discarded without
touching the rest of its block: it is reported in
`MonteCarloStats.discarded` and left out of the mean, and fewer than 2 kept
samples raise ArithmeticError.  A Gaussian determinant estimator gives
mixed volumes of ellipsoids where no closed form applies: it draws the
first n - 2 rows and integrates the last two out through the planar mixed
area, the closed form of `convex`.  So at n <= 2 it draws nothing and
returns that closed form, and only from n = 3 on does it check the sphere
rule by sampling.  Its draws are randomized quasi-Monte Carlo: digitally
shifted Sobol points, mapped to normals by the inverse normal distribution.

Everything runs in the calling thread and is deterministic given a seed.
The circle counters draw their coefficients in blocks of 256 samples from
one generator seeded by `seed`, sample i from its normals [i w, (i + 1) w),
w per sample; the planar counter spawns one generator per sample from
`seed`, draws all of a sample's normals in one call, so its sample i
depends only on (seed, i), and decides as many samples at a time as their
starting grids fit in _BLOCK_CELLS boxes.  The counters keep one count per
sample.  The Gaussian estimator draws its random digital shifts, and any
coordinates past the Sobol table's 48, from one generator seeded by `seed`;
it makes its points by index range and reduces them _DET_BLOCK at a time
to one sum per shift, so its memory does not grow with `samples`.
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


def _require_integer(value, least: int, what: str) -> None:
    """ValueError, naming the value, unless it is an integer of at least
    `least` (a bool is none)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"need an integer of at least {least} {what}, got {value!r}")


def _require_draws(samples: int, seed: int, minimum: int = 2) -> None:
    """ValueError, naming the value, unless `samples` is an integer of at
    least `minimum` and `seed` a non-negative one: no counter draws from OS
    entropy."""
    _require_integer(samples, minimum, "samples")
    _require_integer(seed, 0, "for the seed")


# ---------------------------------------------------------------------------
# coefficient sampling
# ---------------------------------------------------------------------------

def _coefficient_rows(support: Support):
    """(half, width, rows): the real ensemble f = sum_lam a_lam e(<lam, x>),
    e(t) = exp(2 pi i t), a_-lam = conj(a_lam) of unit variance, as one-sided
    spectra f = Re sum_half b_lam e(<lam, x>).  `half` (H x n integers) is
    the zero frequency, if the support has it, then each lam
    lexicographically larger than -lam, in support order; rows(normals)
    turns standard normals (count x width) into the weights b (count x H):
    b_0 = a_0 is the first normal, and b_lam = 2 a_lam, a_lam = (g1 + i g2) /
    sqrt 2 from the next pair.  So f is real and stationary with the
    counting spectral measure."""
    zero = (0,) * support.dim
    lead = int(zero in support.points)
    pos = [p for p in support.points if p > tuple(-c for c in p)]
    half = np.array([zero] * lead + pos, dtype=int).reshape(-1, support.dim)

    def rows(normals: np.ndarray) -> np.ndarray:
        g = normals[:, lead:].reshape(len(normals), len(pos), 2)
        return np.hstack([normals[:, :lead], 2 * ((g[:, :, 0] + 1j * g[:, :, 1]) / math.sqrt(2.0))])

    return half, lead + 2 * len(pos), rows


# ---------------------------------------------------------------------------
# certificates shared by both counters
# ---------------------------------------------------------------------------

# A computed value of an exponential sum is trusted only beyond this multiple
# of the sum of its |coefficients| (times 2 pi |frequency| for a derivative):
# far above the rounding error of the evaluation, far below any value the
# certificates need.  On the circle it holds at any degree because the
# starting grid's angles are reduced exactly, k j mod grid in integers, so
# each cos and sin of the table is within 1e-15 of its value.
_ROUNDING = 1e-12
_BLOCK_CELLS = 2**15  # undecided cells or boxes one sample run alone may hold; a box block shares them


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
    grid come from one matmul per _BOX_CHUNK grid points and the cells are
    decided as one (rows x grid) array; the undecided cells are halved as one
    flat array, at most _CIRCLE_ROUNDS times.  A row still undecided then, or
    holding more than _BLOCK_CELLS undecided cells, is not kept.  Returns the
    certified zero count of each row, the kept mask, and the certified
    one-zero cells as (row, left end, width) arrays."""
    b = len(g)
    k = np.arange(g.shape[1])
    mag = np.abs(g)
    ef = _ROUNDING * mag.sum(axis=1)
    ed = _ROUNDING * 2 * np.pi * (mag @ k)
    m2 = (2 * np.pi) ** 2 * (mag @ (k * k))
    h = 1.0 / grid
    jet = np.vstack([g, 2j * np.pi * k * g])
    weights = np.hstack([jet.real, -jet.imag])
    # the angles 2 pi k j / grid, k j reduced mod grid in integers, of
    # _BOX_CHUNK grid points j at a time
    cols = np.arange(grid)
    angles = (2 * np.pi / grid * (np.outer(k, cols[lo : lo + _BOX_CHUNK]) % grid) for lo in cols[::_BOX_CHUNK])
    vals = np.hstack([weights @ np.vstack([np.cos(a), np.sin(a)]) for a in angles])
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
        kept &= np.bincount(rows, minlength=b) <= _BLOCK_CELLS
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
    """(one-sided weights g, zero counts, kept mask, one-zero cells) for
    successive blocks of at most 256 samples, drawn from one generator
    seeded by `seed`, one row's normals after the other, on a starting grid
    of 16 cells per unit of degree; see _circle_cells.  Column j of g is the
    weight of frequency j, 0 where the support lacks j."""
    support.require_symmetric()
    if support.dim != 1:
        raise ValueError("circle counting needs one-dimensional supports")
    half, width, rows = _coefficient_rows(support)
    freqs = half[:, 0]
    top = int(freqs.max())
    grid = 16 * max(1, top)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    done = 0
    while done < samples:
        block = min(256, samples - done)
        g = np.zeros((block, top + 1), dtype=complex)
        g[:, freqs] = rows(rng.standard_normal((block, width)))
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
_BOX_INFLATE = 9 / 8  # the Krawczyk test runs on the box blown up by this factor
_NEWTON_STEPS = 6  # most Newton steps polishing the certified zeros of a block
# A polished zero is rounded to this lattice before it is credited to a box:
# far finer than any box edge, far coarser than the spread of two polishes of
# one zero, so every box that finds a zero credits it to the same box.
_SNAP = 2.0**-40
_BOX_CHUNK = 2048  # boxes made and tested for exclusion, or Krawczyk-tested, at once
# Points of a sample row are contracted with its weights one matmul per run
# of the row, unless the runs average fewer points than this; then each
# point's weights are gathered and all are contracted in one batched matmul.
_SHORT_RUN = 8


def _product_jet(freqs: Sequence[np.ndarray], coeffs: Sequence[np.ndarray]):
    """(half, jet, curvature) for the systems F_i = Re sum_lam c e(<lam, x>),
    e(t) = exp(2 pi i t), with weight rows coeffs[i][s] on the distinct
    frequencies freqs[i] (one-sided, as `_coefficient_rows` draws them, or of
    either sign): `half` (H x n) holds the distinct frequencies of all
    equations, jet(products, rows) gives F = (F_1, ..., F_n) (m x n) and its
    Jacobian (m x n x n) at m points from their exponential products e(<half,
    x>) (m x H), and curvature(products, rows) gives sum_jk |H_i,jk| (m x n),
    H_i the Hessian of F_i, from n(n + 1)/2 more weight columns per equation.

    The weights of row s are real (2H x columns) matrices acting on the
    products read as (Re, Im) pairs, so F, J and H are real matmuls.  `rows`
    gives the sample row of each point and must be sorted: each run of one row
    is contracted with that row's weights in one matmul, unless the runs
    average fewer than _SHORT_RUN points (as the polish's four or so zeros per
    sample on box:2:1 do), when each point's weights are gathered and all
    points are contracted in one batched matmul.  A slice of rows evaluates
    every point for each row in it, one row after the other (as a chunk of
    the starting grid, which every row shares, is)."""
    n, size, every = len(freqs), len(coeffs[0]), np.vstack(freqs).astype(int)
    equation = np.repeat(np.arange(n), [len(f) for f in freqs])
    # mixed-radix keys sort as their rows do, lexicographically
    keys = every @ (2 * int(np.abs(every).max()) + 1) ** np.arange(n - 1, -1, -1)
    _, at, where = np.unique(keys, return_index=True, return_inverse=True)
    half = every[at]
    upper = np.triu_indices(n)
    # the weights of F, of J and of the upper triangle of H, per frequency
    second_order = (2j * np.pi) ** 2 * every[:, upper[0]] * every[:, upper[1]]
    terms = np.hstack([np.ones((len(every), 1)), 2j * np.pi * every, second_order])
    # an equation's frequencies are distinct, so no (half, equation) slot repeats
    spectra = np.zeros((size, len(half), n, terms.shape[1]), dtype=complex)
    spectra[:, where, equation] = np.hstack(coeffs)[:, :, None] * terms
    # Re(p w) = Re p Re w - Im p Im w, against p's (Re, Im) pairs
    weights = np.stack([spectra.real, -spectra.imag], axis=2).reshape(size, 2 * len(half), n, -1)
    first = np.ascontiguousarray(weights[..., : n + 1].reshape(size, 2 * len(half), -1))
    second = np.ascontiguousarray(weights[..., n + 1 :].reshape(size, 2 * len(half), -1))
    # an entry off the diagonal stands for two of the symmetric Hessian
    twice = np.where(upper[0] == upper[1], 1.0, 2.0)

    def contract(table: np.ndarray, products: np.ndarray, rows: np.ndarray | slice) -> np.ndarray:
        flat = products.view(float)
        if isinstance(rows, slice):
            return flat @ table[rows]
        starts = [0, *(np.flatnonzero(rows[1:] != rows[:-1]) + 1)][: len(rows)]
        if len(rows) < _SHORT_RUN * len(starts):
            return np.matmul(flat[:, None, :], table[rows])[:, 0]
        out = np.empty((len(rows), table.shape[2]))
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
    per corner, as the grid's are products of one table per axis, so no
    `exp` runs per box anywhere.  Each split adds about one rounding to the
    products, far below the _ROUNDING margin after _BOX_LEVELS splits."""
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


def _polish(jet, half: np.ndarray, zeros: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def _block_samples(freqs: Sequence[np.ndarray]) -> tuple[int, int]:
    """(side, block): the starting grid has `side` boxes per side, _BOX_BASE
    per unit of the largest |frequency coordinate| of `freqs`, and a block
    holds as many samples as such grids fit in _BLOCK_CELLS boxes, at least 1."""
    side = _BOX_BASE * max(1, int(max(np.abs(f).max() for f in freqs)))
    return side, max(1, _BLOCK_CELLS // side ** len(freqs))


def _certified_counts(freqs: Sequence[np.ndarray], coeffs: Sequence[np.ndarray]) -> list[int | None]:
    """Count the common zeros on [0,1)^n, n = len(freqs), of the systems F_i =
    Re sum c e(<lam, x>) with weight rows coeffs[i][s] on the distinct
    frequencies freqs[i], one-sided as `_coefficient_rows` draws them (see
    _product_jet), one count per row s, or None for a row whose zeros the
    subdivision cannot certify (the caller discards that sample).  The rows
    are decided `_block_samples` at a time, each with a share of
    _BLOCK_CELLS // (rows in its block) undecided boxes, at least its grid's
    side^n if that fits in _BLOCK_CELLS.  A row over its share leaves its
    block and is decided again alone, with all of _BLOCK_CELLS, so no row's
    count depends on the other rows."""
    side, block = _block_samples(freqs)
    counts: list[int | None] = []
    for lo in range(0, len(coeffs[0]), block):
        part = [c[lo : lo + block] for c in coeffs]
        got, over = _block_counts(freqs, part, side, _BLOCK_CELLS // len(part[0]))
        for s in np.flatnonzero(over) if len(part[0]) > 1 else ():
            (got[s],), _ = _block_counts(freqs, [c[s : s + 1] for c in part], side, _BLOCK_CELLS)
        counts += got
    return counts


def _block_counts(
    freqs: Sequence[np.ndarray], coeffs: Sequence[np.ndarray], side: int, share: int
) -> tuple[list[int | None], np.ndarray]:
    """The counts of `_certified_counts` for one block of rows, from a grid
    of `side` boxes per side, and the mask of the rows over their `share`.

    The boxes of all rows are subdivided together, level by level; each box
    carries its row, kept sorted, and the row's bounds are gathered by it.
    Each box is tested for exclusion as it is made: it is dropped where
    some |F_i| is bounded away from 0 on it (`_row_bounds`, r the radius).
    The first test takes the smaller of the Lipschitz reach lip_i r and the
    first-order Taylor reach around the centre, with remainder hess_i r^2 /
    2; only a box it keeps has its Hessian sums sum_jk |H_i,jk| computed,
    for the second-order Taylor reach sum_j |J_ij| r + sum_jk |H_i,jk| r^2
    / 2 + third_i r^3 / 6.  The grid is made and tested about _BOX_CHUNK
    boxes at a time, for every row at once, each box's products those of
    one (side x H) table per axis multiplied, as e(<lam, x>) = prod_j
    e(lam_j x_j); its survivors keep theirs and are sorted by row.  A
    child's products are its parent's times a shift (`_children`), and
    children are made and tested _BOX_CHUNK at a time, so memory stays near
    (live boxes x H).  On the surviving boxes, _BOX_CHUNK at a time, the
    Krawczyk operator K(X) of the box X blown up by _BOX_INFLATE (9/8) to
    radius w, with the interval Jacobian taken as the centre Jacobian +- a
    bound whose row i sums to the smaller of hess_i w and sum_jk |H_i,jk| w
    + third_i w^2 / 2, holds every zero in X: inside int X it certifies
    exactly one, disjoint from X none (any factor of at least 1 is sound:
    box:2:2's 12 samples at seed 0 split 945 boxes at 9/8, 1371 at 2 and
    928 at 1.1, where a zero near a face has ever less room in X).  The
    other boxes are split in 2^n; a row with more than `share` of them, or
    with any left after _BOX_LEVELS splits, is dropped without touching the
    others.  The certified boxes of every level are polished together at
    the end, by Newton steps from their first Krawczyk iterate until one
    step moves every zero by less than _SNAP (`_polish`), and each credits
    its zero to its row only if its own half-open box holds it, so a zero
    found by several boxes is counted once.  A row with a certified box
    whose polish does not settle, or leaves the blown-up box, is dropped."""
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
        # e(lam_j x_j) at the box centres x_j = (2a + 1) / (2 side), the
        # angles (2a + 1) lam_j mod 2 side reduced exactly in integers
        odd = 2 * np.arange(side) + 1
        tables = [np.exp(1j * np.pi / side * (np.outer(odd, lam) % (2 * side))) for lam in half.T]
        # whole lines along the last axis, _BOX_CHUNK boxes at a time
        lines = max(1, _BOX_CHUNK // side)
        for lo in range(0, side ** (n - 1), lines):
            lead = np.unravel_index(np.arange(lo, min(lo + lines, side ** (n - 1))), (side,) * (n - 1))
            products = functools.reduce(np.multiply, (t[a] for t, a in zip(tables, lead)))
            products = (products[:, None, :] * tables[-1]).reshape(-1, len(half))
            val, jac = jet(products, slice(None))
            rows = np.repeat(np.arange(size), len(products))
            mine, curve = live(val, jac, rows, radius, lambda m: products[np.flatnonzero(m) % len(products)])
            pick = np.flatnonzero(mine) % len(products)
            centers = (np.column_stack([*(a[pick // side] for a in lead), pick % side]) + 0.5) / side
            yield centers, rows[mine], products[pick], val[mine], jac[mine], curve

    def child_survivors(centers, rows, products, radius):
        every = max(1, _BOX_CHUNK >> n)
        for lo in range(0, len(rows), every):
            part = slice(lo, lo + every)
            child_centers, child_products = _children(centers[part], products[part], radius, half)
            child_rows = np.repeat(rows[part], 2**n)
            val, jac = jet(child_products, child_rows)
            mine, curve = live(val, jac, child_rows, radius, lambda m: child_products[m])
            yield child_centers[mine], child_rows[mine], child_products[mine], val[mine], jac[mine], curve

    radius = 0.5 / side
    found = [np.concatenate(c) for c in zip(*grid_survivors(radius))]
    order = np.argsort(found[1], kind="stable")
    centers, rows, products, val, jac, curve = (c[order] for c in found)
    kept, over = np.ones(size, dtype=bool), np.zeros(size, dtype=bool)
    certified = []
    for level in range(_BOX_LEVELS + 1):
        # at least one part, so a level without boxes gives empty columns
        parts = [slice(lo, lo + _BOX_CHUNK) for lo in range(0, max(len(rows), 1), _BOX_CHUNK)]
        tests = (krawczyk(val[part], jac[part], curve[part], rows[part], radius) for part in parts)
        ok, free, step = (np.concatenate(c) for c in zip(*tests))
        certified.append((centers[ok] - step[ok], centers[ok], rows[ok], np.full(ok.sum(), radius)))
        undecided = ~(ok | free)
        # a row over its share, or still undecided after the last level, is dropped
        load = np.bincount(rows[undecided], minlength=size)
        over |= (load > share) & (level < _BOX_LEVELS)
        kept &= ~over & ((load == 0) | (level < _BOX_LEVELS))
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
    return [int(c) if k else None for c, k in zip(counts, kept)], over


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
    halves, widths, builds = zip(*map(_coefficient_rows, supports))
    _, block = _block_samples(halves)
    root = np.random.SeedSequence(seed)
    results: list[int | None] = []
    while len(results) < samples:
        # spawning in blocks gives the same children as spawning all at once
        rngs = map(np.random.default_rng, root.spawn(min(block, samples - len(results))))
        # a sample's normals for both equations, in the order of one row each
        normals = np.stack([rng.standard_normal(sum(widths)) for rng in rngs])
        parts = np.split(normals, [widths[0]], axis=1)
        results += _certified_counts(halves, [rows(part) for rows, part in zip(builds, parts)])
    counts = np.array([r for r in results if r is not None], dtype=float)
    return _kept_stats(counts, samples - counts.size)


# ---------------------------------------------------------------------------
# Gaussian mixed-volume estimator
# ---------------------------------------------------------------------------

_DET_BLOCK = 16384  # Gaussian matrices drawn and reduced together
# Each covariance factor is divided by a power of two, exactly, that brings
# its largest entry into [2^149, 2^150) for the last three rows, the last
# drawn row and the two integrated out, and into [1/2, 1) for the others:
# the first three meet in forms of degree 6 in their entries, which then stay
# below 2^900 and, for axes down to about 1e-144 of the longest, above
# underflow; the others enter only through the product of their norms.
_FORM_SCALE = 150
_SHIFTS = 32  # random digital shifts of the Sobol points; the stderr is the spread of their means
_QUANTILE_CHUNK = 16384  # normals made at once from their uniforms
_SOBOL_BITS = 52  # bits of a Sobol coordinate and of a shift: u = (bits + 1/2) 2^-52
# Joe and Kuo's direction numbers (new-joe-kuo-6.21201, as scipy ships them)
# for Sobol dimensions 2..48, one per comma: the primitive polynomial's bits,
# then m_1..m_s; dimension 1 has every m_k = 1.  A string, as a literal table
# of tuples costs every import about 0.7 MB more to compile
_JOE_KUO = """
    3 1, 7 1 3, 11 1 3 1, 13 1 1 1, 19 1 1 3 3, 25 1 3 5 13, 37 1 1 5 5 17, 41 1 1 5 5 5,
    47 1 1 7 11 19, 55 1 1 5 1 1, 59 1 1 1 3 11, 61 1 3 5 5 31, 67 1 3 3 9 7 49,
    91 1 1 1 15 21 21, 97 1 3 1 13 27 49, 103 1 1 1 15 7 5, 109 1 3 1 15 13 25,
    115 1 1 5 5 19 61, 131 1 3 7 11 23 15 103, 137 1 3 7 13 13 15 69, 143 1 1 3 13 7 35 63,
    145 1 3 5 9 1 25 53, 157 1 3 1 13 9 35 107, 167 1 3 1 5 27 61 31,
    171 1 1 5 11 19 41 61, 185 1 3 5 3 3 13 69, 191 1 1 7 13 1 19 1, 193 1 3 7 5 13 19 59,
    203 1 1 3 9 25 29 41, 211 1 3 5 13 23 1 55, 213 1 3 7 3 13 59 17, 229 1 3 1 3 5 53 69,
    239 1 1 5 5 23 33 13, 241 1 1 7 7 1 61 123, 247 1 1 7 9 13 61 49, 253 1 3 3 5 3 55 33,
    285 1 3 1 15 31 13 49 245, 299 1 3 5 15 31 59 63 97, 301 1 3 1 11 11 11 77 249,
    333 1 3 1 11 27 43 71 9, 351 1 1 7 15 21 11 81 45, 355 1 3 7 3 25 31 65 79,
    357 1 3 1 1 19 11 3 205, 361 1 1 5 9 19 21 29 157, 369 1 3 7 11 1 33 89 185,
    391 1 3 3 3 15 9 79 71, 397 1 3 7 11 15 39 119 27
""".split(",")
# Wichura's AS 241 (PPND16): numerator and denominator coefficients, constant
# term first, for |u - 1/2| <= 0.425, then in r = sqrt(-log min(u, 1 - u))
# for r <= 5 and beyond
_AS241 = (
    ((3.387132872796366608, 133.14166789178437745, 1971.5909503065514427, 13731.693765509461125,
      45921.953931549871457, 67265.770927008700853, 33430.575583588128105, 2509.0809287301226727),
     (1.0, 42.313330701600911252, 687.1870074920579083, 5394.1960214247511077,
      21213.794301586595867, 39307.89580009271061, 28729.085735721942674, 5226.495278852854561)),
    ((1.42343711074968357734, 4.6303378461565452959, 5.7694972214606914055, 3.64784832476320460504,
      1.27045825245236838258, 0.24178072517745061177, 0.0227238449892691845833,
      7.7454501427834140764e-4),
     (1.0, 2.05319162663775882187, 1.6763848301838038494, 0.68976733498510000455,
      0.14810397642748007459, 0.0151986665636164571966, 5.475938084995344946e-4,
      1.05075007164441684324e-9)),
    ((6.6579046435011037772, 5.4637849111641143699, 1.7848265399172913358, 0.29656057182850489123,
      0.026532189526576123093, 0.0012426609473880784386, 2.71155556874348757815e-5,
      2.01033439929228813265e-7),
     (1.0, 0.59983220655588793769, 0.13692988092273580531, 0.0148753612908506148525,
      7.868691311456132591e-4, 1.8463183175100546818e-5, 1.4215117583164458887e-7,
      2.04426310338993978564e-15)),
)


def _direction_numbers(dims: int, count: int) -> np.ndarray:
    """The first `count` direction numbers v_dk = m_dk 2^(51 - k) of the
    first `dims` Sobol dimensions (dims x count), from `_JOE_KUO` by m_k =
    m_(k-s) xor 2^s m_(k-s) xor sum_j a_j 2^j m_(k-j) (Bratley and Fox,
    1988) for a polynomial of degree s with bits a_j."""
    rows = [[1] * count]
    for entry in _JOE_KUO[: dims - 1]:
        poly, *m = map(int, entry.split())
        s = len(m)
        for k in range(s, count):
            new = m[k - s] ^ (m[k - s] << s)
            for j in range(1, s):
                if poly >> (s - j) & 1:
                    new ^= m[k - j] << j
            m.append(new)
        rows.append(m[:count])
    v = np.array(rows[:dims], dtype=np.uint64).reshape(dims, count)
    return v << np.arange(_SOBOL_BITS - 1, _SOBOL_BITS - 1 - count, -1, dtype=np.uint64)


def _sobol_bits(lo: int, hi: int, dims: int) -> np.ndarray:
    """The points lo..hi-1 of the first `dims` <= 48 Sobol dimensions, as
    _SOBOL_BITS-bit integers (hi - lo x dims), in Gray-code order as
    scipy's unscrambled `qmc.Sobol` makes them: point i is the xor of the
    direction numbers of the bits of i xor (i >> 1), so point i is point
    i - 1 xor the direction number of the lowest set bit of i."""
    v = _direction_numbers(dims, max(hi - 1, 0).bit_length())
    gray = lo ^ (lo >> 1)
    first = functools.reduce(np.bitwise_xor, (v[:, k] for k in range(gray.bit_length()) if gray >> k & 1),
                             np.zeros(dims, dtype=np.uint64))
    index = np.arange(lo + 1, hi)
    lowest = np.log2(index & -index).astype(int)  # exact: powers of 2 below 2^52
    steps = np.vstack([first[None], v[:, lowest].T])
    return np.bitwise_xor.accumulate(steps, axis=0)[: hi - lo]


def _normal_quantile(u: np.ndarray) -> np.ndarray:
    """Overwrite each u in (0, 1) of the flat array `u` with its standard
    normal quantile, by Wichura's AS 241 (Appl. Statist. 37, 1988), relative
    error about 1e-16, and return it.  It runs on _QUANTILE_CHUNK entries at
    a time, with two scratch arrays of that size: the quantiles of a block
    are made while the determinant map keeps its buffers, so their scratch
    stays small."""

    def horner(coefficients, r, out):
        np.multiply(r, coefficients[-1], out=out)
        for c in coefficients[-2:0:-1]:
            out += c
            out *= r
        out += coefficients[0]
        return out

    def ratio(pair, r):
        return horner(pair[0], r, np.empty_like(r)) / horner(pair[1], r, np.empty_like(r))

    num, den = _AS241[0]
    for lo in range(0, len(u), _QUANTILE_CHUNK):
        x = u[lo : lo + _QUANTILE_CHUNK]
        scratch = np.subtract(x, 0.5)
        # the tails, and in them the far tails, by index: few, and a mask is slow
        tail = np.flatnonzero(np.abs(scratch, out=scratch) > 0.425)
        side, low = x[tail] - 0.5, np.minimum(x[tail], 1.0 - x[tail])
        x -= 0.5
        r = np.multiply(x, x, out=scratch)
        np.subtract(0.180625, r, out=r)
        acc = np.empty_like(r)
        x *= horner(num, r, acc)
        x /= horner(den, r, acc)
        r = np.sqrt(-np.log(low))
        far = np.flatnonzero(r > 5.0)
        value = ratio(_AS241[1], r - 1.6)
        if far.size:
            value[far] = ratio(_AS241[2], r[far] - 5.0)
        x[tail] = np.copysign(value, side)
    return u


def _shifted_normals(width: int, shifts: int, points: int, seed: int, block: int) -> Iterator[tuple]:
    """(shifts, standard normals (rows x width)) for the rows (shift, point)
    in that order, about `block` rows at a time: whole shifts when a shift's
    `points` fit in `block`, else one shift's points lo..hi-1, `block` at a
    time; the rows are the given shifts' points, one shift after the other.
    Coordinate k < 48 of point i under shift s is Sobol dimension k + 1 of
    point i xor the shift's random bits; the others are uniform bits.  The
    shifts' bits (shifts x width), then the uniform bits, row after row,
    come from one generator seeded by `seed`, so the rows do not depend on
    `block`.  Bits b give u = (b + 1/2) 2^-52 in [2^-53, 1 - 2^-53] and the
    normal `_normal_quantile(u)`."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    top = np.uint64(1) << np.uint64(_SOBOL_BITS)
    offsets = rng.integers(top, size=(shifts, width), dtype=np.uint64)
    sobol = min(width, 1 + len(_JOE_KUO))

    def uniforms(which: np.ndarray, lo: int, hi: int) -> np.ndarray:
        bits = np.empty((len(which), hi - lo, width), dtype=np.uint64)
        bits[..., sobol:] = rng.integers(top, size=(len(which), hi - lo, width - sobol), dtype=np.uint64)
        bits[..., :sobol] = _sobol_bits(lo, hi, sobol)
        bits ^= offsets[which, None, :]
        u = bits.reshape(-1).astype(float)
        u += 0.5
        u *= 2.0**-_SOBOL_BITS
        return u

    group = max(1, block // points)
    for first in range(0, shifts, group):
        which = np.arange(first, min(first + group, shifts))
        for lo in range(0, points, block):
            hi = min(lo + block, points)
            yield which, _normal_quantile(uniforms(which, lo, hi)).reshape(len(which) * (hi - lo), width)


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
    and the covariance factors, by Gram-Schmidt on the drawn rows and trace
    formulas for the two invariants of A and C that V depends on, in
    O(n^3) per sample, or at n = 3 by three quadratic forms in the normals,
    sums of squares; the sphere rule reads its areas from the same map.
    Each factor is first divided by a power of two (see _FORM_SCALE) and
    the volume, linear in each row, multiplied back by their product, which
    is exact, so no form overflows for Q as large as 1e200 I.  At n <= 2
    nothing is drawn and the estimate is exact, with stderr 0 and `samples`
    0: 2 sqrt(Q) at n = 1 and V(Q_0, Q_1) at n = 2.

    The normals are randomized quasi-Monte Carlo draws (`_shifted_normals`):
    the first `points` = ceil(samples / shifts) points of the unscrambled
    Sobol sequence in n(n-2) dimensions (Joe and Kuo's direction numbers up
    to 48, so up to n = 8; uniform bits beyond), each under `shifts` =
    min(_SHIFTS, samples) independent random digital shifts, and mapped
    coordinate by coordinate to normals, in (row, column) order.  Each shift
    gives an unbiased mean; the estimate is the mean of the shift means,
    its stderr their spread over sqrt(shifts), and `samples` of the result
    is shifts * points.  The rows are reduced _DET_BLOCK at a time, and
    only one sum per shift of their deviations from the first row is kept,
    so memory does not grow with `samples`, and a constant estimate has
    stderr 0.  Every Q_i must be finite and positive semidefinite (as for
    `Ellipsoid`)."""
    _require_draws(samples, seed)
    qs = [np.asarray(q, dtype=float) for q in covariances]
    n = len(qs)
    if n == 0 or any(q.shape != (n, n) for q in qs):
        raise ValueError("need n >= 1 covariance matrices of size n")
    factors, exponent = [], 0
    for k, q in enumerate(qs):
        vals, vecs = _psd_eigh(q)
        factor = vecs * np.sqrt(vals)
        top = float(np.abs(factor).max())
        if top > 0:
            # the volume is linear in each row: scaled back exactly at the end
            scale = math.frexp(top)[1] - (_FORM_SCALE if k >= n - 3 else 0)
            factor = np.ldexp(factor, -scale)
            exponent += scale
        factors.append(factor)
    if n == 1:
        return MonteCarloStats(math.ldexp(2.0 * float(np.linalg.norm(factors[0])), exponent), 0.0, 0)
    if n == 2:
        q, q2 = (f @ f.T for f in factors)
        return MonteCarloStats(math.ldexp(float(_mixed_area(q, q2)), exponent), 0.0, 0)
    areas = _complement_mixed_areas(np.stack(factors))
    const = (2 * math.pi) ** (n / 2) / (math.pi * math.factorial(n))
    shifts = min(_SHIFTS, samples)
    points = -(-samples // shifts)
    # one sum per shift of the deviations from the first row
    anchor, sums = None, np.zeros(shifts)
    for which, normals in _shifted_normals(n * (n - 2), shifts, points, seed, _DET_BLOCK):
        dets = areas(normals.reshape(-1, n - 2, n))
        if anchor is None:
            anchor = float(dets[0])
        dets -= anchor
        sums[which] += dets.reshape(len(which), -1).sum(axis=1)
        del which, normals, dets  # freed before the next block is made
    means = sums / points
    return MonteCarloStats(
        value=math.ldexp(const * (anchor + float(means.mean())), exponent),
        stderr=math.ldexp(const * float(means.std(ddof=1)) / math.sqrt(shifts), exponent),
        samples=shifts * points,
    )
