"""The per-sample 2-torus counter that `realroots.montecarlo` ran before it
subdivided the boxes of a whole block of samples at once: a test oracle,
kept as it was but for its bounds, starting grid and polish, which follow
the library's: the l1 radius |lam|_1 r, the degree-scaled grid, the box's
own Hessian with a third-order remainder, and a polish that stops once
every zero has settled.

It draws each sample as the library does, one-sided: F_i = Re sum b_lam
e(<lam, x>) over the zero frequency and one lam of each pair +-lam
(`_coefficient_rows`), with no fold.  It evaluates F and its Jacobian by
one complex `exp` per point and frequency (`_pair_jet`) and certifies one
sample at a time.  The certificate constants are copied here as they
were, so a change to the library's constants shows up as a disagreement; a
test that patches a limit patches both modules.  Its one size limit is the
library's limit on a sample decided alone, _BLOCK_CELLS undecided boxes.
`_inverse2`, the closed-form 2x2 inverse the library used before its box
counter was written for n dimensions, is copied too, so the oracle does not
share the library's Leibniz adjugate.
"""

from __future__ import annotations

import numpy as np

from realroots.montecarlo import _coefficient_rows

_ROUNDING = 1e-12
_BOX_BASE = 16  # boxes per side of the starting grid per unit of the largest frequency
_BOX_LEVELS = 16  # quarterings of an undecided box before its sample is discarded
_BLOCK_CELLS = 2**15  # undecided boxes one sample may hold before it is discarded
_BOX_INFLATE = 9 / 8  # the Krawczyk test runs on the box blown up by this factor
_NEWTON_STEPS = 6  # full Newton steps polishing a certified zero
_SNAP = 2.0**-40


def _inverse2(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack of 2x2 matrices and the mask of those not too
    close to singular to invert."""
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    ok = np.abs(det) > _ROUNDING * (jac * jac).sum(axis=(1, 2))
    adj = jac[:, ::-1, ::-1].transpose(0, 2, 1) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return adj / np.where(ok, det, 1.0)[:, None, None], ok


def _pair_jet(f1: np.ndarray, c1: np.ndarray, f2: np.ndarray, c2: np.ndarray):
    """A function of points (n x 2) giving F = (F1, F2) (n x 2), its
    Jacobian (n x 2 x 2) and the Hessians of F1 and F2 (n x 2 x 2 x 2),
    from one matmul over the distinct frequencies."""
    freqs, where = np.unique(np.vstack([f1, f2]), axis=0, return_inverse=True)
    weights = np.zeros((len(freqs), 2, 7), dtype=complex)
    for i, rows, f, c in ((0, where[: len(f1)], f1, c1), (1, where[len(f1) :], f2, c2)):
        grad = 2j * np.pi * f
        second = (grad[:, :, None] * grad[:, None, :]).reshape(-1, 4)
        weights[rows, i] = c[:, None] * np.hstack([np.ones((len(f), 1)), grad, second])
    weights = weights.reshape(len(freqs), 14)

    def jet(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        out = (np.exp(2j * np.pi * (points @ freqs.T)) @ weights).real.reshape(-1, 2, 7)
        return out[:, :, 0], out[:, :, 1:3], out[:, :, 3:].reshape(-1, 2, 2, 2)

    return jet


def _certified_sample_count(
    f1: np.ndarray, c1: np.ndarray, f2: np.ndarray, c2: np.ndarray
) -> int | None:
    """Count the common zeros of one sampled pair on [0,1)^2, or None if the
    subdivision cannot certify them (the caller discards the sample).

    The starting grid has _BOX_BASE boxes per side per unit of the largest
    |frequency coordinate|.  Each level first drops the boxes where some
    |F_i| is bounded away from 0 by a Lipschitz or second-order Taylor bound
    around the centre, with the Hessian bounded over the box or, a third
    order later, taken at the centre; all from |<lam, d>| <= |lam|_1 r on a
    box of radius r.  On the others, the Krawczyk operator K(X) of the box X
    blown up by _BOX_INFLATE, with the interval Jacobian taken as the centre
    Jacobian +- a bound whose row i sums to the smaller of hess_i times the
    radius and the centre Hessian's entries times the radius plus a
    third-order term, holds every zero in X: inside int X it certifies
    exactly one, disjoint from X none.  Newton polishes a certified zero
    until its steps fall below _SNAP, and the box credits it only if its
    own half-open box holds it, so a zero found by several boxes is counted
    once.  The remaining boxes are quartered."""
    pairs = ((f1, c1), (f2, c2))
    lip = np.array([2 * np.pi * np.abs(c) @ np.abs(f).sum(axis=1) for f, c in pairs])
    hess = np.array([(2 * np.pi) ** 2 * np.abs(c) @ np.abs(f).sum(axis=1) ** 2 for f, c in pairs])
    third = np.array([(2 * np.pi) ** 3 * np.abs(c) @ np.abs(f).sum(axis=1) ** 3 for f, c in pairs])
    ef = np.array([_ROUNDING * np.abs(c).sum() for _, c in pairs])
    ed = _ROUNDING * lip
    eh = _ROUNDING * hess
    jet = _pair_jet(f1, c1, f2, c2)

    side = _BOX_BASE * max(1, int(np.abs(np.vstack([f1, f2])).max()))
    axis = (np.arange(side) + 0.5) / side
    centers = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    radius = 0.5 / side
    offsets = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    count = 0
    for _ in range(_BOX_LEVELS + 1):
        val, jac, hessian = jet(centers)
        # every entry of the centre Hessian, plus the roundings of its 4 entries
        curve = np.abs(hessian).sum(axis=(2, 3)) + 4 * eh
        first = (np.abs(jac).sum(axis=2) + 2 * ed) * radius
        reach = np.minimum(
            np.minimum(lip * radius, first + hess / 2 * radius * radius),
            first + curve / 2 * radius * radius + third / 6 * radius**3,
        )
        live = (np.abs(val) <= reach + ef).all(axis=1)
        centers, val, jac, curve = centers[live], val[live], jac[live], curve[live]
        # Krawczyk: K(X) = x - Y F(x) + (I - Y J(X)) (X - x), Y = J(x)^-1
        wide = _BOX_INFLATE * radius
        inv, ok = _inverse2(jac)
        step = np.einsum("nab,nb->na", inv, val)
        spread = np.abs(np.eye(2) - inv @ jac).sum(axis=2)
        moved = np.minimum(hess, curve + third / 2 * wide) * wide
        spread += np.einsum("nab,nb->na", np.abs(inv), moved + 2 * ed)
        k_radius = np.abs(inv) @ ef + wide * spread
        free = (np.abs(step) > wide + k_radius).any(axis=1)
        ok &= (np.abs(step) + k_radius < wide).all(axis=1)
        if ok.any():
            # a box whose Newton polish leaves it or does not settle stays undecided
            zeros = centers[ok] - step[ok]
            settled = np.ones(zeros.shape[0], dtype=bool)
            for _ in range(_NEWTON_STEPS):
                zval, zjac, _ = jet(zeros)
                zinv, zok = _inverse2(zjac)
                move = np.einsum("nab,nb->na", zinv, zval) * zok[:, None]
                settled &= zok
                zeros = zeros - move
                if (np.abs(move) < _SNAP).all():
                    break
            settled &= (np.abs(move) < _SNAP).all(axis=1)
            settled &= (np.abs(zeros - centers[ok]) < wide).all(axis=1)
            ok[ok] = settled
            snapped = np.round(zeros[settled] / _SNAP) * _SNAP % 1.0
            low = centers[ok] - radius
            count += int(((low <= snapped) & (snapped < low + 2 * radius)).all(axis=1).sum())
        undecided = centers[~(ok | free)]
        if undecided.shape[0] == 0:
            return count
        if undecided.shape[0] > _BLOCK_CELLS:
            return None
        radius /= 2.0
        centers = (undecided[:, None, :] + radius * offsets[None, :, :]).reshape(-1, 2)
    return None


def oracle_counts(s1, s2, samples: int, seed: int) -> list[int | None]:
    """Per-sample counts of `count_common_zeros_torus2(s1, s2)` as the
    per-sample loop computed them: sample i draws both coefficient rows from
    the i-th child of SeedSequence(seed)."""
    (f1, width1, rows1), (f2, width2, rows2) = _coefficient_rows(s1), _coefficient_rows(s2)
    out = []
    for child in np.random.SeedSequence(seed).spawn(samples):
        rng = np.random.default_rng(child)
        c1 = rows1(rng.standard_normal((1, width1)))[0]
        c2 = rows2(rng.standard_normal((1, width2)))[0]
        out.append(_certified_sample_count(f1, c1, f2, c2))
    return out
