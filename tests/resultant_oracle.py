"""Independent common-zero counter on the 2-torus: a hidden-variable resultant.

F_i(x, y) = sum_k c_k e(<lam_k, (x, y)>), e(t) = exp(2 pi i t), with z =
e(x) and w = e(y), is a Laurent polynomial in (z, w); shifted by the least
exponents of its support it is a polynomial p_i(z, w) = sum_j a_ij(z) w^j of
degree d_i in w.  The Sylvester matrix S(z) of p_1 and p_2 in w, d_2 rows of
a_1's shifted coefficients over d_1 rows of a_2's, has S(z) v(w) = 0 at a
common root, v(w) = (1, w, ..., w^(d_1 + d_2 - 1)).  S(z) = sum_k S_k z^k
is a matrix polynomial; its block companion pencil A - z B, of size (d_1 +
d_2) deg_z S, has the eigenvalues z of the common roots and the eigenvectors
(v, z v, z^2 v, ...), found by one `scipy.linalg.eig`.  w is read off v by
least squares on its consecutive ratios, and a root is on the torus when |z|
and |w| are both within `tol` of 1.  A root off the torus by more than `tol`
but less than `band` is ambiguous: the sample is reported as None, not
guessed.  Nothing here is shared with `realroots.montecarlo`'s counter.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def _coefficient_grid(freqs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """P with P[a, b] the coefficient of z^a w^b in the shifted polynomial."""
    exps = np.rint(freqs).astype(int)
    exps -= exps.min(axis=0)
    grid = np.zeros(tuple(exps.max(axis=0) + 1), dtype=complex)
    np.add.at(grid, (exps[:, 0], exps[:, 1]), coeffs)
    return grid


def torus_root_count(
    f1: np.ndarray, c1: np.ndarray, f2: np.ndarray, c2: np.ndarray,
    tol: float = 1e-6, band: float = 1e-3,
) -> int | None:
    """Number of common roots of the two exponential sums on the torus, or
    None if some root is off it by between `tol` and `band`."""
    p1, p2 = _coefficient_grid(f1, c1), _coefficient_grid(f2, c2)
    d1, d2 = p1.shape[1] - 1, p2.shape[1] - 1
    size, top = d1 + d2, max(p1.shape[0], p2.shape[0]) - 1
    sylvester = np.zeros((top + 1, size, size), dtype=complex)
    for r in range(d2):
        sylvester[: p1.shape[0], r, r : r + d1 + 1] = p1
    for r in range(d1):
        sylvester[: p2.shape[0], d2 + r, r : r + d2 + 1] = p2
    # A x = z B x with x = (v, z v, ..., z^(top - 1) v): the last block row
    # reads sum_k S_k z^k v = 0
    a = np.eye(size * top, k=size, dtype=complex)
    a[-size:] = -np.hstack(list(sylvester[:top]))
    b = np.eye(size * top, dtype=complex)
    b[-size:, -size:] = sylvester[top]
    z = scipy.linalg.eigvals(a, b)
    z = z[np.abs(np.abs(z) - 1.0) < band]
    # v(w) spans the null space of S(z): its last right singular vector
    at = np.einsum("rk,kab->rab", z[:, None] ** np.arange(top + 1), sylvester)
    v = np.linalg.svd(at)[2][:, -1].conj()
    w = (v[:, :-1].conj() * v[:, 1:]).sum(axis=1) / (np.abs(v[:, :-1]) ** 2).sum(axis=1)
    off = np.maximum(np.abs(np.abs(z) - 1.0), np.abs(np.abs(w) - 1.0))
    if ((tol <= off) & (off < band)).any():
        return None
    return int((off < tol).sum())
