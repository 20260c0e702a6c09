"""Independent zero counter on the circle: unimodular companion eigenvalues.

Row g of one-sided weights is f(x) = Re sum_j g_j exp(2 pi i j x).  On
|z| = 1, 2 f = sum_j g_j z^j + conj(g_j) z^-j, so z^top * 2 f is a polynomial
of degree 2 top whose roots on the unit circle are the zeros of f (the other
roots come in pairs z, 1 / conj(z)).  The roots are the eigenvalues of its
companion matrix, found for a whole stack of rows by one `np.linalg.eigvals`.
"""

import numpy as np


def unimodular_root_counts(g: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Number of roots within `tol` of the unit circle, one count per row."""
    rows, width = g.shape
    top = width - 1
    poly = np.zeros((rows, 2 * top + 1), dtype=complex)  # column i: coefficient of z^i
    poly[:, top:] += g
    poly[:, top::-1] += g.conj()
    n = 2 * top
    companion = np.zeros((rows, n, n), dtype=complex)
    companion[:, 1:, :-1] = np.eye(n - 1)
    companion[:, :, -1] = -poly[:, :-1] / poly[:, -1:]
    roots = np.linalg.eigvals(companion)
    return (np.abs(np.abs(roots) - 1.0) < tol).sum(axis=1)
