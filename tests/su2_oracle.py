"""Rank-one group oracle for the tests: spin representations of SU(2) from
quaternions, a Haar quadrature on SU(2), a finite-difference measurement
of the derivative-covariance radius that is independent of the Casimir route
in `realroots.groups`, and Hopf coordinates that turn a system on SU(2) into
a trigonometric system on the 3-torus: the spin-1/2 systems A q and the
adjoint systems tr(A R(q)), R(q) the rotation of the unit quaternion q.
"""

import math
from typing import Sequence

import numpy as np


def su2_from_quaternion(q: Sequence[float]) -> np.ndarray:
    """Unit quaternion (w, x, y, z) as a special unitary 2x2 matrix."""
    w, x, y, z = (float(c) for c in q)
    return np.array(
        [[w + 1j * z, x + 1j * y], [-x + 1j * y, w - 1j * z]], dtype=complex
    )


def su2_irrep_matrix(k: int, u: np.ndarray) -> np.ndarray:
    """Unitary matrix of the (k+1)-dimensional irreducible representation in
    the orthonormal monomial basis of binary forms of degree k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    v = u.conj().T  # substitution by the inverse gives a left action
    out = np.zeros((k + 1, k + 1), dtype=complex)
    binom = [math.comb(k, r) for r in range(k + 1)]
    for r in range(k + 1):
        c1 = np.array(
            [math.comb(k - r, i) * v[0, 0] ** (k - r - i) * v[0, 1] ** i for i in range(k - r + 1)]
        )
        c2 = np.array(
            [math.comb(r, j) * v[1, 0] ** (r - j) * v[1, 1] ** j for j in range(r + 1)]
        )
        col = np.convolve(c1, c2)
        for s in range(k + 1):
            out[s, r] = col[s] * math.sqrt(binom[r] / binom[s])
    return out


def su2_haar_nodes(max_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature (quaternions, probability weights) exact for products of
    matrix elements of representations up to the given degree."""
    n_phi = 2 * max_degree + 2
    n_gl = max_degree + 1
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_gl)
    u = 0.5 * (gl_x + 1.0)
    uw = 0.5 * gl_w
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    quats = []
    weights = []
    for ui, wi in zip(u, uw):
        ce = math.sqrt(1.0 - ui)
        se = math.sqrt(ui)
        for p1 in phis:
            for p2 in phis:
                quats.append(
                    (ce * math.cos(p1), se * math.cos(p2), se * math.sin(p2), ce * math.sin(p1))
                )
                weights.append(wi / n_phi**2)
    return np.array(quats), np.array(weights)


def _su2_killing_direction(axis: int, t: float) -> np.ndarray:
    """Group element exp(t e) along the Killing-orthonormal direction built
    from the pure quaternion unit of the given axis."""
    s = t / (2.0 * math.sqrt(2.0))
    q = [math.cos(s), 0.0, 0.0, 0.0]
    q[1 + axis] = math.sin(s)
    return su2_from_quaternion(q)


def su2_f_form_oracle(spectrum: Sequence[tuple[int, int]], h: float = 1e-4) -> float:
    """Squared derivative-covariance radius of a rank-one ensemble, measured
    by finite differences of matrix elements at the identity.

    `spectrum` lists (k, multiplicity) pairs, k+1 the representation
    dimension.  Repeated components span no new matrix elements, so the
    distinct k values are what matters.  Independent of the analytic
    Casimir route.
    """
    ks = sorted({int(k) for k, _ in spectrum})

    def direction_sum(step: float) -> float:
        total = 0.0
        for axis in range(3):
            up = _su2_killing_direction(axis, step)
            dn = _su2_killing_direction(axis, -step)
            for k in ks:
                d = (su2_irrep_matrix(k, up) - su2_irrep_matrix(k, dn)) / (2.0 * step)
                total += (k + 1) * float((d * d.conj()).real.sum())
        return total / 3.0

    coarse = direction_sum(2.0 * h)
    fine = direction_sum(h)
    num = (4.0 * fine - coarse) / 3.0
    denom = sum((k + 1) ** 2 for k in ks)
    return num / denom


def hopf_quaternion(t: np.ndarray) -> np.ndarray:
    """Unit quaternions q(eta, phi, psi) = (cos 2 pi eta e(phi),
    sin 2 pi eta e(psi)), e(x) = exp(2 pi i x) read as two real coordinates,
    at the rows (eta, phi, psi) of `t`.  On [0,1)^3 this covers SU(2) = S^3
    exactly four times, one (eta, phi, psi) per choice of the signs of
    cos 2 pi eta and sin 2 pi eta, away from the two circles where one of
    them vanishes, a null set."""
    c, s = np.cos(2 * np.pi * t[:, 0]), np.sin(2 * np.pi * t[:, 0])
    phi, psi = 2 * np.pi * t[:, 1], 2 * np.pi * t[:, 2]
    return np.stack([c * np.cos(phi), c * np.sin(phi), s * np.cos(psi), s * np.sin(psi)], axis=1)


def hopf_exponential_sums() -> tuple[np.ndarray, np.ndarray]:
    """(freqs, table): the eight frequencies lam in Z^3 of the coordinates of
    `hopf_quaternion` and the 4 x 8 complex matrix with
    q_k(t) = sum_j table[k, j] exp(2 pi i <freqs[j], t>)."""
    cos, sin = {1: 0.5, -1: 0.5}, {1: -0.5j, -1: 0.5j}
    signs = [(a, b) for a in (1, -1) for b in (1, -1)]
    freqs = [(a, b, 0) for a, b in signs] + [(a, 0, b) for a, b in signs]
    table = np.zeros((4, len(freqs)), dtype=complex)
    for k, (first, axis, second) in enumerate([(cos, 1, cos), (cos, 1, sin), (sin, 2, cos), (sin, 2, sin)]):
        for j, lam in enumerate(freqs):
            if lam[3 - axis] == 0:
                table[k, j] = first[lam[0]] * second[lam[axis]]
    return np.array(freqs, dtype=float), table


def quaternion_rotation(q: np.ndarray) -> np.ndarray:
    """R(q), the 3 x 3 matrix of v -> q v q^-1 on the pure quaternions, at
    the rows q = (w, x, y, z) of `q`: the adjoint representation of SU(2).
    Each entry is a quadratic form in q (for unit q)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([
        np.stack([w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z], -1),
    ], -2)


def adjoint_hopf_systems(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(freqs, coeffs) of f_i(t) = tr(A_i R(q(t))), q = `hopf_quaternion`,
    for the rows A of `a` (shape (samples, 3, 3, 3)): coeffs[i] has one row
    per sample with f_i(t) = sum_j coeffs[i][s, j] exp(2 pi i <freqs[j], t>).
    R is quadratic in q, so the frequencies are at most 2 per angle, and the
    5^3-point FFT of f_i gives them exactly; the adjoint carries 22 of them."""
    def lattice(axis):
        return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)

    values = np.einsum("siab,pba->isp", a, quaternion_rotation(hopf_quaternion(lattice(np.arange(5) / 5))))
    coeffs = np.fft.fftn(values.reshape(3, len(a), 5, 5, 5), axes=(2, 3, 4)).reshape(3, len(a), -1) / 125
    freqs = lattice(np.fft.fftfreq(5, 1 / 5))
    keep = np.abs(coeffs).max(axis=(0, 1)) > 1e-9
    return freqs[keep], coeffs[:, :, keep]
