"""Seeded stochastic estimators and the matrix-element oracle for rank one."""

import math

import numpy as np
import pytest

from realroots.groups import RepEnsemble, f_form, killing_radius
from realroots.montecarlo import (
    MonteCarloStats,
    circle_zero_locations,
    count_common_zeros_torus2,
    count_zeros_circle,
    equidistribution_check,
    gaussian_mixed_volume,
    sample_real_laurent,
)
from realroots.rootsystems import root_system
from realroots.torus import box_support, segment_support
from su2_oracle import su2_f_form_oracle, su2_from_quaternion, su2_haar_nodes, su2_irrep_matrix

A1 = root_system("A1")


# -- quaternions and irreducible matrices -------------------------------------

def normalize(q):
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q)


def quat_mul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def test_quaternion_matrix_is_special_unitary():
    q = normalize([1.0, 2.0, -0.5, 0.3])
    u = su2_from_quaternion(q)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
    assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-13)
    assert np.allclose(su2_from_quaternion([1, 0, 0, 0]), np.eye(2))


def test_quaternion_map_is_a_homomorphism():
    rng = np.random.default_rng(1)
    a = normalize(rng.normal(size=4))
    b = normalize(rng.normal(size=4))
    lhs = su2_from_quaternion(quat_mul(a, b))
    rhs = su2_from_quaternion(a) @ su2_from_quaternion(b)
    assert np.allclose(lhs, rhs, atol=1e-13)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_irrep_matrices_are_unitary_homomorphisms(k):
    rng = np.random.default_rng(k)
    a = normalize(rng.normal(size=4))
    b = normalize(rng.normal(size=4))
    ua, ub = su2_from_quaternion(a), su2_from_quaternion(b)
    ma, mb = su2_irrep_matrix(k, ua), su2_irrep_matrix(k, ub)
    assert ma.shape == (k + 1, k + 1)
    assert np.allclose(ma @ ma.conj().T, np.eye(k + 1), atol=1e-12)
    assert np.allclose(su2_irrep_matrix(k, ua @ ub), ma @ mb, atol=1e-12)


def test_irrep_character_is_dirichlet_kernel():
    t = 0.73
    u = su2_from_quaternion([math.cos(t), 0.0, 0.0, math.sin(t)])
    for k in (1, 2, 4):
        char = np.trace(su2_irrep_matrix(k, u))
        want = sum(np.exp(1j * (k - 2 * r) * t) for r in range(k + 1))
        assert char == pytest.approx(want, abs=1e-12)


def test_haar_nodes_reproduce_schur_orthogonality():
    nodes, weights = su2_haar_nodes(6)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    k = 2
    acc = np.zeros((k + 1,) * 4, dtype=complex)
    for q, w in zip(nodes, weights):
        m = su2_irrep_matrix(k, su2_from_quaternion(q))
        acc += w * np.einsum("ij,kl->ijkl", m, m.conj())
    want = np.einsum("ik,jl->ijkl", np.eye(k + 1), np.eye(k + 1)) / (k + 1)
    assert np.abs(acc - want).max() < 1e-12


def test_haar_nodes_integrate_character_products():
    nodes, weights = su2_haar_nodes(8)
    vals = np.array(
        [
            np.trace(su2_irrep_matrix(3, su2_from_quaternion(q)))
            * np.conj(np.trace(su2_irrep_matrix(3, su2_from_quaternion(q))))
            for q in nodes
        ]
    )
    assert (weights * vals).sum().real == pytest.approx(1.0, abs=1e-12)


# -- the finite-difference oracle ----------------------------------------------

@pytest.mark.parametrize(
    "spectrum,weights",
    [
        ([(2, 1)], [((2,), 1)]),
        ([(0, 1), (1, 1), (2, 1)], [((0,), 1), ((1,), 1), ((2,), 1)]),
        ([(0, 1), (2, 1)], [((0,), 1), ((2,), 1)]),
        ([(1, 1), (3, 1)], [((1,), 1), ((3,), 1)]),
    ],
)
def test_oracle_matches_exact_radius(spectrum, weights):
    oracle = math.sqrt(su2_f_form_oracle(spectrum))
    exact = killing_radius(RepEnsemble(A1, weights))
    assert oracle == pytest.approx(exact, abs=1e-6)


def test_oracle_ignores_multiplicities():
    assert su2_f_form_oracle([(2, 3), (0, 2)]) == pytest.approx(
        su2_f_form_oracle([(0, 1), (2, 1)]), abs=1e-15
    )


# -- coefficient sampling --------------------------------------------------------

def test_sampled_coefficients_are_conjugate_symmetric():
    rng = np.random.default_rng(7)
    coeffs = sample_real_laurent(box_support(2, 1), rng)
    assert coeffs[(0, 0)].imag == 0.0
    for lam, value in coeffs.items():
        mirror = tuple(-c for c in lam)
        assert coeffs[mirror] == np.conj(value)


def test_sampling_is_reproducible():
    a = sample_real_laurent(segment_support(3), np.random.default_rng(11))
    b = sample_real_laurent(segment_support(3), np.random.default_rng(11))
    assert a == b


# -- circle counting ---------------------------------------------------------------

def test_circle_counts_are_deterministic_given_seed():
    one = count_zeros_circle(segment_support(5), 100, seed=1)
    two = count_zeros_circle(segment_support(5), 100, seed=1)
    assert (one.value, one.stderr, one.samples) == (two.value, two.stderr, two.samples)
    assert one.discarded == 0
    assert isinstance(one, MonteCarloStats)


def test_circle_count_statistics_match_formula():
    # m = 3: expected count 2 sqrt(m(m+1)/3) = 4
    stats = count_zeros_circle(segment_support(3), 400, seed=2)
    z = (stats.value - 4.0) / stats.stderr
    assert abs(z) < 4


def test_zero_locations_live_on_the_circle():
    locs = circle_zero_locations(segment_support(5), 100, seed=2)
    assert locs.ndim == 1 and len(locs) > 300
    assert locs.min() >= 0.0 and locs.max() < 1.0


def test_zero_locations_fill_both_halves():
    # equidistribution: about half of the zeros land in [0, 1/2)
    fractions = []
    for seed in (1, 2, 3):
        locs = circle_zero_locations(segment_support(5), 300, seed=seed)
        fractions.append(float(np.mean(locs < 0.5)))
    for frac in fractions:
        assert abs(frac - 0.5) < 0.05  # about 4 standard errors


def test_equidistribution_chi_square():
    for seed in (1, 2, 3):
        locs = circle_zero_locations(segment_support(5), 300, seed=seed)
        _, p = equidistribution_check(locs)
        assert p > 0.001
    # a clustered sample must fail
    _, p_bad = equidistribution_check(np.full(4000, 0.25))
    assert p_bad < 1e-10


# -- torus counting -------------------------------------------------------------------

def test_torus_counts_are_deterministic_and_tracked():
    one = count_common_zeros_torus2(box_support(2, 1), 40, seed=3)
    two = count_common_zeros_torus2(box_support(2, 1), 40, seed=3)
    assert (one.value, one.stderr, one.samples, one.discarded) == (
        two.value,
        two.stderr,
        two.samples,
        two.discarded,
    )
    assert one.samples == 40
    assert one.discard_rate <= 0.05
    z = (one.value - 4 * math.pi / 3) / one.stderr
    assert abs(z) < 5


# -- gaussian determinant volumes --------------------------------------------------------

def test_gaussian_volume_one_dimensional_normalization():
    for q in (1.0, 2.5):
        stats = gaussian_mixed_volume([np.array([[q]])], samples=200_000, seed=1)
        z = (stats.value - 2 * math.sqrt(q)) / stats.stderr
        assert abs(z) < 4


def test_gaussian_volume_disc_pair():
    stats = gaussian_mixed_volume([np.eye(2), np.eye(2)], samples=300_000, seed=2)
    z = (stats.value - math.pi) / stats.stderr
    assert abs(z) < 4


def test_gaussian_volume_reproducible():
    a = gaussian_mixed_volume([np.eye(2), 2 * np.eye(2)], samples=50_000, seed=3)
    b = gaussian_mixed_volume([np.eye(2), 2 * np.eye(2)], samples=50_000, seed=3)
    assert a.value == b.value and a.stderr == b.stderr
