"""Seeded stochastic estimators and the matrix-element oracle for rank one."""

import itertools
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import realroots
from realroots import montecarlo
from realroots.groups import RepEnsemble, complex_count_reductive, f_form, killing_radius, mean_real_count_group
from realroots.montecarlo import (
    MonteCarloStats,
    circle_zero_locations,
    count_common_zeros_torus2,
    count_zeros_circle,
    gaussian_mixed_volume,
)
from realroots.rootsystems import root_system
from realroots.torus import Support, box_support, complex_count_torus, mean_real_count_torus, segment_support
import gaussian_oracle
import resultant_oracle
from circle_oracle import unimodular_root_counts
from equidistribution import equidistribution_check
from fold_systems import near_fold
from su2_oracle import (
    adjoint_hopf_systems,
    hopf_exponential_sums,
    hopf_quaternion,
    quaternion_rotation,
    spin_hopf_systems,
    su2_f_form_oracle,
    su2_from_quaternion,
    su2_haar_nodes,
    su2_irrep_matrix,
)

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

def conjugate_symmetric(half, weights):
    """(freqs, coeffs) of the Laurent form sum a_lam e(<lam, x>) of the real
    functions Re sum_half b_lam e(<lam, x>), one per weight row b: a_0 = b_0,
    and b_lam / 2 at lam and conj(b_lam) / 2 at -lam for the others."""
    zero = ~half.any(axis=1)
    freqs = np.vstack([half, -half[~zero]])
    return freqs, np.hstack([np.where(zero, weights, weights / 2), weights[:, ~zero].conj() / 2])


def resultant_counts(halves, coeffs):
    """The hidden-variable resultant oracle's count of each sample of the
    planar systems (halves, coeffs), one-sided as `random_systems` draws
    them, None for a sample it skips.  It solves the complex Laurent
    polynomials, not their real parts."""
    (f1, c1), (f2, c2) = map(conjugate_symmetric, halves, coeffs)
    return [resultant_oracle.torus_root_count(f1, c1[s], f2, c2[s]) for s in range(len(c1))]


def test_one_sided_weights_give_the_same_real_function():
    # the weights drawn on the zero frequency and one of each pair +-lam are
    # the real ensemble on the whole support: its Laurent form is real there
    support = box_support(2, 1)
    half, width, rows = montecarlo._coefficient_rows(support)
    assert half[0].tolist() == [0, 0] and all(tuple(p) > tuple(-p) for p in half[1:])
    weights = rows(np.random.default_rng(7).standard_normal((3, width)))
    assert (weights[:, 0].imag == 0.0).all()
    freqs, coeffs = conjugate_symmetric(half, weights)
    assert Support(map(tuple, freqs)) == support and len(freqs) == len(support)
    x = np.random.default_rng(8).random((50, 2))
    full = np.exp(2j * math.pi * x @ freqs.T) @ coeffs.T
    one_sided = (np.exp(2j * math.pi * x @ half.T) @ weights.T).real
    assert np.abs(full.imag).max() < 1e-14
    assert np.abs(full.real - one_sided).max() < 1e-14


def test_sampling_is_reproducible():
    _, width, rows = montecarlo._coefficient_rows(segment_support(3))
    first, second = (rows(np.random.default_rng(11).standard_normal((4, width))) for _ in range(2))
    assert np.array_equal(first, second)


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


@pytest.mark.parametrize("samples", [-3, 0])
def test_zero_locations_need_a_sample(samples):
    with pytest.raises(ValueError, match="at least 1 sample"):
        circle_zero_locations(segment_support(5), samples, seed=1)


def test_equidistribution_chi_square():
    for seed in (1, 2, 3):
        locs = circle_zero_locations(segment_support(5), 300, seed=seed)
        _, p = equidistribution_check(locs)
        assert p > 0.001
    # a clustered sample must fail
    _, p_bad = equidistribution_check(np.full(4000, 0.25))
    assert p_bad < 1e-10


def test_circle_counts_do_not_depend_on_the_starting_grid():
    # certified counts: the grid is only where the subdivision starts
    ((g, want, kept, _),) = montecarlo._circle_blocks(segment_support(5), 200, seed=4)
    assert kept.all()
    for grid in (8, 16, 64):
        counts, kept, _ = montecarlo._circle_cells(g, grid)
        assert kept.all()
        assert np.array_equal(counts, want)


@pytest.mark.parametrize("m,samples,seed", [(3, 256, 11), (5, 256, 12), (20, 128, 13)])
def test_circle_counts_match_companion_eigenvalues(m, samples, seed):
    for g, counts, kept, _ in montecarlo._circle_blocks(segment_support(m), samples, seed):
        assert kept.all()
        assert np.array_equal(counts, unimodular_root_counts(g))


def dilated(support, k):
    """The support k S: its points, in the same order, times k."""
    return Support([tuple(k * c for c in p) for p in support.points])


@pytest.mark.parametrize("k", [2, 3, 7])
@pytest.mark.parametrize("m", [1, 2])
def test_dilating_a_circle_support_multiplies_every_count(m, k):
    # k {-m, ..., m} draws the normals of segment:m, so its sample is f(k x),
    # with k zeros for each zero of f, and its rows are 0 off the multiples of k
    supports = segment_support(m), dilated(segment_support(m), k)
    for seed in range(5):
        base, gapped = (montecarlo._circle_blocks(s, 300, seed) for s in supports)
        for (g, counts, kept, _), (wide, wide_counts, wide_kept, _) in zip(base, gapped):
            assert np.array_equal(wide[:, ::k], g) and np.count_nonzero(wide) == np.count_nonzero(g)
            assert kept.all() and wide_kept.all()
            assert np.array_equal(wide_counts, k * counts)


def test_degree_400_circle_table_is_built_in_blocks():
    # the starting grid's cos and sin table, (m + 1) x 16 m, is built
    # _BOX_CHUNK columns at a time: near 33 MB here, 103 MB built whole
    assert traced_peak(lambda: count_zeros_circle(segment_support(400), 4, seed=1)) < 50e6


def test_degree_1000_circle_samples_are_all_kept():
    # a sample holds about 3400 undecided cells after its 16000-cell grid,
    # far inside _BLOCK_CELLS (a cap of 2048 cells dropped all)
    m = 1000
    stats = count_zeros_circle(segment_support(m), 4, seed=1)
    assert (stats.samples, stats.discarded) == (4, 0)
    assert abs(stats.value - 2 * m * math.sqrt((m + 1) / (3 * m))) < 5 * stats.stderr


@pytest.mark.parametrize("separation", [1 / 50, 1e-4])
def test_two_zeros_inside_one_cell_are_both_counted(separation):
    # cos(2 pi (x - a)) - cos(2 pi d) vanishes at a +- d: both lie in cell 10,
    # closer together than 1/32 of a cell and between two of its 32nd points
    grid = 64
    a, d = (10 + 16.5 / 32) / grid, separation / grid / 2
    g = np.array([[-math.cos(2 * math.pi * d), np.exp(-2j * math.pi * a)]])
    counts, kept, (rows, lo, width) = montecarlo._circle_cells(g, grid)
    assert kept.all() and counts.tolist() == [2]
    assert ((lo >= 10 / grid) & (lo + width <= 11 / grid)).all()


def test_zeros_between_the_points_of_a_coarse_grid_are_counted():
    # 0.9 + cos(2 pi 8 x) is 1.9 with f' = 0 at every point of an 8-point
    # grid, yet dips below zero twice inside every cell
    g = np.zeros((1, 9))
    g[0, 0], g[0, 8] = 0.9, 1.0
    counts, kept, _ = montecarlo._circle_cells(g, 8)
    assert kept.all() and counts.tolist() == [16]


@pytest.mark.parametrize("a", [0.0, 0.3 + 1e-5 * math.pi])
def test_double_zero_is_discarded(a):
    # 1 - cos(2 pi (x - a)) touches zero at a without a sign change
    g = np.array([[1.0, -np.exp(-2j * math.pi * a)], [0.5, 1.0]])
    counts, kept, _ = montecarlo._circle_cells(g, 64)
    assert kept.tolist() == [False, True]
    assert counts[1] == 2


def test_circle_discards_are_reported(monkeypatch):
    # without halving, every sample with an undecided grid cell is discarded
    monkeypatch.setattr(montecarlo, "_CIRCLE_ROUNDS", 0)
    stats = count_zeros_circle(segment_support(4), 40, seed=1)
    assert stats.discarded > 0 and stats.samples >= 2
    assert stats.samples + stats.discarded == 40


def test_circle_counter_needs_two_kept_samples(monkeypatch):
    cells = montecarlo._circle_cells

    def keep_first_only(g, grid):
        counts, kept, found = cells(g, grid)
        kept[1:] = False
        return counts, kept, found

    monkeypatch.setattr(montecarlo, "_circle_cells", keep_first_only)
    with pytest.raises(ArithmeticError, match="fewer than 2 kept"):
        count_zeros_circle(segment_support(3), 3, seed=1)


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
    assert one.discarded <= 0.05 * (one.samples + one.discarded)
    z = (one.value - 4 * math.pi / 3) / one.stderr
    assert abs(z) < 5


def sine_pair(first, second):
    """sin(2 pi <first, x>) and sin(2 pi <second, x>) as (freqs, one-row
    coefficient matrices)."""
    freqs = [np.array([lam, [-c for c in lam]], dtype=float) for lam in (first, second)]
    return freqs, [np.array([[-0.5j, 0.5j]])] * 2


@pytest.mark.parametrize(
    "first,second,zeros",
    [((1, 0), (0, 1), 4), ((1, 1), (1, -1), 8)],
)
def test_common_zeros_on_box_edges_are_counted_once(first, second, zeros):
    # every common zero sits on a corner of the dyadic boxes (some on the seam 0 = 1)
    (count,) = montecarlo._certified_counts(*sine_pair(first, second))
    assert count == zeros


@pytest.mark.parametrize("limit,value", [("_BLOCK_CELLS", 1), ("_BOX_LEVELS", 0)])
def test_torus_sample_over_a_box_limit_is_discarded(monkeypatch, limit, value):
    monkeypatch.setattr(montecarlo, limit, value)
    (count,) = montecarlo._certified_counts(*sine_pair((1, 1), (1, -1)))
    assert count is None


def test_dilating_a_planar_support_multiplies_every_count_by_four():
    # 2 box:2:1 draws the normals of box:2:1, so each sample is F(2 x), with
    # four zeros for each zero of F, and its weight columns off 2 Z^2 are 0
    support = box_support(2, 1)
    for seed in range(3):
        base = montecarlo._certified_counts(*random_systems([support] * 2, 64, seed))
        twice = montecarlo._certified_counts(*random_systems([dilated(support, 2)] * 2, 64, seed))
        assert None not in base and twice == [4 * c for c in base]


def per_sample_torus_counts(monkeypatch, supports, samples, seed):
    """The counts `count_common_zeros_torus2` gets for each of its samples,
    None for a discarded one, and its result (None if it raised)."""
    core = montecarlo._certified_counts
    seen = []

    def record(*args):
        counts = core(*args)
        seen.extend(counts)
        return counts

    monkeypatch.setattr(montecarlo, "_certified_counts", record)
    try:
        stats = count_common_zeros_torus2(supports, samples, seed)
    except ArithmeticError:
        stats = None
    return seen, stats


# the seed-1 child seeds of the montecarlo bench workload (bench/workloads.py)
BENCH_SEEDS = [int(x) for x in np.random.SeedSequence(1).generate_state(5)]


@pytest.mark.parametrize(
    "first,second,samples,seed",
    [
        ((2, 2), (2, 2), 12, 0),
        ((2, 1), (2, 1), 40, BENCH_SEEDS[2]),
        ((2, 1), (2, 1), 20, BENCH_SEEDS[3]),
        ((2, 1), (2, 1), 40, 3),
        ((2, 1), (2, 2), 40, 9),
    ],
)
def test_torus_counts_match_the_per_sample_oracle(monkeypatch, first, second, samples, seed):
    # the per-sample oracle is the counter run on each sample alone, at the
    # full limit: a block gives every sample the count it gets by itself
    supports = [box_support(*first), box_support(*second)]
    halves, coeffs = random_systems(supports, samples, seed)
    alone = [montecarlo._certified_counts(halves, [c[s : s + 1] for c in coeffs])[0]
             for s in range(samples)]
    counts, stats = per_sample_torus_counts(monkeypatch, supports, samples, seed)
    assert len(counts) == samples and counts == alone
    assert None not in counts and stats.samples == samples


@pytest.mark.parametrize(
    "first,second,samples,seed",
    [
        ((2, 2), (2, 2), 12, 0),
        ((2, 1), (2, 1), 40, BENCH_SEEDS[2]),
        ((2, 1), (2, 1), 20, BENCH_SEEDS[3]),
        ((2, 1), (2, 1), 40, 3),
        ((2, 1), (2, 2), 40, 9),
        ((2, 3), (2, 3), 16, 2),
    ],
)
def test_torus_counts_match_the_resultant_oracle(monkeypatch, first, second, samples, seed):
    # an oracle that shares no code with the counter (it would skip a sample
    # with a root between 1e-6 and 1e-3 off the torus; none of these has one)
    supports = [box_support(*first), box_support(*second)]
    counts, stats = per_sample_torus_counts(monkeypatch, supports, samples, seed)
    assert counts == resultant_counts(*random_systems(supports, samples, seed))
    assert stats.samples == samples


@pytest.mark.parametrize(
    "decade,seed,most_discarded", [(-3, 0, 0), (-3, 1, 0), (-3, 2, 1), (-3, 3, 0), (-4, 1, 44)]
)
def test_near_fold_counts_match_the_resultant_oracle(decade, seed, most_discarded):
    # box:2:1 draws pushed onto a fold: a common zero p whose Jacobian has
    # relative determinant eps, log-uniform in the decade.  The certificates
    # bind there as they do not on random draws: on the first decade,
    # halving lip or the centre Hessian sums gives wrong counts, the latter
    # on only a few of the four seeds' 1024 samples.  Nearer the fold
    # interval Newton cannot separate the two zeros, and samples are
    # discarded
    support = box_support(2, 1)
    halves, coeffs = random_systems([support] * 2, 256, seed)
    rng = np.random.default_rng(seed)
    eps = 10.0 ** rng.uniform(decade, decade + 1, 256)
    p, moved = near_fold(halves[0], coeffs, eps, rng)
    e = np.exp(2j * math.pi * p @ halves[0].T)
    grads = np.stack([((c * e) @ (2j * math.pi * halves[0])).real for c in moved], axis=1)
    assert max(np.abs((c * e).sum(axis=1).real).max() for c in moved) < 1e-12
    relative = np.linalg.det(grads) / np.prod(np.linalg.norm(grads, axis=2), axis=1)
    assert np.allclose(np.abs(relative), eps, rtol=1e-8)
    counts = montecarlo._certified_counts(halves, moved)
    want = resultant_counts(halves, moved)
    assert None not in want
    assert all(g == w for g, w in zip(counts, want) if g is not None)
    assert counts.count(None) <= most_discarded


def test_torus_discards_do_not_leak_across_a_batch(monkeypatch):
    # from a 2 x 2 grid at a limit of 20 undecided boxes, a block holds 5
    # samples with a share of 4 boxes each; every sample goes over its share
    # and is decided again alone, where those over 20 are discarded and the
    # others keep the count the resultant oracle gives them: each sample's
    # result is the one it gets run alone at that limit
    monkeypatch.setattr(montecarlo, "_BOX_BASE", 2)
    monkeypatch.setattr(montecarlo, "_BLOCK_CELLS", 20)
    blocks = []
    block_counts = montecarlo._block_counts

    def record(freqs, coeffs, side, share):
        got, over = block_counts(freqs, coeffs, side, share)
        blocks.append((len(coeffs[0]), share, int(over.sum())))
        return got, over

    monkeypatch.setattr(montecarlo, "_block_counts", record)
    support = box_support(2, 1)
    counts, stats = per_sample_torus_counts(monkeypatch, support, 40, seed=3)
    freqs, coeffs = random_systems([support] * 2, 40, seed=3)
    alone = [block_counts(freqs, [c[s : s + 1] for c in coeffs], 2, 20)[0][0] for s in range(40)]
    assert counts == alone
    want = resultant_counts(freqs, coeffs)
    assert all(g == w for g, w in zip(counts, want) if g is not None)
    assert set(b for b in blocks if b[0] > 1) == {(5, 4, 5)}
    assert sum(b[:2] == (1, 20) for b in blocks) == 40
    kept = [c for c in counts if c is not None]
    assert 2 <= len(kept) < 40
    assert (stats.samples, stats.discarded) == (len(kept), 40 - len(kept))
    assert stats.value == pytest.approx(np.mean(kept), abs=1e-12)


@pytest.mark.parametrize("steps,seed,kept_with_zeros", [(1, 1, 0), (3, 53, 55)])
def test_a_zero_whose_polish_does_not_settle_discards_only_its_sample(
    monkeypatch, steps, seed, kept_with_zeros
):
    # the certified boxes of a block are polished together at the end; with
    # too few Newton steps a polish does not settle within _SNAP, and the
    # sample that certified the box is discarded while the others of the
    # block keep the count they get with six steps, the resultant oracle's.
    # With one step every sample with zeros is dropped; with three, on seed
    # 53, seven are dropped beside 55 kept with zeros, the fewest on seeds
    # 0..199 (53 is the first of four seeds that drop seven).  (Boxes are
    # polished from their first Krawczyk iterate: three steps drop at least
    # 7 of 64 samples on those seeds and four drop none, so no step count
    # drops exactly one.)
    systems = random_systems([box_support(2, 1)] * 2, 64, seed)
    want = montecarlo._certified_counts(*systems)
    assert want == resultant_counts(*systems)
    monkeypatch.setattr(montecarlo, "_NEWTON_STEPS", steps)
    got = montecarlo._certified_counts(*systems)
    dropped = [w for g, w in zip(got, want) if g is None]
    assert dropped and all(w > 0 for w in dropped)
    assert all(g == w for g, w in zip(got, want) if g is not None)
    assert 0 in got and sum(g is not None and g > 0 for g in got) == kept_with_zeros


def polish_evaluations(monkeypatch, unsettled_row=None):
    """The number of boxes of each jet evaluation of `_polish`, as the run
    records them.  The F of `unsettled_row` is moved by an alternating
    1e-9 at each evaluation, so a zero of that row never settles."""
    calls: list[int] = []
    polish = montecarlo._polish

    def counted(jet, half, zeros, rows):
        def shaken(products, at):
            val, jac = jet(products, at)
            calls.append(len(at))
            if unsettled_row is not None:
                val = val + np.where(at == unsettled_row, (-1.0) ** len(calls) * 1e-9, 0.0)[:, None]
            return val, jac

        return polish(shaken, half, zeros, rows)

    monkeypatch.setattr(montecarlo, "_polish", counted)
    return calls


def test_the_polish_stops_once_every_zero_has_settled(monkeypatch):
    # the certified boxes of a block are polished together; the polish stops
    # at the first step that moves every zero by less than _SNAP, so allowing
    # more steps changes neither the evaluations nor the counts
    systems = random_systems([box_support(2, 1)] * 2, 64, seed=1)
    want = montecarlo._certified_counts(*systems)
    calls = polish_evaluations(monkeypatch)
    counts = montecarlo._certified_counts(*systems)
    assert counts == want
    assert len(calls) == 4 < montecarlo._NEWTON_STEPS and len(set(calls)) == 1
    monkeypatch.setattr(montecarlo, "_NEWTON_STEPS", 20)
    calls.clear()
    assert montecarlo._certified_counts(*systems) == counts and len(calls) == 4


def test_a_zero_that_never_settles_runs_every_newton_step_and_discards_only_its_sample(monkeypatch):
    systems = random_systems([box_support(2, 1)] * 2, 64, seed=1)
    want = montecarlo._certified_counts(*systems)
    row = next(s for s, w in enumerate(want) if w)
    calls = polish_evaluations(monkeypatch, unsettled_row=row)
    got = montecarlo._certified_counts(*systems)
    assert len(calls) == montecarlo._NEWTON_STEPS
    assert got[row] is None
    assert got[:row] + got[row + 1 :] == want[:row] + want[row + 1 :]


@pytest.mark.parametrize("support", [box_support(2, 2), box_support(3, 2)], ids=["n2", "n3"])
def test_split_products_stay_within_rounding_of_a_fresh_exp(support):
    # a child's products are its parent's times a unit shift; walked down
    # every split from the starting grid they stay within 1e-14 of exp
    n = support.dim
    half, *_ = montecarlo._product_jet(*random_systems([support] * n, 1, seed=0))
    rng = np.random.default_rng(16)
    radius = 0.5 / montecarlo._BOX_BASE
    centers = (rng.integers(0, montecarlo._BOX_BASE, (8, n)) + 0.5) * 2 * radius
    products = montecarlo._exponentials(centers, half)
    for _ in range(montecarlo._BOX_LEVELS):
        radius /= 2
        centers, products = montecarlo._children(centers, products, radius, half)
        pick = np.arange(8) * 2**n + rng.integers(0, 2**n, 8)
        centers, products = centers[pick], products[pick]
        exact = np.exp(2j * np.pi * centers @ half.T)
        assert np.abs(products - exact).max() <= 1e-14
    assert radius == 0.5 / montecarlo._BOX_BASE / 2**montecarlo._BOX_LEVELS


# -- the box counter in three dimensions -------------------------------------------------

def random_systems(supports, samples, seed):
    """(freqs, coeffs) of `samples` random systems, one equation per support,
    sample i drawn from the i-th child of SeedSequence(seed) as
    `count_common_zeros_torus2` draws it."""
    halves, widths, builds = zip(*map(montecarlo._coefficient_rows, supports))
    rngs = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(samples))
    rows = [[build(rng.standard_normal((1, w))) for w, build in zip(widths, builds)] for rng in rngs]
    return list(halves), [np.vstack(c) for c in zip(*rows)]


def near_singular_stack(rng, size, n):
    """Rank-one n x n matrices plus perturbations from 1e-16 to 1e-4 of them,
    so some fall on each side of the inverse's singularity threshold."""
    rank_one = rng.standard_normal((size, n, 1)) * rng.standard_normal((size, 1, n))
    return rank_one + 10.0 ** rng.uniform(-16, -4, (size, 1, 1)) * rng.standard_normal((size, n, n))


def closed_form_inverse2(jac):
    """Inverses of a stack of 2x2 matrices by the closed-form adjugate, and
    the mask of those not too close to singular to invert: |det| above 1e-12
    times the sum of the squared entries."""
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    ok = np.abs(det) > 1e-12 * (jac * jac).sum(axis=(1, 2))
    adj = jac[:, ::-1, ::-1].transpose(0, 2, 1) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return adj / np.where(ok, det, 1.0)[:, None, None], ok


def test_inverse_is_the_closed_form_on_2x2_stacks():
    rng = np.random.default_rng(12)
    for jac in (rng.standard_normal((500, 2, 2)), near_singular_stack(rng, 500, 2)):
        inv, ok = montecarlo._inverse(jac)
        want, want_ok = closed_form_inverse2(jac)
        assert np.array_equal(ok, want_ok) and 0 < ok.sum()
        assert inv.tobytes() == want.tobytes()
    assert not ok.all()


def test_inverse_inverts_3x3_stacks():
    rng = np.random.default_rng(13)
    jac = rng.standard_normal((500, 3, 3)) + 3 * np.eye(3)
    inv, ok = montecarlo._inverse(jac)
    assert ok.all()
    assert np.abs(jac @ inv - np.eye(3)).max() < 1e-12
    _, ok = montecarlo._inverse(near_singular_stack(rng, 500, 3))
    assert 0 < ok.sum() < 500


def test_zeros_off_a_box_centre_in_three_dimensions_are_all_counted():
    # cos 2 pi (x + y + z - 3a) - cos 6 pi rho, sin 2 pi (x - y), sin 2 pi (y - z):
    # x - y, y - z in {0, 1/2} (4 ways), x + y + z = 3a +- 3 rho (2 planes), and
    # three points on each line: 24 zeros, two of them at (a +- rho)(1, 1, 1)
    # near the centre of a starting box.  The Taylor remainder there needs
    # hess from |lam|_1^2 = 9 = n |lam|_2^2; with the planar remainder,
    # from |lam|_2^2 r^2, the count reads 16.
    a, rho = 5.5 / 16, 0.9 / 32
    freqs = [
        np.array([[1, 1, 1], [-1, -1, -1], [0, 0, 0]], dtype=float),
        np.array([[1, -1, 0], [-1, 1, 0]], dtype=float),
        np.array([[0, 1, -1], [0, -1, 1]], dtype=float),
    ]
    shift = np.exp(-6j * math.pi * a)
    coeffs = [
        np.array([[shift / 2, shift.conjugate() / 2, -math.cos(6 * math.pi * rho)]]),
        np.array([[-0.5j, 0.5j]]),
        np.array([[-0.5j, 0.5j]]),
    ]
    assert montecarlo._certified_counts(freqs, coeffs) == [24]


def test_a_zero_decided_by_the_lipschitz_bound_in_three_dimensions_is_counted():
    # sin 2 pi (x + y + z - 3a - 3 rho), sin 2 pi (x - y), sin 2 pi (y - z): 24
    # zeros, one at (a + rho)(1, 1, 1) off the centre of a starting box where
    # the gradient of F_1 is nonzero, so the Lipschitz reach, from
    # |lam|_1 = 3 = sqrt(n) |lam|_2, decides that box; with the planar
    # sqrt(2) |lam|_2 the count reads 16
    a, rho = 5.5 / 16, 0.9 / 32
    freqs = [
        np.array([[1, 1, 1], [-1, -1, -1]], dtype=float),
        np.array([[1, -1, 0], [-1, 1, 0]], dtype=float),
        np.array([[0, 1, -1], [0, -1, 1]], dtype=float),
    ]
    shift = np.exp(-6j * math.pi * (a + rho))
    coeffs = [
        np.array([[-0.5j * shift, 0.5j * shift.conjugate()]]),
        np.array([[-0.5j, 0.5j]]),
        np.array([[-0.5j, 0.5j]]),
    ]
    assert montecarlo._certified_counts(freqs, coeffs) == [24]


def split_boxes(monkeypatch) -> dict[float, list[tuple[float, ...]]]:
    """The centres of the boxes `_certified_counts` splits, by the radius of
    their children, as the run records them."""
    split: dict[float, list[tuple[float, ...]]] = {}
    children = montecarlo._children

    def record(centers, products, radius, half):
        split.setdefault(radius, []).extend(map(tuple, centers))
        return children(centers, products, radius, half)

    monkeypatch.setattr(montecarlo, "_children", record)
    return split


def axis_equation(axis, terms):
    """(freqs, one-row coefficients) of sum_k c_k e(m_k x_axis) for the
    (m_k, c_k) in `terms`, e(t) = exp(2 pi i t)."""
    freqs = np.zeros((len(terms), 3))
    freqs[:, axis] = [m for m, _ in terms]
    return freqs, np.array([[c for _, c in terms]])


def pairs(*points):
    """The support {+-p} of the given frequencies."""
    return Support([q for p in points for q in (p, tuple(-c for c in p))])


ROW_BOUND_SYSTEMS = {
    "box-2-2": [box_support(2, 2)] * 2,
    # one frequency pair each: the l1 bounds are nearly attained at a corner
    "diagonal": [pairs((1, 1)), pairs((2, -2))],
    "skew": [pairs((1, 1), (2, -1)), pairs((2, -1))],
    "box-3-1": [box_support(3, 1)] * 3,
    "skew-3d": [pairs((1, 1, 1)), pairs((2, -1, 1), (0, 1, -1)), box_support(3, 1)],
}


@pytest.mark.parametrize("supports", ROW_BOUND_SYSTEMS.values(), ids=ROW_BOUND_SYSTEMS.keys())
def test_the_row_bounds_hold_over_a_blown_up_box(supports):
    # at points c + d of a starting box blown up to radius w, |d|_inf <= w,
    # w twice the box's radius or the Krawczyk test's blow-up if larger:
    # |F_i(c + d) - F_i(c)| <= lip_i w, the first-order Taylor remainder of
    # F_i is at most hess_i w^2 / 2 and the second-order one at most
    # third_i w^3 / 6, and row i of the Jacobian moves by at most hess_i w
    # and at most sum_jk |H_i,jk(c)| w + third_i w^2 / 2 in sum.  F, J and
    # H are evaluated here term by term, and the Hessian sums of
    # `_product_jet`'s curvature are theirs.
    n = len(supports)
    freqs, coeffs = random_systems(supports, 8, seed=7 * n + len(supports[0]))
    lip, hess, _, _, third, _ = montecarlo._row_bounds(freqs, coeffs).transpose(1, 0, 2)
    side = montecarlo._BOX_BASE * int(max(np.abs(f).max() for f in freqs))
    w = max(2.0, montecarlo._BOX_INFLATE) * 0.5 / side
    rng = np.random.default_rng(18)
    centers = rng.random((512, n))
    # box corners, where |<lam, d>| = |lam|_1 w for some sign pattern, and inner points
    d = w * np.vstack([rng.choice([-1.0, 1.0], (512, n)), rng.uniform(-1, 1, (512, n))])
    centers = np.vstack([centers, centers])
    half, _, curvature = montecarlo._product_jet(freqs, coeffs)
    products = montecarlo._exponentials(centers, half)
    curves = np.stack([curvature(products, np.full(len(centers), s)) for s in range(8)], axis=1)
    worst = np.zeros(5)
    for i, (f, c) in enumerate(zip(freqs, coeffs)):
        def jet(x):
            e = np.exp(2j * math.pi * x @ f.T)
            lam = 2j * math.pi * f
            return (
                (e @ c.T).real,
                np.einsum("pk,sk,kj->psj", e, c, lam).real,
                np.einsum("pk,sk,kj,kl->psjl", e, c, lam, lam).real,
            )

        val, grad, hessian = jet(centers)
        moved_val, moved_grad, _ = jet(centers + d)
        curve = np.abs(hessian).sum(axis=(2, 3))
        assert np.allclose(curves[:, :, i], curve, rtol=1e-9, atol=1e-12 * hess[:, i].max())
        move = np.abs(moved_val - val)
        linear = moved_val - val - np.einsum("psj,pj->ps", grad, d)
        quadratic = linear - np.einsum("psjl,pj,pl->ps", hessian, d, d) / 2
        row = np.abs(moved_grad - grad).sum(axis=2)
        for k, (got, bound) in enumerate(
            [
                (move, lip[:, i] * w),
                (np.abs(linear), hess[:, i] * w * w / 2),
                (np.abs(quadratic), third[:, i] * w**3 / 6),
                (row, hess[:, i] * w),
                (row, curve * w + third[:, i] * w * w / 2),
            ]
        ):
            worst[k] = max(worst[k], (got / bound).max())
    assert (worst <= 1 + 1e-9).all(), worst


def test_the_exclusion_keeps_a_box_within_its_three_rounding_allowances(monkeypatch):
    # F_1 = cos 2 pi (x - c_x) + kappa, sin 2 pi (y - c_y), sin 2 pi (z - c_z)
    # at the centre c of a starting box, where F_1's Jacobian row is 0: its
    # Taylor reach is n ed r + hess r^2 / 2, n ed r the rounding allowance
    # of the n entries of that row.  kappa puts |F_1(c)| - ef half an ed r
    # below the reach, so the box is kept and split; with the planar 2 ed
    # it is half an ed r above, and the box is dropped.  No count can show
    # this: ed is far above the rounding it covers.
    c = np.array([5.5, 9.5, 12.5]) / montecarlo._BOX_BASE
    r, n, rounding = 0.5 / montecarlo._BOX_BASE, 3, montecarlo._ROUNDING
    lip, hess = 2 * math.pi, (2 * math.pi) ** 2
    ed = rounding * lip
    reach = min(lip * r, n * ed * r + hess / 2 * r * r)
    # F_1(c) = 1 + kappa = reach + ef - ed r / 2, ef = rounding (1 + |kappa|), kappa < 0
    value = (reach + 2 * rounding - ed * r / 2) / (1 + rounding)
    e = [np.exp(-2j * math.pi * t) for t in c]
    first = axis_equation(0, [(1, e[0] / 2), (-1, e[0].conjugate() / 2), (0, value - 1)])
    rest = [axis_equation(a, [(1, -0.5j * e[a]), (-1, 0.5j * e[a].conjugate())]) for a in (1, 2)]
    freqs, coeffs = zip(first, *rest)
    split = split_boxes(monkeypatch)
    assert montecarlo._certified_counts(list(freqs), list(coeffs)) == [8]
    assert tuple(c) in split.get(r / 2, [])


def test_the_second_order_exclusion_keeps_a_box_within_its_hessian_allowance(monkeypatch):
    # F_1 = sin theta - sin 3 theta / 3 + kappa = (4/3) sin^3 theta + kappa,
    # theta = 2 pi (x - c_x), sin 2 pi (y - c_y), sin 2 pi (z - c_z) at the
    # centre c of a starting box (48 per side: frequency 3), where F_1's
    # Jacobian row and Hessian are 0.  Its second-order reach is n ed r +
    # n^2 eh r^2 / 2 + third r^3 / 6, third = 10 (2 pi)^3, far inside the
    # first-order one (hess r^2 / 2, hess = 4 (2 pi)^2).  kappa puts |F_1(c)|
    # - ef half the Hessian allowance n^2 eh r^2 / 2 below that reach, so
    # the box is kept and split; without the allowance it is half of it
    # above, and without the third-order term far above, and the box is
    # dropped.  F_1's zeros sit just outside the box, so no count shows this.
    side, n, rounding = 3 * montecarlo._BOX_BASE, 3, montecarlo._ROUNDING
    c = np.array([5.5, 9.5, 20.5]) / side
    r = 0.5 / side
    ed, eh = rounding * 4 * math.pi, rounding * 4 * (2 * math.pi) ** 2
    allowance = n * n * eh * r * r / 2
    reach = n * ed * r + allowance + 10 * (2 * math.pi) ** 3 * r**3 / 6
    # kappa = reach + ef - allowance / 2, ef = rounding (4/3 + kappa)
    kappa = (reach + rounding * 4 / 3 - allowance / 2) / (1 - rounding)
    e = [np.exp(-2j * math.pi * t) for t in c]
    first = axis_equation(
        0,
        [(1, -0.5j * e[0]), (-1, 0.5j * e[0].conjugate()),
         (3, 0.5j / 3 * e[0] ** 3), (-3, -0.5j / 3 * (e[0] ** 3).conjugate()), (0, kappa)],
    )
    rest = [axis_equation(a, [(1, -0.5j * e[a]), (-1, 0.5j * e[a].conjugate())]) for a in (1, 2)]
    freqs, coeffs = zip(first, *rest)
    split = split_boxes(monkeypatch)
    assert montecarlo._certified_counts(list(freqs), list(coeffs)) == [8]
    assert tuple(c) in split.get(r / 2, [])


def test_the_krawczyk_radius_bounds_the_jacobian_over_the_whole_box_in_three_dimensions(monkeypatch):
    # F_a = sin theta_a (1 + eps sin^2 theta_a), theta_a = 2 pi (x_a - t_a),
    # = A sin theta_a - B sin 3 theta_a, A = 1 + 3 eps / 4, B = eps / 4,
    # vanishes only at x_a = t_a and t_a + 1/2, with J = +-2 pi I there.
    # Frequency 3 makes the starting grid 48 boxes per side, and the eight
    # zeros sit at the centres of level-1 boxes, r / 2 off the centres of
    # their starting boxes of radius r, which the Krawczyk test blows up to
    # w = _BOX_INFLATE r.  Row a of the Jacobian moves over the blown-up box
    # by at most |F_a''(c)| w + third w^2 / 2, third = (2 pi)^3 (A + 27 B),
    # so the sound Krawczyk spread is that over |F_a'(c)|: 0.608 at level
    # 0, where the Newton step is 0.428 w, and 0.095 at level 1, where it is
    # 0.  So each zero's starting box is split (0.608 + 0.428 > 1) and its
    # level-1 child certified.  At this eps the exclusion bounds keep the
    # seven other starting boxes at the grid corner nearest each zero, which
    # Krawczyk cannot decide either, so the starting boxes split are exactly
    # those 2 x 2 x 2 blocks.  Without the third-order term the starting
    # box would be certified (0.250 + 0.428), and a spread below 0.941 of
    # the sound one certifies it too; the bound hess w, hess = (2 pi)^2 (A +
    # 9 B), alone (2.08 at level 1) splits the child as well.
    eps, side = 18.5, 3 * montecarlo._BOX_BASE
    t = np.array([5.5, 9.5, 20.5]) / (2 * side)
    r = 0.5 / side
    amp, wide, theta = 1 + 3 * eps / 4, montecarlo._BOX_INFLATE * r, math.pi * r
    third = (2 * math.pi) ** 3 * (amp + 27 * eps / 4)
    hess = (2 * math.pi) ** 2 * (amp + 9 * eps / 4)
    slope = 2 * math.pi * (amp * math.cos(theta) - 3 * eps / 4 * math.cos(3 * theta))
    curve = (2 * math.pi) ** 2 * abs(amp * math.sin(theta) - 9 * eps / 4 * math.sin(3 * theta))
    step = (amp * math.sin(theta) - eps / 4 * math.sin(3 * theta)) / slope
    spread = (curve * wide + third * wide**2 / 2) / slope
    assert spread == pytest.approx(0.608, abs=1e-3)
    assert step / wide == pytest.approx(0.428, abs=1e-3)
    assert curve * wide / slope == pytest.approx(0.250, abs=1e-3)
    assert (1 - step / wide) / spread == pytest.approx(0.941, abs=1e-3)
    assert third * (wide / 2) ** 2 / 2 / (2 * math.pi) == pytest.approx(0.095, abs=1e-3)
    assert hess * (wide / 2) / (2 * math.pi) == pytest.approx(2.08, abs=1e-2)
    equations = []
    for a, shift in enumerate(t):
        e = np.exp(-2j * math.pi * shift)
        terms = [(1, -0.5j * amp * e), (-1, 0.5j * amp * e.conjugate()),
                 (3, 0.5j * eps / 4 * e**3), (-3, -0.5j * eps / 4 * (e**3).conjugate())]
        equations.append(axis_equation(a, terms))
    freqs, coeffs = zip(*equations)
    split = split_boxes(monkeypatch)
    assert montecarlo._certified_counts(list(freqs), list(coeffs)) == [8]

    def cells(points):
        # centres on the lattice of level-1 centres, r / 2 apart: 1/48 is not dyadic
        return {tuple(int(i) for i in np.round(np.array(p) * 2 / r)) for p in points}

    zeros = list(itertools.product(*((s, (s + 0.5) % 1) for s in t)))
    parents = [(np.floor(np.array(z) * side) + 0.5) / side for z in zeros]
    corners = [np.round(np.array(z) * side) / side for z in zeros]
    blocks = [c + np.array(o) * r for c in corners for o in itertools.product((-1, 1), repeat=3)]
    assert len(cells(parents)) == 8 and cells(parents) <= cells(blocks)
    assert len(cells(blocks)) == 64 and cells(blocks) == cells(split.get(r / 2, []))
    assert not cells(zeros) & cells(split.get(r / 4, []))


def test_three_torus_box_counts_match_the_kac_rice_mean():
    support = box_support(3, 1)
    counts = montecarlo._certified_counts(*random_systems([support] * 3, 64, seed=5))
    kept = np.array([c for c in counts if c is not None])
    assert len(kept) >= 60
    assert (kept % 2 == 0).all() and kept.max() <= complex_count_torus(support) == 48
    z = (kept.mean() - mean_real_count_torus(support).value) / (kept.std(ddof=1) / math.sqrt(len(kept)))
    assert abs(z) <= 3


def test_three_torus_box_2_samples_all_certify_one_block_each():
    # box:3:2 starts from 32^3 boxes, all of _BLOCK_CELLS, so each sample
    # is a block of its own, its grid made _BOX_CHUNK boxes at a time;
    # bounded by the box's own Hessian, 16 of 16 samples certify near a
    # 13 MB traced peak (106 MB with the grid's products held for a block
    # of 16, and with hess alone every sample held over 4096 boxes)
    support = box_support(3, 2)
    systems = random_systems([support] * 3, 16, seed=3)
    counts: list[int | None] = []
    peak = traced_peak(lambda: counts.extend(montecarlo._certified_counts(*systems)))
    kept = np.array([c for c in counts if c is not None])
    assert len(kept) == 16 and peak < 25e6
    assert (kept % 2 == 0).all() and kept.max() <= complex_count_torus(support) == 384
    z = (kept.mean() - mean_real_count_torus(support).value) / (kept.std(ddof=1) / math.sqrt(len(kept)))
    assert abs(z) <= 3


def test_three_torus_krawczyk_step_runs_in_chunks():
    # box:3:1 starts from 16^3 boxes, so 64 samples run as 8 blocks of 8;
    # with the grid, the children and the Krawczyk tests taken _BOX_CHUNK
    # boxes at a time they peak near 7 MB (14 MB all at once)
    systems = random_systems([box_support(3, 1)] * 3, 64, seed=5)
    assert montecarlo._block_samples(systems[0]) == (16, 8)
    assert traced_peak(lambda: montecarlo._certified_counts(*systems)) < 10e6


def test_hopf_exponential_sums_give_unit_quaternions():
    freqs, table = hopf_exponential_sums()
    t = np.random.default_rng(14).random((50, 3))
    q = (np.exp(2j * math.pi * t @ freqs.T) @ table.T).real
    assert np.allclose(q, hopf_quaternion(t), atol=1e-14)
    assert np.allclose(np.linalg.norm(q, axis=1), 1.0)


def test_spin_half_systems_have_eight_zeros_on_the_hopf_torus():
    # f_i = A_i . q on SU(2) = S^3 vanishes at the two unit vectors of ker A,
    # and each has four Hopf preimages on [0,1)^3
    freqs, table = hopf_exponential_sums()
    a = np.random.default_rng(15).standard_normal((64, 3, 4))
    counts = montecarlo._certified_counts([freqs] * 3, list(np.einsum("sik,kj->isj", a, table)))
    assert sum(c is not None for c in counts) >= 60
    assert {c for c in counts if c is not None} == {8}


def test_su2_adjoint_root_counts_match_the_group_kac_rice_mean():
    # f_i = tr(A_i R(q)), A_i standard Gaussian 3 x 3, is the invariant
    # adjoint ensemble of SU(2); its zeros come in pairs +-q, and each has
    # four Hopf preimages on [0,1)^3.  The first root-counting check of a
    # group real count: 32 sqrt(6) / 9 = 8.709 (31 of 32 samples kept)
    q1, q2 = (q / np.linalg.norm(q) for q in np.random.default_rng(3).standard_normal((2, 4)))
    assert np.allclose(quaternion_rotation(quat_mul(q1, q2)), quaternion_rotation(q1) @ quaternion_rotation(q2))
    a = np.random.default_rng(1).standard_normal((32, 3, 3, 3))
    freqs, coeffs = adjoint_hopf_systems(a)
    assert np.abs(freqs).max() == 2
    t = np.random.default_rng(2).random((20, 3))
    direct = np.einsum("sab,pba->sp", a[:, 0], quaternion_rotation(hopf_quaternion(t)))
    assert np.allclose(coeffs[0] @ np.exp(2j * math.pi * freqs @ t.T), direct, atol=1e-13)
    counts = montecarlo._certified_counts([freqs] * 3, list(coeffs))
    kept = np.array([c for c in counts if c is not None])
    assert len(kept) >= 28 and (kept % 8 == 0).all()
    zeros = kept / 4
    assert zeros.max() <= complex_count_reductive(RepEnsemble.single(A1, (2,))) == 16
    want = mean_real_count_group(RepEnsemble.single(A1, (2,)))
    assert want == pytest.approx(32 * math.sqrt(6) / 9, rel=1e-14)
    assert abs(zeros.mean() - want) <= 4 * zeros.std(ddof=1) / math.sqrt(len(zeros))


def test_spin_2_systems_keep_every_sample():
    # f_i = Re tr(A_i pi_4(q)), A_i complex Gaussian 5 x 5, is the invariant
    # ensemble of the spin-2 representation of SU(2); pi_4(-q) = pi_4(q), so
    # its zeros come in pairs +-q, each with four Hopf preimages on [0,1)^3.
    # Frequency 4 makes a 64^3 starting grid, 8 times _BLOCK_CELLS, so each
    # sample is a block of its own, its grid made _BOX_CHUNK boxes at a time
    # (a block of 8 holding the grid's 262144 x 46 products peaked at 392
    # MB), and all 8 are kept (a cap of 4096 undecided boxes kept 3, those
    # with the fewest zeros)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 3, 5, 5)) + 1j * rng.standard_normal((8, 3, 5, 5))
    freqs, coeffs = spin_hopf_systems(4, a)
    assert len(freqs) == 46 and np.abs(freqs).max() == 4
    t = np.random.default_rng(2).random((20, 3))
    mats = np.array([su2_irrep_matrix(4, su2_from_quaternion(q)) for q in hopf_quaternion(t)])
    direct = np.einsum("sab,pba->sp", a[:, 0], mats).real
    assert np.allclose((coeffs[0] @ np.exp(2j * math.pi * freqs @ t.T)).real, direct, atol=1e-12)
    counts: list[int | None] = []
    peak = traced_peak(lambda: counts.extend(montecarlo._certified_counts([freqs] * 3, list(coeffs))))
    assert None not in counts and peak < 40e6
    group = RepEnsemble.single(A1, (4,))
    kept = np.array(counts)
    assert (kept % 8 == 0).all() and kept.max() <= 4 * complex_count_reductive(group) == 4 * 128
    zeros = kept / 4
    want = mean_real_count_group(group)
    assert want == pytest.approx(45.2548, abs=1e-4)
    assert abs(zeros.mean() - want) <= 4 * zeros.std(ddof=1) / math.sqrt(len(zeros))


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_torus_counter_memory_does_not_grow_with_samples():
    # box:2:2 starts from 32 x 32 boxes: 32 samples to a block
    support, block = box_support(2, 2), montecarlo._BLOCK_CELLS // 32**2
    one = traced_peak(lambda: count_common_zeros_torus2(support, block, seed=1))
    ten = traced_peak(lambda: count_common_zeros_torus2(support, 10 * block, seed=1))
    assert ten <= 1.5 * one
    # boxes are made and tested _BOX_CHUNK at a time, the grid's for every
    # sample at once, and only survivors keep their exponential products:
    # the whole block stays near 7 MB
    assert one < 20e6


def test_numpy_only_runtime():
    # scipy is a test dependency: neither the package nor a Monte Carlo CLI run imports it
    code = (
        "import sys\n"
        "import realroots\n"
        "from realroots.cli import main\n"
        "assert main(['torus', '--support', 'box:2:1', '--samples', '4', '--seed', '1']) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    src = str(Path(realroots.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# -- gaussian determinant volumes --------------------------------------------------------

def test_gaussian_volume_one_dimensional_normalization():
    # with the one row integrated out, a segment's length is exact
    for q in (1.0, 2.5):
        stats = gaussian_mixed_volume([np.array([[q]])], samples=200_000, seed=1)
        assert stats.value == pytest.approx(2 * math.sqrt(q), rel=1e-15)
        assert stats.stderr == 0.0


def test_gaussian_volume_disc_pair():
    # with both rows integrated out, a planar mixed area is exact
    stats = gaussian_mixed_volume([np.eye(2), np.eye(2)], samples=300_000, seed=2)
    assert stats.value == pytest.approx(math.pi, rel=1e-15)
    # from no draws
    assert (stats.stderr, stats.samples) == (0.0, 0)


def test_gaussian_volume_reproducible():
    a = gaussian_mixed_volume([np.eye(2), 2 * np.eye(2)], samples=50_000, seed=3)
    b = gaussian_mixed_volume([np.eye(2), 2 * np.eye(2)], samples=50_000, seed=3)
    assert a.value == b.value and a.stderr == b.stderr


def _spd(n: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a @ a.T + 0.1 * np.eye(n)


GAUSSIAN_BODIES = {
    "line": [np.array([[2.5]])],
    "two-discs": [np.eye(2), np.eye(2)],
    "two-ellipses": [_spd(2, 1), _spd(2, 2)],
    # the flat bodies run with a RuntimeWarning an error (pyproject.toml)
    "point-and-disc": [np.zeros((2, 2)), np.eye(2)],
    "segment-last": [_spd(2, 9), np.diag([1.0, 0.0])],
    "three-balls": [np.eye(3)] * 3,
    "flat-and-two": [np.diag([1.0, 2.0, 0.0]), _spd(3, 3), _spd(3, 4)],
    "coordinate-discs": [np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 1.0, 1.0]), np.diag([1.0, 0.0, 1.0])],
    "point-first": [np.zeros((3, 3)), _spd(3, 10), _spd(3, 11)],
    "four-mixed": [_spd(4, 5), _spd(4, 6), np.eye(4), _spd(4, 7)],
    "four-equal": [_spd(4, 8)] * 4,
    # from n = 4 on the first rows are Gram-Schmidt unit vectors; a zero
    # residual among them makes every determinant 0
    "point-second": [_spd(4, 12), np.zeros((4, 4)), _spd(4, 13), _spd(4, 14)],
    "five-mixed": [_spd(5, 15), np.diag([1.0, 1.0, 0.0, 0.0, 1.0]), _spd(5, 16), _spd(5, 17), np.eye(5)],
    "six-mixed": [_spd(6, seed) for seed in range(18, 24)],
}


@pytest.mark.parametrize(("samples", "drawn"), [(2, 2), (16385, 16416), (100_003, 100_032)])
@pytest.mark.parametrize("bodies", GAUSSIAN_BODIES.values(), ids=GAUSSIAN_BODIES.keys())
def test_gaussian_volume_matches_the_lapack_determinant_oracle(bodies, samples, drawn):
    # same draws, in the same order across block boundaries: only the
    # determinant's rounding differs
    got = gaussian_mixed_volume(bodies, samples=samples, seed=samples + len(bodies))
    want = gaussian_oracle.gaussian_mixed_volume(bodies, samples=samples, seed=samples + len(bodies))
    # min(32, samples) shifts of ceil(samples / shifts) points; in the
    # plane and on the line nothing is drawn
    assert got.samples == (drawn if len(bodies) >= 3 else 0) and want.samples == drawn
    assert got.value == pytest.approx(want.value, rel=1e-12)
    assert got.stderr == pytest.approx(want.stderr, rel=1e-12)


@pytest.mark.parametrize("bodies", GAUSSIAN_BODIES.values(), ids=GAUSSIAN_BODIES.keys())
def test_gaussian_volume_agrees_with_the_full_draw_estimator(bodies):
    # averaging |det G| over all n^2 draws has the same mean and a larger
    # variance than integrating the last two rows out
    samples, n = 100_003, len(bodies)
    got = gaussian_mixed_volume(bodies, samples=samples, seed=samples + n)
    full = gaussian_oracle.full_draw_gaussian_mixed_volume(bodies, samples=samples, seed=samples + n)
    assert abs(got.value - full.value) <= 4 * math.hypot(got.stderr, full.stderr)
    if n >= 2 and full.value > 0:
        assert got.stderr < full.stderr


@pytest.mark.parametrize(
    "bodies",
    [b for b in GAUSSIAN_BODIES.values() if len(b) >= 3],
    ids=[k for k, b in GAUSSIAN_BODIES.items() if len(b) >= 3],
)
def test_gaussian_volume_has_a_smaller_error_than_the_one_row_estimator(bodies):
    # same mean; integrating the second-to-last row out as well shrinks the
    # variance (Rao-Blackwell), and both are 0 when every determinant is.
    # Both take shifted Sobol points, so the QMC gain cancels out
    samples, n = 100_003, len(bodies)
    got = gaussian_mixed_volume(bodies, samples=samples, seed=samples + n)
    one_row = gaussian_oracle.one_row_gaussian_mixed_volume(bodies, samples=samples, seed=samples + n)
    assert abs(got.value - one_row.value) <= 4 * math.hypot(got.stderr, one_row.stderr)
    if one_row.value > 0:
        assert got.stderr < one_row.stderr
    else:
        assert got.value == got.stderr == 0.0


def test_gaussian_volume_memory_does_not_grow_with_samples():
    # each block of rows is reduced to one sum per shift, so ten times the
    # samples peak where one block does (one double per sample kept to the
    # end added 1.2 MB at n = 3)
    bodies, block = GAUSSIAN_BODIES["flat-and-two"], montecarlo._DET_BLOCK
    one = traced_peak(lambda: gaussian_mixed_volume(bodies, samples=block, seed=1))
    ten = traced_peak(lambda: gaussian_mixed_volume(bodies, samples=10 * block, seed=1))
    assert ten <= 1.1 * one


def test_sobol_bits_match_scipy_for_every_tabulated_dimension():
    # P = 2^10 points of the unscrambled sequence, in scipy's Gray-code order
    from scipy.stats import qmc

    for dims in range(1, 49):
        got = montecarlo._sobol_bits(0, 1024, dims) * 2.0**-52
        assert np.array_equal(got, qmc.Sobol(dims, scramble=False).random(1024)), dims
    # any index range, at 52 bits
    want = qmc.Sobol(48, scramble=False, bits=52).random(4096)
    for lo, hi in [(0, 4096), (1000, 3001), (7, 8)]:
        assert np.array_equal(montecarlo._sobol_bits(lo, hi, 48) * 2.0**-52, want[lo:hi])


# the grid's ends, both sides of the |u - 1/2| = 0.425 branch edges and of
# the r = 5 tail switch, the centre, and uniforms far below the grid
QUANTILE_EDGES = np.array([
    2.0**-53, 1 - 2.0**-53, 0.5, 1e-300, 2.0**-1074,
    *(np.nextafter(x, to) for x in (0.075, 0.925, math.exp(-25.0), 1 - math.exp(-25.0)) for to in (0, x, 1)),
])


def test_normal_quantile_matches_ndtri_at_the_branch_edges():
    from scipy.special import ndtri

    got, want = montecarlo._normal_quantile(QUANTILE_EDGES.copy()), ndtri(QUANTILE_EDGES)
    assert got[2] == want[2] == 0.0
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


# (u, its normal quantile): to 400 digits by mpmath's erfinv, checked by
# root-finding on log ncdf, rounded to double; the branch edges, the tails
# down to 2^-1074 and u = 0.137-0.139, where ndtri is off by up to 8e-16
EXACT_QUANTILES = np.array([
    (1.1102230246251565e-16, -8.209536151601387), (0.9999999999999999, 8.209536151601387),
    (5e-324, -38.467405617144344), (1e-300, -37.0470962993612),
    (0.4999999999999999, -2.782916424671767e-16),
    (0.07499999999999998, -1.4395314709384561), (0.07500000000000001, -1.439531470938456),
    (0.9249999999999999, 1.4395314709384555), (0.9250000000000002, 1.439531470938457),
    (1.388794386496402e-11, -6.657904643501103), (1.3887943864964023e-11, -6.657904643501103),
    (0.999999999986112, 6.657904029578416), (0.9999999999861122, 6.657906380121875),
    (0.13728541342315104, -1.09259689446869), (0.13700436699223978, -1.0938774408964602),
    (0.13732859371821063, -1.0924003085878649), (0.1375199025132733, -1.0915298490780188),
    (0.13728503685017457, -1.092598609069063), (0.13755273578470129, -1.0913805400565293),
    (0.6475492624108986, 0.3787123583222475), (0.47516619390854387, -0.062289377199810515),
    (0.29402402440273123, -0.5416668232546912), (0.02622828451189509, -1.93936779561604),
    (0.05875749995351155, -1.5652896881643803), (0.004894185608684709, -2.5832170805621533),
    (0.0005093721246778834, -3.2852983781068095), (6.765967540869683e-09, -5.67920862418499),
    (1.7478845799509727e-11, -6.624012613168982), (2.400210541711069e-195, -29.793093095818698),
    (5.160726065209124e-126, -23.84920144138667), (5.59852342037153e-284, -35.991906324403935),
    (0.9974840822466818, 2.804988627774145), (0.9994415160608057, 3.2592764027138665),
    (0.9635051217986853, 1.792894741108893),
])


def test_normal_quantile_matches_the_exact_quantile():
    u, exact = EXACT_QUANTILES.T
    np.testing.assert_allclose(montecarlo._normal_quantile(u.copy()), exact, rtol=1e-15, atol=0)


def test_normal_quantile_matches_ndtri():
    # ndtri is itself off by up to 8e-16 (u = 0.137-0.139), so on 10^5
    # uniforms the two differ by up to 1.2e-15
    from scipy.special import ndtri

    rng = np.random.default_rng(20261022)
    u = np.concatenate([rng.random(100_000), np.exp(-rng.uniform(0, 700, 1000)), 1 - np.exp(-rng.uniform(0, 36, 1000))])
    np.testing.assert_allclose(montecarlo._normal_quantile(u.copy()), ndtri(u), rtol=1.5e-15, atol=0)


@pytest.mark.parametrize(("width", "shifts", "points"), [(3, 32, 1024), (0, 2, 1), (50, 3, 100), (63, 5, 37)])
def test_shifted_normals_do_not_depend_on_the_block(width, shifts, points):
    # past 48 coordinates the draws are uniform bits, drawn row after row
    def rows(block):
        parts = list(montecarlo._shifted_normals(width, shifts, points, 7, block))
        which = np.concatenate([np.repeat(w, len(z) // len(w)) for w, z in parts])
        return which, np.concatenate([z for _, z in parts])

    (which, normals), (again, same) = rows(16384), rows(7)
    assert np.array_equal(which, np.repeat(np.arange(shifts), points))
    assert np.array_equal(again, which) and np.array_equal(same, normals)
    assert normals.shape == (shifts * points, width) and np.isfinite(normals).all()


def test_gaussian_volume_scales_exactly_with_the_covariances():
    # each factor is scaled by a power of two and the volume back by their
    # product; only eigh rounds differently at 2^600 Q
    bodies = GAUSSIAN_BODIES["flat-and-two"]
    base = gaussian_mixed_volume(bodies, samples=2**15, seed=1)
    big = gaussian_mixed_volume([2.0**600 * q for q in bodies], samples=2**15, seed=1)
    assert big.value == pytest.approx(2.0**900 * base.value, rel=1e-12)
    assert big.stderr == pytest.approx(2.0**900 * base.stderr, rel=1e-12)
    # Q Q' overflowed here: value and stderr were NaN
    balls = gaussian_mixed_volume([1e200 * np.eye(3)] * 3, samples=2**15, seed=1)
    assert 0 < balls.stderr < 1e-3 * balls.value
    assert abs(balls.value - 4 / 3 * math.pi * 1e300) <= 5 * balls.stderr


@pytest.mark.parametrize("long", [1e4, 1e94])
def test_gaussian_volume_of_a_long_thin_ellipsoid(long):
    # the trace formulas lost the planar invariants to cancellation: at
    # Q = diag(1e8, 1, 1) the mean was 15% off, at diag(1e12, 1, 1) 22%
    q = np.diag([long * long, 1.0, 1.0])
    stats = gaussian_mixed_volume([q] * 3, samples=2**15, seed=1)
    assert abs(stats.value - 4 / 3 * math.pi * long) <= 5 * stats.stderr
    if long < 1e10:
        want = gaussian_oracle.gaussian_mixed_volume([q] * 3, samples=2**15, seed=1)
        assert stats.value == pytest.approx(want.value, rel=1e-12)


@pytest.mark.parametrize(
    "bodies",
    [
        [np.diag([1.0, -1.0]), np.eye(2)],
        [np.eye(2), np.diag([1.0, -1e-6])],
        [np.array([[1.0, np.nan], [np.nan, 1.0]]), np.eye(2)],
        [np.eye(2), np.diag([np.inf, 1.0])],
        [],
        [np.eye(2)],
    ],
    ids=["indefinite", "slightly-negative-last", "nan", "inf", "none", "too-few"],
)
def test_gaussian_volume_rejects_invalid_covariances(bodies):
    with pytest.raises(ValueError, match="not positive semidefinite|non-finite|covariance matrices"):
        gaussian_mixed_volume(bodies, samples=1000, seed=1)


def test_gaussian_volume_allows_rounding_below_zero():
    # an eigenvalue within 1e-12 max(1, tr Q) of 0 counts as 0, as for Ellipsoid
    flat = np.diag([1.0, -1e-13])
    stats = gaussian_mixed_volume([flat, np.eye(2)], samples=1000, seed=1)
    assert stats.value == gaussian_mixed_volume([np.diag([1.0, 0.0]), np.eye(2)], samples=1000, seed=1).value


# -- sample-count guards ------------------------------------------------------------------

@pytest.mark.parametrize("samples", [-1, 0, 1])
def test_counters_need_two_samples(samples):
    with pytest.raises(ValueError, match="at least 2 samples"):
        count_zeros_circle(segment_support(3), samples, seed=1)
    with pytest.raises(ValueError, match="at least 2 samples"):
        count_common_zeros_torus2(box_support(2, 1), samples, seed=1)
    with pytest.raises(ValueError, match="at least 2 samples"):
        gaussian_mixed_volume([np.eye(2), np.eye(2)], samples=samples, seed=1)


@pytest.mark.parametrize("samples", [2.5, 4.0, "4", True])
def test_counters_need_an_integer_sample_count(samples):
    with pytest.raises(ValueError, match="integer of at least 2 samples"):
        count_zeros_circle(segment_support(3), samples, seed=1)
    with pytest.raises(ValueError, match="integer of at least 2 samples"):
        count_common_zeros_torus2(box_support(2, 1), samples, seed=1)
    with pytest.raises(ValueError, match="integer of at least 2 samples"):
        gaussian_mixed_volume([np.eye(2), np.eye(2)], samples=samples, seed=1)
    with pytest.raises(ValueError, match="integer of at least 1 sample"):
        circle_zero_locations(segment_support(3), samples, seed=1)


SEEDED = {
    "count_zeros_circle": lambda seed: count_zeros_circle(segment_support(3), 4, seed),
    "circle_zero_locations": lambda seed: circle_zero_locations(segment_support(3), 4, seed),
    "count_common_zeros_torus2": lambda seed: count_common_zeros_torus2(box_support(2, 1), 4, seed),
    "gaussian_mixed_volume": lambda seed: gaussian_mixed_volume([np.eye(3)] * 3, samples=4, seed=seed),
}


@pytest.mark.parametrize("seed", [None, -1, 2.5, 3.0, "3", True])
@pytest.mark.parametrize("entry", list(SEEDED))
def test_counters_need_a_non_negative_integer_seed(entry, seed):
    # a seed of None drew from OS entropy: two count_zeros_circle(segment_support(3),
    # 50, None) read 4.28 and 3.80
    with pytest.raises(ValueError, match=re.escape(f"for the seed, got {seed!r}")):
        SEEDED[entry](seed)


def test_the_gaussian_estimator_has_no_default_seed():
    with pytest.raises(TypeError, match="seed"):
        gaussian_mixed_volume([np.eye(3)] * 3, samples=4)


@pytest.mark.parametrize("count", [1, 3])
def test_torus_counter_needs_two_supports(count):
    with pytest.raises(ValueError, match="two two-dimensional supports"):
        count_common_zeros_torus2([box_support(2, 1)] * count, 4, seed=1)


def test_two_samples_give_a_finite_standard_error():
    for stats in (
        count_zeros_circle(segment_support(3), 2, seed=1),
        count_common_zeros_torus2(box_support(2, 1), 2, seed=1),
        # two digital shifts of one point each
        gaussian_mixed_volume([np.eye(3)] * 3, samples=2, seed=1),
    ):
        assert stats.samples == 2
        assert math.isfinite(stats.value) and math.isfinite(stats.stderr)


def test_torus_counter_needs_two_kept_samples(monkeypatch):
    certified = montecarlo._certified_counts
    calls = []

    def discard_all_but_first(freqs, coeffs):
        counts = certified(freqs, coeffs)
        calls.extend([1] * len(counts))
        return counts[:1] + [None] * (len(counts) - 1)

    monkeypatch.setattr(montecarlo, "_certified_counts", discard_all_but_first)
    with pytest.raises(ArithmeticError, match="fewer than 2 kept"):
        count_common_zeros_torus2(box_support(2, 1), 3, seed=1)
    assert len(calls) == 3
