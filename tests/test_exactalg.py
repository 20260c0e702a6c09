"""Exact rational linear algebra against numpy float oracles, the Fraction
elimination oracle and identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactalg_oracle as oracle
from exactalg_oracle import dot, mat_vec
from realroots.exactalg import (
    _gamma_sq,
    _quotient,
    _sqrt_pi_power,
    as_fraction,
    as_vec,
    integer_rows,
    mat_det,
    mat_inverse,
    nullspace_vector,
    rank,
    solve,
)

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)


def square_matrices(n: int):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    )


def to_np(m) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in m])


def as_mat(rows):
    return tuple(as_vec(r) for r in rows)


def mat_mul(a, b):
    cols = list(zip(*b, strict=True))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def test_as_fraction_accepts_common_inputs():
    assert as_fraction(3) == 3
    assert as_fraction("2/7") == Fraction(2, 7)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    assert as_fraction(0.25) == Fraction(1, 4)


@settings(max_examples=60, deadline=None)
@given(square_matrices(3))
def test_det_matches_numpy(rows):
    m = as_mat(rows)
    got = float(mat_det(m))
    want = float(np.linalg.det(to_np(m)))
    assert got == pytest.approx(want, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(square_matrices(3), st.lists(rationals, min_size=3, max_size=3))
def test_solve_and_inverse_round_trip(rows, rhs):
    m = as_mat(rows)
    if mat_det(m) == 0:
        with pytest.raises(ValueError):
            mat_inverse(m)
        return
    x = solve(m, as_vec(rhs))
    assert mat_vec(m, x) == as_vec(rhs)
    inv = mat_inverse(m)
    eye = as_mat([[1 if i == j else 0 for j in range(3)] for i in range(3)])
    assert mat_mul(m, inv) == eye


def test_solve_rectangular_consistent_system():
    # overdetermined but consistent: duplicate rows
    m = as_mat([[1, 2], [2, 4], [0, 1]])
    b = as_vec([5, 10, 2])
    x = solve(m, b)
    assert mat_vec(m, x) == b


def test_solve_rejects_inconsistent_system():
    m = as_mat([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        solve(m, as_vec([1, 0]))


def test_rank_and_nullspace():
    m = as_mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == 2
    v = nullspace_vector(m)
    assert any(c != 0 for c in v)
    assert all(dot(row, v) == 0 for row in m)


# -- int and mixed int/Fraction input stays exact --------------------------------

def test_det_of_int_matrix_is_exact():
    det = mat_det([[23, -16], [25, -15]])
    assert det == 55 and isinstance(det, Fraction)
    mixed = mat_det([[3, Fraction(1, 2)], [7, 2]])
    assert mixed == Fraction(5, 2) and isinstance(mixed, Fraction)


def test_rank_of_int_matrix_is_exact():
    # a float elimination leaves 7 - 3 * (7/3) = 8.9e-16, not 0, in row 2
    assert rank([[3, 7], [7, Fraction(49, 3)]]) == 1
    assert rank([[3, 7, 1], [7, 16, 2], [10, 23, 3]]) == 2


def test_solve_int_system_is_exact():
    x = solve([[3, 7], [2, 5]], [1, 1])
    assert x == (Fraction(-2), Fraction(1))
    assert all(isinstance(c, Fraction) for c in x)
    y = solve([[3, Fraction(1, 3)], [1, 2]], [1, 0])
    assert y == (Fraction(6, 17), Fraction(-3, 17))


def test_nullspace_of_int_matrix_is_exact():
    m = [[3, 7, 1], [5, 11, 2]]
    v = nullspace_vector(m)
    assert all(isinstance(c, Fraction) for c in v)
    assert all(sum(a * c for a, c in zip(row, v)) == 0 for row in m)
    assert v == (Fraction(-3, 2), Fraction(1, 2), Fraction(1))


# -- the fraction-free elimination against the Fraction oracle ----------------

@st.composite
def low_rank_systems(draw):
    """(m, b): an A B product of random integer factors, so low ranks occur,
    with rows divided and columns scaled by rationals for the rational kinds
    (which keeps the rank); the mixed kind keeps some integral entries as
    ints.  b is m x0 for a rational x0, or an arbitrary vector."""
    rows, cols, inner = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(0, 6))
    small = st.integers(-3, 3)
    a = draw(st.lists(st.lists(small, min_size=inner, max_size=inner), min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(small, min_size=cols, max_size=cols), min_size=inner, max_size=inner))
    m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    if not b:
        m = [[0] * cols for _ in range(rows)]
    kind = draw(st.sampled_from(["int", "rational", "mixed"]))
    if kind != "int":
        row_den = draw(st.lists(st.integers(1, 6), min_size=rows, max_size=rows))
        col_scale = draw(st.lists(st.fractions(Fraction(1, 5), 5, max_denominator=5),
                                  min_size=cols, max_size=cols))
        m = [[Fraction(x) * c / r for x, c in zip(row, col_scale)] for row, r in zip(m, row_den)]
        if kind == "mixed":
            keep = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
            m = [[int(x) if x.denominator == 1 and keep[i * cols + j] else x
                  for j, x in enumerate(row)] for i, row in enumerate(m)]
    if draw(st.booleans()):
        rhs = list(mat_vec(m, draw(st.lists(rationals, min_size=cols, max_size=cols))))
    else:
        rhs = draw(st.lists(rationals, min_size=rows, max_size=rows))
    return m, rhs


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as err:
        return ValueError, str(err)


@settings(max_examples=150, deadline=None)
@given(low_rank_systems())
def test_elimination_matches_fraction_oracle(system):
    m, b = system
    assert rank(m) == oracle.rank(m)
    assert outcome(solve, m, b) == outcome(oracle.solve, m, b)
    assert outcome(nullspace_vector, m) == outcome(oracle.nullspace_vector, m)
    if len(m) == len(m[0]):
        det = mat_det(m)
        assert det == oracle.mat_det(m) and isinstance(det, Fraction)
        assert outcome(mat_inverse, m) == outcome(oracle.mat_inverse, m)


def test_elimination_of_empty_matrix():
    assert mat_det([]) == 1 and rank([]) == 0


@pytest.mark.parametrize(
    "m",
    [[[1, 2]], [[2, 3, 5], [1, 1, 1]], [[1], [2]], [[1, 2], [3, 4], [5, 6]]],
    ids=["1x2", "2x3", "2x1", "3x2"],
)
def test_det_and_inverse_need_a_square_matrix(m):
    # a wide matrix read its leading square block, a tall one raised IndexError
    with pytest.raises(ValueError, match="not square"):
        mat_det(m)
    with pytest.raises(ValueError, match="not square"):
        mat_inverse(m)


@pytest.mark.parametrize("m", [[[1, 2], [3]], [[1], [2, 3]], [[1, 0, 0], [0, 1]]],
                         ids=["long-short", "short-long", "3-2"])
@pytest.mark.parametrize("fn", [rank, nullspace_vector])
def test_rank_and_null_space_reject_ragged_rows(fn, m):
    # a short row raised IndexError in the elimination; a short first row
    # set the width, so the longer rows were read in part
    with pytest.raises(ValueError, match="ragged"):
        fn(m)


@pytest.mark.parametrize("fn", [nullspace_vector])
def test_null_space_of_no_rows_is_a_value_error(fn):
    # a matrix without rows has no column count; it raised IndexError
    with pytest.raises(ValueError):
        fn([])


def test_integer_rows_scale_by_common_lcm():
    rows, s = integer_rows([[Fraction(1, 2), 3], [Fraction(-2, 3), Fraction(5, 4)]])
    assert s == 12 and rows == [[6, 36], [-8, 15]]
    assert all(type(x) is int for row in rows for x in row)
    assert integer_rows([[3, -7], [0, 2]]) == ([[3, -7], [0, 2]], 1)
    # a float counts as its binary value, a string as its decimal value
    assert integer_rows([[0.1]]) == ([[3602879701896397]], 2**55)
    assert integer_rows([["1/3", 0.5]]) == ([[2, 3]], 6)


# -- rationals times powers of pi, read as doubles -----------------------------------

def test_gamma_squares_at_half_integers():
    assert _gamma_sq(1) == (1, 1, 1)  # Gamma(1/2)^2 = pi
    assert _gamma_sq(8) == (36, 1, 0)  # Gamma(4) = 3!
    a, b, e = _gamma_sq(7)  # Gamma(7/2) = 15 sqrt(pi) / 8
    assert (Fraction(a, b), e) == (Fraction(225, 64), 1)
    for m in range(1, 40):
        a, b, e = _gamma_sq(m)
        assert a / b * math.pi**e == pytest.approx(math.gamma(m / 2) ** 2, rel=1e-13)


def test_quotients_of_rationals_times_powers_of_pi():
    a, b, e = _quotient([Fraction(3, 4), (5, 7, 2), 2], [(1, 3, 1), Fraction(9, 2)])
    assert (Fraction(a, b), e) == (Fraction(3 * 5 * 2 * 3 * 2, 4 * 7 * 9), 1)


def test_square_roots_of_rationals_outside_the_double_range():
    assert _sqrt_pi_power(10**600, 1) == pytest.approx(1e300, rel=1e-15)
    assert _sqrt_pi_power(1, 10**600) == pytest.approx(1e-300, rel=1e-15)
    assert _sqrt_pi_power(9, 10**600, 400) == pytest.approx(3e-300 * math.pi**200, rel=1e-13)
    assert _sqrt_pi_power(1, 1, 2) == math.pi
    with pytest.raises(OverflowError):
        _sqrt_pi_power(10**700, 1)
    with pytest.raises(ArithmeticError, match="underflows a double"):
        _sqrt_pi_power(1, 10**700)


def test_a_zero_square_reads_zero():
    # a trivial spectrum's mean and a point body's volume gather a = 0
    assert _sqrt_pi_power(0, 7, 3) == 0.0
    assert _sqrt_pi_power(0, 1) == 0.0
