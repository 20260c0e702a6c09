"""Exact rational linear algebra against numpy float oracles and identities."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realroots.exactalg import (
    as_fraction,
    as_vec,
    bilinear,
    dot,
    mat_det,
    mat_inverse,
    mat_vec,
    nullspace_vector,
    rank,
    solve,
    vec_add,
    vec_scale,
    vec_sub,
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


def test_vector_arithmetic():
    a = as_vec([1, 2, 3])
    b = as_vec(["1/2", 0, -1])
    assert vec_add(a, b) == as_vec(["3/2", 2, 2])
    assert vec_sub(a, b) == as_vec(["1/2", 2, 4])
    assert vec_scale(a, Fraction(1, 3)) == as_vec(["1/3", "2/3", 1])
    assert dot(a, b) == Fraction(-5, 2)


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


@settings(max_examples=40, deadline=None)
@given(square_matrices(3), st.lists(rationals, min_size=3, max_size=3),
       st.lists(rationals, min_size=3, max_size=3))
def test_bilinear_matches_dot(rows, xv, yv):
    g = as_mat(rows)
    x, y = as_vec(xv), as_vec(yv)
    assert bilinear(g, x, y) == dot(x, mat_vec(g, y))


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
