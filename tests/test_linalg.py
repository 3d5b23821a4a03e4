"""Exact linear algebra primitives."""

from fractions import Fraction as F
from random import Random

import pytest
import sympy

from projstab import SingularMatrix
from projstab.linalg import (det_int_bareiss, det_mod_p, det_rational,
                             mat_inverse, mat_mul, nullspace, rank_mod_p,
                             rank_rational, rref)


def test_det_int_known_values():
    assert det_int_bareiss([[1, 2], [3, 4]]) == -2
    assert det_int_bareiss([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert det_int_bareiss([[1, 2], [2, 4]]) == 0
    assert det_int_bareiss([]) == 1


def test_det_needs_row_swap():
    assert det_int_bareiss([[0, 1], [1, 0]]) == -1
    assert det_int_bareiss([[0, 2, 1], [1, 0, 0], [0, 0, 1]]) == -2


def test_det_rational():
    m = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]
    assert det_rational(m) == F(1, 10) - F(1, 12)


def test_det_mod_p_matches_exact():
    rng = Random(23)
    for _ in range(30):
        size = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        exact = det_int_bareiss([row[:] for row in m])
        for p in (101, 1000003):
            assert det_mod_p(m, p) == exact % p


def test_rref_and_nullspace():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    reduced, pivots = rref(rows)
    assert pivots == [0]
    basis = nullspace(rows, 3)
    assert len(basis) == 2
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    # canonical: unit entry at the free column
    assert basis[0][1] == 1 and basis[1][2] == 1


def test_nullspace_of_empty_system_is_full_space():
    basis = nullspace([], 3)
    assert len(basis) == 3
    assert basis[0][0] == 1


def test_nullspace_random_soundness():
    rng = Random(29)
    for _ in range(20):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = [[F(rng.randint(-5, 5)) for _ in range(cols)] for _ in range(rows)]
        basis = nullspace(m, cols)
        _, pivots = rref(m)
        assert len(basis) == cols - len(pivots)
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_mat_inverse():
    m = [[F(2), F(1)], [F(1), F(1)]]
    inv = mat_inverse([row[:] for row in m])
    assert mat_mul(m, inv) == [[F(1), F(0)], [F(0), F(1)]]
    with pytest.raises(SingularMatrix):
        mat_inverse([[F(1), F(2)], [F(2), F(4)]])


def test_rank_matches_sympy():
    # Products of thin factors are rank deficient; zeroed columns make the
    # elimination skip pivot columns before later exact divisions.
    rng = Random(31)
    for _ in range(60):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        inner = rng.randint(0, min(rows, cols))
        a = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(inner)]
        m = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
             for i in range(rows)]
        for j in rng.sample(range(cols), rng.randint(0, cols - 1)):
            for row in m:
                row[j] = 0
        exact = rank_rational(m)
        assert exact == sympy.Matrix(m).rank()
        for p in (2, 3, 1000003):
            assert rank_mod_p(m, p) <= exact
    assert rank_rational([]) == 0
    assert rank_rational([[0, 1, 2], [0, 2, 4], [0, 3, 7]]) == 2
