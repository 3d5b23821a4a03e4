"""Exact linear algebra primitives."""

from fractions import Fraction as F
from random import Random

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from projstab import SingularMatrix
from projstab.linalg import (det_rational, mat_inverse, nullspace,
                             pivot_rows, rank_mod_p)
from helpers import check_pivot_rows_contract, mat_mul, sparse


def _det(m):
    return pivot_rows(sparse(m), len(m))[1]


def _sympy_nullspace(m, cols):
    """sympy's canonical basis: one vector per free column, unit there."""
    basis = sympy.Matrix(len(m), cols, [x for row in m for x in row]).nullspace()
    return [[F(int(x.p), int(x.q)) for x in v] for v in basis]


def _exact_rank(m, cols):
    """Rank over Q by sympy's DomainMatrix (Matrix.rank is far slower)."""
    return DomainMatrix([[sympy.QQ(x) for x in row] for row in m],
                        (len(m), cols), sympy.QQ).rank()


def _rank_deficient(rng, rows, cols):
    """A product of thin integer factors with some columns zeroed."""
    inner = rng.randint(0, min(rows, cols))
    a = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(rows)]
    b = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(inner)]
    m = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
         for i in range(rows)]
    for j in rng.sample(range(cols), rng.randint(0, cols - 1)):
        for row in m:
            row[j] = 0
    return m


def test_det_int_known_values():
    assert _det([[1, 2], [3, 4]]) == -2
    assert _det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert _det([[1, 2], [2, 4]]) == 0
    assert _det([]) == 1


def test_det_needs_row_swap():
    # The first row's pivot column is not the first column, so the block
    # is read on its pivot columns in ascending order.
    assert _det([[0, 1], [1, 0]]) == -1
    assert _det([[0, 2, 1], [1, 0, 0], [0, 0, 1]]) == -2


def test_det_rational():
    m = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]
    assert det_rational(m) == F(1, 10) - F(1, 12)


def test_rref_and_nullspace():
    # The canonical basis is the one read off the reduced row echelon form,
    # which is what sympy's nullspace returns; the kernel reads integer
    # dict rows.
    rows = [[1, 2, 3], [2, 4, 6]]
    basis = nullspace(sparse(rows), 3)
    assert basis == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]
    assert basis == _sympy_nullspace(rows, 3)
    # A pivot column after a free one, and a pivot row that back-substitution
    # has to clear: x0 + x1 + x3 = 0, x2 + 2 x3 = 0.
    rows = [[1, 1, 1, 3], [0, 0, 1, 2]]
    assert nullspace(sparse(rows), 4) == [[F(-1), F(1), F(0), F(0)],
                                          [F(-1), F(0), F(-2), F(1)]]
    assert nullspace(sparse(rows), 4) == _sympy_nullspace(rows, 4)


def test_nullspace_of_empty_system_is_full_space():
    basis = nullspace([], 3)
    assert basis == [[F(1), F(0), F(0)], [F(0), F(1), F(0)],
                     [F(0), F(0), F(1)]]
    assert nullspace([], 0) == []
    assert nullspace(sparse([[0, 0], [0, 0]]), 2) == [[F(1), F(0)],
                                                       [F(0), F(1)]]


def test_nullspace_random_soundness():
    # Rank-deficient products with zeroed columns, as integer dict rows;
    # the basis must be sympy's entry for entry, every vector must solve m,
    # and the rows must come back unchanged.
    rng = Random(29)
    for _ in range(80):
        rows, cols = rng.randint(1, 9), rng.randint(1, 7)
        m = _rank_deficient(rng, rows, cols)
        dict_rows = sparse(m)
        basis = nullspace(dict_rows, cols)
        assert dict_rows == sparse(m)
        assert basis == _sympy_nullspace(m, cols)
        assert len(basis) == cols - sympy.Matrix(m).rank()
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_mat_inverse():
    m = [[F(2), F(1)], [F(1), F(1)]]
    inv = mat_inverse([row[:] for row in m])
    assert mat_mul(m, inv) == [[F(1), F(0)], [F(0), F(1)]]
    with pytest.raises(SingularMatrix):
        mat_inverse([[F(1), F(2)], [F(2), F(4)]])
    assert mat_inverse([]) == []


def test_mat_inverse_random_rational_matches_sympy():
    # Rational rows with a different denominator on each entry; invertible
    # ones must give sympy's inverse entry for entry, and singular ones
    # (rank-deficient products scaled row by row, zeroed columns included)
    # must raise SingularMatrix.
    rng = Random(31)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = [[F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(n)]
             for _ in range(n)]
        expected = sympy.Matrix(m)
        if expected.det() == 0:
            continue
        expected = expected.inv()
        assert mat_inverse([row[:] for row in m]) == [
            [F(int(expected[i, j].p), int(expected[i, j].q))
             for j in range(n)] for i in range(n)]
    for _ in range(60):
        n = rng.randint(1, 6)
        m = _rank_deficient(rng, n, n)
        if sympy.Matrix(m).rank() == n:
            continue
        scaled = [[F(x, d) for x in row]
                  for row, d in zip(m, (rng.randint(1, 6) for _ in m))]
        with pytest.raises(SingularMatrix):
            mat_inverse(scaled)


def test_rank_matches_sympy():
    # Products of thin factors are rank deficient; zeroed columns make the
    # elimination pass over pivotless columns before later exact divisions.
    # The chosen rows are the greedy ones: each row that raises the rank of
    # the rows chosen before it, until `need` are found.
    rng = Random(31)
    for _ in range(60):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        m = _rank_deficient(rng, rows, cols)
        rank = sympy.Matrix(m).rank()
        for p in (2, 3, 1000003):
            assert rank_mod_p(sparse(m), cols, p) <= rank
        for need in range(min(rows, cols) + 1):
            chosen, det = pivot_rows(sparse(m), need)
            assert (det != 0) == (rank >= need)
            if det == 0:
                continue
            greedy = []
            for r in range(rows):
                if (len(greedy) < need and sympy.Matrix(
                        [m[i] for i in greedy + [r]]).rank() > len(greedy)):
                    greedy.append(r)
            assert chosen == greedy
            if need == cols:
                assert det == sympy.Matrix([m[i] for i in chosen]).det()
    assert pivot_rows([], 0) == ([], 1)
    m = sparse([[0, 1, 2], [0, 2, 4], [0, 3, 7]])
    assert pivot_rows(m, 2) == ([0, 2], 1)
    assert pivot_rows(m, 3)[1] == 0


@st.composite
def _integer_matrices(draw):
    """Integer matrices up to 40 x 30, sparse to dense.

    Entries are drawn directly, or as a product of a rows x inner and an
    inner x cols factor (rank at most inner); each entry is nonzero with
    the drawn density.  Then some rows are copied over others and some
    columns are zeroed.
    """
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(1, 30))
    density = draw(st.sampled_from((0.05, 0.15, 0.4, 1.0)))
    inner = draw(st.none() | st.integers(0, min(rows, cols)))
    rng = Random(draw(st.integers(0, 2 ** 32 - 1)))

    def factor(height, width):
        return [[rng.randint(-3, 3) if rng.random() < density else 0
                 for _ in range(width)] for _ in range(height)]

    if inner is None:
        m = factor(rows, cols)
    else:
        a, b = factor(rows, inner), factor(inner, cols)
        m = [[sum(a[i][k] * b[k][j] for k in range(inner))
              for j in range(cols)] for i in range(rows)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        m[rng.randrange(rows)] = list(m[rng.randrange(rows)])
    for j in rng.sample(range(cols), draw(st.integers(0, cols - 1))):
        for row in m:
            row[j] = 0
    return m


@settings(max_examples=200)
@given(_integer_matrices(), st.integers(0, 32),
       st.randoms(use_true_random=False))
def test_pivot_rows_matches_dense_reference(m, drawn, rng):
    # `need` below, at and above the exact rank, at the column count and
    # drawn.  Once rows[:need] have left pivots missing, the reduced
    # system's pivot rule picks among the leftover rows, so only the
    # contract in check_pivot_rows_contract ties the kernel to the dense
    # reference.
    # The same block with its columns relabelled by a random strictly
    # increasing map, as _koszul_determinant keys a level by its live
    # columns, gives the same rows and determinant.
    cols = len(m[0]) if m else 0
    rank = _exact_rank(m, cols)
    rows = sparse(m)
    labels = sorted(rng.sample(range(4 * cols), cols))
    relabelled = [{labels[c]: x for c, x in row.items()} for row in rows]
    for need in {0, max(rank - 1, 0), rank, rank + 1, cols, drawn}:
        out = pivot_rows(rows, need)
        check_pivot_rows_contract(rows, need, out, range(cols))
        assert pivot_rows(relabelled, need) == out
        check_pivot_rows_contract(relabelled, need, out, labels)


def _check_completion(m, need):
    """The kernel contract, and the determinant against sympy's."""
    rows = sparse(m)
    out = pivot_rows(rows, need)
    check_pivot_rows_contract(rows, need, out, range(len(m[0])))
    chosen, det = out
    if det:
        assert det == sympy.Matrix([m[i] for i in chosen]).det()
    return out


def test_completion_of_a_deficient_block():
    # Rows 0-4 have rank 4, so the completion finds the fifth pivot among
    # rows 5 and 6.  The elimination of rows 0-4 fills in a column that
    # neither leftover row touches; a completion that took its free
    # columns from the leftover rows alone would miss it and report 0.
    m = [[-1, 0, 0, 1, 2], [1, 0, 0, -1, -1], [1, 0, 1, 0, -1],
         [-2, 2, -4, 0, 4], [-2, 0, -2, 0, 1], [1, 1, -1, 0, 2],
         [1, 0, 0, 0, -1]]
    assert _check_completion(m, 5) == ([0, 1, 2, 3, 5], -2)
    # rows[:need] all zero: every pivot comes from the completion.
    m = [[0, 0, 0], [0, 0, 0], [0, 0, 0], [1, 2, 0], [2, 4, 0], [0, 1, 3],
         [1, 0, 1]]
    chosen, det = _check_completion(m, 3)
    assert det and chosen[0] >= 3
    # Rows 0-3 have rank 2 and leave columns 2 and 3 free.  The first
    # three leftover rows give proportional rows of the reduced system, so
    # its own first rows are dependent and its second pivot comes from the
    # last row.
    m = [[1, 1, 0, 0], [0, 1, 0, 0], [1, 2, 0, 0], [1, 0, 0, 0],
         [0, 0, 1, 1], [0, 0, 2, 2], [1, 1, 1, 1], [0, 0, 0, 5]]
    assert _check_completion(m, 4) == ([0, 3, 4, 7], -5)
    # Rank 2 with leftover rows: no completion exists.
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1], [2, 2, 4], [0, 2, 2]]
    assert _check_completion(m, 3)[1] == 0


@st.composite
def _deficient_square_problems(draw):
    """Square problems whose first `need` rows have rank need - deficit.

    need - deficit rows in echelon form on a random column order (so
    independent), mixed by adding multiples of one another, then
    `deficit` nonzero combinations of them, all shuffled; then extra rows
    that are random sparse rows or combinations of the first ones.
    """
    need = draw(st.integers(1, 16))
    deficit = draw(st.integers(1, min(5, need)))
    rng = Random(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from((0.1, 0.3, 1.0)))
    order = rng.sample(range(need), need)
    basis = []
    for i in range(need - deficit):
        row = [0] * need
        row[order[i]] = rng.choice((-3, -2, -1, 1, 2, 3))
        for c in order[i + 1:]:
            if rng.random() < density:
                row[c] = rng.randint(-3, 3)
        basis.append(row)
    for _ in range(len(basis)):
        i, j = rng.sample(range(len(basis)), 2) if len(basis) > 1 else (0, 0)
        if i != j:
            k = rng.randint(-2, 2)
            basis[i] = [x + k * y for x, y in zip(basis[i], basis[j])]

    def combination():
        while True:
            coeffs = [rng.randint(-2, 2) for _ in basis]
            if any(coeffs) or not basis:
                return [sum(a * row[c] for a, row in zip(coeffs, basis))
                        for c in range(need)]

    first = basis + [combination() for _ in range(deficit)]
    rng.shuffle(first)
    extra = [combination() if rng.random() < 0.3 else
             [rng.randint(-3, 3) if rng.random() < density else 0
              for _ in range(need)]
             for _ in range(draw(st.integers(0, deficit + 6)))]
    return first + extra, need


@settings(max_examples=150)
@given(_deficient_square_problems(), st.randoms(use_true_random=False))
def test_pivot_rows_completes_deficient_blocks(problem, rng):
    # The completion's rows and determinant keep the kernel's contract,
    # and relabelling the columns by a strictly increasing map changes
    # neither.
    m, need = problem
    rows = sparse(m)
    out = pivot_rows(rows, need)
    check_pivot_rows_contract(rows, need, out, range(need))
    labels = sorted(rng.sample(range(4 * need), need))
    relabelled = [{labels[c]: x for c, x in row.items()} for row in rows]
    assert pivot_rows(relabelled, need) == out
