"""Exact linear algebra over the rationals (and modulo a prime).

Matrices are plain lists of lists.  Determinants and exact ranks use
fraction-free Bareiss elimination on integer matrices: a rational matrix is
first scaled row by row to integers and the scale factors divided back out,
so no floating point and no fraction blow-up inside the elimination.

Nullspaces come from a reduced row echelon form over Fraction; the basis is
canonical (one vector per free column, unit entry at that column), which
keeps every downstream consumer deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = list[list[Fraction]]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def mat_vec(a: Matrix, v: list[Fraction]) -> list[Fraction]:
    return [sum((row[k] * v[k] for k in range(len(v))), Fraction(0)) for row in a]


def det_int_bareiss(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by Bareiss elimination.

    All intermediate divisions are exact; the matrix is consumed.
    """
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i, row_k = m[i], m[k]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_rational(m: Matrix) -> Fraction:
    """Exact determinant of a rational matrix."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    scaled: list[list[int]] = []
    scale = 1
    for row in m:
        denom = lcm(*(x.denominator for x in row)) if row else 1
        scale *= denom
        scaled.append([int(x * denom) for x in row])
    return Fraction(det_int_bareiss(scaled), scale)


def det_mod_p(m: list[list[int]], p: int) -> int:
    """Determinant modulo a prime, by Gaussian elimination over F_p."""
    n = len(m)
    if n == 0:
        return 1 % p
    a = [[x % p for x in row] for row in m]
    det = 1
    for k in range(n):
        piv = None
        for r in range(k, n):
            if a[r][k] != 0:
                piv = r
                break
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = (-det) % p
        pivot = a[k][k]
        det = (det * pivot) % p
        inv = pow(pivot, p - 2, p)
        for r in range(k + 1, n):
            factor = (a[r][k] * inv) % p
            if factor == 0:
                continue
            row_r, row_k = a[r], a[k]
            for j in range(k, n):
                row_r[j] = (row_r[j] - factor * row_k[j]) % p
    return det


def rank_mod_p(m: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over F_p (a lower bound for the Q-rank)."""
    a = [[x % p for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if a[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], p - 2, p)
        for r in range(rank + 1, rows):
            factor = (a[r][c] * inv) % p
            if factor:
                row_r, row_k = a[r], a[rank]
                for j in range(c, cols):
                    row_r[j] = (row_r[j] - factor * row_k[j]) % p
        rank += 1
        if rank == rows:
            break
    return rank


def rank_rational(m: list[list[int]]) -> int:
    """Exact rank over Q of an integer matrix, by Bareiss elimination.

    Columns without a pivot are skipped.  After k pivots each entry below
    the pivot rows equals the (k+1)-minor of the input on the pivot rows
    and columns plus its own row and column, so every division by the
    previous pivot is exact, also after a skipped column.
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    prev = 1
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if a[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        row_k = a[rank]
        pivot = row_k[c]
        for i in range(rank + 1, rows):
            row_i = a[i]
            head = row_i[c]
            for j in range(c + 1, cols):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[c] = 0
        prev = pivot
        rank += 1
        if rank == rows:
            break
    return rank


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices)."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def nullspace(m: Matrix, cols: int) -> list[list[Fraction]]:
    """Canonical basis of {v : m v = 0} in Q^cols.

    One basis vector per free column, carrying a unit entry there; ordered
    by free column index.  An empty row list means the full space.
    """
    if not m:
        return [[Fraction(int(i == j)) for j in range(cols)] for i in range(cols)]
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def mat_inverse(m: Matrix) -> Matrix:
    """Inverse via Gauss-Jordan; raises SingularMatrix if not invertible."""
    from .errors import SingularMatrix

    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for k in range(n):
        piv = None
        for r in range(k, n):
            if a[r][k] != 0:
                piv = r
                break
        if piv is None:
            raise SingularMatrix("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        inv = Fraction(1) / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for r in range(n):
            if r != k and a[r][k] != 0:
                f = a[r][k]
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return [row[n:] for row in a]
