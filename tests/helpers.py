"""Shared seeded generators for the test suite."""

from fractions import Fraction
from random import Random

from projstab import ZeroMap, make_map
from projstab.linalg import permutation_sign
from projstab.resultant import monomials_of_degree

DEFAULT_COEFFS = tuple(Fraction(k) for k in (-2, -1, 0, 1, 2))


def random_map(rng: Random, n: int, m: int, coeffs=DEFAULT_COEFFS):
    """One map with every monomial slot drawn from coeffs (never all-zero)."""
    monos = monomials_of_degree(n + 1, m)
    while True:
        comps = []
        for _ in range(n + 1):
            terms = [(e, rng.choice(coeffs)) for e in monos]
            comps.append([(e, c) for e, c in terms if c])
        try:
            return make_map(n, m, comps)
        except ZeroMap:
            continue


def random_triangular_map(rng: Random, n: int, m: int, coeffs=DEFAULT_COEFFS):
    """Component j uses variables 0..j only and always carries x_j^m.

    Such maps are morphisms by construction: setting x_0 = 0 forces
    x_1 = 0 and so on down the triangle.
    """
    nonzero = [c for c in coeffs if c]
    comps = []
    for j in range(n + 1):
        terms = {}
        pure = tuple(m if i == j else 0 for i in range(n + 1))
        terms[pure] = rng.choice(nonzero)
        for e in monomials_of_degree(n + 1, m):
            if e == pure:
                continue
            if all(k == 0 for i, k in enumerate(e) if i > j):
                c = rng.choice(coeffs)
                if c:
                    terms[e] = c
        comps.append(list(terms.items()))
    return make_map(n, m, comps)


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def mat_vec(a, v):
    return [sum((row[k] * v[k] for k in range(len(v))), Fraction(0))
            for row in a]


def reference_pivot_rows(rows, need):
    """Dense one-row Bareiss elimination, the reference for pivot_rows.

    Each new row is reduced by the pivot rows found so far, dividing every
    step by the previous pivot, and pivots on its first nonzero column.
    """
    pivots = []  # (position, pivot, row)
    chosen = []
    live = list(range(len(rows[0]))) if rows else []
    taken = []
    for r, row in enumerate(rows):
        if len(chosen) == need or len(chosen) + len(rows) - r < need:
            break
        a = list(row)
        prev = 1
        for pos, pivot, pivot_row in pivots:
            head = a.pop(pos)
            if head:
                a = [(x * pivot - head * y) // prev
                     for x, y in zip(a, pivot_row)]
            elif pivot != prev:
                a = [x * pivot // prev for x in a]
            prev = pivot
        pos = next((j for j, x in enumerate(a) if x), None)
        if pos is None:
            continue
        pivot = a.pop(pos)
        pivots.append((pos, pivot, a))
        chosen.append(r)
        taken.append(live.pop(pos))
    if len(chosen) < need:
        return chosen, 0
    det = pivots[-1][1] if pivots else 1
    return chosen, permutation_sign(taken) * det


def random_invertible(rng: Random, size: int, lo: int = -3, hi: int = 3):
    from projstab.linalg import det_rational
    while True:
        m = [[Fraction(rng.randint(lo, hi)) for _ in range(size)]
             for _ in range(size)]
        if det_rational([row[:] for row in m]) != 0:
            return m
