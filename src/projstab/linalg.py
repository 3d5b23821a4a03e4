"""Exact linear algebra over the rationals (and modulo a prime).

Matrices are plain lists of lists, except in the elimination kernel.
Determinants, exact full-rank tests and the row choices of the resultant
all come from one fraction-free Bareiss routine on integer rows,
pivot_rows: a rational matrix is first scaled row by row to integers and
the scale factors divided back out, so no floating point and no fraction
blow-up inside the elimination.

pivot_rows is sparse.  Each row is a {column: value} dict of its nonzeros,
which for the Koszul matrices of the resultant is at most a few dozen
entries in a row of hundreds, and the resultant builds its rows in that
form, so the kernel converts nothing.  Columns are any integer keys; only
their order matters, so a block restricted to some columns keeps its
original keys.  A row meets the pivot rows in the order they were found;
a step whose head entry is zero is skipped, and the next combination
divides by the pivot of the last step that touched the row, not by the
previous pivot, which Sylvester's identity makes exact.  A new pivot row
pivots on its column with the fewest nonzeros among the first `need`
rows, which keeps fill-in low.  Rows past the first `need` are tried by
their nonzeros in the columns no pivot has taken, most first, which
spends fewer steps on rows that turn out dependent.  So the chosen rows
depend on the entries, not on the row order alone; none of this changes
whether `need` independent rows exist, and a square block has one
determinant, whatever the pivot order.

rank_mod_p is the one dense routine on those rows: it lays each row's
residues out over the column range and eliminates modulo a word-size
prime, as the fast accept of resultant.is_morphism.

Nullspaces are solved the same way: the rows are scaled to integers,
brought to echelon form by fraction-free steps, each pivot row divided by
its content, and back-substituted to the reduced row echelon form, which is
unique.  The basis is canonical (one vector per free column, unit entry at
that column), which keeps every downstream consumer deterministic; only its
entries are Fractions.  Inverses are read off the same nullspace routine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import SingularMatrix

Matrix = list[list[Fraction]]


def permutation_sign(seq) -> int:
    """Sign of the permutation that sorts a sequence of distinct keys."""
    order = sorted(range(len(seq)), key=seq.__getitem__)
    sign = 1
    seen = [False] * len(seq)
    for i in range(len(seq)):
        j = i
        while not seen[j]:
            seen[j] = True
            j = order[j]
            if j != i:
                sign = -sign
    return sign


def pivot_rows(rows: list[dict[int, int]], need: int) -> tuple[list[int], int]:
    """`need` independent integer rows, by sparse one-row Bareiss steps.

    Each row is a {column: value} dict of its nonzeros (no zero values),
    keyed by integers whose order is the column order; the rows are not
    changed.  Each new row is reduced by the pivot rows found so far, in
    the order they were found.  After the k-th pivot step the true Bareiss
    row holds the (k+1)-minors of the input on the first k pivot rows and
    columns plus its own row and column (Sylvester's identity); so does
    the held row, up to the factor d_k / d_s, with d_i the i-th pivot
    (d_0 = 1) and s the last step whose head was nonzero.  A step with a
    zero head changes nothing, and a step j with a nonzero head forms
    (d_j * row - head * pivot row) / d_s, exact because the result is the
    true row of step j.  A row that becomes a pivot row is scaled once by
    d_k / d_s, again exactly.  Pivot rows never change once chosen.

    The first `need` rows are taken in the given order.  If they leave
    pivots missing, the other rows follow in decreasing order of their
    nonzeros in the columns that no pivot has taken (ties in the given
    order), which tries first the rows most likely to supply the missing
    pivots.  A row is chosen exactly when it is independent of the rows
    chosen before it in that processing order, so rows[:need] are chosen
    whenever they have rank `need`.

    A new pivot row's pivot column is, among its nonzeros, the column with
    the fewest nonzeros in rows[:need] (ties to the lower key), one count
    per call, which keeps the fill-in of sparse matrices low.  The pivot
    rule changes neither output when `need` is the number of columns: the
    chosen rows form one square block with one determinant.  Every caller
    asks for that.  A smaller `need` gives the minor on the pivot columns,
    and those do depend on the rule.  Relabelling the columns by a
    strictly increasing map changes neither output.

    Returns the chosen row positions (ascending) and the determinant of
    those rows, in ascending order, on their pivot columns in ascending
    order: the elimination's last pivot times the signs of the processing
    order and of the pivot column order.  The determinant is 0 when fewer
    than `need` pivots exist, and the search stops as soon as the
    remaining rows cannot supply them.
    """
    count: dict[int, int] = {}
    for row in rows[:need]:
        for c in row:
            count[c] = count.get(c, 0) + 1
    pivots: list[tuple[int, int, dict[int, int]]] = []  # (column, pivot, row)
    chosen: list[int] = []
    taken: list[int] = []
    last = 1
    order = list(range(len(rows)))
    for i in range(len(rows)):
        if len(chosen) == need or len(chosen) + len(rows) - i < need:
            break
        if i == need:
            done = set(taken)
            order[need:] = sorted(order[need:], key=lambda r: -sum(
                1 for c in rows[r] if c not in done))
        r = order[i]
        a = dict(rows[r])
        den = 1
        for pc, pivot, pivot_row in pivots:
            head = a.pop(pc, 0)
            if not head:
                continue
            a = {c: x * pivot for c, x in a.items()}
            get = a.get
            for c, y in pivot_row.items():
                a[c] = get(c, 0) - head * y
            a = {c: x // den for c, x in a.items() if x}
            den = pivot
        if not a:
            continue
        if den != last:
            a = {c: x * last // den for c, x in a.items()}
        pc = min(a, key=lambda c: (count.get(c, 0), c))
        last = a.pop(pc)
        pivots.append((pc, last, a))
        chosen.append(r)
        taken.append(pc)
    if len(chosen) < need:
        return sorted(chosen), 0
    return sorted(chosen), (permutation_sign(chosen) * permutation_sign(taken)
                            * last)


def det_rational(m: Matrix) -> Fraction:
    """Exact determinant of a rational matrix."""
    scaled: list[dict[int, int]] = []
    scale = 1
    for row in m:
        denom = lcm(*(x.denominator for x in row)) if row else 1
        scale *= denom
        scaled.append({c: int(x * denom) for c, x in enumerate(row) if x})
    return Fraction(pivot_rows(scaled, len(m))[1], scale)


def rank_mod_p(m: list[dict[int, int]], cols: int, p: int) -> int:
    """Rank over F_p of integer dict rows, a lower bound for their Q-rank.

    The rows have their keys in range(cols).  This is the only routine
    that lays rows out dense: each row's residues are written into a list
    of `cols` entries and eliminated column by column.
    It stays as the fast accept of resultant.is_morphism, since full rank
    modulo p implies full rank over Q.
    """
    a = []
    for row in m:
        dense = [0] * cols
        for c, x in row.items():
            dense[c] = x % p
        a.append(dense)
    rows = len(a)
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


def nullspace(m: Matrix, cols: int) -> list[list[Fraction]]:
    """Canonical basis of {v : m v = 0} in Q^cols.

    One basis vector per free column, carrying a unit entry there; ordered
    by free column index.  An empty row list means the full space.

    Each row is scaled to integers by the lcm of its denominators (int rows
    pass unchanged) and reduced by the pivot rows found so far, in the
    order they were found, with the fraction-free step x*pivot - head*y.
    Every pivot row is zero on the pivot columns of the rows found before
    it, so this clears them all.  A row that keeps a nonzero entry becomes
    a pivot row, divided by its content (the gcd of its entries) so the
    entries stay small.  Back-substitution, last pivot row first, then
    clears every pivot column from the other pivot rows.  The reduced row
    echelon form is unique, so the basis is the one Gauss-Jordan over Q
    gives; Fractions are made only for its entries, -p[free] / p[pivot].
    """
    pivots: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for row in m:
        denom = lcm(*(x.denominator for x in row))
        a = [x.numerator * (denom // x.denominator) for x in row]
        for pc, p in pivots:
            head = a[pc]
            if head:
                pivot = p[pc]
                a = [x * pivot - head * y for x, y in zip(a, p)]
        pc = next((j for j, x in enumerate(a) if x), None)
        if pc is None:
            continue
        g = gcd(*a)
        pivots.append((pc, [x // g for x in a]))
    for k in range(len(pivots) - 1, -1, -1):
        pc, p = pivots[k]
        pivot = p[pc]
        for i in range(k):
            qc, q = pivots[i]
            head = q[pc]
            if head:
                q = [x * pivot - head * y for x, y in zip(q, p)]
                g = gcd(*q)
                pivots[i] = (qc, [x // g for x in q])
    pivot_cols = {pc for pc, _ in pivots}
    basis = []
    for fc in range(cols):
        if fc in pivot_cols:
            continue
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for pc, p in pivots:
            v[pc] = Fraction(-p[fc], p[pc])
        basis.append(v)
    return basis


def mat_inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrix if not invertible.

    The reduced row echelon form of [m | -I] is [I | -m^-1], so the
    nullspace basis vector of free column n+j carries column j of m^-1 in
    its first n entries.
    """
    if det_rational(m) == 0:
        raise SingularMatrix("matrix is singular")
    n = len(m)
    basis = nullspace([list(row) + [Fraction(-int(i == j)) for j in range(n)]
                       for i, row in enumerate(m)], 2 * n)
    return [[basis[j][i] for j in range(n)] for i in range(n)]
