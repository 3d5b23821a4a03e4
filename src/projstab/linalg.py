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
original keys.  The elimination is right-looking: each step pivots on the
column with the fewest live rows, and in it on the shortest row (a cheap
form of Markowitz's rule, Management Science 3, 1957), and combines the
pivot row into every live row with a nonzero there.  Each row is divided
by the pivot of the last step that touched it, not by the previous pivot,
which Sylvester's identity makes exact; an index from each column to its
live rows finds the rows a step touches.  The first `need` rows are
eliminated first.  If they leave pivots missing, the other rows are not
reduced one by one against the pivot rows: each is mapped, by dot products
with integer null vectors of the pivot rows, to a row of the reduced
(Schur) system on the free columns, and the same loop eliminates that
small system once, as the continuation of the first.  So the chosen rows
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
from heapq import heapify, heappop, heappush
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


def _eliminate(live: dict[int, dict[int, int]], need: int, last: int
               ) -> list[tuple[int, int, int, dict[int, int]]]:
    """Right-looking sparse Bareiss steps on live, {row id: row}, in place.

    last is the pivot d of the step before the first one here, and every
    live row is held as of that step (1 for unreduced rows).  Stops after
    `need` pivots or when no live row is left.  Returns the steps as
    (row id, pivot column, pivot, pivot row without its pivot column), in
    order; pivot_rows states the rule and the arithmetic.
    """
    index: dict[int, set[int]] = {}  # column -> live rows with a nonzero
    for i, row in live.items():
        for c in row:
            index.setdefault(c, set()).add(i)
    # (live rows, column), with stale entries skipped when popped
    heap = [(len(rows_c), c) for c, rows_c in index.items()]
    heapify(heap)
    den = dict.fromkeys(live, last)  # d_s: the pivot of the row's last step
    steps: list[tuple[int, int, int, dict[int, int]]] = []
    while len(steps) < need and index:
        size, pc = heappop(heap)
        hit = index.get(pc)
        if hit is None or len(hit) != size:
            continue
        del index[pc]
        p = min(hit, key=lambda i: (len(live[i]), i))
        hit.remove(p)
        prow = live.pop(p)
        d = den.pop(p)
        if d != last:
            prow = {c: x * last // d for c, x in prow.items()}
        pivot = prow.pop(pc)
        for c in prow:
            index[c].remove(p)
        get = prow.get
        for i in hit:
            a = live[i]
            head = a.pop(pc)
            d = den[i]
            b = {c: (x * pivot - head * get(c, 0)) // d for c, x in a.items()}
            for c, y in prow.items():
                if c not in a:
                    b[c] = -head * y // d
                    index[c].add(i)
                elif not b[c]:
                    del b[c]
                    index[c].remove(i)
            if b:
                live[i] = b
                den[i] = pivot
            else:
                del live[i], den[i]
        for c in prow:
            rows_c = index[c]
            if rows_c:
                heappush(heap, (len(rows_c), c))
            else:
                del index[c]
        steps.append((p, pc, pivot, prow))
        last = pivot
    return steps


def pivot_rows(rows: list[dict[int, int]], need: int) -> tuple[list[int], int]:
    """`need` independent integer rows and the determinant of their block.

    Each row is a {column: value} dict of its nonzeros (no zero values),
    keyed by integers whose order is the column order; the rows are not
    changed.

    Stage 1 eliminates rows[:need] right-looking, by fraction-free steps
    (Bareiss, Math. Comp. 22, 1968).  Each step pivots on the column with
    the fewest live rows and, in it, on the row with the fewest nonzeros,
    ties to the lower column key and row position.  After k steps the true
    Bareiss row holds the (k+1)-minors on the first k pivot rows and
    columns plus its own row and column (Sylvester's identity); the held
    row is that up to the factor d_k / d_s, with d_i the i-th pivot
    (d_0 = 1) and s the last step that touched the row.  A row hit by step
    k+1 becomes (d_(k+1) * row - head * pivot row) / d_s, and a row chosen
    as pivot row at step k+1 is first scaled by d_k / d_s.  Both divisions
    are exact, since the results are true Bareiss rows.  When rows[:need]
    have rank `need` they are all chosen.

    Stage 2 runs when stage 1 finds only r < need pivots.  The free
    columns F are the non-pivot columns of the pivot rows and of the
    leftover rows rows[need:]; fill can put a pivot row on a column that no
    leftover row touches.  For each f in F, back-substitution through the
    pivot rows gives the integer null vector y_f with y_f[f] = delta = d_r
    and zeros on the rest of F; each division is exact by Cramer's rule.
    A leftover row l maps to the row {f: l . y_f} of a reduced system on
    the columns F.  l . y_f is the (r+1)-minor that borders the pivot block
    with row l and column f, the entry stage 1 would hold for l after r
    steps, so the same loop eliminates the reduced system as a
    continuation of stage 1, from d_r and over all its rows at once.  Its
    last pivot is the minor of the chosen rows on the pivot columns of
    both stages.  The leftover rows it picks are chosen; the rows[:need]
    that stage 1 did not pick depend on those it did.

    Returns the chosen row positions (ascending) and the determinant of
    those rows, in ascending order, on their pivot columns in ascending
    order: the last pivot times the signs of the order in which the rows
    and the columns were picked.  The determinant is 0 when fewer than
    `need` independent rows exist.  When `need` is the number of columns,
    every caller's case, the determinant is that of the chosen square
    block; which leftover rows are chosen depends on the pivot rule.  A
    smaller `need` gives the minor on columns that the rule picks.
    Relabelling the columns by a strictly increasing map changes neither
    output.
    """
    steps = _eliminate({i: dict(row) for i, row in enumerate(rows[:need])
                        if row}, need, 1)
    short = need - len(steps)
    rest = range(need, len(rows))
    if short and len(rest) >= short:
        delta = steps[-1][2] if steps else 1
        free = {c for _, _, _, prow in steps for c in prow}.union(
            *(rows[i] for i in rest)).difference(c for _, c, _, _ in steps)
        nulls = {}
        for f in sorted(free):
            y = {f: delta}
            for _, pc, pivot, prow in reversed(steps):
                dot = sum(x * y[c] for c, x in prow.items() if c in y)
                if dot:
                    y[pc] = -dot // pivot
            nulls[f] = y
        reduced = {}
        for i in rest:
            row = {}
            for f, y in nulls.items():
                dot = sum(x * y[c] for c, x in rows[i].items() if c in y)
                if dot:
                    row[f] = dot
            if row:
                reduced[i] = row
        steps += _eliminate(reduced, short, delta)
    chosen = [p for p, _, _, _ in steps]
    if len(chosen) < need:
        return sorted(chosen), 0
    return sorted(chosen), (permutation_sign(chosen)
                            * permutation_sign([c for _, c, _, _ in steps])
                            * (steps[-1][2] if steps else 1))


def det_rational(m: Matrix) -> Fraction:
    """Exact determinant of a rational matrix."""
    scaled: list[dict[int, int]] = []
    scale = 1
    for row in m:
        denom = lcm(*(x.denominator for x in row))
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
