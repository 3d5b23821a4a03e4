"""Exact linear algebra over the rationals (and modulo a prime).

Matrices are plain lists of lists, except in the elimination kernel.  There
is one kernel, _eliminate: a sparse right-looking fraction-free (Bareiss)
elimination on integer rows, each a {column: value} dict of its nonzeros.
Determinants, exact full-rank tests, the row choices of the resultant,
nullspaces and inverses all come from it.  A rational matrix is first
scaled row by row to integers (_integer_rows), so no floating point and no
fraction blow-up enter the elimination.  Columns are any integer keys;
only their order matters, so a block restricted to some columns keeps its
original keys.  A Koszul row of the resultant has at most a few dozen
nonzeros in hundreds of columns; the resultant and the stabilizer solve
build their rows in this form, so the kernel converts nothing.

The kernel has two pivot rules.  pivot_rows uses a cheap form of
Markowitz's rule (Management Science 3, 1957): the column with the fewest
live rows, and in it the shortest row.  null_vectors pivots on the
leftmost live column, which leaves the rows in echelon form, so its pivot
columns are those of the reduced row echelon form.  Both read null vectors
of the pivot rows off one back-substitution, _null_vectors.  pivot_rows
maps leftover rows through them to a small reduced (Schur) system when its
first rows leave pivots missing.  null_vectors returns them in integers,
one y_f per free column f with the last pivot delta at f and zeros on the
other free columns, so y_f / delta is the canonical basis vector of f that
Gauss-Jordan reads off the reduced row echelon form.  nullspace makes that
division; stability.stabilizer_space reads the integers themselves, and
takes its column keys in reverse order to reduce a spanning set of a
solution space from the last column to the first.

rank_mod_p is the one dense routine on those rows: it lays each row's
residues out over the column range and eliminates modulo a word-size
prime, as the fast accept of resultant.is_morphism.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm

from .errors import SingularMatrix

Matrix = list[list[Fraction]]
Step = tuple[int, int, int, dict[int, int]]


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


def _eliminate(live: dict[int, dict[int, int]], need: int, last: int,
               leftmost: bool = False) -> list[Step]:
    """Right-looking sparse Bareiss steps on live, {row id: row}, in place.

    last is the pivot d of the step before the first one here, and every
    live row is held as of that step (1 for unreduced rows).  Stops after
    `need` pivots or when no live row is left.  Each step pivots on the
    leftmost live column if `leftmost`, else on the column with the fewest
    live rows, and in that column on the shortest row.  Returns the steps
    as (row id, pivot column, pivot, pivot row without its pivot column),
    in order; pivot_rows states the rule and the arithmetic.
    """
    index: dict[int, set[int]] = {}  # column -> live rows with a nonzero
    for i, row in live.items():
        for c in row:
            index.setdefault(c, set()).add(i)
    # (live rows, column), or (0, column) under the leftmost rule; stale
    # entries are skipped when popped
    heap = [(0 if leftmost else len(rows_c), c)
            for c, rows_c in index.items()]
    heapify(heap)
    den = dict.fromkeys(live, last)  # d_s: the pivot of the row's last step
    steps: list[Step] = []
    while len(steps) < need and index:
        size, pc = heappop(heap)
        hit = index.get(pc)
        if hit is None or not leftmost and len(hit) != size:
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
            if not rows_c:
                del index[c]
            elif not leftmost:
                heappush(heap, (len(rows_c), c))
        steps.append((p, pc, pivot, prow))
        last = pivot
    return steps


def _null_vectors(steps: list[Step], free, delta: int
                  ) -> dict[int, dict[int, int]]:
    """One integer null vector y_f of the pivot rows per free column f.

    free holds the columns that are not pivot columns of steps, and delta
    is the last pivot.  y_f[f] = delta, y_f is zero on the rest of free,
    and back-substitution through the pivot rows, last step first, gives
    its pivot entries; each division is exact by Cramer's rule.  Returns
    {f: y_f} in ascending order of f, each y_f a dict of its nonzeros.
    """
    nulls = {}
    for f in sorted(free):
        y = {f: delta}
        for _, pc, pivot, prow in reversed(steps):
            dot = sum(x * y[c] for c, x in prow.items() if c in y)
            if dot:
                y[pc] = -dot // pivot
        nulls[f] = y
    return nulls


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
    leftover row touches.  For each f in F, _null_vectors gives the integer
    null vector y_f of the pivot rows with y_f[f] = delta = d_r and zeros
    on the rest of F.  A leftover row l maps to the row {f: l . y_f} of a
    reduced system on the columns F.  l . y_f is the (r+1)-minor that
    borders the pivot block with row l and column f, the entry stage 1
    would hold for l after r steps, so the same loop eliminates the reduced
    system as a continuation of stage 1, from d_r and over all its rows at
    once.  Its last pivot is the minor of the chosen rows on the pivot
    columns of both stages.  The leftover rows it picks are chosen; the
    rows[:need] that stage 1 did not pick depend on those it did.

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
        nulls = _null_vectors(steps, free, delta)
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


def _integer_rows(m: Matrix) -> tuple[list[dict[int, int]], int]:
    """m's rows as integer dict rows, each scaled by the lcm of its
    denominators, and the product of those scale factors."""
    rows: list[dict[int, int]] = []
    scale = 1
    for row in m:
        denom = lcm(*(x.denominator for x in row))
        scale *= denom
        rows.append({c: x.numerator * (denom // x.denominator)
                     for c, x in enumerate(row) if x})
    return rows, scale


def det_rational(m: Matrix) -> Fraction:
    """Exact determinant of a rational matrix."""
    rows, scale = _integer_rows(m)
    return Fraction(pivot_rows(rows, len(m))[1], scale)


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
        inv = pow(a[rank][c], -1, p)
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


def null_vectors(rows: list[dict[int, int]], cols
                 ) -> tuple[dict[int, dict[int, int]], int]:
    """Integer null vectors of the rows, one per free column, and delta.

    The rows are integer {column: value} dicts, not changed, with keys in
    cols: integer column keys, any iterable, whose order as integers is
    the column order.  The leftmost pivot rule finds the pivot columns of
    the reduced row echelon form, and delta is the last pivot (1 with no
    pivot).  Returns {f: y_f} over the free columns f, ascending, with y_f
    from _null_vectors: delta at f, zero on the other free columns, so
    y_f / delta is the canonical basis vector of f.
    """
    steps = _eliminate({i: dict(row) for i, row in enumerate(rows) if row},
                       len(rows), 1, leftmost=True)
    delta = steps[-1][2] if steps else 1
    free = set(cols).difference(c for _, c, _, _ in steps)
    return _null_vectors(steps, free, delta), delta


def nullspace(rows: list[dict[int, int]], cols: int) -> list[list[Fraction]]:
    """Canonical basis of {v : rows v = 0} in Q^cols.

    The rows are integer {column: value} dicts with keys in range(cols);
    they are not changed, and an empty row list means the full space.  One
    basis vector per free column, carrying a unit entry there and zeros on
    the other free columns, ordered by free column: the basis that
    Gauss-Jordan over Q reads off the reduced row echelon form.  It is
    y_f / delta from null_vectors; Fractions are made only for its nonzero
    entries.
    """
    nulls, delta = null_vectors(rows, range(cols))
    zero = Fraction(0)
    return [[Fraction(y[c], delta) if c in y else zero for c in range(cols)]
            for y in nulls.values()]


def mat_inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrix if not invertible.

    The nullspace of [m | -I] has one vector per free column.  When m is
    invertible the free columns are the last n, and the vector of free
    column n+j is (column j of m^-1, e_j).  Otherwise a free column lies
    among the first n; its canonical vector is zero past that column, so
    on the last n entries, and its first n entries are a kernel vector
    of m.
    """
    n = len(m)
    rows, _ = _integer_rows([list(row) + [-int(i == j) for j in range(n)]
                             for i, row in enumerate(m)])
    basis = nullspace(rows, 2 * n)
    if any(not any(v[n:]) for v in basis):
        raise SingularMatrix("matrix is singular")
    return [[basis[j][i] for j in range(n)] for i in range(n)]
