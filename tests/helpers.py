"""Shared seeded generators for the test suite."""

from fractions import Fraction
from itertools import combinations, count, product
from math import lcm
from random import Random

from projstab import (NotAMorphism, ProjectiveMap, SizeLimit, ZeroMap,
                      detect_blocks, is_morphism, make_map, split_once)
from projstab.resultant import monomials_of_degree
from projstab.stability import SUBSET_SCAN_LIMIT

DEFAULT_COEFFS = tuple(Fraction(k) for k in (-2, -1, 0, 1, 2))

# Values a caller might pass by mistake, for the fuzz properties of the
# error contract.  10**700 is past the 2048 bits that poly.shown writes in
# digits, and still has a repr for hypothesis to print.
ODD_VALUES = (None, 2.0, 0.5, float("nan"), True, False, "1", "x", "", [1],
              (), {}, b"1", Fraction(1, 2), -1, -(10 ** 9), 10 ** 9, 2 ** 64,
              10 ** 700, -(10 ** 700))


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


def reference_box_maps(n: int, m: int, coeffs, sample=None, seed=0):
    """The candidates of a valid box, each built and checked by make_map.

    The reference for verify's generators, which build from the box once
    read: every coefficient assignment in product order (sample None), or
    `sample` draws from Random(seed), one rng.choice per slot; the zero
    map is skipped, and a zero draw redrawn.
    """
    monos = monomials_of_degree(n + 1, m)
    slots = (n + 1) * len(monos)
    if sample is None:
        assignments = product(coeffs, repeat=slots)
    else:
        rng = Random(seed)
        assignments = (tuple(rng.choice(coeffs) for _ in range(slots))
                       for _ in count())
    maps = []
    for flat in assignments:
        if len(maps) == sample:
            break
        comps = [list(zip(monos, flat[j * len(monos):(j + 1) * len(monos)]))
                 for j in range(n + 1)]
        try:
            maps.append(make_map(n, m, comps))
        except ZeroMap:
            continue
    return maps


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


def random_block_triangular_map(rng: Random, sizes, m: int,
                                coeffs=DEFAULT_COEFFS):
    """Variables and components in consecutive groups of the given sizes.

    A component of group t uses the variables of groups 0..t and always
    carries its own x_j^m; every other coefficient is drawn from coeffs.
    With groups of size 1 the map is triangular, and so a morphism; a
    larger group is a morphism exactly when its own block is.
    """
    nv = sum(sizes)
    group = [t for t, size in enumerate(sizes) for _ in range(size)]
    nonzero = [c for c in coeffs if c]
    comps = []
    for j in range(nv):
        pure = tuple(m if i == j else 0 for i in range(nv))
        terms = {pure: rng.choice(nonzero)}
        for e in monomials_of_degree(nv, m):
            if e != pure and all(group[i] <= group[j]
                                 for i, k in enumerate(e) if k):
                c = rng.choice(coeffs)
                if c:
                    terms[e] = c
        comps.append(list(terms.items()))
    return make_map(nv - 1, m, comps)


def permuted(rng: Random, f):
    """f with its variables and its components each permuted at random."""
    nv = f.num_vars
    to = rng.sample(range(nv), nv)
    return make_map(f.n, f.m, [
        [(tuple(e[to[i]] for i in range(nv)), c) for e, c in comp.terms]
        for comp in rng.sample(f.components, nv)])


def direct_sum(f, g):
    """(f(x), g(y)) on the variables of f followed by those of g."""
    zf, zg = (0,) * f.num_vars, (0,) * g.num_vars
    return make_map(f.num_vars + g.num_vars - 1, f.m,
                    [[(e + zg, c) for e, c in comp.terms]
                     for comp in f.components]
                    + [[(zf + e, c) for e, c in comp.terms]
                       for comp in g.components])


def reference_splitting_types_all_blocks(f: ProjectiveMap
                                         ) -> set[tuple[int, ...]]:
    """Splitting types of a morphism over every block choice at every level.

    The exhaustive reference for decompose.splitting_types_all_blocks: it
    splits every block of every distinct piece.  Raises NotAMorphism after
    one certificate on f; the pieces inherit it.  Raises SizeLimit before
    the block scans of the walk visit more than SUBSET_SCAN_LIMIT subsets
    in all.
    """
    if not is_morphism(f):
        raise NotAMorphism("cannot decompose a non-morphism")
    memo: dict[ProjectiveMap, set[tuple[int, ...]]] = {}
    scanned = 0

    def walk(g: ProjectiveMap) -> set[tuple[int, ...]]:
        nonlocal scanned
        if g.num_vars == 1:
            return {(1,)}
        if g in memo:
            return memo[g]
        scanned += 2 ** g.num_vars
        if scanned > SUBSET_SCAN_LIMIT:
            raise SizeLimit(f"the block scans of an all-blocks walk would "
                            f"visit more than {SUBSET_SCAN_LIMIT} subsets")
        blocks = detect_blocks(g)
        types = set() if blocks else {(g.num_vars,)}
        for block in blocks:
            pair = split_once(g, block)
            for rt in walk(pair.restriction):
                for qt in walk(pair.quotient):
                    types.add(tuple(sorted(rt + qt)))
        memo[g] = types
        return types

    return walk(f)


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def mat_vec(a, v):
    return [sum((row[k] * v[k] for k in range(len(v))), Fraction(0))
            for row in a]


def _inversion_sign(seq):
    """Sign of the permutation that sorts seq, by counting inversions."""
    inversions = sum(1 for i in range(len(seq)) for j in range(i)
                     if seq[j] > seq[i])
    return -1 if inversions % 2 else 1


def sparse(m):
    """Dense integer rows as the {column: value} dicts of linalg's kernel."""
    return [{c: x for c, x in enumerate(row) if x} for row in m]


def _dense_pivot_rows(rows, need):
    """Dense one-row Bareiss elimination on lists of integers.

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
    return chosen, _inversion_sign(taken) * det


def reference_pivot_rows(rows, need, columns):
    """The reference for pivot_rows on dict rows.

    The rows are laid out dense over `columns`, an ascending list of
    column keys that holds every key of every row, and eliminated by the
    dense loop above.
    """
    return _dense_pivot_rows([[row.get(c, 0) for c in columns]
                              for row in rows], need)


def check_pivot_rows_contract(rows, need, out, columns):
    """Assert that out = pivot_rows(rows, need) keeps the kernel's contract.

    rows are dict rows whose keys all lie in `columns`, ascending.  The
    determinant is 0 exactly when the rank is below `need`.  The chosen
    rows are ascending and independent, and they are the reference's
    whenever rows[:need] already has rank `need`.  At `need` equal to the
    column count the determinant is that of the chosen rows, by the
    reference on exactly those rows; below it, it is a minor on columns
    that the pivot rule picks, so only its zero-ness is fixed.
    """
    chosen, det = out
    ref_chosen, ref_det = reference_pivot_rows(rows, need, columns)
    assert (det == 0) == (ref_det == 0)
    assert chosen == sorted(set(chosen))
    if reference_pivot_rows(rows[:need], need, columns)[1]:
        assert chosen == ref_chosen
    if det:
        picked_det = reference_pivot_rows([rows[i] for i in chosen], need,
                                          columns)[1]
        assert len(chosen) == need and picked_det
        if need == len(columns):
            assert det == picked_det


def _descending_monomials(num_vars, degree):
    """Exponent tuples of one total degree, descending lexicographically."""
    return sorted((e for e in product(range(degree + 1), repeat=num_vars)
                   if sum(e) == degree), reverse=True)


def _reference_boundary(int_dicts, n, m, k):
    """Dense matrix of the Koszul boundary from level k to level k-1.

    Built from the boundary formula alone: the basis of level k is
    e_S (x) v with S a k-subset of the components in lexicographic order
    and, within each S, v a monomial of degree t - k*m in descending
    lexicographic order, and e_S (x) v maps to
    sum_idx (-1)^idx * f_{S[idx]} * v (x) e_{S minus S[idx]}.
    """
    t = (n + 1) * (m - 1) + 1

    def basis(level):
        return [(s, v) for s in combinations(range(n + 1), level)
                for v in _descending_monomials(n + 1, t - level * m)]

    column = {key: i for i, key in enumerate(basis(k - 1))}
    rows = []
    for s, v in basis(k):
        row = [0] * len(column)
        for idx, i in enumerate(s):
            face = s[:idx] + s[idx + 1:]
            for e, a in int_dicts[i].items():
                w = tuple(x + y for x, y in zip(e, v))
                row[column[face, w]] += (-1) ** idx * a
        rows.append(row)
    return rows


def integer_components(f):
    """Each component times the lcm of its denominators, with the lcms.

    Scaling component j by lcms[j] scales the resultant by
    lcms[j] ** (m ** n), so the resultant of f is that of the integer
    components divided by prod(lcms) ** (m ** n).
    """
    lcms = [lcm(*(c.denominator for _, c in comp.terms))
            for comp in f.components]
    return ([{e: int(c * k) for e, c in comp.terms}
             for comp, k in zip(f.components, lcms)], lcms)


def reference_koszul_determinant(int_dicts, n, m):
    """Cayley's product of the Koszul complex with the reference kernel.

    Every level's dense boundary matrix, from _reference_boundary, goes to
    the dense loop in ascending basis order (no matching of pure powers,
    no reordering of leftover rows), so it picks the first independent
    rows.  The product is prod_k sigma_k * det(A_k)^((-1)^(k+1)), with
    sigma_k the sign that lists level k as (unpicked rows, picked rows),
    and 0 when a level finds too few pivots.  It does not depend on which
    rows are picked.
    """
    value = Fraction(1)
    t = (n + 1) * (m - 1) + 1
    live = list(range(len(_descending_monomials(n + 1, t))))
    k = 1
    while live:
        rows = _reference_boundary(int_dicts, n, m, k)
        picked, det = _dense_pivot_rows(
            [[row[c] for c in live] for row in rows], len(live))
        if det == 0:
            return Fraction(0)
        live = [r for r in range(len(rows)) if r not in picked]
        det *= _inversion_sign(live + picked)
        value = value * det if k % 2 else value / det
        k += 1
    return value


def _dense_det(rows):
    """Determinant of a square integer matrix by dense fraction-free
    (Bareiss) elimination, swapping in the first row with a nonzero entry
    where a pivot is 0.  Every division is exact."""
    a = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        top = a[k]
        for row in a[k + 1:]:
            x = row[k]
            row[k + 1:] = [(y * top[k] - x * z) // prev
                           for y, z in zip(row[k + 1:], top[k + 1:])]
        prev = top[k]
    return sign * prev


def macaulay_ratio(f):
    """det M / det M' for Macaulay's matrices of a map with integer
    coefficients, built from the definition, or None when det M' = 0
    (Macaulay, Proc. London Math. Soc. 35, 1902; Cox, Little and O'Shea,
    Using Algebraic Geometry, ch. 3 section 4).

    Rows and columns of M are indexed alike by the monomials u of degree
    t = (n+1)(m-1)+1; the row of u holds the coefficients of
    (u / x_j^m) * f_j, with j the least index where u_j >= m.  M' is the
    submatrix of M on the monomials that are not reduced: those with at
    least two exponents >= m.  When det M' != 0, det M / det M' is the
    resultant normalized to 1 on the power map.  det M' is computed
    first, and det M only when it is not 0.  Nothing here calls linalg or
    resultant.
    """
    n, m = f.n, f.m
    monos = _descending_monomials(n + 1, (n + 1) * (m - 1) + 1)
    column = {u: i for i, u in enumerate(monos)}
    rows = []
    for u in monos:
        j = next(i for i, x in enumerate(u) if x >= m)
        row = [0] * len(monos)
        for e, c in f.components[j].terms:
            assert c.denominator == 1, "integer coefficients only"
            row[column[tuple(x + y - m * (i == j) for i, (x, y)
                             in enumerate(zip(u, e)))]] = int(c)
        rows.append(row)
    kept = [i for i, u in enumerate(monos) if sum(x >= m for x in u) > 1]
    det_sub = _dense_det([[rows[i][c] for c in kept] for i in kept])
    return Fraction(_dense_det(rows), det_sub) if det_sub else None


def random_invertible(rng: Random, size: int, lo: int = -3, hi: int = 3):
    from projstab.linalg import det_rational
    while True:
        m = [[Fraction(rng.randint(lo, hi)) for _ in range(size)]
             for _ in range(size)]
        if det_rational([row[:] for row in m]) != 0:
            return m


def reference_solution_satisfies(f, sol):
    """<c, I> - b_j = C on every supported term, in plain Fractions."""
    return all(sum((x * k for x, k in zip(sol.c, e)), Fraction(0))
               - sol.b[j] == sol.C
               for j, comp in enumerate(f.components) for e, _ in comp.terms)


def reference_hyperplane_partition(f, sol):
    """(hyperplane_classes, multisets_equal) from the rational levels
    b_j + C, grouped and compared as Fractions."""
    levels = [b + sol.C for b in sol.b]
    classes = {}
    for j, level in enumerate(levels):
        classes.setdefault(level, []).append(j)
    return (tuple((level, tuple(js))
                  for level, js in sorted(classes.items(), reverse=True)),
            sorted(levels) == sorted(f.m * x for x in sol.c))


def reference_block_from_stabilizer(f, sol):
    """(V', H') on the top vertex level max(m*c_i), in Fractions, or None
    for a constant c."""
    if len(set(sol.c)) <= 1:
        return None
    top = max(sol.c)
    return (frozenset(i for i, x in enumerate(sol.c) if x == top),
            frozenset(j for j, b in enumerate(sol.b)
                      if b + sol.C == f.m * top))


def full_stabilizer_rows(f):
    """The unreduced stabilizer system, one integer row
    (I, -1 at b_j, -1 for C) per supported term, as dict rows."""
    nv = f.num_vars
    rows = []
    for j, comp in enumerate(f.components):
        for e, _ in comp.terms:
            row = {c: x for c, x in enumerate(e) if x}
            row[nv + j] = -1
            row[2 * nv] = -1
            rows.append(row)
    return rows
