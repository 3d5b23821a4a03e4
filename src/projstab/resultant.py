"""Morphism certification and exact resultants.

A degree-m tuple defines a morphism of projective spaces exactly when its
components have no common zero besides the origin, i.e. when the resultant
of the n+1 forms is nonzero.

Both questions are read off the Koszul complex of the forms in the critical
degree t = (n+1)(m-1) + 1.  Level k has the basis e_S (x) v, with S a
k-subset of the components and v a monomial of degree t - k*m; the
boundary sends e_S (x) v to sum_idx (-1)^idx * f_{S[idx]} * v (x)
e_{S minus S[idx]}.  The complex is exact exactly when the forms have no
common zero, and then its determinant (Cayley's, the torsion of the based
complex) is the resultant up to a sign that depends only on (n, m)
(Gelfand, Kapranov and Zelevinsky, Discriminants, Resultants and
Multidimensional Determinants, 1994, ch. 3 and appendix A).

* is_morphism tests exactness at the bottom: the level-1 matrix of all
  products (monomial of degree t-m) * f_i has full column rank.  Full
  rank modulo one word-size prime (linalg.rank_mod_p) implies full rank
  over Q; otherwise _level_one_pivots, the exact level-1 elimination that
  macaulay_resultant starts with, decides.
* macaulay_resultant computes the determinant and returns it as an exact
  Fraction, 0 exactly when the forms share a zero, so a morphism verdict
  is read off it as value != 0.  Bottom up, each level k picks rows R_k
  whose square block A_k on the columns that level k-1 left unpicked is
  nonsingular.  Level 1 tries Macaulay's rows first (_level_one_order),
  for a matching of the components to pure powers x_j^m that they carry
  (_pure_power_matching): each row then has a nonzero coefficient on its
  own column, and their block (Macaulay's matrix of the matched forms) is
  singular far less often than with the identity when some f_j lacks
  x_j^m.  Every level eliminates its first rows and, when they are
  singular, completes them from the others through linalg.pivot_rows's
  reduced system.  The value is

      eps(n, m) * prod_k sigma_k * det(A_1) * det(A_2)^-1 * det(A_3) ...

  with every A_k in ascending basis order, sigma_k the sign of the
  permutation listing level k as (unpicked rows, R_k), each part
  ascending, and eps(n, m) = +-1 the same expression on the coordinate
  power map, so that power maps give exactly 1.  The product does not
  depend on which rows are picked, so the value is exact in every frame.
  If a level finds too few pivots the complex is not exact and the value
  is 0.
* sylvester_resultant is the classical 2m x 2m determinant for n = 1.

Both entry points reach the complex through one step, _koszul_input,
which answers at once for a common zero explicit in the support and
otherwise builds the level-1 rows of the integer-scaled components once.
Each level's offsets, positions and boundary column shifts are one cached
table, _koszul_level.

Every Koszul row has the one row format of linalg's elimination kernel: a
{column: value} dict of its nonzeros, at most 20 of them in a level-1 row
of 220 at (3, 3).  A later level is restricted to its live columns by key,
and only linalg.rank_mod_p, the modular fast accept of is_morphism, lays a
row out dense.

ff_zero_probe is the independent cross-check: an exhaustive scan for
common zeros over a small prime field (ffield.common_zeros_mod_p, which
goes through each chart line by line, keeps only the lines where the
Bezout resultant in t of the first two components restricted to the line
vanishes, and there takes the roots of their gcd at which the other
components vanish).  It shares no code with the Koszul elimination, and
any zero it finds forces the exact resultant to reduce to 0 modulo that
prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, lcm, prod

from . import ffield, linalg
from .errors import DimensionMismatch, SizeLimit, WrongDimension
from .poly import MultiIndex, ProjectiveMap, require_ints, shown
from .weights import vertex_coverage

# The default probe uses up to three of the largest primes up to this bound
# whose P^n(F_p) fits in ffield.POINT_LIMIT.
_PROBE_PRIME_CEILING = 107

# Full rank modulo any prime implies full rank over Q, so the modular rank
# only ever shortcuts the positive answer of is_morphism.
_CERTIFICATE_PRIME = 1000003

# Bound on the column count of the critical-degree matrices.
MATRIX_SIZE_LIMIT = 5000


@dataclass(frozen=True)
class ProbeReport:
    """Common zeros of a map over one prime field, canonically ordered."""

    prime: int
    zeros_found: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=32)
def monomials_of_degree(num_vars: int, degree: int) -> tuple[MultiIndex, ...]:
    """All exponent tuples of the given total degree, descending lex.

    combinations_with_replacement lists the multisets of `degree` variable
    indices in lexicographic order, which is descending lex on their
    exponent tuples.  There is no recursion, so num_vars is bounded only
    by the callers' size checks.  A negative degree has no monomials.  One
    variable has the one monomial x^degree: check_matrix_size passes every
    degree at n = 0, and a multiset of `degree` indices would not fit in
    memory for a large one.
    """
    if degree < 0:
        return ()
    if num_vars == 1:
        return ((degree,),)
    out = []
    for chosen in combinations_with_replacement(range(num_vars), degree):
        e = [0] * num_vars
        for i in chosen:
            e[i] += 1
        out.append(tuple(e))
    return tuple(out)


def sylvester_resultant(f: ProjectiveMap) -> Fraction:
    """Resultant of two binary degree-m forms; 0 iff a shared projective root.

    Row k < m of the 2m x 2m Sylvester matrix holds the coefficients of
    x0^m, x0^(m-1)*x1, ..., x1^m of f_0 from column k on; row m + k those
    of f_1.
    """
    if f.n != 1:
        raise WrongDimension(f"Sylvester matrix needs n = 1, got n = {f.n}")
    m, zero = f.m, Fraction(0)
    coeffs = [[comp.as_dict().get((m - i, i), zero) for i in range(m + 1)]
              for comp in f.components]
    return linalg.det_rational([
        [coeffs[r // m][c - r % m] if 0 <= c - r % m <= m else zero
         for c in range(2 * m)] for r in range(2 * m)])


def check_matrix_size(n: int, m: int) -> None:
    """Raise SizeLimit when the critical-degree matrices of a degree-m map
    of P^n would have more than MATRIX_SIZE_LIMIT columns."""
    top = (n + 1) * (m - 1) + 1 + n
    # comb(top, n) >= top when 0 < n < top: a large n or m is refused early
    if n and top > MATRIX_SIZE_LIMIT or comb(top, n) > MATRIX_SIZE_LIMIT:
        raise SizeLimit(f"critical-degree matrices of a degree-{shown(m)} map"
                        f" of P^{shown(n)} would have more than "
                        f"{MATRIX_SIZE_LIMIT} columns")


@lru_cache(maxsize=32)
def _koszul_level(n: int, m: int, k: int) -> tuple[dict, dict, dict]:
    """Index of the basis e_S (x) v of level k at the critical degree.

    S runs over the k-subsets of the components in lexicographic order and,
    within each S, v over the monomials of degree t - k*m in descending
    lexicographic order; e_S (x) v sits at offset[S] + position[v].

    shifts[e][vi], for a degree-m exponent e, is the position of e + v
    among the monomials of level k-1, for v the vi-th monomial of level k,
    so a boundary term f_i * v (x) e_face sits at
    offset[face] + shifts[e][vi].  Level 0 has no boundary and no shifts.
    The cache is bounded, since level k's shifts hold
    C(n+m, n) * C(t-k*m+n, n) positions.
    """
    t = (n + 1) * (m - 1) + 1
    monos = monomials_of_degree(n + 1, t - k * m)
    offset = {s: i * len(monos)
              for i, s in enumerate(combinations(range(n + 1), k))}
    position = {v: i for i, v in enumerate(monos)}
    if not k:
        return offset, position, {}
    col_position = _koszul_level(n, m, k - 1)[1]
    return offset, position, {
        e: tuple(col_position[tuple(x + y for x, y in zip(e, v))]
                 for v in monos)
        for e in monomials_of_degree(n + 1, m)}


def _koszul_rows(int_dicts: list[dict[MultiIndex, int]], n: int, m: int,
                 k: int) -> list[dict[int, int]]:
    """Matrix of the Koszul boundary from level k to level k-1.

    The row of e_S (x) v is the expansion of
    sum_idx (-1)^idx * f_{S[idx]} * v (x) e_{S minus S[idx]}, as a
    {column: value} dict of its nonzeros, the row format of
    linalg.pivot_rows.  Level 1 lists every product
    (monomial of degree t-m) * f_i, component by component.

    The columns come from the shifts of _koszul_level(n, m, k), which list
    for each degree-m exponent e the positions of e + v over level k's
    monomials v.  Each term (e, a) of a component becomes (shifts[e], a)
    once, and each face of S fixes its column offset and sign once, so an
    entry is one table read and one addition: no exponent tuple is built
    per entry.
    """
    offset, position, shifts = _koszul_level(n, m, k)
    col_offset = _koszul_level(n, m, k - 1)[0]
    terms = [[(shifts[e], a) for e, a in comp.items()] for comp in int_dicts]
    rows = []
    for s in offset:
        faces = [(col_offset[s[:idx] + s[idx + 1:]], -1 if idx % 2 else 1,
                  terms[i]) for idx, i in enumerate(s)]
        for vi in range(len(position)):
            row = {}
            for base, sign, pairs in faces:
                for shift, a in pairs:
                    row[base + shift[vi]] = sign * a
            rows.append(row)
    return rows


def _pure_power_matching(int_dicts: list[dict[MultiIndex, int]], n: int,
                         m: int) -> tuple[int, ...]:
    """lead[j]: a distinct component with a nonzero x_j^m term for each j.

    The first such permutation in lexicographic order, so the identity
    whenever every f_j carries x_j^m; the identity when none exists, and
    always at m = 1, where level 1 has n+1 rows on n+1 columns and every
    row is one of Macaulay's rows whatever the lead.  check_matrix_size,
    which runs before every call, allows n <= 6 once m >= 2, so at most
    7! = 5040 permutations are tried.
    """
    identity = tuple(range(n + 1))
    if m == 1:
        return identity
    powers = {(i, e.index(m)) for i, comp in enumerate(int_dicts)
              for e in comp if m in e}  # a term with an exponent m: x_j^m
    return next((lead for lead in permutations(identity)
                 if all((i, j) in powers for j, i in enumerate(lead))),
                identity)


@lru_cache(maxsize=64)
def _level_one_order(n: int, m: int,
                     lead: tuple[int, ...]) -> tuple[int, ...]:
    """Level-1 rows to try first: Macaulay's rows, then all others.

    For each degree-t monomial u in column order, Macaulay's row is
    (u / x_j^m) * f_lead[j] with j the least index where u_j >= m.  The
    cache is bounded, since a map of P^n can have up to (n+1)! matchings.
    """
    cols = _koszul_level(n, m, 0)[1]
    offset, position, _ = _koszul_level(n, m, 1)
    first = []
    for u in cols:
        j = next(j for j, e in enumerate(u) if e >= m)
        first.append(offset[(lead[j],)]
                     + position[u[:j] + (u[j] - m,) + u[j + 1:]])
    taken = set(first)
    return tuple(first) + tuple(r for r in range(len(offset) * len(position))
                                if r not in taken)


def _level_one_pivots(int_dicts: list[dict[MultiIndex, int]], n: int,
                      m: int, rows: list[dict[int, int]]
                      ) -> tuple[list[int], int]:
    """Exact elimination of the level-1 rows, Macaulay's rows first.

    rows is _koszul_rows(int_dicts, n, m, 1).  The rows go to
    linalg.pivot_rows in _level_one_order for the pure-power matching of
    the components, so Macaulay's rows are its first `need` rows: they are
    picked whenever their block is nonsingular, and otherwise the reduced
    system of the other rows supplies the missing pivots.  Returns the
    picked rows, by their level-1 index, and the determinant of their
    block, 0 exactly when the level-1 matrix has less than full column
    rank.
    """
    order = _level_one_order(n, m, _pure_power_matching(int_dicts, n, m))
    positions, det = linalg.pivot_rows([rows[r] for r in order],
                                       len(_koszul_level(n, m, 0)[1]))
    return [order[p] for p in positions], det


def _koszul_determinant(int_dicts: list[dict[MultiIndex, int]], n: int,
                        m: int, rows: list[dict[int, int]]) -> Fraction:
    """Cayley determinant of the Koszul complex at the critical degree.

    rows is _koszul_rows(int_dicts, n, m, 1).  Bottom up, level k picks
    rows R_k whose block A_k on the columns left over by level k-1 is
    nonsingular: level 1 by _level_one_pivots, every later level by
    linalg.pivot_rows on its rows restricted to those columns, which keep
    their keys.  The value is the product of the module docstring without
    eps(n, m), and 0 when some level finds too few pivots, i.e. when the
    complex is not exact.
    """
    value = Fraction(1)
    picked, det = _level_one_pivots(int_dicts, n, m, rows)
    k = 1
    while det:
        taken = set(picked)
        live = [r for r in range(len(rows)) if r not in taken]
        # Sorting the picked rows and listing the level as (unpicked,
        # picked) is one permutation.
        det *= linalg.permutation_sign(live + picked)
        value = value * det if k % 2 else value / det
        if not live:
            return value
        k += 1
        rows = _koszul_rows(int_dicts, n, m, k)
        picked, det = linalg.pivot_rows(
            [{c: x for c, x in row.items() if c not in taken}
             for row in rows], len(live))
    return Fraction(0)


@lru_cache(maxsize=None)
def _power_map_sign(n: int, m: int) -> Fraction:
    """The Koszul determinant of the power map, +1 or -1."""
    dicts = [{tuple(m * (i == j) for i in range(n + 1)): 1}
             for j in range(n + 1)]
    return _koszul_determinant(dicts, n, m, _koszul_rows(dicts, n, m, 1))


def _koszul_input(f: ProjectiveMap) -> tuple[
        list[dict[MultiIndex, int]], list[int], list[dict[int, int]]] | None:
    """The one way into the Koszul complex, shared by both entry points.

    Raises SizeLimit through check_matrix_size, then returns None when a
    common zero is explicit in the support: a zero component vanishes
    everywhere, and an uncovered simplex vertex is a common zero.
    Otherwise returns the components in integers, component j times
    lcms[j], the lcm of its denominators, together with the lcms and the
    level-1 rows _koszul_rows(int_dicts, n, m, 1).
    """
    check_matrix_size(f.n, f.m)
    if (any(comp.is_zero() for comp in f.components)
            or not all(vertex_coverage(f))):
        return None
    lcms = [lcm(*(c.denominator for _, c in comp.terms))
            for comp in f.components]
    int_dicts = [{e: c.numerator * (mult // c.denominator)
                  for e, c in comp.terms}
                 for comp, mult in zip(f.components, lcms)]
    return int_dicts, lcms, _koszul_rows(int_dicts, f.n, f.m, 1)


def macaulay_resultant(f: ProjectiveMap) -> Fraction:
    """Exact resultant of the n+1 components, in the given frame.

    Returns a Fraction, 0 exactly when the components share a zero in
    P^n, so the morphism verdict is the value != 0.  _koszul_input gives
    0 at once for a common zero explicit in the support.  Otherwise the
    value is the Koszul-complex determinant of the integer components,
    times the sign that makes the power map give 1, divided by the
    correction prod(lcms) ** (m ** n): scaling a component by lambda
    scales the resultant by lambda ** (m ** n).  Raises SizeLimit before
    building a matrix with more than MATRIX_SIZE_LIMIT columns.
    """
    n, m = f.n, f.m
    entry = _koszul_input(f)
    if entry is None:
        return Fraction(0)
    int_dicts, lcms, rows = entry
    value = _koszul_determinant(int_dicts, n, m, rows) * _power_map_sign(n, m)
    return value / prod(lcms) ** m ** n


def is_morphism(f: ProjectiveMap) -> bool:
    """True iff the components have no common zero in P^n.

    The certificate is surjectivity at the critical degree: every form of
    degree t = (n+1)(m-1)+1 is a polynomial combination of the components
    exactly when the level-1 Koszul matrix of all products
    (monomial of degree t-m) * f_i has full column rank, decided as the
    module docstring sets out.  Raises SizeLimit before building a matrix
    with more than MATRIX_SIZE_LIMIT columns.
    """
    n, m = f.n, f.m
    entry = _koszul_input(f)
    if entry is None:
        return False
    int_dicts, _, rows = entry
    ncols = len(_koszul_level(n, m, 0)[1])
    if linalg.rank_mod_p(rows, ncols, _CERTIFICATE_PRIME) == ncols:
        return True
    return _level_one_pivots(int_dicts, n, m, rows)[1] != 0


def default_probe_primes(n: int) -> tuple[int, ...]:
    """Up to three largest primes <= 107 whose P^n(F_p) scan fits, ascending.

    Gives 101, 103, 107 for n <= 2 and 83, 89, 97 for n = 3.  Raises
    DegreeMismatch unless n is an int (poly.require_ints), DimensionMismatch
    for n < 0, and SizeLimit when not even P^n(F_2) fits in
    ffield.POINT_LIMIT.  n is checked before the cached lookup, where 2.0
    and True would find the entries of 2 and 1.
    """
    require_ints("n", (n,))
    if n < 0:
        raise DimensionMismatch(f"n must be >= 0, got {shown(n)}")
    return _probe_primes(n)


@cache
def _probe_primes(n: int) -> tuple[int, ...]:
    # P^n(F_2) alone has 2^(n+1) - 1 > POINT_LIMIT points once n + 1 reaches
    # the bound's bit length, so no p^(n+1) is formed then.
    fits = [p for p in range(_PROBE_PRIME_CEILING, 1, -1)
            if n + 1 < ffield.POINT_LIMIT.bit_length() and ffield.is_prime(p)
            and ffield.point_count(n, p) <= ffield.POINT_LIMIT][:3]
    if not fits:
        raise SizeLimit(f"no prime up to {_PROBE_PRIME_CEILING} has "
                        f"P^{shown(n)}(F_p) "
                        f"within the {ffield.POINT_LIMIT} point bound")
    return tuple(sorted(fits))


def ff_zero_probe(f: ProjectiveMap, prime: int) -> ProbeReport:
    """Exhaustive scan of P^n(F_prime) for common zeros of all components."""
    zeros = ffield.common_zeros_mod_p(f, prime)
    return ProbeReport(prime, tuple(zeros))
