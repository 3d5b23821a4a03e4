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
  products (monomial of degree t-m) * f_i has full column rank.  A zero
  component or an uncovered simplex vertex shows a common zero at once;
  full rank modulo one word-size prime implies full rank over Q; otherwise
  the exact rank, by fraction-free integer elimination, decides.
* macaulay_resultant computes the determinant.  Bottom up, each level k
  picks rows R_k whose square block A_k on the columns that level k-1 left
  unpicked is nonsingular; level 1 tries Macaulay's rows first (for each
  degree-t monomial u, (u / x_i^m) * f_i with i the least index where
  u_i >= m), so its block is Macaulay's matrix whenever that is
  nonsingular.  The value is

      eps(n, m) * prod_k sigma_k * det(A_1) * det(A_2)^-1 * det(A_3) ...

  with every A_k in ascending basis order, sigma_k the sign of the
  permutation listing level k as (unpicked rows, R_k), each part
  ascending, and eps(n, m) = +-1 the same expression on the coordinate
  power map, so that power maps give exactly 1.  The product does not
  depend on which rows are picked, so the value is exact in every frame.
  If a level finds too few pivots the complex is not exact and the value
  is 0.
* sylvester_resultant is the classical 2m x 2m determinant for n = 1.

ff_zero_probe is the independent cross-check: an exhaustive scan for
common zeros over a small prime field.  Any zero it finds forces the exact
resultant to reduce to 0 modulo that prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm

from . import ffield, linalg
from .errors import SizeLimit, WrongDimension
from .poly import Fraction as _F, MultiIndex, ProjectiveMap
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
class ResultantValue:
    """The exact resultant of a map, from macaulay_resultant.

    value is always a Fraction: Cayley's determinant of the Koszul complex
    at the critical degree (Gelfand-Kapranov-Zelevinsky 1994), with each
    level's sign sigma_k as in the module docstring and the overall sign
    fixed so that coordinate power maps give exactly 1.  It is exact in
    every frame, and 0 exactly when the components share a zero.  note
    says which explicit common zero gave the value 0 without any
    determinant, and is empty otherwise.
    """

    value: Fraction
    note: str = ""

    @property
    def is_indeterminate(self) -> bool:
        """Always False: the Koszul determinant is exact in every frame."""
        return False


@dataclass(frozen=True)
class ProbeReport:
    """Common zeros of a map over one prime field, canonically ordered."""

    prime: int
    zeros_found: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def monomials_of_degree(num_vars: int, degree: int) -> tuple[MultiIndex, ...]:
    """All exponent tuples of the given total degree, descending lex."""
    if num_vars == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(num_vars - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


def sylvester_matrix(f: ProjectiveMap) -> list[list[Fraction]]:
    if f.n != 1:
        raise WrongDimension(f"Sylvester matrix needs n = 1, got n = {f.n}")
    m = f.m
    coeff_rows = []
    for comp in f.components:
        d = comp.as_dict()
        coeff_rows.append([d.get((m - i, i), _F(0)) for i in range(m + 1)])
    size = 2 * m
    mat = [[_F(0)] * size for _ in range(size)]
    for k in range(m):
        for i in range(m + 1):
            mat[k][k + i] = coeff_rows[0][i]
            mat[m + k][k + i] = coeff_rows[1][i]
    return mat


def sylvester_resultant(f: ProjectiveMap) -> Fraction:
    """Resultant of two binary degree-m forms; 0 iff a shared projective root."""
    return linalg.det_rational(sylvester_matrix(f))


def _scale_components_to_int(f: ProjectiveMap) -> tuple[list[dict[MultiIndex, int]], Fraction]:
    """Integer copies of the components plus the resultant scale factor.

    Multiplying component j by lambda_j multiplies the resultant by
    lambda_j^(m^n); the returned correction is the product of those factors.
    """
    dicts = []
    correction = Fraction(1)
    deg = f.m ** f.n
    for comp in f.components:
        denoms = [c.denominator for _, c in comp.terms]
        mult = lcm(*denoms) if denoms else 1
        dicts.append({e: int(c * mult) for e, c in comp.terms})
        correction *= Fraction(mult) ** deg
    return dicts, correction


def _check_matrix_size(n: int, m: int) -> None:
    dim = comb((n + 1) * (m - 1) + 1 + n, n)
    if dim > MATRIX_SIZE_LIMIT:
        raise SizeLimit(f"critical-degree matrices would have {dim} columns, "
                        f"above the {MATRIX_SIZE_LIMIT} bound")


def _explicit_zero(f: ProjectiveMap) -> str:
    """Why a common zero is explicit in the support, or "" if it is not.

    A zero component vanishes everywhere; an uncovered simplex vertex puts
    a common zero at that coordinate point.
    """
    if any(comp.is_zero() for comp in f.components):
        return "zero component"
    if not all(vertex_coverage(f)):
        return "uncovered simplex vertex"
    return ""


@lru_cache(maxsize=None)
def _koszul_level(n: int, m: int, k: int) -> tuple[dict, dict]:
    """Index of the basis e_S (x) v of level k at the critical degree.

    S runs over the k-subsets of the components in lexicographic order and,
    within each S, v over the monomials of degree t - k*m in descending
    lexicographic order; e_S (x) v sits at offset[S] + position[v].
    """
    t = (n + 1) * (m - 1) + 1
    monos = monomials_of_degree(n + 1, t - k * m)
    offset = {s: i * len(monos)
              for i, s in enumerate(combinations(range(n + 1), k))}
    return offset, {v: i for i, v in enumerate(monos)}


def _koszul_rows(int_dicts: list[dict[MultiIndex, int]], n: int, m: int,
                 k: int) -> list[list[int]]:
    """Matrix of the Koszul boundary from level k to level k-1.

    The row of e_S (x) v is the expansion of
    sum_idx (-1)^idx * f_{S[idx]} * v (x) e_{S minus S[idx]}.  Level 1 lists
    every product (monomial of degree t-m) * f_i, component by component.
    """
    offset, position = _koszul_level(n, m, k)
    col_offset, col_position = _koszul_level(n, m, k - 1)
    ncols = len(col_offset) * len(col_position)
    rows = []
    for s in offset:
        for v in position:
            row = [0] * ncols
            for idx, i in enumerate(s):
                base = col_offset[s[:idx] + s[idx + 1:]]
                sign = -1 if idx % 2 else 1
                for e, a in int_dicts[i].items():
                    row[base + col_position[tuple(x + y for x, y in
                                                  zip(e, v))]] = sign * a
            rows.append(row)
    return rows


@lru_cache(maxsize=None)
def _level_one_order(n: int, m: int) -> tuple[int, ...]:
    """Level-1 rows to try first: Macaulay's rows, then all others.

    For each degree-t monomial u in column order, Macaulay's row is
    (u / x_i^m) * f_i with i the least index where u_i >= m.
    """
    _, cols = _koszul_level(n, m, 0)
    offset, position = _koszul_level(n, m, 1)
    first = []
    for u in cols:
        i = next(j for j, e in enumerate(u) if e >= m)
        first.append(offset[(i,)] + position[u[:i] + (u[i] - m,) + u[i + 1:]])
    taken = set(first)
    return tuple(first) + tuple(r for r in range(len(offset) * len(position))
                                if r not in taken)


def _koszul_determinant(int_dicts: list[dict[MultiIndex, int]], n: int,
                        m: int) -> Fraction:
    """Cayley determinant of the Koszul complex at the critical degree.

    Bottom up, level k picks rows R_k whose block A_k on the columns left
    over by level k-1 is nonsingular.  The value is the product of
    sigma_k * det(A_k)^((-1)^(k+1)), where A_k has its rows and columns in
    ascending basis order and sigma_k is the sign that lists level k as
    (unpicked rows, R_k).  It is 0 when some level finds too few pivots,
    i.e. when the complex is not exact.
    """
    value = Fraction(1)
    live = list(range(len(_koszul_level(n, m, 0)[1])))
    k = 1
    while live:
        rows = _koszul_rows(int_dicts, n, m, k)
        order = _level_one_order(n, m) if k == 1 else range(len(rows))
        positions, det = linalg.pivot_rows(
            [[rows[r][c] for c in live] for r in order], len(live))
        if det == 0:
            return Fraction(0)
        picked = [order[p] for p in positions]
        taken = set(picked)
        live = [r for r in range(len(rows)) if r not in taken]
        # Sorting the picked rows and listing the level as (unpicked,
        # picked) is one permutation.
        det *= linalg.permutation_sign(live + picked)
        value = value * det if k % 2 else value / det
        k += 1
    return value


@lru_cache(maxsize=None)
def _power_map_sign(n: int, m: int) -> Fraction:
    """The Koszul determinant of the power map, +1 or -1."""
    dicts = [{tuple(m * (i == j) for i in range(n + 1)): 1}
             for j in range(n + 1)]
    return _koszul_determinant(dicts, n, m)


def macaulay_resultant(f: ProjectiveMap) -> ResultantValue:
    """Exact resultant of the n+1 components, in the given frame.

    Returns 0 at once when a common zero is explicit in the support (a zero
    component or an uncovered simplex vertex).  Otherwise it is the
    Koszul-complex determinant of the integer-scaled components, times the
    sign that makes the power map give 1, divided by the scaling factor.
    """
    n, m = f.n, f.m
    _check_matrix_size(n, m)
    note = _explicit_zero(f)
    if note:
        return ResultantValue(Fraction(0), note=note)
    int_dicts, correction = _scale_components_to_int(f)
    value = _koszul_determinant(int_dicts, n, m) * _power_map_sign(n, m)
    return ResultantValue(value / correction)


def is_morphism(f: ProjectiveMap) -> bool:
    """True iff the components have no common zero in P^n.

    The certificate is surjectivity at the critical degree: every form of
    degree t = (n+1)(m-1)+1 is a polynomial combination of the components
    exactly when the level-1 Koszul matrix of all products
    (monomial of degree t-m) * f_i has full column rank.  An explicit zero
    in the support gives False at once; full rank modulo one prime gives
    True; otherwise the exact integer rank decides.  Raises SizeLimit
    before building a matrix with more than MATRIX_SIZE_LIMIT columns.
    """
    _check_matrix_size(f.n, f.m)
    if _explicit_zero(f):
        return False
    int_dicts, _ = _scale_components_to_int(f)
    rows = _koszul_rows(int_dicts, f.n, f.m, 1)
    ncols = len(rows[0])
    if linalg.rank_mod_p(rows, _CERTIFICATE_PRIME) == ncols:
        return True
    return linalg.pivot_rows(rows, ncols)[1] != 0


def default_probe_primes(n: int) -> tuple[int, ...]:
    """Up to three largest primes <= 107 whose P^n(F_p) scan fits, ascending.

    Gives 101, 103, 107 for n <= 2 and 83, 89, 97 for n = 3.  Raises
    SizeLimit when not even P^n(F_2) fits in ffield.POINT_LIMIT.
    """
    fits = [p for p in range(_PROBE_PRIME_CEILING, 1, -1)
            if ffield.is_prime(p)
            and ffield.point_count(n, p) <= ffield.POINT_LIMIT][:3]
    if not fits:
        raise SizeLimit(f"no prime up to {_PROBE_PRIME_CEILING} has P^{n}(F_p) "
                        f"within the {ffield.POINT_LIMIT} point bound")
    return tuple(sorted(fits))


def ff_zero_probe(f: ProjectiveMap, prime: int) -> ProbeReport:
    """Exhaustive scan of P^n(F_prime) for common zeros of all components."""
    zeros = ffield.common_zeros_mod_p(f, prime)
    return ProbeReport(prime, tuple(zeros))
