"""Morphism certification and exact resultants.

A degree-m tuple defines a morphism of projective spaces exactly when its
components have no common zero besides the origin, i.e. when the resultant
of the n+1 forms is nonzero.

is_morphism decides this by one certificate at the critical degree
t = (n+1)(m-1) + 1: the forms have no common zero exactly when every form
of degree t is a polynomial combination of them, i.e. when the matrix of
all products (monomial of degree t-m) * f_i has full column rank.  A zero
component or an uncovered simplex vertex shows a common zero at once; full
rank modulo one word-size prime implies full rank over Q; otherwise the
exact rank, by fraction-free integer elimination, decides.

The resultant's value comes from one of two constructions:

* sylvester_resultant: the classical 2m x 2m determinant for n = 1;
* macaulay_resultant: the general construction at the critical degree
  t = (n+1)(m-1) + 1.  Columns are indexed by the degree-t monomials in
  descending lexicographic order; the row for a column monomial u is the
  expansion of (u / x_i^m) * f_i, where i is the least index with
  u_i >= m.  With rows aligned to columns the quotient

      det(numerator matrix) / det(minor on non-reduced monomials)

  is the resultant normalized so coordinate power maps give exactly 1.
  (A monomial is non-reduced when at least two of its exponents reach m.)

The minor determinant can vanish for special coefficient values even when
the resultant is defined; in that case the source coordinates are changed
by seeded unimodular triangular matrices (entries in -2..2) and the
computation retried.  A unimodular change leaves the resultant fixed
(a general source change g multiplies it by det(g)^(m^(n+1))), so no
correction is needed; after max_retries failures the value is reported as
Indeterminate rather than guessed (is_morphism has then shown that it is
nonzero).

ff_zero_probe is the independent cross-check: an exhaustive scan for
common zeros over a small prime field.  Any zero it finds forces the exact
resultant to reduce to 0 modulo that prime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from . import ffield, linalg
from .errors import SizeLimit, WrongDimension
from .poly import (Fraction as _F, LinearChange, MultiIndex, ProjectiveMap,
                   apply_linear_change)
from .weights import vertex_coverage

DEFAULT_PROBE_PRIMES = (101, 103, 107)

# Full rank modulo any prime implies full rank over Q, so the modular rank
# only ever shortcuts the positive answer of is_morphism.
_CERTIFICATE_PRIME = 1000003

# Bound on the column count of the critical-degree matrices (the Macaulay
# matrix and the certificate's multiplication matrix).
MATRIX_SIZE_LIMIT = 5000

NORMALIZATION_NOTE = "resultant normalized to 1 on coordinate power maps"


@dataclass(frozen=True)
class ResultantValue:
    """Outcome of the Macaulay construction.

    value is None exactly in the Indeterminate state (minor determinant
    vanished in every tried coordinate frame); retries and seed document
    the frames that were tried.  That state is only reached after
    is_morphism has shown the resultant to be nonzero.
    """

    value: Fraction | None
    retries: int = 0
    seed: int = 0
    note: str = ""

    @property
    def is_indeterminate(self) -> bool:
        return self.value is None


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


@lru_cache(maxsize=None)
def _macaulay_structure(n: int, m: int):
    """Column monomials, per-row assigned component and multiplier, minor rows."""
    t = (n + 1) * (m - 1) + 1
    cols = monomials_of_degree(n + 1, t)
    col_index = {u: k for k, u in enumerate(cols)}
    assigned = []
    multipliers = []
    for u in cols:
        i = next(k for k, e in enumerate(u) if e >= m)
        assigned.append(i)
        mult = list(u)
        mult[i] -= m
        multipliers.append(tuple(mult))
    non_reduced = tuple(k for k, u in enumerate(cols)
                        if sum(1 for e in u if e >= m) >= 2)
    return cols, col_index, tuple(assigned), tuple(multipliers), non_reduced


def _components_linearly_dependent(f: ProjectiveMap) -> bool:
    """Rank test of the component coefficient vectors.

    A dependence means the tuple spans at most n forms, whose common zero
    locus in P^n is nonempty, so the resultant vanishes; no source
    coordinate change can repair the Macaulay minor in that case.
    """
    union = sorted({e for comp in f.components for e, _ in comp.terms},
                   reverse=True)
    index = {e: i for i, e in enumerate(union)}
    rows = []
    for comp in f.components:
        row = [_F(0)] * len(union)
        for e, c in comp.terms:
            row[index[e]] = c
        rows.append(row)
    _, pivots = linalg.rref(rows)
    return len(pivots) < f.num_vars


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


def _macaulay_int_matrices(n: int, m: int, int_dicts: list[dict[MultiIndex, int]]):
    cols, col_index, assigned, multipliers, non_reduced = _macaulay_structure(n, m)
    dim = len(cols)
    rows = []
    for r in range(dim):
        row = [0] * dim
        shift = multipliers[r]
        for e, a in int_dicts[assigned[r]].items():
            col = tuple(x + y for x, y in zip(e, shift))
            row[col_index[col]] = a
        rows.append(row)
    minor = [[rows[r][c] for c in non_reduced] for r in non_reduced]
    return rows, minor


def _random_triangular_change(size: int, rng: random.Random, lower: bool
                              ) -> LinearChange:
    g = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(size):
            if (j < i) if lower else (j > i):
                g[i][j] = Fraction(rng.randint(-2, 2))
    eye = tuple(tuple(Fraction(int(i == j)) for j in range(size))
                for i in range(size))
    return LinearChange(tuple(tuple(row) for row in g), eye)


def _macaulay_determinants(f_int: list[dict[MultiIndex, int]], n: int, m: int
                           ) -> tuple[int, int]:
    rows, minor = _macaulay_int_matrices(n, m, f_int)
    det_minor = linalg.det_int_bareiss([list(r) for r in minor])
    if det_minor == 0:
        return 0, 0
    det_full = linalg.det_int_bareiss([list(r) for r in rows])
    return det_full, det_minor


def _int_map(f: ProjectiveMap, int_dicts: list[dict[MultiIndex, int]]
             ) -> ProjectiveMap:
    from .poly import _map_from_dicts
    return _map_from_dicts(f.n, f.m, [{e: _F(a) for e, a in d.items()}
                                      for d in int_dicts])


def _check_matrix_size(n: int, m: int) -> None:
    dim = comb((n + 1) * (m - 1) + 1 + n, n)
    if dim > MATRIX_SIZE_LIMIT:
        raise SizeLimit(f"critical-degree matrices would have {dim} columns, "
                        f"above the {MATRIX_SIZE_LIMIT} bound")


def macaulay_resultant(f: ProjectiveMap, seed: int = 0, max_retries: int = 8
                       ) -> ResultantValue:
    """Exact resultant of the n+1 components via the Macaulay quotient.

    Returns 0 directly for the two situations where a common zero is
    already explicit (a zero component; an uncovered simplex vertex, which
    puts a common zero at that coordinate point).  Otherwise computes the
    determinant quotient, retrying in random unimodular frames when the
    minor degenerates, and reports Indeterminate after max_retries.
    """
    n, m = f.n, f.m
    _check_matrix_size(n, m)
    if any(comp.is_zero() for comp in f.components):
        return ResultantValue(Fraction(0), seed=seed, note="zero component")
    if not all(vertex_coverage(f)):
        return ResultantValue(Fraction(0), seed=seed,
                              note="uncovered simplex vertex")
    if _components_linearly_dependent(f):
        return ResultantValue(Fraction(0), seed=seed,
                              note="linearly dependent components")
    int_dicts, correction = _scale_components_to_int(f)
    det_full, det_minor = _macaulay_determinants(int_dicts, n, m)
    if det_minor != 0:
        return ResultantValue(Fraction(det_full, det_minor) / correction,
                              seed=seed)
    rng = random.Random(seed)
    base = _int_map(f, int_dicts)
    for attempt in range(1, max_retries + 1):
        change = _random_triangular_change(n + 1, rng, lower=bool(attempt % 2))
        moved = apply_linear_change(base, change)
        moved_dicts = [{e: int(c) for e, c in comp.terms}
                       for comp in moved.components]
        det_full, det_minor = _macaulay_determinants(moved_dicts, n, m)
        if det_minor != 0:
            # Unimodular source change: resultant unchanged (the general
            # factor det(g)^(m^(n+1)) is 1 here).
            return ResultantValue(Fraction(det_full, det_minor) / correction,
                                  retries=attempt, seed=seed)
    # The quotient stayed 0/0, but the morphism certificate still decides
    # vanishing exactly.
    if not is_morphism(f):
        return ResultantValue(Fraction(0), retries=max_retries, seed=seed,
                              note="rank deficient at critical degree")
    return ResultantValue(None, retries=max_retries, seed=seed,
                          note="nonzero (full critical-degree rank) but the "
                               "minor determinant vanished in every frame")


def _critical_degree_rows(int_dicts: list[dict[MultiIndex, int]],
                          n: int, m: int) -> tuple[list[list[int]], int]:
    """All products (monomial of degree t-m) * f_i as coefficient rows.

    Unlike the square Macaulay matrix this keeps every multiplier for every
    component, so its column rank is full exactly when the components span
    all forms of degree t.
    """
    t = (n + 1) * (m - 1) + 1
    cols = monomials_of_degree(n + 1, t)
    col_index = {u: k for k, u in enumerate(cols)}
    rows = []
    for d in int_dicts:
        for v in monomials_of_degree(n + 1, t - m):
            row = [0] * len(cols)
            for e, a in d.items():
                row[col_index[tuple(x + y for x, y in zip(e, v))]] = a
            rows.append(row)
    return rows, len(cols)


def is_morphism(f: ProjectiveMap) -> bool:
    """True iff the components have no common zero in P^n.

    The certificate is surjectivity at the critical degree: every form of
    degree t = (n+1)(m-1)+1 is a polynomial combination of the components
    exactly when the critical-degree multiplication matrix has full column
    rank.  A zero component or an uncovered vertex gives False at once;
    full rank modulo one prime gives True; otherwise the exact integer rank
    decides.  Raises SizeLimit before building a matrix with more than
    MATRIX_SIZE_LIMIT columns.
    """
    _check_matrix_size(f.n, f.m)
    if any(comp.is_zero() for comp in f.components):
        return False
    if not all(vertex_coverage(f)):
        return False
    int_dicts, _ = _scale_components_to_int(f)
    rows, ncols = _critical_degree_rows(int_dicts, f.n, f.m)
    if linalg.rank_mod_p(rows, _CERTIFICATE_PRIME) == ncols:
        return True
    return linalg.rank_rational(rows) == ncols


def ff_zero_probe(f: ProjectiveMap, prime: int) -> ProbeReport:
    """Exhaustive scan of P^n(F_prime) for common zeros of all components."""
    zeros = ffield.common_zeros_mod_p(f, prime)
    return ProbeReport(prime, tuple(zeros))
