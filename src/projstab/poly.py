"""Homogeneous polynomial tuples with exact rational coefficients.

A map P^n -> P^n of algebraic degree m is stored as n+1 homogeneous
degree-m polynomials in the variables x_0..x_n.  Each polynomial is a
sparse term list

    terms = ((exponent_tuple, Fraction), ...)

kept in canonical form: descending lexicographic order on the exponent
tuples, no zero coefficients.  Canonical form makes structural equality a
plain tuple comparison and keeps every serialization byte-stable.

Everything here is immutable and pure: operations return new objects and
never touch their inputs, so values can be shared freely across threads.

Projective equality (equality of maps up to one global scalar) is a
separate predicate from structural equality; see maps_projectively_equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import DegreeMismatch, DimensionMismatch, SingularMatrix, ZeroMap
from . import linalg

MultiIndex = tuple[int, ...]
CoeffLike = Union[int, str, Fraction]

# Sparse polynomial used internally: exponent tuple -> nonzero Fraction.
TermDict = dict[MultiIndex, Fraction]


def _sorted_terms(d: TermDict) -> tuple[tuple[MultiIndex, Fraction], ...]:
    return tuple(sorted(d.items(), key=lambda t: t[0], reverse=True))


def _dict_mul(a: TermDict, b: TermDict) -> TermDict:
    out: TermDict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


def _dict_add_scaled(acc: TermDict, other: TermDict, scale: Fraction) -> None:
    if not scale:
        return
    for e, c in other.items():
        v = acc.get(e, 0) + scale * c
        if v:
            acc[e] = v
        elif e in acc:
            del acc[e]


@dataclass(frozen=True)
class HomogeneousPoly:
    """One homogeneous polynomial in num_vars variables of fixed degree."""

    degree: int
    num_vars: int
    terms: tuple[tuple[MultiIndex, Fraction], ...]

    @staticmethod
    def from_terms(degree: int, num_vars: int,
                   terms: Union[Mapping[Sequence[int], CoeffLike],
                                Iterable[tuple[Sequence[int], CoeffLike]]],
                   ) -> "HomogeneousPoly":
        """Build from (exponent, coefficient) pairs.

        Duplicate exponents are summed; zero results are dropped.  Raises
        DimensionMismatch / DegreeMismatch on malformed exponents.
        """
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        acc: TermDict = {}
        for exp, coeff in pairs:
            e = tuple(int(x) for x in exp)
            if len(e) != num_vars:
                raise DimensionMismatch(
                    f"exponent {e} has length {len(e)}, expected {num_vars}")
            if any(x < 0 for x in e):
                raise DegreeMismatch(f"exponent {e} has a negative entry")
            if sum(e) != degree:
                raise DegreeMismatch(
                    f"exponent {e} has total degree {sum(e)}, expected {degree}")
            c = acc.get(e, Fraction(0)) + Fraction(coeff)
            if c:
                acc[e] = c
            elif e in acc:
                del acc[e]
        return HomogeneousPoly(degree, num_vars, _sorted_terms(acc))

    def as_dict(self) -> TermDict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> frozenset[MultiIndex]:
        return frozenset(e for e, _ in self.terms)

    def coeff(self, exp: Sequence[int]) -> Fraction:
        key = tuple(exp)
        for e, c in self.terms:
            if e == key:
                return c
        return Fraction(0)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms:
            term = c
            for x, k in zip(point, e):
                if k:
                    term *= Fraction(x) ** k
            total += term
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                            for i, k in enumerate(e) if k)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class ProjectiveMap:
    """Tuple of n+1 homogeneous degree-m polynomials in x_0..x_n."""

    n: int
    m: int
    components: tuple[HomogeneousPoly, ...]

    @property
    def num_vars(self) -> int:
        return self.n + 1

    @property
    def topological_degree(self) -> int:
        """Number of preimages of a generic point: m^n."""
        return self.m ** self.n

    def support(self) -> tuple[frozenset[MultiIndex], ...]:
        return tuple(f.support() for f in self.components)

    def __str__(self) -> str:
        return "(" + ", ".join(str(f) for f in self.components) + ")"


@dataclass(frozen=True)
class LinearChange:
    """A pair (g, h) of invertible matrices acting by f -> h^-1 . f . g."""

    source_matrix: tuple[tuple[Fraction, ...], ...]
    target_matrix: tuple[tuple[Fraction, ...], ...]


def make_linear_change(source: Sequence[Sequence[CoeffLike]],
                       target: Sequence[Sequence[CoeffLike]]) -> LinearChange:
    """Validate and freeze a coordinate-change pair; raises SingularMatrix."""
    def freeze(mat, name):
        rows = tuple(tuple(Fraction(x) for x in row) for row in mat)
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise DimensionMismatch(f"{name} matrix is not square")
        if linalg.det_rational([list(r) for r in rows]) == 0:
            raise SingularMatrix(f"{name} matrix is singular")
        return rows

    return LinearChange(freeze(source, "source"), freeze(target, "target"))


def identity_change(size: int) -> LinearChange:
    eye = tuple(tuple(Fraction(int(i == j)) for j in range(size))
                for i in range(size))
    return LinearChange(eye, eye)


def make_map(n: int, m: int,
             coeffs: Sequence[Union[Mapping[Sequence[int], CoeffLike],
                                    Iterable[tuple[Sequence[int], CoeffLike]]]],
             ) -> ProjectiveMap:
    """Validated constructor for a projective map.

    n may be 0 (a single form in one variable); this is what the leaves of
    a recursive splitting look like.  Requires m >= 1, exactly n+1
    component term lists, and at least one nonzero component after
    cancellation (ZeroMap otherwise).  Individual zero components are
    allowed; they simply make the map a non-morphism later.
    """
    if n < 0:
        raise DimensionMismatch(f"n must be >= 0, got {n}")
    if m < 1:
        raise DegreeMismatch(f"degree must be >= 1, got {m}")
    if len(coeffs) != n + 1:
        raise DimensionMismatch(
            f"expected {n + 1} components, got {len(coeffs)}")
    components = tuple(HomogeneousPoly.from_terms(m, n + 1, c) for c in coeffs)
    if all(f.is_zero() for f in components):
        raise ZeroMap("all components vanish")
    return ProjectiveMap(n, m, components)


def _map_from_dicts(n: int, m: int, dicts: Sequence[TermDict]) -> ProjectiveMap:
    # Internal: trusts exponents, allows all-zero components (not all at once).
    comps = tuple(HomogeneousPoly(m, n + 1, _sorted_terms(d)) for d in dicts)
    return ProjectiveMap(n, m, comps)


def evaluate(f: ProjectiveMap, point: Sequence[CoeffLike]) -> tuple[Fraction, ...]:
    """Exact value (f_0(p), ..., f_n(p)); point should not be all-zero."""
    if len(point) != f.num_vars:
        raise DimensionMismatch(
            f"point has {len(point)} coordinates, expected {f.num_vars}")
    p = [Fraction(x) for x in point]
    return tuple(comp.evaluate(p) for comp in f.components)


def _compose_component(poly: HomogeneousPoly, inners: Sequence[TermDict],
                       out_vars: int) -> TermDict:
    """Expand poly(inner_0, ..., inner_k) as a sparse dict in out_vars."""
    one: TermDict = {(0,) * out_vars: Fraction(1)}
    # Power cache: powers[i][k] = inners[i] ** k.
    powers: list[list[TermDict]] = [[one] for _ in inners]
    result: TermDict = {}
    for exp, coeff in poly.terms:
        term = {(0,) * out_vars: coeff}
        for i, k in enumerate(exp):
            if k == 0:
                continue
            cache = powers[i]
            while len(cache) <= k:
                cache.append(_dict_mul(cache[-1], inners[i]))
            term = _dict_mul(term, cache[k])
        _dict_add_scaled(result, term, Fraction(1))
    return result


def apply_linear_change(f: ProjectiveMap, change: LinearChange) -> ProjectiveMap:
    """The group action ((g,h).f)(x) = h^-1(f(g(x))), fully expanded."""
    size = f.num_vars
    g, h = change.source_matrix, change.target_matrix
    if len(g) != size or len(h) != size:
        raise DimensionMismatch(
            f"change matrices are {len(g)}x{len(g)}, map needs {size}x{size}")
    h_inv = linalg.mat_inverse([list(r) for r in h])
    # x_i -> sum_k g[i][k] x_k, as degree-1 sparse polynomials.
    inners: list[TermDict] = []
    for i in range(size):
        row: TermDict = {}
        for k in range(size):
            if g[i][k]:
                e = tuple(int(k == j) for j in range(size))
                row[e] = Fraction(g[i][k])
        inners.append(row)
    substituted = [_compose_component(comp, inners, size)
                   for comp in f.components]
    new_dicts: list[TermDict] = []
    for j in range(size):
        acc: TermDict = {}
        for k in range(size):
            _dict_add_scaled(acc, substituted[k], h_inv[j][k])
        new_dicts.append(acc)
    return _map_from_dicts(f.n, f.m, new_dicts)


def compose(outer: ProjectiveMap, inner: ProjectiveMap) -> ProjectiveMap:
    """outer . inner, a map of degree outer.m * inner.m."""
    if outer.num_vars != inner.num_vars:
        raise DimensionMismatch(
            f"cannot compose maps on {inner.num_vars} and {outer.num_vars} variables")
    inner_dicts = [comp.as_dict() for comp in inner.components]
    new_dicts = [_compose_component(comp, inner_dicts, inner.num_vars)
                 for comp in outer.components]
    return _map_from_dicts(outer.n, outer.m * inner.m, new_dicts)


def iterate(f: ProjectiveMap, k: int) -> ProjectiveMap:
    """k-fold self-composition; the result has degree m^k."""
    if k < 1:
        raise ValueError(f"iteration count must be >= 1, got {k}")
    result = f
    for _ in range(k - 1):
        result = compose(f, result)
    return result


def support(f: ProjectiveMap) -> tuple[frozenset[MultiIndex], ...]:
    """Per-component sets of exponents with nonzero coefficient."""
    return f.support()


def _leading_coefficient(f: ProjectiveMap) -> Fraction:
    for comp in f.components:
        if comp.terms:
            return comp.terms[0][1]
    raise ZeroMap("map has no nonzero component")


def normalize_projectively(f: ProjectiveMap) -> ProjectiveMap:
    """Scale so the first nonzero coefficient (canonical scan order) is 1."""
    s = 1 / _leading_coefficient(f)
    return _map_from_dicts(f.n, f.m, [{e: c * s for e, c in comp.terms}
                                      for comp in f.components])


def maps_projectively_equal(f: ProjectiveMap, g: ProjectiveMap) -> bool:
    """Equality up to one global nonzero scalar."""
    if (f.n, f.m) != (g.n, g.m):
        return False
    return normalize_projectively(f) == normalize_projectively(g)
