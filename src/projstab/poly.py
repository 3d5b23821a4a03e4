"""Homogeneous polynomial tuples with exact rational coefficients.

A map P^n -> P^n of algebraic degree m is stored as n+1 homogeneous
degree-m polynomials in the variables x_0..x_n.  Each polynomial is a
sparse term list

    terms = ((exponent_tuple, Fraction), ...)

kept in canonical form: descending lexicographic order on the exponent
tuples, no zero coefficients.  Canonical form makes structural equality a
plain tuple comparison and keeps every serialization byte-stable.

A HomogeneousPoly stores only its terms: its degree and variable count are
those of the map that holds it.  Everything here is immutable and pure:
operations return new objects and never touch their inputs, so values can
be shared freely across threads.

Every number a caller gives is read here, once, where it enters, and never
rounded.  A rational is a Fraction, an int or "p" / "p/q" in ASCII digits
(parse_fraction; ParseError on a bool, a float, "1e3", " 2 " or "1/0"); an
exponent entry or a weight is an int, not a bool (require_ints).

Every value that an error line shows goes through shown(): a rational
past 2048 bits by its size, below any digit limit of str(); a str by its
repr; a tuple, list or set entry by entry, a set sorted; anything else by
str().  The text is cut at 40 characters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb
from typing import Any, Iterable, Iterator, Mapping, Sequence, Union

from .errors import (DegreeMismatch, DimensionMismatch, ParseError,
                     SingularMatrix, SizeLimit, ZeroMap)
from . import linalg

MultiIndex = tuple[int, ...]
CoeffLike = Union[int, str, Fraction]

# Sparse polynomial used internally: exponent tuple -> nonzero Fraction.
TermDict = dict[MultiIndex, Fraction]

# The documented coefficient forms "p" and "p/q", each with an optional sign
# on the numerator.  Nothing else reaches int(), so its cost is bounded
# by Python's limit on the digits of an int conversion.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

# Bound on the monomials C(d+n, n) of the degree d of a composed map.  Its
# cost grows faster than that count, and with the coefficients.  Measured
# on a 2-core Xeon VM under CPython 3.11: at 120 to 129 monomials, a dense
# (1, 127), (2, 14) or (3, 7) map under a linear change took 0.3 to 0.9 s
# and iterate took 0.16 s on a (1, 2) map at k = 7; at 253 to 257, a dense
# (2, 21) and a dense (1, 255) map took 8 and 30 s, and iterate at k = 8
# took 0.7 s.  The same number bounds iterate's count k, which the degree
# does not bound at m = 1: at k = 128, (x0+x1, x0+2x1) took 0.06 s and a
# dense (6, 1) map with entries in -3..3 took 0.95 s; at k = 1000 the
# first took 0.38 s, and the time grows faster than k.
COMPOSE_TERM_LIMIT = 128


def _pieces(value: Any) -> Iterator[str]:
    """shown(value) piece by piece, so a collection is read up to the cut."""
    if isinstance(value, (int, Fraction)):
        bits = max(map(int.bit_length, (value.numerator, value.denominator)))
        yield f"a number of {bits} bits" if bits > 2048 else str(value)
    elif isinstance(value, str):
        yield repr(value)
    elif isinstance(value, (tuple, list, set, frozenset)):
        ends = ("()" if isinstance(value, tuple) else
                "[]" if isinstance(value, list) else "{}")
        yield ends[0]
        if ends == "{}":
            try:
                value = sorted(value)
            except TypeError:  # entries that do not compare, as 0 and 'a'
                value = sorted(value, key=shown)
        for k, x in enumerate(value):
            if k:
                yield ", "
            yield from _pieces(x)
        yield ",)" if ends == "()" and len(value) == 1 else ends[1]
    else:
        yield str(value)


def shown(value: Any) -> str:
    """value as an error line shows it (see the module docstring)."""
    text = "".join(islice(_pieces(value), 41))  # no piece is empty
    return text if len(text) <= 40 else text[:37] + "..."


def parse_fraction(value: Any, where: str = "coeff") -> Fraction:
    """The one reader of rationals; a Fraction is returned as it is."""
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        reason = "expected 'p' or 'p/q' in decimal digits"
        try:
            if match:
                return Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError) as exc:
            reason = str(exc)
        raise ParseError(f"{where}: bad rational {shown(value)}: {reason}")
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise ParseError(f"{where}: expected an integer or 'p/q' string, "
                     f"got {type(value).__name__}")


def require_ints(what: str, values: Iterable) -> None:
    """The one integer rule: every value an int, never a bool."""
    for x in values:
        if type(x) is not int:
            raise DegreeMismatch(f"{what} {type(x).__name__} "
                                 f"{shown(x)} is not an integer")


def require_lists(what: str, values: Iterable) -> None:
    """ParseError unless every value is a list or a tuple."""
    for x in values:
        if not isinstance(x, (list, tuple)):
            raise ParseError(f"{what}: expected a list, got {shown(x)}")


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


def _dict_add(acc: TermDict, other: TermDict) -> None:
    for e, c in other.items():
        v = acc.get(e, 0) + c
        if v:
            acc[e] = v
        elif e in acc:
            del acc[e]


@dataclass(frozen=True)
class HomogeneousPoly:
    """One homogeneous polynomial, as its canonical term tuple."""

    terms: tuple[tuple[MultiIndex, Fraction], ...]

    @staticmethod
    def from_terms(degree: int, num_vars: int,
                   terms: Union[Mapping[Sequence[int], CoeffLike],
                                Iterable[tuple[Sequence[int], CoeffLike]]],
                   ) -> "HomogeneousPoly":
        """Build from (exponent, coefficient) pairs.

        Duplicate exponents are summed; zero results are dropped.  Raises
        ParseError unless each term is a pair (exponent tuple, coefficient),
        DimensionMismatch / DegreeMismatch unless every exponent has
        num_vars int entries, none negative, summing to degree, and
        ParseError for a coefficient that parse_fraction refuses.
        """
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        if not isinstance(pairs, Iterable):
            raise ParseError(f"terms: expected pairs, got {shown(terms)}")
        acc: TermDict = {}
        for term in pairs:
            try:
                exp, coeff = term
                e = tuple(exp)
            except (TypeError, ValueError):
                raise ParseError(f"term {shown(term)} is not (exponent tuple, "
                                 "coefficient)") from None
            require_ints("exponent entry", e)
            if len(e) != num_vars:
                raise DimensionMismatch(
                    f"exponent {shown(e)} has length {len(e)}, "
                    f"expected {num_vars}")
            if any(x < 0 for x in e):
                raise DegreeMismatch(
                    f"exponent {shown(e)} has a negative entry")
            if sum(e) != degree:
                raise DegreeMismatch(
                    f"exponent {shown(e)} has total degree {shown(sum(e))}, "
                    f"expected {shown(degree)}")
            c = parse_fraction(coeff)
            if e in acc:
                c += acc.pop(e)
            if c:
                acc[e] = c
        return HomogeneousPoly(_sorted_terms(acc))

    def as_dict(self) -> TermDict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> frozenset[MultiIndex]:
        return frozenset(e for e, _ in self.terms)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms:
            term = c
            for x, k in zip(point, e):
                if k:
                    term *= x ** k
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

    def __str__(self) -> str:
        return "(" + ", ".join(str(f) for f in self.components) + ")"


@dataclass(frozen=True)
class LinearChange:
    """A pair (g, h) of invertible matrices acting by f -> h^-1 . f . g."""

    source_matrix: tuple[tuple[Fraction, ...], ...]
    target_matrix: tuple[tuple[Fraction, ...], ...]


def make_linear_change(source: Sequence[Sequence[CoeffLike]],
                       target: Sequence[Sequence[CoeffLike]]) -> LinearChange:
    """Validate and freeze a coordinate-change pair; raises SingularMatrix,
    DimensionMismatch unless square, and ParseError unless each matrix is
    a list of lists (require_lists) of entries that parse_fraction reads."""
    def freeze(mat, name):
        require_lists(f"{name} matrix", (mat,))
        require_lists(f"{name} row", mat)
        rows = tuple(tuple(parse_fraction(x, name) for x in r) for r in mat)
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise DimensionMismatch(f"{name} matrix is not square")
        if linalg.det_rational([list(r) for r in rows]) == 0:
            raise SingularMatrix(f"{name} matrix is singular")
        return rows

    return LinearChange(freeze(source, "source"), freeze(target, "target"))


def make_map(n: int, m: int,
             coeffs: Sequence[Union[Mapping[Sequence[int], CoeffLike],
                                    Iterable[tuple[Sequence[int], CoeffLike]]]],
             ) -> ProjectiveMap:
    """Validated constructor for a projective map.

    n may be 0 (a single form in one variable); this is what the leaves of
    a recursive splitting look like.  Requires m >= 1, exactly n+1
    component term lists, and at least one nonzero component after
    cancellation (ZeroMap otherwise), n and m ints (DegreeMismatch), the
    components in a list (require_lists), and terms that from_terms
    accepts.  Individual zero components are allowed; they simply make the
    map a non-morphism later.
    """
    require_ints("n or m", (n, m))
    if n < 0:
        raise DimensionMismatch(f"n must be >= 0, got {shown(n)}")
    if m < 1:
        raise DegreeMismatch(f"degree must be >= 1, got {shown(m)}")
    require_lists("components", (coeffs,))
    if len(coeffs) != n + 1:
        raise DimensionMismatch(
            f"expected {shown(n + 1)} components, got {len(coeffs)}")
    components = tuple(HomogeneousPoly.from_terms(m, n + 1, c) for c in coeffs)
    if all(f.is_zero() for f in components):
        raise ZeroMap("all components vanish")
    return ProjectiveMap(n, m, components)


def _map_from_dicts(n: int, m: int, dicts: Sequence[TermDict]) -> ProjectiveMap:
    # Internal: trusts exponents and allows zero components; a split piece
    # of a non-morphism may even be the zero map.
    comps = tuple(HomogeneousPoly(_sorted_terms(d)) for d in dicts)
    return ProjectiveMap(n, m, comps)


def evaluate(f: ProjectiveMap, point: Sequence[CoeffLike]) -> tuple[Fraction, ...]:
    """Exact value (f_0(p), ..., f_n(p)); point should not be all-zero.
    Raises ParseError unless point is a list (require_lists) of
    coordinates that parse_fraction reads."""
    require_lists("point", (point,))
    if len(point) != f.num_vars:
        raise DimensionMismatch(
            f"point has {len(point)} coordinates, expected {f.num_vars}")
    p = [parse_fraction(x, "point") for x in point]
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
        _dict_add(result, term)
    return result


def apply_linear_change(f: ProjectiveMap, change: LinearChange) -> ProjectiveMap:
    """The group action ((g,h).f)(x) = h^-1(f(g(x))), fully expanded.

    g and h^-1 are written as degree-1 maps, so this is two compositions.
    """
    size = f.num_vars
    g, h = change.source_matrix, change.target_matrix
    if len(g) != size or len(h) != size:
        raise DimensionMismatch(
            f"change matrices are {len(g)}x{len(g)}, map needs {size}x{size}")
    h_inv = linalg.mat_inverse([list(r) for r in h])
    unit = [tuple(int(k == j) for j in range(size)) for k in range(size)]

    def linear_map(mat) -> ProjectiveMap:
        return _map_from_dicts(f.n, 1, [{unit[k]: x for k, x
                                         in enumerate(row) if x}
                                        for row in mat])

    return compose(linear_map(h_inv), compose(f, linear_map(g)))


def _check_composition_size(n: int, degree: int) -> None:
    """Raise SizeLimit when the forms of the given degree in n+1 variables
    have more than COMPOSE_TERM_LIMIT monomials."""
    if comb(degree + n, n) > COMPOSE_TERM_LIMIT:
        raise SizeLimit(f"a composed map of degree at least {shown(degree)}"
                        f" on P^{n} would have more than "
                        f"{COMPOSE_TERM_LIMIT} monomials")


def compose(outer: ProjectiveMap, inner: ProjectiveMap) -> ProjectiveMap:
    """outer . inner, a map of degree outer.m * inner.m.  Raises SizeLimit,
    before composing, when that degree has more than COMPOSE_TERM_LIMIT
    monomials."""
    if outer.num_vars != inner.num_vars:
        raise DimensionMismatch(
            f"cannot compose maps on {inner.num_vars} and {outer.num_vars} variables")
    _check_composition_size(outer.n, outer.m * inner.m)
    inner_dicts = [comp.as_dict() for comp in inner.components]
    new_dicts = [_compose_component(comp, inner_dicts, inner.num_vars)
                 for comp in outer.components]
    return _map_from_dicts(outer.n, outer.m * inner.m, new_dicts)


def iterate(f: ProjectiveMap, k: int) -> ProjectiveMap:
    """k-fold self-composition; the result has degree m^k.  Raises
    DegreeMismatch unless k is an int (require_ints) of at least 1, and
    SizeLimit, before composing, when k > 1 and degree m^k has more than
    COMPOSE_TERM_LIMIT monomials, or when k > COMPOSE_TERM_LIMIT.  The
    second bound is for m = 1, where the degree never grows but the
    coefficients grow with k."""
    require_ints("iteration count", (k,))
    if k < 1:
        raise DegreeMismatch(f"iteration count must be >= 1, got {shown(k)}")
    if k > 1:
        # m^k > COMPOSE_TERM_LIMIT once m >= 2 and k reaches the limit's
        # bit length, so the capped power refuses a large k as m^k would.
        _check_composition_size(
            f.n, f.m ** min(k, COMPOSE_TERM_LIMIT.bit_length()))
    if k > COMPOSE_TERM_LIMIT:
        raise SizeLimit(f"iterating {shown(k)} times is above the "
                        f"{COMPOSE_TERM_LIMIT} bound on the count")
    result = f
    for _ in range(k - 1):
        result = compose(f, result)
    return result
