"""Lattice weights of diagonal one-parameter subgroups.

A diagonal subgroup acts on the source by diag(lambda^c_0..lambda^c_n) and
on the target by diag(lambda^b_0..lambda^b_n).  A term a x^I of component j
then picks up lambda^(<c,I> - b_j); those integers are the whole geometry
of this module.  The exponent simplex Delta has vertices m*e_i, and all
face / hyperplane containment questions are decided directly on support
sets, never on explicit convex hulls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import DimensionMismatch
from .poly import MultiIndex, ProjectiveMap


@dataclass(frozen=True)
class OnePS:
    """Integer weight pair (c for the source, b for the target)."""

    c: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        if len(self.c) != len(self.b):
            raise DimensionMismatch(
                f"weight vectors have lengths {len(self.c)} and {len(self.b)}")

    def is_zero(self) -> bool:
        return not any(self.c) and not any(self.b)

    def canonical(self, m: int) -> "OnePS":
        """Representative modulo the trivial shifts, with joint gcd 1.

        c -> c + t*1 combined with b -> b + m*t*1 leaves all weights fixed,
        and b -> b + l*1 shifts them uniformly; both act trivially in
        PGL x PGL.  The representative has min(c) = 0, min(b) = 0.
        """
        t = -min(self.c)
        c = tuple(x + t for x in self.c)
        b = tuple(x + m * t for x in self.b)
        l = -min(b)
        b = tuple(x + l for x in b)
        g = 0
        for x in c + b:
            g = gcd(g, abs(x))
        if g > 1:
            c = tuple(x // g for x in c)
            b = tuple(x // g for x in b)
        return OnePS(c, b)

    @staticmethod
    def from_rational(c: Sequence[Fraction], b: Sequence[Fraction]) -> "OnePS":
        """Clear denominators jointly; weights are characters of G_m."""
        denoms = [Fraction(x).denominator for x in c] + \
                 [Fraction(x).denominator for x in b]
        mult = lcm(*denoms) if denoms else 1
        return OnePS(tuple(int(Fraction(x) * mult) for x in c),
                     tuple(int(Fraction(x) * mult) for x in b))


@dataclass(frozen=True)
class WeightProfile:
    """All term weights <c,I> - b_j of a map under one subgroup.

    component_minima[j] is None for a zero component (empty support); the
    global minimum K ranges over nonempty components only.
    """

    per_component: tuple[tuple[tuple[MultiIndex, int], ...], ...]
    component_minima: tuple[int | None, ...]
    K: int

    def weights_of(self, j: int) -> dict[MultiIndex, int]:
        return dict(self.per_component[j])


def weight(c: Sequence[int], index: Sequence[int]) -> int:
    """Scalar product <c, I> = sum c_j i_j."""
    if len(c) != len(index):
        raise DimensionMismatch(
            f"weight vector has length {len(c)}, index has {len(index)}")
    return sum(int(a) * int(b) for a, b in zip(c, index))


def weight_profile(f: ProjectiveMap, ops: OnePS) -> WeightProfile:
    """Exact weight of every supported term, with per-component minima."""
    if len(ops.c) != f.num_vars:
        raise DimensionMismatch(
            f"subgroup lives on {len(ops.c)} coordinates, map on {f.num_vars}")
    per = []
    minima: list[int | None] = []
    for j, comp in enumerate(f.components):
        ws = tuple((e, weight(ops.c, e) - ops.b[j]) for e, _ in comp.terms)
        per.append(ws)
        minima.append(min((w for _, w in ws), default=None))
    finite = [k for k in minima if k is not None]
    return WeightProfile(tuple(per), tuple(minima), min(finite))


def vertex_coverage(f: ProjectiveMap) -> tuple[bool, ...]:
    """Entry i is True iff some component contains the monomial x_i^m.

    A morphism covers every vertex: an uncovered vertex m*e_i means all
    components vanish at the coordinate point e_i.
    """
    covered = [False] * f.num_vars
    for comp in f.components:
        for e, _ in comp.terms:
            for i, k in enumerate(e):
                if k == f.m:
                    covered[i] = True
    return tuple(covered)
