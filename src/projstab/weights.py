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
from typing import Sequence

from .errors import DimensionMismatch
from .poly import MultiIndex, ProjectiveMap, require_ints, require_lists


@dataclass(frozen=True)
class OnePS:
    """Integer weight pair (c for the source, b for the target); raises
    ParseError unless both are lists (poly.require_lists), DegreeMismatch
    for a non-int weight, DimensionMismatch for unequal lengths."""

    c: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        require_lists("weights", (self.c, self.b))
        require_ints("weight", (*self.c, *self.b))
        if len(self.c) != len(self.b):
            raise DimensionMismatch(
                f"weight vectors have lengths {len(self.c)} and {len(self.b)}")


@dataclass(frozen=True)
class WeightProfile:
    """All term weights <c,I> - b_j of a map under one subgroup.

    A zero component has no terms, so the global minimum K ranges over
    nonempty components only.
    """

    per_component: tuple[tuple[tuple[MultiIndex, int], ...], ...]
    K: int

    def weights_of(self, j: int) -> dict[MultiIndex, int]:
        return dict(self.per_component[j])


def weight(c: Sequence[int], index: Sequence[int]) -> int:
    """Scalar product <c, I> = sum c_j i_j."""
    if len(c) != len(index):
        raise DimensionMismatch(
            f"weight vector has length {len(c)}, index has {len(index)}")
    return sum(a * b for a, b in zip(c, index))


def weight_profile(f: ProjectiveMap, ops: OnePS) -> WeightProfile:
    """Exact weight of every supported term, with their global minimum K."""
    if len(ops.c) != f.num_vars:
        raise DimensionMismatch(
            f"subgroup lives on {len(ops.c)} coordinates, map on {f.num_vars}")
    per = tuple(tuple((e, weight(ops.c, e) - ops.b[j]) for e, _ in comp.terms)
                for j, comp in enumerate(f.components))
    return WeightProfile(per, min(w for ws in per for _, w in ws))


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
