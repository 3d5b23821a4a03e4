"""Diagonal stabilizers, destabilizing subgroups and limit maps.

The stabilizer system of a map collects one linear condition per supported
term: a diagonal pair (c, b) stabilizes the map up to the scalar lambda^C
exactly when <c, I> - b_j = C for every component j and exponent I in its
support.  The solution space always contains the two-dimensional trivial
family (c = t*1 with b = (mt - C)*1), so torus_rank = dim - 2 counts the
genuinely nontrivial diagonal torus directions.

Block structure is the combinatorial shadow of invariant subspaces: a pair
(V', H') with |V'| = |H'| such that the H' components involve only the V'
variables.  For a morphism with a nontrivial stabilizer direction, the
components sitting on the top-level hyperplane of the weight function form
such a block; conversely every block yields a destabilizing one-parameter
subgroup whose limit keeps exactly the minimal-weight terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linalg
from .errors import InvalidBlock, NotASolution, SizeLimit
from .poly import MultiIndex, ProjectiveMap, _map_from_dicts
from .resultant import ResultantValue, is_morphism, macaulay_resultant
from .weights import OnePS, weight, weight_profile

# Bound on the 2^(n+1) variable subsets of one block scan.
SUBSET_SCAN_LIMIT = 2 ** 16


@dataclass(frozen=True)
class StabilizerSolution:
    """One rational solution (c, b, C) of the stabilizer system."""

    c: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    C: Fraction

    def to_one_ps(self) -> OnePS:
        return OnePS.from_rational(self.c, self.b)


@dataclass(frozen=True)
class StabilizerSpace:
    basis: tuple[StabilizerSolution, ...]
    dim: int
    torus_rank: int
    small_degree_warning: bool  # m <= n+1: unipotent stabilizers not excluded

    def nontrivial_solution(self) -> StabilizerSolution | None:
        """First basis solution whose source weights are not all equal."""
        for sol in self.basis:
            if len(set(sol.c)) > 1:
                return sol
        return None


@dataclass(frozen=True)
class HyperplanePartition:
    """Components grouped by hyperplane level, vertices by weight level.

    For a morphism the two multisets of levels coincide (each hyperplane
    class of size k+1 holds exactly k+1 simplex vertices).
    """

    hyperplane_classes: tuple[tuple[Fraction, tuple[int, ...]], ...]
    vertex_classes: tuple[tuple[Fraction, tuple[int, ...]], ...]
    multisets_equal: bool


@dataclass(frozen=True)
class BlockStructure:
    """Index pair certifying block-triangular shape."""

    variables: frozenset[int]   # V'
    components: frozenset[int]  # H'
    certified_by: str           # "SupportCombinatorics" or "InfiniteStabilizer"


@dataclass(frozen=True)
class MorphismObstruction:
    """|H'| > |V'|: more components than variables on a face.

    Such a map would send a projective subspace into one of strictly
    smaller dimension, so it cannot be a morphism.
    """

    variables: frozenset[int]
    components: frozenset[int]


@dataclass(frozen=True)
class LimitResult:
    limit: ProjectiveMap
    K: int
    dropped_terms: int
    limit_is_morphism: bool

    @property
    def support_shrank(self) -> bool:
        return self.dropped_terms > 0


def stabilizer_space(f: ProjectiveMap) -> StabilizerSpace:
    """Exact solution space of <c,I> - b_j = C over the support.

    Unknowns are ordered (c_0..c_n, b_0..b_n, C).  The basis is the
    canonical nullspace basis, so downstream consumers are deterministic.
    """
    nv = f.num_vars
    cols = 2 * nv + 1
    rows: list[list[Fraction]] = []
    for j, comp in enumerate(f.components):
        for e, _ in comp.terms:
            row = [Fraction(x) for x in e]
            row += [Fraction(0)] * nv
            row[nv + j] = Fraction(-1)
            row.append(Fraction(-1))
            rows.append(row)
    basis_vecs = linalg.nullspace(rows, cols)
    basis = tuple(StabilizerSolution(tuple(v[:nv]), tuple(v[nv:2 * nv]), v[-1])
                  for v in basis_vecs)
    dim = len(basis)
    return StabilizerSpace(basis, dim, dim - 2, f.m <= f.n + 1)


def solution_satisfies(f: ProjectiveMap, sol: StabilizerSolution) -> bool:
    for j, comp in enumerate(f.components):
        for e, _ in comp.terms:
            lhs = sum((Fraction(x) * k for x, k in zip(sol.c, e)), Fraction(0))
            if lhs - sol.b[j] != sol.C:
                return False
    return True


def _group_by_value(values: Sequence[Fraction]) -> tuple[tuple[Fraction, tuple[int, ...]], ...]:
    classes: dict[Fraction, list[int]] = {}
    for i, v in enumerate(values):
        classes.setdefault(v, []).append(i)
    return tuple((v, tuple(ix)) for v, ix in
                 sorted(classes.items(), key=lambda t: t[0], reverse=True))


def hyperplane_partition(f: ProjectiveMap, sol: StabilizerSolution
                         ) -> HyperplanePartition:
    """Group components by b_j + C and vertices by m*c_i; compare multisets."""
    if not solution_satisfies(f, sol):
        raise NotASolution("vector violates a support constraint of the map")
    hyper_values = [sol.b[j] + sol.C for j in range(f.num_vars)]
    vertex_values = [f.m * sol.c[i] for i in range(f.num_vars)]
    equal = sorted(hyper_values) == sorted(vertex_values)
    return HyperplanePartition(_group_by_value(hyper_values),
                               _group_by_value(vertex_values), equal)


def _face_components(f: ProjectiveMap, vset: frozenset[int]) -> frozenset[int]:
    """Components whose support involves only the variables in vset."""
    out = []
    for j, comp in enumerate(f.components):
        if all(all(k == 0 or i in vset for i, k in enumerate(e))
               for e, _ in comp.terms):
            out.append(j)
    return frozenset(out)


def _scan_blocks(f: ProjectiveMap):
    if 2 ** f.num_vars > SUBSET_SCAN_LIMIT:
        raise SizeLimit(f"a block scan of {f.num_vars} variables would visit "
                        f"2^{f.num_vars} subsets, above the "
                        f"{SUBSET_SCAN_LIMIT} bound")
    blocks: list[BlockStructure] = []
    obstructions: list[MorphismObstruction] = []
    indices = range(f.num_vars)
    for size in range(1, f.num_vars):
        for subset in combinations(indices, size):
            vset = frozenset(subset)
            hset = _face_components(f, vset)
            if len(hset) == size:
                blocks.append(BlockStructure(vset, hset, "SupportCombinatorics"))
            elif len(hset) > size:
                obstructions.append(MorphismObstruction(vset, hset))
    return blocks, obstructions


def detect_blocks(f: ProjectiveMap) -> list[BlockStructure]:
    """All blocks (V', H') with |H'(V')| = |V'|, smallest V' first.

    Subsets are enumerated by size then lexicographically, which fixes the
    block that recursive splitting consumes first.  Raises SizeLimit before
    visiting more than SUBSET_SCAN_LIMIT subsets.
    """
    return _scan_blocks(f)[0]


def morphism_obstructions(f: ProjectiveMap) -> list[MorphismObstruction]:
    """Faces carrying more components than variables (non-morphism proof)."""
    return _scan_blocks(f)[1]


def block_from_stabilizer(f: ProjectiveMap, sol: StabilizerSolution
                          ) -> BlockStructure | None:
    """The block cut out by the top level of a nontrivial stabilizer direction.

    Takes the maximum M' of the vertex weights m*c_i; the components on the
    hyperplane b_j + C = M' are supported on the face spanned by the
    maximizing vertices.  Returns None for a trivial (constant-c) solution.
    """
    if len(set(sol.c)) <= 1:
        return None
    top = max(sol.c)
    m_top = f.m * top
    vset = frozenset(i for i, ci in enumerate(sol.c) if ci == top)
    hset = frozenset(j for j in range(f.num_vars) if sol.b[j] + sol.C == m_top)
    return BlockStructure(vset, hset, "InfiniteStabilizer")


def validate_block(f: ProjectiveMap, block: BlockStructure) -> None:
    nv = f.num_vars
    if not block.variables or len(block.variables) >= nv:
        raise InvalidBlock(f"V' = {sorted(block.variables)} is not a proper "
                           f"nonempty subset of 0..{nv - 1}")
    if len(block.variables) != len(block.components):
        raise InvalidBlock("|V'| and |H'| differ")
    if any(i < 0 or i >= nv for i in block.variables | block.components):
        raise InvalidBlock("index out of range")
    for j in sorted(block.components):
        for e, _ in f.components[j].terms:
            if any(k > 0 and i not in block.variables
                   for i, k in enumerate(e)):
                raise InvalidBlock(
                    f"component {j} uses a variable outside V'")


def block_to_1ps(block: BlockStructure, f: ProjectiveMap) -> OnePS:
    """Canonical destabilizing subgroup of a block.

    Source weights are 0 on V' and -1 off it; target weights are 0 on H'
    and the component's minimal source weight elsewhere, so the global
    minimal weight is 0 and the H' components sit entirely at weight 0.
    """
    validate_block(f, block)
    c = tuple(0 if i in block.variables else -1 for i in range(f.num_vars))
    b = []
    for j, comp in enumerate(f.components):
        if j in block.components:
            b.append(0)
        else:
            mins = [weight(c, e) for e, _ in comp.terms]
            b.append(min(mins) if mins else 0)
    return OnePS(c, tuple(b))


def limit_map(f: ProjectiveMap, ops: OnePS) -> LimitResult:
    """lambda -> 0 limit under the subgroup: keep the weight-K terms only.

    K is the global minimum of <c,I> - b_j over the support; components
    whose minimum exceeds K degenerate to zero in the limit.
    """
    profile = weight_profile(f, ops)
    K = profile.K
    dicts: list[dict[MultiIndex, Fraction]] = []
    dropped = 0
    for j, comp in enumerate(f.components):
        ws = dict(profile.per_component[j])
        kept: dict[MultiIndex, Fraction] = {}
        for e, coeff in comp.terms:
            if ws[e] == K:
                kept[e] = coeff
            else:
                dropped += 1
        dicts.append(kept)
    limit = _map_from_dicts(f.n, f.m, dicts)
    return LimitResult(limit, K, dropped, is_morphism(limit))


@dataclass(frozen=True)
class BlockAnalysis:
    """A block with its canonical subgroup and limit behaviour."""

    block: BlockStructure
    subgroup: OnePS
    limit: LimitResult


@dataclass(frozen=True)
class ClassificationReport:
    label: str  # NotAMorphism / InfiniteStabilizer / BlockUnstable / NoDiagonalDegeneration
    is_morphism: bool
    resultant: ResultantValue
    m_gt_n_plus_1: bool
    torus_rank: int
    stabilizer: StabilizerSpace
    blocks: tuple[BlockAnalysis, ...]
    obstructions: tuple[MorphismObstruction, ...]
    coordinate_note: str


NOT_A_MORPHISM = "NotAMorphism"
INFINITE_STABILIZER = "InfiniteStabilizer"
BLOCK_UNSTABLE = "BlockUnstable"
NO_DIAGONAL_DEGENERATION = "NoDiagonalDegeneration"

_COORDINATE_NOTE = ("verdicts refer to the diagonal torus in the given "
                    "coordinates; no search over general coordinate frames")


def classify(f: ProjectiveMap) -> ClassificationReport:
    """Full diagonal-degeneration analysis of one map.

    Precedence: a vanishing resultant wins (NotAMorphism); then a
    nontrivial stabilizer torus (InfiniteStabilizer); then a block with no
    torus (BlockUnstable); otherwise NoDiagonalDegeneration, a verdict
    explicitly relative to the given coordinates.  The resultant is
    macaulay_resultant's Koszul-complex determinant, normalized to 1 on
    power maps and exact in every frame, so the morphism verdict is its
    being nonzero.
    """
    res = macaulay_resultant(f)
    morphism = res.value != 0
    stab = stabilizer_space(f)
    blocks, obstructions = _scan_blocks(f)
    if morphism and stab.torus_rank >= 1:
        sol = stab.nontrivial_solution()
        if sol is not None:
            derived = block_from_stabilizer(f, sol)
            if derived is not None:
                blocks = [BlockStructure(bl.variables, bl.components,
                                         derived.certified_by)
                          if (bl.variables, bl.components) ==
                          (derived.variables, derived.components) else bl
                          for bl in blocks]
    analyses = []
    for bl in blocks:
        sub = block_to_1ps(bl, f)
        analyses.append(BlockAnalysis(bl, sub, limit_map(f, sub)))
    if not morphism:
        label = NOT_A_MORPHISM
    elif stab.torus_rank >= 1:
        label = INFINITE_STABILIZER
    elif blocks:
        label = BLOCK_UNSTABLE
    else:
        label = NO_DIAGONAL_DEGENERATION
    return ClassificationReport(label, morphism, res, f.m > f.n + 1,
                                stab.torus_rank, stab, tuple(analyses),
                                tuple(obstructions), _COORDINATE_NOTE)
