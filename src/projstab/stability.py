"""Diagonal stabilizers, destabilizing subgroups and limit maps.

The stabilizer system of a map collects one linear condition per supported
term: a diagonal pair (c, b) stabilizes the map up to the scalar lambda^C
exactly when <c, I> - b_j = C for every component j and exponent I in its
support.  The solution space always contains the two-dimensional trivial
family (c = t*1 with b = (mt - C)*1), so torus_rank = dim - 2 counts the
genuinely nontrivial diagonal torus directions.

The system is solved on the c columns alone.  Each nonzero component j has
an anchor, its first term I_0; each other term I of it gives the difference
row <c, I - I_0> = 0, and a difference shared by several terms or
components is one row of that system D.  Its solution space is

    S = {(k, b, C) : k in ker D, b_j = <k, I_0> - C for each nonzero
         component j, b_j free for each zero component j, C free},

spanned by the vector (k, <k, I_0> at each anchored b_j, 0, 0) of each k
in a basis of ker D, the C vector (0, -1 at each anchored b_j, 1), and the
unit vector at b_j of each zero component.  Every difference sums to 0, so
D 1 = 0: ker D is spanned by 1 and the null space of D without its last
column (c_n = 0), and only that smaller system is eliminated.

Column f is free in the reduced row echelon form of the full system, one
row (I, -1 at b_j, -1 for C) per supported term, exactly when projecting S
onto the columns f, ..., C gains a dimension at f: some solution is
nonzero at f and zero on every later column.  So if the spanning vectors
are reduced with pivots chosen from the last column to the first, the
pivots are the free columns, and the reduced vector of pivot f, unit there
and zero on the other free columns, is the canonical basis vector of f
that linalg.nullspace reads off that form.  Some pivots are known in
advance.  C and each b_j of a zero component are touched by their own
spanning vector alone.  The last column of the vector of k = 1, the last
anchored b_j (c_n when every component is zero), is passed by no other
spanning vector, so each other one is cleared there by one fraction-free
step.  linalg.null_vectors reduces what is left with the column keys
reversed: its null vector y_g at a column g that is not a pivot lies in
the orthogonal complement of their span, with delta at g and zeros on the
other such columns, so it is delta times the row of pivot g of the reduced
row echelon form whose null space that span is, and entry g of the reduced
vector of pivot f is -y_g[f] / delta.  The vector of 1 and the C vector
are then cleared on the pivots it finds.

A StabilizerSolution reads its entries once, when it is built, by the one
rational rule, and holds them as Fractions.  The law checks scale it once
to integers: by the lcm of all its denominators, c becomes c' and each
level b_j + C becomes an integer level', and every term condition is
<c', I> = level'_j.

Block structure is the combinatorial shadow of invariant subspaces: a pair
(V', H') with |V'| = |H'| such that vars(f_j), the variables some term of
f_j involves, lies in V' for each j in H'.  Each vars(f_j) is read once per
call and every face question is a subset test on them.  For a morphism with
a nontrivial stabilizer direction, the components sitting on the top-level
hyperplane of the weight function form such a block; conversely every block
yields a destabilizing one-parameter subgroup whose limit keeps exactly the
minimal-weight terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import itemgetter, mul, sub

from . import linalg
from .errors import DimensionMismatch, InvalidBlock, NotASolution, SizeLimit
from .poly import (HomogeneousPoly, MultiIndex, ProjectiveMap, _map_from_dicts,
                   parse_fraction, require_ints, require_lists, shown)
from .resultant import is_morphism, macaulay_resultant
from .weights import OnePS, weight, weight_profile

# Bound on the 2^(n+1) variable subsets of one block scan.
SUBSET_SCAN_LIMIT = 2 ** 16

_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class StabilizerSolution:
    """One rational solution (c, b, C) of the stabilizer system.

    Read once, when built: raises ParseError unless c and b are lists
    (poly.require_lists), and for an entry that poly.parse_fraction, the
    one rational rule, refuses (a bool, a float, None, 'x').  c and b are
    stored as tuples of Fractions and C as a Fraction, so equal solutions
    compare and hash equal whatever spelling built them.  Their lengths
    are checked against a map where one is used (_integer_solution).
    """

    c: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    C: Fraction

    def __post_init__(self):
        require_lists("stabilizer solution c or b", (self.c, self.b))
        where = "stabilizer solution entry"
        object.__setattr__(self, "c", tuple([parse_fraction(x, where)
                                             for x in self.c]))
        object.__setattr__(self, "b", tuple([parse_fraction(x, where)
                                             for x in self.b]))
        object.__setattr__(self, "C", parse_fraction(self.C, where))


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
    """Components grouped by hyperplane level b_j + C, highest level first.

    multisets_equal compares those levels with the vertex levels m*c_i; for
    a morphism the two multisets coincide (each hyperplane class of size
    k+1 holds exactly k+1 simplex vertices).
    """

    hyperplane_classes: tuple[tuple[Fraction, tuple[int, ...]], ...]
    multisets_equal: bool


@dataclass(frozen=True)
class BlockStructure:
    """Index pair certifying block-triangular shape.

    Built, raises InvalidBlock unless V' and H' are sets, and stores them
    as frozensets, so equal blocks compare and hash equal whether sets or
    frozensets built them.  The index checks, and those that need a map,
    are validate_block's.
    """

    variables: frozenset[int]   # V'
    components: frozenset[int]  # H'
    certified_by: str           # "SupportCombinatorics" or "InfiniteStabilizer"

    def __post_init__(self):
        if {type(self.variables), type(self.components)} - {set, frozenset}:
            raise InvalidBlock("V' and H' must be sets, got " + " and ".join(
                map(shown, (self.variables, self.components))))
        object.__setattr__(self, "variables", frozenset(self.variables))
        object.__setattr__(self, "components", frozenset(self.components))


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

    @property
    def limit_is_morphism(self) -> bool:
        """Certified by is_morphism on each read, so only a caller that
        reads it pays for it."""
        return is_morphism(self.limit)

    @property
    def support_shrank(self) -> bool:
        return self.dropped_terms > 0


def stabilizer_space(f: ProjectiveMap) -> StabilizerSpace:
    """Exact solution space of <c,I> - b_j = C over the support.

    Unknowns are ordered (c_0..c_n, b_0..b_n, C).  linalg.null_vectors,
    the one solve, runs twice, as the module docstring sets out: on the
    distinct differences I - I_0 without their last column, and on the
    spanning vectors built from its null vectors and the anchors I_0,
    cleared at the pivot of the vector of 1, with column k keyed as
    2n + 2 - k.  The basis is that of linalg.nullspace on the full system:
    one vector per free column of its reduced row echelon form, unit there
    and zero on the other free columns, in column order, so downstream
    consumers are deterministic.  One Fraction is made per distinct value.
    """
    nv = f.num_vars
    last = 2 * nv  # the C column; the solves key column k as last - k
    anchors: list[tuple[int, MultiIndex]] = []  # (j, I_0) of nonzero f_j
    differences: dict[tuple[int, ...], None] = {}  # ordered, each once
    for j, comp in enumerate(f.components):
        if comp.terms:
            first = comp.terms[0][0]
            anchors.append((j, first))
            head = first[:-1]  # map stops there: c_n is left out
            for e, _ in comp.terms[1:]:
                differences[tuple(map(sub, e, head))] = None
    # each difference's nonzeros, as {column: value}
    kernel, _ = linalg.null_vectors(
        [dict(filter(itemgetter(1), enumerate(d))) for d in differences],
        range(nv - 1))
    anchored = {nv - j for j, _ in anchors}  # keys of the anchored b_j
    c_keys = range(nv + 1, last + 1)
    # The vector of k = 1, and its pivot: its last column, which no other
    # spanning vector passes.  Each other one is cleared there by a
    # fraction-free step, and the solve reduces them among themselves.
    ones = dict.fromkeys(c_keys, 1) | dict.fromkeys(anchored, f.m)
    top = min(ones)
    spanning = []
    for k in kernel.values():
        row = {last - i: x for i, x in k.items()}
        for j, first in anchors:
            if level := sum(x * first[i] for i, x in k.items()):
                row[nv - j] = level
        if h := row.pop(top, 0):
            row = {c: y for c, x in ones.items() if c != top
                   if (y := ones[top] * row.get(c, 0) - h * x)}
        spanning.append(row)
    columns = anchored.union(c_keys) - {top}
    nulls, delta = linalg.null_vectors(spanning, columns)
    pivots = [p for p in columns if p not in nulls]
    scale = ones[top] * delta  # every vector below is scaled by it
    shared = {scale: _ONE}  # x -> x / scale, each made once

    def entry(x: int) -> Fraction:
        if x not in shared:
            shared[x] = Fraction(x, scale)
        return shared[x]

    # One vector per free column: the pivots, C and each zero b_j.
    vectors: dict[int, list[Fraction]] = {}
    for k in [top, *pivots, *(b for b in range(nv + 1) if b not in anchored)]:
        vectors[last - k] = v = [_ZERO] * (last + 1)
        v[last - k] = _ONE
    reduced_ones = vectors[last - top]  # cleared on the other pivots
    cleared = vectors[last]  # C's, cleared on the pivots at anchored b_j
    for g, y in nulls.items():
        u = delta * ones[g]
        x = scale if g in anchored else 0
        for p in pivots:
            if p in y:
                vectors[last - p][last - g] = entry(-ones[top] * y[p])
                u += ones[p] * y[p]
                if p in anchored:
                    x += ones[top] * y[p]
        if u:
            reduced_ones[last - g] = entry(u)
        if top in anchored:
            x -= u
        if x:
            cleared[last - g] = entry(-x)
    basis = tuple(StabilizerSolution(v[:nv], v[nv:last], v[last])
                  for _, v in sorted(vectors.items()))
    dim = len(basis)
    return StabilizerSpace(basis, dim, dim - 2, f.m <= f.n + 1)


def _integer_solution(f: ProjectiveMap, sol: StabilizerSolution
                      ) -> tuple[list[int], list[int], int]:
    """(c', levels', scale) for a solution of the stabilizer system of f.

    The entries were read when the solution was built.  scale is the lcm
    of every denominator of (c, b, C), c' = scale * c and level'_j =
    scale * (b_j + C), all integers.  Raises DimensionMismatch unless c
    and b have one entry per variable, and NotASolution when a supported
    term fails <c',I> = level'_j.
    """
    nv = f.num_vars
    if len(sol.c) != nv or len(sol.b) != nv:
        raise DimensionMismatch(
            f"solution has {len(sol.c)} source and {len(sol.b)} target "
            f"weights, map needs {nv} of each")
    scale = lcm(*(x.denominator for x in (*sol.c, *sol.b, sol.C)))
    c = [x.numerator * (scale // x.denominator) for x in sol.c]
    shift = sol.C.numerator * (scale // sol.C.denominator)
    levels = [x.numerator * (scale // x.denominator) + shift for x in sol.b]
    if any(sum(map(mul, c, e)) != level for comp, level
           in zip(f.components, levels) for e, _ in comp.terms):
        raise NotASolution("vector violates a support constraint of the map")
    return c, levels, scale


def hyperplane_partition(f: ProjectiveMap, sol: StabilizerSolution
                         ) -> HyperplanePartition:
    """Group components by b_j + C; compare those levels with the m*c_i.

    Works on the one integer scaling of the solution (_integer_solution):
    the classes are grouped and the multisets compared on the scaled
    levels, and Fractions are made only for the class keys it returns.
    Raises DimensionMismatch or NotASolution, as _integer_solution does;
    a solution's ParseError comes from its constructor.
    """
    c, levels, scale = _integer_solution(f, sol)
    classes: dict[int, list[int]] = {}
    for j, level in enumerate(levels):
        classes.setdefault(level, []).append(j)
    equal = sorted(levels) == sorted(f.m * x for x in c)
    return HyperplanePartition(
        tuple((Fraction(level, scale), tuple(js))
              for level, js in sorted(classes.items(), reverse=True)),
        equal)


def _variables(comp: HomogeneousPoly) -> frozenset[int]:
    """vars(f_j): the variables that some term of the component involves."""
    return frozenset(i for e, _ in comp.terms for i, k in enumerate(e) if k)


def _scan_blocks(f: ProjectiveMap):
    if 2 ** f.num_vars > SUBSET_SCAN_LIMIT:
        raise SizeLimit(f"a block scan of {f.num_vars} variables would visit "
                        f"2^{f.num_vars} subsets, above the "
                        f"{SUBSET_SCAN_LIMIT} bound")
    comp_vars = [_variables(comp) for comp in f.components]
    blocks: list[BlockStructure] = []
    obstructions: list[MorphismObstruction] = []
    indices = range(f.num_vars)
    for size in range(1, f.num_vars):
        for subset in combinations(indices, size):
            vset = frozenset(subset)
            hset = frozenset(j for j, vs in enumerate(comp_vars) if vs <= vset)
            if len(hset) == size:
                blocks.append(BlockStructure(vset, hset, "SupportCombinatorics"))
            elif len(hset) > size:
                obstructions.append(MorphismObstruction(vset, hset))
    return blocks, obstructions


def detect_blocks(f: ProjectiveMap) -> list[BlockStructure]:
    """All blocks (V', H') with |H'(V')| = |V'|, smallest V' first.

    H'(V') = {j : vars(f_j) in V'}, zero components included.  Subsets are
    enumerated by size then lexicographically, which fixes the block that
    recursive splitting consumes first.  Raises SizeLimit before visiting
    more than SUBSET_SCAN_LIMIT subsets.
    """
    return _scan_blocks(f)[0]


def block_from_stabilizer(f: ProjectiveMap, sol: StabilizerSolution
                          ) -> BlockStructure | None:
    """The block cut out by the top level of a nontrivial stabilizer direction.

    Takes the maximum M' of the vertex weights m*c_i; the components on the
    hyperplane b_j + C = M' are supported on the face spanned by the
    maximizing vertices.  Returns None for a trivial (constant-c) solution.
    Raises DimensionMismatch or NotASolution, as _integer_solution does;
    a solution's ParseError comes from its constructor.
    """
    c, levels, _ = _integer_solution(f, sol)
    if len(set(c)) <= 1:
        return None
    top = max(c)
    m_top = f.m * top
    vset = frozenset(i for i, ci in enumerate(c) if ci == top)
    hset = frozenset(j for j, level in enumerate(levels) if level == m_top)
    return BlockStructure(vset, hset, "InfiniteStabilizer")


def validate_block(f: ProjectiveMap, block: BlockStructure) -> None:
    """InvalidBlock unless V' is proper and nonempty, |H'| = |V'|, every
    index is in range and vars(f_j) lies in V' for each j in H' (the least
    j that fails is named).  DegreeMismatch, before the range test, for an
    index that is not an int; the one named is least by type name, then as
    shown, so it does not depend on the hash seed.  That V' and H' are
    sets is checked when the block is built."""
    nv = f.num_vars
    if not block.variables or len(block.variables) >= nv:
        raise InvalidBlock(f"V' = {shown(block.variables)} is not a proper "
                           f"nonempty subset of 0..{nv - 1}")
    if len(block.variables) != len(block.components):
        raise InvalidBlock("|V'| and |H'| differ")
    require_ints("block index", sorted(
        (i for i in block.variables | block.components if type(i) is not int),
        key=lambda i: (type(i).__name__, shown(i))))
    if any(i < 0 or i >= nv for i in block.variables | block.components):
        raise InvalidBlock("index out of range")
    for j in sorted(block.components):
        if not _variables(f.components[j]) <= block.variables:
            raise InvalidBlock(f"component {shown(j)} uses a variable "
                               "outside V'")


def block_to_1ps(block: BlockStructure, f: ProjectiveMap) -> OnePS:
    """Canonical destabilizing subgroup of a block.

    Source weights are 0 on V' and -1 off it; target weights are 0 on H'
    and the component's minimal source weight elsewhere, so the global
    minimal weight is 0 and the H' components sit entirely at weight 0.
    """
    validate_block(f, block)
    c = tuple(0 if i in block.variables else -1 for i in range(f.num_vars))
    b = [0 if j in block.components
         else min((weight(c, e) for e, _ in comp.terms), default=0)
         for j, comp in enumerate(f.components)]
    return OnePS(c, b)


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
        ws = profile.weights_of(j)
        kept: dict[MultiIndex, Fraction] = {}
        for e, coeff in comp.terms:
            if ws[e] == K:
                kept[e] = coeff
            else:
                dropped += 1
        dicts.append(kept)
    limit = _map_from_dicts(f.n, f.m, dicts)
    return LimitResult(limit, K, dropped)


@dataclass(frozen=True)
class BlockAnalysis:
    """A block with its canonical subgroup and limit behaviour."""

    block: BlockStructure
    subgroup: OnePS
    limit: LimitResult


@dataclass(frozen=True)
class ClassificationReport:
    """classify's answer: is_morphism is read off the exact resultant."""

    label: str  # NotAMorphism / InfiniteStabilizer / BlockUnstable / NoDiagonalDegeneration
    resultant: Fraction
    m_gt_n_plus_1: bool
    torus_rank: int
    stabilizer: StabilizerSpace
    blocks: tuple[BlockAnalysis, ...]
    obstructions: tuple[MorphismObstruction, ...]
    coordinate_note: str

    @property
    def is_morphism(self) -> bool:
        return self.resultant != 0


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
    macaulay_resultant's exact Fraction, the Koszul-complex determinant
    normalized to 1 on power maps, and the morphism verdict is read off it
    as res != 0.
    """
    res = macaulay_resultant(f)
    morphism = res != 0
    stab = stabilizer_space(f)
    blocks, obstructions = _scan_blocks(f)
    if morphism and stab.torus_rank >= 1:
        # Every component of a morphism is nonzero, so the constant-c
        # solutions are just the two-dimensional trivial family; a basis of
        # a larger space has a nonconstant-c vector, and its block is one
        # of the scanned ones, which the derived block replaces.
        derived = block_from_stabilizer(f, stab.nontrivial_solution())
        blocks = [derived if (bl.variables, bl.components) ==
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
    return ClassificationReport(label, res, f.m > f.n + 1,
                                stab.torus_rank, stab, tuple(analyses),
                                tuple(obstructions), _COORDINATE_NOTE)
