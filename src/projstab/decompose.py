"""Recursive splitting of block-triangular morphisms.

A block (V', H') of a morphism lets the map be read in two pieces: the
quotient piece is the H' components viewed as a map in the V' variables
alone, and the restriction piece is the remaining components restricted to
the subspace where the V' variables vanish.  Both pieces are again
morphisms of the same degree (a failure here is an internal contradiction,
not an input error), so the splitting recurses until every leaf either has
a single variable or admits no block.  The multiset of leaf ranks is the
splitting type.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ffield
from .errors import InternalContradiction, NotAMorphism
from .poly import Fraction, MultiIndex, ProjectiveMap, _map_from_dicts
from .resultant import is_morphism
from .stability import BlockStructure, detect_blocks, validate_block


@dataclass(frozen=True)
class SplitPair:
    """One splitting step, with index maps back into the parent."""

    restriction: ProjectiveMap          # components off H', V' variables set to 0
    quotient: ProjectiveMap             # components H' in the V' variables
    restriction_variables: tuple[int, ...]
    restriction_components: tuple[int, ...]
    quotient_variables: tuple[int, ...]
    quotient_components: tuple[int, ...]


@dataclass(frozen=True)
class DecompositionTree:
    node: ProjectiveMap
    split: SplitPair | None
    restriction_child: "DecompositionTree | None"
    quotient_child: "DecompositionTree | None"
    leaf_reason: str | None  # "RankOne" or "NoBlocks" on leaves

    def is_leaf(self) -> bool:
        return self.split is None

    def leaves(self) -> list["DecompositionTree"]:
        if self.is_leaf():
            return [self]
        return self.restriction_child.leaves() + self.quotient_child.leaves()

    def splitting_type(self) -> tuple[int, ...]:
        """Multiset of leaf ranks (numbers of variables), ascending."""
        return tuple(sorted(leaf.node.num_vars for leaf in self.leaves()))


def _project_terms(comp_terms, positions: tuple[int, ...]):
    out: dict[MultiIndex, Fraction] = {}
    for e, c in comp_terms:
        out[tuple(e[i] for i in positions)] = c
    return out


def split_once(f: ProjectiveMap, block: BlockStructure,
               check_input: bool = True) -> SplitPair:
    """Split a morphism along one block.

    The quotient reads the H' components in the V' variables; the
    restriction sets the V' variables to zero in the other components and
    reads them in the remaining variables.  Both pieces are certified as
    morphisms; theory guarantees this for morphism inputs, so a failed
    certificate raises InternalContradiction.
    """
    if check_input and not is_morphism(f):
        raise NotAMorphism("cannot split a non-morphism")
    validate_block(f, block)
    q_vars = tuple(sorted(block.variables))
    q_comps = tuple(sorted(block.components))
    r_vars = tuple(i for i in range(f.num_vars) if i not in block.variables)
    r_comps = tuple(j for j in range(f.num_vars) if j not in block.components)

    q_dicts = [_project_terms(f.components[j].terms, q_vars) for j in q_comps]
    quotient = _map_from_dicts(len(q_vars) - 1, f.m, q_dicts)

    r_dicts = []
    for j in r_comps:
        kept = [(e, c) for e, c in f.components[j].terms
                if all(e[i] == 0 for i in q_vars)]
        r_dicts.append(_project_terms(kept, r_vars))
    restriction = _map_from_dicts(len(r_vars) - 1, f.m, r_dicts)

    for name, piece in (("quotient", quotient), ("restriction", restriction)):
        if not is_morphism(piece):
            raise InternalContradiction(
                f"{name} piece of a morphism failed its morphism check")
    return SplitPair(restriction, quotient, r_vars, r_comps, q_vars, q_comps)


def decompose_fully(f: ProjectiveMap, check_input: bool = True
                    ) -> DecompositionTree:
    """Recursively split along the first block in canonical order.

    Leaves are single-variable maps (RankOne) or maps without blocks
    (NoBlocks, irreducible at the diagonal level in the given coordinates).
    Leaf ranks always sum to the number of variables of the root.
    """
    if check_input and not is_morphism(f):
        raise NotAMorphism("cannot decompose a non-morphism")
    if f.num_vars == 1:
        return DecompositionTree(f, None, None, None, "RankOne")
    blocks = detect_blocks(f)
    if not blocks:
        return DecompositionTree(f, None, None, None, "NoBlocks")
    pair = split_once(f, blocks[0], check_input=False)
    return DecompositionTree(
        f, pair,
        decompose_fully(pair.restriction, check_input=False),
        decompose_fully(pair.quotient, check_input=False),
        None)


def splitting_types_all_blocks(f: ProjectiveMap, check_input: bool = True
                               ) -> set[tuple[int, ...]]:
    """Splitting types over every block choice at every level.

    Exhaustive-mode companion to decompose_fully for small ranks, used to
    compare the canonical choice against all others.
    """
    if check_input and not is_morphism(f):
        raise NotAMorphism("cannot decompose a non-morphism")
    if f.num_vars == 1:
        return {(1,)}
    blocks = detect_blocks(f)
    if not blocks:
        return {(f.num_vars,)}
    types: set[tuple[int, ...]] = set()
    for block in blocks:
        pair = split_once(f, block, check_input=False)
        for rt in splitting_types_all_blocks(pair.restriction, check_input=False):
            for qt in splitting_types_all_blocks(pair.quotient, check_input=False):
                types.add(tuple(sorted(rt + qt)))
    return types


def verify_preimage(f: ProjectiveMap, block: BlockStructure, prime: int,
                    check_input: bool = True) -> bool:
    """Exhaustive check over F_prime of the preimage identity of a block.

    A point maps into {y_j = 0 : j in H'} iff it lies in
    {x_i = 0 : i in V'}; returns True iff both inclusions hold at every
    point of P^n(F_prime).  Raises SizeLimit before scanning more than
    ffield.POINT_LIMIT points.
    """
    if check_input and not is_morphism(f):
        raise NotAMorphism("preimage identity is only meaningful for morphisms")
    validate_block(f, block)
    reduced = ffield.reduce_map_mod_p(f, prime)
    ffield.check_point_count(f.n, prime)
    table = ffield.power_table(prime, f.m)
    h_comps = sorted(block.components)
    v_vars = block.variables
    for pt in ffield.projective_points(f.n, prime):
        in_target = all(
            ffield.eval_terms_mod_p(reduced[j], pt, prime, table) == 0
            for j in h_comps)
        in_source = all(pt[i] == 0 for i in v_vars)
        if in_target != in_source:
            return False
    return True
