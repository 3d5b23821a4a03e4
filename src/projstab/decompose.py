"""Recursive splitting of block-triangular morphisms.

A block (V', H') of a map lets it be read in two pieces: the quotient piece
is the H' components viewed as a map in the V' variables alone, and the
restriction piece is the remaining components restricted to the subspace
where the V' variables vanish.  By the reduction formula for the resultant
(Jouanolou, "Le formalisme du resultant", Adv. Math. 90, 1991), with k = |V'|,

    Res(f) = +-Res(Q)^(m^(n+1-k)) * Res(R)^(m^k),

so f is a morphism exactly when both pieces are.  The public entry points
therefore certify the root once and recurse on pieces that need no
certificate of their own; the law itself is checked by the verify suite's
split_morphisms law and by a property test against the direct resultant.
The splitting recurses until every leaf either has a single variable or
admits no block.  The multiset of leaf ranks is the splitting type.

A morphism has one splitting type, whichever block is split at each level,
so splitting_types_all_blocks reads it off decompose_fully.  Write
H(V) = {j : vars(f_j) in V} and g(V) = |H(V)|, with &, | and - on sets as
in Python; the blocks are the (V', H(V')) with V' nonempty, proper and
tight, g(V') = |V'|.  Let f be a morphism.

- g(V) <= |V|: otherwise the g(V) components in H(V) vanish on {x_V = 0},
  a P^(n-|V|), and the n+1-g(V) <= n-|V| others have a common zero there.
- g is supermodular, as H(A) & H(B) = H(A & B) and H(A) | H(B) lies in
  H(A | B).  So for blocks A and B, g(A & B) + g(A | B) >= |A| + |B| =
  |A & B| + |A | B|, and by the first point A & B and A | B are tight:
  blocks whenever nonempty and proper.  Counting then gives
  H(A) | H(B) = H(A | B).
- Splitting along A first or along B first reaches the same four pieces:
  Q(A & B); the H(A) - H(B) components on A - B, with x_(A&B) = 0; the
  H(B) - H(A) components on B - A, with x_(A&B) = 0; and R(A | B).  Along
  A, the first two split Q(A) along A & B.  The last two split R(A) along
  B - A, which is tight there by the first point: the |B - A| components
  of H(B) - H(A) use only B - A.  Along B likewise.  A piece with no
  variables drops out, which covers nested and disjoint A and B.
- The pieces of a morphism are morphisms, so by induction on the number of
  variables each of the four has one type, and the types through A and
  through B are both their sum.

The preimage identity f^-1{y_H' = 0} = {x_V' = 0} over a prime field is a
question about the quotient piece alone: it holds exactly when Q has no
zero there, so verify_preimage decides it with ffield.common_zeros_mod_p.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ffield
from .errors import NotAMorphism
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


def split_once(f: ProjectiveMap, block: BlockStructure) -> SplitPair:
    """Split a map along one block.

    The quotient reads the H' components in the V' variables; the
    restriction sets the V' variables to zero in the other components and
    reads them in the remaining variables.  Nothing is certified here: f is
    a morphism iff both pieces are (see the module docstring), which the
    verify suite's split_morphisms law checks.  Raises InvalidBlock if the
    block does not fit f.
    """
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
    return SplitPair(restriction, quotient, r_vars, r_comps, q_vars, q_comps)


def decompose_fully(f: ProjectiveMap) -> DecompositionTree:
    """Recursively split a morphism along the first block in canonical order.

    Leaves are single-variable maps (RankOne) or maps without blocks
    (NoBlocks, irreducible at the diagonal level in the given coordinates).
    Leaf ranks always sum to the number of variables of the root.  Raises
    NotAMorphism after one certificate on f; the pieces inherit it.
    """
    if not is_morphism(f):
        raise NotAMorphism("cannot decompose a non-morphism")
    return _decompose(f)


def _decompose(f: ProjectiveMap) -> DecompositionTree:
    if f.num_vars == 1:
        return DecompositionTree(f, None, None, None, "RankOne")
    blocks = detect_blocks(f)
    if not blocks:
        return DecompositionTree(f, None, None, None, "NoBlocks")
    pair = split_once(f, blocks[0])
    return DecompositionTree(f, pair, _decompose(pair.restriction),
                             _decompose(pair.quotient), None)


def splitting_types_all_blocks(f: ProjectiveMap) -> set[tuple[int, ...]]:
    """Splitting types of a morphism over every block choice at every level.

    Every choice gives the type of decompose_fully (see the module
    docstring), so the set has that one type.  Raises NotAMorphism first,
    after one certificate on f, and SizeLimit only from is_morphism or
    detect_blocks.
    """
    return {decompose_fully(f).splitting_type()}


def verify_preimage(f: ProjectiveMap, block: BlockStructure, prime: int
                    ) -> bool:
    """Exhaustive check over F_prime of the preimage identity of a block.

    A point maps into {y_j = 0 : j in H'} iff it lies in
    {x_i = 0 : i in V'}; returns True iff both inclusions hold at every
    point of P^n(F_prime).  The answer is defined for every map with a
    valid block, morphism or not.  The H' components involve only the V'
    variables, so {x_V' = 0} always lies in {y_H' = 0}, and the identity
    fails exactly at a point whose V' part is a zero of the quotient piece
    in P^(k-1)(F_prime), k = |V'|.  The answer is therefore that the
    quotient has no common zero, found by ffield.common_zeros_mod_p, and
    only those P^(k-1)(F_prime) points are scanned.  Raises InvalidBlock
    for a block that does not fit f, BadPrime for a bad modulus or a
    denominator of f that vanishes mod prime, and SizeLimit when
    P^(k-1)(F_prime) has more than ffield.POINT_LIMIT points.
    """
    quotient = split_once(f, block).quotient
    ffield.reduce_map_mod_p(f, prime)
    return not ffield.common_zeros_mod_p(quotient, prime)
