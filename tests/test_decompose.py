"""Splitting block-triangular morphisms and verifying the preimage identity."""

from fractions import Fraction as F
from random import Random
from time import perf_counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from projstab import (BadPrime, NotAMorphism, SizeLimit, ZeroMap,
                      decompose_fully, detect_blocks, is_morphism,
                      macaulay_resultant, make_map, split_once,
                      splitting_types_all_blocks, verify_preimage)
from projstab.linalg import permutation_sign
from projstab.resultant import monomials_of_degree
from projstab.verify import enumerate_maps
from helpers import (direct_sum, permuted, random_block_triangular_map,
                     random_triangular_map,
                     reference_splitting_types_all_blocks)

TRI = make_map(1, 3, [[((3, 0), 1)], [((0, 3), 1), ((1, 2), 1)]])
FERMAT = make_map(1, 3, [[((3, 0), 1), ((0, 3), 1)], [((2, 1), 1)]])
N2 = make_map(2, 2, [[((2, 0, 0), 1)],
                     [((1, 1, 0), 1), ((0, 2, 0), 1)],
                     [((0, 0, 2), 1), ((1, 0, 1), 1)]])


class TestSplitOnce:
    def test_triangular(self):
        pair = split_once(TRI, detect_blocks(TRI)[0])
        assert pair.quotient == make_map(0, 3, [[((3,), 1)]])
        assert pair.restriction == make_map(0, 3, [[((3,), 1)]])
        assert pair.quotient_variables == (0,)
        assert pair.restriction_variables == (1,)
        assert pair.quotient_components == (0,)
        assert pair.restriction_components == (1,)

    def test_n2_block(self):
        block = [b for b in detect_blocks(N2) if sorted(b.variables) == [0, 1]][0]
        pair = split_once(N2, block)
        assert pair.quotient == make_map(1, 2, [[((2, 0), 1)],
                                                [((1, 1), 1), ((0, 2), 1)]])
        assert pair.restriction == make_map(0, 2, [[((2,), 1)]])
        assert is_morphism(pair.quotient)

    def test_diagonal(self):
        f = make_map(1, 2, [[((2, 0), 1)], [((0, 2), 1)]])
        pair = split_once(f, detect_blocks(f)[0])
        assert pair.quotient == make_map(0, 2, [[((2,), 1)]])
        assert pair.restriction == make_map(0, 2, [[((2,), 1)]])

    def test_restriction_drops_mixed_terms(self):
        # component 1 loses its x0-divisible terms when x0 is set to 0
        f = make_map(1, 3, [[((3, 0), 1)], [((0, 3), 2), ((2, 1), 5)]])
        pair = split_once(f, detect_blocks(f)[0])
        assert pair.restriction == make_map(0, 3, [[((3,), 2)]])

    def test_non_morphism_splits_into_a_non_morphism_piece(self):
        # (x0^3, x0^2 x1) is not a morphism, so by the reduction formula one
        # piece is not either: setting x0 = 0 kills component 1 entirely.
        bad = make_map(1, 3, [[((3, 0), 1)], [((2, 1), 1)]])
        pair = split_once(bad, detect_blocks(bad)[0])
        assert is_morphism(pair.quotient)
        assert not is_morphism(pair.restriction)

    def test_degree_preserved(self):
        pair = split_once(TRI, detect_blocks(TRI)[0])
        assert pair.quotient.m == TRI.m == pair.restriction.m


class TestDecomposeFully:
    def test_triangular_type(self):
        tree = decompose_fully(TRI)
        assert tree.splitting_type() == (1, 1)
        assert all(leaf.leaf_reason == "RankOne" for leaf in tree.leaves())

    def test_irreducible_type(self):
        tree = decompose_fully(FERMAT)
        assert tree.is_leaf() and tree.leaf_reason == "NoBlocks"
        assert tree.splitting_type() == (2,)

    def test_n2_full_split(self):
        tree = decompose_fully(N2)
        assert tree.splitting_type() == (1, 1, 1)

    def test_rank_one_input(self):
        tree = decompose_fully(make_map(0, 2, [[((2,), 1)]]))
        assert tree.is_leaf() and tree.leaf_reason == "RankOne"
        assert tree.splitting_type() == (1,)

    def test_rejects_non_morphism(self):
        with pytest.raises(NotAMorphism):
            decompose_fully(make_map(1, 2, [[((2, 0), 1)], [((1, 1), 1)]]))

    def test_rank_and_degree_conservation(self):
        rng = Random(307)
        for _ in range(15):
            n = rng.choice((1, 2))
            f = random_triangular_map(rng, n, 3)
            tree = decompose_fully(f)
            assert sum(tree.splitting_type()) == n + 1

            def walk(t):
                assert t.node.m == f.m
                if not t.is_leaf():
                    assert (t.split.quotient.num_vars
                            + t.split.restriction.num_vars) == t.node.num_vars
                    walk(t.restriction_child)
                    walk(t.quotient_child)
            walk(tree)

    def test_determinism(self):
        rng = Random(311)
        f = random_triangular_map(rng, 2, 3)
        assert decompose_fully(f) == decompose_fully(f)

    def test_all_blocks_exhaustive_mode(self):
        types = splitting_types_all_blocks(N2)
        assert types == {(1, 1, 1)}
        assert splitting_types_all_blocks(FERMAT) == {(2,)}

    def test_all_blocks_rejects_non_morphism(self):
        with pytest.raises(NotAMorphism):
            splitting_types_all_blocks(
                make_map(1, 3, [[((3, 0), 1)], [((2, 1), 1)]]))

    def test_all_blocks_walks_each_piece_once(self):
        # Every proper subset is a block of the coordinate map of P^7, so a
        # walk over every block choice splits each piece along many paths.
        # Every choice gives one type, and decompose_fully's one path
        # answers for all of them.
        f = make_map(7, 1, [[(tuple(int(i == j) for i in range(8)), 1)]
                            for j in range(8)])
        start = perf_counter()
        assert splitting_types_all_blocks(f) == {(1,) * 8}
        assert perf_counter() - start < 1

    def test_all_blocks_walk_is_bounded(self):
        # Every piece of x_j -> (j+1)*x_j is distinct, so at n = 10 an
        # exhaustive walk would scan 3^11 subsets; the one path of
        # decompose_fully takes 0.04 s on a 2-core Xeon VM under CPython
        # 3.11.
        f = make_map(10, 1, [[(tuple(int(i == j) for i in range(11)), j + 1)]
                             for j in range(11)])
        start = perf_counter()
        assert splitting_types_all_blocks(f) == {(1,) * 11}
        assert perf_counter() - start < 1

    def test_all_blocks_matches_the_exhaustive_walk(self):
        # The module docstring proves that every block choice gives one
        # type.  The exhaustive walk checks it on block-triangular maps in
        # groups of 1 to 3 variables, and on direct sums of two, each under
        # random permutations of its variables and of its components.  Of
        # these 160 maps, 147 are morphisms, 113 of them with two or more
        # blocks and 51 of those with a leaf of rank 2 or more; 92 have a
        # disjoint pair of blocks and 58 a crossing pair.
        rng = Random(337)
        sparse = tuple(F(k) for k in (0, 0, 1, -1, 2))

        def groups(num_vars):
            sizes = []
            while num_vars:
                sizes.append(rng.randint(1, min(3, num_vars)))
                num_vars -= sizes[-1]
            return sizes

        def answer(walk, f):
            try:
                return walk(f)
            except NotAMorphism:
                return None

        several = 0
        for _ in range(160):
            n, m = rng.choice(((1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2),
                               (3, 2), (4, 2), (1, 3), (2, 3), (3, 3)))
            if rng.random() < 0.5:
                k = rng.randrange(n)
                f = direct_sum(
                    random_block_triangular_map(rng, groups(k + 1), m, sparse),
                    random_block_triangular_map(rng, groups(n - k), m, sparse))
            else:
                f = random_block_triangular_map(rng, groups(n + 1), m, sparse)
            f = permuted(rng, f)
            types = answer(splitting_types_all_blocks, f)
            assert types == answer(reference_splitting_types_all_blocks, f)
            several += types is not None and len(detect_blocks(f)) >= 2
        assert several >= 100


class TestVerifyPreimage:
    def test_triangular(self):
        assert verify_preimage(TRI, detect_blocks(TRI)[0], 101)

    def test_power_map(self):
        f = make_map(1, 4, [[((4, 0), 1)], [((0, 4), 1)]])
        for block in detect_blocks(f):
            assert verify_preimage(f, block, 13)

    def test_scan_size_limit(self):
        # The quotient of this block lives on 2 variables, and
        # P^1(F_1000003) has 1000004 points.
        block = [b for b in detect_blocks(N2) if sorted(b.variables) == [0, 1]][0]
        with pytest.raises(SizeLimit):
            verify_preimage(N2, block, 1000003)

    def test_scan_covers_only_the_quotient(self):
        # P^3(F_101) has 1040604 points, past the point bound, but the
        # quotient of the block ({0}, {0}) is x0^2 on P^0(F_101): one point.
        f = make_map(3, 2, [[((2, 0, 0, 0), 1)],
                            [((0, 2, 0, 0), 1), ((1, 1, 0, 0), 1)],
                            [((0, 0, 2, 0), 1), ((0, 1, 1, 0), 1)],
                            [((0, 0, 0, 2), 1), ((1, 0, 0, 1), 1)]])
        block = detect_blocks(f)[0]
        assert block.variables == block.components == frozenset({0})
        assert verify_preimage(f, block, 101)

    def test_point_quotient_takes_any_prime(self):
        # P^0 has one point and its scan builds no power table, so a prime
        # whose P^1 is past the point bound still gives an answer there.
        block = [b for b in detect_blocks(TRI) if len(b.variables) == 1][0]
        assert verify_preimage(TRI, block, 1000003)

    def test_fails_where_reduction_degenerates(self):
        # The quotient (x0^2 + x1^2, -4x0^2 + x1^2) has resultant 25 over Q;
        # mod 5 both components vanish at (1, 2, 0), which is off x0 = x1 = 0.
        f = make_map(2, 2, [[((2, 0, 0), 1), ((0, 2, 0), 1)],
                            [((2, 0, 0), -4), ((0, 2, 0), 1)],
                            [((0, 0, 2), 1)]])
        block = [b for b in detect_blocks(f)
                 if b.variables == b.components == frozenset({0, 1})][0]
        assert f.components[0].evaluate([F(1), F(2), F(0)]) % 5 == 0
        assert f.components[1].evaluate([F(1), F(2), F(0)]) % 5 == 0
        assert not verify_preimage(f, block, 5)
        assert verify_preimage(f, block, 7)

    def test_fails_only_in_the_x0_zero_chart(self):
        # Mod 5, x0*x1 + 5*x1^2 becomes x0*x1, so (x0^2, x0*x1) vanishes on
        # the line x0 = 0: the failing points (0, 1, y) all lie past the
        # first chart.
        f = make_map(2, 2, [[((2, 0, 0), 1)],
                            [((1, 1, 0), 1), ((0, 2, 0), 5)],
                            [((0, 0, 2), 1)]])
        blocks = {(tuple(sorted(b.variables)), tuple(sorted(b.components))): b
                  for b in detect_blocks(f)}
        block = blocks[((0, 1), (0, 1))]
        assert not verify_preimage(f, block, 5)
        assert verify_preimage(f, block, 7)
        assert verify_preimage(f, blocks[((0,), (0,))], 5)

    def test_rejects_a_denominator_outside_the_block(self):
        # The quotient x0^3 has no denominator, but the whole map is reduced
        # mod p: 1/5 in the component off H' makes 5 a bad modulus.
        f = make_map(1, 3, [[((3, 0), 1)], [((0, 3), 1), ((1, 2), F(1, 5))]])
        block = detect_blocks(f)[0]
        assert block.components == frozenset({0})
        with pytest.raises(BadPrime):
            verify_preimage(f, block, 5)
        assert verify_preimage(f, block, 7)

    def test_defined_on_non_morphism(self):
        # (x0^3, x0^2 x1): y0 = 0 exactly where x0 = 0, at every point of
        # P^1(F_101), although the map is not a morphism.
        bad = make_map(1, 3, [[((3, 0), 1)], [((2, 1), 1)]])
        assert verify_preimage(bad, detect_blocks(bad)[0], 101)

    def test_all_enumerated_morphism_blocks(self):
        for f in enumerate_maps(1, 2, (F(0), F(1))):
            if not is_morphism(f):
                continue
            for block in detect_blocks(f):
                assert verify_preimage(f, block, 11)
                pair = split_once(f, block)
                assert is_morphism(pair.quotient)
                assert is_morphism(pair.restriction)


@st.composite
def _maps_with_a_block(draw):
    """A map whose components H' involve only the variables V', |V'| = |H'|.

    V' and H' are drawn at arbitrary positions; zero coefficients are
    frequent, so many draws are not morphisms.
    """
    n, m = draw(st.sampled_from(((1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
                                 (2, 3), (3, 1), (3, 2))))
    k = draw(st.integers(1, n))
    variables = set(draw(st.permutations(range(n + 1)))[:k])
    components = set(draw(st.permutations(range(n + 1)))[:k])
    coeff = st.sampled_from((0, 0, 1, -1, 2))
    comps = []
    for j in range(n + 1):
        comps.append([(e, draw(coeff)) for e in monomials_of_degree(n + 1, m)
                      if j not in components
                      or all(e[i] == 0 for i in range(n + 1)
                             if i not in variables)])
    try:
        return make_map(n, m, comps)
    except ZeroMap:
        assume(False)


class TestReductionFormula:
    """f is a morphism iff both split pieces are, with Res(f) their product.

    For a block (V', H') with k = |V'|, quotient Q and restriction R,

        Res(f) = (sgn s_V * sgn s_H)^(m^n) * Res(Q)^(m^(n+1-k)) * Res(R)^(m^k)

    where s_V lists the variables as (sorted V', sorted rest) and s_H the
    components likewise (Jouanolou, "Le formalisme du resultant", Adv.
    Math. 90, 1991).  decompose certifies only the root because of this law.
    """

    @settings(max_examples=400)
    @given(_maps_with_a_block())
    def test_pieces_decide_the_morphism_and_the_resultant(self, f):
        whole = macaulay_resultant(f)
        morphism = is_morphism(f)
        assert morphism == (whole != 0)
        for block in detect_blocks(f):
            pair = split_once(f, block)
            assert morphism == (is_morphism(pair.quotient)
                                and is_morphism(pair.restriction))
            k = len(pair.quotient_variables)
            sign = (permutation_sign(pair.quotient_variables
                                     + pair.restriction_variables)
                    * permutation_sign(pair.quotient_components
                                       + pair.restriction_components))
            assert whole == (
                sign ** (f.m ** f.n)
                * macaulay_resultant(pair.quotient)
                ** (f.m ** (f.n + 1 - k))
                * macaulay_resultant(pair.restriction) ** (f.m ** k))
