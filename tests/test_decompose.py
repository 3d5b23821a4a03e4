"""Splitting block-triangular morphisms and verifying the preimage identity."""

from fractions import Fraction as F
from random import Random

import pytest

from projstab import (NotAMorphism, SizeLimit, decompose_fully,
                      detect_blocks, is_morphism, make_map, split_once,
                      splitting_types_all_blocks, verify_preimage)
from projstab.verify import enumerate_maps
from helpers import random_triangular_map

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

    def test_rejects_non_morphism(self):
        bad = make_map(1, 3, [[((3, 0), 1)], [((2, 1), 1)]])
        block = detect_blocks(bad)[0]
        with pytest.raises(NotAMorphism):
            split_once(bad, block)

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


class TestVerifyPreimage:
    def test_triangular(self):
        assert verify_preimage(TRI, detect_blocks(TRI)[0], 101)

    def test_power_map(self):
        f = make_map(1, 4, [[((4, 0), 1)], [((0, 4), 1)]])
        for block in detect_blocks(f):
            assert verify_preimage(f, block, 13)

    def test_scan_size_limit(self):
        with pytest.raises(SizeLimit):
            verify_preimage(TRI, detect_blocks(TRI)[0], 1000003)

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

    def test_rejects_non_morphism(self):
        bad = make_map(1, 3, [[((3, 0), 1)], [((2, 1), 1)]])
        with pytest.raises(NotAMorphism):
            verify_preimage(bad, detect_blocks(bad)[0], 101)

    def test_all_enumerated_morphism_blocks(self):
        for f in enumerate_maps(1, 2, (F(0), F(1))):
            if not is_morphism(f):
                continue
            for block in detect_blocks(f):
                assert verify_preimage(f, block, 11, check_input=False)
                pair = split_once(f, block, check_input=False)
                assert is_morphism(pair.quotient)
                assert is_morphism(pair.restriction)
