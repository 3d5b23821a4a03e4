"""Stabilizer systems, blocks, destabilizing subgroups, limits, labels."""

from fractions import Fraction as F
from random import Random

import pytest

from projstab import (InvalidBlock, NotASolution, OnePS, SizeLimit,
                      StabilizerSolution, block_from_stabilizer, block_to_1ps,
                      classify,
                      detect_blocks, hyperplane_partition, is_morphism,
                      limit_map, make_map,
                      maps_projectively_equal, morphism_obstructions,
                      stabilizer_space, weight_profile)
from projstab.stability import BlockStructure, solution_satisfies
from projstab.resultant import monomials_of_degree
from helpers import random_map

CUBE = make_map(1, 3, [[((3, 0), 1)], [((0, 3), 1)]])
FERMAT = make_map(1, 3, [[((3, 0), 1), ((0, 3), 1)], [((2, 1), 1)]])
TRI = make_map(1, 3, [[((3, 0), 1)], [((0, 3), 1), ((1, 2), 1)]])
N2 = make_map(2, 2, [[((2, 0, 0), 1)],
                     [((1, 1, 0), 1), ((0, 2, 0), 1)],
                     [((0, 0, 2), 1), ((1, 0, 1), 1)]])


class TestStabilizerSpace:
    def test_cube_has_torus(self):
        st = stabilizer_space(CUBE)
        assert st.dim == 3 and st.torus_rank == 1
        assert not st.small_degree_warning

    def test_finite_diagonal_stabilizer(self):
        st = stabilizer_space(FERMAT)
        assert st.dim == 2 and st.torus_rank == 0

    def test_dense_support_forces_rank_zero(self):
        monos = monomials_of_degree(2, 2)
        f = make_map(1, 2, [[(e, 1) for e in monos], [(e, 2) for e in monos]])
        assert stabilizer_space(f).torus_rank == 0

    def test_small_degree_warning(self):
        f = make_map(1, 2, [[((2, 0), 1)], [((0, 2), 1)]])
        assert stabilizer_space(f).small_degree_warning

    def test_basis_soundness(self):
        rng = Random(201)
        for _ in range(25):
            n, m = rng.choice(((1, 2), (1, 3), (2, 2)))
            f = random_map(rng, n, m)
            st = stabilizer_space(f)
            assert st.dim >= 2
            for sol in st.basis:
                assert solution_satisfies(f, sol)

    def test_nontrivial_solution_selection(self):
        assert stabilizer_space(CUBE).nontrivial_solution() is not None
        assert stabilizer_space(FERMAT).nontrivial_solution() is None


class TestHyperplanePartition:
    def test_cube_partition(self):
        sol = StabilizerSolution((F(1), F(0)), (F(3), F(0)), F(0))
        part = hyperplane_partition(CUBE, sol)
        assert part.multisets_equal
        assert part.hyperplane_classes == ((F(3), (0,)), (F(0), (1,)))
        assert part.vertex_classes == ((F(3), (0,)), (F(0), (1,)))

    def test_trivial_solution_single_classes(self):
        t, C = F(2), F(5)
        sol = StabilizerSolution((t, t), (3 * t - C, 3 * t - C), C)
        part = hyperplane_partition(CUBE, sol)
        assert len(part.hyperplane_classes) == 1
        assert len(part.vertex_classes) == 1
        assert part.multisets_equal

    def test_non_morphism_violation(self):
        f = make_map(1, 2, [[((2, 0), 1)], [((2, 0), 1)]])
        sol = StabilizerSolution((F(1), F(0)), (F(2), F(2)), F(0))
        part = hyperplane_partition(f, sol)
        assert not part.multisets_equal

    def test_not_a_solution(self):
        sol = StabilizerSolution((F(1), F(0)), (F(2), F(2)), F(0))
        with pytest.raises(NotASolution):
            hyperplane_partition(CUBE, sol)


class TestDetectBlocks:
    def test_subset_scan_bound(self):
        # A 40-variable diagonal linear map passes the matrix bound, but its
        # block scan would visit 2^40 subsets.
        f = make_map(39, 1, [[(tuple(int(i == j) for i in range(40)), 1)]
                             for j in range(40)])
        with pytest.raises(SizeLimit):
            detect_blocks(f)
        with pytest.raises(SizeLimit):
            classify(f)

    def test_triangular(self):
        blocks = detect_blocks(TRI)
        assert [(sorted(b.variables), sorted(b.components)) for b in blocks] \
            == [([0], [0])]

    def test_diagonal_map_all_subsets(self):
        f = make_map(2, 2, [[((2, 0, 0), 1)], [((0, 2, 0), 1)], [((0, 0, 2), 1)]])
        blocks = detect_blocks(f)
        assert len(blocks) == 6
        for bl in blocks:
            assert bl.variables == bl.components
        # enumeration: size ascending, lexicographic within size
        assert [sorted(b.variables) for b in blocks] == \
            [[0], [1], [2], [0, 1], [0, 2], [1, 2]]

    def test_no_blocks(self):
        f = make_map(1, 2, [[((2, 0), 1), ((0, 2), 1)], [((1, 1), 1)]])
        assert detect_blocks(f) == []
        assert morphism_obstructions(f) == []

    def test_obstruction(self):
        f = make_map(1, 2, [[((2, 0), 1)], [((2, 0), 1)]])
        assert detect_blocks(f) == []
        obs = morphism_obstructions(f)
        assert len(obs) == 1
        assert sorted(obs[0].variables) == [0]
        assert sorted(obs[0].components) == [0, 1]

    def test_obstruction_means_non_morphism(self):
        rng = Random(211)
        for _ in range(40):
            n, m = rng.choice(((1, 2), (1, 3), (2, 2)))
            f = random_map(rng, n, m)
            if morphism_obstructions(f):
                assert not is_morphism(f)


class TestBlockTo1PS:
    def test_triangular(self):
        block = detect_blocks(TRI)[0]
        assert block_to_1ps(block, TRI) == OnePS((0, -1), (0, -3))

    def test_diagonal_fixed_point(self):
        f = make_map(1, 3, [[((3, 0), 1)], [((0, 3), 1)]])
        block = detect_blocks(f)[0]
        sub = block_to_1ps(block, f)
        assert sub == OnePS((0, -1), (0, -3))
        res = limit_map(f, sub)
        assert res.limit == f and res.dropped_terms == 0

    def test_n2_block(self):
        block = [b for b in detect_blocks(N2) if sorted(b.variables) == [0, 1]][0]
        sub = block_to_1ps(block, N2)
        assert sub == OnePS((0, 0, -1), (0, 0, -2))
        prof = weight_profile(N2, sub)
        assert prof.weights_of(2) == {(0, 0, 2): 0, (1, 0, 1): 1}

    def test_invalid_block(self):
        fake = BlockStructure(frozenset({1}), frozenset({0}),
                              "SupportCombinatorics")
        with pytest.raises(InvalidBlock):
            block_to_1ps(fake, TRI)
        with pytest.raises(InvalidBlock):
            block_to_1ps(BlockStructure(frozenset({0, 1}), frozenset({0, 1}),
                                        "SupportCombinatorics"), TRI)

    def test_block_weight_coherence(self):
        rng = Random(223)
        seen = 0
        while seen < 15:
            n, m = rng.choice(((1, 3), (2, 2)))
            f = random_map(rng, n, m)
            for block in detect_blocks(f):
                sub = block_to_1ps(block, f)
                prof = weight_profile(f, sub)
                assert prof.K == 0
                for j in range(f.num_vars):
                    ws = prof.weights_of(j).values()
                    if j in block.components:
                        assert all(w == 0 for w in ws)
                    elif ws:
                        assert min(ws) == 0
                seen += 1


class TestLimitMap:
    def test_triangular_limit(self):
        res = limit_map(TRI, OnePS((0, -1), (0, -3)))
        assert res.limit == CUBE
        assert res.K == 0 and res.dropped_terms == 1
        assert res.limit_is_morphism is True and res.support_shrank

    def test_component_degenerates(self):
        f = make_map(1, 2, [[((2, 0), 1), ((0, 2), 1)], [((1, 1), 1)]])
        res = limit_map(f, OnePS((1, 0), (0, 0)))
        assert res.limit.components[0].support() == frozenset({(0, 2)})
        assert res.limit.components[1].is_zero()
        assert res.K == 0 and res.dropped_terms == 2
        assert res.limit_is_morphism is False

    def test_stabilizer_subgroup_fixes_map(self):
        sub = OnePS((1, 0), (3, 0))  # from the cube's stabilizer, C = 0
        res = limit_map(CUBE, sub)
        assert res.limit == CUBE and res.dropped_terms == 0

    def test_limit_fixed_by_own_subgroup(self):
        rng = Random(227)
        for _ in range(25):
            n, m = rng.choice(((1, 2), (1, 3), (2, 2)))
            f = random_map(rng, n, m)
            sub = OnePS(tuple(rng.randint(-3, 3) for _ in range(n + 1)),
                        tuple(rng.randint(-3, 3) for _ in range(n + 1)))
            first = limit_map(f, sub)
            second = limit_map(first.limit, sub)
            assert second.dropped_terms == 0
            assert second.limit == first.limit
            assert maps_projectively_equal(second.limit, first.limit)
            # support monotone, dropped counts exact
            for a, b in zip(first.limit.components, f.components):
                assert a.support() <= b.support()
            total = sum(len(c.terms) for c in f.components)
            kept = sum(len(c.terms) for c in first.limit.components)
            assert first.dropped_terms == total - kept

    def test_dropped_zero_iff_subgroup_stabilizes(self):
        rng = Random(229)
        for _ in range(40):
            n, m = rng.choice(((1, 2), (2, 2)))
            f = random_map(rng, n, m)
            sub = OnePS(tuple(rng.randint(-2, 2) for _ in range(n + 1)),
                        tuple(rng.randint(-2, 2) for _ in range(n + 1)))
            res = limit_map(f, sub)
            sol = StabilizerSolution(tuple(F(x) for x in sub.c),
                                     tuple(F(x) for x in sub.b), F(res.K))
            assert (res.dropped_terms == 0) == solution_satisfies(f, sol)


class TestClassify:
    def test_infinite_stabilizer(self):
        rep = classify(CUBE)
        assert rep.label == "InfiniteStabilizer"
        assert rep.torus_rank == 1 and rep.is_morphism
        assert {tuple(sorted(a.block.variables)) for a in rep.blocks} \
            == {(0,), (1,)}
        tags = {tuple(sorted(a.block.variables)): a.block.certified_by
                for a in rep.blocks}
        assert "InfiniteStabilizer" in tags.values()

    def test_no_degeneration(self):
        rep = classify(FERMAT)
        assert rep.label == "NoDiagonalDegeneration"
        assert rep.is_morphism and rep.torus_rank == 0 and not rep.blocks

    def test_block_unstable(self):
        rep = classify(TRI)
        assert rep.label == "BlockUnstable"
        assert rep.torus_rank == 0
        assert rep.blocks[0].limit.limit == CUBE

    def test_not_a_morphism(self):
        rep = classify(make_map(1, 2, [[((2, 0), 1)], [((2, 0), 1)]]))
        assert rep.label == "NotAMorphism"
        assert rep.obstructions

    def test_m_flag(self):
        assert classify(CUBE).m_gt_n_plus_1
        assert not classify(make_map(1, 2, [[((2, 0), 1)],
                                            [((0, 2), 1)]])).m_gt_n_plus_1

    def test_block_from_stabilizer_matches_scan(self):
        rng = Random(233)
        found = 0
        while found < 8:
            f = random_map(rng, 1, 3, coeffs=(F(0), F(0), F(1)))
            if not is_morphism(f):
                continue
            st = stabilizer_space(f)
            sol = st.nontrivial_solution()
            if st.torus_rank < 1 or sol is None:
                continue
            derived = block_from_stabilizer(f, sol)
            assert derived is not None
            pairs = [(b.variables, b.components) for b in detect_blocks(f)]
            assert (derived.variables, derived.components) in pairs
            found += 1
