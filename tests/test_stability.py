"""Stabilizer systems, blocks, destabilizing subgroups, limits, labels."""

from fractions import Fraction as F
from itertools import combinations
from random import Random

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from projstab import (DegreeMismatch, DimensionMismatch, InvalidBlock,
                      NotASolution, OnePS, ParseError, SizeLimit,
                      StabilizerSolution, ZeroMap, block_from_stabilizer,
                      block_to_1ps, classify, detect_blocks,
                      hyperplane_partition, is_morphism, limit_map, make_map,
                      stabilizer_space, weight_profile)
from projstab import linalg
from projstab.poly import _map_from_dicts
from projstab.stability import BlockStructure, validate_block
from projstab.resultant import monomials_of_degree
from helpers import (full_stabilizer_rows, random_map,
                     reference_block_from_stabilizer,
                     reference_hyperplane_partition,
                     reference_solution_satisfies)

CUBE = make_map(1, 3, [[((3, 0), 1)], [((0, 3), 1)]])
SQUARES = make_map(1, 2, [[((2, 0), 1)], [((0, 2), 1)]])
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
                assert reference_solution_satisfies(f, sol)

    def test_nontrivial_solution_selection(self):
        assert stabilizer_space(CUBE).nontrivial_solution() is not None
        assert stabilizer_space(FERMAT).nontrivial_solution() is None

    @settings(max_examples=150)
    @given(st.data())
    def test_basis_matches_sympy_rref(self, data):
        # The system <c,I> - b_j - C = 0, one row per supported term, built
        # here in the column order (c, b, C); the expected basis is read off
        # sympy's reduced row echelon form: one vector per free column, unit
        # there, minus that column of the reduced rows at the pivots.
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 4))
        monos = monomials_of_degree(n + 1, m)
        coeff = st.fractions(min_value=-3, max_value=3, max_denominator=5)
        comps = [data.draw(st.dictionaries(st.sampled_from(monos), coeff,
                                           max_size=len(monos)))
                 for _ in range(n + 1)]
        try:
            f = make_map(n, m, comps)
        except ZeroMap:
            assume(False)
        nv = n + 1
        rows = []
        for j, comp in enumerate(f.components):
            for e, _ in comp.terms:
                rows.append(list(e) + [-int(k == j) for k in range(nv)] + [-1])
        cols = 2 * nv + 1
        reduced, pivots = sympy.Matrix(len(rows), cols,
                                       sum(rows, [])).rref()
        expected = []
        for fc in range(cols):
            if fc in pivots:
                continue
            v = [F(0)] * cols
            v[fc] = F(1)
            for r, pc in enumerate(pivots):
                entry = -reduced[r, fc]
                v[pc] = F(int(entry.p), int(entry.q))
            expected.append(v)
        space = stabilizer_space(f)
        assert [list(s.c + s.b + (s.C,)) for s in space.basis] == expected
        assert space.dim == len(expected)
        assert space.torus_rank == space.dim - 2


class TestHyperplanePartition:
    def test_cube_partition(self):
        sol = StabilizerSolution((F(1), F(0)), (F(3), F(0)), F(0))
        part = hyperplane_partition(CUBE, sol)
        assert part.multisets_equal
        assert part.hyperplane_classes == ((F(3), (0,)), (F(0), (1,)))

    def test_trivial_solution_single_classes(self):
        t, C = F(2), F(5)
        sol = StabilizerSolution((t, t), (3 * t - C, 3 * t - C), C)
        part = hyperplane_partition(CUBE, sol)
        assert len(part.hyperplane_classes) == 1
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

    def test_solution_with_mixed_denominators(self):
        # c, b and C carry the denominators 3, 2 and 2, so only their lcm 6
        # brings the whole vector to integers.
        sol = StabilizerSolution((F(1, 3), F(0)), (F(1, 2), F(-1, 2)),
                                 F(1, 2))
        part = hyperplane_partition(CUBE, sol)
        assert part.multisets_equal
        assert part.hyperplane_classes == ((F(1), (0,)), (F(0), (1,)))
        bad = StabilizerSolution(sol.c, (sol.b[0], sol.b[1] + F(1, 7)), sol.C)
        with pytest.raises(NotASolution):
            hyperplane_partition(CUBE, bad)

    @pytest.mark.parametrize("c,b", [((1, 0), (2,)), ((0, 0, 1), (2, 0)),
                                     ((1, 0), (0, 2))])
    def test_block_from_stabilizer_checks_the_solution(self, c, b):
        # Unchecked, on (x0^2, x1^2) a short b fails by IndexError, a
        # 3-entry c gives the block V' = {2}, which P^1 does not have, and
        # swapped targets give V' = {0} with H' = {1}.
        sol = StabilizerSolution(tuple(map(F, c)), tuple(map(F, b)), F(0))
        error = NotASolution if len(c) == len(b) else DimensionMismatch
        with pytest.raises(error):
            block_from_stabilizer(SQUARES, sol)
        good = StabilizerSolution((F(1), F(0)), (F(2), F(0)), F(0))
        block = block_from_stabilizer(SQUARES, good)
        assert (block.variables, block.components) == ({0}, {0})

    @pytest.mark.parametrize("c,b", [((1,), (3, 0)), ((1, 0), (3,)),
                                     ((1, 0, 0), (3, 0, 0))])
    def test_wrong_length_rejected(self, c, b):
        # Zipping a short c against the exponents would accept (1,) on the
        # cube; the partition would then index past its end.
        sol = StabilizerSolution(tuple(map(F, c)), tuple(map(F, b)), F(0))
        with pytest.raises(DimensionMismatch):
            hyperplane_partition(CUBE, sol)

    @pytest.mark.parametrize("entry", [0.5, "x", None, True],
                             ids=["float", "str", "none", "bool"])
    def test_entry_outside_the_rational_rule_rejected(self, entry):
        # Read unchecked, a float, str or None entry failed by
        # AttributeError, and True passed as 1: (True, 0), (3, 0), 0 solved
        # the cube.
        for sol in (StabilizerSolution((entry, F(0)), (F(3), F(0)), F(0)),
                    StabilizerSolution((F(1), F(0)), (F(3), F(0)), entry)):
            with pytest.raises(ParseError):
                hyperplane_partition(CUBE, sol)
            with pytest.raises(ParseError):
                block_from_stabilizer(CUBE, sol)

    def test_entries_read_as_rationals(self):
        # An int is taken as it is, and a str by the document rule.
        sol = StabilizerSolution((1, F(0)), ("6/2", 0), F(0))
        part = hyperplane_partition(CUBE, sol)
        assert part.hyperplane_classes == ((F(3), (0,)), (F(0), (1,)))
        block = block_from_stabilizer(CUBE, sol)
        assert (block.variables, block.components) == ({0}, {0})


@st.composite
def _rational_maps(draw):
    """Maps with n <= 3, m <= 4, rational coefficients and at most four
    terms per component, so a torus and blocks are common; a component
    may be zero."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    monos = monomials_of_degree(n + 1, m)
    coeff = st.fractions(min_value=-3, max_value=3,
                         max_denominator=5).filter(bool)
    comps = [draw(st.dictionaries(st.sampled_from(monos), coeff, max_size=4))
             for _ in range(n + 1)]
    try:
        return make_map(n, m, comps)
    except ZeroMap:
        assume(False)


def _vector(sol):
    return list(sol.c + sol.b + (sol.C,))


def _solution(f, v):
    nv = f.num_vars
    return StabilizerSolution(tuple(v[:nv]), tuple(v[nv:2 * nv]), v[-1])


def _check_against_reference(f, sol):
    """hyperplane_partition and block_from_stabilizer agree with the
    plain-Fraction reference; returns its verdict."""
    ok = reference_solution_satisfies(f, sol)
    if ok:
        part = hyperplane_partition(f, sol)
        assert (part.hyperplane_classes, part.multisets_equal) == \
            reference_hyperplane_partition(f, sol)
        block = block_from_stabilizer(f, sol)
        assert (None if block is None else
                (block.variables, block.components)) == \
            reference_block_from_stabilizer(f, sol)
    else:
        with pytest.raises(NotASolution):
            hyperplane_partition(f, sol)
        with pytest.raises(NotASolution):
            block_from_stabilizer(f, sol)
    return ok


class TestIntegerLaws:
    """The stabilizer solve on the c columns and the one integer scaling
    of a solution, against the full system and a plain-Fraction
    reference."""

    @settings(max_examples=200)
    @given(_rational_maps(), st.data())
    def test_integer_checks_match_fraction_reference(self, f, data):
        space = stabilizer_space(f)
        cols = 2 * f.num_vars + 1
        basis = [_vector(sol) for sol in space.basis]
        assert basis == linalg.nullspace(full_stabilizer_rows(f), cols)
        rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)
        weights = data.draw(st.lists(rational, min_size=len(basis),
                                     max_size=len(basis)))
        combo = [sum((w * v[k] for w, v in zip(weights, basis)), F(0))
                 for k in range(cols)]
        for v in basis + [combo]:
            assert _check_against_reference(f, _solution(f, v))
        k = data.draw(st.integers(0, cols - 1))
        perturbed = list(combo)
        perturbed[k] += data.draw(rational.filter(bool))
        _check_against_reference(f, _solution(f, perturbed))

    def test_zero_component_leaves_its_target_weight_free(self):
        # Component 1 is zero, so b_1 is in no row: the unit vector at b_1
        # is a basis vector, and any b_1 solves.
        f = make_map(2, 2, [[((2, 0, 0), 1)], [],
                            [((0, 0, 2), 1), ((1, 0, 1), F(1, 2))]])
        space = stabilizer_space(f)
        assert [_vector(sol) for sol in space.basis] == \
            linalg.nullspace(full_stabilizer_rows(f), 7)
        free_b1 = StabilizerSolution((F(0),) * 3, (F(0), F(1), F(0)), F(0))
        assert free_b1 in space.basis
        for b1 in (F(2), F(7, 3), F(-5)):
            sol = StabilizerSolution((F(1), F(0), F(1)),
                                     (F(3, 2), b1, F(3, 2)), F(1, 2))
            assert _check_against_reference(f, sol)
        part = hyperplane_partition(f, StabilizerSolution(
            (F(1), F(0), F(1)), (F(3, 2), F(7, 3), F(3, 2)), F(1, 2)))
        assert part.hyperplane_classes == ((F(17, 6), (1,)), (F(2), (0, 2)))
        assert not part.multisets_equal

    @pytest.mark.parametrize("n", [0, 2])
    def test_all_zero_piece_is_the_whole_space(self, n):
        # A split piece of a non-morphism may be the zero map, which only
        # _map_from_dicts builds: the system has no row, so every column is
        # free and the basis is the unit vectors.
        f = _map_from_dicts(n, 2, [{}] * (n + 1))
        cols = 2 * f.num_vars + 1
        space = stabilizer_space(f)
        assert [_vector(sol) for sol in space.basis] == \
            linalg.nullspace([], cols) == \
            [[F(int(i == k)) for i in range(cols)] for k in range(cols)]
        assert space.dim == cols and space.torus_rank == cols - 2
        for sol in space.basis:
            assert _check_against_reference(f, sol)

    def test_difference_repeated_across_components_is_one_row(self,
                                                              monkeypatch):
        # x0x1 - x0^2 and x1^2 - x0x1 are the same difference (-1, 1), so
        # the c-part system, the first of the two solves, is one row.  It
        # is read without its last column, c_1: every difference sums to 0.
        f = make_map(1, 2, [[((2, 0), 1), ((1, 1), 1)],
                            [((1, 1), 1), ((0, 2), F(1, 3))]])
        seen = []
        solve = linalg.null_vectors

        def spy(rows, cols):
            seen.append((rows, sorted(cols)))
            return solve(rows, cols)

        monkeypatch.setattr(linalg, "null_vectors", spy)
        space = stabilizer_space(f)
        assert seen[0] == ([{0: -1}], [0])
        assert len(seen) == 2
        assert [_vector(sol) for sol in space.basis] == \
            linalg.nullspace(full_stabilizer_rows(f), 5)
        assert space.dim == 2 and space.torus_rank == 0
        for sol in space.basis:
            assert _check_against_reference(f, sol)


@st.composite
def _random_supports(draw):
    """Maps with n <= 3, m <= 3 and at most three terms per component, so
    blocks and obstructions are common; a component may be zero."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    monos = monomials_of_degree(n + 1, m)
    comps = [draw(st.lists(st.sampled_from(monos), max_size=3, unique=True))
             for _ in range(n + 1)]
    try:
        return make_map(n, m, [[(e, 1) for e in comp] for comp in comps])
    except ZeroMap:
        assume(False)


def _face_by_definition(f, vset):
    """H'(V'), term by term: the components none of whose terms has a
    positive exponent on a variable outside vset."""
    return frozenset(j for j, comp in enumerate(f.components)
                     if not any(e[i] > 0 for e, _ in comp.terms
                                for i in range(f.num_vars) if i not in vset))


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
        assert classify(f).obstructions == ()

    def test_obstruction(self):
        f = make_map(1, 2, [[((2, 0), 1)], [((2, 0), 1)]])
        assert detect_blocks(f) == []
        obs = classify(f).obstructions
        assert len(obs) == 1
        assert sorted(obs[0].variables) == [0]
        assert sorted(obs[0].components) == [0, 1]

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(_random_supports())
    def test_faces_match_definition(self, f):
        nv = f.num_vars
        faces = {v: _face_by_definition(f, v)
                 for size in range(1, nv)
                 for v in map(frozenset, combinations(range(nv), size))}
        assert [(b.variables, b.components) for b in detect_blocks(f)] == \
            [(v, h) for v, h in faces.items() if len(h) == len(v)]
        assert [(o.variables, o.components)
                for o in classify(f).obstructions] == \
            [(v, h) for v, h in faces.items() if len(h) > len(v)]
        for v, face in faces.items():
            for h in map(frozenset, combinations(range(nv), len(v))):
                block = BlockStructure(v, h, "SupportCombinatorics")
                offenders = sorted(h - face)
                if offenders:
                    with pytest.raises(InvalidBlock,
                                       match=f"^component {offenders[0]} "):
                        validate_block(f, block)
                else:
                    validate_block(f, block)

    @pytest.mark.parametrize("variables, components, named", [
        ({0, "a"}, {0, 1}, "str 'a'"),
        ({0, 1.5}, {0, 1}, "float 1.5"),
        ({0, True}, {0, 1}, "bool True"),
        ({0, 1}, {0, 2.0}, "float 2.0"),
        # A str hashes differently in each process; 'a' is named every time.
        ({"b", "a"}, {0, 1}, "str 'a'"),
    ], ids=["str", "float", "bool", "float-component", "two-strs"])
    def test_validate_block_names_a_non_integer_index(self, variables,
                                                     components, named):
        # The range test's '<' raises TypeError on a str, and 1.5 passes
        # it, so the integer rule runs first.
        block = BlockStructure(frozenset(variables), frozenset(components),
                               "SupportCombinatorics")
        with pytest.raises(DegreeMismatch) as info:
            validate_block(N2, block)
        assert str(info.value) == f"block index {named} is not an integer"

    def test_obstruction_means_non_morphism(self):
        rng = Random(211)
        for _ in range(40):
            n, m = rng.choice(((1, 2), (1, 3), (2, 2)))
            f = random_map(rng, n, m)
            if classify(f).obstructions:
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
            assert (res.dropped_terms == 0) == \
                reference_solution_satisfies(f, sol)


@st.composite
def _sparse_maps(draw):
    """Maps with n <= 3, m <= 4: a permuted pure power in every component
    plus at most two more terms, so a stabilizer torus is common."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    monos = monomials_of_degree(n + 1, m)
    perm = draw(st.permutations(range(n + 1)))
    coeff = st.sampled_from((-2, -1, 1, 2))
    comps = []
    for j in range(n + 1):
        pure = tuple(m * (i == perm[j]) for i in range(n + 1))
        extra = draw(st.dictionaries(st.sampled_from(monos), coeff,
                                     max_size=2))
        comps.append({**extra, pure: draw(coeff)})
    return make_map(n, m, comps)


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

    @settings(max_examples=200)
    @given(_sparse_maps())
    def test_stabilizer_block_is_exactly_one_scanned_block(self, f):
        # Every component of a morphism is nonzero, so the constant-c
        # solutions are only the two-dimensional trivial family: with
        # torus_rank >= 1 some basis vector has nonconstant c, and the block
        # it cuts out is one of detect_blocks'.  classify relies on both.
        stab = stabilizer_space(f)
        assume(stab.torus_rank >= 1 and is_morphism(f))
        sol = stab.nontrivial_solution()
        assert sol is not None
        derived = block_from_stabilizer(f, sol)
        pairs = [(b.variables, b.components) for b in detect_blocks(f)]
        assert pairs.count((derived.variables, derived.components)) == 1
