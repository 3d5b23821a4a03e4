"""Sylvester and Macaulay resultants, morphism decisions, field probes."""

from fractions import Fraction as F
from itertools import combinations, permutations, product
from math import prod
from random import Random

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from projstab import (BadPrime, DegreeMismatch, DimensionMismatch, SizeLimit,
                      WrongDimension, ZeroMap, apply_linear_change, compose,
                      default_probe_primes, detect_blocks, evaluate,
                      ff_zero_probe, is_morphism, iterate, verify_preimage,
                      macaulay_resultant, make_linear_change, make_map,
                      sylvester_resultant)
from projstab import ffield, linalg
from projstab.ffield import PRIMALITY_BOUND, is_prime, reduce_map_mod_p
from projstab.linalg import det_rational, permutation_sign
from projstab.poly import _dict_mul
from projstab.resultant import (_koszul_input, _koszul_level, _koszul_rows,
                                _level_one_order, _pure_power_matching,
                                monomials_of_degree)
from projstab.weights import vertex_coverage
from helpers import (_descending_monomials, _reference_boundary,
                     check_pivot_rows_contract, integer_components,
                     macaulay_ratio, random_map, reference_koszul_determinant)


def _power_map(n, m):
    return make_map(n, m, [[(tuple(m if i == j else 0 for i in range(n + 1)), 1)]
                           for j in range(n + 1)])


class TestSylvester:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_power_map_normalization(self, m):
        assert sylvester_resultant(_power_map(1, m)) == 1

    def test_known_value(self):
        f = make_map(1, 2, [[((2, 0), 1), ((0, 2), -1)],
                            [((2, 0), 1), ((0, 2), 1)]])
        assert sylvester_resultant(f) == 4

    def test_common_zero(self):
        f = make_map(1, 2, [[((2, 0), 1)], [((1, 1), 1)]])
        assert sylvester_resultant(f) == 0

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            sylvester_resultant(_power_map(2, 2))

    def test_root_product_formula(self):
        # Res(f, g) = lc(f)^m * prod g(roots of f) for split f
        f = make_map(1, 3, [[((3, 0), 1), ((1, 2), -1)],           # x0(x0-x1)(x0+x1)
                            [((3, 0), 1), ((2, 1), 1), ((0, 3), 2)]])
        g = f.components[1]
        expected = F(1)
        for root in ((0, 1), (1, 1), (-1, 1)):
            expected *= g.evaluate([F(x) for x in root])
        assert sylvester_resultant(f) == expected


@st.composite
def _koszul_cases(draw):
    """Maps with n <= 3 in three fixed shares of the draws.

    A third keep every drawn coefficient.  A third zero the pure power
    x_j^m of component j for a drawn nonempty set of j, so that Macaulay's
    rows need a matching or, failing one, the leftover rows.  A third copy
    component 0 over component n, a common zero (Res = 0 for n >= 1) that
    no support test sees.  Coefficients are small integers or fractions.
    """
    n = draw(st.integers(0, 3))
    m = draw(st.integers(1, (4, 4, 3, 2)[n]))
    kind = draw(st.sampled_from(("dense", "no pure power", "common zero")))
    coeff = (st.sampled_from((-2, -1, 0, 1, 2))
             | st.builds(F, st.integers(-3, 3), st.integers(1, 4)))
    comps = [{e: F(draw(coeff)) for e in monomials_of_degree(n + 1, m)}
             for _ in range(n + 1)]
    if kind == "no pure power":
        for j in draw(st.sets(st.integers(0, n), min_size=1)):
            comps[j][tuple(m * (i == j) for i in range(n + 1))] = F(0)
    elif kind == "common zero":
        comps[n] = comps[0]
    try:
        return make_map(n, m, [[(e, c) for e, c in comp.items() if c]
                               for comp in comps])
    except ZeroMap:
        assume(False)


class TestMacaulay:
    # At (4, 2) the power map's Koszul determinant is -1 before the
    # normalization, so that case checks the sign eps(n, m).
    @pytest.mark.parametrize("n,m", [(0, 3), (1, 2), (1, 3), (2, 2), (2, 3),
                                     (3, 2), (4, 2)])
    def test_power_map_normalization(self, n, m):
        assert macaulay_resultant(_power_map(n, m)) == 1

    def test_permuted_power_map(self):
        # Macaulay's square matrix is singular here, so level 1 of the
        # Koszul complex has to pick other rows.
        f = make_map(2, 2, [[((0, 2, 0), 1)], [((2, 0, 0), 1)], [((0, 0, 2), 1)]])
        assert macaulay_resultant(f) == 1

    def test_zero_component_short_circuit(self):
        f = make_map(1, 2, [[((2, 0), 1), ((2, 0), -1)], [((0, 2), 1)]])
        res = macaulay_resultant(f)
        assert res == 0

    def test_uncovered_vertex_short_circuit(self):
        f = make_map(2, 2, [[((2, 0, 0), 1)], [((1, 1, 0), 1)], [((1, 0, 1), 1)]])
        res = macaulay_resultant(f)
        assert res == 0

    def test_n2_morphism_example(self):
        f = make_map(2, 2, [[((2, 0, 0), 1)],
                            [((1, 1, 0), 1), ((0, 2, 0), 1)],
                            [((0, 0, 2), 1), ((1, 0, 1), 1)]])
        res = macaulay_resultant(f)
        assert res != 0

    def test_agrees_with_sylvester(self):
        rng = Random(101)
        for _ in range(120):
            m = rng.choice((2, 3, 4))
            f = random_map(rng, 1, m)
            res = macaulay_resultant(f)
            assert res == sylvester_resultant(f)

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            macaulay_resultant(_power_map(4, 5))

    def test_size_limit_is_morphism(self):
        with pytest.raises(SizeLimit):
            is_morphism(_power_map(4, 5))

    def test_determinism(self):
        f = make_map(2, 2, [[((0, 2, 0), 1)], [((2, 0, 0), 1)], [((0, 0, 2), 1)]])
        a = macaulay_resultant(f)
        b = macaulay_resultant(f)
        assert a == b

    def test_linear_form_product_oracle(self):
        # For components that split into linear forms the resultant factors
        # into 3x3 determinants, one per choice of a factor from each
        # component.  Exercises value and sign of the n=2 construction.
        rng = Random(103)
        checked = 0
        while checked < 12:
            forms = [[[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)]
                     for _ in range(3)]
            if any(not any(row) for f3 in forms for row in f3):
                continue
            comps = []
            for f3 in forms:
                acc = {}
                for e1, e2 in product(range(3), range(3)):
                    c = F(f3[0][e1]) * F(f3[1][e2])
                    if c:
                        e = tuple(int(e1 == i) + int(e2 == i) for i in range(3))
                        acc[e] = acc.get(e, F(0)) + c
                if not acc:
                    break
                comps.append(list(acc.items()))
            else:
                f = make_map(2, 2, comps)
                res = macaulay_resultant(f)
                expected = F(1)
                for a, b, c in product(range(2), repeat=3):
                    expected *= det_rational([
                        [F(x) for x in forms[0][a]],
                        [F(x) for x in forms[1][b]],
                        [F(x) for x in forms[2][c]]])
                assert res == expected
                checked += 1

    def test_linearly_dependent_components(self):
        # f1 = -f0: the tuple spans two forms only, so common zeros exist
        # over the closure and the resultant is exactly zero
        f = make_map(2, 2, [[((1, 1, 0), 1), ((0, 2, 0), 1), ((0, 1, 1), 1)],
                            [((1, 1, 0), -1), ((0, 2, 0), -1), ((0, 1, 1), -1)],
                            [((2, 0, 0), -1), ((1, 0, 1), 1), ((0, 2, 0), -1),
                             ((0, 0, 2), -1)]])
        assert macaulay_resultant(f) == 0
        assert not is_morphism(f)

    def test_rational_common_zero_forces_zero(self):
        # every component divisible by x0 - 2x1: zero at (2 : 1)
        f = make_map(1, 2, [[((2, 0), 1), ((1, 1), -2)],
                            [((1, 1), 1), ((0, 2), -2)]])
        assert macaulay_resultant(f) == 0

    def test_source_covariance(self):
        # Res(f . g) = det(g)^(m^(n+1)) Res(f)
        rng = Random(107)
        checked = 0
        while checked < 10:
            n = rng.choice((1, 2))
            m = 2
            f = random_map(rng, n, m)
            g = [[F(rng.randint(-2, 2)) for _ in range(n + 1)]
                 for _ in range(n + 1)]
            d = det_rational([row[:] for row in g])
            if d == 0:
                continue
            eye = [[F(int(i == j)) for j in range(n + 1)] for i in range(n + 1)]
            moved = apply_linear_change(f, make_linear_change(g, eye))
            r1 = macaulay_resultant(f)
            r2 = macaulay_resultant(moved)
            assert r2 == r1 * d ** (m ** (n + 1))
            checked += 1

    def test_component_scaling_degree(self):
        # scaling one component by u multiplies the resultant by u^(m^n);
        # a fractional u makes the scaled component's lcm exceed 1
        rng = Random(109)
        nonzero = 0
        for u in (F(2), F(3), F(-2), F(5), F(1, 2), F(-2, 3)) * 2:
            n, m = rng.choice(((1, 2), (1, 3), (2, 2)))
            f = random_map(rng, n, m)
            r1 = macaulay_resultant(f)
            comps = [list(comp.terms) for comp in f.components]
            comps[0] = [(e, c * u) for e, c in comps[0]]
            r2 = macaulay_resultant(make_map(n, m, comps))
            assert r2 == r1 * u ** (m ** n)
            nonzero += r1 != 0
        assert nonzero >= 8

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_group_action_oracle(self, data):
        # Res(h^-1 . f . g) = det(g)^(m^(n+1)) * det(h)^(-m^n) * Res(f) at
        # n = 2, with both the source change g and the target change h.
        m = data.draw(st.sampled_from((2, 3)))
        monos = monomials_of_degree(3, m)
        flat = data.draw(st.lists(st.sampled_from((-1, 0, 1)),
                                  min_size=3 * len(monos),
                                  max_size=3 * len(monos)))
        matrix = st.lists(st.lists(st.integers(-2, 2), min_size=3,
                                   max_size=3), min_size=3, max_size=3)
        g, h = data.draw(matrix), data.draw(matrix)
        dg = det_rational([[F(x) for x in row] for row in g])
        dh = det_rational([[F(x) for x in row] for row in h])
        assume(dg != 0 and dh != 0)
        comps = [[(e, c) for e, c in zip(monos, flat[k::3]) if c]
                 for k in range(3)]
        try:
            f = make_map(2, m, comps)
        except ZeroMap:
            assume(False)
        moved = apply_linear_change(f, make_linear_change(g, h))
        assert (macaulay_resultant(moved)
                == dg ** (m ** 3) * dh ** (-m ** 2)
                * macaulay_resultant(f))

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    def test_nonzero_exactly_for_morphisms(self, n, m):
        rng = Random(131 + 10 * n + m)
        seen = set()
        for _ in range(40):
            coeffs = rng.choice(((F(-1), F(0), F(1)),
                                 (F(0), F(0), F(0), F(1))))
            f = random_map(rng, n, m, coeffs)
            verdict = is_morphism(f)
            assert (macaulay_resultant(f) != 0) == verdict
            seen.add(verdict)
        assert seen == {True, False}


    @pytest.mark.parametrize("n,m,seed,shapes,lead,singular", [
        (3, 3, 2, [(336, 220), (120, 116), (4, 4)], (0, 1, 2, 3), False),
        (3, 3, 5, [(336, 220), (120, 116), (4, 4)], (0, 1, 3, 2), True),
        (2, 3, 2, [(45, 36), (9, 9)], (0, 2, 1), False),
        (2, 3, 11, [(45, 36), (9, 9)], (0, 1, 2), True),
    ], ids=["dense-3-3", "matched-singular-3-3", "matched-lead",
            "singular-macaulay-block"])
    def test_kernel_matches_reference_on_every_level(
            self, monkeypatch, n, m, seed, shapes, lead, singular):
        # Every level matrix as _koszul_determinant hands it to the kernel.
        # At (2, 3) seed 2, f_1 lacks x_1^3, and Macaulay's rows take x_1^3
        # from f_2 and x_2^3 from f_1, which makes their block nonsingular.
        # At (3, 3) seed 5 and (2, 3) seed 11 the matched block is still
        # singular, so rows past Macaulay's get picked on level 1.
        f = random_map(Random(seed), n, m)
        assert _pure_power_matching(_koszul_input(f)[0], n, m) == lead
        calls = []
        kernel = linalg.pivot_rows

        def recording(rows, need):
            calls.append((rows, need, kernel(rows, need)))
            return calls[-1][2]

        monkeypatch.setattr(linalg, "pivot_rows", recording)
        assert macaulay_resultant(f) != 0
        assert [(len(rows), need) for rows, need, _ in calls[:n]] == shapes
        for rows, need, out in calls:
            # The value is nonzero, so every live column holds a nonzero.
            columns = sorted(set().union(*rows))
            assert len(columns) == need
            check_pivot_rows_contract(rows, need, out, columns)
        chosen, _ = calls[0][2]
        assert (max(chosen) >= shapes[0][1]) == singular

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(_koszul_cases())
    def test_matches_reference_cayley_product(self, f):
        # The reference takes every level's rows in ascending order with
        # the dense kernel: no matching, no reordering of leftover rows.
        # Component j times lcms[j] scales the resultant by
        # lcms[j] ** (m ** n), which the correction divides out; the shared
        # entry scales the components the same way.
        n, m = f.n, f.m
        int_dicts, lcms = integer_components(f)
        correction = prod(F(k) ** (m ** n) for k in lcms)
        entry = _koszul_input(f)
        assert entry is None or entry[:2] == (int_dicts, lcms)
        power = [{tuple(m * (i == j) for i in range(n + 1)): 1}
                 for j in range(n + 1)]
        expected = (reference_koszul_determinant(int_dicts, n, m)
                    * reference_koszul_determinant(power, n, m) / correction)
        assert macaulay_resultant(f) == expected

    def test_level_one_order_cache_is_bounded(self):
        # Component j = x_perm[j]^2 holds the only pure power x_perm[j]^2,
        # so the 120 permutations at (4, 2) give 120 matchings, each
        # perm's inverse.
        _level_one_order.cache_clear()
        for perm in permutations(range(5)):
            power = [{tuple(2 * (i == v) for i in range(5)): 1}
                     for v in perm]
            lead = _pure_power_matching(power, 4, 2)
            assert [perm[j] for j in lead] == list(range(5))
            _level_one_order(4, 2, lead)
        info = _level_one_order.cache_info()
        assert info.maxsize is not None
        assert info.currsize == info.maxsize < 120

    @pytest.mark.parametrize("n,m,seed", [(2, 3, 2), (3, 3, 5), (3, 1, 7)])
    def test_koszul_rows_match_reference_boundary(self, n, m, seed):
        # Three maps per size: random with missing terms, f_0 without its
        # pure power x_0^m, and one given zero coefficients that make_map
        # drops.  Every level's rows, made dense, are the boundary matrix
        # built from the formula alone, with no zero stored.  The shared
        # entry gives the integer components, their lcms and the level-1
        # rows, or None exactly when a common zero is explicit.
        rng = Random(seed)
        monos = monomials_of_degree(n + 1, m)
        pure = tuple(m * (i == 0) for i in range(n + 1))
        full = random_map(rng, n, m)
        drawn = [[(e, rng.choice((-1, 0, 1))) for e in monos]
                 for _ in range(n + 1)]
        zero_dropped = make_map(n, m, drawn)
        assert (sum(len(comp.terms) for comp in zero_dropped.components)
                < sum(len(comp) for comp in drawn))
        maps = [full,
                make_map(n, m, [[(e, c) for e, c in comp.terms if e != pure]
                                for comp in full.components]),
                zero_dropped]
        explicit = []
        for f in maps:
            int_dicts, lcms = integer_components(f)
            entry = _koszul_input(f)
            explicit.append(entry is None)
            assert explicit[-1] == (not all(vertex_coverage(f)) or any(
                comp.is_zero() for comp in f.components))
            assert explicit[-1] or entry == (
                int_dicts, lcms, _koszul_rows(int_dicts, n, m, 1))
            for k in range(1, n + 2):
                offset, position, _ = _koszul_level(n, m, k - 1)
                columns = range(len(offset) * len(position))
                rows = _koszul_rows(int_dicts, n, m, k)
                assert all(x for row in rows for x in row.values())
                assert ([[row.get(c, 0) for c in columns] for row in rows]
                        == _reference_boundary(int_dicts, n, m, k))
        assert explicit == [False, True, seed == 2]

    def test_koszul_shifts_cache_is_bounded(self):
        # Each level's shifts sit in its _koszul_level table: one shift
        # tuple per degree-m exponent, one position per level-k monomial.
        # At m = 1 every level past the first has no monomials, so the
        # tables are small; n <= 11 gives 78 distinct (n, m, k).
        _koszul_level.cache_clear()
        keys = [(n, 1, k) for n in range(12) for k in range(1, n + 2)]
        for n, m, k in keys:
            _, position, shifts = _koszul_level(n, m, k)
            assert len(shifts) == n + 1
            assert all(len(s) == len(position) == (k == 1)
                       for s in shifts.values())
        info = _koszul_level.cache_info()
        assert info.maxsize is not None
        assert info.currsize == info.maxsize < len(keys)

    def test_linear_map_resultant_is_its_determinant(self):
        # At m = 1 the lead is the identity whatever the map; a permutation
        # of the coordinates has the sign of perm as its determinant.
        for perm in permutations(range(5)):
            f = make_map(4, 1, [[(tuple(int(i == v) for i in range(5)), 1)]
                                for v in perm])
            assert _pure_power_matching(_koszul_input(f)[0],
                                        4, 1) == tuple(range(5))
            assert macaulay_resultant(f) == permutation_sign(perm)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_pure_power_matching_against_hall(self, data):
        # Hall's theorem: the variables can be matched to distinct
        # components holding their pure powers exactly when every set S of
        # variables has at least |S| components holding some x_j^m, j in S.
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(2, 3))
        holds = data.draw(st.lists(
            st.lists(st.booleans(), min_size=n + 1, max_size=n + 1),
            min_size=n + 1, max_size=n + 1))
        mixed = (m - 1, 1) + (0,) * (n - 1)
        comps = [{mixed: 1} | {tuple(m * (i == j) for i in range(n + 1)): 1
                               for j in range(n + 1) if row[j]}
                 for row in holds]
        lead = _pure_power_matching(comps, n, m)
        identity = tuple(range(n + 1))
        assert sorted(lead) == list(identity)
        hall = all(sum(any(row[j] for j in s) for row in holds) >= size
                   for size in range(1, n + 2)
                   for s in combinations(identity, size))
        valid = all(holds[i][j] for j, i in enumerate(lead))
        assert hall or lead == identity
        assert valid or not hall
        if all(holds[j][j] for j in identity):
            assert lead == identity


class TestMacaulayRatio:
    """Res = det M / det M' (Macaulay, 1902), with M and M' built from the
    definition by tests/helpers.macaulay_ratio and its own dense
    determinant: an oracle at n >= 2 that shares no code with linalg or
    resultant.  A draw with det M' = 0 is discarded."""

    @settings(max_examples=80)
    @given(size=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_ratio_formula(self, size, seed):
        f = random_map(Random(seed), *size)
        ratio = macaulay_ratio(f)
        assume(ratio is not None)
        assert macaulay_resultant(f) == ratio

    def test_ratio_formula_where_the_power_map_sign_is_minus_one(self):
        # The sign that makes the power map give 1 is +1 at every size
        # above, so only a size where it is -1, as at (4, 2), shows that
        # it is applied.  M is 210 x 210 there: one draw, the first with
        # det M' != 0.
        for seed in range(20):
            f = random_map(Random(seed), 4, 2)
            ratio = macaulay_ratio(f)
            if ratio is not None:
                break
        assert ratio not in (None, 0)
        assert macaulay_resultant(f) == ratio


class TestCompositionLaw:
    """Res(F . G) = Res(F)^(e^n) * Res(G)^(d^(n+1)) for F of degree d and
    G of degree e on P^n (Jouanolou, Adv. Math. 90, 1991).

    The law ties three Koszul values together whichever rows each picks.
    Only |Res| outside {0, 1} is drawn, where swapped exponents would fail.
    """

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_composition(self, data):
        n = data.draw(st.integers(1, 3))
        d = data.draw(st.integers(1, 2))
        e = data.draw(st.integers(1, 2 if n < 3 or d == 1 else 1))
        rng = Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        outer, inner = random_map(rng, n, d), random_map(rng, n, e)
        r_outer = macaulay_resultant(outer)
        r_inner = macaulay_resultant(inner)
        assume(abs(r_outer) not in (0, 1) and abs(r_inner) not in (0, 1))
        assert (macaulay_resultant(compose(outer, inner))
                == r_outer ** (e ** n) * r_inner ** (d ** (n + 1)))

    @pytest.mark.parametrize("n,m", [(1, 2), (1, 3), (2, 2)])
    def test_iterate(self, n, m):
        # F = G = f: Res(f . f) = Res(f)^(m^n + m^(n+1)).
        rng = Random(139 + 10 * n + m)
        checked = 0
        while checked < 4:
            f = random_map(rng, n, m)
            r = macaulay_resultant(f)
            if abs(r) in (0, 1):
                continue
            assert (macaulay_resultant(iterate(f, 2))
                    == r ** (m ** n + m ** (n + 1)))
            checked += 1


class TestMonomials:
    @pytest.mark.parametrize("num_vars", range(1, 6))
    def test_descending_lex_order(self, num_vars):
        for degree in range(6):
            assert (list(monomials_of_degree(num_vars, degree))
                    == _descending_monomials(num_vars, degree))

    def test_no_recursion_limit(self):
        # The coordinate linear map of P^1200: 1201 variables, past the
        # interpreter's default recursion limit of 1000.
        n = 1200
        f = make_map(n, 1, [[(tuple(int(i == j) for i in range(n + 1)), 1)]
                            for j in range(n + 1)])
        assert is_morphism(f)

    def test_one_variable_at_any_degree(self):
        # check_matrix_size passes every degree at n = 0; x0^m is not
        # listed as m indices, which at m = 10**9 filled memory.
        m = 10 ** 9
        assert monomials_of_degree(1, m) == ((m,),)
        f = make_map(0, m, [[((m,), 3)]])
        assert is_morphism(f)
        assert macaulay_resultant(f) == 3


class TestIsMorphism:
    def test_examples(self):
        assert is_morphism(make_map(1, 3, [[((3, 0), 1), ((0, 3), 1)],
                                           [((2, 1), 1)]]))
        assert not is_morphism(make_map(1, 2, [[((2, 0), 1)], [((1, 1), 1)]]))
        assert is_morphism(make_map(1, 3, [[((3, 0), 1)],
                                           [((0, 3), 1), ((1, 2), 1)]]))

    def test_exact_rank_when_certificate_prime_divides(self):
        # Modulo 1000003 the first component vanishes, so only the exact
        # rank can show that this power map is a morphism.
        f = make_map(1, 2, [[((2, 0), 1000003)], [((0, 2), 1)]])
        assert is_morphism(f)

    def test_matches_sylvester(self):
        rng = Random(113)
        seen = set()
        for _ in range(90):
            m = rng.choice((2, 3, 4))
            coeffs = rng.choice(((F(-1), F(0), F(1)), (F(0), F(0), F(1))))
            f = random_map(rng, 1, m, coeffs)
            verdict = is_morphism(f)
            assert verdict == (sylvester_resultant(f) != 0)
            seen.add(verdict)
        assert seen == {True, False}

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.sampled_from((-1, 0, 1)), min_size=18, max_size=18))
    def test_matches_groebner_zero_dimensionality(self, flat):
        # A homogeneous ideal has a finite affine zero set exactly when that
        # set is the origin alone, i.e. when the forms share no projective
        # zero.
        monos = monomials_of_degree(3, 2)
        comps = [[(e, c) for e, c in zip(monos, flat[6 * j:6 * j + 6]) if c]
                 for j in range(3)]
        try:
            f = make_map(2, 2, comps)
        except ZeroMap:
            assume(False)
        xs = sympy.symbols("x0:3")
        polys = [sum((c * sympy.prod(x ** k for x, k in zip(xs, e))
                      for e, c in comp), sympy.Integer(0)) for comp in comps]
        basis = sympy.groebner(polys, *xs, order="grevlex")
        assert is_morphism(f) == basis.is_zero_dimensional

    def test_listing_caches_are_bounded(self):
        # The coordinate linear maps of P^0 .. P^39 are 40 (n, m) classes,
        # each listing the monomials of degrees 1 and 0 in n+1 variables:
        # more keys than either cache keeps.
        caches = (monomials_of_degree, _koszul_level)
        for cached in caches:
            cached.cache_clear()
        for n in range(40):
            assert is_morphism(_power_map(n, 1))
        for cached in caches:
            info = cached.cache_info()
            assert info.maxsize is not None
            assert info.currsize == info.maxsize < 40


class TestProbe:
    def test_common_zero_found(self):
        f = make_map(1, 2, [[((2, 0), 1)], [((1, 1), 1)]])
        assert ff_zero_probe(f, 5).zeros_found == ((0, 1),)

    def test_power_map_clean(self):
        for p in (5, 101):
            assert ff_zero_probe(_power_map(2, 2), p).zeros_found == ()

    def test_good_reduction_zeros(self):
        # morphism over Q whose reduction mod 5 degenerates: resultant 25
        f = make_map(1, 2, [[((2, 0), 1), ((0, 2), 1)],
                            [((2, 0), -4), ((0, 2), 1)]])
        report = ff_zero_probe(f, 5)
        assert report.zeros_found == ((1, 2), (1, 3))
        res = macaulay_resultant(f)
        assert res == 25 and res % 5 == 0

    def test_bad_prime(self):
        f = make_map(1, 2, [[((2, 0), F(1, 5))], [((0, 2), 1)]])
        with pytest.raises(BadPrime):
            ff_zero_probe(f, 5)

    # 561 is a Carmichael number; 318665857834031151167461 is a strong
    # pseudoprime to the first twelve prime bases; PRIMALITY_BOUND is one to
    # the first thirteen, so no modulus from there on is proven prime.  The
    # check is called directly: a probe that wrongly accepted one of the
    # large moduli would scan about p points.
    @pytest.mark.parametrize("p", [1, 4, 9, 15, 561, 318665857834031151167461,
                                   PRIMALITY_BOUND, PRIMALITY_BOUND + 2])
    def test_modulus_not_proven_prime(self, p):
        with pytest.raises(BadPrime):
            reduce_map_mod_p(_power_map(1, 2), p)

    @pytest.mark.parametrize("p", [101.0, "101", F(101), True],
                             ids=["float", "str", "fraction", "bool"])
    def test_modulus_that_is_not_an_int(self, p):
        # The first three raised a bare TypeError from the primality test,
        # in the probe and in verify_preimage alike.
        with pytest.raises(BadPrime, match="must be an int"):
            ff_zero_probe(_power_map(1, 2), p)
        f = _power_map(2, 2)
        with pytest.raises(BadPrime, match="must be an int"):
            verify_preimage(f, detect_blocks(f)[0], p)

    @pytest.mark.parametrize("n,error", [
        ("2", DegreeMismatch), (2.0, DegreeMismatch), (True, DegreeMismatch),
        (None, DegreeMismatch), (-1, DimensionMismatch)],
        ids=["str", "float", "bool", "none", "negative"])
    def test_default_probe_primes_checks_n(self, n, error):
        # "2" raised TypeError, and 2.0 and -1 gave (101, 103, 107); the
        # check runs before the cache, where 2.0 and True would find 2 and 1.
        assert default_probe_primes(1) == default_probe_primes(2) == \
            (101, 103, 107)
        with pytest.raises(error):
            default_probe_primes(n)

    def test_numbers_past_the_str_digit_limit_are_bad_primes(self):
        # str() refuses ints past 4300 digits by default, so the error line
        # gives their size in bits instead of their digits.
        identity = make_map(1, 1, [[((1, 0), 1)], [((0, 1), 1)]])
        with pytest.raises(BadPrime, match="16610 bits"):
            ff_zero_probe(identity, 10 ** 5000)
        f = make_map(1, 1, [[((1, 0), F(1, 3 ** 9500))], [((0, 1), 1)]])
        with pytest.raises(BadPrime, match="15058 bits.*vanishes mod 3"):
            ff_zero_probe(f, 3)

    def test_scan_size_limit(self):
        # P^1(F_1000003) has 1000004 points, just above the bound.
        with pytest.raises(SizeLimit):
            ff_zero_probe(_power_map(1, 2), 1000003)

    def test_primality_matches_sympy(self):
        for n in range(3000):
            assert is_prime(n) == sympy.isprime(n), n
        for n in (2 ** 61 - 1, 2 ** 61 + 1, 1000003 * 1000033):
            assert is_prime(n) == sympy.isprime(n), n

    def test_soundness_link_sample(self):
        rng = Random(127)
        hits = 0
        for _ in range(40):
            f = random_map(rng, 2, 2)
            res = macaulay_resultant(f)
            for p in (101, 103):
                if ff_zero_probe(f, p).zeros_found:
                    hits += 1
                    num = res.numerator
                    den = res.denominator
                    assert den % p != 0 and num % p == 0
        # the law must have been exercised at least once on this seed
        assert hits >= 1

    def test_canonical_point_order_no_duplicates(self):
        f = make_map(1, 2, [[((2, 0), 1), ((0, 2), -1)],
                            [((2, 0), 1), ((0, 2), -1)]])
        zeros = ff_zero_probe(f, 7).zeros_found
        assert zeros == ((1, 1), (1, 6))
        assert len(set(zeros)) == len(zeros)
        assert all(z[next(i for i, x in enumerate(z) if x)] == 1 for z in zeros)


def _canonical_points(n, p):
    """P^n(F_p) chart by chart: the points whose first nonzero coordinate
    is a 1 at position lead, for lead = 0, ..., n, each chart in
    lexicographic order."""
    return [(0,) * lead + (1,) + rest for lead in range(n + 1)
            for rest in product(range(p), repeat=n - lead)]


def _vanish_mod_p(values, p):
    """Which exact values (denominators prime to p) reduce to 0 mod p."""
    return [v.numerator * pow(v.denominator, -1, p) % p == 0 for v in values]


def _pointwise_zeros(f, p):
    """Common zeros of f in P^n(F_p), each point evaluated from the
    coefficients reduced mod p once."""
    residues = [[(e, c.numerator * pow(c.denominator, -1, p) % p)
                 for e, c in comp.terms] for comp in f.components]

    def vanishes(pt):
        return all(sum(a * prod(map(pow, pt, e)) for e, a in terms) % p == 0
                   for terms in residues)

    return tuple(filter(vanishes, _canonical_points(f.n, p)))


@st.composite
def _maps_mod_p(draw, primes=(2, 3, 5, 7), max_n=3):
    """A sparse map with 1 <= n <= max_n and a prime p from primes.

    Coefficients are rationals with denominators prime to p.  Each
    component only uses a drawn set of variables, which may be empty (a
    zero component), so blocks and common zeros are frequent.
    """
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, 3 if n < 3 else 2))
    p = draw(st.sampled_from(primes))
    coeff = st.builds(F, st.integers(-3, 3),
                      st.sampled_from([d for d in (1, 2, 3, 4, 5, 7) if d % p]))
    comps = []
    for _ in range(n + 1):
        used = draw(st.one_of(st.sets(st.integers(0, n), max_size=n + 1),
                              st.just(range(n + 1))))
        comps.append([(e, draw(coeff)) for e in monomials_of_degree(n + 1, m)
                      if all(k == 0 or i in used for i, k in enumerate(e))])
    try:
        return make_map(n, m, comps), p
    except ZeroMap:
        assume(False)


@st.composite
def _maps_at_default_primes(draw):
    """A dense map with n = 2, m in {2, 3} and p in {101, 103, 107}: either
    with a planted rational common zero or with the first two components
    sharing a linear factor, so that the probe's resultant filter both
    drops lines and keeps them."""
    m = draw(st.sampled_from((2, 3)))
    p = draw(st.sampled_from((101, 103, 107)))
    small = st.integers(-3, 3)

    def form(d):
        return {e: draw(small) for e in monomials_of_degree(3, d)}

    if draw(st.booleans()):
        comps = [form(m) for _ in range(3)]
        point = [draw(small) for _ in range(3)]
        j = draw(st.integers(0, 2))
        point[j] = 1
        pure = tuple(m if i == j else 0 for i in range(3))
        for comp in comps:
            comp[pure] = comp.get(pure, 0) - sum(
                c * prod(map(pow, point, e)) for e, c in comp.items())
    else:
        factor = form(1)
        comps = [_dict_mul(factor, form(m - 1)) for _ in range(2)] + [form(m)]
    try:
        return make_map(2, m, [[(e, c) for e, c in comp.items() if c]
                               for comp in comps]), p
    except ZeroMap:
        assume(False)


class TestChartScanOracle:
    """Both chart-wise scans against evaluation point by point."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(_maps_mod_p())
    def test_probe_matches_pointwise_evaluation(self, case):
        f, p = case
        assert ff_zero_probe(f, p).zeros_found == _pointwise_zeros(f, p)

    # The property above draws p <= 7, where F_p has at most six nonzero
    # residues to invert; this one runs Euclid's steps over F_11, F_13 and
    # F_31, at n <= 2 so that the pointwise oracle stays affordable.
    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(_maps_mod_p(primes=(11, 13, 31), max_n=2))
    def test_probe_matches_pointwise_evaluation_larger_primes(self, case):
        f, p = case
        assert ff_zero_probe(f, p).zeros_found == _pointwise_zeros(f, p)

    # The default probe primes of n <= 2, where the filter drops most lines
    # of chart 0 unless the first two components share a factor.
    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(_maps_at_default_primes())
    def test_probe_matches_pointwise_evaluation_default_primes(self, case):
        f, p = case
        assert ff_zero_probe(f, p).zeros_found == _pointwise_zeros(f, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_canonical_points_match_brute_force(self, p):
        # The definition by brute force: every tuple of F_p^(n+1) whose
        # first nonzero entry is 1, by the index of that 1 and then
        # lexicographically.
        def lead(pt):
            return next(i for i, x in enumerate(pt) if x)

        for n in range(4):
            brute = sorted((pt for pt in product(range(p), repeat=n + 1)
                            if any(pt) and pt[lead(pt)] == 1),
                           key=lambda pt: (lead(pt), pt))
            assert _canonical_points(n, p) == brute

    # The scan drops the components with no term left on a chart, restricts
    # the others to each line in the chart's last coordinate, keeps the
    # lines where a Bezout resultant of the first two vanishes and takes
    # the roots of their gcd at which the others vanish; these maps reach
    # each branch of that scan.
    @pytest.mark.parametrize("f, p, count", [
        # 3x0^2 + 6x1x2 is 0 mod 3, so it is dropped on every chart.
        (make_map(2, 2, [[((2, 0, 0), 3), ((0, 1, 1), 6)],
                         [((1, 1, 0), 1)],
                         [((0, 0, 2), 1), ((2, 0, 0), -1), ((0, 2, 0), 1)]]),
         3, 2),
        # x0^2x1 + x0x1^2 is nonzero but vanishes on all of P^1(F_2).
        (make_map(1, 3, [[((2, 1), 1), ((1, 2), 1)],
                         [((3, 0), 1), ((0, 3), 1)]]), 2, 1),
        # Every component vanishes on the charts of x0 = 0.
        (make_map(2, 2, [[((2, 0, 0), 1)], [((1, 1, 0), 1)],
                         [((1, 0, 1), 1)]]), 5, 6),
        (make_map(0, 2, [[((2,), 3)]]), 3, 1),
        (make_map(0, 2, [[((2,), 3)]]), 5, 0),
        # The line x2 = x3 = 0 is the common zero set (-1 is no square
        # mod 31).
        (make_map(3, 2, [[((1, 0, 1, 0), 1)], [((0, 1, 0, 1), 1)],
                         [((1, 0, 0, 1), 1), ((0, 1, 1, 0), -1)],
                         [((0, 0, 2, 0), 1), ((0, 0, 0, 2), 1)]]), 31, 32),
        # (x0 + 2x2)x1, (x0 + 2x2 + 7x1)x2 and (x0 + 9x2)(x0 - x1) share
        # x0 + 2x2 mod 7 only: every line has the root of 1 + 2t (or 2t),
        # so each gcd has degree 1.
        (make_map(2, 2, [[((1, 1, 0), 1), ((0, 1, 1), 2)],
                         [((1, 0, 1), 1), ((0, 0, 2), 2), ((0, 1, 1), 7)],
                         [((2, 0, 0), 1), ((1, 1, 0), -1), ((1, 0, 1), 9),
                          ((0, 1, 1), -9)]]), 7, 8),
        # (x1^2 + x2^2)x_j, with 7x0^2x2 added to the last, share
        # x1^2 + x2^2 mod 7.  It has no root on a line with x1 != 0 (-1 is
        # no square mod 7), so those gcds of degree 2 are evaluated to find
        # nothing; on the line x1 = 0 the gcd t^2 gives (1, 0, 0).
        (make_map(2, 3, [[((1, 2, 0), 1), ((1, 0, 2), 1)],
                         [((0, 3, 0), 1), ((0, 1, 2), 1)],
                         [((0, 2, 1), 1), ((0, 0, 3), 1), ((2, 0, 1), 7)]]),
         7, 1),
        # x1x2 and x1(x2 - x0) vanish on the line x1 = 0 only, where the gcd
        # is x0^2 - x2^2 + x1^2 alone, with the roots t = 1, 4.
        (make_map(2, 2, [[((0, 1, 1), 1)], [((0, 1, 1), 1), ((1, 1, 0), -1)],
                         [((2, 0, 0), 1), ((0, 0, 2), -1), ((0, 2, 0), 1)]]),
         5, 2),
        # x0x1, x1x2 and x1^2 all vanish on the line x1 = 0: the whole line.
        (make_map(2, 2, [[((1, 1, 0), 1)], [((0, 1, 1), 1)],
                         [((0, 2, 0), 1)]]), 5, 6),
        # m >= p: x1^3 - x0^2x1 is 0 on every line of chart x0 = 1 mod 3,
        # and x2^3 - x0^2x2 is a nonzero cubic with every t in F_3 as a
        # root, so the gcd is qt + 1, from x0x1x2 + x0^3, with a root for
        # each q != 0.
        (make_map(2, 3, [[((0, 3, 0), 1), ((2, 1, 0), -1)],
                         [((0, 0, 3), 1), ((2, 0, 1), -1)],
                         [((1, 1, 1), 1), ((3, 0, 0), 1)]]), 3, 2),
        # On chart 0 the filter pads x1^2 - x0^2, constant in t = x2, to the
        # degree of x2^2 - x0^2; with x1x2 - x0^2 that leaves (1, 1, 1) and
        # (1, 6, 6).
        (make_map(2, 2, [[((0, 2, 0), 1), ((2, 0, 0), -1)],
                         [((0, 0, 2), 1), ((2, 0, 0), -1)],
                         [((0, 1, 1), 1), ((2, 0, 0), -1)]]), 7, 2),
        # x1x2^2 + x0^2x2 - x0^3 is q t^2 + t - 1 on the line x1 = q: its
        # degree drops at q = 0, where it shares the root t = 1 with
        # x2^3 - x0^3 and x1(x2^2 - x0^2) vanishes; (0, 1, 0) is the other.
        (make_map(2, 3, [[((0, 1, 2), 1), ((2, 0, 1), 1), ((3, 0, 0), -1)],
                         [((0, 0, 3), 1), ((3, 0, 0), -1)],
                         [((0, 1, 2), 1), ((2, 1, 0), -1)]]), 7, 2),
        # Only x1x3 - x2^2 is live on the chart x0 = 0, x1 = 1, which has 5
        # lines and nothing to filter: all of x3 = x2^2 there, plus
        # (1, 0, 0, 0) and (0, 0, 0, 1).
        (make_map(3, 2, [[((1, 1, 0, 0), 1)], [((1, 0, 1, 0), 1)],
                         [((1, 0, 0, 1), 1)],
                         [((0, 1, 0, 1), 1), ((0, 0, 2, 0), -1)]]), 5, 7),
        # (x1 + 2x2)x0 and (x1 + 2x2 + 5x0)x1 share x1 + 2x2 mod 5, so the
        # filter keeps every line of chart 0; x2^2 - x0^2 leaves (1, 3, 1)
        # and (1, 2, 4).
        (make_map(2, 2, [[((1, 1, 0), 1), ((1, 0, 1), 2)],
                         [((0, 2, 0), 1), ((0, 1, 1), 2), ((1, 1, 0), 5)],
                         [((0, 0, 2), 1), ((2, 0, 0), -1)]]), 5, 2),
        # x1^2 - x0^2 and x0x1 - x0^2 are constant in t = x2 (D = 0) and both
        # vanish on the line x1 = 1 only, where x2^2 - x0^2 has t = 1, 6.
        (make_map(2, 2, [[((0, 2, 0), 1), ((2, 0, 0), -1)],
                         [((1, 1, 0), 1), ((2, 0, 0), -1)],
                         [((0, 0, 2), 1), ((2, 0, 0), -1)]]), 7, 2),
    ], ids=["first-component-zero-mod-p", "form-vanishing-everywhere",
            "chart-with-no-live-component", "p0-zero", "p0-nonzero",
            "n3-p31", "linear-factor-shared-mod-p",
            "rootless-quadratic-factor-shared-mod-7",
            "restrictions-vanish-on-one-line", "whole-line-zero",
            "m-at-least-p", "first-two-of-different-degree-in-t",
            "leading-coefficient-vanishes-on-one-line",
            "one-live-component-on-a-plane-chart", "first-two-share-a-factor",
            "first-two-constant-in-t"])
    def test_sieve_edge_cases(self, f, p, count):
        zeros = ff_zero_probe(f, p).zeros_found
        assert zeros == _pointwise_zeros(f, p)
        assert len(zeros) == count

    def test_bezout_determinant_is_formal_resultant(self):
        # On each line, det B = +-Res_{D,D}(a, b), the 2D x 2D Sylvester
        # determinant at the formal degree D of the longer input, also
        # where leading coefficients vanish on some lines or where one
        # input is given without its top rows; and a line whose resultant
        # is 0 mod p is never dropped.
        rng = Random(41)
        p = 1000003
        for _ in range(40):
            d = rng.randint(1, 4)
            a, b = ([[rng.randint(-9, 9) * (rng.random() > 0.2)
                      for _ in range(2)] for _ in range(d + 1)]
                    for _ in range(2))
            short = rng.randint(1, d + 1)
            a, b = (a[:short], b) if rng.random() < 0.5 else (a, b[:short])
            matrix = ffield._bezout_matrix(a, b, p)
            keep = ffield._may_share_root(a, b, p)
            assert len(matrix) == d
            for line in range(2):
                ca, cb = ([row[line] for row in v] + [0] * (d + 1 - len(v))
                          for v in (a, b))
                sylvester = sympy.Matrix(
                    [[0] * s + ca[::-1] + [0] * (d - 1 - s) for s in range(d)]
                    + [[0] * s + cb[::-1] + [0] * (d - 1 - s)
                       for s in range(d)]).det() % p
                det = sympy.Matrix([[entry[line] for entry in row]
                                    for row in matrix]).det() % p
                assert det in (sylvester, -sylvester % p)
                assert keep[line] or sylvester

    def test_line_scan_large_prime_n1(self):
        # (x1 - 5x0)(x1 + x0) and (x1 - 5x0)(x1 - 2x0): one common root at
        # p = 999983.  P^1(F_p) has about 10^6 points, too many for the
        # pointwise oracle (several seconds), so sympy's gcd over F_p of the
        # restrictions to x0 = 1 is the oracle here, with (0, 1) checked by
        # hand: both forms are x1^2 there.
        p = 999983
        f = make_map(1, 2, [[((0, 2), 1), ((1, 1), -4), ((2, 0), -5)],
                            [((0, 2), 1), ((1, 1), -7), ((2, 0), 10)]])
        t = sympy.Symbol("t")
        g = sympy.gcd(*(sympy.Poly(sum(int(c) * t ** e[1]
                                       for e, c in comp.terms), t, modulus=p)
                        for comp in f.components)).monic()
        assert g.degree() == 1
        zeros = ff_zero_probe(f, p).zeros_found
        assert zeros == ((1, int(-g.nth(0)) % p),) == ((1, 5),)

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(_maps_mod_p())
    def test_preimage_matches_pointwise_definition(self, case):
        f, p = case
        points = _canonical_points(f.n, p)
        vanish = [_vanish_mod_p(evaluate(f, pt), p) for pt in points]
        for block in detect_blocks(f):
            expected = all(
                all(pt[i] == 0 for i in block.variables)
                == all(z[j] for j in block.components)
                for pt, z in zip(points, vanish))
            assert verify_preimage(f, block, p) == expected

