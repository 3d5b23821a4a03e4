"""Sylvester and Macaulay resultants, morphism decisions, field probes."""

from fractions import Fraction as F
from itertools import product
from random import Random

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from projstab import (BadPrime, SizeLimit, WrongDimension, ZeroMap,
                      apply_linear_change, detect_blocks, evaluate,
                      ff_zero_probe, is_morphism, verify_preimage,
                      macaulay_resultant, make_linear_change, make_map,
                      sylvester_resultant)
from projstab.ffield import PRIMALITY_BOUND, is_prime, reduce_map_mod_p
from projstab.linalg import det_rational
from projstab.resultant import monomials_of_degree
from helpers import random_map


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


class TestMacaulay:
    # At (4, 2) the power map's Koszul determinant is -1 before the
    # normalization, so that case checks the sign eps(n, m).
    @pytest.mark.parametrize("n,m", [(0, 3), (1, 2), (1, 3), (2, 2), (2, 3),
                                     (3, 2), (4, 2)])
    def test_power_map_normalization(self, n, m):
        assert macaulay_resultant(_power_map(n, m)).value == 1

    def test_permuted_power_map(self):
        # Macaulay's square matrix is singular here, so level 1 of the
        # Koszul complex has to pick other rows.
        f = make_map(2, 2, [[((0, 2, 0), 1)], [((2, 0, 0), 1)], [((0, 0, 2), 1)]])
        assert macaulay_resultant(f).value == 1

    def test_zero_component_short_circuit(self):
        f = make_map(1, 2, [[((2, 0), 1), ((2, 0), -1)], [((0, 2), 1)]])
        res = macaulay_resultant(f)
        assert res.value == 0 and "zero component" in res.note

    def test_uncovered_vertex_short_circuit(self):
        f = make_map(2, 2, [[((2, 0, 0), 1)], [((1, 1, 0), 1)], [((1, 0, 1), 1)]])
        res = macaulay_resultant(f)
        assert res.value == 0

    def test_n2_morphism_example(self):
        f = make_map(2, 2, [[((2, 0, 0), 1)],
                            [((1, 1, 0), 1), ((0, 2, 0), 1)],
                            [((0, 0, 2), 1), ((1, 0, 1), 1)]])
        res = macaulay_resultant(f)
        assert res.value != 0

    def test_agrees_with_sylvester(self):
        rng = Random(101)
        for _ in range(120):
            m = rng.choice((2, 3, 4))
            f = random_map(rng, 1, m)
            res = macaulay_resultant(f)
            assert res.value == sylvester_resultant(f)

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
                assert res.value == expected
                checked += 1

    def test_linearly_dependent_components(self):
        # f1 = -f0: the tuple spans two forms only, so common zeros exist
        # over the closure and the resultant is exactly zero
        f = make_map(2, 2, [[((1, 1, 0), 1), ((0, 2, 0), 1), ((0, 1, 1), 1)],
                            [((1, 1, 0), -1), ((0, 2, 0), -1), ((0, 1, 1), -1)],
                            [((2, 0, 0), -1), ((1, 0, 1), 1), ((0, 2, 0), -1),
                             ((0, 0, 2), -1)]])
        assert macaulay_resultant(f).value == 0
        assert not is_morphism(f)

    def test_rational_common_zero_forces_zero(self):
        # every component divisible by x0 - 2x1: zero at (2 : 1)
        f = make_map(1, 2, [[((2, 0), 1), ((1, 1), -2)],
                            [((1, 1), 1), ((0, 2), -2)]])
        assert macaulay_resultant(f).value == 0

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
            assert r2.value == r1.value * d ** (m ** (n + 1))
            checked += 1

    def test_component_scaling_degree(self):
        # scaling one component by u multiplies the resultant by u^(m^n)
        rng = Random(109)
        for _ in range(10):
            n, m = rng.choice(((1, 2), (1, 3), (2, 2)))
            f = random_map(rng, n, m)
            r1 = macaulay_resultant(f)
            u = F(rng.choice((2, 3, -2, 5)))
            comps = [list(comp.terms) for comp in f.components]
            comps[0] = [(e, c * u) for e, c in comps[0]]
            r2 = macaulay_resultant(make_map(n, m, comps))
            assert r2.value == r1.value * u ** (m ** n)

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
        assert (macaulay_resultant(moved).value
                == dg ** (m ** 3) * dh ** (-m ** 2)
                * macaulay_resultant(f).value)

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    def test_nonzero_exactly_for_morphisms(self, n, m):
        rng = Random(131 + 10 * n + m)
        seen = set()
        for _ in range(40):
            coeffs = rng.choice(((F(-1), F(0), F(1)),
                                 (F(0), F(0), F(0), F(1))))
            f = random_map(rng, n, m, coeffs)
            verdict = is_morphism(f)
            assert (macaulay_resultant(f).value != 0) == verdict
            seen.add(verdict)
        assert seen == {True, False}


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
        res = macaulay_resultant(f).value
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
                    num = res.value.numerator
                    den = res.value.denominator
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
    """P^n(F_p) by brute force: every normalized tuple, sorted by the index
    of its leading 1 and then lexicographically."""
    pts = [pt for pt in product(range(p), repeat=n + 1)
           if any(pt) and pt[next(i for i, x in enumerate(pt) if x)] == 1]
    return sorted(pts, key=lambda pt: (next(i for i, x in enumerate(pt) if x),
                                       pt))


def _vanish_mod_p(values, p):
    """Which exact values (denominators prime to p) reduce to 0 mod p."""
    return [v.numerator * pow(v.denominator, -1, p) % p == 0 for v in values]


@st.composite
def _maps_mod_p(draw):
    """A sparse map with n in {1, 2, 3} and a prime p in {2, 3, 5, 7}.

    Coefficients are rationals with denominators prime to p.  Each
    component only uses a drawn set of variables, which may be empty (a
    zero component), so blocks and common zeros are frequent.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3 if n < 3 else 2))
    p = draw(st.sampled_from((2, 3, 5, 7)))
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


class TestChartScanOracle:
    """Both chart-wise scans against per-point exact evaluation."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(_maps_mod_p())
    def test_probe_matches_pointwise_evaluation(self, case):
        f, p = case
        expected = tuple(pt for pt in _canonical_points(f.n, p)
                         if all(_vanish_mod_p(evaluate(f, pt), p)))
        assert ff_zero_probe(f, p).zeros_found == expected

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
            assert verify_preimage(f, block, p, check_input=False) == expected

