"""Weight functions, vertex coverage, subgroup canonicalization."""

from fractions import Fraction as F
from random import Random

import pytest

from projstab import (DimensionMismatch, OnePS, is_morphism, make_map,
                      vertex_coverage, weight, weight_profile)
from projstab.verify import enumerate_maps
from helpers import random_map

TRI = make_map(1, 3, [[((3, 0), 1)], [((0, 3), 1), ((1, 2), 1)]])


class TestWeight:
    def test_examples(self):
        assert weight((1, 0), (2, 0)) == 2
        assert weight((0, 0, 0), (1, 1, 1)) == 0
        assert weight((1, 1, 1), (2, 1, 0)) == 3  # constant m on the simplex

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weight((1, 0), (1, 0, 0))

    def test_linearity(self):
        rng = Random(31)
        for _ in range(30):
            k = rng.randint(2, 5)
            c1 = tuple(rng.randint(-5, 5) for _ in range(k))
            c2 = tuple(rng.randint(-5, 5) for _ in range(k))
            idx = tuple(rng.randint(0, 5) for _ in range(k))
            both = tuple(a + b for a, b in zip(c1, c2))
            assert weight(both, idx) == weight(c1, idx) + weight(c2, idx)


class TestWeightProfile:
    def test_power_map(self):
        f = make_map(1, 2, [[((2, 0), 1)], [((0, 2), 1)]])
        prof = weight_profile(f, OnePS((1, 0), (2, 0)))
        assert prof.weights_of(0) == {(2, 0): 0}
        assert prof.weights_of(1) == {(0, 2): 0}
        assert prof.K == 0

    def test_zero_subgroup(self):
        rng = Random(37)
        f = random_map(rng, 2, 2)
        prof = weight_profile(f, OnePS((0, 0, 0), (0, 0, 0)))
        assert prof.K == 0
        assert all(w == 0 for j in range(3) for w in prof.weights_of(j).values())

    def test_triangular_example(self):
        prof = weight_profile(TRI, OnePS((0, -1), (0, -3)))
        assert prof.weights_of(0) == {(3, 0): 0}
        assert prof.weights_of(1) == {(0, 3): 0, (1, 2): 1}
        assert prof.K == 0 and prof.component_minima == (0, 0)

    def test_trivial_family_constant_weights(self):
        rng = Random(41)
        for _ in range(10):
            n, m = rng.choice(((1, 2), (1, 3), (2, 2)))
            f = random_map(rng, n, m)
            t, l = rng.randint(-4, 4), rng.randint(-4, 4)
            prof = weight_profile(f, OnePS((t,) * (n + 1), (l,) * (n + 1)))
            expected = m * t - l
            assert prof.K == expected
            assert all(w == expected for j in range(n + 1)
                       for w in prof.weights_of(j).values())

    def test_empty_component_sentinel(self):
        f = make_map(1, 2, [[((2, 0), 1), ((2, 0), -1)], [((0, 2), 1)]])
        prof = weight_profile(f, OnePS((1, 0), (0, 0)))
        assert prof.component_minima[0] is None
        assert prof.K == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weight_profile(TRI, OnePS((1, 0, 0), (0, 0, 0)))


class TestVertexCoverage:
    def test_power_map(self):
        f = make_map(1, 2, [[((2, 0), 1)], [((0, 2), 1)]])
        assert vertex_coverage(f) == (True, True)

    def test_uncovered_vertex(self):
        f = make_map(1, 2, [[((2, 0), 1)], [((1, 1), 1)]])
        assert vertex_coverage(f) == (True, False)

    def test_cross_component_coverage(self):
        f = make_map(1, 3, [[((3, 0), 1), ((0, 3), 1)], [((2, 1), 1)]])
        assert vertex_coverage(f) == (True, True)

    def test_morphisms_cover_all_vertices_small_box(self):
        for f in enumerate_maps(1, 2, (F(0), F(1))):
            if is_morphism(f):
                assert all(vertex_coverage(f))


class TestOnePS:
    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            OnePS((1, 0), (0,))

    def test_canonical_shifts(self):
        sub = OnePS((0, -1), (0, -3)).canonical(3)
        assert sub == OnePS((1, 0), (3, 0))

    def test_canonical_gcd(self):
        sub = OnePS((2, 0), (6, 0)).canonical(3)
        assert sub == OnePS((1, 0), (3, 0))

    def test_zero_stays_zero(self):
        assert OnePS((0, 0), (0, 0)).canonical(2).is_zero()

    def test_from_rational(self):
        sub = OnePS.from_rational((F(1, 3), F(0)), (F(1), F(0)))
        assert sub == OnePS((1, 0), (3, 0))

    def test_canonical_preserves_weight_ordering(self):
        # canonicalization rescales all weights by a positive constant and
        # shifts them uniformly, so weight gaps keep their sign
        rng = Random(47)
        for _ in range(10):
            f = random_map(rng, 1, 3)
            c = tuple(rng.randint(-3, 3) for _ in range(2))
            b = tuple(rng.randint(-3, 3) for _ in range(2))
            sub = OnePS(c, b)
            canon = sub.canonical(3)
            prof1 = weight_profile(f, sub)
            prof2 = weight_profile(f, canon)
            for j in range(2):
                w1 = prof1.weights_of(j)
                w2 = prof2.weights_of(j)
                pairs = list(w1)
                for a in pairs:
                    for bb in pairs:
                        d1 = w1[a] - w1[bb]
                        d2 = w2[a] - w2[bb]
                        assert (d1 > 0) == (d2 > 0) and (d1 == 0) == (d2 == 0)
