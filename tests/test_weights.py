"""Weight functions, vertex coverage, subgroup validation."""

from fractions import Fraction as F
from random import Random

import pytest

from projstab import (DegreeMismatch, DimensionMismatch, OnePS, is_morphism,
                      make_map, vertex_coverage, weight, weight_profile)
from projstab.verify import enumerate_maps
from helpers import random_map

TRI = make_map(1, 3, [[((3, 0), 1)], [((0, 3), 1), ((1, 2), 1)]])


class TestWeight:
    def test_examples(self):
        assert weight((1, 0), (2, 0)) == 2
        assert weight((0, 0, 0), (1, 1, 1)) == 0
        assert weight((1, 1, 1), (2, 1, 0)) == 3  # constant m on the simplex
        assert weight((0.5, 2.9), (2, 1)) == 0.5 * 2 + 2.9  # not truncated

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
        assert prof.K == 0

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
        assert prof.weights_of(0) == {}
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

    @pytest.mark.parametrize("c, b", [((F(1, 2), 0), (0, 0)),
                                      ((0.5, 0), (0, 0)),
                                      ((1, 0), (True, 0))],
                             ids=["fraction", "float", "bool"])
    def test_non_integer_weight_is_refused(self, c, b):
        # Truncating (1/2, 0) to (0, 0) would make limit_map drop terms.
        with pytest.raises(DegreeMismatch, match="weight"):
            OnePS(c, b)
