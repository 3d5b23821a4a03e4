"""Construction, evaluation, coordinate changes and iteration of maps."""

from fractions import Fraction as F
from random import Random
from time import perf_counter

import pytest

from projstab import (BlockStructure, BudgetExceeded, DegreeMismatch,
                      DimensionMismatch, InvalidBlock, InvalidBox, ParseError,
                      SingularMatrix, SizeLimit, ZeroMap, apply_linear_change,
                      compose, default_probe_primes, evaluate, iterate,
                      loads_map, make_linear_change, make_map,
                      run_verification_suite)
from projstab.poly import COMPOSE_TERM_LIMIT
from projstab.resultant import check_matrix_size
from projstab.stability import validate_block
from projstab.linalg import mat_inverse
from helpers import mat_mul, mat_vec, random_invertible, random_map

POWER2 = make_map(1, 2, [[((2, 0), 1)], [((0, 2), 1)]])
IDENTITY2 = make_linear_change([[1, 0], [0, 1]], [[1, 0], [0, 1]])


class TestMakeMap:
    def test_power_map(self):
        assert POWER2.n == 1 and POWER2.m == 2
        assert [c.support() for c in POWER2.components] == \
            [frozenset({(2, 0)}), frozenset({(0, 2)})]

    def test_cancellation_gives_zero_component(self):
        f = make_map(1, 2, [[((2, 0), 1), ((2, 0), -1)], [((0, 2), 1)]])
        assert f.components[0].is_zero()
        assert not f.components[1].is_zero()

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            make_map(2, 2, [[((1, 1, 1), 1)], [], []])
        # Exponent entries are ints as given: never truncated or converted.
        # One with a 15058-bit denominator is past str()'s digit limit, so
        # the error line gives its size.
        for exp in ((2.7, 0.3), (True, True), ("0", "2"),
                    (F(1, 3 ** 9500), 2)):
            with pytest.raises(DegreeMismatch, match="not an integer"):
                make_map(1, 2, [[(exp, 1)], [((0, 2), 1)]])
        # A coefficient is refused as the map document grammar refuses it.
        for coeff, literal in ((0.1, "0.1"), ("1e3", '"1e3"'),
                               (" 2 ", '" 2 "')):
            with pytest.raises(ParseError) as api:
                make_map(1, 2, [[((2, 0), coeff)], [((0, 2), 1)]])
            with pytest.raises(ParseError) as doc:
                loads_map('{"n": 1, "m": 2, "components": [[{"exp": [2, 0], '
                          f'"coeff": {literal}}}], []]}}')
            assert str(api.value) == str(doc.value).replace(
                "components[0][0].coeff", "coeff")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_map(1, 2, [[((2, 0, 0), 1)], [((0, 2), 1)]])
        with pytest.raises(DimensionMismatch):
            make_map(1, 2, [[((2, 0), 1)]])

    def test_zero_map_rejected(self):
        with pytest.raises(ZeroMap):
            make_map(1, 2, [[((2, 0), 1), ((2, 0), -1)], []])

    def test_duplicates_summed(self):
        f = make_map(1, 2, [[((2, 0), 1), ((2, 0), 2)], [((0, 2), 1)]])
        assert dict(f.components[0].terms)[(2, 0)] == 3

    def test_rank_one_map_allowed(self):
        f = make_map(0, 3, [[((3,), F(1, 2))]])
        assert f.num_vars == 1

    def test_string_coefficients(self):
        f = make_map(1, 2, [[((2, 0), "1/3")], [((0, 2), "-2")]])
        assert dict(f.components[0].terms)[(2, 0)] == F(1, 3)

    def test_canonical_term_order(self):
        f = make_map(1, 2, [[((0, 2), 1), ((2, 0), 1), ((1, 1), 5)],
                            [((0, 2), 1)]])
        assert [e for e, _ in f.components[0].terms] == [(2, 0), (1, 1), (0, 2)]


class TestEvaluate:
    def test_power_map(self):
        assert evaluate(POWER2, (0, 1)) == (0, 1)

    def test_common_zero_witness(self):
        f = make_map(1, 2, [[((2, 0), 1)], [((1, 1), 1)]])
        assert evaluate(f, (0, 1)) == (0, 0)

    def test_exact_substitution(self):
        f = make_map(1, 3, [[((3, 0), 1), ((0, 3), 1)], [((2, 1), 1)]])
        assert evaluate(f, (1, -1)) == (0, -1)

    def test_rational_point(self):
        assert evaluate(POWER2, (F(1, 2), F(2, 3))) == (F(1, 4), F(4, 9))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate(POWER2, (1, 2, 3))


class TestLinearChange:
    def test_identity(self):
        assert apply_linear_change(POWER2, IDENTITY2) == POWER2

    def test_swap(self):
        ch = make_linear_change([[0, 1], [1, 0]], [[1, 0], [0, 1]])
        g = apply_linear_change(POWER2, ch)
        assert g == make_map(1, 2, [[((0, 2), 1)], [((2, 0), 1)]])

    def test_stabilizer_pair(self):
        ch = make_linear_change([[2, 0], [0, 1]], [[4, 0], [0, 1]])
        assert apply_linear_change(POWER2, ch) == POWER2

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrix):
            make_linear_change([[1, 1], [1, 1]], [[1, 0], [0, 1]])

    def test_right_action_composition(self):
        rng = Random(11)
        for _ in range(8):
            n = rng.choice((1, 2))
            f = random_map(rng, n, 2)
            g1, h1 = random_invertible(rng, n + 1), random_invertible(rng, n + 1)
            g2, h2 = random_invertible(rng, n + 1), random_invertible(rng, n + 1)
            lhs = apply_linear_change(
                apply_linear_change(f, make_linear_change(g1, h1)),
                make_linear_change(g2, h2))
            rhs = apply_linear_change(
                f, make_linear_change(mat_mul(g1, g2), mat_mul(h1, h2)))
            assert lhs == rhs

    def test_evaluation_compatibility(self):
        rng = Random(13)
        for _ in range(8):
            n = rng.choice((1, 2))
            f = random_map(rng, n, rng.choice((2, 3)))
            g, h = random_invertible(rng, n + 1), random_invertible(rng, n + 1)
            moved = apply_linear_change(f, make_linear_change(g, h))
            pt = [F(rng.randint(-4, 4)) for _ in range(n + 1)]
            h_inv = mat_inverse([row[:] for row in h])
            expected = tuple(mat_vec(h_inv, list(evaluate(f, mat_vec(g, pt)))))
            assert evaluate(moved, pt) == expected


class TestIterate:
    def test_power_map_square(self):
        assert iterate(POWER2, 2) == make_map(1, 4, [[((4, 0), 1)], [((0, 4), 1)]])

    def test_identity_iteration(self):
        f = random_map(Random(3), 2, 2)
        assert iterate(f, 1) == f

    def test_composed_coefficient(self):
        f = make_map(1, 2, [[((2, 0), 1)], [((1, 1), 1), ((0, 2), 1)]])
        g = iterate(f, 2)
        assert g.m == 4
        assert dict(g.components[0].terms)[(4, 0)] == 1

    def test_degree_law_and_associativity(self):
        rng = Random(17)
        f = random_map(rng, 1, 2)
        assert iterate(f, 3).m == 8
        assert iterate(iterate(f, 2), 2) == iterate(f, 4)

    def test_evaluation_consistency(self):
        rng = Random(19)
        f = random_map(rng, 2, 2)
        pt = (F(1), F(2), F(-1))
        assert evaluate(iterate(f, 2), pt) == evaluate(f, evaluate(f, pt))

    def test_bad_count(self):
        # The count is an int (require_ints) of at least 1, and a bad one
        # raises a ProjstabError, not a bare ValueError or TypeError.
        for k in (0, -2, 2.5, True, "2"):
            with pytest.raises(DegreeMismatch):
                iterate(POWER2, k)

    def test_size_limit_before_composing(self):
        # Each step quadruples the work on this map, so k = 20 would run
        # for months; the bound refuses degree 2^7 (129 monomials) and up
        # at once, however large k is, and lets degree 2^6 through.
        f = make_map(1, 2, [[((2, 0), 1), ((1, 1), 1), ((0, 2), 1)],
                            [((2, 0), 1), ((1, 1), -1), ((0, 2), 2)]])
        assert iterate(f, 6).m == 64
        for k in (7, 20, 10 ** 9):
            start = perf_counter()
            with pytest.raises(SizeLimit):
                iterate(f, k)
            assert perf_counter() - start < 0.1
        # One map is no composition, whatever its size.
        big = make_map(1, COMPOSE_TERM_LIMIT, [[((COMPOSE_TERM_LIMIT, 0), 1)],
                                               [((0, COMPOSE_TERM_LIMIT), 1)]])
        assert iterate(big, 1) is big

    def test_count_limit_at_degree_one(self):
        # At m = 1 the degree stays 1 and only the coefficients grow with
        # k, so the degree bound never fires; the count bound refuses k
        # past COMPOSE_TERM_LIMIT at once and lets k = COMPOSE_TERM_LIMIT
        # through.
        f = make_map(1, 1, [[((1, 0), 1), ((0, 1), 1)],
                            [((1, 0), 1), ((0, 1), 2)]])
        assert iterate(f, COMPOSE_TERM_LIMIT).m == 1
        for k in (COMPOSE_TERM_LIMIT + 1, 10 ** 9):
            start = perf_counter()
            with pytest.raises(SizeLimit):
                iterate(f, k)
            assert perf_counter() - start < 0.1

    def test_compose_size_limit(self):
        # Degree 9 * 14 = 126 has 127 monomials in two variables and
        # 8 * 16 = 128 has 129; in three, degree 14 has 120 and 15 has 136.
        def power(n, m):
            return make_map(n, m, [[(tuple(m * (i == j) for i in range(n + 1)),
                                     1)] for j in range(n + 1)])

        assert compose(power(1, 9), power(1, 14)) == power(1, 126)
        assert compose(power(2, 2), power(2, 7)) == power(2, 14)
        for outer, inner in ((power(1, 8), power(1, 16)),
                             (power(2, 3), power(2, 5))):
            with pytest.raises(SizeLimit):
                compose(outer, inner)


class TestSupportAndEquality:
    def test_support_examples(self):
        f = make_map(1, 2, [[((2, 0), 1), ((0, 2), 1)], [((1, 1), 1)]])
        assert [c.support() for c in f.components] == \
            [frozenset({(2, 0), (0, 2)}), frozenset({(1, 1)})]

    def test_canceled_terms_absent(self):
        f = make_map(1, 2, [[((2, 0), 1), ((2, 0), -1), ((1, 1), 1)],
                            [((0, 2), 1)]])
        assert (2, 0) not in f.components[0].support()

    def test_operations_are_pure(self):
        f = make_map(1, 2, [[((2, 0), 1), ((1, 1), 1)], [((0, 2), 1)]])
        snapshot = (f.n, f.m, f.components)
        iterate(f, 2)
        apply_linear_change(f, IDENTITY2)
        evaluate(f, (1, 1))
        assert (f.n, f.m, f.components) == snapshot


# Past Python's 4300-digit limit, so str() of it raises ValueError.
BIG = 10 ** 5000
BIG_DEGREE = make_map(1, BIG, [[((BIG, 0), 1)], [((0, BIG), 1)]])
LINEAR = make_map(1, 1, [[((1, 0), 1)], [((0, 1), 1)]])


@pytest.mark.parametrize("call, error", [
    (lambda: check_matrix_size(BIG, 2), SizeLimit),
    (lambda: check_matrix_size(1, BIG), SizeLimit),
    (lambda: compose(BIG_DEGREE, BIG_DEGREE), SizeLimit),
    (lambda: iterate(LINEAR, BIG), SizeLimit),
    (lambda: iterate(LINEAR, -BIG), DegreeMismatch),
    (lambda: make_map(-BIG, 1, []), DimensionMismatch),
    (lambda: make_map(BIG, 1, []), DimensionMismatch),
    (lambda: make_map(1, -BIG, []), DegreeMismatch),
    (lambda: make_map(1, 2, [[((BIG, 0, 0), 1)], []]), DimensionMismatch),
    (lambda: make_map(1, 2, [[((-BIG, 2), 1)], []]), DegreeMismatch),
    (lambda: make_map(1, 2, [[((BIG, 0), 1)], []]), DegreeMismatch),
    (lambda: make_map(1, BIG, [[((2, 0), 1)], []]), DegreeMismatch),
    (lambda: run_verification_suite(-BIG, 2, [0, 1]), InvalidBox),
    (lambda: run_verification_suite(1, -BIG, [0, 1]), InvalidBox),
    (lambda: run_verification_suite(BIG, 2, [0, 1]), SizeLimit),
    (lambda: run_verification_suite(1, BIG, [0, 1]), SizeLimit),
    (lambda: run_verification_suite(1, 1, [0, 1], sample=-BIG), InvalidBox),
    (lambda: run_verification_suite(1, 1, [0, 1], sample=BIG),
     BudgetExceeded),
    (lambda: run_verification_suite(1, 1, [BIG, BIG]), InvalidBox),
    (lambda: default_probe_primes(10 ** 6), SizeLimit),
    (lambda: default_probe_primes(BIG), SizeLimit),
    (lambda: validate_block(LINEAR, BlockStructure(
        frozenset({0, BIG}), frozenset({0}), "x")), InvalidBlock),
    (lambda: validate_block(LINEAR, BlockStructure(
        frozenset(range(10 ** 5)), frozenset({0}), "x")), InvalidBlock),
], ids=["matrix-size-n", "matrix-size-m", "compose-degree", "iterate-count",
        "iterate-negative-count", "make-map-negative-n", "make-map-n",
        "make-map-negative-m", "exponent-length", "exponent-negative-entry",
        "exponent-total-degree", "exponent-expected-degree",
        "verify-negative-n", "verify-negative-m", "verify-n", "verify-m",
        "verify-negative-sample", "verify-sample", "verify-repeated-coeff",
        "probe-primes-million", "probe-primes-big", "block-huge-variable",
        "block-100000-variables"])
def test_huge_values_raise_their_own_error_at_once(call, error):
    # Each error line gives the size of a number past 2048 bits, so none
    # raises ValueError from str(), and cuts each value at 40 characters;
    # default_probe_primes forms no p^(n+1) once P^n(F_2) alone is past
    # the point bound.
    start = perf_counter()
    with pytest.raises(error) as info:
        call()
    assert perf_counter() - start < 0.1
    assert len(str(info.value)) < 300
