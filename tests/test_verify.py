"""The verify layer's one box reader, the candidates built from it, and its
error contract under a fuzz property."""

from fractions import Fraction as F
from itertools import islice
from time import perf_counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import projstab.verify as verify
from projstab import (DegreeMismatch, InvalidBox, ParseError, ProjstabError,
                      SizeLimit)
from projstab.verify import (count_candidates, enumerate_maps,
                             run_verification_suite, sample_maps)
from helpers import ODD_VALUES, reference_box_maps

# Each entry point on a box (n, m, coeffs); the samplers draw 3 maps.  A
# generator reads its box at the call, so none of these needs a next().
ENTRY_POINTS = {
    "count_candidates": count_candidates,
    "enumerate_maps": enumerate_maps,
    "sample_maps": lambda n, m, coeffs: sample_maps(n, m, coeffs, 3, 0),
    "run_verification_suite": lambda n, m, coeffs: run_verification_suite(
        n, m, coeffs, sample=3),
}

# Each refused box, with the error class and the start of its message.
BAD_BOXES = {
    "float-coeff": ((1, 1, [0.5, 1]), ParseError,
                    "coeffs: expected an integer or 'p/q' string, got float"),
    "bool-coeff": ((1, 1, [True, 0]), ParseError,
                   "coeffs: expected an integer or 'p/q' string, got bool"),
    "1/0": ((1, 1, ["1/0", 1]), ParseError, "coeffs: bad rational '1/0'"),
    "x": ((1, 1, ["x"]), ParseError, "coeffs: bad rational 'x'"),
    "str-coeffs": ((1, 1, "01"), ParseError,
                   "coeffs: expected a list, got '01'"),
    "1-and-1/1": ((1, 1, [1, "1/1"]), InvalidBox,
                  "the coefficient set names 1 twice"),
    "zero-box": ((1, 1, [0]), InvalidBox,
                 "the coefficient set needs a nonzero entry"),
    "empty-box": ((1, 1, []), InvalidBox,
                  "the coefficient set needs a nonzero entry"),
    "negative-n": ((-1, 1, [0, 1]), InvalidBox, "n must be >= 0, got -1"),
    "zero-m": ((1, 0, [0, 1]), InvalidBox, "degree must be >= 1, got 0"),
    "bool-n": ((True, 1, [0, 1]), DegreeMismatch,
               "n, m or sample size bool True is not an integer"),
    "float-m": ((1, 2.0, [0, 1]), DegreeMismatch,
                "n, m or sample size float 2.0 is not an integer"),
    "huge-n": ((10 ** 9, 2, [0, 1]), SizeLimit,
               "critical-degree matrices of a degree-2 map of P^1000000000"),
}


class TestBoxReader:
    @pytest.mark.parametrize("box, error, message", BAD_BOXES.values(),
                             ids=BAD_BOXES.keys())
    def test_every_entry_point_refuses_a_bad_box_alike(self, box, error,
                                                        message):
        raised = []
        for name, call in ENTRY_POINTS.items():
            with pytest.raises(error) as info:
                call(*box)
            raised.append(str(info.value))
        assert raised[0].startswith(message)
        assert raised == [raised[0]] * len(ENTRY_POINTS)

    def test_zero_box_sample_is_refused_at_the_call(self):
        # It used to redraw the zero map forever at the first next().
        with pytest.raises(InvalidBox, match="needs a nonzero entry"):
            sample_maps(1, 1, [0], 3, 0)

    def test_repeated_value_is_refused_at_the_call(self):
        # It used to yield each map of the box {1} 16 times.
        with pytest.raises(InvalidBox, match="names 1 twice"):
            enumerate_maps(1, 1, [1, "1/1"])

    @pytest.mark.parametrize("k, error", [
        (-1, InvalidBox), (2.5, DegreeMismatch), (True, DegreeMismatch),
        ("3", DegreeMismatch), (None, DegreeMismatch)])
    def test_sample_size_is_read_with_the_box(self, k, error):
        with pytest.raises(error, match="sample size"):
            sample_maps(1, 1, [0, 1], k, 0)

    # A seed that is not an int used to raise a bare TypeError from
    # random.Random ([1], {}), to draw a sample that cannot be drawn again
    # (None), or to be taken as given and reach the report ('7').
    @pytest.mark.parametrize("seed", [[1], {}, None, True, 1.5, "7"],
                             ids=["list", "dict", "None", "bool", "float",
                                  "str"])
    def test_seed_is_read_at_the_call(self, seed):
        for call in (lambda: sample_maps(1, 1, [0, 1], 2, seed),
                     lambda: run_verification_suite(1, 1, [0, 1], sample=2,
                                                    seed=seed),
                     lambda: run_verification_suite(1, 1, [0, 1], seed=seed)):
            with pytest.raises(DegreeMismatch, match="^seed "):
                call()

    def test_huge_n_is_refused_without_a_monomial_table(self, monkeypatch):
        def no_listing(num_vars, degree):
            raise AssertionError("monomials listed for an oversized box")

        monkeypatch.setattr(verify, "monomials_of_degree", no_listing)
        start = perf_counter()
        with pytest.raises(SizeLimit):
            count_candidates(10 ** 9, 2, [0, 1])
        assert perf_counter() - start < 0.1

    def test_count_lists_no_monomial(self, monkeypatch):
        monkeypatch.setattr(verify, "monomials_of_degree", None)
        assert count_candidates(2, 2, [F(-1), F(0), F(1)]) == 3 ** 18
        assert count_candidates(0, 10 ** 100, ["1/2"]) == 1

    @pytest.mark.parametrize("box", [
        (0, 3, [0, 1, 2]), (1, 2, [F(0), F(1)]), (1, 1, ["-1", "0", "1/2"]),
        (2, 1, [0, 1])])
    def test_enumeration_matches_make_map_reference(self, box):
        maps = list(enumerate_maps(*box))
        assert maps == reference_box_maps(*box)
        # Every assignment but the all-zero one.
        assert len(maps) == count_candidates(*box) - 1

    @pytest.mark.parametrize("box, k, seed", [
        ((2, 2, [-1, 0, 1]), 200, 1), ((1, 3, ["0", "1", "-2/3"]), 100, 7),
        ((0, 1, [0, 1]), 20, 3), ((2, 3, [F(1), F(0)]), 50, 0)])
    def test_samples_match_make_map_reference(self, box, k, seed):
        assert list(sample_maps(*box, k, seed)) == reference_box_maps(
            *box, sample=k, seed=seed)

    def test_degree_of_p0_is_not_listed(self):
        # check_matrix_size passes every degree at n = 0; the one monomial
        # x0^m is not spelt out as m indices.
        report = run_verification_suite(0, 10 ** 100, [1, -1, 0])
        assert report.maps_checked == 2 and report.zero_failures


# Huge ints are far past every bound, so that no valid box is large:
# valid sizes are small.
_ODD = st.sampled_from(ODD_VALUES)
_COEFFS = st.lists(st.integers(-2, 2) | st.sampled_from(
    ["0", "1", "-1/2", "2/4", F(2, 3), 10 ** 700, F(1, 10 ** 700)])
    | st.sampled_from(["1/0", " 1", "1e3", "x", "", "7" * 5000, 0.5, True,
                       None, [0]]), min_size=1, max_size=3, unique_by=repr)


@settings(max_examples=500)
# A seed that random.Random refuses with a bare TypeError.
@example(n=1, m=1, coeffs=[0, 1], k=2, seed=0, odd=("s", [1]))
@example(n=1, m=1, coeffs=[0, 1], k=None, seed=0, odd=("s", {}))
@given(n=st.integers(0, 2), m=st.integers(1, 3), coeffs=_COEFFS,
       k=st.none() | st.integers(0, 3), seed=st.integers(0, 3),
       odd=st.none() | st.tuples(st.sampled_from("nmcks"), _ODD))
def test_every_entry_point_returns_or_raises_its_own_error(n, m, coeffs, k,
                                                           seed, odd):
    # One of n, m, the coefficient set, k or the seed may be replaced by an
    # odd value.  The budget is cut to 100 candidates, so that a valid box runs
    # at most 100 maps; a box past it is refused with BudgetExceeded.  A
    # sampler is read to at most 4 maps, and must end after k.
    if odd is not None:
        field, value = odd
        n, m, coeffs, k, seed = (value if field == f else x for f, x in
                                 zip("nmcks", (n, m, coeffs, k, seed)))

    def sampled():
        assert len(list(islice(sample_maps(n, m, coeffs, k, seed), 4))) \
            == min(k, 4)

    def suite():
        report = run_verification_suite(n, m, coeffs, sample=k, seed=seed)
        # Every assignment but the all-zero one, when the box holds 0.
        assert report.maps_checked == (
            report.candidates - (0 in report.coeffs) if k is None else k)

    calls = [lambda: count_candidates(n, m, coeffs),
             lambda: list(islice(enumerate_maps(n, m, coeffs), 3)),
             sampled, suite]
    with mock.patch.object(verify, "DEFAULT_BUDGET", 100):
        for call in calls:
            try:
                call()
            except ProjstabError:
                pass
