"""The error contract of the Python API, under a fuzz property.

Each entry point below, given odd values (None, floats, bools, strings,
bytes, nesting, empty and huge values) where it expects ints, rationals,
vectors, term lists, matrices or index sets, returns or raises a
ProjstabError subclass, never a bare TypeError or ValueError, with an error
line under LINE_LIMIT characters.  The inputs are small, so that a valid
one is answered in well under a second.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from projstab import (BlockStructure, InvalidBlock, LinearChange, OnePS,
                      ParseError, ProjstabError, SingularMatrix,
                      StabilizerSolution, apply_linear_change, evaluate,
                      ff_zero_probe, hyperplane_partition, limit_map,
                      make_map)
from projstab.stability import validate_block
from helpers import ODD_VALUES

LINE_LIMIT = 300

# A morphism; a non-morphism whose coefficient 1/5 has no value mod 5; and
# a morphism of P^2.
MAPS = (make_map(1, 2, [[((2, 0), 1)], [((0, 2), 1)]]),
        make_map(1, 2, [[((2, 0), F(1, 5))], [((1, 1), 1)]]),
        make_map(2, 2, [[((2, 0, 0), 1)], [((1, 1, 0), 1), ((0, 2, 0), 1)],
                        [((0, 0, 2), -1), ((1, 0, 1), 1)]]))
F1 = MAPS[0]
I2 = ((1, 0), (0, 1))

_odd = st.sampled_from(ODD_VALUES)
_int = st.integers(-1, 3)
_scalar = _int | _odd
_vector = (st.tuples(_int, _int) | st.tuples(_int, _int, _int)
           | st.lists(_scalar, max_size=4) | _odd)
_terms = (st.lists(st.tuples(_vector, _scalar) | _vector | _scalar,
                   max_size=3)
          | st.dictionaries(st.tuples(_int, _int), _scalar, max_size=2)
          | _odd)
_matrix = st.lists(st.lists(_scalar, max_size=3) | _odd, max_size=3) | _odd
_indices = (st.frozensets(_int | st.sampled_from([True, 1.5, "a", 10 ** 700]),
                          max_size=3)
            | st.lists(_int, max_size=2) | _odd)
_map = st.sampled_from(MAPS)
# P^1(F_p) at the Mersenne prime 2^61 - 1 is past the scan bound.
_prime = st.sampled_from([2, 3, 5, 7, 101, 2 ** 61 - 1]) | _scalar

# Each entry point, as a call on the values its strategy draws.
ENTRY_POINTS = {
    "make_map": (make_map, st.tuples(
        _scalar, _scalar, st.lists(_terms, max_size=3) | _odd)),
    "LinearChange": (LinearChange, st.tuples(_matrix, _matrix)),
    "OnePS": (OnePS, st.tuples(_vector, _vector)),
    "ff_zero_probe": (ff_zero_probe, st.tuples(_map, _prime)),
    "limit_map": (lambda f, c, b: limit_map(f, OnePS(c, b)),
                  st.tuples(_map, _vector, _vector)),
    "validate_block": (lambda f, v, h: validate_block(
        f, BlockStructure(v, h, "SupportCombinatorics")),
        st.tuples(_map, _indices, _indices)),
    "evaluate": (evaluate, st.tuples(_map, _vector)),
    "hyperplane_partition": (lambda f, c, b, C: hyperplane_partition(
        f, StabilizerSolution(c, b, C)),
        st.tuples(_map, _vector, _vector, _scalar)),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@settings(max_examples=300)
@given(data=st.data())
def test_every_api_entry_point_returns_or_raises_its_own_error(name, data):
    call, args = ENTRY_POINTS[name]
    try:
        call(*data.draw(args))
    except ProjstabError as exc:
        assert len(str(exc)) < LINE_LIMIT


# Each call that raised a bare TypeError or returned a wrong value, with
# the error class and the start of the message it raises now.
MENDED = {
    "map-none": (lambda: make_map(1, 2, None), ParseError,
                 "components: expected a list, got None"),
    "map-int-components": (lambda: make_map(1, 2, [5, 6]), ParseError,
                           "terms: expected pairs, got 5"),
    "map-term-not-a-pair": (lambda: make_map(1, 2, [[5], []]), ParseError,
                            "term 5 is not (exponent tuple, coefficient)"),
    "map-int-exponent": (lambda: make_map(1, 2, [[(2, 1)], []]), ParseError,
                         "term (2, 1) is not (exponent tuple, coefficient)"),
    # Read by tuple(), bytes gave (2, 0) and a dict its keys (0, 2).
    "map-bytes-exponent": (lambda: make_map(1, 2, [[(b"\x02\x00", 1)], []]),
                           ParseError, "term (b'\\x02\\x00', 1) is not "
                           "(exponent tuple, coefficient)"),
    "map-dict-exponent": (lambda: make_map(1, 2, [[({0: "a", 2: "b"}, 1)],
                                                  []]), ParseError,
                          "term ({0: 'a', 2: 'b'}, 1) is not (exponent tuple, "
                          "coefficient)"),
    "one-ps-none": (lambda: OnePS(None, None), ParseError,
                    "weights: expected a list, got None"),
    "change-int": (lambda: LinearChange(5, [[1]]), ParseError,
                   "source matrix: expected a list, got 5"),
    "change-flat": (lambda: LinearChange([1, 2], [[1]]), ParseError,
                    "source row: expected a list, got 1"),
    # Built directly, a change was not checked: the zero matrix gave an
    # all-zero map, and 'x' a TypeError inside the composition.
    "change-singular": (lambda: apply_linear_change(
        F1, LinearChange(((0, 0), (0, 0)), I2)), SingularMatrix,
        "source matrix is singular"),
    "change-str-entry": (lambda: apply_linear_change(
        F1, LinearChange([[1, 0], [0, "x"]], I2)), ParseError,
        "source: bad rational 'x'"),
    "block-lists": (lambda: validate_block(F1, BlockStructure([0], [0], "x")),
                    InvalidBlock, "V' and H' must be sets, got [0] and [0]"),
    # poly.shown sorted a set, and 0 and 'a' do not compare.
    "block-mixed-set": (lambda: validate_block(F1, BlockStructure(
        frozenset({0, "a"}), frozenset(), "x")), InvalidBlock,
        "V' = {'a', 0} is not a proper nonempty subset of 0..1"),
    "evaluate-none": (lambda: evaluate(F1, None), ParseError,
                      "point: expected a list, got None"),
    "solution-none": (lambda: hyperplane_partition(
        F1, StabilizerSolution(None, None, None)), ParseError,
        "stabilizer solution c or b: expected a list, got None"),
}


@pytest.mark.parametrize("call, error, message", MENDED.values(),
                         ids=MENDED.keys())
def test_each_mended_call_raises_its_own_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(message)


def test_valid_values_still_pass():
    # The checks refuse only the forms above: a tuple of components, a
    # mapping of terms, tuple points and list weights keep working.
    assert make_map(1, 2, ({(2, 0): 1}, [((0, 2), "1/2")])) == make_map(
        1, 2, [[((2, 0), 1)], [((0, 2), F(1, 2))]])
    assert evaluate(F1, (1, 2)) == evaluate(F1, [F(1), "2"]) == (1, 4)
    assert limit_map(F1, OnePS([0, -1], [0, -2])).K == 0
