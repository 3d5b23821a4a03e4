"""The value classes compare and hash by value.

LinearChange, OnePS, StabilizerSolution and BlockStructure read their
fields when they are built and store them in one canonical form, so the
same data spelled as a list or a tuple, a set or a frozenset, or (for a
rational entry) an int, a Fraction or a 'p/q' string builds equal values
with equal hashes, which a set holds once.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from projstab import (BlockStructure, LinearChange, OnePS,
                      StabilizerSolution)
from projstab.linalg import det_rational

_small = st.integers(-3, 3)
_rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _spelled(draw, x: F):
    """x as a Fraction, as an int when it is one, or as a 'p/q' string,
    not always reduced."""
    k = draw(st.integers(1, 3))
    spellings = [x, f"{x.numerator * k}/{x.denominator * k}", str(x)]
    if x.denominator == 1:
        spellings.append(x.numerator)
    return draw(st.sampled_from(spellings))


@st.composite
def _linear_changes(draw):
    size = draw(st.integers(1, 3))
    mats = []
    for _ in range(2):
        rows = draw(st.lists(st.lists(_rational, min_size=size,
                                      max_size=size),
                             min_size=size, max_size=size))
        assume(det_rational([list(r) for r in rows]) != 0)
        mats.append(rows)
    spell = (lambda x: draw(_spelled(x)))
    as_lists = [[[spell(x) for x in r] for r in rows] for rows in mats]
    as_tuples = [tuple(tuple(spell(x) for x in r) for r in rows)
                 for rows in mats]
    return LinearChange(*as_lists), LinearChange(*as_tuples)


@st.composite
def _one_ps(draw):
    size = draw(st.integers(1, 4))
    c = draw(st.lists(_small, min_size=size, max_size=size))
    b = draw(st.lists(_small, min_size=size, max_size=size))
    return OnePS(c, b), OnePS(tuple(c), tuple(b))


@st.composite
def _solutions(draw):
    size = draw(st.integers(1, 4))
    vector = st.lists(_rational, min_size=size, max_size=size)
    c, b, C = draw(vector), draw(vector), draw(_rational)
    spell = (lambda x: draw(_spelled(x)))
    return (StabilizerSolution([spell(x) for x in c], [spell(x) for x in b],
                               spell(C)),
            StabilizerSolution(tuple(spell(x) for x in c),
                               tuple(spell(x) for x in b), spell(C)))


@st.composite
def _blocks(draw):
    indices = st.sets(st.integers(0, 5), max_size=4)
    v, h = draw(indices), draw(indices)
    how = draw(st.sampled_from(["SupportCombinatorics",
                                "InfiniteStabilizer"]))
    return (BlockStructure(v, h, how),
            BlockStructure(frozenset(v), frozenset(h), how))


SPELLINGS = {"LinearChange": _linear_changes(), "OnePS": _one_ps(),
             "StabilizerSolution": _solutions(), "BlockStructure": _blocks()}


@pytest.mark.parametrize("name", SPELLINGS)
@settings(max_examples=50)
@given(data=st.data())
def test_equal_data_builds_equal_values(name, data):
    first, second = data.draw(SPELLINGS[name])
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
