"""Law-verification suites over enumerated or sampled coefficient boxes.

A box is: dimension n, degree m, a finite coefficient set.  Candidates
assign one coefficient to every monomial slot of every component.  A box
is read once, by _read_box, at the call of any entry point here: every
check on n, m, the coefficients (and a sample size) is made there, and
each candidate is then built from the read box without being checked
again.  The suite filters candidates to morphisms and asserts, instance
by instance:

  vertex_coverage   every simplex vertex carries a pure power
  multiset_lemma    hyperplane levels match vertex levels (all basis
                    solutions of the stabilizer system)
  blocks_nonempty   torus rank >= 1 and m > n+1 imply a block exists
  limit_fixed_point each block's canonical subgroup has minimal weight 0
                    and its limit map is a fixed point of the subgroup
  split_morphisms   both pieces of every block split pass the morphism test
                    (the reduction formula: f is a morphism iff both are)

Failures carry the offending map as a document, first counterexample in
enumeration order.  All sampling is driven by an explicit seed.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, product
from math import comb
from random import Random
from typing import Iterable, Iterator, Sequence

from .decompose import split_once
from .documents import format_fraction, map_to_document
from .errors import BudgetExceeded, InvalidBox
from .poly import (ProjectiveMap, _map_from_dicts, parse_fraction,
                   require_ints, require_lists, shown)
from .resultant import check_matrix_size, is_morphism, monomials_of_degree
from .stability import (detect_blocks, block_to_1ps, hyperplane_partition,
                        limit_map, stabilizer_space)
from .weights import vertex_coverage

LAWS = ("vertex_coverage", "multiset_lemma", "blocks_nonempty",
        "limit_fixed_point", "split_morphisms")

DEFAULT_BUDGET = 10 ** 7
_MAX_RECORDED_FAILURES = 10


@dataclass(frozen=True)
class _Box:
    """A box as _read_box returns it: every value checked and read."""

    n: int
    m: int
    coeffs: tuple[Fraction, ...]  # distinct, at least one nonzero
    slots: int                    # (n+1) * the monomials of degree m

    @property
    def candidates(self) -> int:
        return len(self.coeffs) ** self.slots


def _read_box(n: int, m: int, coeffs: Sequence,
              sample: int | None = None) -> _Box:
    """The one reader of a box (and of a sample size, when one is given).

    Raises DegreeMismatch first unless n, m and a given sample size are
    ints (poly.require_ints).  Raises ParseError unless coeffs is a list
    (poly.require_lists), and for a coefficient that parse_fraction
    refuses, so that what follows sees values, not spellings.  Raises
    InvalidBox, in this order, for n < 0, m < 1, a negative sample size, a
    coefficient set with no nonzero entry (every candidate would be the
    zero map, and sampling would redraw forever), or one that names a
    value twice (every map would be counted more than once).  Raises
    SizeLimit last, before any monomial is listed, when (n, m) is past
    resultant.MATRIX_SIZE_LIMIT, where is_morphism would refuse every map.
    """
    require_ints("n, m or sample size",
                 (n, m) if sample is None else (n, m, sample))
    require_lists("coeffs", (coeffs,))
    values = tuple(parse_fraction(c, "coeffs") for c in coeffs)
    if n < 0:
        raise InvalidBox(f"n must be >= 0, got {shown(n)}")
    if m < 1:
        raise InvalidBox(f"degree must be >= 1, got {shown(m)}")
    if sample is not None and sample < 0:
        raise InvalidBox(f"sample size must be >= 0, got {shown(sample)}")
    if not any(values):
        raise InvalidBox("the coefficient set needs a nonzero entry")
    twice = [c for c, k in Counter(values).items() if k > 1]
    if twice:
        raise InvalidBox(f"the coefficient set names {shown(twice[0])} twice")
    check_matrix_size(n, m)
    return _Box(n, m, values, (n + 1) * comb(n + m, n))


def _build(box: _Box, monos, flat: Sequence[Fraction]
           ) -> ProjectiveMap | None:
    """The candidate that gives flat[j * len(monos) + i] to the i-th
    monomial of component j, or None for the all-zero assignment."""
    if not any(flat):
        return None
    per = len(monos)
    return _map_from_dicts(box.n, box.m, [
        {e: c for e, c in zip(monos, flat[j * per:(j + 1) * per]) if c}
        for j in range(box.n + 1)])


def _candidates(box: _Box, assignments: Iterable[Sequence[Fraction]]
                ) -> Iterator[ProjectiveMap]:
    monos = monomials_of_degree(box.n + 1, box.m)
    for flat in assignments:
        built = _build(box, monos, flat)
        if built is not None:
            yield built


def _enumerated(box: _Box) -> Iterator[ProjectiveMap]:
    return _candidates(box, product(box.coeffs, repeat=box.slots))


def _sampled(box: _Box, k: int, seed) -> Iterator[ProjectiveMap]:
    rng = Random(seed)
    draws = (tuple(rng.choice(box.coeffs) for _ in range(box.slots))
             for _ in count())
    maps = _candidates(box, draws)
    for _ in range(k):  # not islice, which refuses a k past sys.maxsize
        yield next(maps)


def count_candidates(n: int, m: int, coeffs: Sequence) -> int:
    """The number of coefficient assignments over the box, the all-zero
    one included.  Raises as _read_box does."""
    return _read_box(n, m, coeffs).candidates


def enumerate_maps(n: int, m: int, coeffs: Sequence) -> Iterator[ProjectiveMap]:
    """Every coefficient assignment over the box but the all-zero one, in
    product order.  The box is read, and refused as _read_box refuses it,
    at the call."""
    return _enumerated(_read_box(n, m, coeffs))


def sample_maps(n: int, m: int, coeffs: Sequence, k: int, seed: int
                ) -> Iterator[ProjectiveMap]:
    """k seeded draws from the box (all-zero draws are redrawn).  The box
    and k are read, and refused as _read_box refuses them, at the call;
    a k of None, the suite's exhaustive mode, is refused first, and then a
    seed that is not an int (poly.require_ints)."""
    require_ints("n, m or sample size", (n, m, k))
    box = _read_box(n, m, coeffs, k)
    require_ints("seed", (seed,))
    return _sampled(box, k, seed)


@dataclass
class VerificationReport:
    n: int
    m: int
    coeffs: tuple
    mode: str                     # "exhaustive" or "sample"
    seed: int
    candidates: int
    maps_checked: int = 0
    morphisms: int = 0
    law_checks: dict = field(default_factory=lambda: {law: 0 for law in LAWS})
    failures: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def zero_failures(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "box": {"n": self.n, "m": self.m,
                    "coeffs": [format_fraction(c) for c in self.coeffs]},
            "mode": self.mode,
            "seed": self.seed,
            "candidates": self.candidates,
            "maps_checked": self.maps_checked,
            "morphisms": self.morphisms,
            "law_checks": dict(self.law_checks),
            "failures": [{"law": law, "map": doc} for law, doc in self.failures],
            "zero_failures": self.zero_failures,
            "timing": {"elapsed_seconds": round(self.elapsed_seconds, 3)},
        }


def _record(report: VerificationReport, law: str, f: ProjectiveMap) -> None:
    if len(report.failures) < _MAX_RECORDED_FAILURES:
        report.failures.append((law, map_to_document(f)))
    else:
        report.failures.append((law, {"suppressed": True}))


def check_morphism_laws(f: ProjectiveMap, report: VerificationReport) -> None:
    """Run every law on one morphism, recording failures."""
    report.law_checks["vertex_coverage"] += 1
    if not all(vertex_coverage(f)):
        _record(report, "vertex_coverage", f)

    stab = stabilizer_space(f)
    for sol in stab.basis:
        report.law_checks["multiset_lemma"] += 1
        if not hyperplane_partition(f, sol).multisets_equal:
            _record(report, "multiset_lemma", f)

    blocks = detect_blocks(f)
    if stab.torus_rank >= 1 and f.m > f.n + 1:
        report.law_checks["blocks_nonempty"] += 1
        if not blocks:
            _record(report, "blocks_nonempty", f)

    for block in blocks:
        sub = block_to_1ps(block, f)
        report.law_checks["limit_fixed_point"] += 1
        lim = limit_map(f, sub)
        again = limit_map(lim.limit, sub)
        ok = (lim.K == 0
              and again.dropped_terms == 0
              and again.limit == lim.limit
              and again.K == lim.K)
        if not ok:
            _record(report, "limit_fixed_point", f)

        report.law_checks["split_morphisms"] += 1
        pair = split_once(f, block)
        if not (is_morphism(pair.quotient) and is_morphism(pair.restriction)):
            _record(report, "split_morphisms", f)


def run_verification_suite(n: int, m: int, coeffs: Sequence,
                           sample: int | None = None,
                           seed: int = 0) -> VerificationReport:
    """Enumerate (or sample) the box and check every law on every morphism.

    The box and a given sample size are read by _read_box, and refused as
    it refuses them, and then a seed that is not an int, in both modes, as
    the report shows it.  Then raises BudgetExceeded when the box (without
    a sample size) or the sample size is above DEFAULT_BUDGET.
    """
    box = _read_box(n, m, coeffs, sample)
    require_ints("seed", (seed,))
    if sample is None:
        total = box.candidates
        if total > DEFAULT_BUDGET:
            raise BudgetExceeded(
                f"box holds {shown(total)} candidates, above the budget of "
                f"{DEFAULT_BUDGET}; pass a sample size")
        report = VerificationReport(n, m, box.coeffs, "exhaustive", seed,
                                    total)
        maps = _enumerated(box)
    else:
        if sample > DEFAULT_BUDGET:
            raise BudgetExceeded(f"sample size {shown(sample)} is above the "
                                 f"budget of {DEFAULT_BUDGET}")
        report = VerificationReport(n, m, box.coeffs, "sample", seed, sample)
        maps = _sampled(box, sample, seed)
    start = time.monotonic()
    for f in maps:
        report.maps_checked += 1
        if not is_morphism(f):
            continue
        report.morphisms += 1
        check_morphism_laws(f, report)
    report.elapsed_seconds = time.monotonic() - start
    return report
