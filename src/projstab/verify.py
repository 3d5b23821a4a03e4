"""Law-verification suites over enumerated or sampled coefficient boxes.

A box is: dimension n, degree m, a finite coefficient set.  Candidates
assign one coefficient to every monomial slot of every component.  The
suite filters candidates to morphisms and asserts, instance by instance:

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
from itertools import product
from random import Random
from typing import Iterator, Sequence

from .decompose import split_once
from .documents import map_to_document
from .errors import BudgetExceeded, InvalidBox, ZeroMap
from .poly import (ProjectiveMap, make_map, parse_fraction, require_ints,
                   shown)
from .resultant import check_matrix_size, is_morphism, monomials_of_degree
from .stability import (detect_blocks, block_to_1ps, hyperplane_partition,
                        limit_map, stabilizer_space)
from .weights import vertex_coverage

LAWS = ("vertex_coverage", "multiset_lemma", "blocks_nonempty",
        "limit_fixed_point", "split_morphisms")

DEFAULT_BUDGET = 10 ** 7
_MAX_RECORDED_FAILURES = 10


def count_candidates(n: int, m: int, coeffs: Sequence) -> int:
    slots = (n + 1) * len(monomials_of_degree(n + 1, m))
    return len(coeffs) ** slots


def _build(n: int, m: int, monos, flat: Sequence) -> ProjectiveMap | None:
    per = len(monos)
    comps = []
    for j in range(n + 1):
        chunk = flat[j * per:(j + 1) * per]
        comps.append([(e, c) for e, c in zip(monos, chunk) if c])
    try:
        return make_map(n, m, comps)
    except ZeroMap:
        return None


def enumerate_maps(n: int, m: int, coeffs: Sequence) -> Iterator[ProjectiveMap]:
    """Every coefficient assignment over the box, in product order."""
    monos = monomials_of_degree(n + 1, m)
    slots = (n + 1) * len(monos)
    for flat in product(coeffs, repeat=slots):
        built = _build(n, m, monos, flat)
        if built is not None:
            yield built


def sample_maps(n: int, m: int, coeffs: Sequence, k: int, seed: int
                ) -> Iterator[ProjectiveMap]:
    """k seeded draws from the box (all-zero draws are redrawn)."""
    monos = monomials_of_degree(n + 1, m)
    slots = (n + 1) * len(monos)
    rng = Random(seed)
    produced = 0
    while produced < k:
        flat = tuple(rng.choice(coeffs) for _ in range(slots))
        built = _build(n, m, monos, flat)
        if built is not None:
            produced += 1
            yield built


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
                    "coeffs": [str(c) for c in self.coeffs]},
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

    Raises DegreeMismatch first unless n, m and a given sample size are
    ints (poly.require_ints).  Raises ParseError for a coefficient that
    poly.parse_fraction refuses, so that what follows sees values, not
    spellings.  Raises InvalidBox, before
    anything is counted or drawn, for n < 0, m < 1, a negative sample size,
    a coefficient set with no nonzero entry (every candidate would be the
    zero map, and sampling would redraw forever), or one that names a value
    twice (every map would be counted more than once).  Raises SizeLimit
    just as early when (n, m) is past resultant.MATRIX_SIZE_LIMIT, where
    is_morphism would refuse every map, and BudgetExceeded when the box
    (without a sample size) or the sample size is above DEFAULT_BUDGET.
    """
    require_ints("n, m or sample size",
                 (n, m) if sample is None else (n, m, sample))
    coeffs = tuple(parse_fraction(c, "coeffs") for c in coeffs)
    if n < 0:
        raise InvalidBox(f"n must be >= 0, got {shown(n)}")
    if m < 1:
        raise InvalidBox(f"degree must be >= 1, got {shown(m)}")
    if sample is not None and sample < 0:
        raise InvalidBox(f"sample size must be >= 0, got {shown(sample)}")
    if not any(coeffs):
        raise InvalidBox("the coefficient set needs a nonzero entry")
    twice = [c for c, k in Counter(coeffs).items() if k > 1]
    if twice:
        raise InvalidBox(f"the coefficient set names {shown(twice[0])} twice")
    check_matrix_size(n, m)
    total = count_candidates(n, m, coeffs)
    if sample is None and total > DEFAULT_BUDGET:
        raise BudgetExceeded(
            f"box holds {shown(total)} candidates, above the budget of "
            f"{DEFAULT_BUDGET}; pass a sample size")
    if sample is not None and sample > DEFAULT_BUDGET:
        raise BudgetExceeded(f"sample size {shown(sample)} is above the "
                             f"budget of {DEFAULT_BUDGET}")
    mode = "exhaustive" if sample is None else "sample"
    report = VerificationReport(n, m, coeffs, mode, seed,
                                total if sample is None else sample)
    maps = (enumerate_maps(n, m, coeffs) if sample is None
            else sample_maps(n, m, coeffs, sample, seed))
    start = time.monotonic()
    for f in maps:
        report.maps_checked += 1
        if not is_morphism(f):
            continue
        report.morphisms += 1
        check_morphism_laws(f, report)
    report.elapsed_seconds = time.monotonic() - start
    return report
