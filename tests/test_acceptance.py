"""Acceptance suite: one test per criterion, exact checks, fixed seeds.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every check is exact (integer/rational equality); the only
tolerances are the two stated runtime budgets.
"""

import time
from fractions import Fraction as F
from random import Random

import pytest
import sympy as sp

from projstab import (OnePS, block_to_1ps, decompose_fully, detect_blocks,
                      ff_zero_probe, hyperplane_partition, is_morphism,
                      iterate, limit_map, macaulay_resultant, make_map,
                      stabilizer_space, sylvester_resultant, verify_preimage,
                      vertex_coverage, weight_profile)
from projstab.poly import HomogeneousPoly
from projstab.verify import count_candidates, enumerate_maps, sample_maps
from helpers import random_map, random_triangular_map

SEED = 20250809
SAMPLE_BUDGET = 10 ** 7
COEFFS_01 = (F(0), F(1))
COEFFS_PM1 = (F(-1), F(0), F(1))


def _passed(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): PASS -- {detail}")


# ---------------------------------------------------------------------- 1

def test_criterion_1_vertex_coverage_law():
    start = time.monotonic()
    morphisms = 0
    for f in enumerate_maps(1, 2, COEFFS_01):
        if is_morphism(f):
            morphisms += 1
            assert all(vertex_coverage(f)), f"uncovered vertex on {f}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1 minute"
    assert morphisms > 0
    _passed(1, "vertex coverage", f"{morphisms} morphisms, {elapsed:.2f}s")


# -------------------------------------------------------------------- 2+3

POPULATION_BOXES = ((1, 2), (1, 3), (2, 2), (2, 3))


@pytest.fixture(scope="module")
def population_results():
    """One pass over the shared population for criteria 2 and 3."""
    multiset_checks = 0
    block_checks = 0
    morphisms = 0
    for n, m in POPULATION_BOXES:
        total = count_candidates(n, m, COEFFS_PM1)
        maps = (enumerate_maps(n, m, COEFFS_PM1) if total <= SAMPLE_BUDGET
                else sample_maps(n, m, COEFFS_PM1, 10_000, SEED))
        for f in maps:
            if not is_morphism(f):
                continue
            morphisms += 1
            stab = stabilizer_space(f)
            for sol in stab.basis:
                part = hyperplane_partition(f, sol)
                assert part.multisets_equal, \
                    f"multiset lemma fails on {f} with {sol}"
                multiset_checks += 1
            if f.m > f.n + 1 and stab.torus_rank >= 1:
                assert detect_blocks(f), \
                    f"torus rank {stab.torus_rank} but no blocks on {f}"
                block_checks += 1
    return {"morphisms": morphisms, "multiset_checks": multiset_checks,
            "block_checks": block_checks}


def test_criterion_2_multiset_lemma(population_results):
    r = population_results
    assert r["multiset_checks"] > 0
    _passed(2, "multiset lemma",
            f"{r['multiset_checks']} solution checks over "
            f"{r['morphisms']} morphisms")


def test_criterion_3_torus_implies_blocks(population_results):
    r = population_results
    assert r["block_checks"] > 0
    _passed(3, "torus rank => blocks", f"{r['block_checks']} instances")


# ---------------------------------------------------------------------- 4

def _sympy_limit(f, sub):
    """Independent limit: expand the subgroup action as polynomials in lam,
    divide by lam^K and set lam to zero."""
    lam = sp.Symbol("lam")
    xs = sp.symbols(f"x:{f.num_vars}")
    exprs = []
    for j, comp in enumerate(f.components):
        expr = sp.Integer(0)
        for exp, c in comp.terms:
            mono = sp.Rational(c.numerator, c.denominator)
            for xi, k, ci in zip(xs, exp, sub.c):
                if k:
                    mono *= (lam ** ci * xi) ** k
            expr += mono
        exprs.append(sp.expand(expr * lam ** (-sub.b[j])))
    K = None
    per_component_terms = []
    for expr in exprs:
        terms = []
        for t in sp.Add.make_args(expr):
            if t == 0:
                continue  # zero component: no support, no weight
            coeff, k = t.as_coeff_exponent(lam)
            terms.append((coeff, k))
            K = k if K is None else min(K, k)
        per_component_terms.append(terms)
    limits = [sum((c for c, k in terms if k == K), sp.Integer(0))
              for terms in per_component_terms]
    return int(K), limits, xs


def _to_sympy(comp: HomogeneousPoly, xs):
    expr = sp.Integer(0)
    for exp, c in comp.terms:
        mono = sp.Rational(c.numerator, c.denominator)
        for xi, k in zip(xs, exp):
            mono *= xi ** k
        expr += mono
    return expr


def test_criterion_4_limit_law():
    rng = Random(SEED)
    pairs = 0
    while pairs < 1000:
        n = rng.choice((1, 2))
        m = rng.choice((2, 3))
        f = random_map(rng, n, m)
        sub = OnePS(tuple(rng.randint(-3, 3) for _ in range(n + 1)),
                    tuple(rng.randint(-3, 3) for _ in range(n + 1)))
        res = limit_map(f, sub)
        K, limits, xs = _sympy_limit(f, sub)
        assert K == res.K, (f, sub)
        for j, comp in enumerate(res.limit.components):
            assert sp.expand(limits[j] - _to_sympy(comp, xs)) == 0, (f, sub, j)
        again = limit_map(res.limit, sub)
        assert again.dropped_terms == 0 and again.limit == res.limit
        prof = weight_profile(res.limit, sub)
        assert all(w == res.K for j in range(n + 1)
                   for w in prof.weights_of(j).values())
        pairs += 1
    _passed(4, "limit law", f"{pairs} (map, subgroup) pairs")


# ---------------------------------------------------------------------- 5

def test_criterion_5_resultant_agreement():
    start = time.monotonic()
    # sign fixed by the power-map normalization
    for m in (2, 3, 4):
        f = make_map(1, m, [[((m, 0), 1)], [((0, m), 1)]])
        assert macaulay_resultant(f) == sylvester_resultant(f) == 1
    rng = Random(SEED)
    for i in range(500):
        m = rng.choice((2, 3, 4))
        f = random_map(rng, 1, m)
        res = macaulay_resultant(f)
        assert type(res) is F
        assert res == sylvester_resultant(f), f"disagreement on {f}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"
    _passed(5, "Macaulay = Sylvester at n=1", f"500 maps, {elapsed:.2f}s")


# ---------------------------------------------------------------------- 6

def test_criterion_6_probe_soundness():
    rng = Random(SEED)
    hits = 0
    for i in range(500):
        f = random_map(rng, 2, 2)
        probe_hits = [p for p in (101, 103, 107)
                      if ff_zero_probe(f, p).zeros_found]
        if not probe_hits:
            continue
        res = macaulay_resultant(f)
        assert type(res) is F
        for p in probe_hits:
            hits += 1
            assert res.denominator % p != 0
            assert res.numerator % p == 0, \
                f"zero mod {p} but resultant {res} on {f}"
    assert hits > 0, "population never exercised the law"
    _passed(6, "probe soundness", f"{hits} (map, prime) hits over 500 maps")


# ---------------------------------------------------------------------- 7

def test_criterion_7_splitting_pipeline():
    rng = Random(SEED)
    for i in range(200):
        n = rng.choice((1, 2))
        f = random_triangular_map(rng, n, 3)
        assert is_morphism(f)
        tree = decompose_fully(f)
        leaf_ranks = tree.splitting_type()
        assert sum(leaf_ranks) == n + 1

        def walk(t):
            assert is_morphism(t.node)
            if t.is_leaf():
                return
            block = detect_blocks(t.node)[0]
            assert verify_preimage(t.node, block, 101)
            walk(t.restriction_child)
            walk(t.quotient_child)

        walk(tree)
    _passed(7, "splitting pipeline", "200 block-triangular morphisms")


# ---------------------------------------------------------------------- 8

def test_criterion_8_degree_bookkeeping():
    rng = Random(SEED)
    for i in range(100):
        n = rng.choice((1, 2))
        m = rng.choice((2, 3))
        f = random_map(rng, n, m)
        assert iterate(f, 2).m == m * m

    # fiber form over a generic rational target point, n = 1
    for i in range(100):
        m = rng.choice((2, 3))
        f = random_map(rng, 1, m)
        f0, f1 = f.components
        for _ in range(20):
            y0, y1 = F(rng.randint(-9, 9)), F(rng.randint(-9, 9))
            acc: dict = {}
            for e, c in f0.terms:
                acc[e] = acc.get(e, F(0)) + c * y1
            for e, c in f1.terms:
                acc[e] = acc.get(e, F(0)) - c * y0
            fiber = HomogeneousPoly.from_terms(m, 2, acc)
            if not fiber.is_zero():
                break
        assert not fiber.is_zero()
        assert all(sum(e) == m for e, _ in fiber.terms)
    _passed(8, "degree bookkeeping", "100 iterates, 100 fiber forms")
