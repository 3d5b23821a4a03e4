"""Seeded inputs, operations and answer digests of the three workloads.

Every workload owns a fixed pool of maps per partition ("main" for the
ordinary runs, "held_out" for checking a claim on inputs it was not tuned
on).  A pool is drawn by this file's own generator from a fixed pool seed,
so the code under test receives only finished inputs.  The run seed fixes
the order in which one pass visits the pool: each class is shuffled by the
seed, and the classes are interleaved in a fixed pattern, so every prefix
of a pass keeps the pool's class mix.  Pools are sized so that one pass
takes about the run length on a shared 2-core Xeon VM; a pass is the unit
of measurement, which keeps the work of a run the same for every seed.

An answer digest keeps only what the map means (verdicts, labels, exact
values, blocks, limits, probe zeros, splitting types, law counts) and
leaves out timing, seeds, retry counts and notes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from random import Random
from typing import Callable

POOL_SEEDS = {"main": 160900910, "held_out": 20160903}

COEFFS_PM1 = (-1, 0, 1)
COEFFS_TRI = (-2, -1, 0, 1, 2)  # the test helpers' default box

# Law names read from the tally that verify.check_morphism_laws fills.
LAWS = ("vertex_coverage", "multiset_lemma", "blocks_nonempty",
        "limit_fixed_point", "split_morphisms")

# verify_preimage primes: P^2(F_101) has 10303 points, P^3(F_31) 30784.
PREIMAGE_PRIMES = {2: 101, 3: 31}


def monomials(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of one total degree, descending lexicographic."""
    if num_vars == 1:
        return [(degree,)]
    return [(first,) + rest for first in range(degree, -1, -1)
            for rest in monomials(num_vars - 1, degree - first)]


def _dense_map(rng: Random, n: int, m: int, coeffs) -> list:
    """Every monomial slot of every component drawn from coeffs.

    An all-zero draw is drawn again, as the package's own sampler does.
    """
    monos = monomials(n + 1, m)
    while True:
        comps = []
        for _ in range(n + 1):
            draws = [(e, rng.choice(coeffs)) for e in monos]
            comps.append([[list(e), c] for e, c in draws if c])
        if any(comps):
            return comps


def _triangular_map(rng: Random, n: int, m: int, coeffs) -> list:
    """Component j uses x_0..x_j only and carries x_j^m: a morphism."""
    nonzero = [c for c in coeffs if c]
    comps = []
    for j in range(n + 1):
        pure = tuple(m if i == j else 0 for i in range(n + 1))
        terms = [[list(pure), rng.choice(nonzero)]]
        for e in monomials(n + 1, m):
            if e != pure and not any(e[j + 1:]):
                c = rng.choice(coeffs)
                if c:
                    terms.append([list(e), c])
        comps.append(terms)
    return comps


@dataclass(frozen=True)
class Item:
    """One pool map: its class, (n, m) and component term lists."""

    cls: str
    n: int
    m: int
    comps: list


def _interleave(counts: list[tuple[str, int]]) -> list[str]:
    """Class of each slot in a pass, spreading each class evenly."""
    total = sum(k for _, k in counts)
    placed = {cls: 0 for cls, _ in counts}
    order = []
    for slot in range(1, total + 1):
        cls = max(counts, key=lambda ck: ck[1] * slot / total - placed[ck[0]])[0]
        placed[cls] += 1
        order.append(cls)
    return order


@dataclass(frozen=True)
class Workload:
    name: str
    # (class, n, m, count per pool); the order fixes generation order.
    classes: tuple[tuple[str, int, int, int], ...]
    draw: Callable[[Random, int, int], list]
    prepare: Callable          # (pkg, items, workdir) -> list of op inputs
    op: Callable               # (pkg, input) -> raw output
    digest: Callable           # (raw output) -> JSON-able answer

    def pool(self, partition: str) -> list[Item]:
        items = []
        for k, (cls, n, m, count) in enumerate(self.classes):
            rng = Random(POOL_SEEDS[partition] * 100 + k)
            items += [Item(cls, n, m, self.draw(rng, n, m))
                      for _ in range(count)]
        return items

    def order(self, items: list[Item], rng: Random) -> list[int]:
        """Pool indices of one pass: classes shuffled, evenly interleaved."""
        by_class: dict[str, list[int]] = {}
        for i, it in enumerate(items):
            by_class.setdefault(it.cls, []).append(i)
        for idx in by_class.values():
            rng.shuffle(idx)
        pattern = _interleave([(c, len(ix)) for c, ix in by_class.items()])
        cursor = {c: iter(ix) for c, ix in by_class.items()}
        return [next(cursor[c]) for c in pattern]

    def size_classes(self) -> list[tuple[int, int]]:
        """Every (n, m) a pass reaches; split pieces have every lower n."""
        return sorted({(k, m) for _, n, m, _ in self.classes
                       for k in range(n + 1)})


def fingerprint(items: list[Item]) -> str:
    blob = json.dumps([[it.cls, it.n, it.m, it.comps] for it in items],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_maps(pkg, items: list[Item], workdir: str) -> list:
    """The pool as ProjectiveMap objects (workdir is not needed)."""
    return [pkg.projstab.make_map(it.n, it.m, [[(tuple(e), c) for e, c in comp]
                                               for comp in it.comps])
            for it in items]


# --------------------------------------------------------------- verify-box


class _LawTally:
    """The two fields check_morphism_laws writes, for one map."""

    def __init__(self):
        self.law_checks: dict[str, int] = {law: 0 for law in LAWS}
        self.failures: list = []


def _verify_op(pkg, f):
    # The body of the verify subcommand's loop, for one sampled map.
    if not pkg.resultant.is_morphism(f):
        return False, None
    tally = _LawTally()
    pkg.verify.check_morphism_laws(f, tally)
    return True, tally


def _verify_digest(raw) -> list:
    verdict, tally = raw
    if not verdict:
        return [0]
    return [1] + [tally.law_checks.get(law, 0) for law in LAWS] + \
        [len(tally.failures)]


# ----------------------------------------------------------- analyze-corpus


def _doc(it: Item) -> dict:
    return {"n": it.n, "m": it.m,
            "components": [[{"exp": e, "coeff": str(c)} for e, c in comp]
                           for comp in it.comps]}


def _analyze_prepare(pkg, items, workdir):
    argvs = []
    for i, it in enumerate(items):
        path = os.path.join(workdir, f"map-{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_doc(it), fh, indent=2, sort_keys=True)
        probes = ["--probe-primes", "default"] if it.n <= 2 else []
        argvs.append(["analyze", path, "--json"] + probes)
    return argvs


def _analyze_op(pkg, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pkg.cli.main(argv)
    return code, out.getvalue()


def _analyze_digest(raw) -> dict:
    code, text = raw
    rep = json.loads(text)
    return {
        "exit": code,
        "verdict": rep["is_morphism"],
        "label": rep["classification"],
        "resultant": rep["resultant"],
        "torus_rank": rep["torus_rank"],
        "blocks": [[b["block"]["variables"], b["block"]["components"],
                    b["block"]["certified_by"], b["limit"]["K"],
                    b["limit"]["dropped_terms"]] for b in rep["blocks"]],
        "probes": [[p["prime"], p["zeros_found"]]
                   for p in rep.get("probes", [])],
    }


# ------------------------------------------------------------ decompose-tri


def _decompose_op(pkg, f):
    dec = pkg.decompose
    tree = dec.decompose_fully(f)
    types = dec.splitting_types_all_blocks(f)
    prime = PREIMAGE_PRIMES[f.n]
    preimage = []
    nodes = [tree]
    while nodes:
        node = nodes.pop()
        if node.is_leaf():
            continue
        block = pkg.stability.BlockStructure(
            frozenset(node.split.quotient_variables),
            frozenset(node.split.quotient_components), "SupportCombinatorics")
        preimage.append(dec.verify_preimage(node.node, block, prime))
        nodes += [node.quotient_child, node.restriction_child]
    return tree, types, preimage


def _decompose_digest(raw) -> dict:
    tree, types, preimage = raw
    return {
        "type": list(tree.splitting_type()),
        "leaves": [leaf.leaf_reason for leaf in tree.leaves()],
        "all_types": sorted(list(t) for t in types),
        "preimage": preimage,
    }


WORKLOADS = {
    "verify-box": Workload(
        "verify-box",
        (("2,2", 2, 2, 1300), ("2,3", 2, 3, 1300)),
        lambda rng, n, m: _dense_map(rng, n, m, COEFFS_PM1),
        build_maps, _verify_op, _verify_digest),
    # Counts put p50 in the middle of the (2,2) maps and p90 among the
    # (3,3) maps that need a retry frame, away from any class boundary.
    "analyze-corpus": Workload(
        "analyze-corpus",
        (("1,2", 1, 2, 10), ("1,3", 1, 3, 10), ("1,4", 1, 4, 10),
         ("2,2", 2, 2, 46), ("2,3", 2, 3, 10), ("3,3", 3, 3, 24)),
        lambda rng, n, m: _dense_map(rng, n, m, COEFFS_PM1),
        _analyze_prepare, _analyze_op, _analyze_digest),
    "decompose-tri": Workload(
        "decompose-tri",
        (("2,3", 2, 3, 45), ("3,3", 3, 3, 90)),
        lambda rng, n, m: _triangular_map(rng, n, m, COEFFS_TRI),
        build_maps, _decompose_op, _decompose_digest),
}


def expected_path(bench_dir: str, name: str) -> str:
    return os.path.join(bench_dir, "expected", f"{name}.json")


def load_expected(bench_dir: str, name: str) -> dict:
    with open(expected_path(bench_dir, name), encoding="utf-8") as fh:
        return json.load(fh)
