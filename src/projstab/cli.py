"""Command-line front end.

Subcommands:

    analyze <file> [--json] [--probe-primes LIST]
    limit <file> --c a0,...,an --b b0,...,bn
    decompose <file> [--all-blocks]
    verify --n N --m M --coeffs=LIST [--sample K] [--seed N]
    figure <file> --out PATH

Give --coeffs with '=' (--coeffs=-1,0,1): argparse reads a separate value
that starts with '-' as an option.  Each item of every number list is a
map document coefficient, 'p' or 'p/q' in ASCII digits with an optional
sign; in --c, --b and --probe-primes its value must be an integer, so
'4/2' reads as 2.  analyze runs its probes before classify, so a bad prime
fails, in its own probe, before any classification work.

Reports go to standard out (canonical JSON except for analyze's default
text view); diagnostics go to standard error.  Exit codes: 0 success,
1 bad input (an unreadable or invalid document, an output path that
cannot be written, a bad option value, a modulus that is not a proven
prime, a box too large to check), 2 not a morphism, 5 verification-law
failures.  Command-line syntax errors are reported by argparse, which
exits with 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Sequence

from . import documents, figures, verify as verify_mod
from .decompose import decompose_fully
from .errors import NotAMorphism, ParseError, ProjstabError
from .poly import parse_fraction, shown
from .resultant import default_probe_primes, ff_zero_probe
from .stability import classify, limit_map
from .weights import OnePS

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NOT_MORPHISM = 2
EXIT_LAW_FAILURES = 5


def _int_list(text: str, flag: str) -> list[int]:
    values = []
    for item in text.split(","):
        x = parse_fraction(item, flag)
        if x.denominator != 1:
            raise ParseError(f"{flag}: {shown(item)} is not an integer")
        values.append(x.numerator)
    return values


def _render_text(report_dict: dict) -> str:
    lines = [
        f"classification: {report_dict['classification']}",
        f"is_morphism: {report_dict['is_morphism']}",
        f"resultant: {report_dict['resultant']}",
        f"torus_rank: {report_dict['torus_rank']}"
        + ("" if report_dict["m_gt_n_plus_1"]
           else "  (warning: m <= n+1, unipotent stabilizers not excluded)"),
    ]
    for entry in report_dict["blocks"]:
        bl, sub, lim = entry["block"], entry["subgroup"], entry["limit"]
        lines.append(
            f"block V'={bl['variables']} H'={bl['components']} "
            f"[{bl['certified_by']}]  c={sub['c']} b={sub['b']}  "
            f"K={lim['K']} dropped={lim['dropped_terms']} "
            f"limit_is_morphism={lim['limit_is_morphism']}")
    for ob in report_dict["obstructions"]:
        lines.append(f"obstruction: variables {ob['variables']} carry "
                     f"components {ob['components']} (cannot be a morphism)")
    if "probes" in report_dict:
        for pr in report_dict["probes"]:
            lines.append(f"probe p={pr['prime']}: "
                         f"{len(pr['zeros_found'])} common zero(s)")
    lines.append(f"note: {report_dict['coordinate_note']}")
    return "\n".join(lines)


def _probe_primes(text: str, f) -> Sequence[int]:
    """The --probe-primes list for f, each prime named once; the empty
    default means no probe.  Each prime is checked by its own probe, which
    cmd_analyze runs before classify."""
    if not text:
        return ()
    primes = (default_probe_primes(f.n) if text == "default"
              else _int_list(text, "--probe-primes"))
    if len(set(primes)) < len(primes):
        raise ParseError(f"--probe-primes: a prime is repeated in "
                         f"{shown(text)}")
    return primes


def cmd_analyze(args) -> int:
    f = documents.load_map_file(args.file)
    start = time.monotonic()
    probes = [ff_zero_probe(f, p) for p in _probe_primes(args.probe_primes, f)]
    report = classify(f)
    out = documents.classification_to_dict(report)
    if probes:
        out["probes"] = [{"prime": pr.prime,
                          "zeros_found": [list(z) for z in pr.zeros_found]}
                         for pr in probes]
    out["timing"] = {"elapsed_seconds": round(time.monotonic() - start, 3)}
    if args.json:
        sys.stdout.write(documents.dumps_canonical(out))
    else:
        print(_render_text(out))
    return EXIT_OK if report.is_morphism else EXIT_NOT_MORPHISM


def cmd_limit(args) -> int:
    f = documents.load_map_file(args.file)
    c = _int_list(args.c, "--c")
    b = _int_list(args.b, "--b")
    result = limit_map(f, OnePS(c, b))
    sys.stdout.write(documents.dumps_canonical(documents.limit_to_dict(result)))
    return EXIT_OK


def cmd_decompose(args) -> int:
    f = documents.load_map_file(args.file)
    try:
        tree = decompose_fully(f)
    except NotAMorphism:
        print("input is not a morphism; nothing to decompose", file=sys.stderr)
        return EXIT_NOT_MORPHISM
    out = {
        "tree": documents.tree_to_dict(tree),
        "splitting_type": list(tree.splitting_type()),
    }
    if args.all_blocks:
        # Every block choice gives the tree's type (see the decompose module
        # docstring), so the tree already built answers without a second
        # certificate.
        out["all_block_splitting_types"] = [list(tree.splitting_type())]
    sys.stdout.write(documents.dumps_canonical(out))
    return EXIT_OK


def cmd_verify(args) -> int:
    coeffs = [parse_fraction(part, "--coeffs")
              for part in args.coeffs.split(",")]
    report = verify_mod.run_verification_suite(
        args.n, args.m, coeffs, sample=args.sample, seed=args.seed)
    sys.stdout.write(documents.dumps_canonical(report.to_dict()))
    if report.zero_failures:
        print(f"verify: {report.morphisms} morphisms out of "
              f"{report.maps_checked} maps, zero failures", file=sys.stderr)
        return EXIT_OK
    print(f"verify: {len(report.failures)} law failure(s)", file=sys.stderr)
    return EXIT_LAW_FAILURES


def cmd_figure(args) -> int:
    f = documents.load_map_file(args.file)
    data = figures.build_figure_data(f)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(documents.dumps_canonical(data))
    print(f"figure data written to {shown(args.out)}", file=sys.stderr)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="projstab",
        description="Exact stability analysis of homogeneous polynomial "
                    "tuples defining projective self-maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify one map document")
    p.add_argument("file")
    p.add_argument("--json", action="store_true",
                   help="emit the full canonical JSON report")
    p.add_argument("--probe-primes", default="",
                   help="comma list of primes for the finite-field zero probe "
                        "('default' = up to three of the largest primes "
                        "<= 107 whose P^n(F_p) fits the point bound: "
                        "101,103,107 for n <= 2, 83,89,97 for n = 3)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("limit", help="limit map under a diagonal subgroup")
    p.add_argument("file")
    p.add_argument("--c", required=True, help="source weights, comma list")
    p.add_argument("--b", required=True, help="target weights, comma list")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("decompose", help="recursive block splitting")
    p.add_argument("file")
    p.add_argument("--all-blocks", action="store_true",
                   help="also report the splitting types over every block "
                        "choice: one type, as every choice gives the same")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="law-verification suite over a box")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--coeffs", required=True,
                   help="comma list of rational coefficients in the map "
                        "document grammar ('p' or 'p/q', no spaces), given "
                        "as --coeffs=-1,0,1 (a separate value starting with "
                        "'-' is read as an option)")
    p.add_argument("--sample", type=int, default=None,
                   help="seeded sample size instead of exhaustive enumeration")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("figure", help="lattice figure data (n = 2)")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ProjstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        # Not str(exc), which holds the whole file name.
        detail = exc.strerror or shown(exc)
        if exc.strerror and exc.filename is not None:
            detail += f": {shown(exc.filename)}"
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
