"""Map documents and analysis reports as canonical JSON.

A map document is a single self-describing JSON object:

    {
      "n": 1,
      "m": 3,
      "components": [
        [ {"exp": [3, 0], "coeff": "1"} ],
        [ {"exp": [0, 3], "coeff": "1"}, {"exp": [1, 2], "coeff": "-2/3"} ]
      ]
    }

Coefficients are strings ("p", "-p/q", always reduced) so no host ever
rounds them; integer JSON literals are also accepted on input.  They are
read by poly.parse_fraction, the package's one rational grammar: decimal
digits, an optional sign and "/q"; decimals, exponents, spaces and
underscores are rejected.  Canonical output sorts terms in descending
lexicographic exponent order and object keys alphabetically, so parse ->
serialize -> parse is the identity and serialized bytes are stable.

Report serialization follows the same rules: every exact quantity is a
string or integer, sets become sorted lists, and the only nondeterministic
fields live in the explicitly labeled "timing" block.

A rational is written exactly whatever its size: str() refuses an int past
the interpreter's digit limit (sys.get_int_max_str_digits, 4300 digits by
default and never below 640), so format_fraction writes one that str()
refuses from decimal pieces below 2**2048.  An integer field is written by
json.dumps, which meets that limit too; a limit map's K past it is refused
with SizeLimit.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Any

from .errors import ParseError, SizeLimit
from .poly import ProjectiveMap, make_map, parse_fraction, shown
from .stability import ClassificationReport
from .decompose import DecompositionTree
from . import errors as _errors


def _decimal(k: int) -> str:
    """str(k), from str() of pieces below 2**2048 (617 digits)."""
    if k < 0:
        return "-" + _decimal(-k)
    if k.bit_length() <= 2048:
        return str(k)
    half = k.bit_length() * 3 // 20  # just under half of its digits
    high, low = divmod(k, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def format_fraction(x: Fraction) -> str:
    """str(x), "p" or "p/q", for a rational of any size."""
    try:
        return str(x)
    except ValueError:  # a part past the interpreter's digit limit
        pass
    text = _decimal(x.numerator)
    return text if x.denominator == 1 else f"{text}/{_decimal(x.denominator)}"


def _json_int(k: int, what: str) -> int:
    """k, when json.dumps can write it; SizeLimit past the digit limit."""
    # 0 is no limit, as on Python 3.10 before 3.10.7, which has no such call
    limit = (sys.get_int_max_str_digits()
             if hasattr(sys, "get_int_max_str_digits") else 0)
    if k.bit_length() > 2048 and limit and abs(k) >= 10 ** limit:
        raise SizeLimit(f"{what} is {shown(k)}, past the {limit}-digit limit "
                        f"on writing an integer")
    return k


def map_to_document(f: ProjectiveMap) -> dict:
    return {
        "n": f.n,
        "m": f.m,
        "components": [
            [{"exp": list(e), "coeff": format_fraction(c)} for e, c in comp.terms]
            for comp in f.components
        ],
    }


def document_to_map(doc: Any) -> ProjectiveMap:
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    for key in ("n", "m", "components"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    comps = doc["components"]
    if not isinstance(comps, list):
        raise ParseError("'components' must be a list of term lists")
    term_lists = []
    for j, comp in enumerate(comps):
        if not isinstance(comp, list):
            raise ParseError(f"components[{j}] must be a list of terms")
        terms = []
        for k, term in enumerate(comp):
            where = f"components[{j}][{k}]"
            if not isinstance(term, dict) or "exp" not in term or "coeff" not in term:
                raise ParseError(f"{where}: term needs 'exp' and 'coeff'")
            if not isinstance(term["exp"], list):
                raise ParseError(f"{where}.exp: expected a list of integers")
            terms.append((term["exp"], parse_fraction(term["coeff"],
                                                      f"{where}.coeff")))
        term_lists.append(terms)
    try:
        return make_map(doc["n"], doc["m"], term_lists)
    except (_errors.DegreeMismatch, _errors.DimensionMismatch,
            _errors.ZeroMap) as exc:
        raise ParseError(f"invalid map: {exc}") from exc


def loads_map(text: str) -> ProjectiveMap:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, lineno=exc.lineno, colno=exc.colno) from None
    except ValueError as exc:  # an integer literal past the digit limit
        raise ParseError(str(exc)) from None
    except RecursionError:
        raise ParseError("document nests too deeply") from None
    return document_to_map(doc)


# Bound on the bytes of one map document.  Documents are small; the cap
# keeps a huge or endless input (such as /dev/zero) from filling memory.
DOCUMENT_BYTE_LIMIT = 1 << 24

# Documents are read in chunks of this many bytes: one read of the whole
# limit would allocate all of it up front, even for a small document.
_READ_CHUNK = 1 << 16


def load_map_file(path: str) -> ProjectiveMap:
    """Parse the map document at path; ParseError past DOCUMENT_BYTE_LIMIT
    bytes or on text that is not UTF-8."""
    chunks, size = [], 0
    with open(path, "rb") as fh:
        while size <= DOCUMENT_BYTE_LIMIT and (chunk := fh.read(_READ_CHUNK)):
            chunks.append(chunk)
            size += len(chunk)
    if size > DOCUMENT_BYTE_LIMIT:
        raise ParseError(f"{shown(path)} is larger than "
                         f"{DOCUMENT_BYTE_LIMIT} bytes")
    try:
        text = b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{shown(path)} is not UTF-8 text: {exc.reason}"
                         ) from None
    return loads_map(text)


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Report serialization


def one_ps_to_dict(sub) -> dict:
    return {"c": list(sub.c), "b": list(sub.b)}


def block_to_dict(block) -> dict:
    return {
        "variables": sorted(block.variables),
        "components": sorted(block.components),
        "certified_by": block.certified_by,
    }


def limit_to_dict(lim) -> dict:
    return {
        "map": map_to_document(lim.limit),
        "K": _json_int(lim.K, "K"),
        "dropped_terms": lim.dropped_terms,
        "support_shrank": lim.support_shrank,
        "limit_is_morphism": lim.limit_is_morphism,
    }


def stabilizer_to_dict(stab) -> dict:
    return {
        "dim": stab.dim,
        "torus_rank": stab.torus_rank,
        "small_degree_warning": stab.small_degree_warning,
        "basis": [
            {"c": [format_fraction(x) for x in sol.c],
             "b": [format_fraction(x) for x in sol.b],
             "C": format_fraction(sol.C)}
            for sol in stab.basis
        ],
    }


def classification_to_dict(report: ClassificationReport) -> dict:
    return {
        "classification": report.label,
        "is_morphism": report.is_morphism,
        "resultant": format_fraction(report.resultant),
        "resultant_normalization": "1 on coordinate power maps",
        "m_gt_n_plus_1": report.m_gt_n_plus_1,
        "torus_rank": report.torus_rank,
        "stabilizer": stabilizer_to_dict(report.stabilizer),
        "blocks": [
            {"block": block_to_dict(an.block),
             "subgroup": one_ps_to_dict(an.subgroup),
             "limit": limit_to_dict(an.limit)}
            for an in report.blocks
        ],
        "obstructions": [
            {"variables": sorted(ob.variables),
             "components": sorted(ob.components)}
            for ob in report.obstructions
        ],
        "coordinate_note": report.coordinate_note,
    }


def tree_to_dict(tree: DecompositionTree) -> dict:
    out: dict = {"map": map_to_document(tree.node)}
    if tree.is_leaf():
        out["leaf_reason"] = tree.leaf_reason
    else:
        out["split"] = {
            "quotient_variables": list(tree.split.quotient_variables),
            "quotient_components": list(tree.split.quotient_components),
            "restriction_variables": list(tree.split.restriction_variables),
            "restriction_components": list(tree.split.restriction_components),
        }
        out["restriction"] = tree_to_dict(tree.restriction_child)
        out["quotient"] = tree_to_dict(tree.quotient_child)
    return out
