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
rounds them; integer JSON literals are also accepted on input.  Canonical
output sorts terms in descending lexicographic exponent order and object
keys alphabetically, so parse -> serialize -> parse is the identity and
serialized bytes are stable across runs.

Report serialization follows the same rules: every exact quantity is a
string or integer, sets become sorted lists, and the only nondeterministic
fields live in the explicitly labeled "timing" block.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .errors import ParseError
from .poly import ProjectiveMap, make_map
from .stability import ClassificationReport
from .decompose import DecompositionTree
from . import errors as _errors


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(value: Any, where: str = "coeff") -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{where}: booleans are not coefficients")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad rational {value!r}: {exc}") from None
    raise ParseError(f"{where}: expected an integer or 'p/q' string, "
                     f"got {type(value).__name__}")


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
    n, m = doc["n"], doc["m"]
    if not isinstance(n, int) or not isinstance(m, int):
        raise ParseError("'n' and 'm' must be integers")
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
            exp = term["exp"]
            if (not isinstance(exp, list)
                    or not all(isinstance(x, int) for x in exp)):
                raise ParseError(f"{where}.exp: expected a list of integers")
            terms.append((tuple(exp), parse_fraction(term["coeff"],
                                                     f"{where}.coeff")))
        term_lists.append(terms)
    try:
        return make_map(n, m, term_lists)
    except (_errors.DegreeMismatch, _errors.DimensionMismatch,
            _errors.ZeroMap) as exc:
        raise ParseError(f"invalid map: {exc}") from exc


def loads_map(text: str) -> ProjectiveMap:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, lineno=exc.lineno, colno=exc.colno) from None
    return document_to_map(doc)


def load_map_file(path: str) -> ProjectiveMap:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_map(fh.read())


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


def resultant_to_value(res) -> str:
    return "indeterminate" if res.is_indeterminate else format_fraction(res.value)


def limit_to_dict(lim) -> dict:
    return {
        "map": map_to_document(lim.limit),
        "K": lim.K,
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
        "resultant": resultant_to_value(report.resultant),
        "resultant_retries": report.resultant.retries,
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
