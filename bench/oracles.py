"""Independent checks of the expected answers.

None of these calls into the package: the n = 1 resultants come from
`sympy.resultant`, probe soundness is plain integer arithmetic on the
recorded answers, and the decomposition checks read the recorded
splitting data.  Each function returns a list of problems, empty when the
answers hold.
"""

from __future__ import annotations

from fractions import Fraction


def _fraction(text: str) -> Fraction | None:
    try:
        return Fraction(text)
    except ValueError:
        return None


def binary_resultant(comps: list, m: int) -> Fraction:
    """Resultant of two binary degree-m forms, normalized to 1 on (x^m, y^m).

    The change x1 -> k*x0 + x1 has determinant 1, so it keeps the
    resultant; k is chosen so that both forms keep degree m in x0 after
    setting x1 = 1, which is what `sympy.resultant` needs to agree with
    the homogeneous resultant.
    """
    import sympy

    if not all(comps):
        return Fraction(0)
    x = sympy.Symbol("x")
    for k in range(2 * m + 2):
        polys = [sum(c * x ** e[0] * (k * x + 1) ** e[1] for e, c in comp)
                 for comp in comps]
        polys = [sympy.Poly(sympy.expand(p), x) for p in polys]
        if all(p.degree() == m for p in polys):
            return Fraction(int(sympy.resultant(polys[0], polys[1])))
    raise AssertionError("no shift keeps both forms at full degree")


def check_analyze(items, answers) -> list[str]:
    """sympy resultants at n = 1; probe zeros divide the resultant."""
    problems = []
    for i, (it, ans) in enumerate(zip(items, answers)):
        value = _fraction(ans["resultant"])
        if value is None:
            problems.append(f"map {i}: resultant {ans['resultant']!r} "
                            f"is not an exact value")
            continue
        if it.n == 1 and binary_resultant(it.comps, it.m) != value:
            problems.append(f"map {i}: sympy resultant differs from "
                            f"{ans['resultant']}")
        for prime, zeros in ans["probes"]:
            if zeros and value.numerator % prime:
                problems.append(f"map {i}: F_{prime} zero but {prime} does "
                                f"not divide the resultant")
    return problems


def check_decompose(items, answers) -> list[str]:
    """Leaf ranks sum to n + 1 and every preimage identity holds."""
    problems = []
    for i, (it, ans) in enumerate(zip(items, answers)):
        types = [ans["type"]] + ans["all_types"]
        if any(sum(t) != it.n + 1 for t in types):
            problems.append(f"map {i}: leaf ranks do not sum to {it.n + 1}")
        if not ans["preimage"] or not all(ans["preimage"]):
            problems.append(f"map {i}: a preimage identity fails")
    return problems


CHECKS = {"analyze-corpus": check_analyze, "decompose-tri": check_decompose}


def check(workload: str, items, answers) -> list[str]:
    """Problems found by the workload's oracles (none for verify-box)."""
    fn = CHECKS.get(workload)
    return fn(items, answers) if fn else []
