"""Exhaustive evaluation of maps over small prime fields.

Projective points are enumerated in a fixed canonical order, one affine
chart at a time: chart `lead` has x_0 = ... = x_(lead-1) = 0 and
x_lead = 1, and its remaining n - lead coordinates run over F_p^(n-lead)
in itertools.product order.  Charts come in the order lead = 0, 1, ..., n,
ending with the single point (0,...,0,1).  Every representative has first
nonzero coordinate 1, so reports need no further normalization and carry
no duplicates.

chart_values evaluates a reduced term list at every point of one chart at
once.  It groups the terms by the exponent of the first free coordinate,
evaluates each group on the remaining coordinates, and for each value y of
the first free coordinate combines the group values with one multiply-add
list comprehension per group.  It yields one list per y, so no list is
longer than p^(n-1).  chart_zeros runs it for several term lists side by
side and yields where they all vanish; common_zeros_mod_p and
decompose.verify_preimage are built on it and visit every chart, so both
scans stay exhaustive.

Inverses modulo p come from Fermat's little theorem, which holds only for
prime p, so every modulus is first proven prime by a deterministic
Miller-Rabin test.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import BadPrime, SizeLimit
from .poly import MultiIndex, ProjectiveMap

# Miller-Rabin with the first 13 primes as bases decides primality of every
# n below PRIMALITY_BOUND (Sorenson and Webster, Math. Comp. 2017; the bound
# is the least strong pseudoprime to all 13 bases).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981

# Bound on the points of one exhaustive scan of P^n(F_p).  The default probe
# primes are chosen to fit it (P^3(F_97) has 912674 points), and so do the
# benchmark's scans (P^3(F_31) has 30784, P^2(F_107) has 11557).
POINT_LIMIT = 10 ** 6


def is_prime(p: int) -> bool:
    """Deterministic primality test for 0 <= p < PRIMALITY_BOUND."""
    if p < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def reduce_map_mod_p(f: ProjectiveMap, p: int) -> list[list[tuple[MultiIndex, int]]]:
    """Component term lists with coefficients reduced modulo p.

    Raises BadPrime unless p is a prime below PRIMALITY_BOUND, and if some
    denominator vanishes mod p.  Terms whose numerator reduces to zero are
    dropped.
    """
    if not 2 <= p < PRIMALITY_BOUND:
        raise BadPrime(f"modulus must satisfy 2 <= p < {PRIMALITY_BOUND}, "
                       f"got {p}")
    if not is_prime(p):
        raise BadPrime(f"modulus {p} is not prime")
    reduced = []
    for comp in f.components:
        terms = []
        for e, c in comp.terms:
            den = c.denominator % p
            if den == 0:
                raise BadPrime(
                    f"denominator of coefficient {c} vanishes mod {p}")
            a = (c.numerator % p) * pow(den, p - 2, p) % p
            if a:
                terms.append((e, a))
        reduced.append(terms)
    return reduced


def point_count(n: int, p: int) -> int:
    """Number of points of P^n(F_p)."""
    return (p ** (n + 1) - 1) // (p - 1)


def check_point_count(n: int, p: int) -> None:
    """Raise SizeLimit before a scan of more than POINT_LIMIT points."""
    count = point_count(n, p)
    if count > POINT_LIMIT:
        raise SizeLimit(f"P^{n}(F_{p}) has {count} points, above the "
                        f"{POINT_LIMIT} bound")


def power_table(p: int, max_exp: int) -> list[list[int]]:
    """table[k][x] = x^k mod p for 0 <= k <= max_exp, 0 <= x < p."""
    table = [[1] * p]
    for _ in range(max_exp):
        table.append([u * x % p for u, x in zip(table[-1], range(p))])
    return table


def _group_by_first(terms):
    """Terms grouped by their first exponent, each with that exponent cut off."""
    groups: dict[int, list[tuple[MultiIndex, int]]] = {}
    for e, a in terms:
        groups.setdefault(e[0], []).append((e[1:], a))
    return sorted(groups.items())


def _blocks(terms, k: int, p: int, table) -> Iterator[list[int]]:
    """Values on F_p^k, k >= 1, one list per value y of the first coordinate.

    The terms sharing the exponent d of the first coordinate are evaluated
    once on F_p^(k-1), giving G_d; the list for y is sum_d y^d * G_d, one
    multiply-add comprehension per group.  At y = 0 only G_0 survives, and
    the lowest group needs no multiplication when its factor is 1.
    """
    size = p ** (k - 1)
    groups = [(d, _values(rest, k - 1, p, table))
              for d, rest in _group_by_first(terms)] or [(0, [0] * size)]
    (d0, first), rest = groups[0], groups[1:]
    yield first if d0 == 0 else [0] * size
    for y in range(1, p):
        c = table[d0][y]
        if not rest:
            yield first if c == 1 else [c * v % p for v in first]
            continue
        acc = first if c == 1 else [c * v for v in first]
        for d, vals in rest[:-1]:
            c = table[d][y]
            acc = [u + c * v for u, v in zip(acc, vals)]
        d, vals = rest[-1]
        c = table[d][y]
        yield [(u + c * v) % p for u, v in zip(acc, vals)]


def _values(terms, k: int, p: int, table) -> list[int]:
    """Values on all of F_p^k in itertools.product order, reduced mod p.

    With one coordinate left, each term adds a times a column of table.
    """
    if k == 0:
        return [sum(a for _, a in terms) % p]
    if k == 1:
        acc = [0] * p
        for (d,), a in terms:
            acc = [u + a * x for u, x in zip(acc, table[d])]
        return [u % p for u in acc]
    return [v for block in _blocks(terms, k, p, table) for v in block]


def chart_values(terms: Sequence[tuple[MultiIndex, int]], n: int, lead: int,
                 p: int, table: Sequence[Sequence[int]]
                 ) -> Iterator[list[int]]:
    """Values of a reduced term list on chart `lead` of P^n(F_p).

    The chart is x_0 = ... = x_(lead-1) = 0, x_lead = 1.  Yields one list
    per value of the first free coordinate x_(lead+1), so each holds
    p^(n-lead-1) values; the last chart is one point and yields one
    one-element list.  Concatenated, the lists run over the chart in
    canonical order.  table is power_table(p, m) for the degree m.
    """
    free = [(e[lead + 1:], a) for e, a in terms if not any(e[:lead])]
    if lead == n:
        yield _values(free, 0, p, table)
    else:
        yield from _blocks(free, n - lead, p, table)


def _zero_positions(values: list[int]) -> list[int]:
    """Positions of the zeros of a list, found by list.index."""
    found = []
    i = -1
    try:
        while True:
            i = values.index(0, i + 1)
            found.append(i)
    except ValueError:
        return found


def chart_zeros(term_lists: Sequence[Sequence[tuple[MultiIndex, int]]],
                n: int, lead: int, p: int, table: Sequence[Sequence[int]]
                ) -> Iterator[list[int]]:
    """Common zeros of several term lists on chart `lead`, slice by slice.

    Runs chart_values for every term list side by side and yields, for each
    slice, the positions within the chart (canonical order, from 0) where
    every list vanishes.  Values lie in [0, p), so the positions are those
    of the 0 entries of the first list that are 0 in all the others.
    """
    streams = [chart_values(t, n, lead, p, table) for t in term_lists]
    offset = 0
    for first, *others in zip(*streams):
        yield [offset + i for i in _zero_positions(first)
               if not any(b[i] for b in others)]
        offset += len(first)


def _chart_point(n: int, lead: int, p: int, index: int) -> tuple[int, ...]:
    """The point at position index of chart lead, in canonical order."""
    tail = []
    for _ in range(n - lead):
        index, digit = divmod(index, p)
        tail.append(digit)
    return (0,) * lead + (1,) + tuple(reversed(tail))


def common_zeros_mod_p(f: ProjectiveMap, p: int) -> list[tuple[int, ...]]:
    """All points of P^n(F_p) where every component vanishes, in canonical
    order.

    Raises SizeLimit before scanning more than POINT_LIMIT points.
    """
    reduced = reduce_map_mod_p(f, p)
    check_point_count(f.n, p)
    table = power_table(p, f.m)
    return [_chart_point(f.n, lead, p, i)
            for lead in range(f.n + 1)
            for found in chart_zeros(reduced, f.n, lead, p, table)
            for i in found]
