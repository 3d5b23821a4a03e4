"""Exhaustive evaluation of maps over small prime fields.

Projective points are enumerated in a fixed canonical order, one affine
chart at a time: chart `lead` has x_0 = ... = x_(lead-1) = 0 and
x_lead = 1, and its remaining n - lead coordinates run over F_p^(n-lead)
in itertools.product order.  Charts come in the order lead = 0, 1, ..., n,
ending with the single point (0,...,0,1).  Every representative has first
nonzero coordinate 1, so reports need no further normalization and carry
no duplicates.

common_zeros_mod_p, the one scan, is one loop over the charts, and on each
chart it is a sieve.  A component with no reduced term left on the chart
(each term has a factor x_i with i < lead or a coefficient that is 0 mod
p) vanishes at every point of it and is dropped.  The first component left
is evaluated on the whole chart by _blocks, which groups its terms by the
exponent of the first free coordinate, evaluates each group on the
remaining coordinates, and for each value y of the first free coordinate
combines the group values with one multiply-add list comprehension per
group, so no list is longer than p^(n-1).  Its zeros are found with
list.index, and only there are the other components evaluated, point by
point from the power table.  On a chart with k free coordinates the
restriction of a component left is a nonzero polynomial of degree at most m,
so for m < p it has at most m * p^(k-1) zeros in F_p^k (Schwartz-Zippel):
the pointwise work covers at most a share m/p of the chart.  When no
component is left, every point of the chart is a common zero.

Inverses modulo p come from Fermat's little theorem, which holds only for
prime p, so every modulus is first proven prime by a deterministic
Miller-Rabin test.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

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


def _power_table(p: int, max_exp: int) -> list[list[int]]:
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


def _vanishes(terms, point: tuple[int, ...], p: int, table) -> bool:
    """Whether a reduced term list vanishes at one point of F_p^k."""
    total = 0
    for e, a in terms:
        for d, x in zip(e, point):
            a *= table[d][x]
        total += a
    return total % p == 0


def common_zeros_mod_p(f: ProjectiveMap, p: int) -> list[tuple[int, ...]]:
    """All points of P^n(F_p) where every component vanishes, in canonical
    order.

    Each chart is sieved: the components whose terms all vanish on it are
    dropped, the first remaining one is evaluated on the whole chart by
    _blocks, and the others only at its zeros, point by point.  With no
    component left, every point of the chart is a zero.  A nonzero form of
    degree m < p has at most m * p^(k-1) zeros on F_p^k (Schwartz-Zippel),
    so the pointwise work is a small share of the chart; for m >= p it can
    be the whole chart, and the scan is slower but still exhaustive.

    Raises SizeLimit before scanning more than POINT_LIMIT points.  The
    power table, m+1 lists of p residues, is built only for n >= 1: the
    one point of P^0 is evaluated without it.
    """
    reduced = reduce_map_mod_p(f, p)
    check_point_count(f.n, p)
    table = _power_table(p, f.m) if f.n else None
    zeros = []
    for lead in range(f.n + 1):
        k = f.n - lead
        prefix = (0,) * lead + (1,)
        live = [free for terms in reduced
                if (free := [(e[lead + 1:], a) for e, a in terms
                             if not any(e[:lead])])]
        if not live:
            zeros.extend(prefix + point
                         for point in product(range(p), repeat=k))
            continue
        sieve, others = live[0], live[1:]
        blocks = (_blocks(sieve, k, p, table) if k
                  else [_values(sieve, 0, p, table)])
        offset = 0
        for block in blocks:
            i = -1
            try:
                while True:
                    i = block.index(0, i + 1)
                    q, point = offset + i, ()
                    for _ in range(k):
                        q, digit = divmod(q, p)
                        point = (digit,) + point
                    if all(_vanishes(t, point, p, table) for t in others):
                        zeros.append(prefix + point)
            except ValueError:
                pass
            offset += len(block)
    return zeros
