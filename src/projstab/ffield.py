"""Exhaustive evaluation of maps over small prime fields.

Projective points are enumerated in a fixed canonical order: first the
chart x_0 = 1 (remaining coordinates in ascending lexicographic order),
then x_0 = 0, x_1 = 1, and so on down to the single point (0,...,0,1).
Every representative has first nonzero coordinate 1, so reports need no
further normalization and carry no duplicates.

Inverses modulo p come from Fermat's little theorem, which holds only for
prime p, so every modulus is first proven prime by a deterministic
Miller-Rabin test.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from .errors import BadPrime
from .poly import MultiIndex, ProjectiveMap

# Miller-Rabin with the first 13 primes as bases decides primality of every
# n below PRIMALITY_BOUND (Sorenson and Webster, Math. Comp. 2017; the bound
# is the least strong pseudoprime to all 13 bases).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


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


def projective_points(n: int, p: int) -> Iterator[tuple[int, ...]]:
    """All points of P^n(F_p) in canonical order."""
    for lead in range(n + 1):
        prefix = (0,) * lead + (1,)
        for tail in product(range(p), repeat=n - lead):
            yield prefix + tail


def eval_terms_mod_p(terms: Sequence[tuple[MultiIndex, int]],
                     point: Sequence[int], p: int,
                     pow_table: Sequence[Sequence[int]] | None = None) -> int:
    """Value of a reduced term list at a point, modulo p."""
    total = 0
    for e, a in terms:
        v = a
        for x, k in zip(point, e):
            if k:
                if x == 0:
                    v = 0
                    break
                v = v * (pow_table[x][k] if pow_table else pow(x, k, p)) % p
        total += v
    return total % p


def power_table(p: int, max_exp: int) -> list[list[int]]:
    """table[x][k] = x^k mod p for 0 <= x < p, 0 <= k <= max_exp."""
    table = []
    for x in range(p):
        row = [1]
        for _ in range(max_exp):
            row.append(row[-1] * x % p)
        table.append(row)
    return table


def common_zeros_mod_p(f: ProjectiveMap, p: int) -> list[tuple[int, ...]]:
    """All points of P^n(F_p) where every component vanishes."""
    reduced = reduce_map_mod_p(f, p)
    # Scan the sparsest component first; most points die on it.
    order = sorted(range(len(reduced)), key=lambda j: len(reduced[j]))
    table = power_table(p, f.m)
    zeros = []
    for pt in projective_points(f.n, p):
        for j in order:
            if eval_terms_mod_p(reduced[j], pt, p, table):
                break
        else:
            zeros.append(pt)
    return zeros
