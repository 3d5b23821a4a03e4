"""Exhaustive evaluation of maps over small prime fields.

Projective points are enumerated in a fixed canonical order, one affine
chart at a time: chart `lead` has x_0 = ... = x_(lead-1) = 0 and
x_lead = 1, and its remaining k = n - lead coordinates run over F_p^k in
itertools.product order.  Charts come in the order lead = 0, 1, ..., n,
ending with the single point (0,...,0,1).  Every representative has first
nonzero coordinate 1, so reports need no further normalization and carry
no duplicates.

common_zeros_mod_p, the one scan, goes through each chart line by line.
A component with no reduced term left on the chart (each term has a factor
x_i with i < lead or a coefficient that is 0 mod p) vanishes on all of it
and is dropped; with none left, the whole chart is zero.  A line fixes the
first k-1 free coordinates to q, and each component left restricts to a
polynomial of degree at most m in the last coordinate t, its coefficients
on all p^(k-1) lines read from the power table, one comprehension a term.  The line's zeros are the
roots of the gcd of these restrictions, by Euclid's algorithm over F_p
(von zur Gathen and Gerhard, Modern Computer Algebra, ch. 3), stopped once
it is a nonzero constant: then none; the whole line for the zero
polynomial; -g_0/g_1 for degree 1; else the gcd is evaluated on F_p from
the power table.  A chart costs p^(k-1) lines of O(terms + m^2) each, plus
an evaluation over F_p on each line where the restrictions share a factor
of degree 2 or more, which is rare unless the components share one mod p.
Every modulus is first proven prime by a deterministic Miller-Rabin test,
so every nonzero residue has an inverse.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

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


def _named(x: int | Fraction) -> str:
    """x for an error line: itself up to 40 characters, else its size."""
    text = str(x)
    return text if len(text) <= 40 else (
        f"<{sum(ch.isdigit() for ch in text)} digits>")


def reduce_map_mod_p(f: ProjectiveMap, p: int) -> list[list[tuple[MultiIndex, int]]]:
    """Component term lists with coefficients reduced modulo p.

    Raises BadPrime unless p is a prime below PRIMALITY_BOUND, and if some
    denominator vanishes mod p.  Terms whose numerator reduces to zero are
    dropped.
    """
    if not 2 <= p < PRIMALITY_BOUND:
        raise BadPrime(f"modulus must satisfy 2 <= p < {PRIMALITY_BOUND}, "
                       f"got {_named(p)}")
    if not is_prime(p):
        raise BadPrime(f"modulus {p} is not prime")
    reduced = []
    for comp in f.components:
        terms = []
        for e, c in comp.terms:
            den = c.denominator % p
            if den == 0:
                raise BadPrime(f"denominator of coefficient {_named(c)} "
                               f"vanishes mod {p}")
            a = c.numerator * pow(den, -1, p) % p
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


def _line_coefficients(terms, k: int, p: int, table) -> list[list[int]]:
    """coeffs[d][i]: coefficient of t^d on line i of F_p^k, k >= 1, with t
    the last coordinate and the lines in itertools.product order.  Each
    term adds a times its monomial in the other k-1 coordinates, whose
    values are built once per exponent from rows of table."""
    lines = p ** (k - 1)
    coeffs = [[0] * lines for _ in range(1 + max(e[-1] for e, _ in terms))]
    monomials: dict[MultiIndex, list[int]] = {}
    for e, a in terms:
        head = e[:-1]
        if head not in monomials:
            vals = [1]
            for d in head:
                vals = [u * x % p for u in vals for x in table[d]]
            monomials[head] = vals
        coeffs[e[-1]] = [u + a * v for u, v in zip(coeffs[e[-1]],
                                                   monomials[head])]
    return [[u % p for u in row] for row in coeffs]


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd over F_p, not made monic, of nonzero a and b, which it uses up;
    coefficient lists start at degree 0 and end nonzero."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        inv = pow(b[-1], -1, p)
        top = len(b) - 1
        while len(a) > top:
            c = a.pop() * inv % p
            if c:
                s = len(a) - top
                for i in range(top):
                    a[s + i] = (a[s + i] - c * b[i]) % p
        while a and not a[-1]:
            a.pop()
        if not a:
            return b
        a, b = b, a
    return b


def _line_zeros(polys, p: int, table) -> list[int] | range:
    """Common roots in F_p, ascending, of one line's restrictions (all of
    F_p if they are all zero); a gcd of degree 2 or more is made monic and
    compared with -g_0 on F_p, from a table built here if none is given."""
    g = None
    for poly in polys:
        h = list(poly)
        while h and not h[-1]:
            h.pop()
        if h:
            g = h if g is None else _gcd(g, h, p)
            if len(g) == 1:
                return []
    if g is None:
        return range(p)
    inv = pow(g[-1], -1, p)
    if len(g) == 2:
        return [-g[0] * inv % p]
    table = table or _power_table(p, len(g) - 1)
    acc = table[len(g) - 1]
    for d in range(1, len(g) - 1):
        if g[d]:
            c = g[d] * inv
            acc = [u + c * x for u, x in zip(acc, table[d])]
    target = -g[0] * inv % p
    return [x for x, v in enumerate(acc) if v % p == target]


def common_zeros_mod_p(f: ProjectiveMap, p: int) -> list[tuple[int, ...]]:
    """All points of P^n(F_p) where every component vanishes, in canonical
    order, found line by line as the roots of a gcd.

    A chart with k free coordinates costs p^(k-1) lines of O(terms + m^2)
    each, plus an evaluation over F_p on each line whose gcd has degree 2
    or more, as on every line when the components share such a factor mod
    p.  Raises SizeLimit before scanning more than POINT_LIMIT points.  The
    power table is built up front only for n >= 2, where a scan has more
    than one line.
    """
    reduced = reduce_map_mod_p(f, p)
    check_point_count(f.n, p)
    table = _power_table(p, f.m) if f.n >= 2 else None
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
        if k == 0:
            continue  # every live component is a nonzero multiple of x_n^m
        restrictions = [zip(*_line_coefficients(terms, k, p, table))
                        for terms in live]
        for q, *polys in zip(product(range(p), repeat=k - 1), *restrictions):
            roots = _line_zeros(polys, p, table)
            if roots:
                zeros.extend(prefix + q + (t,) for t in roots)
    return zeros
