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
polynomial of degree at most m in the last coordinate t.  Only the first
two restrictions a and b are built, their coefficients on all p^(k-1)
lines read from the power table one comprehension a term, and they decide
which lines can hold a zero: where a and b share a root their resultant in
t vanishes (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms,
ch. 3).  So, on a chart with more than one line, a division-free
elimination of the Bezout matrix of a and b, entry by entry over all lines
at once, keeps only the lines where a multiple of that resultant is 0.  On
a kept line the candidate zeros are the roots of the gcd of a and b, by
Euclid's algorithm over F_p (von zur Gathen and Gerhard, Modern Computer
Algebra, ch. 3): none for a nonzero constant, the whole line for the zero
polynomial, -g_0/g_1 for degree 1, none for a quadratic whose discriminant
is not a square (Euler's criterion, p odd), else the monic gcd evaluated on
F_p from the power table.  A candidate is a zero where every other
component, as its terms on the chart, vanishes at the point.  A chart costs
O(m^3) vector operations on two components, plus O(m^2) on each kept line,
an evaluation over F_p where the gcd has degree 2 or more, and one
evaluation of each other component at each candidate.  Few lines are kept
unless the first two components share a factor mod p, and then every line
is.
Every modulus is first proven prime by a deterministic Miller-Rabin test,
so every nonzero residue has an inverse.
"""

from __future__ import annotations

from itertools import compress, product
from math import prod

from .errors import BadPrime, SizeLimit
from .poly import MultiIndex, ProjectiveMap, shown

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

    Raises BadPrime unless p is an int (never a bool, float or Fraction)
    and a prime below PRIMALITY_BOUND, and if some denominator vanishes
    mod p.  Terms whose numerator reduces to zero are dropped.
    """
    if type(p) is not int:
        raise BadPrime(f"modulus must be an int, got {type(p).__name__} "
                       f"{shown(p)}")
    if not 2 <= p < PRIMALITY_BOUND:
        raise BadPrime(f"modulus must satisfy 2 <= p < {PRIMALITY_BOUND}, "
                       f"got {shown(p)}")
    if not is_prime(p):
        raise BadPrime(f"modulus {shown(p)} is not prime")
    reduced = []
    for comp in f.components:
        terms = []
        for e, c in comp.terms:
            den = c.denominator % p
            if den == 0:
                raise BadPrime(f"denominator of coefficient {shown(c)} "
                               f"vanishes mod {shown(p)}")
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
        raise SizeLimit(f"P^{shown(n)}(F_{shown(p)}) has {shown(count)} "
                        f"points, above the {POINT_LIMIT} bound")


def _power_table(p: int, max_exp: int) -> list[list[int]]:
    """table[k][x] = x^k mod p for 0 <= k <= max(max_exp, 1), 0 <= x < p."""
    table = [[1] * p, list(range(p))]
    while len(table) <= max_exp:
        table.append([u * x % p for u, x in zip(table[-1], table[1])])
    return table


def _line_coefficients(terms, k: int, p: int, table,
                       monomials) -> list[list[int]]:
    """coeffs[d][i]: coefficient of t^d on line i of F_p^k, k >= 1, with t
    the last coordinate and the lines in itertools.product order; left
    unreduced mod p.  Each term adds a times its monomial in the other k-1
    coordinates, whose values on all lines are built once per exponent from
    rows of table and shared through monomials by the first two components
    of a chart."""
    coeffs = [None] * (1 + max(e[-1] for e, _ in terms))
    for e, a in terms:
        head = e[:-1]
        if head not in monomials:
            vals = table[head[0]] if head else [1]
            for d in head[1:]:
                vals = [u * x % p for u in vals for x in table[d]]
            monomials[head] = vals
        vals = monomials[head]
        row = coeffs[e[-1]]
        coeffs[e[-1]] = ([a * v for v in vals] if row is None else
                         [u + a * v for u, v in zip(row, vals)])
    return [[0] * p ** (k - 1) if row is None else row for row in coeffs]


def _bezout_matrix(a: list[list[int]], b: list[list[int]],
                   p: int) -> list[list[list[int]]]:
    """The D x D Bezout matrix of a and b on every line at once, D the
    larger degree in t; a and b are coefficient vectors as from
    _line_coefficients, and B[i][j][l] is entry (i, j) on line l, mod p.

    Both are padded to formal degree D, and then
    B_ij = sum_{k=0}^{min(i, D-1-j)} (a_{j+k+1} b_{i-k} - a_{i-k} b_{j+k+1})
    for i <= j, symmetric.  det B = +-Res_{D,D}(a, b), a polynomial
    identity that holds also where leading coefficients vanish.
    """
    d = max(len(a), len(b)) - 1
    zero = [0] * len(a[0])
    a = a + [zero] * (d + 1 - len(a))
    b = b + [zero] * (d + 1 - len(b))
    matrix = [[zero] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            acc = [u * v - w * x for u, v, w, x in zip(a[j + 1], b[i], a[i],
                                                      b[j + 1])]
            for k in range(1, min(i, d - 1 - j) + 1):
                acc = [s + u * v - w * x for s, u, v, w, x in zip(
                    acc, a[j + k + 1], b[i - k], a[i - k], b[j + k + 1])]
            matrix[i][j] = matrix[j][i] = [s % p for s in acc]
    return matrix


def _may_share_root(a: list[list[int]], b: list[list[int]],
                    p: int) -> list[bool]:
    """For each line, False where the restrictions a and b provably have no
    common root in the algebraic closure of F_p.

    Each step of a division-free elimination replaces the matrix by c times
    the block below and right of its pivot c, minus the pivot's column
    times its row; that multiplies the determinant by a power of c, also
    where c = 0.  So V, the 1 x 1 matrix left, is det B times powers of the
    pivots (det B itself for D <= 2), and V != 0 means Res_{D,D}(a, b) != 0
    on that line.  For D = 0 both are constants, and V is 0 exactly where
    both are.
    """
    matrix = _bezout_matrix(a, b, p)
    if not matrix:
        return [not (u % p or v % p) for u, v in zip(a[0], b[0])]
    while len(matrix) > 1:
        pivot, top = matrix[0][0], matrix[0][1:]
        matrix = [[[(c * u - h * w) % p
                    for c, u, h, w in zip(pivot, x, row[0], y)]
                   for x, y in zip(row[1:], top)] for row in matrix[1:]]
    return [not v for v in matrix[0][0]]


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


def _roots(g: list[int], p: int, table) -> list[int]:
    """Roots in F_p, ascending, of a nonzero g: none for a constant, -g_0/g_1
    for degree 1, none for a quadratic whose discriminant is not a square
    mod an odd p; else g is made monic and compared with -g_0 on F_p, from
    a power table built here if none is given."""
    if len(g) == 1:
        return []
    inv = pow(g[-1], -1, p)
    if len(g) == 2:
        return [-g[0] * inv % p]
    if len(g) == 3 and p > 2:
        disc = (g[1] * g[1] - 4 * g[0] * g[2]) % p
        if disc and pow(disc, (p - 1) // 2, p) != 1:
            return []
    table = table or _power_table(p, len(g) - 1)
    acc = table[len(g) - 1]
    for d in range(1, len(g) - 1):
        if g[d]:
            c = g[d] * inv
            acc = [u + c * x for u, x in zip(acc, table[d])]
    target = -g[0] * inv % p
    return [x for x, v in enumerate(acc) if v % p == target]


def _line_zeros(polys, p: int, table) -> list[int] | range:
    """Roots in F_p, ascending, of the gcd of one line's restrictions, at
    most two, given by coefficients not yet reduced mod p: the roots of the
    one nonzero restriction if the other is zero, and all of F_p if both
    are."""
    g = None
    for poly in polys:
        h = [c % p for c in poly]
        while h and not h[-1]:
            h.pop()
        if h:
            g = h if g is None else _gcd(g, h, p)
    return range(p) if g is None else _roots(g, p, table)


def _vanishes(terms, point: tuple[int, ...], p: int) -> bool:
    """Whether the chart terms (exponent, a) sum to 0 mod p at point."""
    return not sum(a * prod(map(pow, point, e)) for e, a in terms) % p


def common_zeros_mod_p(f: ProjectiveMap, p: int) -> list[tuple[int, ...]]:
    """All points of P^n(F_p) where every component vanishes, in canonical
    order, found line by line.

    Only the first two live components of a chart are restricted to its
    lines.  On a chart with k >= 2 free coordinates, a Bezout determinant
    of the two, computed for all p^(k-1) lines at once, drops the lines
    where they share no root.  On every line left, the roots of their gcd
    (of the one live component, if there is only one) are the candidate
    zeros, and a candidate is kept only where every other live component
    vanishes at that point.  The cost is O(m^3) vector operations on two
    components per chart, plus, on the lines kept, a gcd of two
    restrictions and an evaluation over F_p when the gcd has degree 2 or
    more (unless it is a quadratic with no root by Euler's criterion), as
    on every line when the first two components share such a factor mod p,
    and one evaluation of each other component at each candidate.  Raises
    SizeLimit before scanning more than POINT_LIMIT points.  The power
    table is built up front only for n >= 2, where a scan has more than one
    line.
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
        monomials: dict[MultiIndex, list[int]] = {}
        vectors = [_line_coefficients(terms, k, p, table, monomials)
                   for terms in live[:2]]
        lines = zip(product(range(p), repeat=k - 1),
                    *(zip(*v) for v in vectors))
        if k >= 2 and len(vectors) == 2:
            lines = compress(lines, _may_share_root(*vectors, p))
        rest = live[2:]
        for q, *polys in lines:
            for t in _line_zeros(polys, p, table):
                point = q + (t,)
                if all(_vanishes(terms, point, p) for terms in rest):
                    zeros.append(prefix + point)
    return zeros
