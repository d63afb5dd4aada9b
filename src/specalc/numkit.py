"""Exact arithmetic and the number-theoretic functions the counting formulas use.

Everything here is exact: Python's arbitrary-precision ``int`` and
``fractions.Fraction`` only; no floats appear anywhere in this module.

Integer partitions are multiplicity tuples ``lam`` where ``lam[i]`` is the
number of parts equal to ``i + 1``, trailing zeros stripped, so the
partition 2+1+1 of 4 is ``(2, 1)`` and the empty partition is ``()``.
``int_partitions(n)`` lists partitions in reverse-lexicographic order of
their descending part lists — for n = 3: (3), (2,1), (1,1,1) — and that
order is the canonical one for all deterministic output.

The count kernels at the end take labelled count sequences |F[0]|, |F[1]|,
... of equal length and return the counts of the species built from them;
``dirichlet_convolution`` among them is the arithmetic product of type series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul

from .errors import CompositionError, DomainError, ZeroConstantRequired


def exact(value):
    """value unchanged if it is an int or a Fraction; DomainError for any other (float, str, bool)."""
    if type(value) is int or isinstance(value, Fraction):
        return value
    raise DomainError(f"{value!r} is not an exact number: need an int or a Fraction")


def check_order(value: int, what: str = "order") -> None:
    """DomainError for a value that is not a nonnegative int (a bool is refused), named
    ``what`` in the message: the one reading of an order, size or count argument."""
    if type(value) is not int:
        raise DomainError(f"{what} must be an int, got {value!r}")
    if value < 0:
        raise DomainError(f"{what} must be nonnegative, got {value}")


def check_k(k: int) -> None:
    """DomainError for a k-fold dimension that is not an int >= 1 (a bool is refused):
    the one k check of the package."""
    if type(k) is not int:
        raise DomainError(f"k must be an int, got {k!r}")
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise DomainError(f"factorial of negative argument {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0; zero when k < 0 or k > n."""
    if n < 0:
        raise DomainError(f"binomial with negative upper argument {n}")
    return comb(n, k) if k >= 0 else 0


def falling(m: int, n: int) -> int:
    """Falling factorial m(m-1)...(m-n+1); the empty product 1 when n = 0."""
    if n < 0:
        raise DomainError(f"falling factorial with negative length {n}")
    out = 1
    for i in range(n):
        out *= m - i
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1 in ascending order."""
    if n < 1:
        raise DomainError(f"divisors of non-positive {n}")
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, primes ascending."""
    if n < 1:
        raise DomainError(f"factorization of non-positive {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def sigma(n: int) -> int:
    """Sum of the positive divisors of n."""
    return sum(divisors(n))


def tau(n: int) -> int:
    """Number of positive divisors of n."""
    return len(divisors(n))


def mobius(n: int) -> int:
    """Moebius function: 0 on square factors, else (-1)^(number of primes)."""
    out = 1
    for _, a in factorize(n):
        if a > 1:
            return 0
        out = -out
    return out


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1."""
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def stirling1_table(n: int) -> list[list[int]]:
    """Signed Stirling numbers of the first kind: row m holds s(m, 0..m), m = 0..n."""
    check_order(n, "Stirling table size")
    rows = [[1]]
    for m in range(n):
        prev = rows[-1] + [0]
        rows.append([0] + [prev[k - 1] - m * prev[k] for k in range(1, m + 2)])
    return rows


def stirling2_table(n: int) -> list[list[int]]:
    """Stirling numbers of the second kind: row m holds S(m, 0..m), m = 0..n."""
    check_order(n, "Stirling table size")
    rows = [[1]]
    for m in range(n):
        prev = rows[-1] + [0]
        rows.append([0] + [prev[k - 1] + k * prev[k] for k in range(1, m + 2)])
    return rows


def bell_numbers(n: int) -> tuple[int, ...]:
    """Bell numbers B_0 .. B_n, the row sums of the Stirling-2 table."""
    check_order(n, "Bell index")
    return tuple(map(sum, stirling2_table(n)))


def bell(n: int) -> int:
    """Number of set partitions of an n-set."""
    return bell_numbers(n)[n]


def rect_coeff(n: int, d: int) -> int:
    """Number of rectangles of height d on an n-set: n!/(d! (n/d)!); requires d | n."""
    if n < 1:
        raise DomainError(f"rectangle coefficient needs n >= 1, got {n}")
    if d < 1 or n % d:
        raise DomainError(f"height {d} does not divide {n}")
    return factorial(n) // (factorial(d) * factorial(n // d))


def lyndon_count(n: int, alpha: int) -> int:
    """Number of Lyndon words of length n over an alpha-letter alphabet."""
    if n < 1:
        raise DomainError(f"Lyndon count needs n >= 1, got {n}")
    check_order(alpha, "alphabet size")
    total = sum(mobius(d) * alpha ** (n // d) for d in divisors(n))
    assert total % n == 0
    return total // n


# -- integer partitions as multiplicity tuples --------------------------------

def mult_to_parts(lam) -> tuple[int, ...]:
    """Descending part list of a multiplicity tuple."""
    parts = []
    for i in range(len(lam), 0, -1):
        if lam[i - 1] < 0:
            raise DomainError(f"multiplicity {lam[i - 1]} of part {i} must be nonnegative")
        parts.extend([i] * lam[i - 1])
    return tuple(parts)


def weight(lam) -> int:
    """Sum of the parts."""
    return sum(map(mul, lam, range(1, len(lam) + 1)))


def aut(lam) -> int:
    """prod_i i^(m_i) m_i!, the centralizer order of a permutation of this cycle type."""
    out = 1
    for i, m in enumerate(lam, start=1):
        out *= i ** m * factorial(m)
    return out


@lru_cache(maxsize=None)
def int_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as multiplicity tuples, in canonical order.

    Canonical = reverse-lexicographic on descending part lists, so the
    one-part partition (n) comes first and (1^n) last.
    """
    check_order(n, "partition weight")
    if not n:
        return ((),)
    out = []
    # largest part p first, then each partition of n - p with no part above p,
    # in its own order; p is the largest part, so the tuple has length p
    for p in range(n, 0, -1):
        for mu in int_partitions(n - p):
            if len(mu) <= p:
                lam = mu + (0,) * (p - len(mu))
                out.append(lam[:-1] + (lam[-1] + 1,))
    return tuple(out)


# -- count kernels: labelled counts of species operations, on integers ----------

def product_counts(f, g) -> tuple[int, ...]:
    """Counts of the product: h_m = sum_i C(m, i) f_i g_(m-i)."""
    return tuple(
        sum(comb(m, i) * f[i] * g[m - i] for i in range(m + 1) if f[i] and g[m - i])
        for m in range(len(f))
    )


def compose_counts(f, g) -> tuple[int, ...]:
    """Counts of the substitution by partial Bell polynomials B_(m,k)(g_1, g_2, ...).

    h_m = sum_k f_k B_(m,k), with B_(m,1) = g_m and row k >= 2 formed from
    row k - 1 as B_(m,k) = sum_i C(m-1, i-1) g_i B_(m-i,k-1): one dot product
    of the list C(m-1, i-1) g_i (lo <= i <= min(m, hi)), built once per call,
    with row k - 1 read backwards from B_(m-lo,k-1) down to B_((k-1) lo,k-1),
    where its support starts; the product stops at the shorter of the two.
    Here lo and hi are the least and largest i with g_i != 0, so row k is
    nonzero only for k lo <= m <= k hi: each row is formed over that
    support, and no row past k = order // lo is formed.
    """
    if g[0]:
        raise CompositionError("inner series must have zero constant term")
    order = len(f) - 1
    support = [i for i in range(1, order + 1) if g[i]]
    if not support:
        return (f[0],) + (0,) * order
    lo, hi = support[0], support[-1]
    gc = [[comb(m - 1, i - 1) * g[i] for i in range(lo, min(m, hi) + 1)] for m in range(order + 1)]
    row = list(g)  # B_(m,1)
    h = [f[0]] + [f[1] * v for v in g[1:]]
    for k in range(2, order // lo + 1):
        prev, row = row, [0] * (order + 1)
        span = range(k * lo, min(k * hi, order) + 1)
        for m in span:
            row[m] = sum(map(mul, gc[m], prev[m - lo:(k - 1) * lo - 1:-1]))
        if f[k]:
            for m in span:
                h[m] += f[k] * row[m]
    return tuple(h)


def rect_divisor_sum(m: int, f, g) -> int:
    """The sum over d | m of rect_coeff(m, d) f_d g_(m/d)."""
    return sum(
        rect_coeff(m, d) * f[d] * g[m // d] for d in divisors(m) if f[d] and g[m // d]
    )


def dirichlet_convolution(f, g) -> tuple[int, ...]:
    """h_m = sum over d | m of f_d g_(m/d) for m >= 1, and h_0 = 0; as long as f.

    On type series this is the arithmetic product's: a type of F ⊡ G on m
    points is a type of F on d points and one of G on m/d points, since
    the stabiliser of a d x (m/d) rectangle is S_d x S_(m/d).
    """
    return (0,) + tuple(
        sum(f[d] * g[m // d] for d in divisors(m) if f[d] and g[m // d])
        for m in range(1, len(f))
    )


def aprod_counts(f, g) -> tuple[int, ...]:
    """Counts of the arithmetic product: the rectangle divisor sum at every size."""
    if f[0] or g[0]:
        raise ZeroConstantRequired("arithmetic product operand has a nonzero constant term")
    return (0,) + tuple(rect_divisor_sum(m, f, g) for m in range(1, len(f)))


def aprod_power(f, k: int) -> tuple[int, ...]:
    """The k-th arithmetic-product power of f, k >= 0, by squaring; the 0th is X's counts."""
    check_order(k, "arithmetic-product exponent")
    out = tuple(int(m == 1) for m in range(len(f)))
    while k:
        if k & 1:
            out = aprod_counts(out, f)
        k >>= 1
        if k:
            f = aprod_counts(f, f)
    return out


def hct_counts(r) -> tuple[int, ...]:
    """Counts of r-enriched hyper-cloned rooted trees, a root plus R+ ⊡ H.

    h_1 = 1 and h_(n+1) = rect_divisor_sum(n, r, h); as long as r.
    """
    h = [0] * len(r)
    if len(r) > 1:
        h[1] = 1
    for n in range(1, len(r) - 1):
        h[n + 1] = rect_divisor_sum(n, r, h)
    return tuple(h)


def stirling1_transform(a) -> list[int]:
    """Counts of A(ln(1+x)) from those of A: sum_k s(m, k) a_k with signed s."""
    return [sum(map(mul, row, a)) for row in stirling1_table(len(a) - 1)]


def maprod_counts(f, g) -> tuple[int, ...]:
    """Counts of the modified arithmetic product.

    Substituting e^x - 1 is the Stirling-2 transform a_k = sum_j S(k, j) f_j;
    the count-wise product a_k b_k is then taken back through ln(1+x).
    """
    s2 = stirling2_table(len(f) - 1)
    a = [sum(map(mul, row, f)) for row in s2]
    b = [sum(map(mul, row, g)) for row in s2]
    return tuple(stirling1_transform(list(map(mul, a, b))))
