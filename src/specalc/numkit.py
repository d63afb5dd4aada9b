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
... of equal length and return the counts of the species built from them.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import mul

from .errors import CompositionError, DomainError, ZeroConstantRequired


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise DomainError(f"factorial of negative argument {n}")
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0; zero when k < 0 or k > n."""
    if n < 0:
        raise DomainError(f"binomial with negative upper argument {n}")
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(1, k + 1):
        out = out * (n - k + i) // i
    return out


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


@lru_cache(maxsize=None)
def bell(n: int) -> int:
    """Number of set partitions of an n-set, by the Bell triangle."""
    if n < 0:
        raise DomainError(f"Bell number of negative index {n}")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def stirling1_table(n: int) -> list[list[int]]:
    """Signed Stirling numbers of the first kind: row m holds s(m, 0..m), m = 0..n."""
    rows = [[1]]
    for m in range(n):
        prev = rows[-1] + [0]
        rows.append([0] + [prev[k - 1] - m * prev[k] for k in range(1, m + 2)])
    return rows


def stirling2_table(n: int) -> list[list[int]]:
    """Stirling numbers of the second kind: row m holds S(m, 0..m), m = 0..n."""
    rows = [[1]]
    for m in range(n):
        prev = rows[-1] + [0]
        rows.append([0] + [prev[k - 1] + k * prev[k] for k in range(1, m + 2)])
    return rows


def rect_coeff(n: int, d: int) -> int:
    """Number of rectangles of height d on an n-set: n!/(d! (n/d)!); requires d | n."""
    if n < 1:
        raise DomainError(f"rectangle coefficient needs n >= 1, got {n}")
    if d < 1 or n % d:
        raise DomainError(f"height {d} does not divide {n}")
    return factorial(n) // (factorial(d) * factorial(n // d))


def multi_rect_coeff(n: int, heights) -> int:
    """Number of k-rectangles of shape (d_1,...,d_k) on an n-set: n!/(d_1!...d_k!).

    The heights must multiply to n.
    """
    heights = tuple(heights)
    prod = 1
    for d in heights:
        if d < 1:
            raise DomainError(f"non-positive height {d}")
        prod *= d
    if prod != n:
        raise DomainError(f"heights {heights} multiply to {prod}, not {n}")
    denom = 1
    for d in heights:
        denom *= factorial(d)
    num = factorial(n)
    assert num % denom == 0
    return num // denom


def lyndon_count(n: int, alpha: int) -> int:
    """Number of Lyndon words of length n over an alpha-letter alphabet."""
    if n < 1:
        raise DomainError(f"Lyndon count needs n >= 1, got {n}")
    if alpha < 0:
        raise DomainError(f"alphabet size must be nonnegative, got {alpha}")
    total = sum(mobius(d) * alpha ** (n // d) for d in divisors(n))
    assert total % n == 0
    return total // n


# -- integer partitions as multiplicity tuples --------------------------------

def parts_to_mult(parts) -> tuple[int, ...]:
    """Multiplicity tuple of a list of parts (any order)."""
    parts = tuple(parts)
    if not parts:
        return ()
    m = [0] * max(parts)
    for p in parts:
        if p < 1:
            raise DomainError(f"partition part {p} must be positive")
        m[p - 1] += 1
    return tuple(m)


def mult_to_parts(lam) -> tuple[int, ...]:
    """Descending part list of a multiplicity tuple."""
    parts = []
    for i in range(len(lam), 0, -1):
        parts.extend([i] * lam[i - 1])
    return tuple(parts)


def weight(lam) -> int:
    """Sum of the parts."""
    return sum((i + 1) * m for i, m in enumerate(lam))


def num_parts(lam) -> int:
    """Total number of parts."""
    return sum(lam)


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
    if n < 0:
        raise DomainError(f"partitions of negative {n}")
    out = []

    def rec(rest, biggest, acc):
        if rest == 0:
            out.append(parts_to_mult(tuple(acc)))
            return
        for p in range(min(rest, biggest), 0, -1):
            acc.append(p)
            rec(rest - p, p, acc)
            acc.pop()

    rec(n, n, [])
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

    B_(m,k) = sum_i C(m-1, i-1) g_i B_(m-i,k-1) and h_m = sum_k f_k B_(m,k).
    """
    if g[0]:
        raise CompositionError("inner series must have zero constant term")
    order = len(f) - 1
    pascal = [[comb(m, i) for i in range(m + 1)] for m in range(order)]
    h = [f[0]] + [0] * order
    bell = [1] + [0] * order  # B_(m,0)
    for k in range(1, order + 1):
        bell = [0] * k + [
            sum(
                pascal[m - 1][i - 1] * g[i] * bell[m - i]
                for i in range(1, m - k + 2)
                if g[i] and bell[m - i]
            )
            for m in range(k, order + 1)
        ]
        if f[k]:
            for m in range(k, order + 1):
                h[m] += f[k] * bell[m]
    return tuple(h)


def rect_divisor_sum(m: int, f, g) -> int:
    """The sum over d | m of rect_coeff(m, d) f_d g_(m/d)."""
    return sum(
        rect_coeff(m, d) * f[d] * g[m // d] for d in divisors(m) if f[d] and g[m // d]
    )


def aprod_counts(f, g) -> tuple[int, ...]:
    """Counts of the arithmetic product: the rectangle divisor sum at every size."""
    if f[0] or g[0]:
        raise ZeroConstantRequired("arithmetic product operand has a nonzero constant term")
    return (0,) + tuple(rect_divisor_sum(m, f, g) for m in range(1, len(f)))


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
