"""Exact truncated power series and the series products of the species calculus.

A ``TruncSeries`` stores raw coefficients c_0..c_N.  When a series plays
the exponential role the labelled count at n is ``count(n) = c_n * n!``;
nothing in the representation distinguishes the roles, conversion happens
only at the named accessors.  Arithmetic between series of different
orders truncates to the smaller order.

Besides the ring operations this module provides composition, the
Hadamard product (count-wise), the arithmetic product of series, the
Lambert transform, Dirichlet coefficients with their convolution, and the
(1+x)-basis machinery that gives the fast route to the modified
arithmetic product.

These ``Fraction`` kernels are the independent route the tests check the
integer count kernels of ``numkit`` against.
"""

from __future__ import annotations

from fractions import Fraction

from . import numkit as nk
from .errors import CompositionError, DomainError, ZeroConstantRequired

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TruncSeries:
    """Power series known exactly up to and including order N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            raise DomainError("a truncated series needs at least its constant coefficient")
        self.coeffs = cs

    @classmethod
    def from_counts(cls, counts):
        """Series whose labelled count at n is counts[n], i.e. c_n = counts[n]/n!."""
        return cls(Fraction(c) / nk.factorial(n) for n, c in enumerate(counts))

    @classmethod
    def zero(cls, order):
        return cls([_ZERO] * (order + 1))

    @classmethod
    def one(cls, order):
        return cls([_ONE] + [_ZERO] * order)

    @classmethod
    def x(cls, order):
        if order < 1:
            return cls.zero(order)
        return cls([_ZERO, _ONE] + [_ZERO] * (order - 1))

    @classmethod
    def geometric(cls, order):
        """1/(1-x) truncated: all coefficients 1."""
        return cls([_ONE] * (order + 1))

    @classmethod
    def one_plus_x_pow(cls, n, order):
        """(1+x)^n truncated."""
        return cls(Fraction(nk.binomial(n, k)) for k in range(order + 1))

    @property
    def order(self):
        return len(self.coeffs) - 1

    def count(self, n):
        """Labelled count read off the exponential convention: c_n * n!."""
        return self.coeffs[n] * nk.factorial(n)

    def counts(self):
        return [c * nk.factorial(n) for n, c in enumerate(self.coeffs)]

    def truncate(self, order):
        if order > self.order:
            raise DomainError(f"cannot extend order {self.order} series to {order}")
        return TruncSeries(self.coeffs[: order + 1])

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return TruncSeries(-c for c in self.coeffs)

    def __add__(self, other):
        n = min(self.order, other.order)
        return TruncSeries(self.coeffs[k] + other.coeffs[k] for k in range(n + 1))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            n = min(self.order, other.order)
            return TruncSeries(_mul_trunc(self.coeffs, other.coeffs, n))
        q = Fraction(other)
        return TruncSeries(c * q for c in self.coeffs)

    __rmul__ = __mul__

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncSeries[{head}{tail}; order={self.order}]"


def _mul_trunc(a, b, n):
    out = [_ZERO] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if not ai:
            continue
        for j in range(min(len(b) - 1, n - i) + 1):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def add(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    return f + g


def scale(f: TruncSeries, q) -> TruncSeries:
    return f * Fraction(q)


def mul(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    return f * g


def compose(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """f(g(x)) truncated; g must have zero constant term."""
    if g.coeffs[0] != 0:
        raise CompositionError("inner series must have zero constant term")
    n = min(f.order, g.order)
    gc = g.coeffs[: n + 1]
    res = [f.coeffs[n]] + [_ZERO] * n
    for k in range(n - 1, -1, -1):
        res = _mul_trunc(res, gc, n)
        res[0] += f.coeffs[k]
    return TruncSeries(res)


def hadamard(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """Count-wise product: the result's count at n is f.count(n) * g.count(n)."""
    n = min(f.order, g.order)
    return TruncSeries(
        f.coeffs[k] * g.coeffs[k] * nk.factorial(k) for k in range(n + 1)
    )


def expm1_series(order: int) -> TruncSeries:
    """e^x - 1 truncated."""
    return TruncSeries(
        [_ZERO] + [Fraction(1, nk.factorial(k)) for k in range(1, order + 1)]
    )


def log1p_series(order: int) -> TruncSeries:
    """ln(1+x) truncated."""
    return TruncSeries(
        [_ZERO] + [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)]
    )


def exp_series(f: TruncSeries) -> TruncSeries:
    """exp(f) for f with zero constant term, via the derivative recurrence."""
    if f.coeffs[0] != 0:
        raise CompositionError("exp needs a zero constant term")
    n = f.order
    e = [_ONE] + [_ZERO] * n
    for m in range(1, n + 1):
        s = _ZERO
        for k in range(1, m + 1):
            if f.coeffs[k]:
                s += k * f.coeffs[k] * e[m - k]
        e[m] = s / m
    return TruncSeries(e)


def geom_power(period: int, exponent, order: int) -> TruncSeries:
    """(1 - x^period)^(-exponent) truncated, for rational exponent."""
    if period < 1:
        raise DomainError(f"period must be >= 1, got {period}")
    lam = Fraction(exponent)
    cs = [_ZERO] * (order + 1)
    cs[0] = _ONE
    term = _ONE
    j = 1
    while j * period <= order:
        term *= (lam + j - 1) / j
        cs[j * period] = term
        j += 1
    return TruncSeries(cs)


def _require_zero_constant(f):
    if f.coeffs[0] != 0:
        raise ZeroConstantRequired("arithmetic product operand has a nonzero constant term")


def aprod_egf(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """Arithmetic product in the exponential role.

    Count at n is the divisor sum of rect_coeff(n, d) * f.count(d) * g.count(n/d).
    """
    _require_zero_constant(f)
    _require_zero_constant(g)
    n = min(f.order, g.order)
    counts = [_ZERO] * (n + 1)
    fc = f.counts()
    gc = g.counts()
    for m in range(1, n + 1):
        s = _ZERO
        for d in nk.divisors(m):
            a, b = fc[d], gc[m // d]
            if a and b:
                s += nk.rect_coeff(m, d) * a * b
        counts[m] = s
    return TruncSeries.from_counts(counts)


def aprod_ogf(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """Arithmetic product in the ordinary role: plain divisor convolution.

    x^n boxed with x^m is x^(nm), so [x^n] of the result is
    sum over d | n of f[d] * g[n/d].  (On raw coefficients this is the
    same convolution the exponential version reduces to; the two entry
    points exist because call sites read their inputs in different roles.)
    """
    _require_zero_constant(f)
    _require_zero_constant(g)
    n = min(f.order, g.order)
    out = [_ZERO] * (n + 1)
    for m in range(1, n + 1):
        s = _ZERO
        for d in nk.divisors(m):
            a, b = f.coeffs[d], g.coeffs[m // d]
            if a and b:
                s += a * b
        out[m] = s
    return TruncSeries(out)


def lambert(f: TruncSeries) -> TruncSeries:
    """Lambert transform sum_n c_n x^n/(1-x^n), by direct divisor sums."""
    _require_zero_constant(f)
    n = f.order
    out = [_ZERO] * (n + 1)
    for m in range(1, n + 1):
        out[m] = sum((f.coeffs[d] for d in nk.divisors(m)), _ZERO)
    return TruncSeries(out)


# -- Dirichlet coefficients ----------------------------------------------------

class DirichletCoeffs:
    """Coefficients a_1/1!, ..., a_N/N! of a modified Dirichlet series.

    ``terms[k]`` is the coefficient of (k+1)^(-s); indices are 1-based
    through :meth:`term`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(Fraction(t) for t in terms)

    @property
    def order(self):
        return len(self.terms)

    def term(self, n):
        if not 1 <= n <= self.order:
            raise DomainError(f"Dirichlet term index {n} out of range 1..{self.order}")
        return self.terms[n - 1]

    def __eq__(self, other):
        if not isinstance(other, DirichletCoeffs):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __add__(self, other):
        n = min(self.order, other.order)
        return DirichletCoeffs(self.terms[k] + other.terms[k] for k in range(n))

    def __repr__(self):
        return f"DirichletCoeffs{self.terms[:6]}"


def dirichlet_of(f: TruncSeries) -> DirichletCoeffs:
    """Dirichlet coefficients of an exponential series: term n is |F[n]|/n! = c_n."""
    _require_zero_constant(f)
    return DirichletCoeffs(f.coeffs[1:])


def dirichlet_mul(a: DirichletCoeffs, b: DirichletCoeffs) -> DirichletCoeffs:
    """Dirichlet convolution (a*b)_n = sum over d | n of a_d b_(n/d)."""
    n = min(a.order, b.order)
    out = []
    for m in range(1, n + 1):
        out.append(sum((a.term(d) * b.term(m // d) for d in nk.divisors(m)), _ZERO))
    return DirichletCoeffs(out)


def dirichlet_delta(order: int) -> DirichletCoeffs:
    """The convolution identity: a_1 = 1, the rest 0."""
    return DirichletCoeffs([_ONE] + [_ZERO] * (order - 1))


def dirichlet_power(a: DirichletCoeffs, k: int) -> DirichletCoeffs:
    """The k-th Dirichlet convolution power of a, k >= 0, by repeated squaring."""
    out = dirichlet_delta(a.order)
    while k:
        if k & 1:
            out = dirichlet_mul(out, a)
        k >>= 1
        if k:
            a = dirichlet_mul(a, a)
    return out


# -- the (1+x) basis and the modified arithmetic product ------------------------

class ShiftedSeries:
    """Polynomial written in the basis (1+x)^j: sum of b_j (1+x)^j."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            raise DomainError("a shifted series needs at least the (1+x)^0 coefficient")
        self.coeffs = cs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, ShiftedSeries):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        pad = lambda t: t + (_ZERO,) * (n - len(t))
        return pad(a) == pad(b)

    def __hash__(self):
        cs = list(self.coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return hash(tuple(cs))

    def __repr__(self):
        return f"ShiftedSeries{self.coeffs[:6]}"


def to_shifted(f: TruncSeries) -> ShiftedSeries:
    """Rewrite sum c_j x^j exactly as sum b_i (1+x)^i via x = (1+x) - 1."""
    n = f.order
    out = []
    for i in range(n + 1):
        b = _ZERO
        for j in range(i, n + 1):
            if f.coeffs[j]:
                b += f.coeffs[j] * nk.binomial(j, i) * (-1) ** (j - i)
        out.append(b)
    return ShiftedSeries(out)


def from_shifted(s: ShiftedSeries, order: int | None = None) -> TruncSeries:
    """Expand sum b_i (1+x)^i back into powers of x, up to the given order."""
    if order is None:
        order = s.degree
    out = []
    for j in range(order + 1):
        c = _ZERO
        for i in range(j, s.degree + 1):
            if s.coeffs[i]:
                c += s.coeffs[i] * nk.binomial(i, j)
        out.append(c)
    return TruncSeries(out)


def maprod_shifted(s: ShiftedSeries, t: ShiftedSeries) -> ShiftedSeries:
    """Modified arithmetic product in the (1+x) basis: exponents multiply."""
    acc = {}
    for i, bi in enumerate(s.coeffs):
        if not bi:
            continue
        for j, cj in enumerate(t.coeffs):
            if cj:
                k = i * j
                acc[k] = acc.get(k, _ZERO) + bi * cj
    deg = max(acc, default=0)
    return ShiftedSeries([acc.get(k, _ZERO) for k in range(deg + 1)])


def maprod_egf(f: TruncSeries, g: TruncSeries, order: int) -> TruncSeries:
    """Modified arithmetic product, definitional route.

    Substitute e^x - 1 into both factors, take the count-wise product,
    and substitute ln(1+x) back.  Coefficient n of the result depends only
    on coefficients 0..n of the inputs, so truncation is consistent.
    """
    n = min(order, f.order, g.order)
    em1 = expm1_series(n)
    a = compose(f.truncate(n), em1)
    b = compose(g.truncate(n), em1)
    return compose(hadamard(a, b), log1p_series(n))


def maprod_egf_via_shift(f: TruncSeries, g: TruncSeries, order: int) -> TruncSeries:
    """Modified arithmetic product through the (1+x) basis; same output as maprod_egf."""
    n = min(order, f.order, g.order)
    s = to_shifted(f.truncate(n))
    t = to_shifted(g.truncate(n))
    return from_shifted(maprod_shifted(s, t), n)
