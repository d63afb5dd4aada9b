"""Species expressions and their evaluators.

The expression tree is the single source every backend consumes: the
exponential/count evaluator, the cycle-index evaluator (and through it
the isomorphism-types series), the hyper-cloned tree recursion, the
multiplicativity tools, and the closed-form matrix/partial-rectangle
counting formulas.

Labelled counts are exact ``int`` tuples, one ``numkit`` count kernel per
node; ``eval_counts`` asserts that every count is nonnegative.  The
``Fraction`` kernels of ``series`` are the independent route the tests
compare them against.

A new node kind is one ``SpeciesExpr`` subclass here and one branch in
each of ``_counts``, ``_zi``, ``oracle._enum`` and ``oracle._transport``.
The class is the one place the kind is declared: the grammar of
``dslcli``, the printer and the argument errors read its source name
``name``, and its annotated fields are its arguments (an ``int`` field
takes a nonnegative integer, any other an expression; the
expression-valued ones are its ``children``).  Its count on the empty
set is ``_counts(expr, 0)[0]``.  A node that only abbreviates a core form
is one ``_SUGAR`` entry instead of those branches: ``Ep``, ``Lp`` and
``Sp`` are ``plus(E)``, ``plus(L)`` and ``plus(S)``; ``Ek(k)`` and
``Xpow(n)`` are ``restrict(E, k)`` and ``restrict(L, n)``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import inf
from operator import add, mul

from . import numkit as nk
from . import zindex as zi
from .errors import (
    DomainError,
    IncompleteData,
    PreconditionViolated,
    ScaleLimit,
    UnsupportedForCycleIndex,
)
from .series import TruncSeries


# -- the expression tree -------------------------------------------------------

class SpeciesExpr:
    """Base class for expression nodes: immutable, hashable values.

    Each node class declares its source name ``name`` (a class attribute)
    and its arguments as annotations, in order.  ``fields`` holds their
    names and ``int_fields`` those annotated ``int``, which must be
    nonnegative; ``args`` holds an instance's arguments.
    """

    def __init_subclass__(cls):
        # annotations are strings under ``from __future__ import annotations``
        own = cls.__dict__.get("__annotations__", {})
        cls.fields = tuple(own)
        cls.int_fields = tuple(f for f, t in own.items() if t == "int")

    def __init__(self, *args):
        if len(args) != len(self.fields):
            raise TypeError(f"{type(self).__name__}() takes {len(self.fields)} arguments")
        vars(self).update(zip(self.fields, args), args=args)
        for f in self.int_fields:
            if (v := getattr(self, f)) < 0:
                raise DomainError(f"{self.name} needs {f} >= 0, got {v}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.args == other.args

    def __hash__(self):
        return hash(self.args)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(self.fields, self.args))
        return f"{type(self).__name__}({inner})"


class One(SpeciesExpr):
    """The empty-set species 1."""

    name = "1"


class X(SpeciesExpr):
    """Singletons."""

    name = "X"


class E(SpeciesExpr):
    """Sets."""

    name = "E"


class Eplus(SpeciesExpr):
    """Nonempty sets."""

    name = "Ep"


class L(SpeciesExpr):
    """Linear orders."""

    name = "L"


class Lplus(SpeciesExpr):
    """Nonempty linear orders."""

    name = "Lp"


class C(SpeciesExpr):
    """Oriented cycles."""

    name = "C"


class S(SpeciesExpr):
    """Permutations."""

    name = "S"


class Splus(SpeciesExpr):
    """Nonempty permutations."""

    name = "Sp"


class Ek(SpeciesExpr):
    """Sets of a fixed size k."""

    name = "Ek"
    k: int


class XPow(SpeciesExpr):
    """n-th power of the singleton species: sequences of n labels."""

    name = "Xpow"
    n: int


class OnePlusXPow(SpeciesExpr):
    """(1+X)^[n]: injective functions into an n-set."""

    name = "OnePlusXpow"
    n: int


class Necklace(SpeciesExpr):
    """Cycles whose beads carry one of alpha colors."""

    name = "necklace"
    alpha: int


class AperiodicNecklace(SpeciesExpr):
    """Colored cycles of full period."""

    name = "aperiodic"
    alpha: int


class Derivative(SpeciesExpr):
    name = "deriv"
    f: SpeciesExpr


class Point(SpeciesExpr):
    name = "point"
    f: SpeciesExpr


class NonEmpty(SpeciesExpr):
    name = "plus"
    f: SpeciesExpr


class Restrict(SpeciesExpr):
    """The species concentrated in cardinality n."""

    name = "restrict"
    f: SpeciesExpr
    n: int


class Sum(SpeciesExpr):
    name = "+"
    f: SpeciesExpr
    g: SpeciesExpr


class Prod(SpeciesExpr):
    name = "*"
    f: SpeciesExpr
    g: SpeciesExpr


class Cartesian(SpeciesExpr):
    name = "cart"
    f: SpeciesExpr
    g: SpeciesExpr


class Subst(SpeciesExpr):
    name = "comp"
    f: SpeciesExpr
    g: SpeciesExpr


class AProd(SpeciesExpr):
    name = "aprod"
    f: SpeciesExpr
    g: SpeciesExpr


class MAProd(SpeciesExpr):
    name = "maprod"
    f: SpeciesExpr
    g: SpeciesExpr


class HCT(SpeciesExpr):
    """Hyper-cloned rooted trees enriched by r."""

    name = "hct"
    r: SpeciesExpr


def children(expr: SpeciesExpr) -> tuple[SpeciesExpr, ...]:
    """The expression-valued arguments of the node, in field order."""
    return tuple(a for a in expr.args if isinstance(a, SpeciesExpr))


# Sugar atoms and the core forms they evaluate as; the evaluators and the
# oracle see only core forms, while printing keeps the sugar.
_SUGAR = {
    Eplus: lambda e: NonEmpty(E()),
    Lplus: lambda e: NonEmpty(L()),
    Splus: lambda e: NonEmpty(S()),
    Ek: lambda e: Restrict(E(), e.k),
    XPow: lambda e: Restrict(L(), e.n),
}


def core(expr: SpeciesExpr) -> SpeciesExpr:
    """The core form a sugar atom stands for; any other node is returned as is."""
    desugar = _SUGAR.get(type(expr))
    return desugar(expr) if desugar else expr


# -- preconditions -------------------------------------------------------------

def validate(expr: SpeciesExpr) -> None:
    """Eagerly check the emptiness preconditions everywhere in the tree.

    Arithmetic-product operands and substitution inner operands must have
    no structures on the empty set; the first offender is reported with
    its node path.  Children are checked before their parent, so the
    order-0 counts read here never meet a kernel precondition.
    """

    def rec(node, path):
        for i, ch in enumerate(children(node)):
            rec(ch, path + (i,))
        if isinstance(node, AProd):
            for i, ch in enumerate((node.f, node.g)):
                if _counts(ch, 0)[0]:
                    raise PreconditionViolated(
                        path + (i,),
                        "arithmetic product operand has structures on the empty set",
                    )
        elif isinstance(node, Subst):
            if _counts(node.g, 0)[0]:
                raise PreconditionViolated(
                    path + (1,),
                    "substitution inner operand has structures on the empty set",
                )

    rec(expr, ())


# -- labelled count evaluator ----------------------------------------------------

@lru_cache(maxsize=None)
def _counts(expr: SpeciesExpr, order: int) -> tuple[int, ...]:
    """Labelled counts |F[0]| .. |F[order]| on exact integers, one kernel per node."""
    expr = core(expr)
    if isinstance(expr, One):
        return _only(0, (1,) * (order + 1))
    if isinstance(expr, X):
        return _only(1, (1,) * (order + 1))
    if isinstance(expr, E):
        return (1,) * (order + 1)
    if isinstance(expr, (L, S)):
        return tuple(map(nk.factorial, range(order + 1)))
    if isinstance(expr, C):
        return (0,) + tuple(map(nk.factorial, range(order)))
    if isinstance(expr, OnePlusXPow):
        return tuple(nk.falling(expr.n, m) for m in range(order + 1))
    if isinstance(expr, Necklace):
        return (0,) + tuple(
            nk.factorial(n - 1) * expr.alpha ** n for n in range(1, order + 1)
        )
    if isinstance(expr, AperiodicNecklace):
        return (0,) + tuple(
            nk.factorial(n) * nk.lyndon_count(n, expr.alpha) for n in range(1, order + 1)
        )
    if isinstance(expr, Sum):
        return tuple(map(add, _counts(expr.f, order), _counts(expr.g, order)))
    if isinstance(expr, Prod):
        return nk.product_counts(_counts(expr.f, order), _counts(expr.g, order))
    if isinstance(expr, Cartesian):
        return tuple(map(mul, _counts(expr.f, order), _counts(expr.g, order)))
    if isinstance(expr, Subst):
        return nk.compose_counts(_counts(expr.f, order), _counts(expr.g, order))
    if isinstance(expr, AProd):
        return nk.aprod_counts(_counts(expr.f, order), _counts(expr.g, order))
    if isinstance(expr, MAProd):
        return nk.maprod_counts(_counts(expr.f, order), _counts(expr.g, order))
    if isinstance(expr, Derivative):
        return _counts(expr.f, order + 1)[1:]
    if isinstance(expr, Point):
        return tuple(n * c for n, c in enumerate(_counts(expr.f, order)))
    if isinstance(expr, NonEmpty):
        return (0,) + _counts(expr.f, order)[1:]
    if isinstance(expr, Restrict):
        return _only(expr.n, _counts(expr.f, order))
    if isinstance(expr, HCT):
        return tuple(hct_counts(expr.r, order))
    raise DomainError(f"unknown expression node {expr!r}")


def _only(n: int, counts) -> tuple[int, ...]:
    """The counts kept at size n and zeroed at every other size."""
    return tuple(c if m == n else 0 for m, c in enumerate(counts))


@lru_cache(maxsize=None)
def _egf(expr: SpeciesExpr, order: int) -> TruncSeries:
    return TruncSeries.from_counts(_counts(expr, order))


def eval_egf(expr: SpeciesExpr, order: int) -> TruncSeries:
    """Exponential generating series of the expression, exact to the order."""
    validate(expr)
    return _egf(expr, order)


def eval_counts(expr: SpeciesExpr, order: int) -> list[int]:
    """Labelled counts |F[0]| .. |F[order]|."""
    validate(expr)
    out = list(_counts(expr, order))
    for n, v in enumerate(out):
        if v < 0:
            raise DomainError(f"count at {n} is {v}, not a nonnegative integer")
    return out


# -- cycle index evaluator -------------------------------------------------------

def eval_zi(expr: SpeciesExpr, bound: int) -> zi.CycleIndex:
    """Cycle index of the expression, exact to the weight bound."""
    validate(expr)
    return _zi(expr, bound, ())


# Most weight bound the cycle-index evaluator raises an operand to: each
# ``Derivative`` evaluates its operand one weight higher, and the cost grows
# about 4x per five levels (``deriv^20(E)`` at bound 10 takes half a second).
ZI_DERIV_BOUND = 30


def _zi(expr: SpeciesExpr, bound: int, path) -> zi.CycleIndex:
    expr = core(expr)
    if isinstance(expr, (One, X, E, L, C, S)):
        return zi.zi_atom(expr.name, bound)
    if isinstance(expr, OnePlusXPow):
        fix = {}
        for m in range(min(expr.n, bound) + 1):
            lam = (m,) if m else ()
            fix[lam] = nk.falling(expr.n, m)
        return zi.CycleIndex(bound, fix)
    if isinstance(expr, Necklace):
        base = zi.zi_atom(C.name, bound)
        a = expr.alpha
        # a coloring fixed along with the cycle must be constant on the
        # permutation's cycles: multiply by alpha^(number of parts)
        return zi.CycleIndex(
            bound, {lam: v * a ** nk.num_parts(lam) for lam, v in base.fix.items()}
        )
    if isinstance(expr, AperiodicNecklace):
        fix = {}
        for n in range(1, bound + 1):
            lam_n = nk.lyndon_count(n, expr.alpha)
            if lam_n:
                fix[(n,)] = lam_n * nk.factorial(n)
        return zi.CycleIndex(bound, fix)
    if isinstance(expr, Sum):
        return zi.zi_add(_zi(expr.f, bound, path + (0,)), _zi(expr.g, bound, path + (1,)))
    if isinstance(expr, Prod):
        return zi.zi_mul(_zi(expr.f, bound, path + (0,)), _zi(expr.g, bound, path + (1,)))
    if isinstance(expr, Cartesian):
        return zi.zi_hadamard(_zi(expr.f, bound, path + (0,)), _zi(expr.g, bound, path + (1,)))
    if isinstance(expr, Subst):
        return zi.zi_plethysm(_zi(expr.f, bound, path + (0,)), _zi(expr.g, bound, path + (1,)))
    if isinstance(expr, AProd):
        return zi.zi_aprod(_zi(expr.f, bound, path + (0,)), _zi(expr.g, bound, path + (1,)))
    if isinstance(expr, Derivative):
        if bound + 1 > ZI_DERIV_BOUND:
            raise ScaleLimit(
                f"derivatives raise the cycle-index weight bound to {bound + 1},"
                f" past {ZI_DERIV_BOUND}"
            )
        # fix of the derivative at lam is fix of the operand at lam plus one fixed point
        inner = _zi(expr.f, bound + 1, path + (0,))
        return zi.CycleIndex(bound, {
            lam: inner.fix[_with_extra_fixed_point(lam)]
            for w in range(bound + 1)
            for lam in nk.int_partitions(w)
            if _with_extra_fixed_point(lam) in inner.fix
        })
    if isinstance(expr, Point):
        return zi.zi_point(_zi(expr.f, bound, path + (0,)))
    if isinstance(expr, NonEmpty):
        inner = _zi(expr.f, bound, path + (0,))
        return zi.CycleIndex(bound, {lam: v for lam, v in inner.fix.items() if lam})
    if isinstance(expr, Restrict):
        inner = _zi(expr.f, bound, path + (0,))
        return zi.CycleIndex(
            bound, {lam: v for lam, v in inner.fix.items() if nk.weight(lam) == expr.n}
        )
    if isinstance(expr, MAProd):
        raise UnsupportedForCycleIndex(path, "no cycle index for the modified arithmetic product")
    if isinstance(expr, HCT):
        raise UnsupportedForCycleIndex(path, "no cycle index for hyper-cloned trees")
    raise DomainError(f"unknown expression node {expr!r}")


def _with_extra_fixed_point(lam):
    if not lam:
        return (1,)
    return (lam[0] + 1,) + lam[1:]


def eval_ogf(expr: SpeciesExpr, order: int) -> TruncSeries:
    """Isomorphism-types series, through the cycle index."""
    return zi.zi_to_ogf(eval_zi(expr, order), order)


def type_counts(expr: SpeciesExpr, order: int) -> list[int]:
    """Unlabelled counts, asserting integrality."""
    f = eval_ogf(expr, order)
    out = []
    for n, c in enumerate(f.coeffs):
        if c.denominator != 1 or c < 0:
            raise DomainError(f"type count at {n} is {c}, not a nonnegative integer")
        out.append(int(c))
    return out


# -- hyper-cloned rooted trees ---------------------------------------------------

def hct_counts(r: SpeciesExpr, order: int) -> list[int]:
    """Counts of r-enriched hyper-cloned rooted trees by the divisor recursion.

    h[1] = 1 and h[n+1] = sum over d | n of rect_coeff(n, d) * |r[d]| * h[n/d].
    """
    validate(r)
    rc = eval_counts(r, max(order - 1, 0))
    h = [0] * (order + 1)
    if order >= 1:
        h[1] = 1
    for n in range(1, order):
        h[n + 1] = nk.rect_divisor_sum(n, rc, h)
    return h


# -- multiplicative species -------------------------------------------------------

def is_multiplicative(counts) -> tuple[bool, tuple[int, int] | None]:
    """Check the count-level multiplicativity condition.

    Requires counts[1] == 1 (the species concentrated at 1 must be X);
    then for every coprime pair r, s >= 2 with r*s within range,
    |M[rs]| must equal (rs)!/(r!s!) * |M[r]| * |M[s]|.  Returns (ok,
    first failing pair or None).
    """
    top = len(counts) - 1
    if top >= 1 and counts[1] != 1:
        return False, (1, 1)
    from math import gcd

    pairs = []
    for r in range(2, top + 1):
        for s in range(r + 1, top + 1):
            if r * s <= top and gcd(r, s) == 1:
                pairs.append((r, s))
    pairs.sort(key=lambda p: (p[0] * p[1], p[0]))
    for r, s in pairs:
        expect = nk.rect_coeff(r * s, r) * counts[r] * counts[s]
        if counts[r * s] != expect:
            return False, (r, s)
    return True, None


def euler_reconstruct(prime_power_counts, order: int) -> list[int]:
    """Rebuild a multiplicative count sequence from its prime-power values.

    ``prime_power_counts`` maps (p, a) to |M[p^a]|; |M[1]| = 1 is implied.
    """
    out = [0] * (order + 1)
    if order >= 1:
        out[1] = 1
    for n in range(2, order + 1):
        denom = 1
        prod_counts = 1
        for p, a in nk.factorize(n):
            q = p ** a
            if (p, a) not in prime_power_counts:
                raise IncompleteData(f"missing count for prime power {p}^{a}")
            denom *= nk.factorial(q)
            prod_counts *= prime_power_counts[(p, a)]
        num = nk.factorial(n)
        assert num % denom == 0
        out[n] = num // denom * prod_counts
    return out


# -- closed-form counting -----------------------------------------------------------

def mnr_formula(m: int, n: int, r: int) -> int:
    """Number of m x n (0,1)-matrices with exactly r ones and no zero row or column.

    Signed double sum over the sizes (j, k) of the surviving row and
    column sets; grouping the terms by l = j*k gives the divisor form.
    """
    if m < 0 or n < 0 or r < 0:
        raise DomainError("matrix dimensions and weight must be nonnegative")
    total = 0
    for j in range(m + 1):
        cj = nk.binomial(m, j)
        for k in range(n + 1):
            c = nk.binomial(j * k, r)
            if not c:
                continue
            term = cj * nk.binomial(n, k) * c
            total += term if (m + n - j - k) % 2 == 0 else -term
    assert total >= 0
    return total


def partial_rect_mnr(m: int, n: int, r: int) -> int:
    """Number of m x n partial rectangles on r elements: r! M(m,n,r) / (m! n!)."""
    v = Fraction(nk.factorial(r) * mnr_formula(m, n, r), nk.factorial(m) * nk.factorial(n))
    assert v.denominator == 1 and v >= 0
    return int(v)


def pr_k_exact(k: int, order: int) -> list[int]:
    """Counts of k-tuples of partitions with meet the finest partition.

    Exact route: the Hadamard k-th power of the Bell series has count
    B_n^k; substituting ln(1+x) undoes the e^x - 1 inside and yields the
    partial-rectangle series itself.  On counts that substitution is the
    Stirling-1 transform of B_n^k.
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    out = nk.stirling1_transform([nk.bell(n) ** k for n in range(order + 1)])
    assert all(v >= 0 for v in out)
    return out


# -- certified numeric sums ----------------------------------------------------------

# Most lattice points one exact box sum of ``pittel_numeric`` may visit.
PITTEL_BOX_POINTS = 10 ** 6
# Most cells m*n of a ``table mnr``, whose m*n+1 rows cost O((m*n)^2) big-int work.
MNR_CELLS = 400


def _tail_upper(term, ratio, start):
    """Upper bound on sum_{i >= start} term(i).

    Requires term(i+1) = ratio(i) * term(i) with ratio nonincreasing and
    eventually below 3/4.
    """
    acc = Fraction(0)
    j = start
    while ratio(j) >= Fraction(3, 4):
        acc += term(j)
        j += 1
    return acc + term(j) / (1 - ratio(j))


def _moment_upper(term, ratio, upto):
    """Upper bound on the full sum over i >= 0, exact through ``upto``."""
    exact = sum((term(i) for i in range(upto + 1)), Fraction(0))
    return exact + _tail_upper(term, ratio, upto + 1)


def _invfact_term(p):
    return lambda i: Fraction(i ** p, nk.factorial(i))


def _invfact_ratio(p):
    return lambda i: Fraction((i + 1) ** p, i ** p * (i + 1))


def _einv_enclosure(terms: int = 30) -> tuple[Fraction, Fraction]:
    """Rational enclosure of 1/e from the alternating series."""
    s = Fraction(0)
    lo = hi = None
    for j in range(terms + 2):
        s += Fraction((-1) ** j, nk.factorial(j))
        if j >= terms:
            if j % 2:
                lo = s
            else:
                hi = s
    assert lo is not None and hi is not None and lo < hi
    return lo, hi


def pittel_numeric(k: int, n: int, tol) -> tuple[float, float]:
    """Numeric value of the k-fold falling-factorial sum for partial rectangles.

    Evaluates e^(-k) * sum over i_1..i_k >= 0 of (i_1...i_k)_n / (i_1!...i_k!)
    with a certified rational enclosure of width below tol, asserts the
    exact count from pr_k_exact lies inside, and returns (midpoint,
    half-width) as floats.
    """
    if k < 1 or n < 0:
        raise DomainError("need k >= 1 and n >= 0")
    if not 0 < tol < inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
    tol = Fraction(tol)
    box = 2 * n + 8
    _check_box(k, box)
    einv_lo, einv_hi = _einv_enclosure()
    ek_lo, ek_hi = einv_lo ** k, einv_hi ** k
    exact = pr_k_exact(k, n)[n]
    term, ratio = _invfact_term(n), _invfact_ratio(n)
    while True:
        axis_tail = _tail_upper(term, ratio, box + 1)
        axis_full = _moment_upper(term, ratio, box)
        tail = k * axis_tail * axis_full ** (k - 1)
        s = _pittel_box_sum(k, n, box)
        lo = ek_lo * s
        hi = ek_hi * (s + tail)
        if hi - lo <= tol:
            break
        # every term is >= 0, so s and the width, at least (ek_hi - ek_lo) * s, only
        # grow with the box: past tol no box closes it, so grow until _check_box raises
        while (ek_hi - ek_lo) * s > tol:
            box *= 2
            _check_box(k, box)
        box *= 2
        _check_box(k, box)
    mid = (lo + hi) / 2
    half = (hi - lo) / 2
    assert lo <= exact <= hi
    assert abs(mid - exact) <= tol
    return float(mid), float(half)


def _check_box(k, box):
    """ScaleLimit when the k-cube [0..box]^k has more than ``PITTEL_BOX_POINTS`` points.

    The count stops growing once it passes the limit, so a huge k costs
    a few multiplications, not the digits of (box+1)^k.
    """
    points = 1
    for _ in range(k):
        points *= box + 1
        if points > PITTEL_BOX_POINTS:
            raise ScaleLimit(
                f"pittel box sum over {box + 1}^{k} points exceeds {PITTEL_BOX_POINTS}"
            )


def _pittel_box_sum(k, n, box):
    """Exact sum of (prod i)_n / prod i! over the k-cube [0..box]^k."""
    fbox = nk.factorial(box)
    w = [fbox // nk.factorial(i) for i in range(box + 1)]
    total = 0
    for tup in product(range(box + 1), repeat=k):
        m = 1
        for i in tup:
            m *= i
        f = nk.falling(m, n)
        if f:
            ww = f
            for i in tup:
                ww *= w[i]
            total += ww
    return Fraction(total, fbox ** k)


# -- the cyclotomic identity -----------------------------------------------------------

def cyclotomic_check(alpha: int, order: int) -> bool:
    """Verify the colored-cycle factorization on integer counts.

    Checks (a) cycles of aperiodic necklaces have the same counts as
    necklaces, (b) the product of the factors (1 - x^n)^(-lyndon(n, alpha))
    is sum alpha^n x^n, and (c) assemblies of cycles of aperiodic necklaces
    number n! alpha^n.
    """
    if alpha < 1:
        raise DomainError(f"alpha must be >= 1, got {alpha}")
    neck = eval_counts(Necklace(alpha), order)
    octo = eval_counts(AProd(C(), AperiodicNecklace(alpha)), order)
    if octo != neck:
        return False
    target = [alpha ** n for n in range(order + 1)]
    prod_form = [1] + [0] * order
    for n in range(1, order + 1):
        lam = nk.lyndon_count(n, alpha)
        if lam:
            # (1 - x^n)^(-lam) = sum_j C(lam + j - 1, j) x^(nj)
            prod_form = [
                sum(nk.binomial(lam + j - 1, j) * prod_form[m - n * j] for j in range(m // n + 1))
                for m in range(order + 1)
            ]
    if prod_form != target:
        return False
    assemblies = eval_counts(Subst(E(), AProd(C(), AperiodicNecklace(alpha))), order)
    return assemblies == [nk.factorial(n) * t for n, t in enumerate(target)]
