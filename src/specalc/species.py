"""Species expressions and their evaluators.

The expression tree is the single source every backend consumes: the
exponential/count evaluator, the cycle-index evaluator (and through it
the isomorphism-types series), the hyper-cloned tree recursion, the
multiplicativity tools, and the closed-form matrix/partial-rectangle
counting formulas.

Labelled counts are exact ``int`` tuples, one ``numkit`` count kernel per
operation, ``hct`` included, and an atom's fix-values at the identity types
(``zindex.atom_counts``).  ``eval_counts`` asserts that every count is
nonnegative.  The ``Fraction`` kernels of ``series`` are the independent
route the tests compare them against.  Type counts (``type_counts``) are
``int`` tuples too, from ``_types``: the arithmetic product is the Dirichlet
convolution of its operands' type series, and an atom the Burnside sum over
its index; ``zindex.zi_to_ogf`` of ``eval_zi``, which specialises the whole
cycle index, is their independent route.  Every index is a ``zindex``
kernel's, stored unchecked: this module builds none and reads no term.

A new node kind is one ``SpeciesExpr`` subclass here, one ``_RULES`` row
and one branch of ``oracle._enum``.  The row holds its count rule, its
``zindex`` cycle-index kernel or the noun of the error where it has none,
its type rule where its operands' type series suffice (else ``_types``
takes the Burnside sum of its index; ``comp``, whose type rule reads an
operand's index, is ``_types``' one branch) and its lift, the order raise
of its operands (1 for ``deriv``).  It needs a branch of
``oracle._transport``, which reads the structure's tags and not the
expression, only when its structures lead with a new tag.  A new atom (a
node with no expression argument) needs no row, only one ``zindex``
fix-value entry under its source name (and a place among the atoms
``zi_atom`` walks at every cycle type if it fixes structures off the
equal-part types).  An operand that must have no structures on the empty
set is one ``_EMPTY_FREE`` entry, which ``validate`` reads.  The class is
the one place the kind is declared: the grammar of ``dslcli``, the printer
and the argument errors read its source name ``name``, and its annotated
fields are its arguments (an ``int`` field takes a nonnegative integer, any
other an expression; the expression-valued ones are its ``children``).  Its
count on the empty set is ``_counts(expr, 0)[0]``.  A sugar atom, which
only abbreviates a core form, is one ``_SUGAR`` entry, resolved by
``validate`` before any evaluator or the oracle sees the tree:
``Ep``/``Lp``/``Sp`` are ``plus`` of ``E``/``L``/``S``, and ``Ek(k)`` and
``Xpow(n)`` are ``restrict(E, k)`` and ``restrict(L, n)``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, inf
from operator import add, is_not, mul

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
    nonnegative ints (a bool or float is refused); ``args`` holds an
    instance's arguments.
    """

    def __init_subclass__(cls):
        # annotations are strings under ``from __future__ import annotations``
        own = cls.__dict__.get("__annotations__", {})
        cls.fields = tuple(own)
        cls.int_fields = tuple(f for f, t in own.items() if t == "int")

    def __init__(self, *args):
        if len(args) != len(self.fields):
            raise TypeError(f"{type(self).__name__}() takes {len(self.fields)} arguments")
        named = dict(zip(self.fields, args))
        for f in self.int_fields:
            nk.check_order(named[f], f"{self.name} {f}")
        vars(self).update(named, args=args, _hash=hash((self.name, args)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.args == other.args

    def __hash__(self):
        return self._hash

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(self.fields, self.args))
        return f"{type(self).__name__}({inner})"


class X(SpeciesExpr):
    """Singletons."""

    name = "X"


class One(SpeciesExpr):
    """The empty-set species 1."""

    name = "1"


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


# Sugar atoms and their core forms; ``validate`` maps them, so the evaluators
# and the oracle see only core forms, while printing keeps the sugar.
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

# The operands, by position, that must have no structures on the empty set.
_EMPTY_FREE = {
    AProd: ((0, 1), "arithmetic product operand has structures on the empty set"),
    Subst: ((1,), "substitution inner operand has structures on the empty set"),
}


def validate(expr: SpeciesExpr) -> SpeciesExpr:
    """Check the emptiness preconditions everywhere in the tree; return its core form.

    The operands ``_EMPTY_FREE`` names must have no structures on the
    empty set; the first offender is reported with its node path.
    Children are checked before their parent, so the order-0 counts read
    here never meet a kernel precondition.  Each node is mapped by ``core``
    after its children, so no evaluator or oracle node meets a sugar atom;
    a node with no sugar at or below it comes back as the same object.
    """

    def rec(node, path):
        kids = children(node)
        cores = [rec(ch, path + (i,)) for i, ch in enumerate(kids)]
        operands, message = _EMPTY_FREE.get(type(node), ((), None))
        for i in operands:
            if _counts(cores[i], 0)[0]:
                raise PreconditionViolated(path + (i,), message)
        if any(map(is_not, cores, kids)):
            it = iter(cores)
            node = type(node)(*(next(it) if isinstance(a, SpeciesExpr) else a for a in node.args))
        return core(node)

    return rec(expr, ())


# -- one rule row per node kind -------------------------------------------------

# One row per composite node kind: its labelled-count rule on the operands'
# counts; its cycle-index kernel, by name on ``zindex`` (looked up at call
# time), or the noun of the error where it has none; its type-count rule on
# the operands' type series, where those suffice; and its lift, the order
# raise of its operands (1 for ``deriv``).  Each rule takes the operands'
# values, then the node's integer arguments.
_termwise_sum = lambda f, g: tuple(map(add, f, g))
_nonempty = lambda f: (0,) + f[1:]
_restrict = lambda f, n: tuple(v if m == n else 0 for m, v in enumerate(f))
_RULES = {
    Sum: (_termwise_sum, "zi_add", _termwise_sum, 0),
    Prod: (nk.product_counts, "zi_mul", zi.ogf_mul, 0),
    Cartesian: (lambda f, g: tuple(map(mul, f, g)), "zi_hadamard", None, 0),
    Subst: (nk.compose_counts, "zi_plethysm", None, 0),
    AProd: (nk.aprod_counts, "zi_aprod", nk.dirichlet_convolution, 0),
    MAProd: (nk.maprod_counts, "the modified arithmetic product", None, 0),
    Derivative: (lambda f: f[1:], "zi_deriv", None, 1),
    Point: (lambda f: tuple(n * c for n, c in enumerate(f)), "zi_point", None, 0),
    NonEmpty: (_nonempty, "zi_nonempty", _nonempty, 0),
    Restrict: (_restrict, "zi_restrict", _restrict, 0),
    HCT: (nk.hct_counts, "hyper-cloned trees", None, 0),
}


def _rule(expr: SpeciesExpr):
    """The node's ``_RULES`` row; an unknown node is a ``DomainError``."""
    if type(expr) not in _RULES:
        raise DomainError(f"unknown expression node {expr!r}")
    return _RULES[type(expr)]


def _ints(expr: SpeciesExpr) -> tuple[int, ...]:
    """The integer arguments of the node, in field order."""
    return tuple(getattr(expr, f) for f in expr.int_fields)


# -- labelled count evaluator ----------------------------------------------------

@lru_cache(maxsize=None)
def _counts(expr: SpeciesExpr, order: int) -> tuple[int, ...]:
    """Labelled counts |F[0]| .. |F[order]| on exact integers, one kernel per node."""
    if expr.fields == expr.int_fields:  # an atom: its fix-values at the identity types
        return zi.atom_counts(expr.name, order, *expr.args)
    rule, _, _, lift = _rule(expr)
    return rule(*(_counts(ch, order + lift) for ch in children(expr)), *_ints(expr))


@lru_cache(maxsize=None)
def _egf(expr: SpeciesExpr, order: int) -> TruncSeries:
    return TruncSeries.from_counts(_counts(expr, order))


def eval_egf(expr: SpeciesExpr, order: int) -> TruncSeries:
    """Exponential generating series of the expression, exact to the order."""
    nk.check_order(order)
    return _egf(validate(expr), order)


def eval_counts(expr: SpeciesExpr, order: int) -> list[int]:
    """Labelled counts |F[0]| .. |F[order]|."""
    nk.check_order(order)
    out = list(_counts(validate(expr), order))
    for n, v in enumerate(out):
        if v < 0:
            raise DomainError(f"count at {n} is {v}, not a nonnegative integer")
    return out


# -- cycle index evaluator -------------------------------------------------------

def eval_zi(expr: SpeciesExpr, bound: int) -> zi.CycleIndex:
    """Cycle index of the expression, exact to the weight bound."""
    nk.check_order(bound)
    return _zi(validate(expr), bound, ())


# Most weight bound the cycle-index evaluator raises an operand to: each
# ``Derivative`` evaluates its operand one weight higher, and the cost grows
# about 4x per five levels (``deriv^20(E)`` at bound 10 takes half a second).
ZI_DERIV_BOUND = 30


def _zi(expr: SpeciesExpr, bound: int, path) -> zi.CycleIndex:
    if expr.fields == expr.int_fields:  # an atom
        return zi.zi_atom(expr.name, bound, *expr.args)
    _, kernel, _, lift = _rule(expr)
    if not kernel.startswith("zi_"):
        raise UnsupportedForCycleIndex(path, f"no cycle index for {kernel}")
    if lift and bound + lift > ZI_DERIV_BOUND:
        raise ScaleLimit(f"derivatives raise the cycle-index weight bound to {bound + lift},"
                         f" past {ZI_DERIV_BOUND}")
    operands = (_zi(ch, bound + lift, path + (i,)) for i, ch in enumerate(children(expr)))
    return getattr(zi, kernel)(*operands, *_ints(expr))


def type_counts(expr: SpeciesExpr, order: int) -> list[int]:
    """Unlabelled counts on integer type series, asserting integrality."""
    nk.check_order(order)
    return list(_types(validate(expr), order, ()))


def _types(expr: SpeciesExpr, order: int, path) -> tuple[int, ...]:
    """Type counts of the node, from its operands' type counts where they suffice.

    ``aprod`` is the Dirichlet convolution sum_(d | n) types(F)[d] types(G)[n/d],
    so ``F ⊡ Lp`` is the Lambert form sum_(d | n) types(F)[d].  Operand 0 is
    evaluated before operand 1, as in ``_zi``, so an error below a binary
    node names the same path on both routes.
    """
    if isinstance(expr, Subst):
        return zi.ogf_plethysm(_zi(expr.f, order, path + (0,)), _types(expr.g, order, path + (1,)))
    _, _, rule, lift = _RULES.get(type(expr), (None,) * 4)
    if rule:
        operands = (_types(ch, order + lift, path + (i,)) for i, ch in enumerate(children(expr)))
        return rule(*operands, *_ints(expr))
    return zi.type_series(_zi(expr, order, path), order)


# -- hyper-cloned rooted trees ---------------------------------------------------

def hct_counts(r: SpeciesExpr, order: int) -> list[int]:
    """Counts of r-enriched hyper-cloned rooted trees: ``eval_counts`` of ``hct(r)``."""
    return eval_counts(HCT(r), order)


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
    for m in range(2, top + 1):
        for r in nk.divisors(m):
            s = m // r
            if 2 <= r < s and gcd(r, s) == 1:
                if counts[m] != nk.rect_coeff(m, r) * counts[r] * counts[s]:
                    return False, (r, s)
    return True, None


def euler_reconstruct(prime_power_counts, order: int) -> list[int]:
    """Rebuild a multiplicative count sequence from its prime-power values.

    ``prime_power_counts`` maps (p, a) to |M[p^a]|; |M[1]| = 1 is implied.
    """
    nk.check_order(order)
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
    for v in (m, n, r):
        nk.check_order(v, "matrix size")
    if not m * n:  # every line of a matrix with a zero dimension is empty
        return int(m == n == r == 0)
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
    v, rem = divmod(nk.factorial(r) * mnr_formula(m, n, r), nk.factorial(m) * nk.factorial(n))
    assert rem == 0 and v >= 0
    return v


def pr_k_exact(k: int, order: int) -> list[int]:
    """Counts of k-tuples of partitions with meet the finest partition.

    Exact route: the Hadamard k-th power of the Bell series has count
    B_n^k; substituting ln(1+x) undoes the e^x - 1 inside and yields the
    partial-rectangle series itself.  On counts that substitution is the
    Stirling-1 transform of B_n^k.
    """
    nk.check_k(k)
    nk.check_order(order)
    out = nk.stirling1_transform([b ** k for b in nk.bell_numbers(order)])
    assert all(v >= 0 for v in out)
    return out


# -- certified numeric sums ----------------------------------------------------------

# Most lattice points one exact box sum of ``pittel_rows`` may visit.
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


def _invfact_term(p):
    return lambda i: Fraction(i ** p, nk.factorial(i))


def _invfact_ratio(p):
    return lambda i: Fraction((i + 1) ** p, i ** p * (i + 1))


def _einv_enclosure() -> tuple[Fraction, Fraction]:
    """Rational enclosure (S_31, S_30) of 1/e by partial sums of sum (-1)^j / j!."""
    s30 = sum((Fraction((-1) ** j, nk.factorial(j)) for j in range(31)), Fraction(0))
    return s30 - Fraction(1, nk.factorial(31)), s30


def pittel_rows(k: int, n: int, tol) -> list[tuple[int, float, float]]:
    """Pittel's sum beside the exact partial-rectangle count, for every size 0..n.

    Row i encloses e^(-k) * sum over i_1..i_k >= 0 of (i_1...i_k)_i /
    (i_1!...i_k!) in rationals [lo, hi] of width below tol and is (exact,
    midpoint, half-width): the count from ``pr_k_exact``, asserted inside
    [lo, hi] and within tol of the midpoint, then the two floats.  The box
    [0..2i+8]^k is summed exactly, and the rest is at most k T F^(k-1),
    with T one axis's tail bound past the box, walked once per box, and
    F = T plus that axis's terms through the box.  tol is compared exactly
    as given (a float, a Fraction or a Decimal).  Each per-table value is
    formed once: e^(-k) after the smallest box is checked, ``pr_k_exact``
    after every box, so a box past ``PITTEL_BOX_POINTS`` forms neither.
    """
    nk.check_k(k)
    nk.check_order(n)
    if not 0 < tol < inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
    _check_box(k, 8)
    einv_lo, einv_hi = _einv_enclosure()
    ek_lo, ek_hi = einv_lo ** k, einv_hi ** k
    enclosures = []
    for i in range(n + 1):
        box = 2 * i + 8
        _check_box(k, box)
        term, ratio = _invfact_term(i), _invfact_ratio(i)
        while True:
            axis_tail = _tail_upper(term, ratio, box + 1)
            axis_full = sum((term(j) for j in range(box + 1)), Fraction(0)) + axis_tail
            tail = k * axis_tail * axis_full ** (k - 1)
            s = _pittel_box_sum(k, i, box)
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
        enclosures.append((lo, hi))
    rows = []
    for exact, (lo, hi) in zip(pr_k_exact(k, n), enclosures):
        mid = (lo + hi) / 2
        assert lo <= exact <= hi
        assert abs(mid - exact) <= tol
        rows.append((exact, float(mid), float((hi - lo) / 2)))
    return rows


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
    """Exact sum of (prod i)_n / prod i! over the k-cube [0..box]^k.

    The summand depends on the tuple through its product only, so the
    weights prod box!/i! are gathered per product, one coordinate at a
    time, and each distinct product's falling factorial is formed once.
    """
    fbox = nk.factorial(box)
    w = [fbox // nk.factorial(i) for i in range(box + 1)]
    by_product = {1: 1}
    for _ in range(k):
        step = {}
        for m, c in by_product.items():
            for i, wi in enumerate(w):
                step[m * i] = step.get(m * i, 0) + c * wi
        by_product = step
    total = sum(nk.falling(m, n) * c for m, c in by_product.items())
    return Fraction(total, fbox ** k)
