"""Shared generators for randomized law tests (seeded, deterministic)."""

import random
from fractions import Fraction

from specalc import species as sp
from specalc.errors import DomainError, PreconditionViolated
from specalc.series import TruncSeries


def parts_to_mult(parts) -> tuple[int, ...]:
    """Multiplicity tuple of a list of parts (any order): the reference for ``numkit.int_partitions``."""
    parts = tuple(parts)
    if not parts:
        return ()
    m = [0] * max(parts)
    for p in parts:
        if p < 1:
            raise DomainError(f"partition part {p} must be positive")
        m[p - 1] += 1
    return tuple(m)


def labelled_counts(p, order) -> list[int]:
    """An index's labelled counts to the order: its fix-values at the identity types () and (n,)."""
    return [p.fix_value((n,) if n else ()) for n in range(order + 1)]


def rand_series(rng: random.Random, order: int, zero_const: bool = False) -> TruncSeries:
    cs = [Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(order + 1)]
    if zero_const:
        cs[0] = Fraction(0)
    return TruncSeries(cs)


# operand pools: species with no structure on the empty set (valid for the
# arithmetic product) and unrestricted species (for the modified product)
EMPTYFREE_POOL = [
    sp.X(),
    sp.Eplus(),
    sp.Lplus(),
    sp.C(),
    sp.Splus(),
    sp.XPow(2),
    sp.XPow(3),
    sp.Ek(2),
    sp.Necklace(2),
    sp.AperiodicNecklace(2),
    sp.Point(sp.Eplus()),
    sp.Restrict(sp.S(), 3),
    sp.NonEmpty(sp.L()),
]

ANY_POOL = EMPTYFREE_POOL + [
    sp.One(),
    sp.E(),
    sp.L(),
    sp.S(),
    sp.OnePlusXPow(2),
    sp.Derivative(sp.C()),
]


def rand_emptyfree(rng: random.Random, depth: int = 2) -> sp.SpeciesExpr:
    """Random species with no empty-set structures, closed under + and the products."""
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(EMPTYFREE_POOL)
    op = rng.choice(("sum", "aprod", "prod_x"))
    a = rand_emptyfree(rng, depth - 1)
    b = rand_emptyfree(rng, depth - 1)
    if op == "sum":
        return sp.Sum(a, b)
    if op == "aprod":
        return sp.AProd(a, b)
    # a product with at least one empty-free factor stays empty-free
    return sp.Prod(a, rng.choice(ANY_POOL))


_SMALL_POOL = [sp.X(), sp.E(), sp.Eplus(), sp.C(), sp.Ek(2), sp.XPow(2)]
_WRAPPERS = (
    lambda rng, f: sp.Derivative(f),
    lambda rng, f: sp.NonEmpty(f),
    lambda rng, f: sp.Restrict(f, rng.randint(0, 5)),
)


def rand_wrapped(rng: random.Random, depth: int = 2) -> sp.SpeciesExpr:
    """Random valid tree whose root is ``deriv``, ``plus`` or ``restrict`` of a
    ``comp``, ``*``, ``aprod`` or ``cart`` node; below depth 1 the operands are
    such trees too, or small atoms.  Trees that fail ``validate`` are redrawn.
    """
    while True:
        ops = [rand_wrapped(rng, depth - 1) if depth > 1 and rng.random() < 0.5
               else rng.choice(_SMALL_POOL) for _ in range(2)]
        node = rng.choice((sp.Subst, sp.Prod, sp.AProd, sp.Cartesian))(*ops)
        expr = rng.choice(_WRAPPERS)(rng, node)
        try:
            sp.validate(expr)
        except PreconditionViolated:
            continue
        return expr


def rand_any(rng: random.Random, depth: int = 2) -> sp.SpeciesExpr:
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(ANY_POOL)
    op = rng.choice(("sum", "prod", "maprod"))
    a = rand_any(rng, depth - 1)
    b = rand_any(rng, depth - 1)
    if op == "sum":
        return sp.Sum(a, b)
    if op == "prod":
        return sp.Prod(a, b)
    return sp.MAProd(a, b)
