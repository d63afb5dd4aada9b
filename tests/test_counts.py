"""Differential tests of the integer labelled-count evaluator ``species._counts``.

The reference walker below evaluates the same trees through the exact
``Fraction`` kernels of ``series``; the integer kernels must give the same
counts, and both must agree with brute-force enumeration.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import stirling

from conftest import rand_any, rand_emptyfree
from specalc import numkit as nk
from specalc import oracle
from specalc import series as se
from specalc import species as sp
from specalc.errors import PreconditionViolated
from specalc.series import TruncSeries
from test_cli_properties import _SETTINGS, LEAF_CLASSES, trees


def _ref_egf(expr, order):
    """Exponential series of the expression through the ``series`` kernels."""
    if isinstance(expr, sp.One):
        return TruncSeries.one(order)
    if isinstance(expr, sp.X):
        return TruncSeries.x(order)
    if isinstance(expr, (sp.E, sp.Eplus)):
        e = TruncSeries(Fraction(1, nk.factorial(n)) for n in range(order + 1))
        return e if isinstance(expr, sp.E) else e - TruncSeries.one(order)
    if isinstance(expr, (sp.L, sp.S)):
        return TruncSeries.geometric(order)
    if isinstance(expr, (sp.Lplus, sp.Splus)):
        return TruncSeries.geometric(order) - TruncSeries.one(order)
    if isinstance(expr, (sp.C, sp.Necklace)):
        a = expr.alpha if isinstance(expr, sp.Necklace) else 1
        return TruncSeries([0] + [Fraction(a ** n, n) for n in range(1, order + 1)])
    if isinstance(expr, sp.AperiodicNecklace):
        return TruncSeries([0] + [nk.lyndon_count(n, expr.alpha) for n in range(1, order + 1)])
    if isinstance(expr, (sp.Ek, sp.XPow)):
        k = expr.k if isinstance(expr, sp.Ek) else expr.n
        c = Fraction(1, nk.factorial(k)) if isinstance(expr, sp.Ek) else Fraction(1)
        return TruncSeries(c if n == k else 0 for n in range(order + 1))
    if isinstance(expr, sp.OnePlusXPow):
        return TruncSeries.one_plus_x_pow(expr.n, order)
    if isinstance(expr, sp.Sum):
        return _ref_egf(expr.f, order) + _ref_egf(expr.g, order)
    if isinstance(expr, sp.Prod):
        return _ref_egf(expr.f, order) * _ref_egf(expr.g, order)
    if isinstance(expr, sp.Cartesian):
        return se.hadamard(_ref_egf(expr.f, order), _ref_egf(expr.g, order))
    if isinstance(expr, sp.Subst):
        return se.compose(_ref_egf(expr.f, order), _ref_egf(expr.g, order))
    if isinstance(expr, sp.AProd):
        return se.aprod_egf(_ref_egf(expr.f, order), _ref_egf(expr.g, order))
    if isinstance(expr, sp.MAProd):
        return se.maprod_egf_via_shift(_ref_egf(expr.f, order), _ref_egf(expr.g, order), order)
    if isinstance(expr, sp.Derivative):
        inner = _ref_egf(expr.f, order + 1).coeffs
        return TruncSeries((n + 1) * inner[n + 1] for n in range(order + 1))
    if isinstance(expr, sp.Point):
        return TruncSeries(n * c for n, c in enumerate(_ref_egf(expr.f, order).coeffs))
    if isinstance(expr, sp.NonEmpty):
        return TruncSeries((0,) + _ref_egf(expr.f, order).coeffs[1:])
    if isinstance(expr, sp.Restrict):
        inner = _ref_egf(expr.f, order).coeffs
        return TruncSeries(c if n == expr.n else 0 for n, c in enumerate(inner))
    if isinstance(expr, sp.HCT):
        # H = X + the integral of R+ boxed H, iterated to its fixed point
        r = _ref_egf(sp.NonEmpty(expr.r), order)
        h = TruncSeries.x(order)
        for _ in range(order):
            d = se.aprod_egf(r, h).coeffs
            h = TruncSeries.x(order) + TruncSeries([0] + [d[n] / (n + 1) for n in range(order)])
        return h
    raise AssertionError(f"no reference route for {expr!r}")


def _draws(rng):
    """One tree per node kind the evaluator handles, built on random operands."""
    a, b, c = rand_any(rng), rand_emptyfree(rng), rand_any(rng)
    return [
        a,
        sp.Subst(a, b),
        sp.Cartesian(a, c),
        sp.AProd(b, rand_emptyfree(rng)),
        sp.Derivative(sp.Prod(a, c)),
        sp.Point(sp.Subst(c, b)),
        sp.Restrict(sp.Prod(a, c), rng.randint(0, 6)),
        sp.NonEmpty(sp.MAProd(c, sp.Subst(a, b))),
    ]


# every atom kind, the integer-valued ones at a few arguments
ATOMS = [cls(*k) for cls in LEAF_CLASSES for k in ([(0,), (2,), (5,)] if cls.fields else [()])]


def test_counts_match_the_fraction_kernels():
    for expr in ATOMS:
        assert list(sp._counts(sp.validate(expr), 30)) == _ref_egf(expr, 30).counts(), expr
    rng = random.Random(41)
    for _ in range(40):
        order = rng.randint(0, 12)
        for expr in _draws(rng):
            got = sp._counts(sp.validate(expr), order)
            assert list(got) == _ref_egf(expr, order).counts(), (expr, order)


def _oracle_work(expr, n):
    """Largest set the oracle builds for the expression on n labels.

    That is the structures of a node, and for ``maprod`` also the partial
    rectangles it walks; a derivative enumerates its operand on n + 1 labels.
    """
    work = max(sp._counts(sp.validate(expr), n))
    if isinstance(expr, sp.MAProd):
        work = max(work, sp.pr_k_exact(2, n)[n])
    if isinstance(expr, sp.Derivative):
        n += 1
    return max([work] + [_oracle_work(ch, n) for ch in sp.children(expr)])


def test_counts_match_the_oracle():
    # draws whose enumeration would build more than 1200 objects on some
    # node are skipped to keep the oracle small
    rng = random.Random(43)
    kinds = set()
    for _ in range(30):
        for expr in _draws(rng) + [sp.HCT(rand_emptyfree(rng, 1))]:
            if _oracle_work(expr, 5) > 1200:
                continue
            kinds.add(type(expr))
            counts = sp.eval_counts(expr, 5)
            for n in range(6):
                got = len(oracle.enumerate_structures(expr, range(1, n + 1)))
                assert got == counts[n], (expr, n)
    assert len(kinds) >= 9, kinds


@settings(_SETTINGS, max_examples=300)
@given(trees(3), st.integers(0, 12))
def test_counts_kernels_and_oracle_agree_on_drawn_trees(tree, order):
    try:
        core = sp.validate(tree)
    except PreconditionViolated:  # an aprod or comp operand with an empty structure
        return
    counts = list(sp._counts(core, order))
    assert counts == _ref_egf(tree, order).counts()
    if _oracle_work(tree, 5) <= 1200:
        for n in range(min(order, 5) + 1):
            assert len(oracle.enumerate_structures(tree, range(1, n + 1))) == counts[n], n


def test_pr_k_exact_matches_the_log_substitution():
    log1p = se.log1p_series(20)
    for k in (1, 2, 3, 4):
        bells = TruncSeries.from_counts([nk.bell(n) ** k for n in range(21)])
        assert sp.pr_k_exact(k, 20) == se.compose(bells, log1p).counts(), k


def test_stirling_tables_match_sympy():
    s1, s2 = nk.stirling1_table(14), nk.stirling2_table(14)
    for m in range(15):
        assert len(s1[m]) == len(s2[m]) == m + 1
        for k in range(m + 1):
            assert s1[m][k] == stirling(m, k, kind=1, signed=True), (m, k)
            assert abs(s1[m][k]) == stirling(m, k, kind=1), (m, k)
            assert s2[m][k] == stirling(m, k, kind=2), (m, k)
