"""Differential tests of the integer labelled-count evaluator ``species._counts``.

The reference walker below evaluates the same trees through the exact
``Fraction`` kernels of ``series``; the integer kernels must give the same
counts, and both must agree with brute-force enumeration.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import stirling

from conftest import rand_any, rand_emptyfree
from specalc import numkit as nk
from specalc import oracle
from specalc import series as se
from specalc import species as sp
from specalc.errors import CompositionError, PreconditionViolated
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


@st.composite
def _count_pairs(draw):
    """Two integer count sequences of one length 1..25, each with a zero constant term."""
    order = draw(st.integers(0, 24))
    seq = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=order, max_size=order)
    return (0, *draw(seq)), (0, *draw(seq))


@settings(_SETTINGS, max_examples=200)
@given(_count_pairs())
def test_aprod_counts_is_the_dirichlet_product_of_raw_coefficients(pair):
    # the paper's identity: the rectangle divisor sum of counts is the
    # Dirichlet product of |F[n]|/n!, so this checks rect_coeff independently
    f, g = pair
    got = se.aprod_egf(TruncSeries.from_counts(f), TruncSeries.from_counts(g))
    assert tuple(got.counts()) == nk.aprod_counts(f, g)


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


def _compose_triangle(f, g):
    """The partial Bell triangle term by term, the reference for ``compose_counts``."""
    order = len(f) - 1
    h = [f[0]] + [0] * order
    bell = [1] + [0] * order  # B_(m,0)
    for k in range(1, order + 1):
        bell = [0] * k + [
            sum(nk.binomial(m - 1, i - 1) * g[i] * bell[m - i] for i in range(1, m - k + 2))
            for m in range(k, order + 1)
        ]
        for m in range(k, order + 1):
            h[m] += f[k] * bell[m]
    return tuple(h)


def test_compose_counts_matches_the_fraction_substitution():
    e, ep, lin = sp.E(), sp.Eplus(), sp.L()
    got = nk.compose_counts(sp._counts(e, 60), sp._counts(sp.validate(ep), 60))
    assert list(got) == se.compose(_ref_egf(e, 60), _ref_egf(ep, 60)).counts()
    assert got[30] == 846749014511809332450147 and got[60] == nk.bell(60)
    got = nk.compose_counts(sp._counts(lin, 40), sp._counts(sp.validate(ep), 40))
    assert list(got) == se.compose(_ref_egf(lin, 40), _ref_egf(ep, 40)).counts()
    assert got[12] == 28091567595  # the Fubini number of ordered set partitions


def test_compose_counts_matches_the_triangle():
    def seq(*nonzero, order=30):
        return tuple(dict(nonzero).get(m, 0) for m in range(order + 1))

    inner = [
        seq((1, 1)),  # X
        seq((2, 2)),  # Xpow(2)
        seq((2, 2), (3, 6)),  # X^2 + X^3
        seq((1, 1), (30, 7)),  # a gap between the least and largest term
        seq(),  # no term at all
        seq(*((m, 1) for m in range(1, 31))),  # Ep
    ]
    outer = [
        seq(*((m, 1) for m in range(31))),  # E
        seq((0, 3), (4, 1), (5, 2), (11, 1), (29, 5)),  # runs of zeros
        seq((2, 1)),  # Ek(2)
    ]
    for g in inner:
        for f in outer:
            assert nk.compose_counts(f, g) == _compose_triangle(f, g), (f, g)
    for f, g in [((5,), (0,)), ((5, 7), (0, 0)), ((5, 7), (0, 3))]:  # orders 0 and 1
        assert nk.compose_counts(f, g) == _compose_triangle(f, g), (f, g)


@settings(_SETTINGS, max_examples=200)
@given(st.integers(0, 18).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n + 1, max_size=n + 1),
    st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n),
)))
def test_compose_counts_matches_the_triangle_on_drawn_sequences(fg):
    f, g = fg[0], [0] + fg[1]
    assert nk.compose_counts(f, g) == _compose_triangle(f, g)


def test_compose_counts_rejects_a_constant_inner_term():
    with pytest.raises(CompositionError, match="zero constant term"):
        nk.compose_counts((1, 1, 1), (1, 1, 0))
