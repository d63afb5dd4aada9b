import random
from fractions import Fraction
from operator import add

import pytest

from conftest import rand_series
from specalc import numkit as nk
from specalc import oracle
from specalc import series as se
from specalc import species as sp
from specalc.errors import CompositionError, DomainError, ZeroConstantRequired
from specalc.series import TruncSeries


def F(*coeffs):
    return TruncSeries(coeffs)


def test_ring_ops():
    x = TruncSeries.x(4)
    assert (x * x).coeffs[2] == 1
    geo = TruncSeries.geometric(3)
    assert (geo * geo) == F(1, 2, 3, 4)
    f = F(1, 2, 3)
    assert f + TruncSeries.zero(2) == f
    assert f * Fraction(1, 2) == F(Fraction(1, 2), 1, Fraction(3, 2))
    assert f * TruncSeries.one(2) == f


def test_mixed_orders_truncate_to_min():
    assert (F(1, 1, 1, 1) + F(1, 1)).order == 1
    assert (F(0, 1, 5) * F(1, 1)) == F(0, 1)


def test_equality_is_strict_on_order():
    assert F(1, 2) != F(1, 2, 0)


def test_series_compare_hash_and_print_as_values():
    # a foreign operand is left to its own __eq__, so the comparison is False, not an error
    assert F(1, 2).__eq__(0) is NotImplemented and (F(0) == 0) is False
    assert hash(F(1, 2)) == hash(TruncSeries([1, 2]))
    assert repr(F(1, 2)) == "TruncSeries[1, 2; order=1]"
    assert repr(TruncSeries(range(8))) == "TruncSeries[0, 1, 2, 3, 4, 5, ...; order=7]"


def test_sum_and_difference_with_a_number_are_type_errors():
    s = F(1, 2)
    for op in (lambda: s + 1, lambda: s - 1, lambda: 1 + s, lambda: 1 - s):
        with pytest.raises(TypeError):
            op()


def test_negative_order_is_rejected_by_every_order_argument():
    f = F(1, 2, 3)
    for call in (
        lambda: TruncSeries.zero(-1),
        lambda: TruncSeries.one(-1),
        lambda: TruncSeries.x(-1),
        lambda: TruncSeries.geometric(-1),
        lambda: TruncSeries.one_plus_x_pow(2, -1),
        lambda: f.truncate(-1),
        lambda: f.truncate(-2),
        lambda: se.expm1_series(-1),
        lambda: se.log1p_series(-1),
        lambda: se.geom_power(1, 1, -1),
        lambda: se.maprod_egf(f, f, -1),
        lambda: se.maprod_egf_via_shift(f, f, -1),
    ):
        with pytest.raises(DomainError, match="order must be nonnegative, got -"):
            call()


def test_compose_inverse_pair():
    n = 9
    assert se.compose(se.expm1_series(n), se.log1p_series(n)) == TruncSeries.x(n)
    assert se.compose(se.log1p_series(n), se.expm1_series(n)) == TruncSeries.x(n)


def test_compose_constant_inner():
    f = F(3, 1, 4)
    assert se.compose(f, TruncSeries.zero(2)) == F(3, 0, 0)
    with pytest.raises(CompositionError):
        se.compose(f, TruncSeries.one(2))


def test_compose_bell_with_expm1_matches_partial_rectangle_data():
    # substituting e^x - 1 into the two-sided partial-rectangle series must
    # square the Bell counts; the low-order counts come from the oracle
    pr2 = [len(oracle.k_partial_rectangles(n, 2)) for n in range(5)]
    lhs = se.compose(TruncSeries.from_counts(pr2), se.expm1_series(4))
    assert lhs.counts() == [nk.bell(n) ** 2 for n in range(5)]


def test_taylor_truncations():
    assert se.expm1_series(3) == F(0, 1, Fraction(1, 2), Fraction(1, 6))
    assert se.log1p_series(3) == F(0, 1, Fraction(-1, 2), Fraction(1, 3))


def test_exp_series():
    n = 8
    assert se.exp_series(se.log1p_series(n)) == TruncSeries.one_plus_x_pow(1, n)
    with pytest.raises(CompositionError):
        se.exp_series(TruncSeries.one(3))


def test_hadamard():
    e = sp.eval_egf(sp.E(), 6)
    assert se.hadamard(e, e) == e
    bell = TruncSeries.from_counts([nk.bell(n) for n in range(6)])
    sq = se.hadamard(bell, bell)
    assert sq.counts() == [nk.bell(n) ** 2 for n in range(6)]
    assert se.hadamard(bell, TruncSeries.zero(5)) == TruncSeries.zero(5)


def test_aprod_egf_examples():
    c = sp.eval_egf(sp.C(), 8)
    lp = sp.eval_egf(sp.Lplus(), 8)
    octo = se.aprod_egf(c, lp)
    assert octo.counts() == [
        0 if n == 0 else nk.sigma(n) * nk.factorial(n - 1) for n in range(9)
    ]
    assert octo.count(4) == 42
    assert octo.count(6) == 1440
    lists = se.aprod_egf(lp, lp)
    assert lists.counts() == [0] + [nk.tau(n) * nk.factorial(n) for n in range(1, 9)]
    assert lists.count(6) == 2880
    f = rand_series(random.Random(0), 8, zero_const=True)
    assert se.aprod_egf(TruncSeries.x(8), f) == f
    with pytest.raises(ZeroConstantRequired):
        se.aprod_egf(TruncSeries.one(4), f)


def test_aprod_ogf_examples():
    # in the ordinary role x^d boxed with x^e is x^(de)
    ones = TruncSeries.geometric(8) - TruncSeries.one(8)
    d = se.aprod_egf(ones, ones)
    assert [int(c) for c in d.coeffs] == [0, 1, 2, 2, 3, 2, 4, 2, 4]
    f = rand_series(random.Random(1), 8, zero_const=True)
    assert se.aprod_egf(TruncSeries.x(8), f) == f
    x2 = TruncSeries([0, 0, 1, 0, 0, 0, 0])
    x3 = TruncSeries([0, 0, 0, 1, 0, 0, 0])
    assert se.aprod_egf(x2, x3) == TruncSeries([0, 0, 0, 0, 0, 0, 1])


def _rect_count_sum(f, g):
    """The arithmetic product read off counts: sum over d | n of rect_coeff(n, d) f_d g_(n/d)."""
    fc, gc = f.counts(), g.counts()
    n = min(f.order, g.order)
    return TruncSeries.from_counts([0] + [
        sum(nk.rect_coeff(m, d) * fc[d] * gc[m // d] for d in nk.divisors(m))
        for m in range(1, n + 1)
    ])


def test_aprod_conventions_coincide_on_raw_coefficients():
    # the Dirichlet product of raw coefficients is the rectangle divisor sum of counts
    rng = random.Random(2)
    for _ in range(25):
        f = rand_series(rng, 10, zero_const=True)
        g = rand_series(rng, 10, zero_const=True)
        assert se.aprod_egf(f, g) == _rect_count_sum(f, g)


def _divisor_sums(f):
    """The Lambert transform sum of f_d x^d/(1 - x^d): coefficient m is the sum over d | m of f_d."""
    return TruncSeries([0] + [
        sum((f.coeffs[d] for d in nk.divisors(m)), Fraction(0)) for m in range(1, f.order + 1)
    ])


def test_lambert():
    lp = sp.eval_egf(sp.Lplus(), 10)
    assert [int(c) for c in se.aprod_egf(lp, lp).coeffs] == [0] + [nk.tau(n) for n in range(1, 11)]
    pointed = sp.eval_egf(sp.Point(sp.Lplus()), 10)
    assert [int(c) for c in se.aprod_egf(pointed, lp).coeffs] == [0] + [
        nk.sigma(n) for n in range(1, 11)
    ]
    lp6 = TruncSeries.geometric(6) - TruncSeries.one(6)
    assert se.aprod_egf(TruncSeries.x(6), lp6) == lp6


def test_lambert_is_aprod_with_nonempty_lists():
    rng = random.Random(3)
    lp = TruncSeries.geometric(20) - TruncSeries.one(20)
    for _ in range(10):
        f = rand_series(rng, 20, zero_const=True)
        assert _divisor_sums(f) == se.aprod_egf(f, lp)


def test_dirichlet_of_and_mul():
    c = sp.eval_egf(sp.C(), 8)
    assert se.dirichlet_of(c) == tuple(Fraction(1, n) for n in range(1, 9))
    lp = sp.eval_egf(sp.Lplus(), 8)
    zeta_sq = se.dirichlet_of(se.aprod_egf(lp, lp))
    assert zeta_sq[6 - 1] == 4
    assert zeta_sq == tuple(nk.tau(n) for n in range(1, 9))
    a = TruncSeries([0, 5, 7, 11])
    assert se.aprod_egf(a, TruncSeries([0, 1, 0, 0])) == a
    with pytest.raises(ZeroConstantRequired):
        se.dirichlet_of(TruncSeries.one(3))


def test_dirichlet_is_ring_homomorphism():
    rng = random.Random(4)
    for _ in range(30):
        f = rand_series(rng, 20, zero_const=True)
        g = rand_series(rng, 20, zero_const=True)
        df, dg = se.dirichlet_of(f), se.dirichlet_of(g)
        assert se.dirichlet_of(f + g) == tuple(map(add, df, dg))
        assert se.dirichlet_of(se.aprod_egf(f, g)) == tuple(
            sum((df[d - 1] * dg[m // d - 1] for d in nk.divisors(m)), Fraction(0))
            for m in range(1, 21)
        )


def test_shifted_basis():
    x = TruncSeries.x(1)
    assert se.to_shifted(x) == TruncSeries([-1, 1])
    x2 = TruncSeries([0, 0, 1])
    assert se.to_shifted(x2) == TruncSeries([1, -2, 1])
    s6 = TruncSeries([0, 0, 0, 0, 0, 0, 1])
    assert se.from_shifted(s6).coeffs[2] == 15


def test_shifted_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        f = rand_series(rng, 9)
        assert se.from_shifted(se.to_shifted(f)) == f


def test_maprod_shifted():
    two = TruncSeries([0, 0, 1])
    three = TruncSeries([0, 0, 0, 1])
    assert se.maprod_shifted(two, three) == TruncSeries([0, 0, 0, 0, 0, 0, 1])
    ident = TruncSeries([0, 1])
    s = TruncSeries([Fraction(1, 2), -3, 0, 5])
    assert se.maprod_shifted(s, ident) == s


def test_maprod_identities():
    rng = random.Random(6)
    one_plus_x = TruncSeries.one_plus_x_pow(1, 9)
    for _ in range(10):
        f = rand_series(rng, 9)
        assert se.maprod_egf(one_plus_x, f, 9) == f
        stripped = se.maprod_egf(TruncSeries.x(9), f, 9)
        assert stripped == TruncSeries((Fraction(0),) + f.coeffs[1:])


def test_maprod_of_sets_counts_partial_rectangles():
    e = sp.eval_egf(sp.E(), 6)
    got = se.maprod_egf(e, e, 6)
    assert got.count(2) == 3
    assert got.counts() == [1, 1, 3, 15, 113, 1153, 15125]


def test_maprod_routes_agree():
    rng = random.Random(7)
    for _ in range(60):
        f = rand_series(rng, 12)
        g = rand_series(rng, 12)
        assert se.maprod_egf(f, g, 12) == se.maprod_egf_via_shift(f, g, 12)


def test_maprod_coefficient_depends_only_on_prefix():
    # coefficient n of the modified product needs the inputs only up to n,
    # which is what makes truncating route 2 consistent
    rng = random.Random(12)
    for _ in range(20):
        f = rand_series(rng, 10)
        g = rand_series(rng, 10)
        full = se.maprod_egf(f, g, 10)
        for n in (0, 3, 7):
            short = se.maprod_egf(f.truncate(n), g.truncate(n), n)
            assert short.coeffs == full.coeffs[: n + 1]


def test_maprod_polynomials_exact_before_truncation():
    # degree-2 times degree-3 polynomials: the shifted route keeps the whole
    # degree-6 product, so a wide truncation shows every coefficient
    f = TruncSeries([1, 2, 3, 0, 0, 0, 0])
    g = TruncSeries([0, 1, 0, -1, 0, 0, 0])
    s = se.maprod_shifted(se.to_shifted(f), se.to_shifted(g))
    assert s.order <= 6
    assert se.from_shifted(s, 6) == se.maprod_egf(f, g, 6)


def test_maprod_with_one_plus_x_pow_is_composition():
    rng = random.Random(8)
    for n in range(5):
        f = rand_series(rng, 8)
        lhs = se.maprod_egf(f, TruncSeries.one_plus_x_pow(n, 8), 8)
        inner = TruncSeries.one_plus_x_pow(n, 8) - TruncSeries.one(8)
        assert lhs == se.compose(f, inner)


def test_aprod_algebra_laws():
    rng = random.Random(9)
    x = TruncSeries.x(12)
    for _ in range(40):
        f = rand_series(rng, 12, zero_const=True)
        g = rand_series(rng, 12, zero_const=True)
        h = rand_series(rng, 12, zero_const=True)
        assert se.aprod_egf(f, g) == se.aprod_egf(g, f)
        assert se.aprod_egf(f, se.aprod_egf(g, h)) == se.aprod_egf(se.aprod_egf(f, g), h)
        assert se.aprod_egf(f, g + h) == se.aprod_egf(f, g) + se.aprod_egf(f, h)
        assert se.aprod_egf(f, x) == f


def test_maprod_algebra_laws():
    rng = random.Random(10)
    one_plus_x = TruncSeries.one_plus_x_pow(1, 9)
    for _ in range(40):
        f = rand_series(rng, 9)
        g = rand_series(rng, 9)
        h = rand_series(rng, 9)
        assert se.maprod_egf(f, g, 9) == se.maprod_egf(g, f, 9)
        assert se.maprod_egf(f, se.maprod_egf(g, h, 9), 9) == se.maprod_egf(
            se.maprod_egf(f, g, 9), h, 9
        )
        assert se.maprod_egf(f, g + h, 9) == se.maprod_egf(f, g, 9) + se.maprod_egf(f, h, 9)
        assert se.maprod_egf(f, one_plus_x, 9) == f


def test_geom_power():
    assert se.geom_power(1, 1, 5) == TruncSeries.geometric(5)
    assert se.geom_power(2, 1, 6) == TruncSeries([1, 0, 1, 0, 1, 0, 1])
    half = se.geom_power(1, Fraction(1, 2), 3)
    assert half.coeffs[1] == Fraction(1, 2)
    with pytest.raises(DomainError):
        se.geom_power(0, 1, 3)


def test_assemblies_of_cycles_expand_as_geometric_product():
    # exp of (cycles boxed with M) equals the product over n of
    # (1 - x^n) to the power -|M[n]|/n!
    n = 12
    c = sp.eval_egf(sp.C(), n)
    for atom in (sp.Lplus(), sp.Eplus()):
        f = sp.eval_egf(atom, n)
        lhs = se.exp_series(se.aprod_egf(c, f))
        rhs = TruncSeries.one(n)
        for m in range(1, n + 1):
            rhs = rhs * se.geom_power(m, f.coeffs[m], n)
        assert lhs == rhs


def test_compose_roundtrip_random():
    rng = random.Random(11)
    for _ in range(25):
        f = rand_series(rng, 12)
        assert se.compose(se.compose(f, se.expm1_series(12)), se.log1p_series(12)) == f
