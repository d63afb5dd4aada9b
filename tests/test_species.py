import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from conftest import rand_any, rand_emptyfree
from specalc import numkit as nk
from specalc import oracle
from specalc import series as se
from specalc import species as sp
from specalc import zindex as zi
from specalc.errors import (
    DomainError,
    IncompleteData,
    PreconditionViolated,
    UnsupportedForCycleIndex,
)
from specalc.series import TruncSeries


def test_eval_counts_octopuses():
    got = sp.eval_counts(sp.AProd(sp.C(), sp.Lplus()), 8)
    assert got == [0, 1, 3, 8, 42, 144, 1440, 5760, 75600]
    assert got == [0] + [nk.sigma(n) * nk.factorial(n - 1) for n in range(1, 9)]


def test_eval_counts_atoms():
    assert sp.eval_counts(sp.E(), 4) == [1, 1, 1, 1, 1]
    assert sp.eval_counts(sp.C(), 5) == [0, 1, 1, 2, 6, 24]
    assert sp.eval_counts(sp.OnePlusXPow(3), 4) == [1, 3, 6, 6, 0]
    assert sp.eval_counts(sp.Necklace(2), 4) == [0, 2, 4, 16, 96]
    assert sp.eval_counts(sp.AperiodicNecklace(2), 4) == [
        0,
        2,
        2,
        12,
        72,
    ]  # lyndon_count(n,2) * n!


def test_nonempty_sets_from_modified_product_with_x():
    assert sp.eval_counts(sp.MAProd(sp.X(), sp.E()), 6) == [0, 1, 1, 1, 1, 1, 1]


def test_aprod_with_xpow_is_substitution():
    rng = random.Random(20)
    for _ in range(20):
        m = rand_emptyfree(rng)
        n = rng.randint(1, 3)
        lhs = sp.eval_counts(sp.AProd(m, sp.XPow(n)), 9)
        rhs = sp.eval_counts(sp.Subst(m, sp.XPow(n)), 9)
        assert lhs == rhs, (m, n)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: sp.Ek(-1), "Ek needs k >= 0, got -1"),
        (lambda: sp.XPow(-2), "Xpow needs n >= 0, got -2"),
        (lambda: sp.OnePlusXPow(-3), "OnePlusXpow needs n >= 0, got -3"),
        (lambda: sp.Necklace(-4), "necklace needs alpha >= 0, got -4"),
        (lambda: sp.AperiodicNecklace(-5), "aperiodic needs alpha >= 0, got -5"),
        (lambda: sp.Restrict(sp.E(), -6), "restrict needs n >= 0, got -6"),
    ],
)
def test_negative_integer_arguments_are_rejected_by_name(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


def test_preconditions_reported_with_path():
    with pytest.raises(PreconditionViolated) as exc:
        sp.eval_counts(sp.AProd(sp.E(), sp.Lplus()), 3)
    assert exc.value.path == (0,)
    with pytest.raises(PreconditionViolated) as exc:
        sp.eval_counts(sp.Sum(sp.X(), sp.Subst(sp.E(), sp.L())), 3)
    assert exc.value.path == (1, 1)


def test_eval_zi_examples():
    z = sp.eval_zi(sp.AProd(sp.Eplus(), sp.Eplus()), 4)
    assert z.fix_value((4,)) == 8 == len(oracle.rectangles(4))
    assert sp.eval_zi(sp.X(), 3) == zi.zi_atom("X", 3)
    f, g = sp.Necklace(2), sp.Splus()
    assert sp.eval_zi(sp.Sum(f, g), 4) == zi.zi_add(sp.eval_zi(f, 4), sp.eval_zi(g, 4))


def test_eval_zi_unsupported_nodes():
    with pytest.raises(UnsupportedForCycleIndex) as exc:
        sp.eval_zi(sp.Sum(sp.X(), sp.MAProd(sp.E(), sp.E())), 3)
    assert exc.value.path == (1,)
    with pytest.raises(UnsupportedForCycleIndex):
        sp.eval_ogf(sp.HCT(sp.E()), 3)


def test_eval_ogf():
    assert [int(c) for c in sp.eval_ogf(sp.AProd(sp.Lplus(), sp.Lplus()), 8).coeffs] == [
        0
    ] + [nk.tau(n) for n in range(1, 9)]
    assert sp.type_counts(sp.E(), 6) == [1] * 7
    got = sp.eval_ogf(sp.AProd(sp.Eplus(), sp.Eplus()), 6)
    assert int(got.coeffs[4]) == oracle.orbit_type_count(sp.AProd(sp.Eplus(), sp.Eplus()), 4)


def test_zi_egf_diagram_on_random_expressions():
    rng = random.Random(21)
    for _ in range(15):
        expr = rand_emptyfree(rng)
        assert zi.zi_to_egf(sp.eval_zi(expr, 6), 6) == sp.eval_egf(expr, 6), expr


def test_hct_recursion_values():
    got = sp.hct_counts(sp.E(), 10)
    # first nine published values; the published n = 10 entry, 10080, is an
    # erratum: the recursion over those nine values yields 23715, which a
    # brute-force enumeration on 10 labels confirms (acceptance criterion 01)
    assert got[1:10] == [1, 1, 2, 3, 10, 11, 192, 193, 3554]
    assert got[10] == sum(
        nk.rect_coeff(9, d) * got[9 // d] for d in nk.divisors(9)
    ) == 23715
    # spot check of the n = 4 step: divisors of 3 contribute 1*1*2 + 1*1*1
    assert got[4] == 1 * 1 * got[3] + 1 * 1 * got[1] == 3


def test_hct_achiral_trees_match_oracle():
    got = sp.hct_counts(sp.L(), 6)
    for n in range(7):
        assert len(oracle.enumerate_structures(sp.HCT(sp.L()), range(1, n + 1))) == got[n]


def test_hct_eval_counts_agrees():
    assert sp.eval_counts(sp.HCT(sp.E()), 8) == sp.hct_counts(sp.E(), 8)


def test_is_multiplicative():
    c_counts = sp.eval_counts(sp.C(), 30)
    assert sp.is_multiplicative(c_counts) == (True, None)
    # spot the 6 = 2*3 reduction: 120 = 720/(2*6) * 1 * 2
    assert c_counts[6] == nk.rect_coeff(6, 2) * c_counts[2] * c_counts[3]
    assert sp.is_multiplicative(sp.eval_counts(sp.Lplus(), 30)) == (True, None)
    ok, witness = sp.is_multiplicative(sp.eval_counts(sp.Eplus(), 30))
    assert not ok and witness == (2, 3)


def test_euler_reconstruct():
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    ppc = {
        (p, a): nk.factorial(p ** a - 1)
        for p in primes
        for a in range(1, 6)
        if p ** a <= 30
    }
    got = sp.euler_reconstruct(ppc, 30)
    assert got == sp.eval_counts(sp.C(), 30)
    assert got[6] == nk.factorial(6) // (2 * 6) * 1 * 2 == 120
    ppl = {
        (p, a): nk.factorial(p ** a)
        for p in primes
        for a in range(1, 6)
        if p ** a <= 30
    }
    lp = sp.euler_reconstruct(ppl, 30)
    assert lp == sp.eval_counts(sp.Lplus(), 30)
    assert lp[12] == nk.factorial(12)
    assert lp[8] == ppl[(2, 3)]  # prime powers pass through unchanged
    with pytest.raises(IncompleteData):
        sp.euler_reconstruct({(2, 1): 1}, 6)


def test_mnr_formula():
    assert sp.mnr_formula(2, 2, 2) == 2
    assert sp.mnr_formula(2, 2, 3) == 4
    for m in range(1, 5):
        for n in range(1, 5):
            for r in range(max(m, n)):
                assert sp.mnr_formula(m, n, r) == 0


def test_mnr_matches_brute_force():
    for m in range(5):
        for n in range(5):
            for r in range(m * n + 1):
                assert sp.mnr_formula(m, n, r) == oracle.matrices_01(m, n, r), (m, n, r)


def test_partial_rect_mnr():
    assert sp.partial_rect_mnr(2, 2, 2) == 1
    assert sp.partial_rect_mnr(1, 1, 1) == 1
    want = sum(
        1
        for rect in oracle.partial_rectangles(4)
        if len(rect.pi) == 2 and len(rect.tau) == 3
    )
    assert sp.partial_rect_mnr(2, 3, 4) == want


def test_partial_rect_mnr_matches_oracle():
    for r in range(6):
        shapes = {}
        for rect in oracle.partial_rectangles(r):
            key = (len(rect.pi), len(rect.tau))
            shapes[key] = shapes.get(key, 0) + 1
        for m in range(5):
            for n in range(5):
                assert sp.partial_rect_mnr(m, n, r) == shapes.get((m, n), 0), (m, n, r)


def test_pr_k_exact():
    assert sp.pr_k_exact(1, 8) == [1] * 9
    assert sp.pr_k_exact(2, 6) == [1, 1, 3, 15, 113, 1153, 15125]
    for k in (2, 3):
        ex = sp.pr_k_exact(k, 4)
        for n in range(5):
            assert len(oracle.k_partial_rectangles(n, k)) == ex[n], (k, n)


def test_pr_k_matches_iterated_modified_product():
    e = sp.eval_egf(sp.E(), 8)
    two = se.maprod_egf(e, e, 8)
    three = se.maprod_egf(two, e, 8)
    assert [int(c) for c in two.counts()] == sp.pr_k_exact(2, 8)
    assert [int(c) for c in three.counts()] == sp.pr_k_exact(3, 8)


def test_bell_power_identity():
    for k in (2, 3):
        series = TruncSeries.from_counts(sp.pr_k_exact(k, 10))
        lhs = se.compose(series, se.expm1_series(10))
        assert lhs.counts() == [nk.bell(n) ** k for n in range(11)]


def test_pittel_numeric():
    v, b = sp.pittel_numeric(2, 2, 1e-6)
    assert abs(v - 3) <= 1e-6 and b <= 1e-6
    for n in range(5):
        v, b = sp.pittel_numeric(1, n, 1e-6)
        assert abs(v - 1) <= 1e-6
    v, b = sp.pittel_numeric(2, 4, 1e-6)
    assert abs(v - len(oracle.k_partial_rectangles(4, 2))) <= 1e-6
    for tol in (0, -1e-6, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError):
            sp.pittel_numeric(2, 2, tol)


def test_cyclotomic_check():
    for alpha in (1, 2, 3, 4):
        assert sp.cyclotomic_check(alpha, 12)


def test_cyclotomic_product_coefficient():
    # alpha = 2 at x^2: the factors (1/(1-x))^2 (1/(1-x^2)) give 3 + 1 = 4
    prod_form = se.geom_power(1, 2, 2) * se.geom_power(2, 1, 2)
    assert prod_form.coeffs[2] == 4 == 2 ** 2


def test_prop_identities_randomized():
    rng = random.Random(22)
    x = sp.X()
    for _ in range(30):
        m = rand_emptyfree(rng)
        n = rand_emptyfree(rng)
        r = rand_emptyfree(rng)
        cm = sp.eval_counts(sp.AProd(m, n), 10)
        assert cm == sp.eval_counts(sp.AProd(n, m), 10)
        assert sp.eval_counts(sp.AProd(m, sp.AProd(n, r)), 10) == sp.eval_counts(
            sp.AProd(sp.AProd(m, n), r), 10
        )
        assert sp.eval_counts(sp.AProd(m, sp.Sum(n, r)), 10) == [
            a + b
            for a, b in zip(
                sp.eval_counts(sp.AProd(m, n), 10), sp.eval_counts(sp.AProd(m, r), 10)
            )
        ]
        assert sp.eval_counts(sp.AProd(m, x), 10) == sp.eval_counts(m, 10)
        assert sp.eval_counts(sp.Point(sp.AProd(m, n)), 10) == sp.eval_counts(
            sp.AProd(sp.Point(m), sp.Point(n)), 10
        )


def test_assemblies_of_equal_lists_randomized():
    rng = random.Random(23)
    order = 9
    for _ in range(10):
        m = rand_emptyfree(rng)
        lhs = sp.eval_counts(sp.AProd(m, sp.Lplus()), order)
        total = [0] * (order + 1)
        for n in range(1, order + 1):
            for i, c in enumerate(sp.eval_counts(sp.Subst(m, sp.XPow(n)), order)):
                total[i] += c
        assert lhs == total, m


def test_prop1_identities_randomized():
    rng = random.Random(24)
    for _ in range(30):
        m = rand_any(rng)
        n = rand_any(rng)
        r = rand_any(rng)
        assert sp.eval_counts(sp.MAProd(m, n), 10) == sp.eval_counts(sp.MAProd(n, m), 10)
        assert sp.eval_counts(sp.MAProd(m, sp.MAProd(n, r)), 10) == sp.eval_counts(
            sp.MAProd(sp.MAProd(m, n), r), 10
        )
        assert sp.eval_counts(sp.MAProd(m, sp.Sum(n, r)), 10) == [
            a + b
            for a, b in zip(
                sp.eval_counts(sp.MAProd(m, n), 10),
                sp.eval_counts(sp.MAProd(m, r), 10),
            )
        ]
        cm = sp.eval_counts(m, 10)
        assert sp.eval_counts(sp.MAProd(sp.X(), m), 10) == [0] + cm[1:]
        assert sp.eval_counts(sp.MAProd(m, sp.Sum(sp.One(), sp.X())), 10) == cm


def test_modified_product_with_injections_randomized():
    rng = random.Random(25)
    for _ in range(12):
        m = rand_any(rng, depth=1)
        n = rng.randint(1, 3)
        lhs = sp.eval_counts(sp.MAProd(m, sp.OnePlusXPow(n)), 8)
        rhs = sp.eval_counts(sp.Subst(m, sp.NonEmpty(sp.OnePlusXPow(n))), 8)
        assert lhs == rhs, (m, n)


def test_injection_grids_multiply():
    for m in range(4):
        for n in range(4):
            lhs = sp.eval_counts(sp.MAProd(sp.OnePlusXPow(m), sp.OnePlusXPow(n)), 8)
            assert lhs == sp.eval_counts(sp.OnePlusXPow(m * n), 8), (m, n)


def test_canf_egf_identity():
    order = 10
    em1 = se.expm1_series(order)
    for a, b in product((sp.E(), sp.L(), sp.C(), sp.S()), repeat=2):
        lhs = se.compose(sp.eval_egf(sp.MAProd(a, b), order), em1)
        rhs = se.hadamard(
            se.compose(sp.eval_egf(a, order), em1),
            se.compose(sp.eval_egf(b, order), em1),
        )
        assert lhs == rhs, (a, b)


# -- the closing example block: closed counts vs certified numeric sums ------------

def _geom_term(p):
    return lambda i: Fraction(i ** p, 2 ** i)


def _geom_ratio(p):
    return lambda i: Fraction((i + 1) ** p, i ** p * 2)


def _enclose_sum(axes, p, falling_of, pref_lo, pref_hi, tol_abs, start=0):
    """Certified enclosure of pref * sum over the axes of falling_of(prod i) * weights.

    axes entries are 'geom' (weight 1/2^i) or 'invfact' (weight 1/i!);
    falling_of(m) must be a nonnegative integer bounded by m^p.
    """
    box = 2 * p + 8
    while True:
        tails, fulls = [], []
        for kind in axes:
            term = _geom_term(p) if kind == "geom" else sp._invfact_term(p)
            ratio = _geom_ratio(p) if kind == "geom" else sp._invfact_ratio(p)
            tails.append(sp._tail_upper(term, ratio, box + 1))
            fulls.append(sp._moment_upper(term, ratio, box))
        tail = sum(
            tails[j] * prod(fulls[:j] + fulls[j + 1 :], start=Fraction(1))
            for j in range(len(axes))
        )
        pow2, fact = 2 ** box, nk.factorial(box)
        weights = [
            [(pow2 >> i) if kind == "geom" else fact // nk.factorial(i) for i in range(box + 1)]
            for kind in axes
        ]
        denom = prod((pow2 if kind == "geom" else fact) for kind in axes)
        total = 0
        for tup in product(range(start, box + 1), repeat=len(axes)):
            f = falling_of(prod(tup))
            if f:
                w = f
                for j, i in enumerate(tup):
                    w *= weights[j][i]
                total += w
        s = Fraction(total, denom)
        lo, hi = pref_lo * s, pref_hi * (s + tail)
        if hi - lo <= tol_abs:
            return lo, hi
        box *= 2


def test_final_example_block_sums():
    order = 8
    einv_lo, einv_hi = sp._einv_enclosure()
    rel = Fraction(1, 10 ** 6)

    ll = sp.eval_counts(sp.MAProd(sp.L(), sp.L()), order)
    le = sp.eval_counts(sp.MAProd(sp.L(), sp.E()), order)
    l3 = sp.eval_counts(sp.MAProd(sp.L(), sp.MAProd(sp.L(), sp.L())), order)
    c2 = sp.eval_counts(sp.MAProd(sp.C(), sp.C()), order)
    c3 = sp.eval_counts(sp.MAProd(sp.C(), sp.MAProd(sp.C(), sp.C())), order)
    assert ll[:5] == [1, 1, 8, 144, 4704]
    assert le[:5] == [1, 1, 5, 49, 795]

    for n in range(order + 1):
        lo, hi = _enclose_sum(
            ["geom", "geom"], n, lambda m: nk.falling(m, n),
            Fraction(1, 4), Fraction(1, 4), rel * max(1, ll[n]),
        )
        assert lo <= ll[n] <= hi, ("LL", n)
        lo, hi = _enclose_sum(
            ["geom", "invfact"], n, lambda m: nk.falling(m, n),
            einv_lo / 2, einv_hi / 2, rel * max(1, le[n]),
        )
        assert lo <= le[n] <= hi, ("LE", n)
        lo, hi = _enclose_sum(
            ["geom"] * 3, n, lambda m: nk.falling(m, n),
            Fraction(1, 8), Fraction(1, 8), rel * max(1, l3[n]),
        )
        assert lo <= l3[n] <= hi, ("LLL", n)

    for n in range(1, order + 1):
        for k, ck in ((2, c2), (3, c3)):
            lo, hi = _enclose_sum(
                ["geom"] * k, n - 1,
                lambda m: nk.falling(m - 1, n - 1) if m >= 1 else 0,
                Fraction(1), Fraction(1), rel * max(1, ck[n]), start=1,
            )
            assert lo <= ck[n] <= hi, ("C", k, n)


# sugar atoms and the core forms they stand for, written out by hand
SUGAR = [
    (sp.Eplus(), sp.NonEmpty(sp.E())),
    (sp.Lplus(), sp.NonEmpty(sp.L())),
    (sp.Splus(), sp.NonEmpty(sp.S())),
    (sp.Ek(0), sp.Restrict(sp.E(), 0)),
    (sp.Ek(2), sp.Restrict(sp.E(), 2)),
    (sp.XPow(0), sp.Restrict(sp.L(), 0)),
    (sp.XPow(3), sp.Restrict(sp.L(), 3)),
]


def test_sugar_atoms_evaluate_as_their_core_forms():
    assert sp.eval_counts(sp.Eplus(), 4) == [0, 1, 1, 1, 1]
    assert sp.eval_counts(sp.Ek(2), 4) == [0, 0, 1, 0, 0]
    assert sp.eval_counts(sp.XPow(3), 4) == [0, 0, 0, 6, 0]
    labels = (1, 2, 3, 4)
    sigma = {1: 2, 2: 3, 3: 1, 4: 4}
    for sugar, core in SUGAR:
        assert sp.core(sugar) == core
        assert sp.eval_counts(sugar, 8) == sp.eval_counts(core, 8), sugar
        assert sp.eval_zi(sugar, 6).fix == sp.eval_zi(core, 6).fix, sugar
        for n in range(5):
            got = oracle.enumerate_structures(sugar, labels[:n])
            assert got == oracle.enumerate_structures(core, labels[:n]), (sugar, n)
        for s in oracle.enumerate_structures(sugar, labels):
            assert oracle.transport(sugar, s, sigma) == oracle.transport(core, s, sigma)
    for expr in (sp.E(), sp.NonEmpty(sp.E()), sp.OnePlusXPow(2), sp.Sum(sp.Eplus(), sp.X())):
        assert sp.core(expr) is expr


def _children_by_hand(expr):
    if isinstance(expr, (sp.Derivative, sp.Point, sp.NonEmpty, sp.Restrict)):
        return (expr.f,)
    if isinstance(expr, (sp.Sum, sp.Prod, sp.Cartesian, sp.Subst, sp.AProd, sp.MAProd)):
        return (expr.f, expr.g)
    if isinstance(expr, sp.HCT):
        return (expr.r,)
    return ()


def test_children_are_the_expression_fields():
    rng = random.Random(12)
    seen = set()
    stack = [rand_any(rng, 3) for _ in range(200)] + [rand_emptyfree(rng, 3) for _ in range(200)]
    stack += [sp.HCT(sp.E()), sp.Subst(sp.E(), sp.Eplus()), sp.Cartesian(sp.C(), sp.S())]
    while stack:
        expr = stack.pop()
        assert sp.children(expr) == _children_by_hand(expr), expr
        seen.add(type(expr))
        stack.extend(sp.children(expr))
    assert len(seen) == 25


# One sample argument tuple per node class, built as in the grammar test:
# 2 for an integer argument, Lp for an expression.
_LP = sp.Lplus()
_SAMPLE_ARGS = {
    **{cls: () for cls in (sp.One, sp.X, sp.E, sp.Eplus, sp.L, sp.Lplus, sp.C, sp.S, sp.Splus)},
    **{cls: (2,) for cls in (sp.Ek, sp.XPow, sp.OnePlusXPow, sp.Necklace, sp.AperiodicNecklace)},
    **{cls: (_LP,) for cls in (sp.Derivative, sp.Point, sp.NonEmpty, sp.HCT)},
    sp.Restrict: (_LP, 2),
    **{cls: (_LP, _LP) for cls in (sp.Sum, sp.Prod, sp.Cartesian, sp.Subst, sp.AProd, sp.MAProd)},
}


def test_nodes_are_immutable_values():
    assert set(_SAMPLE_ARGS) == set(sp.SpeciesExpr.__subclasses__())
    for cls, args in _SAMPLE_ARGS.items():
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and hash(a) == hash(b), cls
        with pytest.raises(AttributeError):
            a.f = sp.X()
        with pytest.raises(AttributeError):
            del a.f
        with pytest.raises(TypeError):
            cls(*args, sp.X())
        if args:
            with pytest.raises(TypeError):
                cls()
    assert repr(sp.Sum(sp.X(), sp.E())) == "Sum(f=X(), g=E())"
    assert repr(sp.Ek(2)) == "Ek(k=2)"


def test_nodes_of_different_classes_never_compare_equal():
    x, e = sp.X(), sp.E()
    binary = [cls(x, e) for cls in (sp.Sum, sp.Prod, sp.Cartesian, sp.Subst, sp.AProd, sp.MAProd)]
    for i, a in enumerate(binary):
        for b in binary[i + 1:]:
            assert a != b, (a, b)
    assert x != e
    assert sp.Ek(2) != sp.XPow(2)
    # the count cache is keyed on nodes: equal hashes must not share an entry
    assert sp.eval_counts(sp.Sum(x, e), 4) == [1, 2, 1, 1, 1]
    assert sp.eval_counts(sp.Prod(x, e), 4) == [0, 1, 2, 3, 4]
