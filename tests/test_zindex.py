import itertools
import random
import re
import time
from fractions import Fraction

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ANY_POOL, labelled_counts, rand_emptyfree
from specalc import numkit as nk
from specalc import oracle
from specalc import series as se
from specalc import species as sp
from specalc import zindex as zi
from specalc.errors import CompositionError, DomainError, ScaleLimit, UnknownAtom, ZeroConstantRequired
from specalc.errors import PreconditionViolated
from specalc.zindex import CycleIndex


def test_atom_x():
    z = zi.zi_atom("X", 4)
    assert z.fix == {(1,): 1}


def test_atom_sets():
    z = sp.eval_zi(sp.Eplus(), 4)
    for w in range(1, 5):
        for lam in nk.int_partitions(w):
            assert z.fix_value(lam) == 1
    assert z.fix_value(()) == 0
    assert zi.zi_atom("E", 4).fix_value(()) == 1


def test_atom_permutations():
    z = sp.eval_zi(sp.Splus(), 5)
    for w in range(1, 6):
        for lam in nk.int_partitions(w):
            assert z.fix_value(lam) == nk.aut(lam)


def test_atoms_match_oracle_fix():
    # the parametric atoms to weight 6; at alpha = 3 the necklaces take seconds
    # there, and _every_node_on checks them to weight 4
    atoms = {
        "1": (sp.One(), 4),
        "X": (sp.X(), 4),
        "E": (sp.E(), 4),
        "Ep": (sp.Eplus(), 4),
        "L": (sp.L(), 4),
        "Lp": (sp.Lplus(), 4),
        "C": (sp.C(), 4),
        "S": (sp.S(), 4),
        "Sp": (sp.Splus(), 4),
        "OnePlusXpow(2)": (sp.OnePlusXPow(2), 6),
        "OnePlusXpow(6)": (sp.OnePlusXPow(6), 6),
        "necklace(2)": (sp.Necklace(2), 6),
        "aperiodic(2)": (sp.AperiodicNecklace(2), 6),
    }
    for name, (expr, bound) in atoms.items():
        core = name in ("1", "X", "E", "L", "C", "S")
        z = zi.zi_atom(name, bound) if core else sp.eval_zi(expr, bound)
        for w in range(bound + 1):
            for lam in nk.int_partitions(w):
                assert z.fix_value(lam) == oracle.fix_by_type(expr, lam), (name, lam)


def test_atom_ek():
    z = sp.eval_zi(sp.Ek(2), 5)
    assert z.fix_value((2,)) == 1
    assert z.fix_value((0, 1)) == 1
    assert z.fix_value((1,)) == 0
    with pytest.raises(DomainError):
        sp.eval_zi(sp.Ek(-1), 5)
    with pytest.raises(UnknownAtom):
        zi.zi_atom("Par", 5)
    with pytest.raises(UnknownAtom):
        zi.zi_atom("Par", -1)


def test_zi_add_and_zero():
    p = zi.zi_atom("C", 5)
    assert zi.zi_add(p, CycleIndex(5)) == p


def test_cycle_indices_compare_hash_and_print_as_values():
    # a foreign operand is left to its own __eq__, so the comparison is False, not an error
    assert CycleIndex(2).__eq__(0) is NotImplemented and (CycleIndex(2) == 0) is False
    a, b = zi.zi_atom("E", 3), zi.zi_atom("E", 3)
    assert a == b and a is not b and hash(a) == hash(b)
    assert repr(zi.zi_atom("X", 3)) == "CycleIndex(bound=3, terms=1)"


def test_zi_mul():
    zx = zi.zi_atom("X", 4)
    sq = zi.zi_mul(zx, zx)
    assert sq.fix == {(2,): 2}
    ze = zi.zi_atom("E", 6)
    subsets = zi.zi_mul(ze, ze)
    assert labelled_counts(subsets, 6) == [2 ** n for n in range(7)]


def test_zi_mul_matches_oracle():
    expr = sp.Prod(sp.Eplus(), sp.C())
    z = zi.zi_mul(sp.eval_zi(sp.Eplus(), 4), zi.zi_atom("C", 4))
    for w in range(5):
        for lam in nk.int_partitions(w):
            assert z.fix_value(lam) == oracle.fix_by_type(expr, lam), lam


def test_plethysm_partitions():
    par = zi.zi_plethysm(zi.zi_atom("E", 6), sp.eval_zi(sp.Eplus(), 6))
    assert labelled_counts(par, 6) == [nk.bell(n) for n in range(7)]
    expr = sp.Subst(sp.E(), sp.Eplus())
    for w in range(5):
        for lam in nk.int_partitions(w):
            assert par.fix_value(lam) == oracle.fix_by_type(expr, lam), lam


def test_plethysm_identities():
    p = zi.zi_atom("C", 6)
    zx = zi.zi_atom("X", 6)
    assert zi.zi_plethysm(p, zx) == p
    assert zi.zi_plethysm(zx, p) == p
    with pytest.raises(CompositionError):
        zi.zi_plethysm(p, zi.zi_atom("E", 6))


def test_ogf_plethysm_is_the_specialised_plethysm():
    b = 7
    inner = [zi.zi_atom(a, b) for a in ("X", "C")] + [sp.eval_zi(sp.Lplus(), b)]
    # an integer index that is no species' index: x1^2/2 has type count 1/2 at 2
    halves = CycleIndex(b, {(2,): 1})
    for p in [zi.zi_atom(a, b) for a in ("1", "X", "E", "L", "C", "S")] + [halves]:
        for q in inner:
            want = zi.zi_to_ogf(zi.zi_plethysm(p, q), b).coeffs
            g = [int(c) for c in zi.zi_to_ogf(q, b).coeffs]
            bad = [(n, c) for n, c in enumerate(want) if c.denominator != 1]
            if not bad:
                assert zi.ogf_plethysm(p, g) == tuple(want)
                continue
            n, c = bad[0]
            with pytest.raises(DomainError, match=f"type count at {n} is {c}, not"):
                zi.ogf_plethysm(p, g)
    with pytest.raises(CompositionError):
        zi.ogf_plethysm(zi.zi_atom("C", b), [1] * (b + 1))
    # g needs a term at every weight up to the bound, and is read only that far
    for g in ([0, 1], []):
        with pytest.raises(DomainError, match="inner type series has"):
            zi.ogf_plethysm(zi.zi_atom("E", 4), g)
    assert zi.ogf_plethysm(zi.zi_atom("E", 4), [0] + [1] * 7) == (1, 1, 2, 3, 5)


def test_kernels_truncate_operands_to_the_smaller_bound():
    exprs = (sp.Eplus(), sp.C(), sp.Lplus())
    for kernel in (zi.zi_add, zi.zi_hadamard, zi.zi_mul, zi.zi_plethysm, zi.zi_aprod):
        for f, g in itertools.product(exprs, repeat=2):
            want = kernel(sp.eval_zi(f, 4), sp.eval_zi(g, 4))
            for a, b in ((6, 4), (4, 6)):
                got = kernel(sp.eval_zi(f, a), sp.eval_zi(g, b))
                assert got.bound == 4 and got == want, (kernel.__name__, f, g, a, b)


def test_zi_hadamard():
    ze = zi.zi_atom("E", 5)
    p = zi.zi_atom("C", 5)
    assert zi.zi_hadamard(ze, p) == p
    sq = zi.zi_hadamard(sp.eval_zi(sp.Splus(), 5), sp.eval_zi(sp.Splus(), 5))
    assert sq.fix_value((2,)) == 4
    assert zi.zi_hadamard(p, CycleIndex(5)) == CycleIndex(5)


def test_box_type():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            assert zi.box_type((m,), (n,)) == (m * n,)
    assert zi.box_type((0, 1), (0, 1)) == (0, 2)       # (2) box (2) = (2,2)
    assert zi.box_type((0, 1), (0, 0, 1)) == (0, 0, 0, 0, 0, 1)  # (2) box (3) = (6)
    assert zi.box_type((), (0, 1)) == ()


def test_box_type_weight_multiplies():
    for wb in range(1, 5):
        for wg in range(1, 5):
            for beta in nk.int_partitions(wb):
                for gamma in nk.int_partitions(wg):
                    assert nk.weight(zi.box_type(beta, gamma)) == wb * wg


def test_zi_aprod_rectangles():
    zr = zi.zi_aprod(sp.eval_zi(sp.Eplus(), 5), sp.eval_zi(sp.Eplus(), 5))
    assert zr.fix_value((4,)) == 8
    zx = zi.zi_atom("X", 5)
    p = zi.zi_atom("C", 5)
    assert zi.zi_aprod(zx, p) == p
    with pytest.raises(ZeroConstantRequired):
        zi.zi_aprod(zi.zi_atom("E", 5), p)


def test_zi_aprod_single_coefficient():
    # {(2,2); (2), (2)} = aut(2,2)/(aut(2) aut(2)) = 8/4 = 2
    two = CycleIndex(4, {(0, 1): nk.aut((0, 1))})  # fix = aut makes the monomial coeff 1
    prod = zi.zi_aprod(two, two)
    assert prod.coeff((0, 2)) == 1
    assert prod.fix_value((0, 2)) == 8
    single = CycleIndex(4, {(0, 1): 1})
    assert zi.zi_aprod(single, single).fix_value((0, 2)) == 2


def test_zi_aprod_matches_oracle_fix():
    atoms = {"Ep": sp.Eplus(), "C": sp.C(), "Lp": sp.Lplus(), "Sp": sp.Splus()}
    for (na, ea), (nb, eb) in itertools.product(atoms.items(), repeat=2):
        z = zi.zi_aprod(sp.eval_zi(ea, 5), sp.eval_zi(eb, 5))
        expr = sp.AProd(ea, eb)
        for w in range(6):
            for lam in nk.int_partitions(w):
                assert z.fix_value(lam) == oracle.fix_by_type(expr, lam), (na, nb, lam)


def test_zi_point():
    zx = zi.zi_atom("X", 3)
    assert zi.zi_point(zx) == zx
    assert zi.zi_point(zi.zi_atom("E", 3)).fix_value((2,)) == 2
    assert zi.zi_point(CycleIndex(3)) == CycleIndex(3)


def test_specializations():
    assert se.TruncSeries.from_counts(labelled_counts(zi.zi_atom("C", 8), 8)) == se.TruncSeries(
        [0] + [Fraction(1, n) for n in range(1, 9)]
    )
    assert zi.zi_to_ogf(zi.zi_atom("E", 8), 8) == se.TruncSeries.geometric(8)
    dd = zi.zi_to_ogf(zi.zi_aprod(sp.eval_zi(sp.Lplus(), 8), sp.eval_zi(sp.Lplus(), 8)), 8)
    assert [int(c) for c in dd.coeffs] == [0] + [nk.tau(n) for n in range(1, 9)]
    with pytest.raises(DomainError, match=r"key \(4,\) exceeds weight bound 3"):
        labelled_counts(zi.zi_atom("E", 3), 5)


def test_specializations_commute_with_aprod():
    atoms = (sp.Eplus(), sp.C(), sp.Lplus(), sp.Splus())
    for ea, eb in itertools.product(atoms, repeat=2):
        pa, pb = sp.eval_zi(ea, 10), sp.eval_zi(eb, 10)
        prod = zi.zi_aprod(pa, pb)
        egf = [se.TruncSeries.from_counts(labelled_counts(z, 10)) for z in (prod, pa, pb)]
        assert egf[0] == se.aprod_egf(egf[1], egf[2])
        assert zi.zi_to_ogf(prod, 10) == se.aprod_egf(zi.zi_to_ogf(pa, 10), zi.zi_to_ogf(pb, 10))


def _random_sparse(rng, bound):
    fix = {}
    for _ in range(rng.randint(1, 5)):
        w = rng.randint(1, bound)
        lam = rng.choice(nk.int_partitions(w))
        fix[lam] = rng.randint(1, 20)
    return CycleIndex(bound, fix)


def test_zi_aprod_commutative_associative():
    rng = random.Random(12)
    for _ in range(25):
        p, q, r = (_random_sparse(rng, 8) for _ in range(3))
        pq = zi.zi_aprod(p, q)
        assert pq == zi.zi_aprod(q, p)
        assert zi.zi_aprod(p, zi.zi_aprod(q, r)) == zi.zi_aprod(pq, r)
        assert all(type(v) is int for v in pq.fix.values())


def test_tuple_decomposition_coefficients():
    # grouping the decompositions of a fixed permutation by the cycle types
    # of the two sides reproduces aut(alpha)/(aut(beta) aut(gamma))
    for w in range(1, 6):
        for alpha in nk.int_partitions(w):
            sigma = oracle.perm_of_type(alpha)
            total = 0
            for wb in range(1, w + 1):
                if w % wb:
                    continue
                wg = w // wb
                for beta in nk.int_partitions(wb):
                    for gamma in nk.int_partitions(wg):
                        if zi.box_type(beta, gamma) == alpha:
                            total += Fraction(
                                nk.aut(alpha), nk.aut(beta) * nk.aut(gamma)
                            )
            assert total == len(oracle.tuple_decompositions(sigma)), alpha


def test_rows_order_and_label():
    z = zi.zi_atom("E", 3)
    labels = [zi.partition_label(lam) for lam, _, _ in z.rows()]
    assert labels == ["()", "1^1", "2^1", "1^2", "3^1", "1^1 2^1", "1^3"]
    assert zi.partition_label((2, 1)) == "1^2 2^1"


def test_canf_cycle_index_corollary():
    # plethysm by nonempty sets turns the oracle-derived index of the
    # modified square of E into the Hadamard square of the partition index
    bound = 5
    expr = sp.MAProd(sp.E(), sp.E())
    fix = {}
    for w in range(bound + 1):
        for lam in nk.int_partitions(w):
            v = oracle.fix_by_type(expr, lam)
            if v:
                fix[lam] = v
    z_ee = CycleIndex(bound, fix)
    zep = sp.eval_zi(sp.Eplus(), bound)
    lhs = zi.zi_plethysm(z_ee, zep)
    par = zi.zi_plethysm(zi.zi_atom("E", bound), zep)
    assert lhs == zi.zi_hadamard(par, par)


def test_plethysm_full_index_matches_oracle():
    # every fix-value, not only the 1^n ones, so partitions with larger
    # parts exercise the prefix-shared power-sum products; draws with more
    # than 1000 structures on 4 labels are skipped to keep the oracle's
    # enumeration small
    rng = random.Random(33)
    checked = larger_parts = 0
    while checked < 16:
        expr = sp.Subst(rng.choice(ANY_POOL), rand_emptyfree(rng))
        if sp.eval_counts(expr, 4)[4] > 1000:
            continue
        checked += 1
        z = sp.eval_zi(expr, 4)
        for w in range(5):
            for lam in nk.int_partitions(w):
                assert z.fix_value(lam) == oracle.fix_by_type(expr, lam), (expr, lam)
                larger_parts += len(lam) > 1 and z.fix_value(lam) > 0
    assert larger_parts > 20


def test_type_counts_of_partitions_past_the_cli_cap():
    # the integer route substitutes Ep's type series into E's index; the
    # whole cycle index of comp(E, Ep) takes seconds at this order
    start = time.perf_counter()
    got = sp.type_counts(sp.Subst(sp.E(), sp.Eplus()), 20)
    assert time.perf_counter() - start < 2.0
    assert got == [len(nk.int_partitions(n)) for n in range(21)]


def test_kernels_pair_only_terms_within_the_bound(monkeypatch):
    bound = 10
    pairs, calls = [], []
    add_mult, pair_walk, box = zi._add_mult, zi._pair_walk, zi.box_type

    def counted_walk(a, b, bnd, *rule):
        calls.append(bnd)
        return pair_walk(a, b, bnd, *rule)

    def checked_add_mult(a, b):
        pairs.append(nk.weight(a) + nk.weight(b))
        return add_mult(a, b)

    def checked_box(beta, gamma):
        pairs.append(nk.weight(beta) * nk.weight(gamma))
        return box(beta, gamma)

    monkeypatch.setattr(zi, "_pair_walk", counted_walk)
    monkeypatch.setattr(zi, "_add_mult", checked_add_mult)
    monkeypatch.setattr(zi, "box_type", checked_box)
    par = zi.zi_plethysm(zi.zi_atom("E", bound), sp.eval_zi(sp.Eplus(), bound))
    # at most one product per nonempty partition of weight <= 10
    assert sum(len(nk.int_partitions(w)) for w in range(1, bound + 1)) == 138
    assert len(calls) <= 138
    assert set(calls) == {bound}
    zi.zi_mul(par, zi.zi_atom("C", bound))
    zi.zi_aprod(sp.eval_zi(sp.Splus(), bound), sp.eval_zi(sp.Eplus(), bound))
    assert pairs and max(pairs) <= bound


def test_kernels_weigh_each_operand_term_once(monkeypatch):
    weigh, weighed = nk.weight, []

    def counted(lam):
        weighed.append(lam)
        return weigh(lam)

    s, c = sp.eval_zi(sp.S(), 8), sp.eval_zi(sp.C(), 8)
    splus, eplus = sp.eval_zi(sp.Splus(), 8), sp.eval_zi(sp.Eplus(), 8)
    monkeypatch.setattr(nk, "weight", counted)
    for kernel, operands in ((zi.zi_mul, (s, c)), (zi.zi_aprod, (splus, eplus)),
                             (lambda p: zi.type_series(p, 8), (s,))):
        weighed.clear()
        kernel(*operands)
        assert sorted(weighed) == sorted(lam for p in operands for lam in p.fix)


def _every_node_on(operands):
    """One node per class but maprod and hct, over the operands and small integers."""
    yield from (cls() for cls in (sp.One, sp.X, sp.E, sp.Eplus, sp.L, sp.Lplus, sp.C, sp.S, sp.Splus))
    for cls in (sp.Ek, sp.XPow, sp.OnePlusXPow, sp.Necklace, sp.AperiodicNecklace):
        yield from (cls(2), cls(3))
    for f in operands:
        yield from (sp.Derivative(f), sp.Point(f), sp.NonEmpty(f), sp.Restrict(f, 3))
        for g in operands:
            yield from (cls(f, g) for cls in (sp.Sum, sp.Prod, sp.Cartesian, sp.Subst, sp.AProd))
    yield sp.Derivative(sp.Derivative(sp.S()))


def test_every_cycle_index_rule_matches_the_oracle_at_every_partition():
    # labelled counts read only the identity column (n,): this checks every fix-value
    kinds = set()
    for expr in _every_node_on((sp.C(), sp.Lplus(), sp.S())):
        try:
            z = sp.eval_zi(expr, 4)
        except PreconditionViolated:  # an aprod or comp operand with an empty structure
            continue
        kinds.add(type(expr))
        for w in range(5):
            for lam in nk.int_partitions(w):
                assert z.fix_value(lam) == oracle.fix_by_type(expr, lam), (expr, lam)
    assert kinds == set(sp.SpeciesExpr.__subclasses__()) - {sp.MAProd, sp.HCT}


# -- the monomial route, the reference for the n!-scaled integer kernels ----------
# Monomial coefficients fix/aut as Fractions, a naive truncated product, and
# fix = coeff * aut back: no weight grading, scaling or exact division shared
# with the kernels.


def _monomials(p, bound):
    return {lam: Fraction(v, nk.aut(lam)) for lam, v in p.fix.items() if nk.weight(lam) <= bound}


def _from_monomials(bound, mono):
    fix = {lam: c * nk.aut(lam) for lam, c in mono.items() if c}
    assert all(v.denominator == 1 for v in fix.values()), fix
    return CycleIndex(bound, {lam: int(v) for lam, v in fix.items()})


def _mono_mul(a, b, bound):
    out = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            if nk.weight(la) + nk.weight(lb) <= bound:
                key = zi._add_mult(la, lb)
                out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def _reference_mul(p, q):
    bound = min(p.bound, q.bound)
    return _from_monomials(bound, _mono_mul(_monomials(p, bound), _monomials(q, bound), bound))


def _substituted(inner, i, bound):
    """q(x_i, x_2i, ...) from q's monomials, without the terms past the bound."""
    return {zi._scale_parts(mu, i): cm for mu, cm in inner.items() if nk.weight(mu) * i <= bound}


def _reference_power(parts, inner, bound):
    """The product of q(x_i, x_2i, ...) over the parts i, formed afresh."""
    power = {(): Fraction(1)}
    for i in parts:
        power = _mono_mul(power, _substituted(inner, i, bound), bound)
    return power


def _reference_plethysm(p, q):
    bound = min(p.bound, q.bound)
    inner = _monomials(q, bound)
    acc = {}
    for lam, c in _monomials(p, bound).items():
        for mu, cm in _reference_power(nk.mult_to_parts(lam), inner, bound).items():
            acc[mu] = acc.get(mu, Fraction(0)) + c * cm
    return _from_monomials(bound, acc)


def _reference_plethysm_pairs(p, q):
    """Sum of |a| |b| over the products of a memoised walk: one per distinct nonempty tail
    of a descending part list of p, the power of the tail's rest times q(x_i, x_2i, ...)."""
    bound = min(p.bound, q.bound)
    inner = _monomials(q, bound)
    tails = {parts[k:] for parts in map(nk.mult_to_parts, _monomials(p, bound)) for k in range(len(parts))}
    return sum(len(_reference_power(tail[1:], inner, bound)) * len(_substituted(inner, tail[0], bound))
               for tail in tails)


def _reference_aprod(p, q):
    bound = min(p.bound, q.bound)
    acc = {}
    for lb, cb in _monomials(p, bound).items():
        for lg, cg in _monomials(q, bound).items():
            if nk.weight(lb) * nk.weight(lg) <= bound:
                alpha = zi.box_type(lb, lg)
                acc[alpha] = acc.get(alpha, Fraction(0)) + cb * cg
    return _from_monomials(bound, acc)


def _random_index(rng, bound, constant):
    """Up to eight random integer terms, of either sign."""
    fix = {}
    for _ in range(rng.randint(0, 8)):
        lam = rng.choice(nk.int_partitions(rng.randint(0 if constant else 1, bound)))
        fix[lam] = rng.randint(-30, 30)
    return CycleIndex(bound, fix)


def test_integer_kernels_match_the_monomial_route():
    rng = random.Random(20)
    kernels = (
        (zi.zi_mul, _reference_mul, True),
        (zi.zi_plethysm, _reference_plethysm, False),
        (zi.zi_aprod, _reference_aprod, False),
    )
    for _ in range(150):
        for kernel, reference, constant in kernels:
            p = _random_index(rng, rng.randint(3, 7), constant)
            q = _random_index(rng, rng.randint(3, 7), constant)
            got = kernel(p, q)
            assert got == reference(p, q), (kernel.__name__, p.fix, q.fix)
            assert all(type(v) is int for v in got.fix.values())
    # species operands, which have only integer fix-values
    for f, g in itertools.product((sp.Eplus(), sp.C(), sp.Lplus(), sp.Splus()), repeat=2):
        p, q = sp.eval_zi(f, 7), sp.eval_zi(g, 6)
        for kernel, reference, _ in kernels:
            assert kernel(p, q) == reference(p, q), (kernel.__name__, f, g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 8), st.sampled_from(("E", "C", "S", "L")))
def test_graded_plethysm_matches_the_all_pairs_reference(seed, bound, outer):
    # an inner index from a random empty-free tree; the charge is exact, as
    # ZI_PLETHYSM_PAIRS at the reference's sum admits the plethysm and one less refuses it
    p, q = zi.zi_atom(outer, bound), sp.eval_zi(rand_emptyfree(random.Random(seed)), bound)
    want, charge = _reference_plethysm(p, q), _reference_plethysm_pairs(p, q)
    with mock.patch.object(zi, "ZI_PLETHYSM_PAIRS", charge):
        assert zi.zi_plethysm(p, q) == want
    with mock.patch.object(zi, "ZI_PLETHYSM_PAIRS", charge - 1), pytest.raises(ScaleLimit):
        zi.zi_plethysm(p, q)


def _every_atom():
    """Every atom class, with the arguments 0-3 where it takes one."""
    for cls in sp.SpeciesExpr.__subclasses__():
        if cls.fields == cls.int_fields:
            yield from (cls(k) for k in range(4)) if cls.fields else (cls(),)


def test_atom_type_series_match_the_specialised_index():
    atoms = list(_every_atom())
    assert len(atoms) == 9 + 5 * 4
    for atom in atoms:
        want = [int(c) for c in zi.zi_to_ogf(sp.eval_zi(atom, 10), 10).coeffs]
        assert sp.type_counts(atom, 10) == want, atom
        core = sp.core(atom)
        if core.fields == core.int_fields:
            assert zi.type_series(zi.zi_atom(core.name, 10, *core.args), 10) == tuple(want)


def test_no_float_enters_a_cycle_index_or_its_series(monkeypatch):
    # int / int is a float in Python; TruncSeries would take it silently
    handed = []

    class Recording(se.TruncSeries):
        __slots__ = ()

        def __init__(self, coeffs):
            coeffs = list(coeffs)
            handed.extend(map(type, coeffs))
            super().__init__(coeffs)

    monkeypatch.setattr(zi, "TruncSeries", Recording)
    rng = random.Random(7)
    exprs = list(_every_atom()) + [rand_emptyfree(rng) for _ in range(40)]
    for expr in exprs:
        z = sp.eval_zi(expr, 6)
        assert {type(v) for v in z.fix.values()} <= {int}, expr
        for lam, fix, coeff in z.rows():
            assert type(fix) is int and type(coeff) is Fraction, (expr, lam)
        assert all(type(c) is Fraction for c in zi.zi_to_ogf(z, 6).coeffs), expr
    assert handed and set(handed) <= {int, Fraction}


# -- the checked door and the kernels that store their own terms -----------------


def test_lookups_reject_a_key_that_is_not_a_partition_within_the_bound():
    # each of these non-canonical keys read as 0 where the structures are fixed
    cases = [(sp.C(), (0, 1, 0), (0, 1), 1), (sp.L(), (2, 0), (2,), 2), (sp.E(), (1, 0), (1,), 1)]
    for atom, bad, lam, fixed in cases:
        z = zi.zi_atom(atom.name, 3)
        assert z.fix_value(lam) == fixed == oracle.fix_by_type(atom, bad), atom
        for lookup in (z.fix_value, z.coeff):
            with pytest.raises(DomainError, match=r"partition key .* has trailing zeros"):
                lookup(bad)
    z = zi.zi_atom("S", 3)
    with pytest.raises(DomainError, match=r"partition key \(1, -1, 1\) has negative multiplicity"):
        z.fix_value([1, -1, 1])
    with pytest.raises(DomainError, match=r"key \(0, 2\) exceeds weight bound 3"):
        z.coeff((0, 2))
    assert z.fix_value([1, 1]) == 2 and z.coeff((0, 0, 1)) == 1


def test_atom_counts_are_the_fix_values_at_the_identity_types():
    for atom in _every_atom():
        core = sp.core(atom)
        if core.fields == core.int_fields:
            z = zi.zi_atom(core.name, 6, *core.args)
            want = tuple(z.fix_value((n,) if n else ()) for n in range(7))
            assert zi.atom_counts(core.name, 6, *core.args) == want, atom
    assert zi.atom_counts("C", 4) == (0, 1, 1, 2, 6)
    with pytest.raises(UnknownAtom):
        zi.atom_counts("Par", 3)


@pytest.mark.parametrize("value", [Fraction(1, 3), Fraction(4, 2), 0.5, 0.1, True, "1", "1/3"],
                         ids=["Fraction-1/3", "Fraction-4/2", "0.5", "0.1", "True", "str-1", "str-1/3"])
def test_the_door_admits_only_int_fix_values(value):
    # a fix-value counts fixed structures: an integral Fraction is refused too
    with pytest.raises(DomainError, match=f"fix-value {re.escape(repr(value))} is not an int"):
        CycleIndex(1, {(1,): value})
    assert CycleIndex(1, {(1,): 2, (): 0}).fix == {(1,): 2}


def _assert_stored_as_the_door_stores(r):
    """r holds what ``CycleIndex(r.bound, r.fix)`` would: checked keys, no zero, int values."""
    assert CycleIndex(r.bound, r.fix) == r
    assert all(v and type(v) is int for v in r.fix.values()), r.fix


def _every_kernel(p, q):
    """Every index-building kernel applied to p and q where its preconditions hold."""
    out = [zi.zi_add(p, q), zi.zi_mul(p, q), zi.zi_hadamard(p, q), zi.zi_point(p)]
    out += [zi.zi_nonempty(p), zi.zi_restrict(p, 3)]
    if p.bound:
        out.append(zi.zi_deriv(p))
    if () not in q.fix:
        out.append(zi.zi_plethysm(p, q))
        if () not in p.fix:
            out.append(zi.zi_aprod(p, q))
    return out


def test_every_kernel_stores_what_the_door_would_store():
    rng = random.Random(23)
    atoms = list(_every_atom())
    cores = [sp.core(a) for a in atoms]
    pool = [zi.zi_atom(c.name, 6, *c.args) for c in cores if c.fields == c.int_fields]
    pool += [sp.eval_zi(a, 6) for a in atoms]
    pool += [sp.eval_zi(rand_emptyfree(rng), 6) for _ in range(30)]
    for r in pool:
        _assert_stored_as_the_door_stores(r)
    built = 0
    for _ in range(60):
        for r in _every_kernel(rng.choice(pool), rng.choice(pool)):
            _assert_stored_as_the_door_stores(r)
            built += 1
    # outside indices: negative and at unequal bounds
    for trial in range(150):
        constant = trial % 3 != 0
        p, q = (_random_index(rng, rng.randint(1 - constant, 7), constant) for _ in range(2))
        for r in _every_kernel(p, q):
            _assert_stored_as_the_door_stores(r)
            built += 1
    assert built > 1000


def test_species_evaluators_pass_no_term_through_the_door(monkeypatch):
    calls = []
    checked = CycleIndex.__init__

    def counting(self, *args):
        calls.append(args)
        checked(self, *args)

    monkeypatch.setattr(CycleIndex, "__init__", counting)
    rng = random.Random(29)
    exprs = list(_every_atom()) + [rand_emptyfree(rng) for _ in range(20)] + [
        sp.Cartesian(sp.C(), sp.Subst(sp.E(), sp.Eplus())),
        sp.Derivative(sp.Restrict(sp.Subst(sp.C(), sp.Lplus()), 4)),
        sp.Point(sp.AProd(sp.Point(sp.Lplus()), sp.NonEmpty(sp.Derivative(sp.S())))),
    ]
    for expr in exprs:
        sp.eval_zi(expr, 6)
        sp.type_counts(expr, 6)
    assert calls == []
    CycleIndex(2, {(1,): 1})
    assert calls == [(2, {(1,): 1})]


def test_outside_indices_are_checked_by_the_new_kernels():
    with pytest.raises(DomainError, match="derivative of an index needs weight bound >= 1"):
        zi.zi_deriv(zi.zi_atom("E", 0))
    assert zi.zi_deriv(zi.zi_atom("E", 1)) == CycleIndex(0, {(): 1})
    with pytest.raises(DomainError, match="order 5 exceeds weight bound 4"):
        zi.type_series(zi.zi_atom("E", 4), 5)
    assert zi.type_series(zi.zi_atom("E", 4), 3) == (1, 1, 1, 1)
