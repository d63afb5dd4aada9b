"""Acceptance criteria, one test per criterion, one printed PASS/FAIL line each.

Every tolerance is pinned here.  All checks are exact unless a numeric
tolerance is stated inline (the certified-sum comparisons at 1e-6).
"""

import itertools
import math
import random

from conftest import labelled_counts, rand_any, rand_emptyfree
from specalc import numkit as nk
from specalc import oracle
from specalc import series as se
from specalc import species as sp
from specalc import zindex as zi
from specalc.dslcli import cmd_counts
from specalc.series import TruncSeries


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {tag}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    return ok


def test_criterion_01_table1_reproduction(monkeypatch):
    # The reference table prints 10080 at n = 10, an erratum: its own entries
    # h[9] = 3554, h[3] = 2 and h[1] = 1 force
    # h[10] = h[9] + rect(9,3)*h[3] + h[1] = 3554 + 10080*2 + 1 = 23715,
    # and 10080 = 9!/(3!*3!) is the 3x3 rectangle coefficient alone.
    expected = [1, 1, 2, 3, 10, 11, 192, 193, 3554, 23715]
    rec = cmd_counts("hct(E)", 10)
    got = [int(v) for v in rec["payload"]["counts"]][1:]
    # brute force on 10 labels: 20160 structures on 3x3 rectangles,
    # 3554 on 1x9 and 1 on 9x1 (about 7 s, 32 MB)
    monkeypatch.setattr(oracle, "ENUM_LIMIT", 10)
    brute = len(set(oracle.enumerate_structures(sp.HCT(sp.E()), range(1, 11))))
    ok = got == expected and brute == expected[-1]
    report(1, "reference count table via `counts hct(E)` --n 10, exact, "
           "oracle at n=10", ok,
           f"expected {expected}, got {got}, oracle {brute}")
    assert ok, (
        f"`counts hct(E)` gave {got} and the oracle enumerated {brute} "
        f"structures on 10 labels; expected {expected}, ending in "
        f"{expected[-1]} for both"
    )


def test_criterion_02_octopus_and_list_counts():
    octo = sp.eval_counts(sp.AProd(sp.C(), sp.Lplus()), 20)
    lists = sp.eval_counts(sp.AProd(sp.Lplus(), sp.Lplus()), 20)
    ok = octo == [0] + [nk.sigma(n) * nk.factorial(n - 1) for n in range(1, 21)]
    ok = ok and lists == [0] + [nk.tau(n) * nk.factorial(n) for n in range(1, 21)]
    for n in range(7):
        labels = range(1, n + 1)
        ok = ok and len(oracle.enumerate_structures(sp.AProd(sp.C(), sp.Lplus()), labels)) == octo[n]
        ok = ok and len(oracle.enumerate_structures(sp.AProd(sp.Lplus(), sp.Lplus()), labels)) == lists[n]
    assert report(2, "octopus/list counts to n=20, oracle to n=6, exact", ok)


def test_criterion_03_rectangle_census():
    ok = True
    for n in range(1, 8):
        want = sum(nk.rect_coeff(n, d) for d in nk.divisors(n))
        ok = ok and len(oracle.rectangles_of(range(1, n + 1))) == want
    ok = ok and len(oracle.rectangles_of(range(1, 7))) == 122
    for k in (1, 2, 3):
        for n in range(1, 9):
            want = sum(
                nk.factorial(n) // math.prod(map(nk.factorial, shape))
                for shape in itertools.product(nk.divisors(n), repeat=k)
                if math.prod(shape) == n
            )
            ok = ok and len(oracle.k_rectangles(n, k)) == want
    assert report(3, "rectangle census n<=7 and k-rectangles n<=8, k<=3, exact", ok)


def test_criterion_04_cycle_index_theorem():
    atoms = {"Ep": sp.Eplus(), "C": sp.C(), "Lp": sp.Lplus(), "Sp": sp.Splus()}
    ok = True
    for (na, ea), (nb, eb) in itertools.product(atoms.items(), repeat=2):
        za, zb = sp.eval_zi(ea, 10), sp.eval_zi(eb, 10)
        prod = zi.zi_aprod(za, zb)
        expr = sp.AProd(ea, eb)
        for w in range(6):
            for lam in nk.int_partitions(w):
                ok = ok and prod.fix_value(lam) == oracle.fix_by_type(expr, lam)
        egf = [TruncSeries.from_counts(labelled_counts(z, 10)) for z in (prod, za, zb)]
        ok = ok and egf[0] == se.aprod_egf(egf[1], egf[2])
        ok = ok and zi.zi_to_ogf(prod, 10) == se.aprod_egf(zi.zi_to_ogf(za, 10), zi.zi_to_ogf(zb, 10))
    assert report(4, "index-series product = oracle Fix, specializations commute, exact", ok)


def test_criterion_05_bell_identity():
    ok = True
    for k in (2, 3):
        series = TruncSeries.from_counts(sp.pr_k_exact(k, 10))
        lhs = se.compose(series, se.expm1_series(10))
        ok = ok and lhs.counts() == [nk.bell(n) ** k for n in range(11)]
    assert report(5, "partial-rectangle series at e^x-1 gives Bell powers, k in {2,3}, exact", ok)


def test_criterion_06_pittel():
    ok = True
    for k in (1, 2, 3):
        exact = sp.pr_k_exact(k, 4)
        rows = sp.pittel_rows(k, 4, 1e-6)
        for n in range(5):
            ok = ok and len(oracle.k_partial_rectangles(n, k)) == exact[n]
            count, value, bound = rows[n]
            ok = ok and count == exact[n]
            ok = ok and bound <= 1e-6 and abs(value - exact[n]) <= 1e-6
    ok = ok and sp.pr_k_exact(2, 2)[2] == 3
    assert report(6, "k-tuple partial rectangles vs oracle (n<=4) and numeric sum at 1e-6", ok)


def test_criterion_07_matrix_counting():
    ok = True
    for m in range(5):
        for n in range(5):
            for r in range(m * n + 1):
                ok = ok and sp.mnr_formula(m, n, r) == oracle.matrices_01(m, n, r)
    for r in range(6):
        shapes = {}
        for pi, tau in oracle.partial_rectangles_of(range(1, r + 1)):
            key = (len(pi), len(tau))
            shapes[key] = shapes.get(key, 0) + 1
        for m in range(5):
            for n in range(5):
                ok = ok and sp.partial_rect_mnr(m, n, r) == shapes.get((m, n), 0)
    assert report(7, "0/1-matrix formula vs brute force (m,n<=4) and partial-rectangle corollary, exact", ok)


def test_criterion_08_cyclotomic_identity():
    # An alpha-coloured necklace is a cycle of clones of its aperiodic period:
    # (a) labelled and (a') type counts of necklace(alpha) and aprod(C, aperiodic(alpha))
    # agree, (b) prod_n (1 - x^n)^(-lyndon(n, alpha)) = sum alpha^n x^n, and
    # (c) assemblies of aprod(C, aperiodic(alpha)) number n! alpha^n.
    ok = True
    for alpha in (1, 2, 3, 4):
        necklace = sp.Necklace(alpha)
        cloned = sp.AProd(sp.C(), sp.AperiodicNecklace(alpha))
        ok = ok and sp.eval_counts(cloned, 12) == sp.eval_counts(necklace, 12)
        ok = ok and sp.type_counts(cloned, 12) == sp.type_counts(necklace, 12)
        prod_form = TruncSeries.one(12)
        for n in range(1, 13):
            lam = nk.lyndon_count(n, alpha)
            if lam:
                prod_form = prod_form * se.geom_power(n, lam, 12)
        ok = ok and prod_form == TruncSeries(alpha ** n for n in range(13))
        ok = ok and sp.eval_counts(sp.Subst(sp.E(), cloned), 12) == [
            nk.factorial(n) * alpha ** n for n in range(13)
        ]
    assert report(8, "cyclotomic identity for alpha in {1,2,3,4} at N=12, exact", ok)


def test_criterion_09_algebraic_law_suite():
    rng = random.Random(90)
    ok = True
    species_cases = 0
    x = sp.X()
    one_plus_x = sp.Sum(sp.One(), sp.X())
    for _ in range(22):
        m, n, r = (rand_emptyfree(rng) for _ in range(3))
        checks = [
            sp.eval_counts(sp.AProd(m, n), 10) == sp.eval_counts(sp.AProd(n, m), 10),
            sp.eval_counts(sp.AProd(m, sp.AProd(n, r)), 10)
            == sp.eval_counts(sp.AProd(sp.AProd(m, n), r), 10),
            sp.eval_counts(sp.AProd(m, sp.Sum(n, r)), 10)
            == [a + b for a, b in zip(sp.eval_counts(sp.AProd(m, n), 10),
                                      sp.eval_counts(sp.AProd(m, r), 10))],
            sp.eval_counts(sp.AProd(m, x), 10) == sp.eval_counts(m, 10),
            sp.eval_counts(sp.Point(sp.AProd(m, n)), 10)
            == sp.eval_counts(sp.AProd(sp.Point(m), sp.Point(n)), 10),
            sp.eval_counts(sp.AProd(m, sp.XPow(2)), 10)
            == sp.eval_counts(sp.Subst(m, sp.XPow(2)), 10),
        ]
        ok = ok and all(checks)
        species_cases += len(checks)
    for _ in range(12):
        m, n, r = (rand_any(rng) for _ in range(3))
        cm = sp.eval_counts(m, 10)
        checks = [
            sp.eval_counts(sp.MAProd(m, n), 10) == sp.eval_counts(sp.MAProd(n, m), 10),
            sp.eval_counts(sp.MAProd(m, sp.MAProd(n, r)), 10)
            == sp.eval_counts(sp.MAProd(sp.MAProd(m, n), r), 10),
            sp.eval_counts(sp.MAProd(m, sp.Sum(n, r)), 10)
            == [a + b for a, b in zip(sp.eval_counts(sp.MAProd(m, n), 10),
                                      sp.eval_counts(sp.MAProd(m, r), 10))],
            sp.eval_counts(sp.MAProd(sp.X(), m), 10) == [0] + cm[1:],
            sp.eval_counts(sp.MAProd(m, one_plus_x), 10) == cm,
            sp.eval_counts(sp.MAProd(m, sp.OnePlusXPow(2)), 10)
            == sp.eval_counts(sp.Subst(m, sp.NonEmpty(sp.OnePlusXPow(2))), 10),
        ]
        ok = ok and all(checks)
        species_cases += len(checks)
    route_cases = 0
    from conftest import rand_series

    for _ in range(200):
        f = rand_series(rng, 12)
        g = rand_series(rng, 12)
        ok = ok and se.maprod_egf(f, g, 12) == se.maprod_egf_via_shift(f, g, 12)
        route_cases += 1
    ok = ok and species_cases >= 200 and route_cases >= 200
    assert report(
        9,
        "product laws on randomized species and route-1 = route-2, exact",
        ok,
        f"{species_cases} law cases, {route_cases} route pairs",
    )


def test_criterion_10_multiplicativity():
    ok = sp.is_multiplicative(sp.eval_counts(sp.C(), 30)) == (True, None)
    ok = ok and sp.is_multiplicative(sp.eval_counts(sp.Lplus(), 30)) == (True, None)
    ok = ok and sp.is_multiplicative(sp.eval_counts(sp.AProd(sp.C(), sp.Lplus()), 30)) == (True, None)
    failed, witness = sp.is_multiplicative(sp.eval_counts(sp.Eplus(), 30))
    ok = ok and not failed and witness == (2, 3)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    cpp = {(p, a): nk.factorial(p ** a - 1) for p in primes for a in range(1, 6) if p ** a <= 30}
    lpp = {(p, a): nk.factorial(p ** a) for p in primes for a in range(1, 6) if p ** a <= 30}
    ok = ok and sp.euler_reconstruct(cpp, 30) == sp.eval_counts(sp.C(), 30)
    ok = ok and sp.euler_reconstruct(lpp, 30) == sp.eval_counts(sp.Lplus(), 30)
    assert report(10, "multiplicativity witnesses and prime-power reconstruction to n=30, exact", ok)


def test_criterion_11_canonical_form_theorem():
    ok = True
    em1 = se.expm1_series(10)
    for a, b in itertools.product((sp.E(), sp.L(), sp.C(), sp.S()), repeat=2):
        lhs = se.compose(sp.eval_egf(sp.MAProd(a, b), 10), em1)
        rhs = se.hadamard(
            se.compose(sp.eval_egf(a, 10), em1), se.compose(sp.eval_egf(b, 10), em1)
        )
        ok = ok and lhs == rhs
    fix = {}
    for w in range(6):
        for lam in nk.int_partitions(w):
            v = oracle.fix_by_type(sp.MAProd(sp.E(), sp.E()), lam)
            if v:
                fix[lam] = v
    z_ee = zi.CycleIndex(5, fix)
    zep = sp.eval_zi(sp.Eplus(), 5)
    par = zi.zi_plethysm(zi.zi_atom("E", 5), zep)
    ok = ok and zi.zi_plethysm(z_ee, zep) == zi.zi_hadamard(par, par)
    assert report(11, "modified product at e^x-1 is the Hadamard product; index corollary at weight 5, exact", ok)


def test_criterion_12_functoriality():
    rng = random.Random(120)
    ok = True
    transport_cases = 0
    labels = tuple(range(1, 5))
    ident = dict(zip(labels, labels))
    exprs = [
        sp.AProd(sp.Splus(), sp.Lplus()),
        sp.AProd(sp.Eplus(), sp.Eplus()),
        sp.MAProd(sp.E(), sp.L()),
        sp.Subst(sp.Lplus(), sp.Eplus()),
        sp.Necklace(2),
        sp.Prod(sp.C(), sp.E()),
    ]
    for expr in exprs:
        structs = oracle.enumerate_structures(expr, labels)
        for _ in range(18):
            s = rng.choice(structs)
            p1 = list(labels)
            rng.shuffle(p1)
            s1 = dict(zip(labels, p1))
            p2 = list(labels)
            rng.shuffle(p2)
            s2 = dict(zip(labels, p2))
            composed = {u: s2[s1[u]] for u in labels}
            ok = ok and oracle.transport(s, ident) == s
            ok = ok and oracle.transport(oracle.transport(s, s1), s2) == (
                oracle.transport(s, composed)
            )
            transport_cases += 1
    conj_cases = 0
    for expr in (sp.AProd(sp.Splus(), sp.Lplus()), sp.MAProd(sp.E(), sp.E())):
        for n in (3, 4):
            base_labels = tuple(range(1, n + 1))
            for lam in nk.int_partitions(n):
                base = oracle.fix_count(expr, oracle.perm_of_type(lam))
                for _ in range(8):
                    relabel = list(base_labels)
                    rng.shuffle(relabel)
                    tau = dict(zip(base_labels, relabel))
                    rep = oracle.perm_of_type(lam)
                    conj = {tau[u]: tau[rep[u]] for u in base_labels}
                    ok = ok and oracle.fix_count(expr, conj) == base
                    conj_cases += 1
    ok = ok and transport_cases >= 100 and conj_cases >= 100
    assert report(
        12,
        "transport identity/composition and conjugation-invariant Fix counts, exact",
        ok,
        f"{transport_cases} transports, {conj_cases} conjugations",
    )
