"""Type counts on integer type series against the cycle-index route and the oracle.

``species.type_counts`` reads ``_types``, which builds a cycle index only
for the outer operand of a substitution and for the nodes whose type series
does not follow from their operands' type series; an atom's type series is
the Burnside sum of its fix-values.  The arithmetic product is
the Dirichlet convolution of its operands' type series.
``zindex.zi_to_ogf`` of ``species.eval_zi`` specialises the whole cycle
index (``zi_aprod`` for an arithmetic product) and is the independent
route: on every expression both give the same counts, or both raise the
same exception at the same node.  Burnside counts of the oracle check
both, and the divisor-function and Lambert statements are pinned past the
CLI's order cap.
"""

import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specalc import dslcli
from specalc import numkit as nk
from specalc import oracle
from specalc import species as sp
from specalc import zindex as zi
from specalc.errors import (
    DomainError,
    ScaleLimit,
    SpecalcError,
    UnsupportedForCycleIndex,
)
from conftest import rand_emptyfree
from test_cli_properties import _SETTINGS, trees


def _outcome(f, expr, n):
    """f(expr, n) as ("value", result) or ("raised", class, message, path)."""
    try:
        return "value", f(expr, n)
    except SpecalcError as e:
        return "raised", type(e), str(e), getattr(e, "path", None)


def _ogf_counts(expr, n):
    return [int(c) for c in zi.zi_to_ogf(sp.eval_zi(expr, n), n).coeffs]


@settings(_SETTINGS, max_examples=200)
@given(trees(3), st.integers(0, 8))
def test_type_counts_match_the_whole_cycle_index(tree, n):
    assert _outcome(sp.type_counts, tree, n) == _outcome(_ogf_counts, tree, n)


@settings(_SETTINGS, max_examples=150)
@given(st.integers(0, 2 ** 32 - 1))
def test_aprod_type_counts_match_the_whole_cycle_index(seed):
    # nested aprod/+/* trees of empty-free operands, which trees(3) seldom draws valid
    tree = rand_emptyfree(random.Random(seed), 3)
    for n in range(11):
        assert _outcome(sp.type_counts, tree, n) == _outcome(_ogf_counts, tree, n)


@pytest.mark.parametrize("text", ["comp(E, Ep)", "comp(C, Lp)", "comp(S, comp(Ep, Lp))"])
def test_substitution_type_counts_match_the_orbit_count(text):
    expr = dslcli.parse(text).ast
    assert sp.type_counts(expr, 5) == [oracle.orbit_type_count(expr, n) for n in range(6)]


@pytest.mark.parametrize("text", ["aprod(C, Lp)", "aprod(Ep, Ep)", "aprod(Sp, comp(Ep, Ep))"])
def test_aprod_type_counts_match_the_orbit_count(text):
    expr = dslcli.parse(text).ast
    assert sp.type_counts(expr, 6) == [oracle.orbit_type_count(expr, n) for n in range(7)]


def _divisor_sums(t, order):
    """sum_(d | n) t[d] for n = 0..order (0 at n = 0)."""
    return [0] + [sum(t[d] for d in nk.divisors(n)) for n in range(1, order + 1)]


@settings(_SETTINGS, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_aprod_with_lp_is_the_lambert_form(seed):
    f = rand_emptyfree(random.Random(seed), 2)
    lambert = _divisor_sums(sp.type_counts(f, 16), 16)
    assert sp.type_counts(sp.AProd(f, sp.Lplus()), 16) == lambert
    assert sp.type_counts(sp.AProd(sp.Lplus(), f), 16) == lambert


def test_aprod_powers_of_lp_count_divisor_functions():
    tau = sp.type_counts(sp.AProd(sp.Lplus(), sp.Lplus()), 30)
    assert tau == [0] + [nk.tau(n) for n in range(1, 31)]
    d3 = sp.type_counts(sp.AProd(sp.C(), sp.AProd(sp.Lplus(), sp.Lplus())), 30)
    assert d3 == _divisor_sums(tau, 30)
    assert d3[1:13] == [1, 3, 3, 6, 3, 9, 3, 10, 6, 9, 3, 18]
    # the labelled condition weighs by rect_coeff, so it rejects d_3
    assert sp.is_multiplicative(d3) == (False, (2, 3))


def _coprime_witness(t):
    """The first coprime pair r < s with t[rs] != t[r] t[s], or None; needs t[1] == 1."""
    assert t[1] == 1
    for m in range(2, len(t)):
        for r in nk.divisors(m):
            s = m // r
            if 2 <= r < s and gcd(r, s) == 1 and t[m] != t[r] * t[s]:
                return r, s
    return None


aprod_trees = st.recursive(
    st.sampled_from([sp.X(), sp.C(), sp.Lplus(), sp.Eplus()]),
    lambda kids: st.builds(sp.AProd, kids, kids),
    max_leaves=5,
)


@settings(_SETTINGS, max_examples=40)
@given(aprod_trees)
def test_aprod_type_series_are_multiplicative(tree):
    assert _coprime_witness(sp.type_counts(tree, 24)) is None


def test_coprime_witness_finds_a_non_multiplicative_type_series():
    # partitions: p(6) = 11, p(2) p(3) = 6
    assert _coprime_witness(sp.type_counts(sp.AProd(sp.Splus(), sp.X()), 12)) == (2, 3)


DERIV_CHAIN = "deriv(" * sp.ZI_DERIV_BOUND + "E" + ")" * sp.ZI_DERIV_BOUND
ERROR_CASES = [
    ("comp(E, maprod(Ep, Ep))", 6, UnsupportedForCycleIndex, (1,)),
    ("(X) + (hct(E))", 6, UnsupportedForCycleIndex, (1,)),
    ("comp(hct(Lp), Ep)", 6, UnsupportedForCycleIndex, (0,)),
    (DERIV_CHAIN, 1, ScaleLimit, None),
    ("comp(E, Ep) * C", -1, DomainError, None),
    ("aprod(maprod(Ep, Ep), Ep)", 6, UnsupportedForCycleIndex, (0,)),
    ("aprod(Lp, hct(Lp))", 6, UnsupportedForCycleIndex, (1,)),
    ("aprod(maprod(Ep, Ep), hct(Lp))", 6, UnsupportedForCycleIndex, (0,)),
    (f"aprod(Lp, plus({DERIV_CHAIN}))", 1, ScaleLimit, None),
]


@pytest.mark.parametrize("text, n, cls, path", ERROR_CASES)
def test_type_count_errors_match_the_whole_cycle_index(text, n, cls, path):
    expr = dslcli.parse(text).ast
    got = _outcome(sp.type_counts, expr, n)
    assert got == _outcome(_ogf_counts, expr, n)
    assert got[1] is cls and got[3] == path
    if n < 0:  # the CLI rejects a negative order before evaluating
        assert got[2] == "order must be nonnegative, got -1"
        return
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dslcli.main(["types", text, "--n", str(n)])
    prefix = "scale limit" if cls is ScaleLimit else "error"
    assert (code, err.getvalue(), out.getvalue()) == (
        4 if cls is ScaleLimit else 3, f"{prefix}: {got[2]}\n", "",
    )


def _types_cli(text, n):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dslcli.main(["types", text, "--n", str(n), "--format", "csv"])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("k", [16, 20])
def test_nested_derivatives_of_a_substitution_stop_at_the_plethysm_budget(k):
    # the derivatives raise comp(E, Ep)'s weight bound to 10 + k, within
    # ZI_DERIV_BOUND; the plethysm there would take minutes
    start = time.perf_counter()
    code, out, err = _types_cli("deriv(" * k + "comp(E, Ep)" + ")" * k, 10)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (4, "")
    assert err == (f"scale limit: plethysm at weight bound {10 + k} exceeds"
                   f" {zi.ZI_PLETHYSM_PAIRS} term pairs\n")


def test_plethysm_budget_admits_eight_nested_derivatives():
    code, out, _ = _types_cli("deriv(" * 8 + "comp(E, Ep)" + ")" * 8, 10)
    assert code == 0 and out.splitlines()[-1] == "10,19847703"
