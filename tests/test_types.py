"""Type counts on integer type series against the cycle-index route and the oracle.

``species.type_counts`` reads ``_types``, which builds a cycle index only
for the outer operand of a substitution and for the nodes whose type series
does not follow from their operands' type series.  ``eval_ogf`` specialises
the whole cycle index and is the independent route: on every expression both
give the same counts, or both raise the same exception at the same node.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specalc import dslcli
from specalc import oracle
from specalc import species as sp
from specalc.errors import (
    DomainError,
    ScaleLimit,
    SpecalcError,
    UnsupportedForCycleIndex,
)
from test_cli_properties import _SETTINGS, trees


def _outcome(f, expr, n):
    """f(expr, n) as ("value", result) or ("raised", class, message, path)."""
    try:
        return "value", f(expr, n)
    except SpecalcError as e:
        return "raised", type(e), str(e), getattr(e, "path", None)


def _ogf_counts(expr, n):
    return [int(c) for c in sp.eval_ogf(expr, n).coeffs]


@settings(_SETTINGS, max_examples=200)
@given(trees(3), st.integers(0, 8))
def test_type_counts_match_the_whole_cycle_index(tree, n):
    assert _outcome(sp.type_counts, tree, n) == _outcome(_ogf_counts, tree, n)


@pytest.mark.parametrize("text", ["comp(E, Ep)", "comp(C, Lp)", "comp(S, comp(Ep, Lp))"])
def test_substitution_type_counts_match_the_orbit_count(text):
    expr = dslcli.parse(text).ast
    assert sp.type_counts(expr, 5) == [oracle.orbit_type_count(expr, n) for n in range(6)]


DERIV_CHAIN = "deriv(" * sp.ZI_DERIV_BOUND + "E" + ")" * sp.ZI_DERIV_BOUND
ERROR_CASES = [
    ("comp(E, maprod(Ep, Ep))", 6, UnsupportedForCycleIndex, (1,)),
    ("(X) + (hct(E))", 6, UnsupportedForCycleIndex, (1,)),
    ("comp(hct(Lp), Ep)", 6, UnsupportedForCycleIndex, (0,)),
    (DERIV_CHAIN, 1, ScaleLimit, None),
    ("comp(E, Ep) * C", -1, DomainError, None),
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

