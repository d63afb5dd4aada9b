"""Property tests of the CLI's exit-code contract and of print/parse round trips.

Every argv ends in one of the documented exit codes (0 success, 2 parse
error, 3 precondition or domain error, 4 scale limit, 5 check mismatch),
with no other exception and within a time budget.  The draws are random
token strings, well-formed trees of every node kind, and ``table`` argv
with edge values of every option, in any order.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specalc import dslcli
from specalc import species as sp

EXIT_CODES = {0, 2, 3, 4, 5}
BUDGET_S = 5.0
FORMATS = ("json", "csv", "plain")

NODE_CLASSES = sp.SpeciesExpr.__subclasses__()
INFIX_CLASSES = [sp.Sum, sp.Prod]
LEAF_CLASSES = [cls for cls in NODE_CLASSES if set(cls.fields) == set(cls.int_fields)]
CALL_CLASSES = [cls for cls in NODE_CLASSES if cls not in LEAF_CLASSES + INFIX_CLASSES]

small_ints = st.integers(0, 4)


def _node(cls, sub):
    args = [small_ints if f in cls.int_fields else sub for f in cls.fields]
    return st.tuples(*args).map(lambda a: cls(*a))


def trees(depth):
    """Expression trees with at most ``depth`` levels of nodes above the leaves.

    Every node kind can be drawn.  ``+`` and ``*`` are drawn as often as all
    calls together: their precedence and associativity are what printing
    must get right.
    """
    leaves = st.one_of([_node(cls, None) for cls in LEAF_CLASSES])
    if depth == 0:
        return leaves
    sub = trees(depth - 1)
    infix = st.one_of([_node(cls, sub) for cls in INFIX_CLASSES])
    calls = st.one_of([_node(cls, sub) for cls in CALL_CLASSES])
    return st.one_of(leaves, infix, calls)


# the grammar's words plus characters and integers it rejects
TOKENS = (
    list(dslcli.ATOMS) + list(dslcli.CALLS)
    + ["+", "*", "(", ")", ",", " ", "\n", "\t", "0", "2", "7", "12"]
    + ["@", "-", "²", "x", "Foo", "9" * 5000]
)
token_strings = st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)

# command and order: the series commands to n = 8, the oracle ones to n = 3
commands = st.one_of(
    st.tuples(st.sampled_from(("counts", "types", "zindex", "dirichlet")), st.integers(0, 8)),
    st.tuples(st.sampled_from(("check", "enumerate")), st.integers(0, 3)),
)


def run_cli(argv):
    """Exit code of the CLI on argv, in process; any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = dslcli.main(argv)
    except SystemExit as e:  # argparse rejects the argv
        code = e.code
    elapsed = time.perf_counter() - start
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert elapsed < BUDGET_S, (argv, elapsed)
    return code


def _argv(command, text, fmt):
    name, n = command
    return [name, text, "--n", str(n), "--format", fmt]


_SETTINGS = settings(
    deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow]
)


@settings(_SETTINGS, max_examples=300)
@given(token_strings, commands, st.sampled_from(FORMATS))
def test_token_strings_exit_with_a_documented_code(text, command, fmt):
    run_cli(_argv(command, text, fmt))


@settings(_SETTINGS, max_examples=200)
@given(trees(3), commands, st.sampled_from(FORMATS))
def test_grammar_draws_exit_with_a_documented_code(tree, command, fmt):
    run_cli(_argv(command, dslcli.to_source(tree), fmt))


@settings(_SETTINGS, max_examples=300)
@given(trees(4))
def test_generated_trees_round_trip_through_print_and_parse(tree):
    text = dslcli.to_source(tree)
    assert dslcli.parse(text).ast == tree
    assert dslcli.to_source(dslcli.parse(text).ast) == text


# zero, negative, small, at and past the order cap, past the mnr cell limit
# and huge; argparse rejects a non-integer, and a "-inf" it reads as an
# option, with exit 2
TABLE_INTS = st.sampled_from(
    ("0", "-1", "-1000000", "1", "2", "3", "6", "30", "31", "401", "10" * 15, "nan")
)
TABLE_TOLS = st.sampled_from(
    ("0", "-1", "-0.0", "nan", "inf", "-inf", "1e-300", "1e-6", "0.5", "1e300")
)
table_options = st.fixed_dictionaries(
    {"--n": TABLE_INTS},
    optional={
        "--k": TABLE_INTS, "--m": TABLE_INTS, "--tol": TABLE_TOLS,
        "--format": st.sampled_from(FORMATS),
    },
)


@pytest.mark.parametrize("kind", ("rect", "krect", "prect", "mnr", "pittel"))
@settings(_SETTINGS, max_examples=60)
@given(st.data())
def test_table_argv_exit_with_a_documented_code(kind, data):
    options = data.draw(table_options)
    units = data.draw(st.permutations([[kind]] + [list(o) for o in options.items()]))
    run_cli(["table"] + [a for unit in units for a in unit])
