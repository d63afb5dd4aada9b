"""Property tests of the CLI's exit-code contract and of print/parse round trips.

Every argv ends in one of the documented exit codes (0 success, 2 parse
error, 3 precondition or domain error, 4 scale limit, 5 check mismatch),
with no other exception and within a time budget.  The draws are random
token strings, well-formed trees of every node kind, and ``table`` argv
with edge values of every option, in any order.  Argv in and around the
plain form ``command positional (--name value)*`` check that the plain
argv reader gives argparse's namespace or leaves the argv to argparse.
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


# -- the plain argv reader against argparse ---------------------------------------

ARGV_COMMANDS = ("counts", "types", "zindex", "dirichlet", "check", "enumerate", "table", "tabel")
ARGV_POSITIONALS = ("E", "comp(E, Ep)", "", " -E", "-E", "rect", "krect", "prect", "mnr", "pittel")
INT_VALUES = ("3", "0", "12", "+5", "٣", " 7", "1_0", "9" * 5000)
# values for each exact option name: what the plain form may use, and values
# starting with "-", which argparse takes as a number ("-1") or an option
DASH_VALUES = ("-1", "-inf", "-E")
PLAIN_VALUES = {
    "--n": INT_VALUES, "--k": INT_VALUES, "--m": INT_VALUES,
    "--tol": INT_VALUES + ("1e-6", "nan", "inf", "0.5"),
    "--format": ("json", "csv", "plain"), "--out": ("rec.txt", "", " 7", "E"),
}
OPTION_NAMES = tuple(PLAIN_VALUES) + ("--fo", "--form", "--ou", "--t", "--tolerance")
OPTION_VALUES = ("x", "JSON", "E", "") + DASH_VALUES + tuple(
    v for values in PLAIN_VALUES.values() for v in values
)
# tokens that stand alone: help, "=" forms, and a name whose value is missing
OPTION_TOKENS = ("-h", "--help", "--n=3", "--format=json", "--out=", "--k=2", "--n", "--", "-n")

plain_units = st.sampled_from(tuple(PLAIN_VALUES)).flatmap(
    lambda name: st.sampled_from(PLAIN_VALUES[name] + DASH_VALUES).map(lambda value: [name, value])
)
other_units = st.one_of(
    st.sampled_from(ARGV_POSITIONALS).map(lambda positional: [positional]),
    st.tuples(st.sampled_from(OPTION_NAMES), st.sampled_from(OPTION_VALUES)).map(list),
    st.sampled_from(OPTION_TOKENS).map(lambda token: [token]),
)


@st.composite
def argvs(draw):
    """The plain form, mostly with ``--n``, and up to three more options in any
    order, then up to two other units (a positional, any option and value, a
    lone token) put anywhere after the command."""
    n_unit = st.sampled_from(INT_VALUES).map(lambda value: [["--n", value]])
    units = draw(st.one_of(n_unit, n_unit, n_unit, st.just([])))
    units += draw(st.lists(plain_units, max_size=3))
    units = [[draw(st.sampled_from(ARGV_POSITIONALS))]] + draw(st.permutations(units))
    for unit in draw(st.lists(other_units, max_size=2)):
        units.insert(draw(st.integers(0, len(units))), unit)
    return [draw(st.sampled_from(ARGV_COMMANDS))] + [token for unit in units for token in unit]


def _same_value(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float) and a != a and b != b)


def _read_as_argparse_does(argv):
    """``_plain_args(argv)``, after checking it is None or argparse's namespace."""
    plain = dslcli._plain_args(argv)
    if plain is None:
        return None
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            parsed = vars(dslcli._build_argparser().parse_args(argv))
    except SystemExit:
        pytest.fail(f"argparse exits on {argv!r} read as {vars(plain)!r}: {err.getvalue()}")
    assert vars(plain).keys() == parsed.keys(), argv
    assert all(_same_value(v, parsed[key]) for key, v in vars(plain).items()), (argv, plain, parsed)
    return plain


@settings(_SETTINGS, max_examples=2000)
@given(argvs())
def test_plain_argv_reader_agrees_with_argparse(argv):
    _read_as_argparse_does(argv)


@pytest.mark.parametrize(
    "argv, read",
    [
        # argparse checks the choices at every occurrence, not only the last
        (["check", "E", "--format", "+5", "--n", "7", "--format", "plain"], False),
        (["counts", "E", "--n", "٣"], True),
    ],
)
def test_plain_argv_reader_pinned_cases(argv, read):
    assert (_read_as_argparse_does(argv) is not None) == read
