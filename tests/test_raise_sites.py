"""Public raise sites no other test reaches, each matched by its message."""

import io
from fractions import Fraction

import pytest

from conftest import parts_to_mult
from specalc import dslcli
from specalc import numkit as nk
from specalc import oracle
from specalc import species as sp
from specalc import zindex as zi
from specalc.errors import DomainError, ScaleLimit, ZeroConstantRequired
from specalc.series import TruncSeries


class _UnknownNode:
    """A stand-in node no rule table knows; not a ``SpeciesExpr``, so the grammar keeps its kinds."""

    name = "unknown"
    fields = ("x",)
    int_fields = ()
    args = (0,)


RAISES = [
    (nk.binomial, (-1, 0), DomainError, "binomial with negative upper argument -1"),
    (nk.factorize, (0,), DomainError, "factorization of non-positive 0"),
    (nk.rect_coeff, (0, 1), DomainError, "rectangle coefficient needs n >= 1, got 0"),
    (nk.lyndon_count, (0, 2), DomainError, "Lyndon count needs n >= 1, got 0"),
    (nk.lyndon_count, (3, -1), DomainError, "alphabet size must be nonnegative, got -1"),
    (parts_to_mult, ([0],), DomainError, "partition part 0 must be positive"),
    (nk.int_partitions, (-1,), DomainError, "partition weight must be nonnegative, got -1"),
    (nk.aprod_counts, ((1, 1), (0, 1)), ZeroConstantRequired,
     "arithmetic product operand has a nonzero constant term"),
    (oracle.k_rectangles, (9, 2), ScaleLimit, "k-rectangles on 9 labels exceeds limit 8"),
    (oracle.k_rectangles, (2, 0), DomainError, "need k >= 1, got 0"),
    (oracle.partial_rectangles_of, (range(1, 9),), ScaleLimit,
     r"4140\^2 partition pairs exceed limit 2000000"),
    (oracle.k_partial_rectangles, (2, 0), DomainError, "need k >= 1, got 0"),
    (oracle.k_partial_rectangles, (5, 5), ScaleLimit,
     r"52\^5 partition tuples exceed limit 2000000"),
    # sizing comes first, so a kind with no rule row never reaches an oracle branch
    (oracle.enumerate_structures, (_UnknownNode(), ()), DomainError, "unknown expression node"),
    (oracle.matrices_01, (-1, 1, 1), DomainError, "matrix size must be nonnegative, got -1"),
    (oracle.tuple_decompositions, ({u: u for u in range(1, 10)},), ScaleLimit,
     "9 labels exceeds limit 8"),
    (sp.mnr_formula, (-1, 1, 1), DomainError, "matrix size must be nonnegative, got -1"),
    (sp.pittel_rows, (0, 1, 1e-6), DomainError, "need k >= 1, got 0"),
    (sp.pittel_rows, (1, -1, 1e-6), DomainError, "order must be nonnegative, got -1"),
    (zi.CycleIndex, (-1,), DomainError, "order must be nonnegative, got -1"),
    (zi.zi_to_ogf, (zi.zi_atom("E", 4), 5), DomainError, "order 5 exceeds weight bound 4"),
    (zi.zi_atom, ("E", -1), DomainError, "order must be nonnegative, got -1"),
    (zi.atom_counts, ("E", -1), DomainError, "order must be nonnegative, got -1"),
    (zi.type_series, (zi.zi_atom("E", 3), -1), DomainError, "order must be nonnegative, got -1"),
    (TruncSeries, ([],), DomainError,
     "a truncated series needs at least its constant coefficient"),
    (TruncSeries([1, 2, 3]).truncate, (3,), DomainError, "cannot extend order 2 series to 3"),
    (sp.eval_counts, (_UnknownNode(), 2), DomainError, "unknown expression node"),
    (dslcli.to_source, (3,), DomainError, "no printable form for 3"),
    (dslcli.cmd_table, ("square", 3), DomainError, "unknown table kind 'square'"),
    (dslcli.format_record, ({}, "xml", io.StringIO()), DomainError, "unknown format 'xml'"),
]


@pytest.mark.parametrize(
    "fn, args, error, message", RAISES,
    ids=[f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}" for fn, *_ in RAISES],
)
def test_public_raise_site(fn, args, error, message):
    with pytest.raises(error, match=message):
        fn(*args)


# Orders that are not ints, refused by the one order check; a table of their
# own, so the rows above keep their ids.
NOT_INT_ORDERS = [
    pytest.param(zi.CycleIndex, (2.5,), id="CycleIndex(2.5)"),
    pytest.param(zi.CycleIndex, (True, {(1,): 1}), id="CycleIndex(True)"),
    pytest.param(sp.eval_counts, (sp.E(), True), id="eval_counts(E, True)"),
    pytest.param(sp.eval_counts, (sp.E(), 2.5), id="eval_counts(E, 2.5)"),
    pytest.param(sp.eval_zi, (sp.E(), 2.5), id="eval_zi(E, 2.5)"),
    pytest.param(sp.type_counts, (sp.E(), 2.5), id="type_counts(E, 2.5)"),
    pytest.param(zi.zi_atom, ("E", 2.5), id="zi_atom(E, 2.5)"),
    pytest.param(zi.atom_counts, ("E", 2.5), id="atom_counts(E, 2.5)"),
    pytest.param(sp.pittel_rows, (1, 2.5, 1e-6), id="pittel_rows(1, 2.5)"),
]


@pytest.mark.parametrize("fn, args", NOT_INT_ORDERS)
def test_an_order_that_is_not_an_int_is_refused(fn, args):
    with pytest.raises(DomainError, match="order must be an int, got "):
        fn(*args)


# k-fold dimensions, ground-set sizes and atom arguments that are not ints:
# each is refused at its door before it reaches a count.
NOT_INT_K = [
    pytest.param(sp.pr_k_exact, (2.5, 4), "k must be an int, got 2.5", id="pr_k_exact(2.5, 4)"),
    pytest.param(sp.pr_k_exact, (True, 4), "k must be an int, got True", id="pr_k_exact(True, 4)"),
    pytest.param(sp.pittel_rows, (2.5, 2, 1e-6), "k must be an int, got 2.5",
                 id="pittel_rows(2.5, 2)"),
    pytest.param(oracle.k_rectangles, (3, 2.5), "k must be an int, got 2.5",
                 id="k_rectangles(3, 2.5)"),
    pytest.param(oracle.k_partial_rectangles, (3, 2.5), "k must be an int, got 2.5",
                 id="k_partial_rectangles(3, 2.5)"),
    pytest.param(oracle.k_rectangles, (2.5, 2), "order must be an int, got 2.5",
                 id="k_rectangles(2.5, 2)"),
    pytest.param(oracle.set_partitions, (2.5,), "order must be an int, got 2.5",
                 id="set_partitions(2.5)"),
    pytest.param(sp.Necklace, (2.5,), "necklace alpha must be an int, got 2.5", id="Necklace(2.5)"),
    pytest.param(sp.Ek, (True,), "Ek k must be an int, got True", id="Ek(True)"),
    pytest.param(sp.Restrict, (sp.E(), 2.0), "restrict n must be an int, got 2.0",
                 id="Restrict(E, 2.0)"),
    pytest.param(sp.XPow, (Fraction(3),), r"Xpow n must be an int, got Fraction\(3, 1\)",
                 id="XPow(Fraction(3))"),
    pytest.param(zi.zi_atom, ("necklace", 4, 2.5), "necklace argument must be an int, got 2.5",
                 id="zi_atom(necklace, 4, 2.5)"),
    pytest.param(zi.atom_counts, ("OnePlusXpow", 3, 2.5),
                 "OnePlusXpow argument must be an int, got 2.5", id="atom_counts(OnePlusXpow, 3, 2.5)"),
]


@pytest.mark.parametrize("fn, args, message", NOT_INT_K)
def test_a_k_size_or_atom_argument_that_is_not_an_int_is_refused(fn, args, message):
    with pytest.raises(DomainError, match=message):
        fn(*args)


# Counts, sizes and atom arguments read by ``numkit.check_order``: a negative
# value or a non-int is refused at the door, under the door's own noun.
NOT_NONNEGATIVE_INTS = [
    pytest.param(zi.zi_atom, ("necklace", 3, -2), "necklace argument must be nonnegative, got -2",
                 id="zi_atom(necklace, 3, -2)"),
    pytest.param(zi.zi_atom, ("OnePlusXpow", 3, -1), "OnePlusXpow argument must be nonnegative, got -1",
                 id="zi_atom(OnePlusXpow, 3, -1)"),
    pytest.param(zi.atom_counts, ("OnePlusXpow", 3, -1),
                 "OnePlusXpow argument must be nonnegative, got -1", id="atom_counts(OnePlusXpow, 3, -1)"),
    pytest.param(nk.lyndon_count, (4, 2.5), "alphabet size must be an int, got 2.5",
                 id="lyndon_count(4, 2.5)"),
    pytest.param(nk.bell_numbers, (2.5,), "Bell index must be an int, got 2.5", id="bell_numbers(2.5)"),
    pytest.param(nk.int_partitions, (2.5,), "partition weight must be an int, got 2.5",
                 id="int_partitions(2.5)"),
    pytest.param(nk.aprod_power, ((0, 1, 1), 2.5), "arithmetic-product exponent must be an int, got 2.5",
                 id="aprod_power(f, 2.5)"),
    pytest.param(sp.mnr_formula, (2.0, 2, 1), "matrix size must be an int, got 2.0",
                 id="mnr_formula(2.0, 2, 1)"),
    pytest.param(oracle.matrices_01, (2.0, 2, 2), "matrix size must be an int, got 2.0",
                 id="matrices_01(2.0, 2, 2)"),
    pytest.param(nk.stirling1_table, (-1,), "Stirling table size must be nonnegative, got -1",
                 id="stirling1_table(-1)"),
    pytest.param(nk.stirling2_table, (-1,), "Stirling table size must be nonnegative, got -1",
                 id="stirling2_table(-1)"),
]


@pytest.mark.parametrize("fn, args, message", NOT_NONNEGATIVE_INTS)
def test_a_count_size_or_atom_argument_that_is_not_a_nonnegative_int_is_refused(fn, args, message):
    with pytest.raises(DomainError, match=message):
        fn(*args)


def test_eval_counts_rejects_a_negative_count(monkeypatch):
    # a rule that negates its count stands in for a faulty one
    restrict = sp._RULES[sp.Restrict]
    negated = lambda f, n: tuple(-v for v in restrict[0](f, n))
    monkeypatch.setitem(sp._RULES, sp.Restrict, (negated, *restrict[1:]))
    sp._counts.cache_clear()
    try:
        with pytest.raises(DomainError, match="count at 1 is -1, not a nonnegative integer"):
            sp.eval_counts(sp.Restrict(sp.E(), 1), 2)
    finally:
        sp._counts.cache_clear()


def test_is_multiplicative_needs_x_at_one():
    assert sp.is_multiplicative([0, 2, 1]) == (False, (1, 1))


def test_a_non_integer_max_n_exits_3(monkeypatch, capsys):
    monkeypatch.setenv("SPECALC_MAX_N", "abc")
    assert dslcli.main(["counts", "E", "--n", "3"]) == 3
    assert capsys.readouterr().err == "error: SPECALC_MAX_N must be an integer, got 'abc'\n"
