import io
import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import rand_any, rand_emptyfree
from specalc import dslcli, numkit as nk, oracle, series as se, species as sp
from specalc.dslcli import (
    cmd_check,
    cmd_counts,
    cmd_dirichlet,
    cmd_table,
    cmd_types,
    cmd_zindex,
    format_record,
    main,
    parse,
    to_source,
)
from specalc.errors import ParseError, ScaleLimit, SpecalcError, ZeroConstantRequired


def test_parse_direct_mapping():
    assert parse("aprod(C, Lp)").ast == sp.AProd(sp.C(), sp.Lplus())
    assert parse("X + X*X").ast == sp.Sum(sp.X(), sp.Prod(sp.X(), sp.X()))
    assert parse("comp(E, Ep)").ast == sp.Subst(sp.E(), sp.Eplus())
    assert parse("restrict(S, 3)").ast == sp.Restrict(sp.S(), 3)
    assert parse("1 + Xpow(2)").ast == sp.Sum(sp.One(), sp.XPow(2))
    assert parse("maprod(E, OnePlusXpow(2))").ast == sp.MAProd(sp.E(), sp.OnePlusXPow(2))
    assert parse("hct(E)").ast == sp.HCT(sp.E())
    assert parse("necklace(2) + aperiodic(3)").ast == sp.Sum(
        sp.Necklace(2), sp.AperiodicNecklace(3)
    )


def test_parse_precedence_and_parens():
    assert parse("X + X * X").ast == sp.Sum(sp.X(), sp.Prod(sp.X(), sp.X()))
    assert parse("(X + X) * X").ast == sp.Prod(sp.Sum(sp.X(), sp.X()), sp.X())
    assert parse("X * X * X").ast == sp.Prod(sp.Prod(sp.X(), sp.X()), sp.X())


def test_parse_error_position_and_expectations():
    with pytest.raises(ParseError) as exc:
        parse("aprod(C,")
    assert exc.value.line == 1 and exc.value.col == 9
    assert exc.value.expected
    with pytest.raises(ParseError) as exc:
        parse("frobnicate(X)")
    assert "frobnicate" in str(exc.value)
    with pytest.raises(ParseError):
        parse("X + 2")
    with pytest.raises(ParseError):
        parse("X X")
    with pytest.raises(ParseError):
        parse("Ek(X)")


def test_parse_spans():
    prog = parse("aprod(C, Lp)")
    start, end = prog.spans[()]
    assert prog.source[start:end] == "aprod(C, Lp)"
    s0, e0 = prog.spans[(0,)]
    assert prog.source[s0:e0] == "C"
    s1, e1 = prog.spans[(1,)]
    assert prog.source[s1:e1] == "Lp"


def _rand_expr(rng, depth):
    if depth == 0:
        leaf = rng.choice(
            [
                sp.One(),
                sp.X(),
                sp.E(),
                sp.Eplus(),
                sp.L(),
                sp.Lplus(),
                sp.C(),
                sp.S(),
                sp.Splus(),
                sp.Ek(rng.randint(0, 4)),
                sp.XPow(rng.randint(0, 4)),
                sp.OnePlusXPow(rng.randint(0, 4)),
                sp.Necklace(rng.randint(0, 3)),
                sp.AperiodicNecklace(rng.randint(0, 3)),
            ]
        )
        return leaf
    kind = rng.choice(
        ["sum", "prod", "cart", "comp", "aprod", "maprod", "deriv", "point", "plus", "restrict", "hct"]
    )
    a = _rand_expr(rng, depth - 1)
    if kind == "sum":
        return sp.Sum(a, _rand_expr(rng, depth - 1))
    if kind == "prod":
        return sp.Prod(a, _rand_expr(rng, depth - 1))
    if kind == "cart":
        return sp.Cartesian(a, _rand_expr(rng, depth - 1))
    if kind == "comp":
        return sp.Subst(a, _rand_expr(rng, depth - 1))
    if kind == "aprod":
        return sp.AProd(a, _rand_expr(rng, depth - 1))
    if kind == "maprod":
        return sp.MAProd(a, _rand_expr(rng, depth - 1))
    if kind == "deriv":
        return sp.Derivative(a)
    if kind == "point":
        return sp.Point(a)
    if kind == "plus":
        return sp.NonEmpty(a)
    if kind == "restrict":
        return sp.Restrict(a, rng.randint(0, 5))
    return sp.HCT(a)


def test_print_parse_roundtrip():
    rng = random.Random(40)
    for _ in range(500):
        expr = _rand_expr(rng, rng.randint(0, 6))
        text = to_source(expr)
        again = parse(text)
        assert again.ast == expr, text
        assert to_source(again.ast) == text


def test_every_node_class_has_one_grammar_name_and_round_trips():
    grammar = [*dslcli.ATOMS.items(), *dslcli.CALLS.items()]
    grammar += [("+", sp.Sum), ("*", sp.Prod)]
    classes = sp.SpeciesExpr.__subclasses__()
    assert len(classes) == 25
    assert len({cls.name for cls in classes}) == 25
    assert dict(grammar) == {cls.name: cls for cls in classes}
    for cls in classes:
        assert [c for _, c in grammar].count(cls) == 1, cls
        args = [2 if f in cls.int_fields else sp.Lplus() for f in cls.fields]
        expr = cls(*args)
        text = to_source(expr)
        assert parse(text).ast == expr, text
        assert to_source(parse(text).ast) == text


def test_sugar_atoms_print_apart_from_their_core_forms():
    for sugar, text, core_text in [
        (sp.Eplus(), "Ep", "plus(E)"),
        (sp.Lplus(), "Lp", "plus(L)"),
        (sp.Splus(), "Sp", "plus(S)"),
        (sp.Ek(2), "Ek(2)", "restrict(E, 2)"),
        (sp.XPow(3), "Xpow(3)", "restrict(L, 3)"),
    ]:
        assert to_source(sugar) == text
        assert to_source(sp.core(sugar)) == core_text
        assert parse(text).ast != parse(core_text).ast


@pytest.mark.parametrize(
    "expr_text",
    [
        "(" * 3000 + "X" + ")" * 3000,
        "deriv(" * 400 + "X" + ")" * 400,
        "+".join(["X"] * 3001),
        "*".join(["X"] * 3001),
    ],
    ids=["parens", "deriv", "sum-chain", "prod-chain"],
)
def test_nesting_past_max_depth_exits_2_fast(expr_text, capsys):
    start = time.perf_counter()
    assert main(["counts", expr_text, "--n", "3"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"deeper than {dslcli.MAX_DEPTH}" in err


def test_nested_derivatives_past_the_weight_bound_exit_4_fast(capsys):
    text = "deriv(" * 100 + "E" + ")" * 100
    for command in ("types", "zindex"):
        start = time.perf_counter()
        assert main([command, text, "--n", "10"]) == 4
        assert time.perf_counter() - start < 1.0
        assert f"past {sp.ZI_DERIV_BOUND}" in capsys.readouterr().err


def test_derivative_weight_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr(sp, "ZI_DERIV_BOUND", 6)
    twice = sp.Derivative(sp.Derivative(sp.E()))
    assert sp.type_counts(twice, 4) == [1] * 5
    with pytest.raises(ScaleLimit):
        sp.type_counts(twice, 5)


def test_module_entry_point_prints_no_warning():
    src = str(Path(dslcli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "specalc.dslcli", "counts", "E", "--n", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[1:] == [f"n={n} count=1" for n in range(4)]


def test_nesting_at_max_depth_parses_and_errors_point_at_the_excess():
    depth = dslcli.MAX_DEPTH
    assert main(["counts", "(" * depth + "X" + ")" * depth, "--n", "2"]) == 0
    assert main(["counts", "deriv(" * depth + "E" + ")" * depth, "--n", "2"]) == 0
    assert parse("+".join(["X"] * (depth + 1))).ast is not None
    with pytest.raises(ParseError) as exc:
        parse("+".join(["X"] * (depth + 2)))
    assert exc.value.col == 2 * (depth + 1)  # the operator that makes the chain too deep
    with pytest.raises(ParseError) as exc:
        parse("deriv(" * (depth + 1) + "X" + ")" * (depth + 1))
    assert exc.value.col == 6 * depth + 6  # the parenthesis one past the limit


def test_cmd_counts_table1():
    rec = cmd_counts("hct(E)", 10)
    got = [int(v) for v in rec["payload"]["counts"]]
    assert got == sp.hct_counts(sp.E(), 10)
    assert got[1:10] == [1, 1, 2, 3, 10, 11, 192, 193, 3554]


def test_cmd_types_divisor_counts():
    rec = cmd_types("aprod(Lp, Lp)", 8)
    assert [int(v) for v in rec["payload"]["type_counts"]][1:] == [
        nk.tau(n) for n in range(1, 9)
    ]


def test_cmd_dirichlet():
    rec = cmd_dirichlet("C", 5)
    assert rec["payload"]["terms"] == [
        {"num": "1", "den": str(n)} for n in range(1, 6)
    ]


def test_cmd_zindex_rows():
    rec = cmd_zindex("Sp", 3)
    rows = {r["partition"]: r for r in rec["payload"]["rows"]}
    assert rows["1^3"]["fix"] == {"num": "6", "den": "1"}
    assert rows["1^3"]["coeff"] == {"num": "1", "den": "1"}
    assert rows["3^1"]["coeff"] == {"num": "1", "den": "1"}
    assert "()" not in rows


def test_cmd_check_matches():
    rec = cmd_check("aprod(Ep, Ep)", 6)
    assert rec["payload"]["all_match"]
    assert rec["payload"]["rows"][-1]["oracle"] == "122"
    rec = cmd_check("X", 3)
    assert rec["payload"]["all_match"]
    assert [r["eval"] for r in rec["payload"]["rows"]] == ["0", "1", "0", "0"]
    rec = cmd_check("maprod(E, E)", 4)
    assert rec["payload"]["all_match"]
    assert rec["payload"]["rows"][2]["eval"] == "3"


def test_cmd_table_rect():
    rec = cmd_table("rect", 6)
    values = [int(r["value"]) for r in rec["payload"]["rows"]]
    assert values == [1, 2, 2, 8, 2, 122]


def test_cmd_table_krect():
    rec = cmd_table("krect", 6, k=3)
    values = [int(r["value"]) for r in rec["payload"]["rows"]]
    assert values == [len(oracle.k_rectangles(n, 3)) for n in range(1, 7)]
    rec = cmd_table("krect", 1, k=3000)
    assert rec["payload"]["rows"] == [{"n": "1", "k": "3000", "value": "1"}]


def _dirichlet_power(order, k):
    """k-fold Dirichlet convolution of 1/d!, the Fraction route to k-rectangles."""
    a = se.TruncSeries([0] + [Fraction(1, nk.factorial(d)) for d in range(1, order + 1)])
    out = a
    for _ in range(k - 1):
        out = se.aprod_egf(out, a)
    return out


def test_krect_and_rect_tables_match_the_dirichlet_power():
    for k in range(1, 6):
        for n in range(13):
            power = _dirichlet_power(n, k)
            rows = cmd_table("krect", n, k=k)["payload"]["rows"]
            assert rows == [
                {"n": str(i), "k": str(k), "value": str(power.count(i))}
                for i in range(1, n + 1)
            ], (k, n)
    power = _dirichlet_power(12, 3000)
    values = [int(r["value"]) for r in cmd_table("krect", 12, k=3000)["payload"]["rows"]]
    assert values == power.counts()[1:]
    for n in range(13):
        square = cmd_table("krect", n, k=2)["payload"]["rows"]
        assert cmd_table("rect", n)["payload"]["rows"] == [
            {"n": r["n"], "value": r["value"]} for r in square
        ]
    assert main(["table", "rect", "--k", "0", "--n", "6"]) == 0


@pytest.mark.parametrize("kind", ["krect", "prect", "pittel"])
def test_k_fold_tables_refuse_k_below_1_with_one_message(kind, capsys):
    assert main(["table", kind, "--k", "0", "--n", "3"]) == 3
    assert capsys.readouterr().err == "error: need k >= 1, got 0\n"


def test_dirichlet_terms_match_the_fraction_route():
    rng = random.Random(70)
    for _ in range(40):
        n = rng.randint(0, 12)
        for expr in (rand_emptyfree(rng), rand_any(rng)):
            text = to_source(expr)
            try:
                want = se.dirichlet_of(sp.eval_egf(expr, n))
            except ZeroConstantRequired:
                with pytest.raises(ZeroConstantRequired):
                    cmd_dirichlet(text, n)
                continue
            assert cmd_dirichlet(text, n)["payload"]["terms"] == [
                {"num": str(t.numerator), "den": str(t.denominator)} for t in want
            ], (text, n)


def test_cmd_table_mnr():
    rec = cmd_table("mnr", 2, m=2)
    byr = {r["r"]: int(r["value"]) for r in rec["payload"]["rows"]}
    assert byr["2"] == 2
    assert byr["3"] == 4
    assert byr["4"] == 1


def test_mnr_table_past_the_cell_limit_exits_4(capsys):
    start = time.perf_counter()
    assert main(["table", "mnr", "--m", "40", "--n", "40"]) == 4
    assert time.perf_counter() - start < 1.0
    assert "scale limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expr_text, err",
    [
        ("deriv(aprod(Ep, Ep))", "rectangles on 9 labels exceeds limit 8"),
        ("deriv(deriv(deriv(comp(E, Ep))))", "partitions of 11 labels exceeds limit 10"),
    ],
)
def test_check_past_the_oracle_limits_under_deriv_exits_4(expr_text, err, capsys):
    # the derivative adds a label, so the oracle meets more labels than --n
    assert main(["check", expr_text, "--n", "8"]) == 4
    assert capsys.readouterr() == ("", f"scale limit: {err}\n")


def _all_zero(expr_text, n):
    rows = "".join(f"n={m} eval=0 oracle=0 match=True\n" for m in range(n + 1))
    return f"# check {expr_text} --n {n}\n{rows}all_match=True\n"


# the oracle asks for point's operand only when n >= 1, and for the right
# operand of *, cart and aprod only beside a left structure; comp asks for its
# outer operand on the empty partition of no labels
LAZY_OPERANDS = [
    ("point(necklace(5))", 0, 0, _all_zero("point(necklace(5))", 0), ""),
    ("cart(restrict(E, 2), necklace(5))", 1, 0, _all_zero("cart(restrict(E, 2), necklace(5))", 1), ""),
    ("restrict(E, 2) * necklace(5)", 1, 0, _all_zero("restrict(E, 2) * necklace(5)", 1), ""),
    ("aprod(restrict(Ep, 2), necklace(5))", 1, 0, _all_zero("aprod(restrict(Ep, 2), necklace(5))", 1), ""),
    ("comp(necklace(5), restrict(Ep, 2))", 1, 3, "", "error: necklace alphabet 5 exceeds limit 3\n"),
]


@pytest.mark.parametrize(
    "expr_text, n, code, out, err", LAZY_OPERANDS, ids=[case[0] for case in LAZY_OPERANDS]
)
def test_check_asks_the_oracle_for_an_operand_only_where_nested_loops_would(
    expr_text, n, code, out, err, capsys
):
    assert main(["check", expr_text, "--n", str(n)]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("m, n", [("0", "10" * 15), ("10" * 15, "0")])
def test_mnr_table_with_a_zero_dimension_is_one_row_fast(m, n, capsys):
    start = time.perf_counter()
    assert main(["table", "mnr", "--m", m, "--n", n]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.endswith(" r=0 value=0\n")


def test_cmd_table_prect_and_pittel():
    rec = cmd_table("prect", 4, k=2)
    assert [int(r["value"]) for r in rec["payload"]["rows"]] == [1, 1, 3, 15, 113]
    rec = cmd_table("pittel", 2, k=2, tol=1e-6)
    last = rec["payload"]["rows"][-1]
    assert last["exact"] == "3"
    assert abs(float(last["numeric"]) - 3) <= 1e-6


def _formatted(record, fmt):
    buf = io.StringIO()
    format_record(record, fmt, buf)
    return buf.getvalue()


def test_cmd_enumerate_dumps_tagged_structures():
    rec = dslcli.cmd_enumerate("aprod(Ep, Ep)", 4)
    assert rec["payload"]["count"] == "8"
    tags = {s[0] for s in rec["payload"]["structures"]}
    assert tags == {"aprod"}
    text = _formatted(rec, "json")
    assert text == json.dumps(rec, indent=2)
    assert main(["enumerate", "X", "--n", "1"]) == 0
    assert main(["enumerate", "X", "--n", "9"]) == 4


def _node_classes(expr):
    yield type(expr)
    for child in sp.children(expr):
        yield from _node_classes(child)


def test_json_dump_of_random_enumerations_is_the_stdlib_text():
    # conftest draws, wrapped so that cart, comp and hct appear too; draws
    # past 2000 structures or failing a precondition stop at that order
    rng = random.Random(66)
    exprs = []
    for _ in range(30):
        a, b = rand_any(rng), rand_emptyfree(rng)
        exprs += [a, b, sp.Cartesian(a, b), sp.Subst(a, b), sp.HCT(b)]
    seen, dumps = set(), 0
    for expr in exprs:
        for n in range(5):
            try:
                if sp.eval_counts(expr, n)[n] > 2000:
                    break
                rec = dslcli.cmd_enumerate(to_source(expr), n)
            except SpecalcError:
                break
            assert _formatted(rec, "json") == json.dumps(rec, indent=2), (expr, n)
            seen.update(_node_classes(expr))
            dumps += 1
    assert len(seen) == 25
    assert dumps > 300


def test_json_dump_of_every_command_record_is_the_stdlib_text():
    records = [
        cmd_counts("comp(L, Ep)", 20),
        cmd_types("aprod(Ep, Ep)", 8),
        cmd_zindex("comp(E, Ep)", 6),
        cmd_zindex("Xpow(5)", 3),  # no rows: an empty list
        cmd_dirichlet("maprod(C, C)", 12),
        cmd_check("aprod(C, Lp)", 5),
        cmd_table("rect", 12),
        cmd_table("krect", 12, k=3),
        cmd_table("prect", 8, k=2),
        cmd_table("mnr", 3, m=2),
        cmd_table("pittel", 4, k=2),
    ]
    assert records[3]["payload"]["rows"] == []
    for rec in records:
        assert _formatted(rec, "json") == json.dumps(rec, indent=2), rec["command"]
    # a dump far past one write batch arrives in bounded writes, same bytes
    rec = dslcli.cmd_enumerate("cart(C, L)", 5)
    sizes = []

    class Recorder(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    out = Recorder()
    format_record(rec, "json", out)
    assert out.getvalue() == json.dumps(rec, indent=2)
    assert len(sizes) > 1
    assert all(dslcli.WRITE_BATCH <= size < 2 * dslcli.WRITE_BATCH for size in sizes[:-1])


def test_json_writes_a_list_or_dict_inside_a_tuple_as_json_dumps_does():
    rec = {"command": "enumerate", "payload": {"structures": [("a", [1, 2], {"k": (3,)})]}}
    assert _formatted(rec, "json") == json.dumps(rec, indent=2)


def test_json_format_lossless():
    big = cmd_counts("comp(L, Ep)", 20)
    text = _formatted(big, "json")
    back = json.loads(text)
    assert back == big
    # a 19-digit count survives as a decimal string
    assert int(big["payload"]["counts"][20]) > 10 ** 18


def test_csv_and_plain_formats():
    rec = cmd_counts("E", 3)
    assert _formatted(rec, "csv").splitlines()[0] == "n,count"
    plain = _formatted(rec, "plain")
    assert plain.splitlines()[1] == "n=0 count=1"
    # a cycle index with no terms keeps its header
    empty = dslcli.cmd_zindex("restrict(E, 5)", 2)
    assert empty["payload"]["rows"] == []
    assert _formatted(empty, "csv") == "partition,fix,coeff"
    assert _formatted(empty, "plain") == "# zindex restrict(E, 5) --n 2"


def test_main_exit_codes(capsys, monkeypatch):
    assert main(["counts", "Ep", "--n", "5"]) == 0
    assert main(["counts", "aprod(C,", "--n", "5"]) == 2
    assert main(["counts", "aprod(E, E)", "--n", "5"]) == 3
    assert main(["types", "maprod(E, E)", "--n", "4"]) == 3
    assert main(["check", "X", "--n", "20"]) == 4
    capsys.readouterr()
    # a forced oracle disagreement must exit 5
    monkeypatch.setattr(
        dslcli.oracle, "enumerate_structures", lambda expr, labels: []
    )
    assert main(["check", "Ep", "--n", "2"]) == 5
    capsys.readouterr()


def test_check_does_not_share_the_restrict_rule_with_the_oracle(capsys, monkeypatch):
    # a restrict count rule that keeps size n + 1 must disagree with the oracle
    _, *rest = sp._RULES[sp.Restrict]
    wrong = lambda f, n: tuple(v if m == n + 1 else 0 for m, v in enumerate(f))
    sp._counts.cache_clear(), oracle._enum.cache_clear()
    monkeypatch.setitem(sp._RULES, sp.Restrict, (wrong, *rest))
    try:
        assert main(["check", "restrict(E, 3)", "--n", "4"]) == 5
    finally:
        sp._counts.cache_clear(), oracle._enum.cache_clear()
    capsys.readouterr()


def test_pittel_box_past_the_point_limit_exits_4(capsys):
    assert main(["table", "pittel", "--k", "8", "--n", "1"]) == 4
    assert "scale limit" in capsys.readouterr().err


def test_pittel_box_limit_is_checked_before_the_exact_counts(capsys):
    # neither Bell(30)^100000 nor e^(-100000)'s enclosure is formed: 9^100000
    # box points already exceed the limit
    start = time.perf_counter()
    assert main(["table", "pittel", "--k", "100000", "--n", "30"]) == 4
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err == "scale limit: pittel box sum over 9^100000 points exceeds 1000000\n"


def test_pittel_table_forms_e_minus_k_and_the_exact_column_once(monkeypatch):
    calls = {"pr_k_exact": 0, "_einv_enclosure": 0}
    for name in calls:

        def counting(*args, name=name, fn=getattr(sp, name)):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(sp, name, counting)
    cmd_table("pittel", 10, k=2)
    assert calls == {"pr_k_exact": 1, "_einv_enclosure": 1}


def test_prect_table_rows_are_the_exact_partial_rectangle_counts():
    rows = cmd_table("prect", 30, k=3)["payload"]["rows"]
    assert [row["value"] for row in rows] == [str(v) for v in sp.pr_k_exact(3, 30)]


def test_prect_past_the_digit_limit_exits_4_before_the_transform(capsys):
    # at n=2 the value is 2^k - 1: 4300 digits at k=14284, 4301 at k=14285;
    # from k=14286 the size bound Bell(2)^(k-1) stops it before the transform
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for k, rc in ((14284, 0), (14285, 4), (14286, 4)):
            assert main(["table", "prect", "--k", str(k), "--n", "2"]) == rc, k
            err = capsys.readouterr().err
            if rc:
                assert err == "scale limit: record integer past the interpreter's 4300-digit limit\n"
        start = time.perf_counter()
        assert main(["table", "prect", "--k", "30000", "--n", "30"]) == 4
        assert time.perf_counter() - start < 1.0
    finally:
        sys.set_int_max_str_digits(limit)


def test_pittel_non_finite_tolerance_exits_3(capsys):
    for tol in ("nan", "inf"):
        assert main(["table", "pittel", "--k", "2", "--n", "2", "--tol", tol]) == 3
        err = capsys.readouterr().err
        assert "tolerance must be finite and positive" in err
        assert "Traceback" not in err


def test_pittel_tolerance_is_read_exactly(capsys):
    # 1e-400 is the float 0.0, but read exactly it is a positive tolerance
    # that no box closes, so the box limit stops the first row
    assert main(["table", "pittel", "--k", "2", "--n", "2", "--tol", "1e-400"]) == 4
    err = capsys.readouterr().err
    assert err == "scale limit: pittel box sum over 1025^2 points exceeds 1000000\n"
    # a tolerance that is not finite and positive is still named as its float,
    # as is one whose exponent is past the decimal range
    past_decimal = "1e-" + "9" * 21
    for tol, shown in (("0", "0.0"), ("-1", "-1.0"), ("-0", "-0.0"), ("1e400", "inf"),
                       (past_decimal, "0.0")):
        assert main(["table", "pittel", "--k", "2", "--n", "2", "--tol", tol]) == 3
        err = capsys.readouterr().err
        assert err == f"error: tolerance must be finite and positive, got {shown}\n"


def test_omitted_tolerance_is_exactly_1e_minus_6():
    argv = ["table", "pittel", "--n", "3"]
    for args in (dslcli._plain_args(argv), dslcli._build_argparser().parse_args(argv)):
        assert type(args.tol) is Decimal
        assert args.tol == dslcli._tolerance("1e-6")
    assert cmd_table("pittel", 3) == cmd_table("pittel", 3, tol=dslcli._tolerance("1e-6"))


def test_pittel_tolerance_float_rejects_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "pittel", "--k", "2", "--n", "2", "--tol", "abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("specalc table: error: argument --tol: invalid float value: 'abc'\n")


def test_max_n_env_override(monkeypatch, capsys):
    assert main(["counts", "E", "--n", "31"]) == 3
    monkeypatch.setenv("SPECALC_MAX_N", "40")
    assert main(["counts", "E", "--n", "31"]) == 0
    monkeypatch.setenv("SPECALC_MAX_N", "5")
    assert main(["zindex", "E", "--n", "6"]) == 3
    capsys.readouterr()


def test_main_out_file(tmp_path, capsys):
    target = tmp_path / "rec.json"
    assert main(["counts", "X", "--n", "2", "--format", "json", "--out", str(target)]) == 0
    data = json.loads(target.read_text())
    assert data["payload"]["counts"] == ["0", "1", "0"]
    out = capsys.readouterr().out
    assert out == ""


def test_out_path_that_cannot_be_opened_exits_3(tmp_path, capsys):
    for target in (tmp_path / "missing" / "rec.txt", tmp_path):
        assert main(["counts", "E", "--n", "2", "--out", str(target)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""


def test_non_ascii_digits_are_a_parse_error_at_the_character(capsys):
    for text in ("Ek(\u00b2)", "Ek(\u0661)"):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.col == 4
        assert main(["counts", text, "--n", "3"]) == 2
        assert "unexpected character" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, env, code",
    [
        (["counts", f"necklace({10 ** 200})", "--n", "30"], None, 4),
        (["dirichlet", f"necklace({10 ** 200})", "--n", "30"], None, 4),
        (["types", f"necklace({10 ** 500})", "--n", "10"], None, 4),
        (["counts", "L", "--n", "2000"], "2000", 4),
        (["counts", "Ek(" + "7" * 5000 + ")", "--n", "3"], None, 2),
    ],
    ids=["counts", "dirichlet", "types", "max-n", "literal"],
)
def test_integers_past_the_digit_limit_exit_cleanly(argv, env, code, monkeypatch, capsys):
    if env is not None:
        monkeypatch.setenv("SPECALC_MAX_N", env)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("scale limit: " if code == 4 else "parse error: ")
    assert str(sys.get_int_max_str_digits()) in err
    if code == 2:
        with pytest.raises(ParseError) as exc:
            parse(argv[1])
        assert exc.value.col == 4


def test_pittel_stops_once_no_box_can_close_the_enclosure(capsys):
    # at k=2 from row 21 on, the first box sum alone is too wide for the tolerance
    start = time.perf_counter()
    assert main(["table", "pittel", "--k", "2", "--n", "30"]) == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == "scale limit: pittel box sum over 1601^2 points exceeds 1000000\n"


def test_cli_import_loads_no_dataclasses():
    # -S keeps site .pth files, which may import anything, out of the check
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import specalc.dslcli, sys;"
        " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


def _rows_record(kind, n, rows):
    """The ``table`` record with these rows, every value a decimal string."""
    rows = [{key: str(v) for key, v in row.items()} for row in rows]
    return {"command": f"table {kind}", "expression": "", "order": str(n), "payload": {"rows": rows}}


_RECT_ROWS = [{"n": i, "value": v} for i, v in enumerate((1, 2, 2, 8, 2, 122), start=1)]
_MNR_ROWS = [{"m": 2, "n": 3, "r": r, "value": v} for r, v in enumerate((0, 0, 0, 6, 12, 6, 1))]
_PITTEL_ROWS = [
    {"n": 0, "k": 2, "exact": 1, "numeric": "0.9999999999999989", "bound": "1.0951171661710881e-15"},
    {"n": 1, "k": 2, "exact": 1, "numeric": "0.9999998886645389", "bound": "1.1151548316936965e-07"},
    {"n": 2, "k": 2, "exact": 3, "numeric": "2.999999979917642", "bound": "2.1771928952444763e-08"},
    {"n": 3, "k": 2, "exact": 15, "numeric": "14.999999995667075", "bound": "5.136982555086051e-09"},
]


@pytest.mark.parametrize(
    "argv, plain, record",
    [
        (
            ["rect", "--n", "6"],
            "# table rect --n 6\nn=1 value=1\nn=2 value=2\nn=3 value=2\n"
            "n=4 value=8\nn=5 value=2\nn=6 value=122\n",
            _rows_record("rect", 6, _RECT_ROWS),
        ),
        (
            ["rect", "--n", "6", "--k", "0"],
            "# table rect --n 6\nn=1 value=1\nn=2 value=2\nn=3 value=2\n"
            "n=4 value=8\nn=5 value=2\nn=6 value=122\n",
            _rows_record("rect", 6, _RECT_ROWS),
        ),
        (
            ["mnr", "--m", "2", "--n", "3"],
            "# table mnr --n 3\nm=2 n=3 r=0 value=0\nm=2 n=3 r=1 value=0\n"
            "m=2 n=3 r=2 value=0\nm=2 n=3 r=3 value=6\nm=2 n=3 r=4 value=12\n"
            "m=2 n=3 r=5 value=6\nm=2 n=3 r=6 value=1\n",
            _rows_record("mnr", 3, _MNR_ROWS),
        ),
        (
            ["pittel", "--k", "2", "--n", "3"],
            "# table pittel --n 3\n"
            "n=0 k=2 exact=1 numeric=0.9999999999999989 bound=1.0951171661710881e-15\n"
            "n=1 k=2 exact=1 numeric=0.9999998886645389 bound=1.1151548316936965e-07\n"
            "n=2 k=2 exact=3 numeric=2.999999979917642 bound=2.1771928952444763e-08\n"
            "n=3 k=2 exact=15 numeric=14.999999995667075 bound=5.136982555086051e-09\n",
            _rows_record("pittel", 3, _PITTEL_ROWS),
        ),
    ],
    ids=["rect", "rect-k0", "mnr", "pittel"],
)
def test_table_text_outside_the_golden_set(argv, plain, record, capsys):
    assert main(["table", *argv]) == 0
    assert capsys.readouterr().out == plain
    assert main(["table", *argv, "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(record, indent=2) + "\n"


def test_main_calls_the_builder_bound_when_it_runs(monkeypatch, capsys):
    # a tracer rebinds the cmd_* names after import; main must reach the new binding
    stub = {"command": "counts", "expression": "stub", "order": "1", "payload": {"counts": ["7"]}}
    monkeypatch.setattr(dslcli, "cmd_counts", lambda expr_text, n: stub)
    assert main(["counts", "E", "--n", "1"]) == 0
    assert capsys.readouterr().out == "# counts stub --n 1\nn=0 count=7\n"


def test_krect_past_the_digit_limit_exits_4_before_any_power(monkeypatch, capsys):
    # the value at 2^a is at least C(a + k - 1, a), the ordered factorizations of
    # 2^a into k powers of two: at n=30 and a 4,001-digit k, about 16,000 digits
    k = "9" * 4001
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        def no_power(*args):
            raise AssertionError("aprod_power called")

        with monkeypatch.context() as m:
            m.setattr(nk, "aprod_power", no_power)
            assert main(["table", "krect", "--k", k, "--n", "30"]) == 4
            err = capsys.readouterr().err
            assert err == "scale limit: record integer past the interpreter's 4300-digit limit\n"
        # at n=3 the values are 1, k, k, all printable
        assert main(["table", "krect", "--k", k, "--n", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "n=1 k=" + k + " value=1",
            "n=2 k=" + k + " value=" + k,
            "n=3 k=" + k + " value=" + k,
        ]
    finally:
        sys.set_int_max_str_digits(limit)


class _FailingStream(io.StringIO):
    """An ``--out`` file whose write or close fails as a full disk does."""

    def __init__(self, fail_on):
        super().__init__()
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise OSError(28, "No space left on device")
        return super().write(text)

    def close(self):
        super().close()
        if self.fail_on == "close":
            raise OSError(28, "No space left on device")


@pytest.mark.parametrize("fail_on", ["write", "close"])
def test_out_file_that_cannot_be_written_exits_3(fail_on, monkeypatch, capsys):
    monkeypatch.setattr(dslcli, "open", lambda *a, **k: _FailingStream(fail_on), raising=False)
    assert main(["counts", "E", "--n", "3", "--out", "rec.txt"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert captured.out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_file_on_a_full_device_exits_3(capsys):
    assert main(["counts", "E", "--n", "3", "--out", "/dev/full"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno 28] ")
    assert "Traceback" not in captured.err


# Help and usage errors come from argparse alone; recorded with Python 3.11 at
# COLUMNS=80, before the plain argv reader existed.  Python 3.10 heads the
# option list "optional arguments:" instead of "options:".
_USAGE_COUNTS = "usage: specalc counts [-h] --n N [--format {json,csv,plain}] [--out OUT] expr\n"
_USAGE_TABLE = (
    "usage: specalc table [-h] --n N [--format {json,csv,plain}] [--out OUT]\n"
    "                     [--k K] [--m M] [--tol TOL]\n"
    "                     {rect,krect,prect,mnr,pittel}\n"
)
_OPTION_HELP = (
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --n N                 truncation order\n"
    "  --format {json,csv,plain}\n"
    "  --out OUT             write the record to this file instead of stdout\n"
)
_HELP = {
    "": (
        "usage: specalc [-h] {counts,types,zindex,dirichlet,check,enumerate,table} ...\n\n"
        "exact species calculator\n\n"
        "positional arguments:\n"
        "  {counts,types,zindex,dirichlet,check,enumerate,table}\n\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "counts": (
        _USAGE_COUNTS + "\npositional arguments:\n"
        "  expr                  species expression\n\n" + _OPTION_HELP
    ),
    "table": (
        _USAGE_TABLE + "\npositional arguments:\n"
        "  {rect,krect,prect,mnr,pittel}\n\n" + _OPTION_HELP
        + "  --k K\n  --m M\n  --tol TOL\n"
    ),
}
_USAGE_ERRORS = {
    ("counts", "E"): _USAGE_COUNTS
    + "specalc counts: error: the following arguments are required: --n\n",
    ("counts", "E", "--n", "x"): _USAGE_COUNTS
    + "specalc counts: error: argument --n: invalid int value: 'x'\n",
    ("counts", "E", "--n", "3", "--format", "JSON"): _USAGE_COUNTS
    + "specalc counts: error: argument --format: invalid choice: 'JSON'"
    " (choose from 'json', 'csv', 'plain')\n",
    ("table", "bogus", "--n", "3"): _USAGE_TABLE
    + "specalc table: error: argument kind: invalid choice: 'bogus'"
    " (choose from 'rect', 'krect', 'prect', 'mnr', 'pittel')\n",
}


def _for_this_python(text):
    if sys.version_info < (3, 11):
        return text.replace("\noptions:\n", "\noptional arguments:\n")
    return text


@pytest.mark.parametrize("command", list(_HELP))
def test_help_text_is_argparse_byte_for_byte(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (_for_this_python(_HELP[command]), "")


@pytest.mark.parametrize("argv", list(_USAGE_ERRORS))
def test_usage_errors_are_argparse_byte_for_byte(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", _USAGE_ERRORS[argv])


def test_abbreviated_and_equals_options_give_the_plain_record(capsys):
    assert main(["counts", "E", "--n", "3", "--format", "json"]) == 0
    plain = capsys.readouterr().out
    assert dslcli._plain_args(["counts", "E", "--n=3", "--form", "json"]) is None
    assert main(["counts", "E", "--n=3", "--form", "json"]) == 0
    assert capsys.readouterr().out == plain
    assert json.loads(plain)["payload"]["counts"] == ["1", "1", "1", "1"]
