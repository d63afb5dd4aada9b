import io
import json
import os
import random
import subprocess
import sys
import time
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
    a = se.DirichletCoeffs(Fraction(1, nk.factorial(d)) for d in range(1, order + 1))
    out = a
    for _ in range(k - 1):
        out = se.dirichlet_mul(out, a)
    return out


def test_krect_and_rect_tables_match_the_dirichlet_power():
    for k in range(1, 6):
        for n in range(13):
            power = _dirichlet_power(n, k)
            rows = cmd_table("krect", n, k=k)["payload"]["rows"]
            assert rows == [
                {"n": str(i), "k": str(k), "value": str(power.term(i) * nk.factorial(i))}
                for i in range(1, n + 1)
            ], (k, n)
    power = _dirichlet_power(12, 3000)
    values = [int(r["value"]) for r in cmd_table("krect", 12, k=3000)["payload"]["rows"]]
    assert values == [power.term(i) * nk.factorial(i) for i in range(1, 13)]
    for n in range(13):
        square = cmd_table("krect", n, k=2)["payload"]["rows"]
        assert cmd_table("rect", n)["payload"]["rows"] == [
            {"n": r["n"], "value": r["value"]} for r in square
        ]
    assert main(["table", "rect", "--k", "0", "--n", "6"]) == 0


def test_dirichlet_terms_match_the_fraction_route():
    rng = random.Random(70)
    for _ in range(40):
        n = rng.randint(0, 12)
        for expr in (rand_emptyfree(rng), rand_any(rng)):
            text = to_source(expr)
            try:
                want = se.dirichlet_of(sp.eval_egf(expr, n)).terms
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


def test_pittel_box_past_the_point_limit_exits_4(capsys):
    assert main(["table", "pittel", "--k", "8", "--n", "1"]) == 4
    assert "scale limit" in capsys.readouterr().err


def test_pittel_box_limit_is_checked_before_the_exact_counts(capsys):
    # Bell(30)^100000 is never formed: 9^100000 box points already exceed the limit
    start = time.perf_counter()
    assert main(["table", "pittel", "--k", "100000", "--n", "30"]) == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == "scale limit: pittel box sum over 9^100000 points exceeds 1000000\n"


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
