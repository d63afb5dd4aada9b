import json
import random

import pytest

from specalc import dslcli, numkit as nk, oracle, species as sp
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
from specalc.errors import ParseError


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


def test_cmd_table_mnr():
    rec = cmd_table("mnr", 2, m=2)
    byr = {r["r"]: int(r["value"]) for r in rec["payload"]["rows"]}
    assert byr["2"] == 2
    assert byr["3"] == 4
    assert byr["4"] == 1


def test_cmd_table_prect_and_pittel():
    rec = cmd_table("prect", 4, k=2)
    assert [int(r["value"]) for r in rec["payload"]["rows"]] == [1, 1, 3, 15, 113]
    rec = cmd_table("pittel", 2, k=2, tol=1e-6)
    last = rec["payload"]["rows"][-1]
    assert last["exact"] == "3"
    assert abs(float(last["numeric"]) - 3) <= 1e-6


def test_cmd_enumerate_dumps_tagged_structures():
    rec = dslcli.cmd_enumerate("aprod(Ep, Ep)", 4)
    assert rec["payload"]["count"] == "8"
    tags = {s[0] for s in rec["payload"]["structures"]}
    assert tags == {"aprod"}
    text = format_record(rec, "json")
    assert json.loads(text) == rec
    assert main(["enumerate", "X", "--n", "1"]) == 0
    assert main(["enumerate", "X", "--n", "9"]) == 4


def test_json_format_lossless():
    big = cmd_counts("comp(L, Ep)", 20)
    text = format_record(big, "json")
    back = json.loads(text)
    assert back == big
    # a 19-digit count survives as a decimal string
    assert int(big["payload"]["counts"][20]) > 10 ** 18


def test_csv_and_plain_formats():
    rec = cmd_counts("E", 3)
    assert format_record(rec, "csv").splitlines()[0] == "n,count"
    plain = format_record(rec, "plain")
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
