"""Expression language for species and the command-line front end.

Grammar (whitespace insensitive)::

    expr   := term ("+" term)*
    term   := factor ("*" factor)*
    factor := atom | call | "(" expr ")"
    atom   := X | 1 | E | Ep | L | Lp | C | S | Sp
    call   := name "(" arg ("," arg)* ")"

Calls and their signatures: ``Ek(k) Xpow(n) OnePlusXpow(n) necklace(a)
aperiodic(a)`` take an integer; ``deriv point plus hct`` take an
expression; ``aprod maprod cart comp`` take two expressions;
``restrict(F, n)`` takes an expression and an integer.  ``*`` is the
species product and binds tighter than ``+``.

The CLI prints machine-readable records (json, csv or plain text) and
exits with 0 on success, 2 on parse errors, 3 on precondition/domain
errors, 4 on scale limits, 5 when a check finds a mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import numkit as nk
from . import oracle
from . import species as sp
from . import zindex as zi
from .errors import (
    CompositionError,
    DomainError,
    IncompleteData,
    ParseError,
    PreconditionViolated,
    ScaleLimit,
    SpecalcError,
    UnknownAtom,
    UnsupportedAtom,
    UnsupportedForCycleIndex,
    ZeroConstantRequired,
)
from .series import DirichletCoeffs, dirichlet_of, dirichlet_power

DEFAULT_MAX_N = 30
ZINDEX_MAX_N = 10

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SCALE = 4
EXIT_MISMATCH = 5

_PRECONDITION_ERRORS = (
    PreconditionViolated,
    CompositionError,
    ZeroConstantRequired,
    DomainError,
    UnknownAtom,
    UnsupportedForCycleIndex,
    UnsupportedAtom,
    IncompleteData,
)


# -- tokenizer -------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int
    line: int
    col: int


_SYMBOLS = {"+": "plus", "*": "star", "(": "lparen", ")": "rparen", ",": "comma"}


def tokenize(src: str) -> list[Token]:
    toks = []
    i, line, col = 0, 1, 1
    while i < len(src):
        ch = src[i]
        if ch in " \t\r\n":
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1
            continue
        if ch in _SYMBOLS:
            toks.append(Token(_SYMBOLS[ch], ch, i, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            toks.append(Token("int", src[i:j], i, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and src[j].isalnum():
                j += 1
            toks.append(Token("name", src[i:j], i, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", len(src), line, col))
    return toks


# -- parser ----------------------------------------------------------------------

ATOMS = {
    "X": sp.X,
    "E": sp.E,
    "Ep": sp.Eplus,
    "L": sp.L,
    "Lp": sp.Lplus,
    "C": sp.C,
    "S": sp.S,
    "Sp": sp.Splus,
}

CALLS = {
    "Ek": (("int",), lambda a: sp.Ek(a[0])),
    "Xpow": (("int",), lambda a: sp.XPow(a[0])),
    "OnePlusXpow": (("int",), lambda a: sp.OnePlusXPow(a[0])),
    "necklace": (("int",), lambda a: sp.Necklace(a[0])),
    "aperiodic": (("int",), lambda a: sp.AperiodicNecklace(a[0])),
    "deriv": (("expr",), lambda a: sp.Derivative(a[0])),
    "point": (("expr",), lambda a: sp.Point(a[0])),
    "plus": (("expr",), lambda a: sp.NonEmpty(a[0])),
    "hct": (("expr",), lambda a: sp.HCT(a[0])),
    "aprod": (("expr", "expr"), lambda a: sp.AProd(a[0], a[1])),
    "maprod": (("expr", "expr"), lambda a: sp.MAProd(a[0], a[1])),
    "cart": (("expr", "expr"), lambda a: sp.Cartesian(a[0], a[1])),
    "comp": (("expr", "expr"), lambda a: sp.Subst(a[0], a[1])),
    "restrict": (("expr", "int"), lambda a: sp.Restrict(a[0], a[1])),
}

_EXPR_START = ("an atom (X, 1, E, Ep, L, Lp, C, S, Sp)", "a call", "'('")


@dataclass(frozen=True)
class ParsedProgram:
    source: str
    ast: sp.SpeciesExpr
    spans: dict  # node path tuple -> (start offset, end offset)


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = tokenize(src)
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, message, expected=()):
        t = self.peek()
        raise ParseError(message, t.line, t.col, expected)

    def expect(self, kind, what):
        if self.peek().kind != kind:
            self.fail(f"found {self.peek().text!r}" if self.peek().text else "input ended", (what,))
        return self.advance()

    def parse(self) -> ParsedProgram:
        node, spans = self.parse_expr()
        if self.peek().kind != "eof":
            self.fail(f"trailing input {self.peek().text!r}", ("end of input",))
        return ParsedProgram(self.src, node, spans)

    def parse_expr(self):
        node, spans = self.parse_term()
        while self.peek().kind == "plus":
            self.advance()
            rhs, rspans = self.parse_term()
            node, spans = self._binary(sp.Sum, node, spans, rhs, rspans)
        return node, spans

    def parse_term(self):
        node, spans = self.parse_factor()
        while self.peek().kind == "star":
            self.advance()
            rhs, rspans = self.parse_factor()
            node, spans = self._binary(sp.Prod, node, spans, rhs, rspans)
        return node, spans

    def _binary(self, cls, left, lspans, right, rspans):
        node = cls(left, right)
        spans = {(): (lspans[()][0], rspans[()][1])}
        spans.update({(0,) + p: v for p, v in lspans.items()})
        spans.update({(1,) + p: v for p, v in rspans.items()})
        return node, spans

    def parse_factor(self):
        t = self.peek()
        if t.kind == "lparen":
            self.advance()
            node, spans = self.parse_expr()
            self.expect("rparen", "')'")
            return node, spans
        if t.kind == "int":
            if t.text == "1":
                self.advance()
                return sp.One(), {(): (t.pos, t.pos + 1)}
            self.fail(f"found number {t.text!r}", _EXPR_START)
        if t.kind == "name":
            self.advance()
            if self.peek().kind == "lparen":
                return self.parse_call(t)
            if t.text in ATOMS:
                return ATOMS[t.text](), {(): (t.pos, t.pos + len(t.text))}
            if t.text in CALLS:
                self.fail(f"{t.text!r} needs arguments", ("'('",))
            self.fail(f"unknown name {t.text!r}", _EXPR_START)
        self.fail(
            f"found {t.text!r}" if t.text else "expression missing", _EXPR_START
        )

    def parse_call(self, name_tok: Token):
        name = name_tok.text
        if name not in CALLS:
            self.fail(f"unknown call {name!r}", sorted(CALLS))
        sig, build = CALLS[name]
        self.expect("lparen", "'('")
        args = []
        child_spans = []
        for idx, kind in enumerate(sig):
            if idx:
                self.expect("comma", "','")
            if kind == "int":
                t = self.expect("int", "an integer")
                args.append(int(t.text))
                child_spans.append(None)
            else:
                node, spans = self.parse_expr()
                args.append(node)
                child_spans.append(spans)
        close = self.expect("rparen", "')'")
        node = build(args)
        spans = {(): (name_tok.pos, close.pos + 1)}
        expr_children = [cs for cs in child_spans if cs is not None]
        for i, cs in enumerate(expr_children):
            spans.update({(i,) + p: v for p, v in cs.items()})
        return node, spans


def parse(text: str) -> ParsedProgram:
    """Parse a species expression; raise ParseError with position on failure."""
    return _Parser(text).parse()


# -- canonical printer -------------------------------------------------------------

_ATOM_SRC = {
    sp.One: "1",
    sp.X: "X",
    sp.E: "E",
    sp.Eplus: "Ep",
    sp.L: "L",
    sp.Lplus: "Lp",
    sp.C: "C",
    sp.S: "S",
    sp.Splus: "Sp",
}


def to_source(expr: sp.SpeciesExpr) -> str:
    """Canonical source text; parsing it returns an equal tree."""
    t = type(expr)
    if t in _ATOM_SRC:
        return _ATOM_SRC[t]
    if isinstance(expr, sp.Ek):
        return f"Ek({expr.k})"
    if isinstance(expr, sp.XPow):
        return f"Xpow({expr.n})"
    if isinstance(expr, sp.OnePlusXPow):
        return f"OnePlusXpow({expr.n})"
    if isinstance(expr, sp.Necklace):
        return f"necklace({expr.alpha})"
    if isinstance(expr, sp.AperiodicNecklace):
        return f"aperiodic({expr.alpha})"
    if isinstance(expr, sp.Derivative):
        return f"deriv({to_source(expr.f)})"
    if isinstance(expr, sp.Point):
        return f"point({to_source(expr.f)})"
    if isinstance(expr, sp.NonEmpty):
        return f"plus({to_source(expr.f)})"
    if isinstance(expr, sp.Restrict):
        return f"restrict({to_source(expr.f)}, {expr.n})"
    if isinstance(expr, sp.HCT):
        return f"hct({to_source(expr.r)})"
    if isinstance(expr, sp.Sum):
        left = to_source(expr.f)
        right = to_source(expr.g)
        if isinstance(expr.g, sp.Sum):
            right = f"({right})"
        return f"{left} + {right}"
    if isinstance(expr, sp.Prod):
        left = to_source(expr.f)
        right = to_source(expr.g)
        if isinstance(expr.f, sp.Sum):
            left = f"({left})"
        if isinstance(expr.g, (sp.Sum, sp.Prod)):
            right = f"({right})"
        return f"{left} * {right}"
    if isinstance(expr, sp.Cartesian):
        return f"cart({to_source(expr.f)}, {to_source(expr.g)})"
    if isinstance(expr, sp.Subst):
        return f"comp({to_source(expr.f)}, {to_source(expr.g)})"
    if isinstance(expr, sp.AProd):
        return f"aprod({to_source(expr.f)}, {to_source(expr.g)})"
    if isinstance(expr, sp.MAProd):
        return f"maprod({to_source(expr.f)}, {to_source(expr.g)})"
    raise DomainError(f"no printable form for {expr!r}")


# -- record builders -----------------------------------------------------------------

def _max_n(kind: str) -> int:
    env = os.environ.get("SPECALC_MAX_N")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"SPECALC_MAX_N must be an integer, got {env!r}") from None
    return ZINDEX_MAX_N if kind == "zindex" else DEFAULT_MAX_N


def _check_order(n: int, kind: str = "series"):
    cap = _max_n(kind)
    if n < 0:
        raise DomainError(f"order must be nonnegative, got {n}")
    if n > cap:
        raise DomainError(f"order {n} exceeds the configured maximum {cap}")


def _rat(q: Fraction):
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _rat_plain(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def cmd_counts(expr_text: str, n: int) -> dict:
    _check_order(n)
    prog = parse(expr_text)
    counts = sp.eval_counts(prog.ast, n)
    return {
        "command": "counts",
        "expression": to_source(prog.ast),
        "order": str(n),
        "payload": {"counts": [str(c) for c in counts]},
    }


def cmd_types(expr_text: str, n: int) -> dict:
    _check_order(n, "zindex")
    prog = parse(expr_text)
    counts = sp.type_counts(prog.ast, n)
    return {
        "command": "types",
        "expression": to_source(prog.ast),
        "order": str(n),
        "payload": {"type_counts": [str(c) for c in counts]},
    }


def cmd_zindex(expr_text: str, n: int) -> dict:
    _check_order(n, "zindex")
    prog = parse(expr_text)
    index = sp.eval_zi(prog.ast, n)
    rows = [
        {
            "partition": zi.partition_label(lam),
            "fix": _rat(fix),
            "coeff": _rat(coeff),
        }
        for lam, fix, coeff in index.rows()
    ]
    return {
        "command": "zindex",
        "expression": to_source(prog.ast),
        "order": str(n),
        "payload": {"rows": rows},
    }


def cmd_dirichlet(expr_text: str, n: int) -> dict:
    _check_order(n)
    prog = parse(expr_text)
    terms = dirichlet_of(sp.eval_egf(prog.ast, n)).terms
    return {
        "command": "dirichlet",
        "expression": to_source(prog.ast),
        "order": str(n),
        "payload": {"terms": [_rat(t) for t in terms]},
    }


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def cmd_enumerate(expr_text: str, n: int) -> dict:
    """Dump every structure on {1..n} as a tagged tree (the oracle's view)."""
    if n > oracle.ENUM_LIMIT:
        raise ScaleLimit(f"enumeration order {n} exceeds oracle limit {oracle.ENUM_LIMIT}")
    _check_order(n)
    prog = parse(expr_text)
    structs = oracle.enumerate_structures(prog.ast, range(1, n + 1))
    return {
        "command": "enumerate",
        "expression": to_source(prog.ast),
        "order": str(n),
        "payload": {
            "count": str(len(structs)),
            "structures": [_jsonable(s) for s in structs],
        },
    }


def cmd_check(expr_text: str, n: int) -> dict:
    if n > oracle.ENUM_LIMIT:
        raise ScaleLimit(f"check order {n} exceeds oracle limit {oracle.ENUM_LIMIT}")
    _check_order(n)
    prog = parse(expr_text)
    counts = sp.eval_counts(prog.ast, n)
    rows = []
    all_match = True
    for m in range(n + 1):
        got = len(oracle.enumerate_structures(prog.ast, range(1, m + 1)))
        ok = got == counts[m]
        all_match = all_match and ok
        rows.append(
            {"n": str(m), "eval": str(counts[m]), "oracle": str(got), "match": ok}
        )
    return {
        "command": "check",
        "expression": to_source(prog.ast),
        "order": str(n),
        "payload": {"rows": rows, "all_match": all_match},
    }


def cmd_table(kind: str, n: int, k: int = 2, m: int = 2, tol: float = 1e-6) -> dict:
    payload_rows = []
    if kind == "rect":
        _check_order(n)
        for i in range(1, n + 1):
            total = sum(nk.rect_coeff(i, d) for d in nk.divisors(i))
            payload_rows.append({"n": str(i), "value": str(total)})
    elif kind == "krect":
        _check_order(n)
        if k < 1:
            raise DomainError("k must be >= 1")
        # The k-rectangles on an i-set number i! (a^{*k})(i) with a_d = 1/d!.
        power = dirichlet_power(
            DirichletCoeffs(Fraction(1, nk.factorial(d)) for d in range(1, n + 1)), k
        )
        for i in range(1, n + 1):
            total = power.term(i) * nk.factorial(i)
            assert total.denominator == 1
            payload_rows.append({"n": str(i), "k": str(k), "value": str(total)})
    elif kind == "prect":
        _check_order(n)
        counts = sp.pr_k_exact(k, n)
        for i, v in enumerate(counts):
            payload_rows.append({"n": str(i), "k": str(k), "value": str(v)})
    elif kind == "mnr":
        if m < 0 or n < 0:
            raise DomainError("m and n must be nonnegative")
        for r in range(m * n + 1):
            payload_rows.append(
                {"m": str(m), "n": str(n), "r": str(r), "value": str(sp.mnr_formula(m, n, r))}
            )
    elif kind == "pittel":
        _check_order(n)
        exact = sp.pr_k_exact(k, n)
        for i in range(n + 1):
            value, bound = sp.pittel_numeric(k, i, tol)
            payload_rows.append(
                {
                    "n": str(i),
                    "k": str(k),
                    "exact": str(exact[i]),
                    "numeric": repr(value),
                    "bound": repr(bound),
                }
            )
    else:
        raise DomainError(f"unknown table kind {kind!r}")
    return {
        "command": f"table {kind}",
        "expression": "",
        "order": str(n),
        "payload": {"rows": payload_rows},
    }


# -- output formatting ----------------------------------------------------------------

def format_record(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, indent=2)
    if fmt == "csv":
        return _format_csv(record)
    if fmt == "plain":
        return _format_plain(record)
    raise DomainError(f"unknown format {fmt!r}")


def _flat_rows(record):
    payload = record["payload"]
    if "counts" in payload:
        return ["n", "count"], [[str(i), c] for i, c in enumerate(payload["counts"])]
    if "type_counts" in payload:
        return ["n", "types"], [[str(i), c] for i, c in enumerate(payload["type_counts"])]
    if "terms" in payload:
        header = ["n", "term"]
        return header, [
            [str(i + 1), _rat_plain(Fraction(int(t["num"]), int(t["den"])))]
            for i, t in enumerate(payload["terms"])
        ]
    if "structures" in payload:
        return ["index", "structure"], [
            [str(i), json.dumps(s)] for i, s in enumerate(payload["structures"])
        ]
    if "rows" in payload:
        rows = payload["rows"]
        if not rows:
            return [], []
        if "partition" in rows[0]:
            header = ["partition", "fix", "coeff"]
            out = []
            for r in rows:
                fix = Fraction(int(r["fix"]["num"]), int(r["fix"]["den"]))
                coeff = Fraction(int(r["coeff"]["num"]), int(r["coeff"]["den"]))
                out.append([r["partition"], _rat_plain(fix), _rat_plain(coeff)])
            return header, out
        header = list(rows[0])
        return header, [[str(r[h]) for h in header] for r in rows]
    return [], []


def _format_csv(record) -> str:
    header, rows = _flat_rows(record)
    lines = [",".join(header)]

    def cell(c):
        c = str(c)
        if "," in c or '"' in c:
            return '"' + c.replace('"', '""') + '"'
        return c

    lines.extend(",".join(cell(c) for c in row) for row in rows)
    return "\n".join(lines)


def _format_plain(record) -> str:
    lines = [f"# {record['command']} {record['expression']}".rstrip() + f" --n {record['order']}"]
    payload = record["payload"]
    if "rows" in payload and payload["rows"] and "partition" in payload["rows"][0]:
        for r in payload["rows"]:
            fix = Fraction(int(r["fix"]["num"]), int(r["fix"]["den"]))
            coeff = Fraction(int(r["coeff"]["num"]), int(r["coeff"]["den"]))
            lines.append(f"{r['partition']}: {_rat_plain(fix)} (monomial coeff {_rat_plain(coeff)})")
        return "\n".join(lines)
    header, rows = _flat_rows(record)
    for row in rows:
        lines.append(" ".join(f"{h}={c}" for h, c in zip(header, row)))
    if "all_match" in payload:
        lines.append(f"all_match={payload['all_match']}")
    return "\n".join(lines)


# -- entry point ------------------------------------------------------------------------

def _build_argparser():
    ap = argparse.ArgumentParser(prog="specalc", description="exact species calculator")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_expr=True):
        if needs_expr:
            p.add_argument("expr", help="species expression")
        p.add_argument("--n", type=int, required=True, help="truncation order")
        p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
        p.add_argument("--out", help="write the record to this file instead of stdout")

    for name in ("counts", "types", "zindex", "dirichlet", "check", "enumerate"):
        common(sub.add_parser(name))
    pt = sub.add_parser("table")
    pt.add_argument("kind", choices=("rect", "krect", "prect", "mnr", "pittel"))
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--k", type=int, default=2)
    pt.add_argument("--m", type=int, default=2)
    pt.add_argument("--tol", type=float, default=1e-6)
    pt.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    pt.add_argument("--out", help="write the record to this file instead of stdout")
    return ap


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        if args.command == "counts":
            record = cmd_counts(args.expr, args.n)
        elif args.command == "types":
            record = cmd_types(args.expr, args.n)
        elif args.command == "zindex":
            record = cmd_zindex(args.expr, args.n)
        elif args.command == "dirichlet":
            record = cmd_dirichlet(args.expr, args.n)
        elif args.command == "check":
            record = cmd_check(args.expr, args.n)
        elif args.command == "enumerate":
            record = cmd_enumerate(args.expr, args.n)
        else:
            record = cmd_table(args.kind, args.n, k=args.k, m=args.m, tol=args.tol)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ScaleLimit as e:
        print(f"scale limit: {e}", file=sys.stderr)
        return EXIT_SCALE
    except _PRECONDITION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SpecalcError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION

    text = format_record(record, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.command == "check" and not record["payload"]["all_match"]:
        return EXIT_MISMATCH
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
