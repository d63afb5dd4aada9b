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
species product and binds tighter than ``+``.  Parentheses and the
expression tree may nest at most ``MAX_DEPTH`` deep.

The CLI prints machine-readable records (json, csv or plain text) and
exits with 0 on success, 2 on parse errors (nesting past ``MAX_DEPTH`` and
integers past the interpreter's digit limit included), 3 on
precondition/domain errors and an ``--out`` file that cannot be opened, 4
on scale limits (a record integer too long to print included), 5 when a
check finds a mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

from . import numkit as nk
from . import oracle
from . import species as sp
from . import zindex as zi
from .errors import DomainError, ParseError, ScaleLimit, SpecalcError, ZeroConstantRequired

DEFAULT_MAX_N = 30
ZINDEX_MAX_N = 10
# Deepest the parser nests parentheses and the deepest expression tree it
# builds (a chain of n infix operators is n deep); past it, a ParseError.
MAX_DEPTH = 100

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SCALE = 4
EXIT_MISMATCH = 5

# -- tokenizer -------------------------------------------------------------------

class Token(NamedTuple):
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
        if "0" <= ch <= "9":  # not str.isdigit, which takes digits such as "²" too
            j = i
            while j < len(src) and "0" <= src[j] <= "9":
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

# The grammar is read off the node classes by their ``name``: a class with
# no fields is an atom, any other but the infix Sum and Prod a call whose
# arguments are its fields, in order (those in ``int_fields`` take an
# integer, the others an expression).
_PREFIX_NODES = [cls for cls in sp.SpeciesExpr.__subclasses__() if cls not in (sp.Sum, sp.Prod)]
ATOMS = {cls.name: cls for cls in _PREFIX_NODES if not cls.fields}
CALLS = {cls.name: cls for cls in _PREFIX_NODES if cls.fields}


_EXPR_START = ("an atom (X, 1, E, Ep, L, Lp, C, S, Sp)", "a call", "'('")


class ParsedProgram(NamedTuple):
    source: str
    ast: sp.SpeciesExpr
    spans: dict  # node path tuple -> (start offset, end offset)


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = tokenize(src)
        self.i = 0
        self.nesting = 0  # open parentheses, grouping and call alike

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, message, expected=(), at=None):
        t = at or self.peek()
        raise ParseError(message, t.line, t.col, expected)

    def expect(self, kind, what):
        if self.peek().kind != kind:
            self.fail(f"found {self.peek().text!r}" if self.peek().text else "input ended", (what,))
        return self.advance()

    def open_paren(self):
        if self.nesting == MAX_DEPTH:
            self.fail(f"parentheses nest deeper than {MAX_DEPTH}")
        self.nesting += 1
        self.advance()

    def close_paren(self):
        self.expect("rparen", "')'")
        self.nesting -= 1

    def node(self, cls, args, child_spans, start, end, at):
        """Build a node and its spans; fail at ``at`` if the tree grows too deep."""
        spans = {(): (start, end)}
        for i, cs in enumerate(child_spans):
            spans.update({(i,) + p: v for p, v in cs.items()})
        if max(map(len, spans)) > MAX_DEPTH:
            self.fail(f"expression nests deeper than {MAX_DEPTH}", at=at)
        return cls(*args), spans

    def parse(self) -> ParsedProgram:
        node, spans = self.parse_expr()
        if self.peek().kind != "eof":
            self.fail(f"trailing input {self.peek().text!r}", ("end of input",))
        return ParsedProgram(self.src, node, spans)

    def parse_expr(self):
        return self.parse_chain("plus", sp.Sum, self.parse_term)

    def parse_term(self):
        return self.parse_chain("star", sp.Prod, self.parse_factor)

    def parse_chain(self, op, cls, operand):
        """Left-associated chain of operands joined by one infix operator."""
        node, spans = operand()
        while self.peek().kind == op:
            op_tok = self.advance()
            rhs, rspans = operand()
            node, spans = self.node(
                cls, (node, rhs), (spans, rspans), spans[()][0], rspans[()][1], op_tok
            )
        return node, spans

    def parse_factor(self):
        t = self.peek()
        if t.kind == "lparen":
            self.open_paren()
            node, spans = self.parse_expr()
            self.close_paren()
            return node, spans
        if t.kind == "int":
            if t.text in ATOMS:  # the atom 1
                self.advance()
                return ATOMS[t.text](), {(): (t.pos, t.pos + len(t.text))}
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
        cls = CALLS[name]
        self.open_paren()
        args = []
        child_spans = []
        for idx, f in enumerate(cls.fields):
            if idx:
                self.expect("comma", "','")
            if f in cls.int_fields:
                t = self.expect("int", "an integer")
                try:
                    args.append(int(t.text))
                except ValueError:  # past the interpreter's str-to-int digit limit
                    self.fail(f"integer past the {sys.get_int_max_str_digits()}-digit limit", at=t)
            else:
                node, spans = self.parse_expr()
                args.append(node)
                child_spans.append(spans)
        end = self.peek().pos + 1
        self.close_paren()
        return self.node(cls, args, child_spans, name_tok.pos, end, name_tok)


def parse(text: str) -> ParsedProgram:
    """Parse a species expression; raise ParseError with position on failure."""
    return _Parser(text).parse()


# -- canonical printer -------------------------------------------------------------

def to_source(expr: sp.SpeciesExpr) -> str:
    """Canonical source text; parsing it returns an equal tree."""
    if not isinstance(expr, sp.SpeciesExpr):
        raise DomainError(f"no printable form for {expr!r}")
    if isinstance(expr, (sp.Sum, sp.Prod)):
        # both associate to the left, and * binds tighter than +
        left, right = to_source(expr.f), to_source(expr.g)
        if isinstance(expr, sp.Prod) and isinstance(expr.f, sp.Sum):
            left = f"({left})"
        if isinstance(expr.g, (sp.Sum, type(expr))):
            right = f"({right})"
        return f"{left} {expr.name} {right}"
    if not expr.args:
        return expr.name
    args = (str(a) if isinstance(a, int) else to_source(a) for a in expr.args)
    return f"{expr.name}({', '.join(args)})"


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


def _too_long() -> ScaleLimit:
    return ScaleLimit(
        f"record integer past the interpreter's {sys.get_int_max_str_digits()}-digit limit"
    )


def _dec(v: int) -> str:
    """Decimal text of a record integer; ScaleLimit past the interpreter's digit limit."""
    try:
        return str(v)
    except ValueError:
        raise _too_long() from None


def _rat(q: Fraction):
    return {"num": _dec(q.numerator), "den": _dec(q.denominator)}


def _rat_plain(r: dict) -> str:
    """``p/q`` text of a reduced ``{"num", "den"}`` record value; ``p`` when q is 1."""
    return r["num"] if r["den"] == "1" else f"{r['num']}/{r['den']}"


def _record(command: str, expression: str, n: int, payload: dict) -> dict:
    return {"command": command, "expression": expression, "order": str(n), "payload": payload}


def cmd_counts(expr_text: str, n: int) -> dict:
    _check_order(n)
    prog = parse(expr_text)
    counts = sp.eval_counts(prog.ast, n)
    return _record("counts", to_source(prog.ast), n, {"counts": [_dec(c) for c in counts]})


def cmd_types(expr_text: str, n: int) -> dict:
    _check_order(n, "zindex")
    prog = parse(expr_text)
    counts = sp.type_counts(prog.ast, n)
    return _record("types", to_source(prog.ast), n, {"type_counts": [_dec(c) for c in counts]})


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
    return _record("zindex", to_source(prog.ast), n, {"rows": rows})


def cmd_dirichlet(expr_text: str, n: int) -> dict:
    _check_order(n)
    prog = parse(expr_text)
    counts = sp.eval_counts(prog.ast, n)
    if counts[0]:
        raise ZeroConstantRequired("arithmetic product operand has a nonzero constant term")
    terms = [Fraction(c, nk.factorial(m)) for m, c in enumerate(counts) if m]
    return _record("dirichlet", to_source(prog.ast), n, {"terms": [_rat(t) for t in terms]})


def cmd_enumerate(expr_text: str, n: int) -> dict:
    """Dump every structure on {1..n} as a tagged tree (the oracle's view)."""
    if n > oracle.ENUM_LIMIT:
        raise ScaleLimit(f"enumeration order {n} exceeds oracle limit {oracle.ENUM_LIMIT}")
    _check_order(n)
    prog = parse(expr_text)
    structs = oracle.enumerate_structures(prog.ast, range(1, n + 1))
    return _record(
        "enumerate", to_source(prog.ast), n, {"count": str(len(structs)), "structures": structs}
    )


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
    return _record("check", to_source(prog.ast), n, {"rows": rows, "all_match": all_match})


def cmd_table(kind: str, n: int, k: int = 2, m: int = 2, tol: float = 1e-6) -> dict:
    payload_rows = []
    # Rectangles are the arithmetic square of Ep, k-rectangles its k-th power.
    if kind == "rect":
        _check_order(n)
        power = nk.aprod_power((0,) + (1,) * n, 2)
        for i in range(1, n + 1):
            payload_rows.append({"n": str(i), "value": _dec(power[i])})
    elif kind == "krect":
        _check_order(n)
        if k < 1:
            raise DomainError("k must be >= 1")
        power = nk.aprod_power((0,) + (1,) * n, k)
        for i in range(1, n + 1):
            payload_rows.append({"n": str(i), "k": str(k), "value": _dec(power[i])})
    elif kind == "prect":
        _check_order(n)
        # the count at n is at least Bell(n)^(k-1) (the first partition the finest,
        # the others free); past the digit limit, stop before the Stirling transform
        digits = sys.get_int_max_str_digits()
        if digits and (k - 1) * (nk.bell(n).bit_length() - 1) >= (10 ** digits).bit_length():
            raise _too_long()
        counts = sp.pr_k_exact(k, n)
        for i, v in enumerate(counts):
            payload_rows.append({"n": str(i), "k": str(k), "value": _dec(v)})
    elif kind == "mnr":
        if m < 0 or n < 0:
            raise DomainError("m and n must be nonnegative")
        if m * n > sp.MNR_CELLS:
            raise ScaleLimit(f"mnr table over {m}x{n} cells exceeds {sp.MNR_CELLS}")
        for r in range(m * n + 1):
            payload_rows.append(
                {"m": str(m), "n": str(n), "r": str(r), "value": str(sp.mnr_formula(m, n, r))}
            )
    elif kind == "pittel":
        _check_order(n)
        if k < 1:
            raise DomainError(f"need k >= 1, got {k}")
        # the numeric sums check their box sizes before the exact values are formed
        numeric = [sp.pittel_numeric(k, i, tol) for i in range(n + 1)]
        exact = sp.pr_k_exact(k, n)
        for i, (value, bound) in enumerate(numeric):
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
    return _record(f"table {kind}", "", n, {"rows": payload_rows})


# -- output formatting ----------------------------------------------------------------

# Characters of JSON gathered before each write to the output stream.
WRITE_BATCH = 1 << 16


def format_record(record: dict, fmt: str, out) -> None:
    """Write the record to the text stream ``out``, without a final newline."""
    if fmt == "json":
        _write_json(record, out)
    elif fmt == "csv":
        out.write(_format_csv(record))
    elif fmt == "plain":
        out.write(_format_plain(record))
    else:
        raise DomainError(f"unknown format {fmt!r}")


def _write_json(record, out):
    """Write exactly ``json.dumps(record, indent=2)`` in batches of ``WRITE_BATCH``.

    Oracle structures share their substructure tuples (each cycle of
    ``cart(C, L)`` sits in 720 structures), so the text of each tuple nested
    in a tuple is rendered once per depth and looked up by ``id``.  The
    memo lives for this call only, while the record keeps every keyed
    tuple alive; the outermost structures are unique and are not kept.
    """
    memo = {}
    batch, size = [], 0
    for chunk in _json_chunks(record, 0, memo):
        batch.append(chunk)
        size += len(chunk)
        if size >= WRITE_BATCH:
            out.write("".join(batch))
            batch, size = [], 0
    out.write("".join(batch))


def _json_chunks(value, depth, memo):
    """Text of ``json.dumps(value, indent=2)`` at nesting ``depth``, in pieces."""
    if not (value and isinstance(value, (dict, list))):
        yield _json_text(value, depth, memo)
        return
    inner = "\n" + "  " * (depth + 1)
    if isinstance(value, dict):
        lead = "{" + inner
        for k, v in value.items():  # records have string keys
            yield lead + _json_str(k) + ": "
            yield from _json_chunks(v, depth + 1, memo)
            lead = "," + inner
        yield "\n" + "  " * depth + "}"
    else:
        lead = "[" + inner
        for v in value:
            if v and isinstance(v, (dict, list)):
                yield lead
                yield from _json_chunks(v, depth + 1, memo)
            else:  # one piece per structure of an oracle dump
                yield lead + _json_text(v, depth + 1, memo)
            lead = "," + inner
        yield "\n" + "  " * depth + "]"


def _json_text(value, depth, memo):
    """``_json_chunks`` as one string; the tuples nested in a tuple go through ``memo``."""
    if isinstance(value, str):
        return _json_str(value)
    if type(value) is int:
        return int.__repr__(value)
    if not (value and isinstance(value, (tuple, list, dict))):
        return json.dumps(value)  # None, bool, float, empty containers
    if not isinstance(value, tuple):
        return "".join(_json_chunks(value, depth, memo))
    parts = []
    for v in value:
        if v and isinstance(v, tuple):
            key = (id(v), depth + 1)
            text = memo.get(key)
            if text is None:
                text = memo[key] = _json_text(v, depth + 1, memo)
            parts.append(text)
        else:
            parts.append(_json_text(v, depth + 1, memo))
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(parts) + "\n" + "  " * depth + "]"


def _flat_rows(record):
    payload = record["payload"]
    if "counts" in payload:
        return ["n", "count"], [[str(i), c] for i, c in enumerate(payload["counts"])]
    if "type_counts" in payload:
        return ["n", "types"], [[str(i), c] for i, c in enumerate(payload["type_counts"])]
    if "terms" in payload:
        return ["n", "term"], [[str(i + 1), _rat_plain(t)] for i, t in enumerate(payload["terms"])]
    if "structures" in payload:
        return ["index", "structure"], [
            [str(i), json.dumps(s)] for i, s in enumerate(payload["structures"])
        ]
    if "rows" in payload:
        rows = payload["rows"]
        if not rows:
            return [], []
        if "partition" in rows[0]:
            return ["partition", "fix", "coeff"], [
                [r["partition"], _rat_plain(r["fix"]), _rat_plain(r["coeff"])] for r in rows
            ]
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
            fix, coeff = _rat_plain(r["fix"]), _rat_plain(r["coeff"])
            lines.append(f"{r['partition']}: {fix} (monomial coeff {coeff})")
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
    common(pt, needs_expr=False)
    pt.add_argument("--k", type=int, default=2)
    pt.add_argument("--m", type=int, default=2)
    pt.add_argument("--tol", type=float, default=1e-6)
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
    except SpecalcError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION

    try:
        target = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    with target as out:
        format_record(record, args.format, out)
        out.write("\n")
    if args.command == "check" and not record["payload"]["all_match"]:
        return EXIT_MISMATCH
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
