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
expression tree may nest at most ``MAX_DEPTH`` deep.  Tokens carry only
their source offset, as the parse spans do; a parse error's line and
column are computed from the offset it points at.

The CLI prints machine-readable records (json, csv or plain text) and
exits with 0 on success, 2 on parse errors (nesting past ``MAX_DEPTH`` and
integers past the interpreter's digit limit included), 3 on
precondition/domain errors and an ``--out`` file that cannot be opened or
written, 4 on scale limits (a record integer too long to print included),
5 when a check finds a mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from math import comb, isfinite
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
    pos: int  # offset into the source, as in the parse spans


_SYMBOLS = {"+": "plus", "*": "star", "(": "lparen", ")": "rparen", ",": "comma"}


def _line_col(src: str, pos: int) -> tuple[int, int]:
    """1-based line and column of the source offset, each character one column."""
    return src.count("\n", 0, pos) + 1, pos - src.rfind("\n", 0, pos)


def tokenize(src: str) -> list[Token]:
    toks = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _SYMBOLS:
            toks.append(Token(_SYMBOLS[ch], ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":  # not str.isdigit, which takes digits such as "²" too
            j = i
            while j < len(src) and "0" <= src[j] <= "9":
                j += 1
            toks.append(Token("int", src[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and src[j].isalnum():
                j += 1
            toks.append(Token("name", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", *_line_col(src, i))
    toks.append(Token("eof", "", len(src)))
    return toks


# -- parser ----------------------------------------------------------------------

# The grammar is read off the node classes by their ``name``: a class with
# no fields is an atom, any other but the infix Sum and Prod a call whose
# arguments are its fields, in order (those in ``int_fields`` take an
# integer, the others an expression).
_PREFIX_NODES = [cls for cls in sp.SpeciesExpr.__subclasses__() if cls not in (sp.Sum, sp.Prod)]
ATOMS = {cls.name: cls for cls in _PREFIX_NODES if not cls.fields}
CALLS = {cls.name: cls for cls in _PREFIX_NODES if cls.fields}


_EXPR_START = (f"an atom ({', '.join(ATOMS)})", "a call", "'('")


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
        raise ParseError(message, *_line_col(self.src, t.pos), expected)

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
    nk.check_order(n)
    if n > cap:
        raise DomainError(f"order {n} exceeds the configured maximum {cap}")


def _check_oracle_order(n: int, command: str):
    if n > oracle.ENUM_LIMIT:
        raise ScaleLimit(f"{command} order {n} exceeds oracle limit {oracle.ENUM_LIMIT}")
    _check_order(n)


def _too_long() -> ScaleLimit:
    return ScaleLimit(
        f"record integer past the interpreter's {sys.get_int_max_str_digits()}-digit limit"
    )


def _stop_past_digit_limit(log2_lower: int):
    """Raise ``_too_long()`` now if a record value of at least 2^log2_lower is past the limit."""
    digits = sys.get_int_max_str_digits()
    if digits and log2_lower >= (10 ** digits).bit_length():
        raise _too_long()


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
    tree = sp.validate(prog.ast)
    if sp.eval_counts(tree, 0)[0]:  # before the counts to n, which it would discard
        raise ZeroConstantRequired("arithmetic product operand has a nonzero constant term")
    counts = sp.eval_counts(tree, n)
    terms = [Fraction(c, nk.factorial(m)) for m, c in enumerate(counts) if m]
    return _record("dirichlet", to_source(prog.ast), n, {"terms": [_rat(t) for t in terms]})


def cmd_enumerate(expr_text: str, n: int) -> dict:
    """Dump every structure on {1..n} as a tagged tree (the oracle's view)."""
    _check_oracle_order(n, "enumeration")
    prog = parse(expr_text)
    structs = oracle.enumerate_structures(prog.ast, range(1, n + 1))
    return _record(
        "enumerate", to_source(prog.ast), n, {"count": str(len(structs)), "structures": structs}
    )


def cmd_check(expr_text: str, n: int) -> dict:
    _check_oracle_order(n, "check")
    prog = parse(expr_text)
    tree = sp.validate(prog.ast)  # once, so the oracle's cache meets the same tree
    counts = sp.eval_counts(tree, n)
    rows = []
    all_match = True
    for m in range(n + 1):
        got = len(oracle.enumerate_structures(tree, range(1, m + 1)))
        ok = got == counts[m]
        all_match = all_match and ok
        rows.append(
            {"n": str(m), "eval": str(counts[m]), "oracle": str(got), "match": ok}
        )
    return _record("check", to_source(prog.ast), n, {"rows": rows, "all_match": all_match})


def cmd_table(
    kind: str, n: int, k: int = 2, m: int = 2, tol: float | Decimal = Decimal("1e-6")
) -> dict:
    payload_rows = []
    # Rectangles are the arithmetic square of Ep, k-rectangles its k-th power.
    if kind in ("rect", "krect"):
        _check_order(n)
        if kind == "rect":
            k = 2
        nk.check_k(k)
        # the value at the largest 2^a <= n is at least C(a + k - 1, a), one
        # rectangle per ordered factorization of 2^a into k powers of two
        a = max(n.bit_length() - 1, 0)
        _stop_past_digit_limit(comb(a + k - 1, a).bit_length() - 1)
        power = nk.aprod_power((0,) + (1,) * n, k)
        k_column = {"k": str(k)} if kind == "krect" else {}
        for i in range(1, n + 1):
            payload_rows.append({"n": str(i), **k_column, "value": _dec(power[i])})
    elif kind == "prect":
        _check_order(n)
        # the count at n is at least Bell(n)^(k-1) (the first partition the finest,
        # the others free); past the digit limit, stop before the Stirling transform
        _stop_past_digit_limit((k - 1) * (nk.bell(n).bit_length() - 1))
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
        for i, (exact, value, bound) in enumerate(sp.pittel_rows(k, n, tol)):
            payload_rows.append({"n": str(i), "k": str(k), "exact": str(exact),
                                 "numeric": repr(value), "bound": repr(bound)})
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
    if record["command"] == "zindex":
        return ["partition", "fix", "coeff"], [
            [r["partition"], _rat_plain(r["fix"]), _rat_plain(r["coeff"])]
            for r in payload["rows"]
        ]
    if "rows" in payload:
        rows = payload["rows"]
        header = list(rows[0]) if rows else []
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
    if record["command"] == "zindex":
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

def _tolerance(text: str) -> float | Decimal:
    """``--tol`` as its exact decimal value, where its float is finite and it is positive.

    ``float`` decides which texts parse.  Any other value stays the float,
    so ``pittel_rows`` names it as ``float`` prints it.  A ``Decimal``
    keeps ``1e-400``, which the float rounds to 0, and compares exactly
    with the enclosure's fractions however small its exponent, without
    forming a power of ten.
    """
    value = float(text)
    try:
        exact = Decimal(text)
    except InvalidOperation:  # an exponent past the decimal range
        return value
    return exact if isfinite(value) and exact > 0 else value


_tolerance.__name__ = "float"  # argparse names the type in its error: invalid float value

_EXPR_COMMANDS = ("counts", "types", "zindex", "dirichlet", "check", "enumerate")
_TABLE_KINDS = ("rect", "krect", "prect", "mnr", "pittel")
# Each command's options, as declared to argparse; ``_plain_args`` reads the
# same type, choices, default and required.
_OPTIONS = {
    "--n": {"type": int, "required": True, "help": "truncation order"},
    "--format": {"type": str, "choices": ("json", "csv", "plain"), "default": "plain"},
    "--out": {"type": str, "help": "write the record to this file instead of stdout"},
}
_TABLE_OPTIONS = {**_OPTIONS, "--k": {"type": int, "default": 2}, "--m": {"type": int, "default": 2},
                  "--tol": {"type": _tolerance, "default": Decimal("1e-6")}}


def _build_argparser():
    ap = argparse.ArgumentParser(prog="specalc", description="exact species calculator")
    sub = ap.add_subparsers(dest="command", required=True)
    for command in _EXPR_COMMANDS + ("table",):
        p = sub.add_parser(command)
        if command == "table":
            p.add_argument("kind", choices=_TABLE_KINDS)
        else:
            p.add_argument("expr", help="species expression")
        for name, declared in (_TABLE_OPTIONS if command == "table" else _OPTIONS).items():
            p.add_argument(name, **declared)
    return ap


def _plain_args(argv):
    """What ``_build_argparser().parse_args(argv)`` returns for an argv written
    ``command positional (--name value)*``; None for any other argv.

    Each name must be an exact option of the command, and neither the
    positional nor a value may start with ``-``.  A value or choice argparse
    would reject and a missing required option give None too, so argparse
    alone words help and usage errors.  Building the parser costs a cold
    process more than most requests' arithmetic.
    """
    if len(argv) < 4 or len(argv) % 2:
        return None
    command, positional = argv[0], argv[1]
    if command == "table" and positional in _TABLE_KINDS:
        options, args = _TABLE_OPTIONS, {"command": command, "kind": positional}
    elif command in _EXPR_COMMANDS and not positional.startswith("-"):
        options, args = _OPTIONS, {"command": command, "expr": positional}
    else:
        return None
    args.update((name[2:], declared.get("default")) for name, declared in options.items())
    for name, value in zip(argv[2::2], argv[3::2]):
        declared = options.get(name)
        if declared is None or value.startswith("-"):
            return None
        try:
            value = declared["type"](value)
        except ValueError:
            return None
        if "choices" in declared and value not in declared["choices"]:
            return None
        args[name[2:]] = value
    required = [name[2:] for name, declared in options.items() if declared.get("required")]
    return None if any(args[key] is None for key in required) else argparse.Namespace(**args)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or _build_argparser().parse_args(argv)
    # looked up per call, so a rebinding of a cmd_* name after import is seen
    builders = {"counts": cmd_counts, "types": cmd_types, "zindex": cmd_zindex,
                "dirichlet": cmd_dirichlet, "check": cmd_check, "enumerate": cmd_enumerate}
    try:
        if args.command == "table":
            record = cmd_table(args.kind, args.n, k=args.k, m=args.m, tol=args.tol)
        else:
            record = builders[args.command](args.expr, args.n)
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
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
            format_record(record, args.format, out)
            out.write("\n")
    except OSError as e:
        if not args.out:
            raise  # a failed write to stdout is left to the interpreter
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.command == "check" and not record["payload"]["all_match"]:
        return EXIT_MISMATCH
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
