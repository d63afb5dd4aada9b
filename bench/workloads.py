"""Request sets of the specalc benchmark.

A request is an argv for ``specalc.dslcli.main`` plus the environment it
runs under.  Orders above the program's default caps (30, or 10 for
``types``/``zindex``) set ``SPECALC_MAX_N``, the documented override.

``labelled``, ``unlabelled`` and ``verify`` are fixed corpora: every run
executes whole passes over the corpus, one fresh process per request, and
the seed only shuffles the order of each pass.  Whole passes give every
request the same weight in every run, which keeps the percentiles steady.
A run makes at least two passes, so each corpus holds at least 20 requests
(ten beyond its p75) and a pass takes about 10 s.

``session`` sends a seeded draw of small requests to one long-lived
process.  The requests come from ``session_pool()``: entry i is drawn by
the depth-2 grammar below from its own seed i, so every entry has a stored
golden record.  The run seed orders each pass over the pool; the session
runs whole passes until its time is up, so every entry weighs the same in
every run.  The first pass is cold apart from subexpressions earlier
requests shared; later passes repeat whole requests from warm caches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("labelled", "unlabelled", "verify", "session")


@dataclass(frozen=True)
class Request:
    argv: tuple
    env: tuple = ()  # sorted (name, value) pairs
    expect_exit: int | None = None  # documented exit code of an expected error
    sweep: str = field(default="", compare=False)  # (command, expression) label

    @property
    def key(self) -> str:
        """Golden-record key: the argv and the environment it runs under."""
        text = "\x1f".join(self.argv)
        if self.env:
            text += "\x1e" + "\x1f".join(f"{k}={v}" for k, v in self.env)
        return text

    def label(self) -> str:
        return " ".join(self.argv)


def _req(*argv, max_n=None, expect_exit=None):
    env = (("SPECALC_MAX_N", str(max_n)),) if max_n is not None else ()
    return Request(tuple(str(a) for a in argv), env, expect_exit)


def _sweep(command, expr, orders, fmt="plain"):
    cap = 10 if command in ("types", "zindex") else 30
    return [
        _req(command, expr, "--n", n, "--format", fmt, max_n=n if n > cap else None)
        for n in orders
    ]


# Series kernels on Fractions (_mul_trunc, compose, maprod_egf, aprod_egf);
# cycle indices and the oracle stay idle.  The sweeps show cost growth.
LABELLED = (
    _sweep("counts", "comp(E, Ep)", (20, 30, 40, 60))
    + _sweep("counts", "maprod(E, E)", (20, 30, 40))
    + _sweep("counts", "aprod(C, Lp)", (30, 60), fmt="json")
    + _sweep("dirichlet", "maprod(C, C)", (20, 30))
    + _sweep("counts", "comp(L, Ep)", (40,), fmt="csv")
    + [
        _req("counts", "maprod(Sp, comp(E, Ep))", "--n", 25),
        _req("counts", "hct(E)", "--n", 30),
        _req("counts", "comp(E, comp(Ep, Ep))", "--n", 30, "--format", "json"),
        _req("dirichlet", "aprod(Lp, comp(Ep, Ep))", "--n", 30),
        _req("table", "prect", "--k", 3, "--n", 30),
        _req("table", "krect", "--k", 3, "--n", 30),
        # expected errors: zero constant / nonzero inner constant
        _req("dirichlet", "comp(E, Ep)", "--n", 30, expect_exit=3),
        _req("counts", "comp(C, comp(E, Ep))", "--n", 30, expect_exit=3),
    ]
)

# Cycle-index kernels (_mono_mul, zi_plethysm, zi_aprod) and numkit.weight;
# the series layer stays idle.
UNLABELLED = (
    _sweep("types", "comp(E, Ep)", (8, 9, 10))
    + _sweep("types", "comp(S, C)", (8, 10))
    + _sweep("types", "aprod(Ep, Ep)", (8, 10))
    + [
        _req("types", "aprod(Sp, comp(Ep, Ep))", "--n", 10),
        _req("types", "cart(comp(E, Ep), S)", "--n", 9),
        _req("types", "comp(C, Lp)", "--n", 10, "--format", "json"),
        _req("types", "comp(S, Ep)", "--n", 9, "--format", "csv"),
        _req("types", "point(comp(E, Ep))", "--n", 9),
        _req("types", "comp(Ep, comp(Lp, Ep))", "--n", 8),
        _req("types", "aprod(C, comp(Ep, Lp))", "--n", 10),
        _req("zindex", "comp(E, Ep)", "--n", 8, "--format", "json"),
        _req("zindex", "aprod(Ep, Ep)", "--n", 8),
        _req("zindex", "comp(C, Ep)", "--n", 8, "--format", "csv"),
        _req("types", "comp(E, C)", "--n", 9),
        _req("types", "cart(S, comp(E, Lp))", "--n", 8),
        _req("types", "comp(Lp, Lp)", "--n", 10, "--format", "json"),
        _req("zindex", "comp(S, Ep)", "--n", 7),
        # expected errors: nonzero inner constant / no cycle index
        _req("types", "comp(L, comp(E, Ep))", "--n", 8, expect_exit=3),
        _req("types", "maprod(E, E)", "--n", 8, expect_exit=3),
    ]
)

# Brute-force oracle: _enum, partitions_of, meet and the rectangle
# enumerators; the JSON dumps are the heavy use of format_record.
VERIFY = [
    _req("check", "maprod(E, E)", "--n", 6),
    _req("check", "maprod(Ep, L)", "--n", 5),
    _req("enumerate", "maprod(E, E)", "--n", 5, "--format", "json"),
    _req("check", "aprod(Ep, Ep)", "--n", 8),
    _req("check", "aprod(C, Lp)", "--n", 7),
    _req("enumerate", "aprod(C, Lp)", "--n", 6, "--format", "json"),
    _req("check", "comp(E, Ep)", "--n", 8),
    _req("check", "comp(C, Ep)", "--n", 7),
    _req("enumerate", "comp(E, Ep)", "--n", 7, "--format", "json"),
    _req("check", "hct(E)", "--n", 8),
    _req("enumerate", "hct(E)", "--n", 8, "--format", "json"),
    _req("check", "cart(E, L)", "--n", 7),
    _req("check", "cart(C, S)", "--n", 6),
    _req("enumerate", "cart(C, L)", "--n", 6, "--format", "json"),
    _req("check", "hct(Lp)", "--n", 7),
    _req("check", "aprod(Lp, Lp)", "--n", 7),
    _req("check", "comp(L, Ep)", "--n", 6),
    _req("check", "cart(Ep, C)", "--n", 6),
    _req("enumerate", "maprod(Ep, Ep)", "--n", 4, "--format", "json"),
    # expected errors: oracle scale limit / nonempty operand
    _req("check", "aprod(Ep, Ep)", "--n", 9, expect_exit=4),
    _req("check", "aprod(E, E)", "--n", 8, expect_exit=3),
]


def _label_sweeps(requests):
    out = []
    for r in requests:
        if r.argv[0] == "table":
            sweep = " ".join(r.argv[:-2])
        else:
            sweep = f"{r.argv[0]} {r.argv[1]}"
        out.append(Request(r.argv, r.env, r.expect_exit, sweep))
    return tuple(out)


CORPORA = {
    "labelled": _label_sweeps(LABELLED),
    "unlabelled": _label_sweeps(UNLABELLED),
    "verify": _label_sweeps(VERIFY),
}


# -- the session grammar --------------------------------------------------------

ATOMS = ("X", "1", "E", "Ep", "L", "Lp", "C", "S", "Sp")
INT_CALLS = {  # name -> inclusive argument range, bounded up front
    "Ek": (0, 4),
    "Xpow": (0, 4),
    "OnePlusXpow": (0, 4),
    "necklace": (1, 3),
    "aperiodic": (1, 3),
}
UNARY = ("deriv", "point", "plus", "hct")
BINARY = ("aprod", "maprod", "cart", "comp")
INFIX = ("+", "*")
NODE_KINDS = ATOMS + tuple(INT_CALLS) + UNARY + ("restrict",) + BINARY + INFIX
RESTRICT_RANGE = (0, 6)

SESSION_DEPTH = 2
SESSION_ORDERS = {"counts": (10, 30), "dirichlet": (10, 30), "types": (5, 8)}
SESSION_FORMATS = ("plain", "json", "csv")
SESSION_POOL_SIZE = 1024
SESSION_PASSES = 64  # more than any run can consume


def draw_expr(rng: random.Random, depth: int, root: bool = False) -> tuple[str, set]:
    """Source text of a random expression of at most the given depth, and its node kinds.

    The root is always an operator, so every request combines species.
    """
    if root:
        kinds = UNARY + ("restrict",) + BINARY + INFIX
    else:
        kinds = NODE_KINDS if depth > 0 else ATOMS + tuple(INT_CALLS)
    kind = rng.choice(kinds)
    if kind in ATOMS:
        return kind, {kind}
    if kind in INT_CALLS:
        lo, hi = INT_CALLS[kind]
        return f"{kind}({rng.randint(lo, hi)})", {kind}
    if kind in UNARY:
        inner, seen = draw_expr(rng, depth - 1)
        return f"{kind}({inner})", seen | {kind}
    if kind == "restrict":
        inner, seen = draw_expr(rng, depth - 1)
        return f"restrict({inner}, {rng.randint(*RESTRICT_RANGE)})", seen | {kind}
    left, ls = draw_expr(rng, depth - 1)
    right, rs = draw_expr(rng, depth - 1)
    if kind in INFIX:
        return f"({left}) {kind} ({right})", ls | rs | {kind}
    return f"{kind}({left}, {right})", ls | rs | {kind}


def draw_request(rng: random.Random) -> tuple[Request, set]:
    command = rng.choice(tuple(SESSION_ORDERS))
    n = rng.randint(*SESSION_ORDERS[command])
    expr, kinds = draw_expr(rng, SESSION_DEPTH, root=True)
    fmt = rng.choice(SESSION_FORMATS)
    return _req(command, expr, "--n", n, "--format", fmt), kinds


def session_pool() -> tuple[Request, ...]:
    """The fixed pool the session draws from; entry i comes from seed i."""
    pool, covered = [], set()
    for i in range(SESSION_POOL_SIZE):
        req, kinds = draw_request(random.Random(i))
        pool.append(req)
        covered |= kinds
    missing = set(NODE_KINDS) - covered
    if missing:
        raise RuntimeError(f"session pool misses node kinds {sorted(missing)}")
    return tuple(pool)


def session_sequence(seed: int) -> list[int]:
    """Pool indices the session sends, in order: seeded passes over the whole pool."""
    rng = random.Random(seed)
    return [i for _ in range(SESSION_PASSES) for i in pass_order(range(SESSION_POOL_SIZE), rng)]


def pass_order(corpus, rng: random.Random) -> list:
    """One pass over a fixed corpus in a seeded order."""
    order = list(corpus)
    rng.shuffle(order)
    return order
