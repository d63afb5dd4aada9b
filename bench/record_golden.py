"""Record ``golden.json``: the exit code and output digest of every benchmark request.

Usage (from the root of a checkout)::

    python3 bench/record_golden.py

Corpus requests run in fresh processes; session-pool requests run in one
process with every cache cleared before each request, so their records
are cold results that the warm session run must reproduce.

Before a record is written, every value with an independent route is
confirmed against it, and recording stops at the first disagreement:

- brute-force oracle counts, Burnside type counts and Fix values for the
  sizes the oracle can reach (n <= 8, within a structure budget);
- ``series.maprod_egf_via_shift`` (the (1+x)-basis route) for every
  expression that contains ``maprod``;
- sympy ring series for expressions built from exp/log/geometric atoms by
  sums, products and compositions (Bell numbers for ``comp(E, Ep)``),
  and for ``table prect``;
- the pinned recursion value 23715 for ``hct(E)`` at n = 10;
- expected-error requests must exit with their documented code.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import workloads as wl
from run import GOLDEN, ROOT, spawn

sys.path.insert(0, str(ROOT / "src"))

from specalc import dslcli, numkit, oracle, series, species  # noqa: E402
from specalc.errors import SpecalcError  # noqa: E402

ORACLE_MAX_N = 8
ORACLE_BUDGET = 100_000  # structures summed over all subexpressions
MAPROD_ORACLE_MAX_N = 6  # Bell(7)^2 partition pairs take tens of seconds
HCT_PIN = (10, 23715)


class Mismatch(Exception):
    pass


# -- reading records back --------------------------------------------------------

def _plain_rows(text):
    rows = []
    for line in text.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        rows.append(dict(tok.split("=", 1) for tok in line.split()))
    return rows


def _csv_rows(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def decode(command, fmt, text):
    """The numbers a record holds, as Python values."""
    if fmt == "json":
        payload = json.loads(text)["payload"]
        if command == "counts":
            return [int(c) for c in payload["counts"]]
        if command == "types":
            return [int(c) for c in payload["type_counts"]]
        if command == "dirichlet":
            return [Fraction(int(t["num"]), int(t["den"])) for t in payload["terms"]]
        if command == "zindex":
            return {r["partition"]: Fraction(int(r["fix"]["num"]), int(r["fix"]["den"]))
                    for r in payload["rows"]}
        if command == "enumerate":
            return int(payload["count"]), len(payload["structures"])
        return payload
    if command == "zindex" and fmt == "plain":
        out = {}
        for line in text.splitlines()[1:]:
            label, rest = line.split(": ", 1)
            out[label] = Fraction(rest.split(" ", 1)[0])
        return out
    rows = _plain_rows(text) if fmt == "plain" else _csv_rows(text)
    if command == "counts":
        return [int(r["count"]) for r in rows]
    if command == "types":
        return [int(r["types"]) for r in rows]
    if command == "dirichlet":
        return [Fraction(r["term"]) for r in rows]
    if command == "zindex":
        return {r["partition"]: Fraction(r["fix"]) for r in rows}
    return {"rows": rows, "all_match": "all_match=True" in text}


# -- independent routes ------------------------------------------------------------

def _nodes(expr):
    yield expr
    for ch in species.children(expr):
        yield from _nodes(ch)


def _has(expr, cls):
    return any(isinstance(node, cls) for node in _nodes(expr))


def oracle_reach(expr, upto, per_size=1) -> int:
    """Largest size m <= upto whose brute force stays within the structure budget."""
    cap = MAPROD_ORACLE_MAX_N if _has(expr, species.MAProd) else ORACLE_MAX_N
    top = min(upto, cap)
    sizes = [species.eval_counts(node, top + 1) for node in _nodes(expr)]
    reach = -1
    for m in range(top + 1):
        work = sum(max(c[: m + 2]) for c in sizes) * per_size
        if work > ORACLE_BUDGET:
            break
        reach = m
    return reach


def oracle_counts(expr, upto):
    out = []
    for m in range(oracle_reach(expr, upto) + 1):
        oracle._enum.cache_clear()
        try:
            out.append(len(oracle.enumerate_structures(expr, range(1, m + 1))))
        except SpecalcError:  # scale limit or an atom the oracle does not enumerate
            break
    oracle._enum.cache_clear()
    return out


def oracle_types(expr, upto):
    out = []
    for m in range(oracle_reach(expr, upto, per_size=len(numkit.int_partitions(upto))) + 1):
        try:
            out.append(oracle.orbit_type_count(expr, m))
        except SpecalcError:
            break
    oracle._enum.cache_clear()
    return out


def via_shift_counts(expr, n):
    """Labelled counts with every maprod node evaluated through the (1+x) basis."""
    original = species.maprod_egf
    species.maprod_egf = series.maprod_egf_via_shift
    species._egf.cache_clear()
    try:
        return species.eval_counts(expr, n)
    finally:
        species.maprod_egf = original
        species._egf.cache_clear()


def sympy_counts(expr, n):
    """Labelled counts from sympy ring series, or None if the expression has no such form."""
    from sympy import QQ, factorial
    from sympy.polys.rings import ring
    from sympy.polys.ring_series import rs_exp, rs_log, rs_mul, rs_pow, rs_series_inversion

    R, x = ring("x", QQ)
    prec = n + 1

    def inv1m(t):
        return rs_series_inversion(1 - t, x, prec)

    atoms = {
        species.One: lambda t: R(1),
        species.X: lambda t: t,
        species.E: lambda t: rs_exp(t, x, prec),
        species.Eplus: lambda t: rs_exp(t, x, prec) - 1,
        species.L: inv1m,
        species.S: inv1m,
        species.Lplus: lambda t: inv1m(t) - 1,
        species.Splus: lambda t: inv1m(t) - 1,
        species.C: lambda t: -rs_log(1 - t, x, prec),
    }

    def of(node, t):
        if type(node) in atoms:
            return atoms[type(node)](t)
        if isinstance(node, species.Ek):
            return rs_pow(t, node.k, x, prec) / factorial(node.k) if node.k else R(1)
        if isinstance(node, species.Sum):
            a, b = of(node.f, t), of(node.g, t)
            return None if a is None or b is None else a + b
        if isinstance(node, species.Prod):
            a, b = of(node.f, t), of(node.g, t)
            return None if a is None or b is None else rs_mul(a, b, x, prec)
        if isinstance(node, species.Subst):
            inner = of(node.g, t)
            return None if inner is None else of(node.f, inner)
        return None

    f = of(expr, x)
    if f is None:
        return None
    return [int(f.coeff(x ** k) * factorial(k)) if k else int(f.coeff(R(1)))
            for k in range(prec)]


def sympy_prect(k, n):
    from sympy import QQ, factorial
    from sympy.polys.rings import ring
    from sympy.polys.ring_series import rs_log, rs_mul

    R, x = ring("x", QQ)
    prec = n + 1
    lg = rs_log(1 + x, x, prec)
    out, power = R(0), R(1)
    for m in range(prec):
        out += QQ(numkit.bell(m) ** k, int(factorial(m))) * power
        power = rs_mul(power, lg, x, prec)
    return [int(out.coeff(x ** j) * factorial(j)) if j else int(out.coeff(R(1)))
            for j in range(prec)]


def label_weight(label: str) -> int:
    """Weight of a partition printed as ``1^a 2^b ...`` (``()`` is empty)."""
    if label == "()":
        return 0
    return sum(int(i) * int(m) for i, m in (tok.split("^") for tok in label.split()))


def _expect(name, got, want, checks):
    if list(got[: len(want)]) != list(want):
        raise Mismatch(f"{name}: record {got[:len(want)]} != independent {want}")
    if want:
        checks.append(name)


def cross_check(req: wl.Request, rc: int, text: str) -> list[str]:
    """Confirm a record against every independent route it has; return their names."""
    checks = []
    argv = req.argv
    command = argv[0]
    if req.expect_exit is not None:
        if rc != req.expect_exit:
            raise Mismatch(f"expected exit {req.expect_exit}, got {rc}")
        return ["expected-exit"]
    if rc != 0:
        return checks
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "plain"
    n = int(argv[argv.index("--n") + 1])
    value = decode(command, fmt, text)
    if command == "table":
        k = int(argv[argv.index("--k") + 1])
        got = [int(r["value"]) for r in value["rows"]] if isinstance(value, dict) else None
        if argv[1] == "prect":
            _expect("sympy", got, sympy_prect(k, n), checks)
            small = []
            for m in range(min(n, 4) + 1):
                small.append(len(oracle.k_partial_rectangles(m, k)))
            _expect("oracle-partial-rectangles", got, small, checks)
        elif argv[1] == "krect":
            small = [len(oracle.k_rectangles(m, k)) for m in range(1, min(n, 6) + 1)]
            _expect("oracle-k-rectangles", got, small, checks)
        return checks
    expr = dslcli.parse(argv[1]).ast
    if command in ("counts", "dirichlet"):
        if command == "dirichlet":
            counts = [0] + [int(t * numkit.factorial(m)) for m, t in enumerate(value, 1)]
            if any(t * numkit.factorial(m) != counts[m] for m, t in enumerate(value, 1)):
                raise Mismatch("a Dirichlet term times n! is not an integer")
        else:
            counts = value
        start = 1 if command == "dirichlet" else 0
        _expect("oracle", counts[start:], oracle_counts(expr, n)[start:], checks)
        if _has(expr, species.MAProd):
            _expect("via-shift", counts[start:], via_shift_counts(expr, n)[start:], checks)
        sym = sympy_counts(expr, n)
        if sym is not None:
            _expect("sympy", counts[start:], sym[start:], checks)
        if isinstance(expr, species.HCT) and isinstance(expr.r, species.E) and n >= HCT_PIN[0]:
            _expect("pinned-23715", counts[HCT_PIN[0]:HCT_PIN[0] + 1], [HCT_PIN[1]], checks)
    elif command == "types":
        _expect("oracle-burnside", value, oracle_types(expr, n), checks)
    elif command == "zindex":
        want = {}
        for w in range(oracle_reach(expr, n, per_size=len(numkit.int_partitions(n))) + 1):
            for lam in numkit.int_partitions(w):
                fix = oracle.fix_by_type(expr, lam)
                if fix:
                    want[dslcli.zi.partition_label(lam)] = Fraction(fix)
        top = max((label_weight(k) for k in want), default=-1)
        small = {k: v for k, v in value.items() if label_weight(k) <= top}
        if small != want:
            raise Mismatch(f"oracle-fix: record {small} != independent {want}")
        checks.append("oracle-fix")
        oracle._enum.cache_clear()
    elif command == "check":
        if not value["all_match"]:
            raise Mismatch("check reported a mismatch")
        checks.append("oracle-in-record")
    elif command == "enumerate":
        count, listed = value
        if count != listed or count != species.eval_counts(expr, n)[n]:
            raise Mismatch(f"enumerate: count {count}, listed {listed}")
        checks.append("eval-count")
    return checks


# -- recording -----------------------------------------------------------------------

def run_corpus(requests):
    """Each request in a fresh process, as the cold workloads run it."""
    for req in requests:
        report = spawn({"requests": [[list(req.argv), dict(req.env)]], "keep_output": True}, req.env)
        yield req, report["results"][0]


def run_pool(requests):
    """All pool requests in one process, every cache cleared before each."""
    job = {"requests": [[list(r.argv), dict(r.env)] for r in requests],
           "fresh": True, "keep_output": True}
    report = spawn(job)
    yield from zip(requests, report["results"])


def main() -> int:
    records, tally = {}, {}
    corpus = [req for name in ("labelled", "unlabelled", "verify") for req in wl.CORPORA[name]]
    pool = list({req.key: req for req in wl.session_pool()}.values())
    for source, runner, requests in (("corpus", run_corpus, corpus), ("session", run_pool, pool)):
        for req, res in runner(requests):
            if res["rc"] not in (0, 2, 3, 4, 5):
                raise Mismatch(f"{req.label()}: undocumented exit code {res['rc']}")
            try:
                checks = cross_check(req, res["rc"], res["stdout"])
            except Mismatch as e:
                raise Mismatch(f"{req.label()}: {e}") from None
            records[req.key] = {"exit": res["rc"], "digest": res["digest"], "checks": ",".join(checks)}
            for c in checks or ["none"]:
                tally[c] = tally.get(c, 0) + 1
            print(f"{source:8} exit {res['rc']}  {res['latency']:8.4f} s  "
                  f"{','.join(checks) or '-':32} {req.label()}", flush=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:  # one record per line
        rows = (f"  {json.dumps(k)}: {json.dumps(records[k])}" for k in sorted(records))
        fh.write('{"records": {\n' + ",\n".join(rows) + "\n}}\n")
    print(f"{len(records)} records; independent checks: {tally}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
