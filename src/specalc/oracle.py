"""Brute-force, set-level ground truth for every formula in the package.

Structures are canonical nested tuples with a total order, so lists of
structures are duplicate-free and deterministic, Fix counts are honest
counts of equalities, and oracle dumps reproduce byte for byte.  Each
structure leads with a tag naming its kind (``set``, ``cycle``, ``aprod``,
...); a ``plus`` or ``restrict`` node's or a sugar atom's structures are
its core operand's.  Transport reads those tags alone, never the expression.

Labels may be ints, strings, or tuples of labels (blocks of a partition
act as labels one level up); ``_key`` gives them a single total order.
``canon_labels`` sorts them natively and uses ``_key`` only when the
native comparison raises ``TypeError``; the two orders agree wherever the
native one is defined.  Scale limits are the named constants below and
raising past them is a ``ScaleLimit`` error, never silent truncation.
Every entry point reads the labels or permutation it is given through
``_labels`` or ``_permutation``; ``_enum`` is the one cache.  A node forms
its structures with ``itertools.product``, in nested-loop order, asking for
an operand only where those loops would.  The cyclic collector is paused
while structures are built: they are tuples, which hold no cycle, and each
pass would re-scan every tuple built so far.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from functools import lru_cache, reduce
from itertools import combinations, permutations, product
from operator import and_

from . import numkit as nk
from . import species as sp
from .errors import DomainError, DomainMismatch, ScaleLimit

SET_PARTITION_LIMIT = 10   # largest ground set partitions_of will expand
ENUM_LIMIT = 8             # largest ground set for structure enumeration / rectangles
PARTIAL_CANDIDATES = 2_000_000  # cap on Bell(n)^k tuples scanned for partial rectangles
MATRIX_CELL_LIMIT = 20     # cap on m*n for 0/1-matrix enumeration
ENUM_STRUCTURES = 10 ** 6  # cap on the structures one node of an enumeration builds

STAR = "*"  # the label a derivative adjoins; nesting extends it to stay fresh


def _fresh_star(labels) -> str:
    star = STAR
    present = set(labels)
    while star in present:
        star += STAR
    return star


def _key(v):
    if isinstance(v, tuple):
        return (2, tuple(_key(x) for x in v))
    if isinstance(v, str):
        return (1, v)
    return (0, v)


def canon_labels(labels) -> tuple:
    """The labels in ``_key`` order.

    A native comparison of ints, strings or tuples of them succeeds only
    where the first differing position holds two ints or two strings, and
    there it agrees with ``_key``; every mixed comparison raises.  So the
    native sort, when it finishes, gives the ``_key`` order; it raises only
    when ints, derivative stars and blocks meet, and ``_key`` sorts those.
    """
    labels = list(labels)
    try:
        labels.sort()
    except TypeError:
        labels.sort(key=_key)
    return tuple(labels)


def canon_partition(blocks) -> tuple:
    return canon_labels([canon_labels(b) for b in blocks])


def _labels(labels, what) -> tuple:
    """The labels an entry point was given, canonical, distinct and within ``ENUM_LIMIT``."""
    labels = canon_labels(labels)
    if len(set(labels)) != len(labels):
        raise DomainError("labels must be distinct")
    if len(labels) > ENUM_LIMIT:
        raise ScaleLimit(f"{what} on {len(labels)} labels exceeds limit {ENUM_LIMIT}")
    return labels


def _permutation(sigma, what) -> tuple:
    """The canonical domain of a map that permutes it, checked as ``_labels`` checks labels."""
    if canon_labels(sigma.values()) != canon_labels(sigma):
        raise DomainMismatch("sigma is not a permutation of its domain")
    return _labels(sigma, what)


# -- partitions ------------------------------------------------------------------

def partitions_of(labels) -> tuple:
    """All set partitions of a canonical label tuple, deterministic order.

    Each is canonical as built: the block that takes the least label leads.
    """
    if len(labels) > SET_PARTITION_LIMIT:
        raise ScaleLimit(f"partitions of {len(labels)} labels exceeds limit {SET_PARTITION_LIMIT}")
    if not labels:
        return ((),)
    first, rest = labels[0], labels[1:]
    out = []
    for part in partitions_of(rest):
        out.append(((first,),) + part)
        for i in range(len(part)):
            out.append(((first,) + part[i],) + part[:i] + part[i + 1 :])
    return tuple(out)


def set_partitions(n: int):
    """All partitions of {1..n}."""
    nk.check_order(n)
    return list(partitions_of(tuple(range(1, n + 1))))


def meet(p, q):
    """Common refinement of two partitions of the same set."""
    block_of_q = {u: j for j, b in enumerate(q) for u in b}
    groups = {}
    for i, b in enumerate(p):
        for u in b:
            groups.setdefault((i, block_of_q[u]), []).append(u)
    return canon_partition(tuple(tuple(g) for g in groups.values()))


def is_finest(p) -> bool:
    return all(len(b) == 1 for b in p)


# -- rectangles -------------------------------------------------------------------

def _proper_factorizations(m):
    return [(d,) + r for d in nk.divisors(m)[1:] for r in _proper_factorizations(m // d)] if m > 1 else [()]


def _ordered_factorizations(n, k):
    """The k-tuples of positive ints with product n, in lexicographic order.

    Each is an ordered factorization of n into factors above 1 (at most
    log2 n of them) set at k positions among ones, so no step recurses on k.
    """
    shapes = []
    for factors in _proper_factorizations(n):
        for places in combinations(range(k), len(factors)):
            shape = [1] * k
            for j, d in zip(places, factors):
                shape[j] = d
            shapes.append(tuple(shape))
    return sorted(shapes)


def _k_rectangles_of(labels, k):
    """All k-tuples of pairwise-gridding partitions, one per canonical grid filling.

    A canonical filling of a grid shape puts the first label at the zero
    cell, and the labels increase along each axis line through that cell;
    every k-rectangle has exactly one, and it is the first of its
    rectangle's fillings in permutation order.  The cells are filled in
    row-major order, depth first, with the free labels ascending, so the
    k-rectangles come shape by shape in that order.  The labels are
    canonical, so label indices in ascending order give sorted blocks, and
    blocks in order of their least index give canonical partitions.  The
    walk is a loop, not a recursive closure, so it leaves no cycle behind.
    """
    n = len(labels)
    if n == 0:
        return (tuple(() for _ in range(k)),)
    out = []
    for shape in _ordered_factorizations(n, k):
        cells = list(product(*map(range, shape)))
        stride = [1] * k  # a cell's row-major index moves by stride[j] along axis j
        for j in range(k - 1, 0, -1):
            stride[j - 1] = stride[j] * shape[j]
        # the cell whose label a cell's label must exceed: its predecessor on
        # an axis line through the zero cell, else the zero cell (no constraint)
        after = []
        for c, cell in enumerate(cells):
            axis = [j for j, x in enumerate(cell) if x]
            after.append(c - stride[axis[0]] if len(axis) == 1 else 0)
        fill = [0] * n  # the label index at each cell
        free = [False] + [True] * (n - 1)
        c, i = 1, 1  # the cell to fill and the least label index to try there
        while c:
            if c == n:
                at = [None] * n
                for cell, idx in zip(cells, fill):
                    at[idx] = cell
                axes = []
                for j in range(k):
                    blocks = {}
                    for u, cell in zip(labels, at):
                        blocks.setdefault(cell[j], []).append(u)
                    axes.append(tuple(map(tuple, blocks.values())))
                out.append(tuple(axes))
            else:
                while i < n and not free[i]:
                    i += 1
                if i < n:
                    free[i], fill[c] = False, i
                    c += 1
                    i = fill[after[c]] + 1 if c < n else 0
                    continue
            c -= 1  # back up a cell and try its next free label
            free[fill[c]] = True
            i = fill[c] + 1
    return tuple(out)


def rectangles_of(labels):
    """The rectangles on the labels: (π, τ) tuples of partitions, one per axis."""
    return list(_k_rectangles_of(_labels(labels, "rectangles"), 2))


def k_rectangles(n: int, k: int):
    nk.check_order(n)
    labels = _labels(range(1, n + 1), "k-rectangles")
    nk.check_k(k)
    # the k-rectangles are the structures of the k-th arithmetic power of E+
    count = nk.aprod_power((0,) + (1,) * n, k)[n] if n else 1
    if count * k > ENUM_STRUCTURES:
        raise ScaleLimit(
            f"k_rectangles({n}, {k}) would build {count * k} partitions, "
            f"past the oracle budget {ENUM_STRUCTURES}"
        )
    return list(_k_rectangles_of(labels, k))


def _k_partial_rectangles_of(labels, k, parts):
    """The k-tuples of ``parts``, the partitions of the canonical labels, whose meet is the finest.

    Each partition is an int bit set of the label pairs it joins into one
    block; the meet of a tuple joins the pairs every partition joins, so it
    is the finest exactly when the AND of the bit sets is 0.  No meet is
    formed, and the first k - 1 bit sets are ANDed once per prefix.  Tuples
    come in ``product(parts, repeat=k)`` order.
    """
    index = {u: i for i, u in enumerate(labels)}
    joins = []
    for p in parts:
        bits = 0
        for b in p:
            for u, v in combinations(b, 2):
                bits |= 1 << (index[u] * len(labels) + index[v])
        joins.append(bits)
    pairs = list(zip(parts, joins))
    out = []
    for prefix in product(pairs, repeat=k - 1):
        common = reduce(and_, (bits for _, bits in prefix), -1)
        head = tuple(p for p, _ in prefix)
        out += [head + (p,) for p, bits in pairs if not common & bits]
    return out


def partial_rectangles_of(labels):
    """The partial rectangles on the labels: (π, τ) tuples of partitions whose meet is the finest."""
    labels = _labels(labels, "partial rectangles")
    parts = partitions_of(labels)
    if len(parts) ** 2 > PARTIAL_CANDIDATES:
        raise ScaleLimit(f"{len(parts)}^2 partition pairs exceed limit {PARTIAL_CANDIDATES}")
    return _k_partial_rectangles_of(labels, 2, parts)


def k_partial_rectangles(n: int, k: int):
    nk.check_k(k)
    parts = set_partitions(n)
    # any base >= 2 passes the limit by the exponent PARTIAL_CANDIDATES.bit_length()
    if len(parts) ** min(k, PARTIAL_CANDIDATES.bit_length()) > PARTIAL_CANDIDATES:
        raise ScaleLimit(f"{len(parts)}^{k} partition tuples exceed limit {PARTIAL_CANDIDATES}")
    count = sp.pr_k_exact(k, n)[n]
    if count * k > ENUM_STRUCTURES:
        raise ScaleLimit(
            f"k_partial_rectangles({n}, {k}) would build {count * k} partitions, "
            f"past the oracle budget {ENUM_STRUCTURES}"
        )
    return _k_partial_rectangles_of(tuple(range(1, n + 1)), k, parts)


# -- structure enumeration -----------------------------------------------------------

@contextmanager
def _collector_paused():
    """The cyclic collector off for the block, and back as the caller had it, also on error."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _Operand(dict):
    """An operand's enumerations by label set, each asked of ``_enum`` once per call."""

    def __init__(self, expr):
        self.expr = expr

    def __missing__(self, labels):
        self[labels] = found = _enum(self.expr, labels)
        return found


def enumerate_structures(expr, labels):
    """Every structure of the expression on the label set, each exactly once."""
    expr = sp.validate(expr)
    with _collector_paused():
        return list(_enum(expr, _labels(labels, "enumeration")))


@lru_cache(maxsize=None)
def _enum(expr, labels):
    n = len(labels)
    size = sp._counts(expr, n)[n]
    if size > ENUM_STRUCTURES:
        raise ScaleLimit(
            f"{type(expr).__name__} has {size} structures on {n} labels, "
            f"past the oracle budget {ENUM_STRUCTURES}"
        )
    if isinstance(expr, sp.One):
        return (("one",),) if n == 0 else ()
    if isinstance(expr, sp.X):
        return (("x", labels[0]),) if n == 1 else ()
    if isinstance(expr, sp.E):
        return (("set", labels),)
    if isinstance(expr, sp.L):
        return tuple(product(("list",), permutations(labels)))
    if isinstance(expr, sp.C):
        if n == 0:
            return ()
        return tuple(("cycle", (labels[0],) + p) for p in permutations(labels[1:]))
    if isinstance(expr, sp.S):
        return tuple(
            ("perm", tuple(zip(labels, p))) for p in permutations(labels)
        )
    if isinstance(expr, sp.OnePlusXPow):
        return tuple(
            ("inj", tuple(zip(labels, img)))
            for img in permutations(range(1, expr.n + 1), n)
        )
    if isinstance(expr, (sp.Necklace, sp.AperiodicNecklace)):
        # a cycle of C, coloured; an aperiodic colouring is fixed by no proper rotation
        aperiodic_only = isinstance(expr, sp.AperiodicNecklace)
        return tuple(
            ("necklace", cyc, colors)
            for _, cyc in _enum(sp.C(), labels)
            for colors in product(range(expr.alpha), repeat=n)
            if not aperiodic_only or _necklace_period(colors) == n
        )
    if isinstance(expr, sp.Sum):
        return tuple(product(("inl",), _enum(expr.f, labels))) + tuple(
            product(("inr",), _enum(expr.g, labels))
        )
    if isinstance(expr, sp.Prod):
        out = []
        for r in range(n + 1):
            for left in combinations(labels, r):
                right = tuple(u for u in labels if u not in left)
                if lefts := _enum(expr.f, left):
                    out += product(("prod",), (left,), lefts, (right,), _enum(expr.g, right))
        return tuple(out)
    if isinstance(expr, sp.Cartesian):
        lefts = _enum(expr.f, labels)
        return tuple(product(("cart",), lefts, _enum(expr.g, labels))) if lefts else ()
    if isinstance(expr, sp.Subst):
        out, inner = [], _Operand(expr.g)
        for part in partitions_of(labels):
            inner_lists = [inner[b] for b in part]
            if all(inner_lists):
                out += product(("subst",), (part,), _enum(expr.f, part), product(*inner_lists))
        return tuple(out)
    if isinstance(expr, (sp.AProd, sp.MAProd)):
        # a partition's blocks are canonical labels one level up, as they come
        rects = rectangles_of if isinstance(expr, sp.AProd) else partial_rectangles_of
        out, fs, gs = [], _Operand(expr.f), _Operand(expr.g)
        for pi, tau in rects(labels):
            if ms := fs[pi]:
                out += product((expr.name,), (pi,), (tau,), ms, gs[tau])
        return tuple(out)
    if isinstance(expr, sp.Derivative):
        star = _fresh_star(labels)
        return tuple(
            ("deriv", s) for s in _enum(expr.f, canon_labels(labels + (star,)))
        )
    if isinstance(expr, sp.Point):
        return tuple(product(("point",), labels, _enum(expr.f, labels))) if n else ()
    if isinstance(expr, sp.NonEmpty):
        return _enum(expr.f, labels) if n else ()
    if isinstance(expr, sp.Restrict):
        return _enum(expr.f, labels) if n == expr.n else ()
    if isinstance(expr, sp.HCT):
        # root pinned to the least label: structures then follow the divisor
        # recursion exactly (a freely chosen root would multiply counts by n)
        if n == 0:
            return ()
        if n == 1:
            return (("hct", labels[0], None),)
        rest = labels[1:]
        inner = sp.AProd(sp.NonEmpty(expr.r), expr)
        return tuple(("hct", labels[0], s) for s in _enum(inner, rest))


def _necklace_period(colors):
    """The least rotation that fixes the coloring; rotation by its length always does."""
    return next(d for d in nk.divisors(len(colors)) if colors == colors[d:] + colors[:d])


# -- transport ------------------------------------------------------------------------

def transport(structure, bij):
    """Relabel a structure along a bijection; each of its nodes leads with a tag naming its kind."""
    values = list(bij.values())
    if len(set(values)) != len(values):
        raise DomainMismatch("mapping is not injective")
    return _transport(structure, dict(bij))


def _apply(bij, u):
    try:
        return bij[u]
    except KeyError:
        raise DomainMismatch(f"label {u!r} not in the bijection's domain") from None


def _map_block(bij, block):
    return canon_labels(_apply(bij, u) for u in block)


def _block_bijection(bij, part):
    return {b: _map_block(bij, b) for b in part}


def _transport(s, bij):
    """Move a structure along a bijection by its leading tag; an unknown tag is a ``DomainError``."""
    tag = s[0]
    if tag == "one":
        return s
    if tag == "x":
        return ("x", _apply(bij, s[1]))
    if tag == "set":
        return ("set", _map_block(bij, s[1]))
    if tag == "list":
        return ("list", tuple(_apply(bij, u) for u in s[1]))
    if tag in ("cycle", "necklace"):
        # the cycle turns to start at its least label, and its colours with it
        cyc = tuple(_apply(bij, u) for u in s[1])
        rot = min(range(len(cyc)), key=lambda i: _key(cyc[i]))
        return (tag,) + tuple(c[rot:] + c[:rot] for c in (cyc,) + s[2:])
    if tag in ("perm", "inj"):
        # a permutation's images are labels; an injection's are letters 1..n
        pairs = ((_apply(bij, a), _apply(bij, b) if tag == "perm" else b) for a, b in s[1])
        return (tag, tuple(sorted(pairs, key=lambda ab: _key(ab[0]))))
    if tag in ("inl", "inr", "deriv"):
        if tag == "deriv":  # the star the derivative adjoins goes to a fresh star
            bij = {**bij, _fresh_star(bij.keys()): _fresh_star(bij.values())}
        return (tag, _transport(s[1], bij))
    if tag == "point":
        return ("point", _apply(bij, s[1]), _transport(s[2], bij))
    if tag == "hct":
        _, root, sub = s
        return ("hct", _apply(bij, root), None if sub is None else _transport(sub, bij))
    if tag == "prod":
        _, left, s1, right, s2 = s
        left, right = _map_block(bij, left), _map_block(bij, right)
        return ("prod", left, _transport(s1, bij), right, _transport(s2, bij))
    if tag == "cart":
        return ("cart", _transport(s[1], bij), _transport(s[2], bij))
    if tag == "subst":
        # the inner structures follow their blocks into the new block order
        _, part, outer, inners = s
        bb = _block_bijection(bij, part)
        moved = sorted(zip(bb.values(), inners), key=lambda bi: _key(bi[0]))
        inners = tuple(_transport(i, bij) for _, i in moved)
        return ("subst", tuple(b for b, _ in moved), _transport(outer, bb), inners)
    if tag in ("aprod", "maprod"):
        _, pi, tau, m, t = s
        bpi, btau = _block_bijection(bij, pi), _block_bijection(bij, tau)
        pi, tau = canon_partition(bpi.values()), canon_partition(btau.values())
        return (tag, pi, tau, _transport(m, bpi), _transport(t, btau))
    raise DomainError(f"oracle cannot transport a {tag!r} structure")


# -- fix counts and Burnside ------------------------------------------------------------

def fix_count(expr, sigma) -> int:
    """Number of structures left fixed when transported along the permutation."""
    expr = sp.validate(expr)
    labels = _permutation(sigma, "fix count")
    with _collector_paused():
        return sum(1 for s in _enum(expr, labels) if _transport(s, sigma) == s)


def perm_of_type(lam) -> dict:
    """A representative permutation of the cycle type on {1..weight}."""
    sigma = {}
    start = 1
    for part in nk.mult_to_parts(lam):
        cyc = list(range(start, start + part))
        for i, u in enumerate(cyc):
            sigma[u] = cyc[(i + 1) % part]
        start += part
    return sigma


def fix_by_type(expr, lam) -> int:
    """Fix count at any permutation of the cycle type (conjugation-invariant)."""
    return fix_count(expr, perm_of_type(lam))


def orbit_type_count(expr, n: int) -> int:
    """Number of isomorphism types on an n-set, by averaging fix counts over S_n."""
    fact = nk.factorial(n)
    total = sum(fix_count(expr, perm_of_type(lam)) * (fact // nk.aut(lam)) for lam in nk.int_partitions(n))
    assert total % fact == 0
    return total // fact


# -- matrices and induced permutations ----------------------------------------------------

def matrices_01(m: int, n: int, r: int) -> int:
    """m x n (0,1)-matrices with r ones and no zero row or column, exhaustively."""
    for v in (m, n, r):
        nk.check_order(v, "matrix size")
    if m * n > MATRIX_CELL_LIMIT:
        raise ScaleLimit(f"{m}x{n} grid exceeds {MATRIX_CELL_LIMIT} cells")
    cells = [(i, j) for i in range(m) for j in range(n)]
    count = 0
    for chosen in combinations(cells, r):
        if len({i for i, _ in chosen}) == m and len({j for _, j in chosen}) == n:
            count += 1
    return count


def box_perm(rect, sigma1, sigma2) -> dict:
    """Permutation induced by block permutations on the two sides of a rectangle (π, τ)."""
    pi, tau = rect
    pi_of = {u: b for b in pi for u in b}
    tau_of = {u: b for b in tau for u in b}
    out = {}
    for u in pi_of:
        image = set(sigma1[pi_of[u]]).intersection(sigma2[tau_of[u]])
        assert len(image) == 1
        out[u] = next(iter(image))
    return out


def tuple_decompositions(sigma):
    """All (rect, sigma1, sigma2) whose induced permutation is sigma."""
    out = []
    for rect in _k_rectangles_of(_permutation(sigma, "tuple decompositions"), 2):
        pi, tau = rect
        for p1 in permutations(pi):
            s1 = dict(zip(pi, p1))
            for p2 in permutations(tau):
                s2 = dict(zip(tau, p2))
                if box_perm(rect, s1, s2) == sigma:
                    out.append((rect, s1, s2))
    return out
