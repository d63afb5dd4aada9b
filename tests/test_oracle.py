import gc
import itertools
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import labelled_counts, parts_to_mult, rand_emptyfree
from specalc import dslcli
from specalc import numkit as nk
from specalc import oracle
from specalc import species as sp
from specalc import zindex as zi
from specalc.errors import DomainError, DomainMismatch, ScaleLimit, SpecalcError, UnsupportedAtom


def test_set_partitions():
    assert oracle.set_partitions(0) == [()]
    assert len(oracle.set_partitions(3)) == 5
    assert len(oracle.set_partitions(5)) == 52
    for n in range(9):
        assert len(oracle.set_partitions(n)) == nk.bell(n)
    with pytest.raises(ScaleLimit):
        oracle.set_partitions(11)


# Labels as the oracle meets them: ints, derivative stars and blocks of them.
_labels = st.recursive(
    st.integers(-3, 9) | st.text(alphabet="*", min_size=1, max_size=3),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=12,
)


@given(st.lists(_labels, max_size=8))
def test_canon_labels_is_the_key_order(labels):
    assert oracle.canon_labels(labels) == tuple(sorted(labels, key=oracle._key))
    assert oracle.canon_labels(iter(labels)) == tuple(sorted(labels, key=oracle._key))


@given(st.lists(st.lists(_labels, max_size=4), max_size=5))
def test_canon_partition_sorts_sorted_blocks_by_key(blocks):
    by_key = tuple(
        sorted((tuple(sorted(b, key=oracle._key)) for b in blocks), key=oracle._key)
    )
    assert oracle.canon_partition(blocks) == by_key


def test_enumeration_past_the_structure_budget_exits_4_fast(capsys):
    start = time.perf_counter()
    assert dslcli.main(["check", "cart(S*S, maprod(S, S))", "--n", "5"]) == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"past the oracle budget {oracle.ENUM_STRUCTURES}" in err
    assert "Traceback" not in err
    # an atom the oracle cannot enumerate is reported as such, however large
    assert dslcli.main(["enumerate", "necklace(4)", "--n", "7"]) == 3
    assert "necklace alphabet 4 exceeds limit" in capsys.readouterr().err


def test_structure_budget_is_checked_per_node_and_inclusive(monkeypatch):
    oracle._enum.cache_clear()
    monkeypatch.setattr(oracle, "ENUM_STRUCTURES", 24)
    try:
        assert len(oracle.enumerate_structures(sp.L(), range(4))) == 24
        # the sum has 48 structures, each summand 24
        with pytest.raises(ScaleLimit):
            oracle.enumerate_structures(sp.Sum(sp.L(), sp.S()), range(4))
        # the cartesian product is empty on 5 labels, but its first factor is not
        with pytest.raises(ScaleLimit):
            oracle.enumerate_structures(sp.Cartesian(sp.L(), sp.One()), range(5))
        # a restriction to another size builds nothing below it
        assert oracle.enumerate_structures(sp.Restrict(sp.L(), 4), range(5)) == []
    finally:
        oracle._enum.cache_clear()


def _canon_partitions_of(labels):
    """The reference: each partition grown from those of the rest, then made canonical."""
    if not labels:
        return ((),)
    first, rest = labels[0], labels[1:]
    out = []
    for part in _canon_partitions_of(rest):
        out.append(oracle.canon_partition(((first,),) + part))
        for i in range(len(part)):
            grown = part[:i] + (oracle.canon_labels(part[i] + (first,)),) + part[i + 1 :]
            out.append(oracle.canon_partition(grown))
    return tuple(out)


def test_partitions_of_match_the_canonicalising_reference_in_order():
    for n in range(8):
        labels = tuple(range(1, n + 1))
        assert oracle.partitions_of(labels) == _canon_partitions_of(labels), n
    # labels as _enum meets them: derivative stars, blocks one level up
    for labels in ((1, 2, "*", "**"), ("*", 4, (1, 2), 3), ((3,), (1, 2), "*")):
        labels = oracle.canon_labels(labels)
        got = oracle.partitions_of(labels)
        assert got == _canon_partitions_of(labels), labels
        assert all(p == oracle.canon_partition(p) for p in got)


def test_partition_axioms():
    for part in oracle.set_partitions(5):
        labels = [u for b in part for u in b]
        assert sorted(labels) == list(range(1, 6))
        assert all(b for b in part)


def test_rectangles_census():
    rects = oracle.rectangles_of(range(1, 5))
    assert len(rects) == 8
    heights = Counter(len(pi) for pi, _ in rects)
    assert heights == {1: 1, 2: 6, 4: 1}
    assert len(oracle.rectangles_of(range(1, 7))) == 122
    for n in range(1, 8):
        assert len(oracle.rectangles_of(range(1, n + 1))) == sum(
            nk.rect_coeff(n, d) for d in nk.divisors(n)
        )


def test_rectangle_axioms():
    for n in (1, 2, 3, 4, 6):
        for pi, tau in oracle.rectangles_of(range(1, n + 1)):
            assert oracle.is_finest(oracle.meet(pi, tau))
            for a in pi:
                for b in tau:
                    assert len(set(a) & set(b)) == 1


def test_k_rectangles_match_multinomial_census():
    for k in (1, 2, 3):
        for n in range(1, 9):
            want = 0
            for shape in itertools.product(nk.divisors(n), repeat=k):
                if math.prod(shape) == n:
                    want += nk.factorial(n) // math.prod(map(nk.factorial, shape))
            assert len(oracle.k_rectangles(n, k)) == want, (n, k)


def _fill_and_dedupe_rectangles(labels, k):
    """The reference: every filling of every shape, first of each rectangle kept.

    The first label is pinned to the zero cell of each grid shape (shapes in
    lexicographic order), the free labels run through every permutation,
    both canonical partitions of each filling are formed, and a seen set
    drops the repeats.
    """
    n = len(labels)
    if n == 0:
        return (tuple(() for _ in range(k)),)
    out, seen = [], set()
    for shape in itertools.product(nk.divisors(n), repeat=k):
        if math.prod(shape) != n:
            continue
        cells = list(itertools.product(*(range(d) for d in shape)))
        for perm in itertools.permutations(labels[1:]):
            fill = {cells[0]: labels[0]}
            fill.update(zip(cells[1:], perm))
            axes = []
            for j, d in enumerate(shape):
                blocks = [[] for _ in range(d)]
                for cell, lab in fill.items():
                    blocks[cell[j]].append(lab)
                axes.append(oracle.canon_partition(tuple(tuple(b) for b in blocks)))
            tup = tuple(axes)
            if tup not in seen:
                seen.add(tup)
                out.append(tup)
    return tuple(out)


def test_rectangles_match_the_fill_and_dedupe_reference_in_order():
    for k in (1, 2, 3):
        for n in range(8):
            labels = tuple(range(1, n + 1))
            got = oracle._k_rectangles_of(labels, k)
            assert got == _fill_and_dedupe_rectangles(labels, k), (k, n)
            for tup in got:
                for axis in tup:
                    assert axis == oracle.canon_partition(axis)
    # labels as _enum meets them: a derivative star, blocks one level up
    for labels in ((1, 2, 3, "*"), ((1,), (2, 3), (4,), (5, 6)), ("*", 4, (1, 2), 3)):
        want = _fill_and_dedupe_rectangles(oracle.canon_labels(labels), 2)
        got = oracle.rectangles_of(labels)
        assert got == list(want), labels
        for pi, tau in got:
            assert pi == oracle.canon_partition(pi)
            assert tau == oracle.canon_partition(tau)


def test_k_rectangles_at_a_deep_k_return_or_hit_the_budget():
    assert oracle.k_rectangles(1, 5000) == [(((1,),),) * 5000]
    for n, k in ((0, 10 ** 9), (2, 5000), (8, 5000), (8, 7)):
        with pytest.raises(ScaleLimit, match="past the oracle budget"):
            oracle.k_rectangles(n, k)


def test_rectangle_builders_reject_a_negative_ground_set():
    for build in (oracle.set_partitions, lambda n: oracle.k_rectangles(n, 2),
                  lambda n: oracle.k_partial_rectangles(n, 2)):
        with pytest.raises(DomainError, match="order must be nonnegative, got -1"):
            build(-1)


def test_partial_rectangles():
    assert len(oracle.partial_rectangles_of(range(1, 3))) == 3
    for pi, tau in oracle.partial_rectangles_of(range(1, 5)):
        assert oracle.is_finest(oracle.meet(pi, tau))
    for k in (1, 2, 3):
        for n in range(5):
            assert len(oracle.k_partial_rectangles(n, k)) == sp.pr_k_exact(k, n)[n]


def test_partial_rectangle_kernel_matches_the_meet_filter():
    # the kernel ANDs join bit sets; the reference forms every meet
    for k in (1, 2, 3):
        for n in range(7 if k == 2 else 6):
            labels = tuple(range(1, n + 1))
            want = []
            for tup in itertools.product(oracle.partitions_of(labels), repeat=k):
                m = tup[0]
                for q in tup[1:]:
                    m = oracle.meet(m, q)
                if oracle.is_finest(m):
                    want.append(tup)
            parts = oracle.partitions_of(labels)
            assert oracle._k_partial_rectangles_of(labels, k, parts) == want, (k, n)
    labels = (1, 2, 3, 4)
    assert oracle.partial_rectangles_of(range(1, 5)) == oracle._k_partial_rectangles_of(
        labels, 2, oracle.partitions_of(labels)
    )


def test_partial_rectangles_at_a_deep_k_take_linear_time():
    # a kernel that grows prefix tuples level by level is quadratic in k;
    # k = 10**6 is the largest k the output budget admits at n = 1
    start = time.perf_counter()
    assert oracle.k_partial_rectangles(1, 10 ** 6) == [(((1,),),) * 10 ** 6]
    assert time.perf_counter() - start < 5.0


def test_partial_rectangles_at_a_deep_k_hit_the_budget_fast():
    for n, k in ((1, 10 ** 6 + 1), (0, 10 ** 9)):
        with pytest.raises(ScaleLimit, match="past the oracle budget"):
            oracle.k_partial_rectangles(n, k)
    # the candidate check must not form Bell(3)^k = 5^(10^7) in full
    start = time.perf_counter()
    with pytest.raises(ScaleLimit, match=r"5\^10000000 partition tuples exceed limit"):
        oracle.k_partial_rectangles(3, 10 ** 7)
    assert time.perf_counter() - start < 1.0


def test_enumerate_basics():
    assert len(oracle.enumerate_structures(sp.X(), ["a"])) == 1
    assert oracle.enumerate_structures(sp.X(), []) == []
    assert len(oracle.enumerate_structures(sp.AProd(sp.C(), sp.Lplus()), range(1, 5))) == 42
    assert len(oracle.enumerate_structures(sp.HCT(sp.E()), range(1, 6))) == 10
    with pytest.raises(ScaleLimit):
        oracle.enumerate_structures(sp.E(), range(9))
    with pytest.raises(UnsupportedAtom):
        oracle.enumerate_structures(sp.Necklace(4), range(2))


def test_enumerate_no_duplicates():
    for expr in (
        sp.AProd(sp.Eplus(), sp.Eplus()),
        sp.MAProd(sp.E(), sp.E()),
        sp.Subst(sp.E(), sp.Eplus()),
        sp.Necklace(2),
    ):
        structs = oracle.enumerate_structures(expr, range(1, 5))
        assert len(structs) == len(set(structs))


CORPUS = [
    sp.AProd(sp.C(), sp.Lplus()),
    sp.AProd(sp.Lplus(), sp.Lplus()),
    sp.AProd(sp.Eplus(), sp.Eplus()),
    sp.AProd(sp.Splus(), sp.Splus()),
    sp.MAProd(sp.E(), sp.E()),
    sp.MAProd(sp.X(), sp.E()),
    sp.MAProd(sp.L(), sp.OnePlusXPow(2)),
    sp.Sum(sp.X(), sp.Prod(sp.X(), sp.X())),
    sp.Prod(sp.E(), sp.E()),
    sp.Cartesian(sp.Splus(), sp.Splus()),
    sp.Subst(sp.E(), sp.Eplus()),
    sp.Subst(sp.Lplus(), sp.Eplus()),
    sp.Point(sp.Eplus()),
    sp.Derivative(sp.C()),
    sp.Derivative(sp.Derivative(sp.C())),
    sp.NonEmpty(sp.E()),
    sp.Restrict(sp.S(), 3),
    sp.Ek(2),
    sp.XPow(3),
    sp.OnePlusXPow(2),
    sp.Necklace(2),
    sp.AperiodicNecklace(2),
    sp.HCT(sp.E()),
    sp.HCT(sp.L()),
]


def test_enumerate_matches_eval_counts():
    for expr in CORPUS:
        counts = sp.eval_counts(expr, 6)
        for n in range(7):
            got = len(oracle.enumerate_structures(expr, range(1, n + 1)))
            assert got == counts[n], (expr, n, got, counts[n])


def test_corpus_cycle_index_specializes_to_egf():
    for expr in CORPUS:
        if any(isinstance(node, (sp.MAProd, sp.HCT)) for node in _walk(expr)):
            continue
        assert labelled_counts(sp.eval_zi(expr, 6), 6) == sp.eval_counts(expr, 6), expr


def _walk(expr):
    yield expr
    for child in sp.children(expr):
        yield from _walk(child)


def test_transport_identity_and_composition():
    rng = random.Random(30)
    labels = tuple(range(1, 5))
    ident = dict(zip(labels, labels))
    cases = 0
    for expr in CORPUS:
        if isinstance(expr, sp.HCT):
            # the oracle pins the tree root to the least label, so transported
            # representations can leave the enumerated set; counts stay exact
            continue
        structs = oracle.enumerate_structures(expr, labels)
        if not structs:
            continue
        for _ in range(8):
            s = rng.choice(structs)
            p1 = list(labels)
            rng.shuffle(p1)
            s1 = dict(zip(labels, p1))
            p2 = list(labels)
            rng.shuffle(p2)
            s2 = dict(zip(labels, p2))
            assert oracle.transport(s, ident) == s
            composed = {u: s2[s1[u]] for u in labels}
            assert oracle.transport(oracle.transport(s, s1), s2) == (
                oracle.transport(s, composed)
            )
            assert oracle.transport(s, s1) in structs
            cases += 1
    assert cases >= 100


def _reference_transport(expr, s, bij):
    """The reference: the structure moved by walking its expression alongside it."""
    expr = sp.core(expr)
    if isinstance(expr, sp.One):
        return s
    if isinstance(expr, sp.X):
        return ("x", oracle._apply(bij, s[1]))
    if isinstance(expr, sp.E):
        return ("set", oracle._map_block(bij, s[1]))
    if isinstance(expr, sp.L):
        return ("list", tuple(oracle._apply(bij, u) for u in s[1]))
    if isinstance(expr, sp.C):
        cyc = tuple(oracle._apply(bij, u) for u in s[1])
        rot = min(range(len(cyc)), key=lambda i: oracle._key(cyc[i]))
        return ("cycle", cyc[rot:] + cyc[:rot])
    if isinstance(expr, sp.S):
        pairs = tuple((oracle._apply(bij, a), oracle._apply(bij, b)) for a, b in s[1])
        return ("perm", tuple(sorted(pairs, key=lambda ab: oracle._key(ab[0]))))
    if isinstance(expr, sp.OnePlusXPow):
        pairs = tuple((oracle._apply(bij, a), v) for a, v in s[1])
        return ("inj", tuple(sorted(pairs, key=lambda av: oracle._key(av[0]))))
    if isinstance(expr, (sp.Necklace, sp.AperiodicNecklace)):
        cyc = tuple(oracle._apply(bij, u) for u in s[1])
        rot = min(range(len(cyc)), key=lambda i: oracle._key(cyc[i]))
        return ("necklace", cyc[rot:] + cyc[:rot], s[2][rot:] + s[2][:rot])
    if isinstance(expr, sp.Sum):
        tag, inner = s
        return (tag, _reference_transport(expr.f if tag == "inl" else expr.g, inner, bij))
    if isinstance(expr, sp.Prod):
        _, left, s1, right, s2 = s
        return (
            "prod",
            oracle._map_block(bij, left),
            _reference_transport(expr.f, s1, bij),
            oracle._map_block(bij, right),
            _reference_transport(expr.g, s2, bij),
        )
    if isinstance(expr, sp.Cartesian):
        return (
            "cart",
            _reference_transport(expr.f, s[1], bij),
            _reference_transport(expr.g, s[2], bij),
        )
    if isinstance(expr, sp.Subst):
        _, part, souter, inners = s
        bb = oracle._block_bijection(bij, part)
        new_part = oracle.canon_partition(tuple(bb.values()))
        new_outer = _reference_transport(expr.f, souter, bb)
        moved = sorted(
            ((bb[b], _reference_transport(expr.g, i, bij)) for b, i in zip(part, inners)),
            key=lambda bi: oracle._key(bi[0]),
        )
        return ("subst", new_part, new_outer, tuple(i for _, i in moved))
    if isinstance(expr, (sp.AProd, sp.MAProd)):
        tag, pi, tau, m, t = s
        bpi = oracle._block_bijection(bij, pi)
        btau = oracle._block_bijection(bij, tau)
        return (
            tag,
            oracle.canon_partition(tuple(bpi.values())),
            oracle.canon_partition(tuple(btau.values())),
            _reference_transport(expr.f, m, bpi),
            _reference_transport(expr.g, t, btau),
        )
    if isinstance(expr, sp.Derivative):
        inner_bij = dict(bij)
        inner_bij[oracle._fresh_star(bij.keys())] = oracle._fresh_star(bij.values())
        return ("deriv", _reference_transport(expr.f, s[1], inner_bij))
    if isinstance(expr, sp.Point):
        return ("point", oracle._apply(bij, s[1]), _reference_transport(expr.f, s[2], bij))
    if isinstance(expr, (sp.NonEmpty, sp.Restrict)):
        return _reference_transport(expr.f, s, bij)
    if isinstance(expr, sp.HCT):
        _, root, sub = s
        if sub is None:
            return ("hct", oracle._apply(bij, root), None)
        inner = sp.AProd(sp.NonEmpty(expr.r), expr)
        return ("hct", oracle._apply(bij, root), _reference_transport(inner, sub, bij))
    raise UnsupportedAtom(f"oracle cannot transport {type(expr).__name__}")


# Every node class, sugar atoms included, with derivative stars nested inside
# blocks, substitutions and both arithmetic products.
TRANSPORT_CORPUS = CORPUS + [
    sp.Sum(sp.One(), sp.Derivative(sp.Prod(sp.X(), sp.Ek(2)))),
    sp.Subst(sp.Necklace(2), sp.Restrict(sp.C(), 2)),
    sp.Subst(sp.Derivative(sp.L()), sp.Point(sp.Lplus())),
    sp.MAProd(sp.Derivative(sp.C()), sp.Point(sp.E())),
    sp.AProd(sp.Splus(), sp.Subst(sp.Eplus(), sp.XPow(1))),
    sp.Cartesian(sp.Derivative(sp.Derivative(sp.E())), sp.AperiodicNecklace(3)),
    sp.HCT(sp.Sum(sp.X(), sp.C())),
]

TRANSPORT_TAGS = {
    "one", "x", "set", "list", "cycle", "perm", "inj", "necklace", "inl", "inr",
    "prod", "cart", "subst", "aprod", "maprod", "deriv", "point", "hct",
}


def test_transport_by_tags_matches_the_expression_walk(monkeypatch):
    kinds = {type(node) for expr in TRANSPORT_CORPUS for node in _walk(expr)}
    assert kinds == set(sp.SpeciesExpr.__subclasses__()) and len(kinds) == 25
    tags = set()
    tagged = oracle._transport

    def spy(s, bij):
        tags.add(s[0])
        return tagged(s, bij)

    monkeypatch.setattr(oracle, "_transport", spy)
    rng = random.Random(19)
    cases = 0
    for expr in TRANSPORT_CORPUS:
        for n in range(5):
            labels = tuple(range(1, n + 1))
            fresh = {u: u + 10 for u in labels}
            for s in oracle.enumerate_structures(expr, labels):
                shuffled = list(labels)
                rng.shuffle(shuffled)
                for bij in (dict(zip(labels, shuffled)), fresh):
                    assert oracle.transport(s, bij) == _reference_transport(expr, s, bij), (
                        expr, s, bij,
                    )
                    cases += 1
    assert cases >= 10_000
    # every tag _enum writes has its own branch, and an unknown one is named
    assert tags == TRANSPORT_TAGS
    with pytest.raises(UnsupportedAtom, match="cannot transport a 'nope' structure"):
        tagged(("nope",), {})


# -- the structure builders against the nested loops they replaced ---------------

def _nested_loop_enum(expr, labels):
    """The structures of an ``L``, ``+``, ``*``, ``cart``, ``point``, ``comp``,
    ``aprod`` or ``maprod`` node, built by nested loops that ask
    ``oracle._enum`` for an operand once per structure, as the oracle once did.
    """
    _enum = oracle._enum
    n = len(labels)
    size = sp._counts(expr, n)[n]
    if size > oracle.ENUM_STRUCTURES:
        raise ScaleLimit(
            f"{type(expr).__name__} has {size} structures on {n} labels, "
            f"past the oracle budget {oracle.ENUM_STRUCTURES}"
        )
    if isinstance(expr, sp.L):
        return tuple(("list", p) for p in itertools.permutations(labels))
    if isinstance(expr, sp.Sum):
        return tuple(("inl", s) for s in _enum(expr.f, labels)) + tuple(
            ("inr", s) for s in _enum(expr.g, labels)
        )
    if isinstance(expr, sp.Prod):
        out = []
        for r in range(n + 1):
            for left in itertools.combinations(labels, r):
                right = tuple(u for u in labels if u not in left)
                for s1 in _enum(expr.f, left):
                    for s2 in _enum(expr.g, right):
                        out.append(("prod", left, s1, right, s2))
        return tuple(out)
    if isinstance(expr, sp.Cartesian):
        return tuple(
            ("cart", s1, s2)
            for s1 in _enum(expr.f, labels)
            for s2 in _enum(expr.g, labels)
        )
    if isinstance(expr, sp.Subst):
        out = []
        for part in oracle.partitions_of(labels):
            inner_lists = [_enum(expr.g, b) for b in part]
            if any(not lst for lst in inner_lists):
                continue
            for souter in _enum(expr.f, part):
                for inners in itertools.product(*inner_lists):
                    out.append(("subst", part, souter, inners))
        return tuple(out)
    if isinstance(expr, (sp.AProd, sp.MAProd)):
        rects = oracle.rectangles_of if isinstance(expr, sp.AProd) else oracle.partial_rectangles_of
        return tuple(
            (expr.name, pi, tau, m, t)
            for pi, tau in rects(labels)
            for m in _enum(expr.f, pi)
            for t in _enum(expr.g, tau)
        )
    if isinstance(expr, sp.Point):
        return tuple(
            ("point", u, s) for u in labels for s in _enum(expr.f, labels)
        )
    raise AssertionError(f"no nested-loop builder for {type(expr).__name__}")


_BUILT = (sp.L, sp.Sum, sp.Prod, sp.Cartesian, sp.Subst, sp.AProd, sp.MAProd, sp.Point)


def _outcome(build, expr, labels):
    try:
        return build(expr, labels)
    except SpecalcError as e:
        return type(e), str(e)


def _trees(rng):
    """Trees with every built kind at the root, their operands drawn by ``rand_emptyfree``;
    about a third take a ``necklace(5)`` leaf, which the oracle refuses whenever it is asked for."""
    for _ in range(12):
        a, b = rand_emptyfree(rng), rand_emptyfree(rng)
        if rng.random() < 0.35:
            b = sp.Necklace(5)
        yield from (
            sp.Sum(a, b), sp.Prod(a, b), sp.Cartesian(a, b), sp.Point(b), sp.Subst(a, b),
            sp.AProd(a, b), sp.MAProd(a, b), sp.Prod(sp.L(), b),
        )


def test_builders_match_the_nested_loops_they_replaced():
    rng = random.Random(37)
    seen, refused, spared = set(), 0, 0
    for tree in _trees(rng):
        for node in _walk(sp.validate(tree)):
            if not isinstance(node, _BUILT):
                continue
            seen.add(type(node))
            for n in range(6):
                labels = tuple(range(1, n + 1))
                got = _outcome(oracle._enum, node, labels)
                assert got == _outcome(_nested_loop_enum, node, labels), (node, n)
                refused += isinstance(got, tuple) and got[:1] == (UnsupportedAtom,)
                spared += sp.Necklace(5) in _walk(node) and got == ()
    assert seen == set(_BUILT)
    # the necklace was refused where the loops asked for it, and not asked for elsewhere
    assert refused and spared


@pytest.mark.parametrize("kind", [k for k in sp.SpeciesExpr.__subclasses__() if k not in sp._SUGAR])
def test_every_core_node_kind_enumerates_to_a_tuple(kind):
    node = kind(*(2 if f in kind.int_fields else sp.X() for f in kind.fields))
    for n in range(3):
        assert type(oracle._enum(sp.validate(node), tuple(range(1, n + 1)))) is tuple


@pytest.mark.parametrize("enabled", [True, False])
def test_the_oracle_leaves_the_collector_as_it_found_it(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        oracle.enumerate_structures(sp.AProd(sp.Eplus(), sp.Eplus()), range(1, 5))
        assert gc.isenabled() is enabled
        oracle.fix_count(sp.Cartesian(sp.C(), sp.S()), {1: 2, 2: 3, 3: 1})
        assert gc.isenabled() is enabled
        with pytest.raises(ScaleLimit, match="Point has 4366680 structures on 8 labels"):
            oracle.enumerate_structures(sp.Point(sp.Subst(sp.S(), sp.Eplus())), range(1, 9))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_building_rectangles_leaves_no_cycle_behind():
    # with the collector held off throughout, each gc.collect() counts the
    # cycles one enumeration left; a recursive closure leaves one per shape
    was = gc.isenabled()
    gc.disable()
    try:
        found = []
        for n in (4, 8):
            oracle._enum.cache_clear()
            gc.collect()
            oracle.enumerate_structures(sp.HCT(sp.E()), range(1, n + 1))
            found.append(gc.collect())
    finally:
        if was:
            gc.enable()
    assert found[0] == found[1]


def test_transport_relabels_both_sides_of_arithmetic_product():
    expr = sp.AProd(sp.Eplus(), sp.Eplus())
    labels = (1, 2, 3, 4)
    sigma = {1: 2, 2: 3, 3: 4, 4: 1}
    structs = oracle.enumerate_structures(expr, labels)
    s = structs[0]
    moved = oracle.transport(s, sigma)
    assert moved in structs
    assert moved[1] == oracle.canon_partition(
        tuple(tuple(sigma[u] for u in b) for b in s[1])
    )


def test_transport_domain_mismatch():
    expr = sp.E()
    s = oracle.enumerate_structures(expr, (1, 2))[0]
    with pytest.raises(DomainMismatch):
        oracle.transport(s, {1: 1})


def test_fix_count_identity_is_total_count():
    for expr in (sp.AProd(sp.Eplus(), sp.Eplus()), sp.Necklace(2), sp.S()):
        labels = tuple(range(1, 5))
        ident = dict(zip(labels, labels))
        assert oracle.fix_count(expr, ident) == len(
            oracle.enumerate_structures(expr, labels)
        )


def test_fix_by_type_examples():
    assert oracle.fix_by_type(sp.AProd(sp.Eplus(), sp.Eplus()), (4,)) == 8
    assert oracle.fix_by_type(sp.Splus(), (0, 1)) == 2


def test_fix_by_type_rejects_a_negative_multiplicity():
    with pytest.raises(DomainError, match="must be nonnegative"):
        oracle.perm_of_type((0, -1, 1))
    with pytest.raises(DomainError, match="must be nonnegative"):
        oracle.fix_by_type(sp.E(), (-1,))


def test_fix_counts_conjugation_invariant():
    rng = random.Random(31)
    expr = sp.AProd(sp.Splus(), sp.Lplus())
    cases = 0
    for n in (3, 4):
        labels = tuple(range(1, n + 1))
        for lam in nk.int_partitions(n):
            base = oracle.fix_count(expr, oracle.perm_of_type(lam))
            for _ in range(15):
                relabel = list(labels)
                rng.shuffle(relabel)
                tau = dict(zip(labels, relabel))
                inv = {v: k for k, v in tau.items()}
                rep = oracle.perm_of_type(lam)
                conj = {tau[u]: tau[rep[u]] for u in labels}
                assert oracle.fix_count(expr, conj) == base
                cases += 1
    assert cases >= 100


def test_orbit_type_count():
    for n in range(7):
        assert oracle.orbit_type_count(sp.E(), n) == 1
    assert oracle.orbit_type_count(sp.AProd(sp.Lplus(), sp.Lplus()), 4) == 3
    expr = sp.AProd(sp.Eplus(), sp.Eplus())
    z = sp.eval_zi(expr, 4)
    got = zi.zi_to_ogf(z, 4)
    assert oracle.orbit_type_count(expr, 4) == int(got.coeffs[4])


def test_matrices_01():
    assert oracle.matrices_01(2, 2, 2) == 2
    assert oracle.matrices_01(1, 1, 1) == 1
    assert oracle.matrices_01(3, 2, 4) == sp.mnr_formula(3, 2, 4)
    with pytest.raises(ScaleLimit):
        oracle.matrices_01(5, 5, 3)


def test_tuple_decompositions():
    only = oracle.tuple_decompositions({1: 1})
    assert len(only) == 1
    sigma = oracle.perm_of_type((0, 2))  # type (2,2) on [4]
    decs = oracle.tuple_decompositions(sigma)
    both_two_cycles = [
        d for d in decs if _cycle_type(d[1]) == (0, 1) and _cycle_type(d[2]) == (0, 1)
    ]
    assert len(both_two_cycles) == 2  # aut((2,2)) / (aut((2)) aut((2))) = 8/4


def test_tuple_decompositions_count_fixed_rectangles():
    # the induced-permutation map is a bijection onto pairs (rectangle fixed
    # by sigma), so totals agree with the Fix count of the rectangle species
    for n in range(1, 6):
        for lam in nk.int_partitions(n):
            sigma = oracle.perm_of_type(lam)
            assert len(oracle.tuple_decompositions(sigma)) == oracle.fix_count(
                sp.AProd(sp.Eplus(), sp.Eplus()), sigma
            ), lam


def test_induced_permutation_cycle_type():
    # cycle type of the induced permutation is the box of the two types
    rng = random.Random(32)
    for n in (4, 6):
        labels = tuple(range(1, n + 1))
        for pi, tau in oracle.rectangles_of(range(1, n + 1)):
            for _ in range(3):
                p1 = list(pi)
                rng.shuffle(p1)
                s1 = dict(zip(pi, p1))
                p2 = list(tau)
                rng.shuffle(p2)
                s2 = dict(zip(tau, p2))
                induced = oracle.box_perm((pi, tau), s1, s2)
                assert zi.box_type(_cycle_type(s1), _cycle_type(s2)) == _cycle_type(
                    induced
                )


def _cycle_type(perm):
    seen = set()
    sizes = []
    for start in perm:
        if start in seen:
            continue
        size = 1
        seen.add(start)
        u = perm[start]
        while u != start:
            seen.add(u)
            u = perm[u]
            size += 1
        sizes.append(size)
    return parts_to_mult(sizes)


def test_necklace_periods_and_lyndon():
    for alpha in (2, 3):
        for n in range(1, 5):
            neck = oracle.enumerate_structures(sp.Necklace(alpha), range(1, n + 1))
            assert len(neck) == nk.factorial(n - 1) * alpha ** n
            aper = oracle.enumerate_structures(
                sp.AperiodicNecklace(alpha), range(1, n + 1)
            )
            assert len(aper) == nk.lyndon_count(n, alpha) * nk.factorial(n)
            assert set(aper) <= set(neck)


def test_oracle_rejects_repeated_labels_and_maps_that_are_not_permutations():
    with pytest.raises(DomainError, match="labels must be distinct"):
        oracle.enumerate_structures(sp.E(), [1, 1])
    with pytest.raises(DomainMismatch, match="mapping is not injective"):
        oracle.transport(("set", (1, 2)), {1: 3, 2: 3})
    with pytest.raises(DomainMismatch, match="sigma is not a permutation of its domain"):
        oracle.fix_count(sp.E(), {1: 2, 2: 2})
    with pytest.raises(DomainError, match="labels must be distinct"):
        oracle.rectangles_of([1, 1, 2, 3])
    with pytest.raises(DomainError, match="labels must be distinct"):
        oracle.partial_rectangles_of([1, 1, 2])
    with pytest.raises(DomainMismatch, match="sigma is not a permutation of its domain"):
        oracle.tuple_decompositions({1: 1, 2: 1})
    # the label limit comes before any of the 21147 partitions of 9 labels is built
    start = time.perf_counter()
    with pytest.raises(ScaleLimit, match="partial rectangles on 9 labels exceeds limit 8"):
        oracle.partial_rectangles_of(range(1, 10))
    assert time.perf_counter() - start < 0.1


def test_the_oracle_keeps_one_cache():
    cached = [v for v in vars(oracle).values() if hasattr(v, "cache_info")]
    assert cached == [oracle._enum]


def test_fix_count_past_the_oracle_limit_is_a_scale_limit():
    nine_cycle = {i: i % 9 + 1 for i in range(1, 10)}
    with pytest.raises(ScaleLimit, match="fix count on 9 labels exceeds limit 8"):
        oracle.fix_count(sp.E(), nine_cycle)
