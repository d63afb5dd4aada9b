"""Cycle-index polynomials in x_1, x_2, ... truncated by total weight.

A ``CycleIndex`` maps integer partitions (numkit multiplicity tuples) to
integer fix-values; the polynomial it denotes is

    sum over lam of  fix[lam] * x^lam / aut(lam).

A fix-value counts the structures a permutation of type lam fixes, and
every operation forms fix-values as integer sums of products, so ``int``
is the one value type; only the monomial coefficients fix/aut(lam)
(``coeff``, ``rows``, ``zi_to_ogf``) are ``Fraction``.  Terms from outside
this module enter through ``CycleIndex(bound, fix)``, which rejects a
value that is not an ``int`` and a key that is not a partition within the
bound, as ``fix_value`` and ``coeff`` do; a kernel's terms, formed from
checked operands, are stored through ``_of`` unchecked.  Zero values are
never stored.  The sum, the Hadamard product and pointing act directly on
fix-values.  The product, plethysm and arithmetic product work on the
integers N(lam) = fix[lam] |lam|!/aut(lam), the pairs (permutation of type
lam, structure it fixes) (Bergeron, Labelle and Leroux, Combinatorial
Species and Tree-like Structures): a product adds
C(|m|+|n|, |m|) N(m) N(n) at m + n, an arithmetic product
(|b||g|)!/(|b|! |g|!) N(b) N(g) at b box g, and x_i -> x_(ki) takes N(m)
to (k|m|)!/|m|! N(m) at k m; plethysm sums over the common denominator
bound!.  Each kernel returns to fix-values with one exact division,
fix = N aut(lam)/|lam|!, and works at the smaller of its operands' bounds.
``type_series`` is the Burnside sum: the N of the types of weight n added
up and divided by n!.

The product, the arithmetic product and plethysm share one walk,
``_pair_walk``, on terms grouped by weight, {w: {lam: N}}: ``_scaled``
weighs, truncates and scales each operand term once, at the kernel's entry
(the product's is ``_mono_mul``, which takes the operands' {lam: fix}
dicts), and ``_unscaled`` reads the walk's graded result as it is.  The walk
stops at the first pair of weight buckets with wa + wb, or wb * wg, above
the bound, so no pair of terms that cannot survive the truncation is
formed.  Plethysm builds the substituted power-sum product p_lam[q] of
each partition from that of lam with one largest part removed (ibid.,
section 4.3) and memoises these powers graded, so each distinct partition
costs one truncated product within ``ZI_PLETHYSM_PAIRS`` and no power is
graded again.  ``ogf_plethysm`` walks the same partitions on integer type
series: it substitutes g(x^i) for x_i, never forms the multivariate
result, and leaves its one exact division to ``type_ints``.  Both take
their products from one memoised walk, ``_power_walk``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, mul

from . import numkit as nk
from .errors import CompositionError, DomainError, ScaleLimit, UnknownAtom, ZeroConstantRequired
from .series import TruncSeries

# Most term pairs |a| |b|, summed over its products a * b, one ``zi_plethysm`` may
# form; nested ``deriv`` raise its bound (comp(E, Ep): 2.0e7 at 18, 3.5e7 at 19).
ZI_PLETHYSM_PAIRS = 25 * 10 ** 6


class CycleIndex:
    __slots__ = ("bound", "fix")

    def __init__(self, bound, fix=None):
        nk.check_order(bound)
        checked = {}
        for lam, v in (fix or {}).items():
            checked[_key(lam, bound)] = v
            if type(v) is not int:
                raise DomainError(f"fix-value {v!r} is not an int")
        self.bound, self.fix = bound, _of(bound, checked).fix

    def fix_value(self, lam):
        return self.fix.get(_key(lam, self.bound), 0)

    def coeff(self, lam):
        """Monomial coefficient fix[lam]/aut(lam), a ``Fraction``."""
        return Fraction(self.fix_value(lam), nk.aut(lam))

    def rows(self):
        """(partition, fix, monomial coefficient) triples in canonical order."""
        return [(lam, self.fix[lam], Fraction(self.fix[lam], nk.aut(lam)))
                for w in range(self.bound + 1) for lam in nk.int_partitions(w) if lam in self.fix]

    def __eq__(self, other):
        if not isinstance(other, CycleIndex):
            return NotImplemented
        return self.bound == other.bound and self.fix == other.fix

    def __hash__(self):
        return hash((self.bound, frozenset(self.fix.items())))

    def __repr__(self):
        return f"CycleIndex(bound={self.bound}, terms={len(self.fix)})"


def _key(lam, bound):
    """lam as a partition key of weight at most bound; DomainError otherwise."""
    lam = tuple(lam)
    if lam and lam[-1] == 0:
        raise DomainError(f"partition key {lam} has trailing zeros")
    if any(m < 0 for m in lam):
        raise DomainError(f"partition key {lam} has negative multiplicity")
    if nk.weight(lam) > bound:
        raise DomainError(f"key {lam} exceeds weight bound {bound}")
    return lam


def _of(bound, fix):
    """The index of {partition: int} terms whose keys need no check; zero values dropped."""
    p = object.__new__(CycleIndex)
    p.bound = bound
    p.fix = {lam: v for lam, v in fix.items() if v}
    return p


def partition_label(lam) -> str:
    """Render a partition as ``1^a 2^b ...``; the empty partition as ``()``."""
    if not lam:
        return "()"
    return " ".join(f"{i}^{m}" for i, m in enumerate(lam, 1) if m)


def _cycle_fix(lam) -> int:
    """Oriented cycles fixed by a permutation of type lam: it needs m cycles of one length d."""
    d, m = len(lam), sum(lam)
    if not lam or lam[-1] != m:
        return 0
    return nk.euler_phi(d) * d ** (m - 1) * nk.factorial(m - 1)


# Each atom's fix-value at a cycle type lam of weight n, given the atom's
# arguments.  Injections (OnePlusXpow) and aperiodic necklaces are fixed
# only by the identity; a necklace's colouring must be constant on cycles.
_ATOM_FIX = {
    "1": lambda lam, n: int(n == 0),
    "X": lambda lam, n: int(lam == (1,)),
    "E": lambda lam, n: 1,
    "L": lambda lam, n: nk.factorial(n) if len(lam) <= 1 else 0,
    "C": lambda lam, n: _cycle_fix(lam),
    "S": lambda lam, n: nk.aut(lam),
    "OnePlusXpow": lambda lam, n, k: nk.falling(k, n) if len(lam) <= 1 else 0,
    "necklace": lambda lam, n, a: _cycle_fix(lam) * a ** sum(lam),
    "aperiodic": lambda lam, n, a: nk.factorial(n) * nk.lyndon_count(n, a) if len(lam) == 1 else 0,
}


def _atom(name, params):
    """The named atom's fix-value rule; its arguments must be nonnegative ints (a bool is refused)."""
    if name not in _ATOM_FIX:
        raise UnknownAtom(f"no cycle index for atom {name!r}")
    for v in params:
        nk.check_order(v, f"{name} argument")
    return _ATOM_FIX[name]


def atom_counts(name: str, order: int, *params) -> tuple[int, ...]:
    """The named atom's labelled counts to the order: its fix-values at the identity types."""
    fix = _atom(name, params)
    nk.check_order(order)
    return tuple(fix((n,) if n else (), n, *params) for n in range(order + 1))


def zi_atom(name: str, bound: int, *params) -> CycleIndex:
    """Cycle index of a named atom, exact to the weight bound.

    ``E`` and ``S`` have fixed structures at every cycle type; every other
    atom fixes none off the equal-part types (0, ..., 0, m), so only
    those are visited.
    """
    fix = _atom(name, params)
    nk.check_order(bound)
    if name in ("E", "S"):
        types = [(lam, w) for w in range(bound + 1) for lam in nk.int_partitions(w)]
    else:
        types = [((), 0)] + [
            ((0,) * (d - 1) + (m,), d * m)
            for d in range(1, bound + 1)
            for m in range(1, bound // d + 1)
        ]
    return _of(bound, {lam: fix(lam, n, *params) for lam, n in types})


def type_series(p: CycleIndex, order: int) -> tuple[int, ...]:
    """Type counts of the index to the order, on integers (Burnside's lemma)."""
    nk.check_order(order)
    if order > p.bound:
        raise DomainError(f"order {order} exceeds weight bound {p.bound}")
    graded = _scaled(p.fix, order)
    totals = [sum(graded.get(w, {}).values()) for w in range(order + 1)]
    return type_ints(totals, [nk.factorial(n) for n in range(order + 1)])


def _terms(p: CycleIndex, bound: int) -> dict:
    """A new dict of p's {partition: fix} terms of weight at most bound."""
    return {lam: v for lam, v in p.fix.items() if nk.weight(lam) <= bound}


def zi_add(p: CycleIndex, q: CycleIndex) -> CycleIndex:
    bound = min(p.bound, q.bound)
    fix = _terms(p, bound)
    for lam, v in _terms(q, bound).items():
        fix[lam] = fix.get(lam, 0) + v
    return _of(bound, fix)


def zi_hadamard(p: CycleIndex, q: CycleIndex) -> CycleIndex:
    """fix-wise product: structures on both sides fixed by the same permutation."""
    bound = min(p.bound, q.bound)
    fq = _terms(q, bound)
    return _of(bound, {lam: v * fq[lam] for lam, v in _terms(p, bound).items() if lam in fq})


def zi_point(p: CycleIndex) -> CycleIndex:
    """Pointing: multiply each fix-value by the number of fixed points m_1."""
    return _of(p.bound, {lam: lam[0] * v for lam, v in p.fix.items() if lam})


def zi_deriv(p: CycleIndex) -> CycleIndex:
    """Derivative, one weight below p's bound: fix at lam is p's fix at lam plus one fixed point."""
    if not p.bound:
        raise DomainError("the derivative of an index needs weight bound >= 1")
    return _of(p.bound - 1, {
        (lam[0] - 1,) + lam[1:] if lam != (1,) else (): v
        for lam, v in p.fix.items()
        if lam and lam[0]
    })


def zi_nonempty(p: CycleIndex) -> CycleIndex:
    """The nonempty part: p without its weight-0 term, the one keyed ()."""
    return _of(p.bound, {lam: v for lam, v in p.fix.items() if lam})


def zi_restrict(p: CycleIndex, n: int) -> CycleIndex:
    """The part concentrated in cardinality n: p's terms of weight n."""
    return _of(p.bound, {lam: v for lam, v in p.fix.items() if nk.weight(lam) == n})


def _add_mult(a, b):
    """Multiply two monomials: add their multiplicity tuples.

    Keys carry no trailing zeros, so neither does the sum.
    """
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, m in enumerate(b):
        out[i] += m
    return tuple(out)


def _scale_parts(lam, factor):
    """Multiply every part size by factor: m'_(factor*i) = m_i."""
    if not lam or factor == 1:
        return tuple(lam)
    out = [0] * (factor * len(lam))
    for i, m in enumerate(lam, start=1):
        if m:
            out[factor * i - 1] = m
    return tuple(out)


def _scaled(fix, bound):
    """The {partition: fix} terms of weight at most bound as {weight: {partition: N}};
    each term is weighed once and only a kept one is scaled."""
    graded = {}
    for lam, v in fix.items():
        w = nk.weight(lam)
        if w <= bound:
            graded.setdefault(w, {})[lam] = v * (nk.factorial(w) // nk.aut(lam))
    return graded


def _unscaled(bound, graded, den=1):
    """The index of fix-values N aut(lam) / (den |lam|!), each one exact division."""
    fix = {}
    for w, terms in graded.items():
        d = den * nk.factorial(w)
        for lam, n in terms.items():
            fix[lam] = n * nk.aut(lam) // d
    return _of(bound, fix)


def _pair_walk(a, b, bound, weigh, placements, join):
    """placements(w, wa) N(la) N(lb) summed at join(la, lb) in bucket w, over the term pairs
    of two {w: {partition: N}} dicts with w = weigh(wa, wb) at most bound; zero sums dropped."""
    out = {}
    graded_b = sorted(b.items())
    for wa, terms_a in sorted(a.items()):
        for wb, terms_b in graded_b:
            w = weigh(wa, wb)
            if w > bound:
                break
            count = placements(w, wa)
            acc = out.setdefault(w, {})
            for la, na in terms_a.items():
                na *= count
                for lb, nb in terms_b.items():
                    key = join(la, lb)
                    acc[key] = acc.get(key, 0) + na * nb
    return {w: {k: v for k, v in terms.items() if v} for w, terms in out.items()}


def _mono_mul(a, b, bound):
    """Product of two {partition: fix} dicts as {weight: {partition: N}}, truncated at weight bound."""
    return _pair_walk(_scaled(a, bound), _scaled(b, bound), bound, add, nk.binomial, _add_mult)


def zi_mul(p: CycleIndex, q: CycleIndex) -> CycleIndex:
    """Species product: polynomial multiplication in the x^lam basis."""
    bound = min(p.bound, q.bound)
    return _unscaled(bound, _mono_mul(p.fix, q.fix, bound))


def _drop_largest_part(lam):
    """The partition lam without one of its largest parts."""
    rest = lam[:-1] + (lam[-1] - 1,)
    while rest and rest[-1] == 0:
        rest = rest[:-1]
    return rest


def _power_walk(unit, mul, scaled):
    """The memoised power of each partition lam: unit at (), else
    mul(power of lam without one largest part i, scaled(i))."""
    power = {(): unit}

    def substituted(lam):
        if lam not in power:
            power[lam] = mul(substituted(_drop_largest_part(lam)), scaled(len(lam)))
        return power[lam]

    return substituted


def zi_plethysm(p: CycleIndex, q: CycleIndex) -> CycleIndex:
    """Plethystic substitution: x_i in p becomes q(x_i, x_2i, x_3i, ...).

    x^lam[q] is memoised per partition as x^rest[q] * q(x_i, x_2i, ...),
    where i is the largest part of lam and rest is lam without one i.
    """
    if () in q.fix:
        raise CompositionError("plethysm inner series has a weight-0 term")
    bound = min(p.bound, q.bound)
    graded_q = _scaled(q.fix, bound)
    scaled = {}

    def q_scaled(i):
        if i not in scaled:
            scaled[i] = {w * i: {_scale_parts(lam, i): n * (nk.factorial(w * i) // nk.factorial(w))
                                 for lam, n in terms.items()}
                         for w, terms in graded_q.items() if w * i <= bound}
        return scaled[i]

    pairs = 0

    def product(a, b):
        nonlocal pairs
        pairs += sum(map(len, a.values())) * sum(map(len, b.values()))
        if pairs > ZI_PLETHYSM_PAIRS:
            raise ScaleLimit(f"plethysm at weight bound {bound} exceeds {ZI_PLETHYSM_PAIRS} term pairs")
        return _pair_walk(a, b, bound, add, nk.binomial, _add_mult)

    substituted = _power_walk({0: {(): 1}}, product, q_scaled)
    fact = nk.factorial(bound)
    acc = {}
    for lam, v in _terms(p, bound).items():
        c = v * (fact // nk.aut(lam))
        for w, terms in substituted(lam).items():
            bucket = acc.setdefault(w, {})
            for mu, n in terms.items():
                bucket[mu] = bucket.get(mu, 0) + c * n
    return _unscaled(bound, acc, fact)


def ogf_mul(a, b) -> tuple[int, ...]:
    """Ordinary product of two integer series, truncated at the length of a."""
    bound = len(a) - 1
    terms = [(j, y) for j, y in enumerate(b[: bound + 1]) if y]
    out = [0] * (bound + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                if i + j > bound:
                    break
                out[i + j] += x * y
    return tuple(out)


def ogf_plethysm(p: CycleIndex, g) -> tuple[int, ...]:
    """Z_p(g(x), g(x^2), ...) to weight p.bound, for an integer series g with g[0] = 0.

    This is the type series of F o G when p is F's cycle index and g is
    G's type series.  The power g(x)^m_1 g(x^2)^m_2 ... of each partition
    is that of the partition with one largest part i removed, times
    g(x^i), as in ``zi_plethysm``.  Since aut(lam) divides |lam|!, the sum
    of fix (bound!/aut) times the powers is bound! times the type series,
    and ``type_ints`` makes the one exact division.
    """
    bound = p.bound
    if len(g) <= bound:
        raise DomainError(f"inner type series has {len(g)} terms, needs {bound + 1}")
    if g[0]:
        raise CompositionError("plethysm inner series has a weight-0 term")
    scaled = {}
    for i in range(1, bound + 1):
        scaled[i] = [0] * (bound + 1)
        scaled[i][i::i] = g[1 : bound // i + 1]
    substituted = _power_walk((1,) + (0,) * bound, ogf_mul, scaled.__getitem__)
    fact = nk.factorial(bound)
    acc = [0] * (bound + 1)
    for lam, v in p.fix.items():
        c = v * (fact // nk.aut(lam))
        for n, t in enumerate(substituted(lam)):
            acc[n] += c * t
    return type_ints(acc, [fact] * (bound + 1))


def type_ints(totals, dens) -> tuple[int, ...]:
    """Type counts totals[n]/dens[n] as ints; DomainError at the first that is not a nonnegative integer."""
    for n, (t, d) in enumerate(zip(totals, dens)):
        if t % d or t < 0:
            raise DomainError(f"type count at {n} is {Fraction(t, d)}, not a nonnegative integer")
    return tuple(t // d for t, d in zip(totals, dens))


def box_type(beta, gamma) -> tuple[int, ...]:
    """Cycle type of the product permutation: alpha_k = sum over lcm(i,l)=k of gcd(i,l) b_i g_l."""
    acc = {}
    for i, bi in enumerate(beta, start=1):
        if not bi:
            continue
        for l, gl in enumerate(gamma, start=1):
            if not gl:
                continue
            g = gcd(i, l)
            k = i * l // g
            acc[k] = acc.get(k, 0) + g * bi * gl
    if not acc:
        return ()
    out = [0] * max(acc)
    for k, m in acc.items():
        out[k - 1] = m
    return tuple(out)


def zi_aprod(p: CycleIndex, q: CycleIndex) -> CycleIndex:
    """Arithmetic product of index series: x^beta boxed x^gamma = x^(beta box gamma).

    Both operands must have no weight-0 term; output term weights are the
    products of the input term weights.
    """
    if () in p.fix or () in q.fix:
        raise ZeroConstantRequired("arithmetic product of index series needs no weight-0 term")
    bound = min(p.bound, q.bound)
    a, b = _scaled(p.fix, bound), _scaled(q.fix, bound)
    return _unscaled(bound, _pair_walk(a, b, bound, mul, nk.rect_coeff, box_type))


def zi_to_ogf(p: CycleIndex, order: int) -> TruncSeries:
    """Specialize x_i <- x^i: the isomorphism-types series."""
    if order > p.bound:
        raise DomainError(f"order {order} exceeds weight bound {p.bound}")
    cs = [Fraction(0)] * (order + 1)
    for lam, v in p.fix.items():
        w = nk.weight(lam)
        if w <= order:
            cs[w] += Fraction(v, nk.aut(lam))
    return TruncSeries(cs)
