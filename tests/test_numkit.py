import itertools
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import parts_to_mult
from specalc import numkit as nk
from specalc import series as se
from specalc.errors import DomainError


def test_exact_passes_ints_and_fractions_unchanged():
    for value in (0, -3, 10 ** 40, Fraction(1, 3), Fraction(4, 2)):
        assert nk.exact(value) is value
    for value in (0.5, "1", Decimal(1), True, None, 1j):
        with pytest.raises(DomainError):
            nk.exact(value)


# Every door that turns a caller's value into a stored coefficient.
_DOORS = {
    "TruncSeries": lambda v: se.TruncSeries([0, v]),
    "TruncSeries.from_counts": lambda v: se.TruncSeries.from_counts([0, v]),
    "TruncSeries.__mul__": lambda v: se.TruncSeries([0, 1]) * v,
    "TruncSeries.__rmul__": lambda v: v * se.TruncSeries([0, 1]),
    "geom_power": lambda v: se.geom_power(2, v, 4),
}


@pytest.mark.parametrize("door", list(_DOORS))
@pytest.mark.parametrize("value", [0.1, "1/3"])
def test_coefficient_doors_reject_floats_and_strings(door, value):
    with pytest.raises(DomainError):
        _DOORS[door](value)
    _DOORS[door](Fraction(1, 3))  # the exact value passes


def test_factorial():
    assert nk.factorial(0) == 1
    assert nk.factorial(6) == 720
    assert nk.factorial(12) == 479001600
    with pytest.raises(DomainError):
        nk.factorial(-1)


def test_binomial():
    assert nk.binomial(6, 2) == 15
    assert nk.binomial(5, 0) == 1
    assert nk.binomial(4, 7) == 0
    assert nk.binomial(4, -1) == 0


def test_aprod_power_is_repeated_aprod_counts():
    f = (0, 1, 3, 2, 0, 7, 1, 4, 2)
    power = (0, 1) + (0,) * 7  # the counts of X
    for k in range(7):
        assert nk.aprod_power(f, k) == power, k
        power = nk.aprod_counts(power, f)
    with pytest.raises(DomainError, match="arithmetic-product exponent must be nonnegative, got -1"):
        nk.aprod_power(f, -1)


def test_divisors():
    assert nk.divisors(1) == [1]
    assert nk.divisors(6) == [1, 2, 3, 6]
    assert nk.divisors(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(DomainError):
        nk.divisors(0)


def test_arithmetic_functions():
    assert nk.sigma(4) == 7
    assert nk.sigma(6) == 12
    assert nk.tau(6) == 4
    assert nk.mobius(4) == 0
    assert nk.mobius(6) == 1
    assert nk.mobius(2) == -1
    assert nk.mobius(1) == 1
    assert [nk.euler_phi(n) for n in range(1, 9)] == [1, 1, 2, 2, 4, 2, 6, 4]
    with pytest.raises(DomainError):
        nk.sigma(0)


def test_mobius_divisor_sum_vanishes():
    for n in range(2, 200):
        assert sum(nk.mobius(d) for d in nk.divisors(n)) == 0


def test_bell():
    assert [nk.bell(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    assert nk.bell_numbers(8) == (1, 1, 2, 5, 15, 52, 203, 877, 4140)
    assert nk.bell_numbers(0) == (1,)
    with pytest.raises(DomainError):
        nk.bell(-1)


def test_falling():
    assert nk.falling(5, 0) == 1
    assert nk.falling(4, 2) == 12
    assert nk.falling(3, 5) == 0
    assert nk.falling(-2, 3) == -24
    with pytest.raises(DomainError):
        nk.falling(3, -1)


def test_rect_coeff():
    assert nk.rect_coeff(6, 2) == 60
    assert nk.rect_coeff(4, 2) == 6
    for n in (1, 2, 5, 9):
        assert nk.rect_coeff(n, 1) == 1
        assert nk.rect_coeff(n, n) == 1
    with pytest.raises(DomainError):
        nk.rect_coeff(6, 4)


def test_lyndon_count():
    assert nk.lyndon_count(1, 2) == 2
    assert nk.lyndon_count(2, 2) == 1
    assert nk.lyndon_count(4, 2) == 3
    assert nk.lyndon_count(6, 2) == 9


def _brute_lyndon(n, alpha):
    count = 0
    for w in itertools.product(range(alpha), repeat=n):
        rots = [w[i:] + w[:i] for i in range(1, n)]
        if all(w < r for r in rots):
            count += 1
    return count


def test_lyndon_count_matches_brute_force():
    for alpha in (1, 2, 3):
        for n in range(1, 7):
            assert nk.lyndon_count(n, alpha) == _brute_lyndon(n, alpha)


def test_necklace_lyndon_partition():
    # every length-n word decomposes by the period d | n of its rotation class
    for alpha in (1, 2, 3):
        for n in range(1, 11):
            assert n * nk.lyndon_count(n, alpha) <= alpha ** n
            assert sum(d * nk.lyndon_count(d, alpha) for d in nk.divisors(n)) == alpha ** n


def test_int_partitions_order_and_counts():
    assert nk.int_partitions(0) == ((),)
    assert nk.int_partitions(3) == ((0, 0, 1), (1, 1), (3,))
    expected_sizes = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, size in enumerate(expected_sizes):
        parts = nk.int_partitions(n)
        assert len(parts) == size
        assert all(nk.weight(lam) == n for lam in parts)
        assert len(set(parts)) == size


def test_mult_part_roundtrip():
    for n in range(8):
        for lam in nk.int_partitions(n):
            assert parts_to_mult(nk.mult_to_parts(lam)) == lam


def _descending_part_lists(n, biggest):
    """Partitions of n into parts at most biggest, as descending part lists, largest first."""
    if n == 0:
        yield ()
    for p in range(min(n, biggest), 0, -1):
        for rest in _descending_part_lists(n - p, p):
            yield (p,) + rest


def test_int_partitions_match_the_part_list_route():
    # the builder extends cached partitions of n - p by a largest part p; the
    # reference builds every descending part list and converts it
    for n in range(26):
        lists = list(_descending_part_lists(n, n))
        assert lists == sorted(lists, reverse=True), n
        assert nk.int_partitions(n) == tuple(map(parts_to_mult, lists)), n
    assert [len(nk.int_partitions(n)) for n in range(26)] == [
        1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
        231, 297, 385, 490, 627, 792, 1002, 1255, 1575, 1958,
    ]


def test_mult_to_parts_rejects_a_negative_multiplicity():
    # as parts_to_mult rejects a non-positive part: no tuple here is a cycle type
    for lam in ((0, -1, 1), (-2,), (1, -1)):
        with pytest.raises(DomainError, match="must be nonnegative"):
            nk.mult_to_parts(lam)
    assert nk.mult_to_parts((2, 0, 1)) == (3, 1, 1)


def test_aut():
    assert nk.aut((4,)) == 24       # 1^4
    assert nk.aut((0, 2)) == 8      # 2^2
    assert nk.aut(()) == 1
    assert nk.aut((1, 1)) == 2      # 2+1


def _centralizer_size(lam):
    n = nk.weight(lam)
    labels = list(range(1, n + 1))
    sigma = {}
    start = 0
    for part in nk.mult_to_parts(lam):
        cyc = labels[start : start + part]
        for i, u in enumerate(cyc):
            sigma[u] = cyc[(i + 1) % part]
        start += part
    count = 0
    for perm in itertools.permutations(labels):
        tau = dict(zip(labels, perm))
        if all(tau[sigma[u]] == sigma[tau[u]] for u in labels):
            count += 1
    return count


def test_aut_is_centralizer_order():
    for n in range(1, 6):
        for lam in nk.int_partitions(n):
            assert nk.aut(lam) == _centralizer_size(lam)


def test_numkit_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import partition

    for n in range(61):
        assert nk.bell(n) == sympy.bell(n), n
    for n in range(31):
        assert len(nk.int_partitions(n)) == partition(n), n
    for n in range(1, 2001):
        assert nk.mobius(n) == sympy.mobius(n), n
        assert nk.euler_phi(n) == sympy.totient(n), n
        assert nk.divisors(n) == sympy.divisors(n), n
        assert dict(nk.factorize(n)) == sympy.factorint(n), n
