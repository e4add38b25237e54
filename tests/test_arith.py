import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wpsieve import arith


def test_primes_up_to_against_numpy_sieve():
    N = 100_000
    mask = np.ones(N + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(N) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    expected = [int(p) for p in np.nonzero(mask)[0]]
    assert arith.primes_up_to(N) == expected
    assert arith.primes_up_to(1) == []
    assert arith.primes_up_to(2) == [2]


def test_is_prime_small_and_carmichael():
    assert [n for n in range(2, 30) if arith.is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert not arith.is_prime(1)
    assert not arith.is_prime(0)
    assert not arith.is_prime(-7)
    assert not arith.is_prime(561)  # Carmichael number, trial division is immune
    assert arith.is_prime(10**9 + 7)


def test_is_prime_past_the_table_without_a_sieve():
    tracemalloc.start()
    try:
        assert arith.is_prime(10**14 + 31)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # growing the table to sqrt(n) would take ~10 MB
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not arith.is_prime(n), n
    with pytest.raises(ValueError):
        arith.is_prime(3317044064679887385961981)


def test_factorize_reconstructs_and_moebius_matches_sieve():
    # one pass: product reconstruction + a sieved Mobius oracle
    N = 100_000
    mu = np.ones(N + 1, dtype=np.int64)
    is_p = np.ones(N + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, N + 1):
        if is_p[p]:
            is_p[2 * p :: p] = False
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
    for n in range(1, N + 1):
        f = arith.factorize(n)
        prod = 1
        for p, e in f.factors:
            assert arith.is_prime(p) and e >= 1
            prod *= p**e
        assert prod == n
        assert arith.moebius(n) == int(mu[n])


def test_moebius_table_matches_moebius():
    for n in (0, 1, 2, 3, 4, 30, 20_000):
        table = arith.moebius_table(n)
        assert len(table) == n + 1 and table[0] == 0
        assert list(table[1:]) == [arith.moebius(d) for d in range(1, n + 1)], n


def test_mertens_matches_moebius_prefix_sums():
    # every x the quotient blocks ask for (floor(n / k)) and a few others,
    # below and above the sieved table's end near n^(2/3)
    rng = random.Random(5)
    for n in (0, 1, 2, 3, 10, 100, 1000, 54_321):
        sums = np.cumsum(np.frombuffer(arith.moebius_table(n), dtype=np.int8))
        M = arith.mertens(n)
        xs = {n // k for k in range(1, n + 1)} | {rng.randint(0, n) for _ in range(20)}
        assert all(M(x) == sums[x] for x in xs), n
        M = arith.mertens(n, dense=True)
        assert all(M(x) == sums[x] for x in range(n + 1)), n


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(v=st.integers(0, 2**200 - 1) | st.integers(0, 2**12),
       k=st.integers(1, 7), shift=st.sampled_from((0, 1, -1)))
def test_iroot_is_floor_of_kth_root(v, k, shift):
    # v itself, and a perfect k-th power near v or one off it
    for w in (v, max(0, round(v ** (1 / k)) ** k + shift)):
        r = arith.iroot(w, k)
        assert r**k <= w < (r + 1) ** k, (w, k)


def test_iroot_past_float_range_and_negative():
    # radicands a float cannot hold, on and next to perfect powers
    for k in (2, 3, 7):
        for r in (2**400 + 12345, 3**700):
            for w in (r**k - 1, r**k, r**k + 1):
                assert arith.iroot(w, k) == (r - 1 if w < r**k else r)
    with pytest.raises(ValueError):
        arith.iroot(-1, 3)


def test_factorize_large_spot_checks():
    rng = random.Random(11)
    for _ in range(50):
        a = rng.choice(arith.primes_up_to(500))
        b = rng.choice(arith.primes_up_to(500))
        e = rng.randint(1, 3)
        n = a**e * b
        prod = 1
        for p, k in arith.factorize(n).factors:
            prod *= p**k
        assert prod == n
    # a prime square beyond the initial table
    p = 104729
    assert arith.factorize(p * p).factors == ((p, 2),)


def test_factorize_semiprime_near_1e30_is_quick():
    # trial division alone would need the primes up to 10^9 (and, for the
    # cofactor, up to 3 * 10^10); rho finds 10^9 + 7 in about 10^5 steps
    p, q = 10**9 + 7, 10**21 + 117
    t0 = time.perf_counter()
    assert arith.factorize(p * q).factors == ((p, 1), (q, 1))
    assert arith.factorize(100000007 * 100000037).factors == ((100000007, 1), (100000037, 1))
    assert time.perf_counter() - t0 < 5
    # a more balanced pair: rho needs about 10^6 steps for 10^12 + 39, which
    # Brent's cycle search with batched gcds takes in about a second
    p, q = 10**12 + 39, 10**18 + 3
    t0 = time.perf_counter()
    assert arith.factorize(p * q).factors == ((p, 1), (q, 1))
    assert time.perf_counter() - t0 < 5
    # a cofactor that passes Miller-Rabin past 3.3e24 cannot be certified prime
    with pytest.raises(ValueError):
        arith.factorize(3 * (2**127 - 1))


def test_factorize_prime_powers_past_trial_division_are_quick():
    # rho alone would need about sqrt(p) = 2^30 steps on a power of 2^61 - 1
    p, q = 2**61 - 1, 1_000_003
    t0 = time.perf_counter()
    assert arith.factorize(p**5).factors == ((p, 5),)
    assert arith.factorize(12 * p**6 * q**4).factors == ((2, 2), (3, 1), (q, 4), (p, 6))
    assert arith.factorize((p * q) ** 2).factors == ((q, 2), (p, 2))
    assert time.perf_counter() - t0 < 5


def _trial_division(n):
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
        p += 1
    return tuple(out + [(n, 1)] if n > 1 else out)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.one_of(
    st.integers(1, 10**6),
    # products of factors past the trial-division primes, squares included
    st.lists(st.integers(2, 3000), min_size=1, max_size=3).map(math.prod),
    st.integers(1001, 3000).map(lambda k: k * k),
))
def test_factorize_matches_trial_division(n):
    assert arith.factorize(n).factors == _trial_division(n)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        arith.factorize(0)
    with pytest.raises(ValueError):
        arith.factorize(-6)


def test_valuation():
    assert arith.valuation(48, 2) == 4
    assert arith.valuation(48, 3) == 1
    assert arith.valuation(48, 5) == 0
    assert arith.valuation(0, 7) == arith.INFINITE
    with pytest.raises(ValueError):
        arith.valuation(10, 4)  # modulus must be prime


def test_divisors():
    assert arith.divisors(1) == [1]
    assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert arith.divisors(49) == [1, 7, 49]
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 5000)
        ds = arith.divisors(n)
        assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)


def _subset_mass(norms, ratios, Q):
    # every index set, its norm product checked directly
    return sum(
        (math.prod(ratios[i] for i in S)
         for k in range(len(norms) + 1)
         for S in itertools.combinations(range(len(norms)), k)
         if math.prod(norms[i] for i in S) <= Q),
        Fraction(0),
    )


_RATIO = st.builds(Fraction, st.integers(0, 9), st.integers(1, 12))  # zeros included


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pairs=st.lists(st.tuples(st.integers(2, 6) | st.integers(2, 40), _RATIO), max_size=9),
       Q=st.integers(1, 3000) | st.integers(1, 40))
@example(pairs=[], Q=1)
@example(pairs=[], Q=50)
@example(pairs=[(2, Fraction(1, 2))], Q=1)
@example(pairs=[(2, Fraction(1, 2)), (2, Fraction(1, 3))], Q=4)
@example(pairs=[(3, Fraction(2, 3)), (3, Fraction(5, 7)), (3, Fraction(1, 5)), (9, Fraction(0))], Q=27)
def test_squarefree_mass_matches_subset_sums(pairs, Q):
    # repeated norms are distinct indices; the ratios mix denominators up to 12
    pairs.sort(key=lambda nr: nr[0])
    norms = [n for n, _ in pairs]
    ratios = [r for _, r in pairs]
    assert arith.squarefree_mass(norms, ratios, Q) == _subset_mass(norms, ratios, Q)


def test_squarefree_mass_rejects_bad_input():
    for norms, ratios, Q in (([2], [1], 0), ([2], [1, 1], 5), ([3, 2], [1, 1], 5),
                             ([1], [1], 5)):
        with pytest.raises(ValueError):
            arith.squarefree_mass(norms, ratios, Q)
