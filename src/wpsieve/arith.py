"""Exact integer arithmetic shared by the other modules.

Everything here is deterministic and exact: a growable prime table,
factorization, p-adic valuations, integer k-th roots, the Moebius function
(also as one sieved table for a whole range, and summed as the Mertens
function) and the squarefree mass that both sieves divide by.  Past the
table, primality is deterministic Miller-Rabin, and factorization
trial-divides by the primes up to _TRIAL_TO only, then splits what is left
by Pollard's rho (Brent's variant) after taking out exact powers, so a
number's cost follows the size of its second-largest distinct prime factor,
not its square root.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Valuation of 0.  Compares above every finite valuation and floor-divides
# to itself, which is exactly what weighted-gcd minima need.
INFINITE = math.inf

_primes: list[int] = [2, 3, 5, 7]
_limit = 10


def _grow_primes(limit: int) -> None:
    """Extend the cached prime table to cover [2, limit]."""
    global _primes, _limit
    if limit <= _limit:
        return
    limit = max(limit, 2 * _limit)
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    _primes = [i for i in range(2, limit + 1) if sieve[i]]
    _limit = limit


def primes_up_to(q: int) -> list[int]:
    """All primes p <= q, ascending."""
    if q < 2:
        return []
    _grow_primes(q)
    return _primes[: bisect_right(_primes, q)]


# Miller-Rabin with the first 13 primes as bases is exact for every n below
# this limit (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality for n < 3.3e24; larger n raise ValueError."""
    if not isinstance(n, int) or n < 2:
        return False
    if n <= _limit:
        i = bisect_right(_primes, n)
        return i > 0 and _primes[i - 1] == n
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is out of range (n >= {_MR_LIMIT})")
    return _strong_probable_prime(n)


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to every base of _MR_BASES, for n > 1.  False proves n
    composite; True proves n prime below _MR_LIMIT."""
    if any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending


_TRIAL_TO = 1000  # trial division by the primes up to here, then rho
_RHO_BLOCK = 128  # rho steps per batched gcd


def factorize(n: int) -> Factorization:
    """Factor n >= 1: trial division by the primes up to _TRIAL_TO, then
    Pollard's rho on composite cofactors, each prime factor certified by
    Miller-Rabin (ValueError for one past its range, 3.3e24)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"factorize needs an integer >= 1, got {n!r}")
    _grow_primes(_TRIAL_TO)
    rem = n
    out: list[tuple[int, int]] = []
    for p in _primes:
        if p * p > rem or p > _TRIAL_TO:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            out.append((p, e))
    # rem is 1, a prime, or free of prime factors up to _TRIAL_TO
    if rem < _TRIAL_TO**2:
        return Factorization(n, (*out, (rem, 1)) if rem > 1 else tuple(out))
    big, pieces = [], [rem]
    while pieces:
        m = pieces.pop()
        if _strong_probable_prime(m):
            if m >= _MR_LIMIT:
                raise ValueError(f"primality of the factor {m} is out of range (>= {_MR_LIMIT})")
            big.append(m)
        else:
            # rho takes ~sqrt(p) steps on p^k: split a k-th power (r > _TRIAL_TO) first
            for k in range(2, m.bit_length() // 9 + 1):
                if (r := iroot(m, k)) ** k == m:
                    pieces += [r] * k
                    break
            else:
                d = _rho(m)
                pieces += [d, m // d]
    return Factorization(n, (*out, *((p, big.count(p)) for p in sorted(set(big)))))


def _rho(n: int) -> int:
    """A proper factor of a composite n free of primes up to _TRIAL_TO: Pollard's
    rho on x -> x^2 + c, Brent's cycle search with one gcd per _RHO_BLOCK
    steps, the next c when a run yields n."""
    c = 1
    while True:
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y  # y runs r steps ahead, then is compared with x for r more
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, _RHO_BLOCK):
                ys = y
                for _ in range(min(_RHO_BLOCK, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = math.gcd(q, n)
                if d != 1:
                    break
            r *= 2
        if d == n:  # replay the last block one step at a time
            ys = (ys * ys + c) % n
            while (d := math.gcd(x - ys, n)) == 1:
                ys = (ys * ys + c) % n
        if d != n:
            return d
        c += 1


def valuation(n: int, p: int):
    """p-adic valuation of n; INFINITE at n = 0.  p must be prime."""
    if not is_prime(p):
        raise ValueError(f"valuation needs a prime modulus, got {p!r}")
    if n == 0:
        return INFINITE
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def moebius(n: int) -> int:
    f = factorize(n)
    if any(e >= 2 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def moebius_table(n: int) -> array:
    """mu(d) for 0 <= d <= n (mu(0) = 0), one signed byte per d, by one sieve.

    Only the primes p <= sqrt(n) are sieved: each flips the sign of its
    multiples, zeroes the multiples of p^2 and is multiplied into the
    product of the small primes of d.  A squarefree d whose product falls
    short of d has exactly one prime factor above sqrt(n), one more flip."""
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    dtype = np.int32 if n < 2**31 else np.int64  # small[d] divides d <= n
    small = np.ones(n + 1, dtype=dtype)
    for p in primes_up_to(math.isqrt(n)):
        mu[p::p] *= -1
        small[p::p] *= p
        mu[p * p :: p * p] = 0
    mu[small < np.arange(n + 1, dtype=dtype)] *= -1
    return array("b", mu.tobytes())


def mertens(n: int, dense: bool = False):
    """The Mertens function M(x) = sum_{d <= x} mu(d), for 0 <= x <= n.

    M is read from a sieved prefix table up to about n^{2/3} (up to n when
    dense, for callers that ask for nearly every x); above it,
    M(x) = 1 - sum_{k=2}^{x} M(floor(x/k)), summed over the blocks of k
    with equal quotient and memoised.  The x = floor(n/k) all together
    cost O(n^{2/3}) steps."""
    L = max(1, n if dense else round(n ** (2 / 3)))
    prefix = np.cumsum(np.frombuffer(moebius_table(L), dtype=np.int8), dtype=np.int32)
    memo: dict[int, int] = {}

    def M(x: int) -> int:
        if x <= L:
            return int(prefix[x])
        if x not in memo:
            total, k = 1, 2
            while k <= x:
                q = x // k
                k_end = x // q
                total -= (k_end - k + 1) * M(q)
                k = k_end + 1
            memo[x] = total
        return memo[x]

    return M


def iroot(v: int, k: int) -> int:
    """floor(v^(1/k)) for v >= 0, exact."""
    if v < 0:
        raise ValueError("negative radicand")
    if k == 1 or v in (0, 1):
        return v
    r = 1 << -(-v.bit_length() // k)  # 2^ceil(bits/k) > v^(1/k)
    while True:  # Newton from above decreases strictly until floor(v^(1/k))
        s = ((k - 1) * r + v // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending."""
    ds = [1]
    for p, e in factorize(n).factors:
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def squarefree_mass(norms, ratios, Q: int) -> Fraction:
    """Sum over index sets S with prod_{i in S} norms[i] <= Q of
    prod_{i in S} ratios[i] (ints or Fractions).  norms ascend from 2;
    equal norms are distinct indices.

    The ratios share one denominator b; the integer numerators of the sets
    of size k add up to T_k, and the mass is sum_k T_k / b^k, with no
    Fraction per set.  A child whose norm N has N^2 > cap cannot grow:
    those children are added at once, by a difference of prefix sums."""
    if not isinstance(Q, int) or Q < 1:
        raise ValueError(f"Q must be a positive integer, got {Q!r}")
    if len(norms) != len(ratios) or min(norms, default=2) < 2 or any(
            n > m for n, m in zip(norms, norms[1:])):
        raise ValueError("need ascending norms >= 2 and one ratio per norm")
    b = math.lcm(*{r.denominator for r in ratios})  # ints and Fractions alike
    nums = [r.numerator * (b // r.denominator) for r in ratios]
    prefix = list(itertools.accumulate(nums, initial=0))
    tally = [1] + [0] * Q.bit_length()  # k norms >= 2 have a product >= 2^k

    def walk(i: int, cap: int, t: int, k: int) -> None:
        hi = bisect_right(norms, cap, i)
        tally[k + 1] += t * (prefix[hi] - prefix[i])
        for j in range(i, bisect_right(norms, math.isqrt(cap), i, hi)):  # N^2 <= cap
            walk(j + 1, cap // norms[j], t * nums[j], k + 1)

    walk(0, Q, 1, 0)
    return sum((Fraction(T, b**k) for k, T in enumerate(tally) if T), Fraction(0))
