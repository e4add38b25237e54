"""Rational points of weighted projective space.

Coordinates transform by lambda . (x_0,...,x_n) = (lambda^{a_0} x_0, ...,
lambda^{a_n} x_n).  Orbits are represented by integer tuples of weighted gcd
1 with a fixed sign convention, the height max_i |x_i|^{1/a_i} is compared
through L-th powers (L = lcm a_i) so rational height cutoffs are exact, and
bounded-height enumeration walks the box |x_i| <= B^{a_i} directly.

Counts are computed, not walked: d divides the weighted gcd exactly when
d^{a_i} | x_i for every i, so a Moebius sum over d <= B gives the number of
points (the plain gcd likewise, with d | x_i), one term per moebius_boxes
box: count takes the boxes' volumes, the census their thin members, and the
enumeration stays as their oracle.  The sieve's survivors walk a box: they
cut the first coordinate across workers with map_chunks (as the genus-1
disc-square census does), take int64 blocks of prefixes (all but the last
coordinate) of BLOCK_BYTES from prefix_blocks, signs from leading_signs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import arith

DEFAULT_BUDGET = 5_000_000_000

# Chunk count for parallel partitioning of the outermost coordinate.  Every
# chunk returns exact integer counts, and merging sums them, so the result is
# the same for any number of workers (one worker takes the whole box at once).
_CHUNKS = 32

# Bytes per block of prefix_blocks, and of the census's root-set grid
# (hyperelliptic._divisible).  The sieve's blocks differ between one worker
# and several, but each yields exact integer counts, so their sum does not.
BLOCK_BYTES = 1 << 20


class BudgetExceededError(RuntimeError):
    """A job needs more work steps (by default, enumeration-box tuples) than
    the configured budget."""

    def __init__(self, volume: int, budget: int,
                 what: str = "enumeration box holds {} tuples"):
        super().__init__(f"{what.format(volume)}, budget is {budget}")
        self.volume = volume
        self.budget = budget


@dataclass(frozen=True)
class WeightVector:
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if not self.weights:
            raise ValueError("weight vector must be nonempty")
        if any(not isinstance(a, int) or a < 1 for a in self.weights):
            raise ValueError(f"weights must be positive integers: {self.weights}")

    @property
    def total(self) -> int:
        return sum(self.weights)

    @property
    def min_weight(self) -> int:
        return min(self.weights)

    @property
    def lcm(self) -> int:
        return math.lcm(*self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)


@dataclass(frozen=True)
class WpsPoint:
    """Normalized representative: integer coords, weighted gcd 1, canonical sign."""

    coords: tuple[int, ...]
    weights: WeightVector


@dataclass(frozen=True)
class IntegralPoint:
    """Integer tuple with plain gcd 1 and canonical sign."""

    coords: tuple[int, ...]
    weights: WeightVector


def as_bound(bound) -> Fraction:
    """Coerce a height bound to a positive Fraction."""
    b = Fraction(bound)
    if b <= 0:
        raise ValueError(f"height bound must be positive, got {bound!r}")
    return b


def box_cutoffs(weights: WeightVector, bound) -> tuple[int, ...]:
    """Per-coordinate cutoffs floor(B^{a_i}), computed exactly."""
    b = as_bound(bound)
    return tuple(b.numerator**a // b.denominator**a for a in weights)


def box_volume(weights: WeightVector, bound) -> int:
    return math.prod(2 * m + 1 for m in box_cutoffs(weights, bound))


def is_sign_canonical(coords: Sequence[int], weights: WeightVector) -> bool:
    for x, a in zip(coords, weights):
        if a % 2 == 1 and x != 0:
            return x > 0
    return True


def sign_canonical(coords: Sequence[int], weights: WeightVector) -> tuple[int, ...]:
    """Apply lambda = -1 when the first odd-weight nonzero coordinate is negative.

    If no coordinate has odd weight, -1 acts trivially and the tuple is
    returned unchanged.
    """
    if is_sign_canonical(coords, weights):
        return tuple(coords)
    return tuple(-x if a % 2 == 1 else x for x, a in zip(coords, weights))


def wgcd(coords: Sequence[int], weights: WeightVector) -> int:
    """Weighted gcd: prod_p p^{min_i floor(v_p(x_i)/a_i)}.

    Zero coordinates have infinite valuation and drop out of the min; the
    all-zero tuple is rejected.  Only primes dividing every nonzero
    coordinate can contribute.
    """
    coords = tuple(coords)
    if len(coords) != len(weights):
        raise ValueError("coordinate/weight length mismatch")
    nz = [(abs(x), a) for x, a in zip(coords, weights) if x != 0]
    if not nz:
        raise ValueError("weighted gcd of the all-zero tuple is undefined")
    g = 0
    for x, _ in nz:
        g = math.gcd(g, x)
    out = 1
    for p, _ in arith.factorize(g).factors:
        e = min(arith.valuation(x, p) // a for x, a in nz)
        out *= p**e
    return out


def normalize(coords, weights: WeightVector) -> WpsPoint:
    """Canonical representative of the orbit of a rational tuple.

    Scaling by lambda = the lcm of the denominators gives integers (each
    a_i >= 1); x_i / g^{a_i}, g = their wgcd, has weighted gcd 1, a
    representative unique up to lambda = -1, which the sign canon fixes.
    """
    xs = [Fraction(c) for c in coords]
    if len(xs) != len(weights):
        raise ValueError("coordinate/weight length mismatch")
    if all(x == 0 for x in xs):
        raise ValueError("cannot normalize the all-zero tuple")
    lam = math.lcm(*(x.denominator for x in xs))
    xs = [x * lam**a for x, a in zip(xs, weights)]
    assert all(x.denominator == 1 for x in xs), f"scaling by {lam} left a denominator: {xs}"
    g = wgcd([x.numerator for x in xs], weights)
    ints = [x.numerator // g**a for x, a in zip(xs, weights)]
    return WpsPoint(sign_canonical(ints, weights), weights)


def height(point: WpsPoint) -> float:
    """max_i |x_i|^{1/a_i}; the maximizing index is located exactly."""
    L = point.weights.lcm
    best = max(
        abs(x) ** (L // a) for x, a in zip(point.coords, point.weights)
    )
    if best == 0:
        raise ValueError("height of the all-zero tuple is undefined")
    return math.exp(math.log(best) / L)


def height_leq(point: WpsPoint, bound) -> bool:
    """Exact comparison height(P) <= B for rational B."""
    b = as_bound(bound)
    L = point.weights.lcm
    pL = b.numerator**L
    qL = b.denominator**L
    return all(
        abs(x) ** (L // a) * qL <= pL for x, a in zip(point.coords, point.weights)
    )


# --- enumeration -----------------------------------------------------------


def check_budget(work: int, budget, what: str = "enumeration box holds {} tuples") -> None:
    """Refuse work past the budget (None: no limit) with BudgetExceededError."""
    if budget is not None and work > budget:
        raise BudgetExceededError(work, budget, what)


def _iter_canonical(
    weights: WeightVector, bound, budget, integral: bool
) -> Iterator[tuple[int, ...]]:
    check_budget(box_volume(weights, bound), budget)
    b = as_bound(bound)  # p^{a_i} | x_i with some 0 < |x_i| <= B^{a_i} forces p <= B
    pas = [[p**a for a in weights] for p in arith.primes_up_to(b.numerator // b.denominator)]
    ranges = [range(-m, m + 1) for m in box_cutoffs(weights, bound)]
    for tup in itertools.product(*ranges):
        if not any(tup) or not is_sign_canonical(tup, weights):
            continue
        if integral:
            if math.gcd(*tup) != 1:
                continue
        elif any(all(x % q == 0 for x, q in zip(tup, qs)) for qs in pas):  # 0 % q == 0: v = inf
            continue
        yield tup


def enumerate_points(
    weights: WeightVector, bound, *, budget=DEFAULT_BUDGET
) -> Iterator[WpsPoint]:
    """Stream every normalized point of height <= B, in lexicographic order."""
    for tup in _iter_canonical(weights, bound, budget, integral=False):
        yield WpsPoint(tup, weights)


def enumerate_integral(
    weights: WeightVector, bound, *, budget=DEFAULT_BUDGET
) -> Iterator[IntegralPoint]:
    """Stream gcd-1 integer tuples of height <= B, in lexicographic order."""
    for tup in _iter_canonical(weights, bound, budget, integral=True):
        yield IntegralPoint(tup, weights)


# --- counting ----------------------------------------------------------------


def moebius_boxes(weights: WeightVector, bound, exponents: Sequence[int]) -> Iterator:
    """(mu summed over a block, box) per block of d on which the nonempty box
    floor(M_i / d^{e_i}) is constant, M_i = floor(B^{a_i}), mu-sum 0 skipped.
    In a set closed under x -> d.x both ways, its tuples of gcd 1 (e_i = a_i:
    weighted, 1: plain) number the sum of mu times its nonzero tuples per box.
    With some e_i > 1 the blocks are single d up to about n^{e_i / (e_i + 1)}
    (n: the last d), so the Mertens table then covers all of 1..n."""
    Ms = box_cutoffs(weights, bound)
    n = max(arith.iroot(m, e) for m, e in zip(Ms, exponents))
    mertens = arith.mertens(n, dense=max(exponents) > 1)
    d, before = 1, 0
    while d <= n:
        qs = tuple(m // d**e for m, e in zip(Ms, exponents))
        # the block ends at the last d' with d'^{e_i} <= M_i // q_i wherever q_i > 0
        end = min(arith.iroot(m // q, e) for m, q, e in zip(Ms, qs, exponents) if q)
        upto = mertens(end)
        if mu := upto - before:
            yield mu, qs
        d, before = end + 1, upto


def _count(weights: WeightVector, bound, exponents: Sequence[int], budget) -> int:
    # at most n blocks of d (n the last d of moebius_boxes) and L Mertens entries
    n = max(arith.iroot(m, e) for m, e in zip(box_cutoffs(weights, bound), exponents))
    L = n + 1 if max(exponents) > 1 else arith.iroot(n * n, 3) + 1  # dense, or about n^{2/3}
    check_budget(n + L, budget, "count needs {} steps")
    # A box of sides 2 q_i + 1 holds prod_i (2 q_i + 1) - 1 nonzero tuples.
    # Negation fixes the tuples whose odd-weight coordinates are all 0 and
    # pairs off the rest, so the sign-canonical count is (N_all + N_fixed) / 2.
    even = [i for i, a in enumerate(weights) if a % 2 == 0]
    n_all = n_fixed = 0
    for mu, qs in moebius_boxes(weights, bound, exponents):
        sides = [2 * q + 1 for q in qs]
        n_all += mu * (math.prod(sides) - 1)
        n_fixed += mu * (math.prod(sides[i] for i in even) - 1)
    return (n_all + n_fixed) // 2


def count(weights: WeightVector, bound, *, budget=DEFAULT_BUDGET) -> int:
    """Number of points of height <= B (weighted gcd 1, canonical sign).

    Computed by the Moebius sum over d <= B, taken over the blocks of d with
    equal quotients floor(M_i / d^{a_i}), not by walking the box, and charged
    its blocks and Mertens table (never more than the box volume)."""
    return _count(weights, bound, tuple(weights), budget)


def count_integral(weights: WeightVector, bound, *, budget=DEFAULT_BUDGET) -> int:
    """Number of gcd-1 canonical tuples of height <= B (Moebius sum over
    d <= max floor(B^{a_i}), taken over the blocks of d with equal
    quotients floor(B^{a_i} / d)); the budget is charged as for count."""
    return _count(weights, bound, (1,) * len(weights), budget)


# --- partitioning ------------------------------------------------------------


def _chunk_ranges(m0: int) -> list[range]:
    # Fixed partition of [-m0, m0]; independent of the worker count.
    width = 2 * m0 + 1
    pieces = min(width, _CHUNKS)
    bounds = [-m0 + (width * i) // pieces for i in range(pieces + 1)]
    return [range(bounds[i], bounds[i + 1]) for i in range(pieces)]


def Pool(processes: int):
    """multiprocessing.Pool, imported only when a pool starts."""
    from multiprocessing import Pool
    return Pool(processes)


def map_chunks(fn, args: tuple, cutoffs: Sequence[int], workers: int) -> list:
    """Results of fn((*args, ranges)), ranges = [range(-M_i, M_i + 1) per
    cutoff]: one call on the whole prefix box with workers <= 1 or no cutoff,
    else one per piece of a fixed partition of the first range.  Results
    agree for every worker count because each call returns exact integer
    counts and they are summed; fn is top-level, so Pool can pickle it, and
    no more processes start than there are pieces."""
    ranges = [range(-m, m + 1) for m in cutoffs]
    if workers <= 1 or not ranges:
        return [fn((*args, ranges))]
    tasks = [(*args, [piece, *ranges[1:]]) for piece in _chunk_ranges(cutoffs[0])]
    with Pool(min(workers, len(tasks))) as pool:
        return pool.map(fn, tasks)


def prefix_blocks(ranges: Sequence[range], row_bytes: int) -> Iterator[np.ndarray]:
    """The product of the ranges in lexicographic order, as int64 arrays with one
    column per range (no range: the one empty prefix).  Every block but the last
    has max(1, BLOCK_BYTES // bytes a row) rows: its 8-byte columns plus the
    caller's row_bytes (at least 1)."""
    rows = max(1, BLOCK_BYTES // (8 * len(ranges) + row_bytes))
    shape, starts = [len(r) for r in ranges], [r.start for r in ranges]
    size = math.prod(shape)
    for lo in range(0, size, rows):
        flat = np.arange(lo, min(lo + rows, size))
        X = np.empty((len(flat), len(shape)), dtype=np.int64)
        X[:] = np.transpose(np.unravel_index(flat, shape)) + starts if shape else 0
        yield X


def leading_signs(X: np.ndarray, weights: WeightVector) -> np.ndarray:
    """Per row of X (leading coordinates), the sign of its first nonzero
    coordinate of odd weight, 0 when none: a tuple beginning with the row is
    sign-canonical at 1, not at -1, and at 0 the later coordinates decide."""
    sign = np.zeros(len(X), dtype=np.int64)
    for col, a in reversed(list(zip(X.T, weights))):
        if a % 2:
            sign = np.where(col != 0, np.sign(col), sign)
    return sign
