"""Odd-degree hyperelliptic moduli inside weighted projective space.

A point of weights (4, 6, ..., 4g+2) is read as the curve

    y^2 = t^{2g+1} + x_0 t^{2g-1} + x_1 t^{2g-2} + ... + x_{2g-1}

(no t^{2g} term).  The module provides smoothness (nonvanishing
discriminant, computed exactly), rational 2-torsion (an integer root of the
right-hand side), a bounded-height census over a grid of height cutoffs,
and log-log exponent fits of the census columns.

The census totals are wps.count at each cutoff (the Moebius closed form),
less the singular tuples with --smooth-only.  Thin members and singular
tuples are found in one loop over blocks of _BLOCK_ROWS prefixes (all
coordinates but the last); with neither a thin tester nor --smooth-only no
prefix is visited.  A block's candidate values y of the last coordinate come
from one of three sources.  A cover whose constant term is +-y, such as
two-torsion, is solved a block at a time by Cover.solve_columns:
one rows x (2T+1) matrix of y = -s * f(t), T the Fujiwara root bound, int64
when its exact value bound stays below 2^63 and Python ints otherwise, so
any height is exact.  Other covers are evaluated once per prefix over the
whole window (object arrays) and tested at every y.  With --smooth-only the singular
values are the integer roots of Res_t(f, f') as a polynomial in y, which is
(2g+1)^{2g+1} times a characteristic polynomial: it is built mod a few
primes for the whole block (Faddeev-LeVerrier on int64 matrices), filtered
by a rows x p matrix of its values mod each prime and CRT, and each
candidate is checked with one exact resultant; they are counted and also
masked out of the thin members.  One counter, _count_block, drops the
candidates that are not points (the zero tuple, weighted gcd > 1) and
counts the rest at every cutoff from the row's smallest one.  The budget
counts this work: prefixes times 2T+1 with a thin cover, prefixes alone
without one, the box for testers solve_columns cannot take, and with
--smooth-only prefixes times the sum of the filter primes.  Every route is
checked against brute-force oracles in the tests.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import arith, covers
from .wps import (
    DEFAULT_BUDGET,
    WeightVector,
    WpsPoint,
    as_bound,
    box_cutoffs,
    box_primes,
    box_volume,
    check_budget,
    clip_ranges,
    count,
    map_chunks,
)


def moduli_weights(g: int) -> WeightVector:
    if not isinstance(g, int) or g < 1:
        raise ValueError(f"genus must be a positive integer, got {g!r}")
    return WeightVector(tuple(range(4, 4 * g + 3, 2)))


@dataclass(frozen=True)
class HyperellipticPoint:
    genus: int
    point: WpsPoint

    def poly(self) -> list[int]:
        """Ascending coefficients of t^{2g+1} + x_0 t^{2g-1} + ... + x_{2g-1}."""
        return _poly_from_coords(self.genus, self.point.coords)


def _poly_from_coords(g: int, coords: Sequence[int]) -> list[int]:
    # coefficient of t^j is x_{2g-1-j}; the t^{2g} slot is empty; monic.
    return [*reversed(coords), 0, 1]


def curve_from_point(point: WpsPoint, g: int) -> HyperellipticPoint:
    if point.weights != moduli_weights(g):
        raise ValueError(
            f"point weights {tuple(point.weights)} are not the genus-{g} moduli "
            f"weights {tuple(moduli_weights(g))}"
        )
    return HyperellipticPoint(g, point)


# --- exact polynomial arithmetic ------------------------------------------


def _trim(poly: Sequence[int]) -> list[int]:
    out = list(poly)
    while out and out[-1] == 0:
        out.pop()
    return out


def _derivative(poly: Sequence[int]) -> list[int]:
    return [k * c for k, c in enumerate(poly)][1:]


def _prem(A: list[int], B: list[int]) -> list[int]:
    """Pseudo-remainder: lc(B)^{degA-degB+1} * A mod B, exact over Z."""
    dA, dB = len(A) - 1, len(B) - 1
    lb = B[-1]
    R = list(A)
    for k in range(dA, dB - 1, -1):
        c = R[k]
        R = [lb * r for r in R]
        if c:
            for j in range(dB + 1):
                R[j + k - dB] -= c * B[j]
    return R[:dB]


def resultant(A: Sequence[int], B: Sequence[int]) -> int:
    """Res(A, B) for integer polynomials (ascending coefficients).

    Subresultant PRS: all intermediate divisions are exact in Z, so the
    value is computed without rationals.
    """
    A = _trim(A)
    B = _trim(B)
    if not A or not B:
        return 0
    degA, degB = len(A) - 1, len(B) - 1
    if degA == 0 and degB == 0:
        return 1
    s = 1
    if degA < degB:
        if degA % 2 == 1 and degB % 2 == 1:
            s = -s
        A, B, degA, degB = B, A, degB, degA
    if degB == 0:
        return s * B[0] ** degA
    ca, cb = math.gcd(*A), math.gcd(*B)
    A = [c // ca for c in A]
    B = [c // cb for c in B]
    t = ca**degB * cb**degA
    g = h = 1
    while True:
        degA, degB = len(A) - 1, len(B) - 1
        delta = degA - degB
        if degA % 2 == 1 and degB % 2 == 1:
            s = -s
        R = _trim(_prem(A, B))
        if not R:
            return 0  # nonconstant common factor
        den = g * h**delta
        if any(c % den for c in R):
            raise AssertionError("subresultant division was not exact")
        R = [c // den for c in R]
        A, B = B, R
        g = A[-1]
        if delta > 0:
            h = g**delta // h ** (delta - 1)
        if len(B) == 1:
            degA = len(A) - 1
            num = B[0] ** degA
            den = h ** (degA - 1)
            if num % den:
                raise AssertionError("final subresultant division was not exact")
            return s * t * (num // den)


def _disc_poly(poly: Sequence[int]) -> int:
    """Discriminant of a monic integer polynomial (ascending coefficients)."""
    n = len(_trim(poly)) - 1
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(poly, _derivative(poly))


def discriminant(h: HyperellipticPoint) -> int:
    return _disc_poly(h.poly())


def is_smooth(h: HyperellipticPoint) -> bool:
    """Nonvanishing discriminant of the defining polynomial."""
    return discriminant(h) != 0


def has_rational_two_torsion(h: HyperellipticPoint) -> bool:
    """Integer root of the defining polynomial (a rational 2-torsion x-coordinate)."""
    return covers.root_cover_member(covers.two_torsion_cover(h.genus), h.point)


# --- singular values along a column ---------------------------------------


def _filter_primes(bound: int, above: int = 0) -> list[int]:
    """Primes over max(100, above), ascending, until their product passes
    2 * bound, so that CRT tells apart every |y| <= bound.  Primes up to
    10^4 + 2 (bit length of bound + above) suffice, as theta(x) > 0.89 x there."""
    out = []
    for p in arith.primes_up_to(10_000 + 2 * (bound.bit_length() + above))[25:]:
        if p > above:
            out.append(p)
            if math.prod(out) > 2 * bound:
                return out
    raise AssertionError("prime pool exhausted while filtering roots")


def _integer_roots_block(rows_mod, bound: int, is_root, above: int = 0) -> list[list[int]]:
    """Per row of a block of integer polynomials in y, the sorted integer
    roots y with |y| <= bound.

    rows_mod(p) gives the rows' ascending coefficients mod p, int64 with no
    row zero, for each of the _filter_primes(bound, above); is_root(i, y)
    decides exactly whether y is a root of row i.  The window is filtered by
    the roots mod each prime (one rows x p matrix of values: the rows times
    the powers of 0..p-1), and the CRT candidates in it go to is_root.
    Every integer root is a root mod every prime, so the filter is complete."""
    primes = _filter_primes(bound, above)
    hits = []
    for p in primes:
        Rp = rows_mod(p)
        if not Rp.any(axis=1).all():
            raise AssertionError("a row of the root finder vanishes mod p")
        V = np.ones((Rp.shape[1], p), dtype=np.int64)  # V[j, r] = r^j mod p
        for j in range(1, len(V)):
            V[j] = V[j - 1] * np.arange(p) % p
        hits.append(Rp @ V % p == 0)
    mod = math.prod(primes)
    crt = [mod // p * pow(mod // p, -1, p) for p in primes]  # 1 mod p, 0 mod the rest
    alive = np.logical_and.reduce([h.any(axis=1) for h in hits])
    out: list[list[int]] = [[] for _ in alive]
    for i in np.flatnonzero(alive).tolist():
        combos = itertools.product(*(np.flatnonzero(h[i]).tolist() for h in hits))
        ys = [(sum(r * e for r, e in zip(combo, crt)) + bound) % mod - bound for combo in combos]
        out[i] = sorted(y for y in ys if y <= bound and is_root(i, y))
    return out


def _res_poly_mod(g: int, X: np.ndarray, p: int) -> np.ndarray:
    """Ascending coefficients in y of Res_t(f_0 + y, f') mod a prime p > 2g+1,
    per prefix row (x_0, ..., x_{2g-2}) of X: int64, shape (rows, 2g+1).

    With n = 2g+1 and c_j the coefficient of t^j in f_0, n f_0 - t f' is
    sum_j (n-j) c_j t^j, so r = f_0 mod f' has coefficients (n-j) c_j / n, and
    Res_t(f_0 + y, f') = n^n prod_{f'(tau)=0} (y + r(tau)) = n^n det(yI + M_r),
    M_r the multiplication by r on F_p[t]/(f'/n).  Faddeev-LeVerrier gives
    det(yI - A) for A = -M_r, dividing only by k <= 2g < p."""
    n, d = 2 * g + 1, 2 * g
    c = (X[:, ::-1] % p).astype(np.int64) * pow(n, -1, p) % p  # c_j / n, j = 1..2g-1
    j, zero = np.arange(1, d), np.zeros((len(X), 1), dtype=np.int64)
    h = np.concatenate([c * j % p, zero], axis=1)  # f'/n - t^{2g}, ascending
    v = np.concatenate([zero, c * (n - j) % p], axis=1)  # t^k r mod f'/n, from k = 0
    A = np.empty((len(X), d, d), dtype=np.int64)
    for k in range(d):
        A[:, :, k] = -v % p
        v = (np.concatenate([zero, v[:, :-1]], axis=1) - v[:, -1:] * h) % p
    coef = np.zeros((len(X), d + 1), dtype=np.int64)
    coef[:, d] = 1
    M, diag = np.zeros_like(A), np.arange(d)
    for k in range(1, d + 1):  # M_k = A M_{k-1} + c_{d-k+1} I, then M = A M_k
        M[:, diag, diag] += coef[:, d - k + 1, None]
        M = A @ M % p
        coef[:, d - k] = -M[:, diag, diag].sum(axis=1) * pow(k, -1, p) % p
    return coef * pow(n, n, p) % p


def _singular_block(g: int, prefixes: Sequence[Sequence[int]], bound: int) -> list[list[int]]:
    """Per prefix of a nonempty block, the y with |y| <= bound where the
    column's curve polynomial has a repeated root: the integer roots of
    Res_t(f_y, f'), of degree 2g in y with leading coefficient (2g+1)^{2g+1}
    (no row vanishes mod a filter prime), each checked by one _disc_poly."""
    X = np.array(prefixes, dtype=object).reshape(len(prefixes), 2 * g - 1)
    return _integer_roots_block(
        lambda p: _res_poly_mod(g, X, p), bound,
        lambda i, y: _disc_poly(_poly_from_coords(g, (*prefixes[i], y))) == 0, above=2 * g + 1)


# --- census ----------------------------------------------------------------


@dataclass(frozen=True)
class CensusRow:
    bound: Fraction
    total: int
    thin: int
    thin_label: str


@dataclass
class CensusTable:
    rows: list[CensusRow]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        prev = None
        for r in self.rows:
            if r.total < 0 or r.thin < 0 or r.thin > r.total:
                raise ValueError(f"invalid census row {r}")
            if prev is not None and r.bound <= prev:
                raise ValueError("census heights must increase strictly")
            prev = r.bound

    def column(self, name: str) -> list[int]:
        if name == "total":
            return [r.total for r in self.rows]
        if name == "thin":
            return [r.thin for r in self.rows]
        raise ValueError(f"unknown census column {name!r}")

    def to_csv(self, fh) -> None:
        fh.write("B,total,thin,thin_label\n")
        for r in self.rows:
            fh.write(f"{_fmt_bound(r.bound)},{r.total},{r.thin},{r.thin_label}\n")

    @classmethod
    def from_csv(cls, fh) -> "CensusTable":
        header = fh.readline().strip()
        if header != "B,total,thin,thin_label":
            raise ValueError(f"unexpected census header {header!r}")
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            b, total, thin, label = line.split(",")
            rows.append(CensusRow(Fraction(b), int(total), int(thin), label))
        return cls(rows)


def _fmt_bound(b: Fraction) -> str:
    return str(b.numerator) if b.denominator == 1 else format(float(b), ".12g")


_TESTER_NAMES = ("two-torsion", "disc-square", "none")


def _tester_cover(name: str, g: int) -> Optional[covers.Cover]:
    if name == "none":
        return None
    if name == "two-torsion":
        return covers.two_torsion_cover(g)
    if name == "disc-square":
        if g != 1:
            raise ValueError("disc-square tester is defined for genus 1 only")
        return covers.disc_square_cover_g1()
    raise ValueError(f"unknown tester {name!r}; choose from {_TESTER_NAMES}")


def census(
    g: int,
    grid: Sequence,
    thin: str = "two-torsion",
    smooth_only: bool = False,
    *,
    workers: int = 1,
    budget=DEFAULT_BUDGET,
) -> CensusTable:
    """Point totals and thin counts for every height cutoff in the grid.

    The totals come from wps.count.  One pass over coordinate prefixes
    finds the thin (and, with smooth_only, the singular) tuples of the whole
    grid: each prefix is bucketed by the smallest cutoff whose box contains
    it and its last coordinate is counted per cutoff.
    """
    t0 = time.perf_counter()
    wv = moduli_weights(g)
    bounds = [as_bound(b) for b in grid]
    if not bounds:
        raise ValueError("census needs a nonempty height grid")
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError("census heights must increase strictly")
    cover = _tester_cover(thin, g)  # validate the name before any work
    if budget is not None:
        work = _census_work(wv, bounds[-1], cover, smooth_only)
        check_budget(work, budget, "census needs {} steps")
    sings, thins = [0] * len(bounds), [0] * len(bounds)
    if cover is not None or smooth_only:
        m0 = box_cutoffs(wv, bounds[-1])[0]
        parts = map_chunks(_census_chunk, (g, bounds, thin, smooth_only), m0, workers)
        sings = [sum(col) for col in zip(*(p[0] for p in parts))]
        thins = [sum(col) for col in zip(*(p[1] for p in parts))]
    rows = [
        CensusRow(b, count(wv, b, budget=None) - sing, th, thin)
        for b, sing, th in zip(bounds, sings, thins)
    ]
    meta = {
        "genus": g,
        "thin": thin,
        "smooth_only": smooth_only,
        "workers": workers,
        "wall_time_s": time.perf_counter() - t0,
    }
    return CensusTable(rows, meta)


def _census_work(wv, bound, cover, smooth_only) -> int:
    """Steps the census takes up to its top height: the box for the pointwise
    path; for the column path the prefixes, times the row width 2T+1 of the
    solved columns with a thin cover; with smooth_only plus prefixes x sum p,
    the singular finder's value cells."""
    Ms = box_cutoffs(wv, bound)
    prefixes = math.prod(2 * m + 1 for m in Ms[:-1])
    work = prefixes * sum(_filter_primes(Ms[-1], len(wv) + 1)) if smooth_only else 0  # 2g+1
    if cover is None:
        return work + prefixes
    if cover.column_solver() is None:
        return work + box_volume(wv, bound)
    return work + prefixes * cover.column_width(Ms[:-1], Ms[-1])


def _census_chunk(args) -> tuple[list[int], list[int]]:
    """(singular, thin) counts per cutoff over the prefixes of one x0 range.

    One loop over blocks of _BLOCK_ROWS prefixes.  The candidate last
    coordinates of a block come from the singular finder (with smooth_only),
    from the columns of a solvable cover or from the pointwise tester,
    and every kind is counted by _count_block."""
    g, bounds, thin, smooth_only, x0_range = args
    wv = moduli_weights(g)
    cutoffs = [box_cutoffs(wv, b) for b in bounds]
    prefix_cut = np.array([c[:-1] for c in cutoffs], dtype=object)
    m = cutoffs[-1][-1]
    cover = _tester_cover(thin, g)
    solvable = cover is not None and cover.column_solver() is not None
    plist = box_primes(wv, bounds[-1])
    sings, thins = [0] * len(bounds), [0] * len(bounds)
    prefixes = itertools.product(*clip_ranges(cutoffs[-1][:-1], x0_range))
    while block := list(itertools.islice(prefixes, _BLOCK_ROWS)):
        X = np.array(block, dtype=object)
        # first cutoff whose box holds the prefix; the boxes are nested
        j0 = len(bounds) - (abs(X)[:, None, :] <= prefix_cut).all(axis=2).sum(axis=1)
        if smooth_only:
            sing_ys, sing_keep = _padded(_singular_block(g, block, m))
            _count_block(X, sing_ys, sing_keep, j0, cutoffs, plist, sings)
        if solvable:
            ys, keep = cover.solve_columns(block, m)
        elif cover is not None:  # per prefix, the cover's coefficients over the whole window
            window, found = np.array(range(-m, m + 1), dtype=object), []
            for x in block:
                C = [np.broadcast_to(c, window.shape).tolist()
                     for c in cover.poly_at([*x, window])]
                found.append([k - m for k, c in enumerate(zip(*C)) if covers.has_integer_root(c)])
            ys, keep = _padded(found)
        else:
            continue
        if smooth_only:  # disc = +-Res(f, f'): the singular members are not thin
            sing_ys = sing_ys.astype(ys.dtype)  # |y| <= m fits any dtype ys has
            for k in range(sing_ys.shape[1]):
                keep &= ~(sing_keep[:, k, None] & (ys == sing_ys[:, k, None]))
        _count_block(X, ys, keep, j0, cutoffs, plist, thins)
    return sings, thins


# Prefixes per block.  Fixed, so that the blocks (and solve_columns'
# dtype choices) do not depend on the worker count.
_BLOCK_ROWS = 128


def _padded(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(ys, keep) for ragged per-row lists of values: an object array padded
    with zeros, and the mask of the entries that are values."""
    lengths = np.array([len(r) for r in rows])
    ys = np.zeros((len(rows), lengths.max()), dtype=object)
    for i, r in enumerate(rows):
        ys[i, : len(r)] = r
    return ys, np.arange(ys.shape[1]) < lengths[:, None]


def _count_block(X, ys, keep, j0, cutoffs, plist, counts) -> None:
    """Add the points among a block's candidates to the counts of every cutoff.

    Row i of ys holds candidate last coordinates y over the prefix X[i],
    those marked in keep[i].  (X[i], y) is a point unless it is all zero or
    some prime p of plist has p^{a_k} dividing every coordinate (weighted
    gcd > 1).  A point counts at cutoff j when j0[i] <= j and |y| <= M_j.
    """
    ok = keep & ((ys != 0) | (X != 0).any(axis=1)[:, None])
    for _, pas in plist:
        rows = (X % pas[:-1] == 0).all(axis=1)
        if rows.any():
            ok[rows] &= ys[rows] % pas[-1] != 0
    for j, c in enumerate(cutoffs):
        inside = ok & (ys >= -c[-1]) & (ys <= c[-1])
        counts[j] += int(np.count_nonzero(inside[j0 <= j]))


# --- exponent fits ---------------------------------------------------------


class FitResult(NamedTuple):
    slope: float
    stderr: float


def fit_exponent(table: CensusTable, column: str = "total") -> FitResult:
    """Least-squares slope of log(count) against log(B), with its standard error."""
    data = [
        (float(r.bound), v)
        for r, v in zip(table.rows, table.column(column))
        if v > 0
    ]
    if len(data) < 3:
        raise ValueError("exponent fit needs at least 3 rows with positive counts")
    x = np.log(np.array([b for b, _ in data]))
    y = np.log(np.array([v for _, v in data], dtype=float))
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    if sxx == 0:
        raise ValueError("height grid is degenerate for fitting")
    slope = float(np.dot(xc, y - y.mean()) / sxx)
    resid = y - y.mean() - slope * xc
    ssr = float(np.dot(resid, resid))
    stderr = math.sqrt(max(ssr, 0.0) / (len(data) - 2) / sxx)
    return FitResult(slope, stderr)


def recommended_Q(bound, weights: WeightVector) -> int:
    """floor(B^{min a_i / 2}), the sieve cutoff balancing the bound."""
    b = as_bound(bound)
    m = weights.min_weight
    return math.isqrt(b.numerator**m // b.denominator**m)
