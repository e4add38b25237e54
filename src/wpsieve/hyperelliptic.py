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
two-torsion, is solved by the block column kernel (covers.ColumnKernel):
one rows x (2T+1) matrix of y = -s * f(t), T the Fujiwara root bound, int64
when its exact value bound stays below 2^63 and Python ints otherwise, so
any height is exact.  Other covers are tested at every y of the window.
With --smooth-only the singular values come from 2g+1 exact resultants per
prefix, one integer matrix product for the polynomial Res_t(f, f') in y,
and its integer roots from Horner matrices mod a few primes and CRT; they
are counted and also masked out of the thin members.  One counter,
_count_block, drops the candidates that are not points (the zero tuple,
weighted gcd > 1) and counts the rest at every cutoff from the row's
smallest one.  The budget counts this work: prefixes times 2T+1 with a
thin cover, prefixes alone without one, and the box for testers the kernel
cannot solve.  Every route is checked against brute-force oracles in the
tests.
"""

from __future__ import annotations

import functools
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
    BudgetExceededError,
    WeightVector,
    WpsPoint,
    as_bound,
    box_cutoffs,
    box_primes,
    box_volume,
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


def _content(poly: Sequence[int]) -> int:
    g = 0
    for c in poly:
        g = math.gcd(g, c)
    return g


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
    ca, cb = _content(A), _content(B)
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


@functools.cache
def _interp_matrix(g: int) -> tuple[np.ndarray, int]:
    """(M, D) with M / D the inverse Vandermonde at y = 0..2g: a polynomial
    of degree <= 2g with values v_k at y = k has ascending coefficients
    M @ v / D.  Column k of D * V^{-1} is D times the Lagrange basis
    prod_{j != k} (y - j) / (k - j); D = (2g)! clears every denominator."""
    n = 2 * g + 1
    D = math.factorial(n - 1)
    M = np.zeros((n, n), dtype=object)
    for k in range(n):
        basis, denom = [1], 1
        for j in range(n):
            if j != k:
                basis = [a - j * b for a, b in zip([0, *basis], [*basis, 0])]
                denom *= k - j
        M[:, k] = [b * D // denom for b in basis]
    return M, D


def _integer_roots_block(R: np.ndarray, bound: int) -> list[list[int]]:
    """Per row of R (an object array of ascending integer coefficients, no
    row zero), the integer roots y with |y| <= bound, sorted, found exactly.

    Rows are divided by their content, so none vanishes identically mod a
    prime.  The window is filtered by the roots mod a few primes whose
    product exceeds its width (one rows x p Horner matrix each); CRT
    candidates are verified exactly.  Every integer root reduces to a root
    mod every prime, so the filter is complete."""
    content = np.gcd.reduce(R, axis=1)
    if not content.all():
        raise AssertionError("a row of the root finder is the zero polynomial")
    R = R // content[:, None]
    primes, hits, prod = [], [], 1
    for p in arith.primes_up_to(10_000)[25:]:  # 101, 103, ...
        Rp = (R % p).astype(np.int64)
        r = np.arange(p, dtype=np.int64)
        acc = np.zeros((len(R), p), dtype=np.int64)
        for j in range(R.shape[1] - 1, -1, -1):
            acc = (acc * r + Rp[:, j, None]) % p
        primes.append(p)
        hits.append(acc == 0)
        prod *= p
        if prod > 2 * bound:
            break
    else:
        raise AssertionError("prime pool exhausted while filtering roots")
    alive = np.logical_and.reduce([h.any(axis=1) for h in hits])
    out: list[list[int]] = [[] for _ in range(len(R))]
    for i in np.flatnonzero(alive).tolist():
        row = R[i].tolist()
        found = set()
        for combo in itertools.product(*(np.flatnonzero(h[i]).tolist() for h in hits)):
            x, mod = 0, 1
            for p, r in zip(primes, combo):
                x += mod * ((r - x) * pow(mod, -1, p) % p)
                mod *= p
            y = ((x + bound) % mod) - bound
            if -bound <= y <= bound and covers.poly_eval(row, y) == 0:
                found.add(y)
        out[i] = sorted(found)
    return out


def _singular_block(g: int, prefixes: Sequence[Sequence[int]], bound: int) -> list[list[int]]:
    """Per prefix of a nonempty block, the values y of the last coordinate,
    |y| <= bound, where the column's curve polynomial has a repeated root.

    Res_t(f_y, f') is a polynomial of degree <= 2g in y (f' does not involve
    y): its values at y = 0..2g are exact resultants, its coefficients one
    integer matrix product with _interp_matrix(g) away, and its integer
    roots in the window come from _integer_roots_block."""
    vals = []
    for prefix in prefixes:
        base = _poly_from_coords(g, (*prefix, 0))
        dfdt = _derivative(base)
        vals.append([resultant([k, *base[1:]], dfdt) for k in range(2 * g + 1)])
    M, D = _interp_matrix(g)
    R = np.array(vals, dtype=object) @ M.T
    if (R % D).any():
        raise AssertionError("interpolation of an integer family left a denominator")
    return _integer_roots_block(R // D, bound)


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
        work = _census_work(wv, bounds[-1], cover)
        if work > budget:
            raise BudgetExceededError(work, budget, "census needs {} steps")
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


def _census_work(wv, bound, cover) -> int:
    """Steps the census takes up to its top height: the box for the pointwise
    path; for the column path the prefixes, times the row width 2T+1 of the
    column kernel when there is a thin cover."""
    if cover is not None and cover.column_solver() is None:
        return box_volume(wv, bound)
    Ms = box_cutoffs(wv, bound)
    prefixes = math.prod(2 * m + 1 for m in Ms[:-1])
    if cover is None:
        return prefixes
    return prefixes * cover.column_width(Ms[:-1], Ms[-1])


def _census_chunk(args) -> tuple[list[int], list[int]]:
    """(singular, thin) counts per cutoff over the prefixes of one x0 range.

    One loop over blocks of _BLOCK_ROWS prefixes.  The candidate last
    coordinates of a block come from the singular finder (with smooth_only),
    from the column kernel of a solvable cover or from the pointwise tester,
    and every kind is counted by _count_block."""
    g, bounds, thin, smooth_only, x0_range = args
    wv = moduli_weights(g)
    cutoffs = [box_cutoffs(wv, b) for b in bounds]
    prefix_cut = np.array([c[:-1] for c in cutoffs], dtype=object)
    m = cutoffs[-1][-1]
    cover = _tester_cover(thin, g)
    solvable = cover is not None and cover.column_solver() is not None
    kernel = cover.column_kernel() if solvable else None
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
        if kernel is not None:
            ys, keep = kernel.solve(block, m)
        elif cover is not None:
            ys, keep = _padded([
                [y for y in range(-m, m + 1)
                 if covers.has_integer_root(cover.poly_at((*prefix, y)))]
                for prefix in block
            ])
        else:
            continue
        if smooth_only:  # disc = +-Res(f, f'): the singular members are not thin
            sing_ys = sing_ys.astype(ys.dtype)  # |y| <= m fits any dtype ys has
            for k in range(sing_ys.shape[1]):
                keep &= ~(sing_keep[:, k, None] & (ys == sing_ys[:, k, None]))
        _count_block(X, ys, keep, j0, cutoffs, plist, thins)
    return sings, thins


# Prefixes per block.  Fixed, so that the blocks (and the column kernel's
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
