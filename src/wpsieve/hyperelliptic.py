"""Odd-degree hyperelliptic moduli inside weighted projective space.

A point of weights (4, 6, ..., 4g+2) is read as the curve

    y^2 = t^{2g+1} + x_0 t^{2g-1} + x_1 t^{2g-2} + ... + x_{2g-1}

(no t^{2g} term).  The module provides smoothness (nonvanishing
discriminant, computed exactly), rational 2-torsion (an integer root of the
right-hand side), a bounded-height census over a grid of height cutoffs,
and log-log exponent fits of the census columns.

The census totals are wps.count at each cutoff (the Moebius closed form),
less the singular tuples with --smooth-only.  Thin members are found in one
loop over blocks of _BLOCK_ROWS prefixes (all coordinates but the last).  A
cover whose constant term is +-y (the last coordinate), such as two-torsion,
is solved a block at a time by Cover.solve_columns, exactly at any height;
other covers are tested at every y of the window.  One counter, _count_block,
drops the candidates that are not points (the zero tuple, weighted gcd > 1)
and counts the rest at every cutoff from the row's smallest one.

With --smooth-only the singular tuples are listed, not searched for, as
f = q^2 h (_singular_tuples), at a cost near their number, not the number
of prefixes; as one block of the same counter they come off the totals,
and those the tester accepts off the thin counts.  The budget counts the
work: prefixes times 2T+1 with a thin cover, the box for testers
solve_columns cannot take, and with --smooth-only the bound _singular_work,
all that --thin none charges.  Every route is checked against brute-force
oracles in the tests.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import covers
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


# --- the singular locus ------------------------------------------------------


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two polynomials, both given by coefficients in the same order."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _singular_tuples(g: int, Ms: Sequence[int], x0_range=None) -> set[tuple[int, ...]]:
    """Every tuple of the box |x_i| <= Ms[i] (x_0 cut down to x0_range as by
    wps.clip_ranges) whose curve polynomial f has a repeated root.

    Then f = q^2 h, q and h monic in Z[t], k = deg q in 1..g (Gauss's lemma).
    With coefficients from the top, c_s of t^{n-s} (n = 2g+1), c_1 = 0 gives
    h_1 = -2 q_1 and c_s = x_{s-2} must lie in its window.  For k < g, q comes
    from the root box |q_j| <= C(k, j) R^j (R = covers.root_bound), each h_s
    enters c_s with slope 1 and h's constant term enters c_s, s >= deg h,
    with slope P_{s - deg h} (P = q^2): one interval.  For k = g only q_1
    comes from the box, and q_s enters c_s with slope 2.  An f with several
    repeated factors is found once per q, and kept once."""
    n = 2 * g + 1
    x0 = clip_ranges(Ms[:1], x0_range)[0]
    lo, hi = [0, 0, x0.start, *(-m for m in Ms[1:])], [0, 0, x0.stop - 1, *Ms[1:]]  # c_s's window
    found: set[tuple[int, ...]] = set()

    def walk(k, q, h, cs):
        m, s = n - 2 * k, len(cs) + 2
        P = _mul(q, q)
        c = _mul(P, h + [0] * n)  # c_j over the known coefficients
        a = 2 if len(q) == s <= k else 1 if len(h) == s < m else 0  # q_s or h_s enters c_s
        if a:
            for v in range(-((c[s] - lo[s]) // a), (hi[s] - c[s]) // a + 1):
                walk(k, [*q, v] if a == 2 else q, h if a == 2 else [*h, v], [*cs, c[s] + a * v])
        elif len(h) == s == m:  # h_m = v: c_j = P_{j-m} v + c[j] for j = m..n
            vlo, vhi = lo[m] - c[m], hi[m] - c[m]  # P_0 = 1
            for p, K, l, u in zip(P[1:], c[m + 1:], lo[m + 1:], hi[m + 1:]):
                if p:
                    e1, e2 = (l - K, u - K) if p > 0 else (u - K, l - K)
                    vlo, vhi = max(vlo, -(-e1 // p)), min(vhi, e2 // p)
                elif not l <= K <= u:
                    return
            for v in range(vlo, vhi + 1):
                found.add((*cs, *(p * v + K for p, K in zip(P, c[m:n + 1]))))
        elif s > n:
            found.add(tuple(cs))
        elif lo[s] <= c[s] <= hi[s]:
            walk(k, q, h, [*cs, c[s]])

    R = covers.root_bound(n, Ms[-1], [*reversed(Ms[:-1]), 0])  # x_i of t^{2g-1-i}
    for k in range(1, g + 1):
        caps = [math.comb(k, j) * R**j for j in range(1, (k if k < g else 1) + 1)]
        for head in itertools.product(*(range(-c, c + 1) for c in caps)):
            walk(k, [1, *head], [1, -2 * head[0]], [])
    return found


def _singular_work(g: int, Ms: Sequence[int]) -> int:
    """A bound, known before the run, on the leaves of _singular_tuples'
    search, mirroring it: per k, the q from its root box times the window
    widths after it (2M+1 at slope 1, M+1 at slope 2)."""
    R, work = covers.root_bound(2 * g + 1, Ms[-1], [*reversed(Ms[:-1]), 0]), 0
    for k in range(1, g + 1):
        qs = math.prod(2 * math.comb(k, j) * R**j + 1 for j in range(1, (k if k < g else 1) + 1))
        windows = [2 * m + 1 for m in Ms[: 2 * (g - k)]] if k < g else [m + 1 for m in Ms[: g - 1]]
        work += qs * math.prod(windows)
    return work


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
    finds the thin tuples of the whole grid, each prefix bucketed by the
    smallest cutoff whose box holds it.  With smooth_only the singular tuples,
    listed as f = q^2 h, come off the totals and, when thin, off the thin
    counts; no prefix is visited for them.
    """
    t0 = time.perf_counter()
    wv = moduli_weights(g)
    bounds = [as_bound(b) for b in grid]
    if not bounds:
        raise ValueError("census needs a nonempty height grid")
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError("census heights must increase strictly")
    cover = _tester_cover(thin, g)  # validate the name before any work
    check_budget(_census_work(wv, bounds[-1], cover, smooth_only), budget, "census needs {} steps")
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
    path, the prefixes times the row width 2T+1 of the solved columns for
    the column path, none without a thin cover (it visits no prefix); with
    smooth_only plus _singular_work."""
    Ms = box_cutoffs(wv, bound)
    prefixes = math.prod(2 * m + 1 for m in Ms[:-1])
    work = _singular_work(len(wv) // 2, Ms) if smooth_only else 0
    if cover is None:
        return work
    if cover.column_solver() is None:
        return work + box_volume(wv, bound)
    return work + prefixes * cover.column_width(Ms[:-1], Ms[-1])


def _census_chunk(args) -> tuple[list[int], list[int]]:
    """(singular, thin) counts per cutoff over one x0 range: the singular
    tuples as one block of rows (X, y), less the thin tester's hits among
    them; then the thin members, from one loop over blocks of _BLOCK_ROWS
    prefixes (solved columns or the pointwise tester)."""
    g, bounds, thin, smooth_only, x0_range = args
    wv = moduli_weights(g)
    cutoffs = np.array([box_cutoffs(wv, b) for b in bounds], dtype=object)
    cover = _tester_cover(thin, g)
    plist = box_primes(wv, bounds[-1])
    sings, thins = [0] * len(bounds), [0] * len(bounds)
    if smooth_only:
        S = np.array(list(_singular_tuples(g, cutoffs[-1].tolist(), x0_range)),
                     dtype=object).reshape(-1, len(wv))
        X, ys = S[:, :-1], S[:, -1:]
        _count_block(X, ys, np.ones(ys.shape, dtype=bool), cutoffs, plist, sings)
        if cover is not None:
            _count_block(X, ys, _pointwise_keep(cover, X, ys), cutoffs, plist, thins)
            thins = [-h for h in thins]
    if cover is None:
        return sings, thins
    m = cutoffs[-1, -1]
    solvable = cover.column_solver() is not None
    prefixes = itertools.product(*clip_ranges(cutoffs[-1, :-1].tolist(), x0_range))
    while block := list(itertools.islice(prefixes, _BLOCK_ROWS)):
        X = np.array(block, dtype=object)
        if solvable:
            ys, keep = cover.solve_columns(block, m)
        else:
            ys = np.tile(np.arange(-m, m + 1).astype(object), (len(block), 1))
            keep = _pointwise_keep(cover, X, ys)
        _count_block(X, ys, keep, cutoffs, plist, thins)
    return sings, thins


# Prefixes per block.  Fixed, so that the blocks (and solve_columns'
# dtype choices) do not depend on the worker count.
_BLOCK_ROWS = 128


def _pointwise_keep(cover, X, ys):
    """keep[i, c]: the tester accepts (X[i], ys[i, c]), by has_integer_root
    on the cover's coefficients, evaluated once over object columns."""
    coeffs = cover.poly_at([*X.T[:, :, None], ys])
    polys = zip(*(np.broadcast_to(c, ys.shape).ravel().tolist() for c in coeffs))
    return np.array([covers.has_integer_root(p) for p in polys], dtype=bool).reshape(ys.shape)


def _count_block(X, ys, keep, cutoffs, plist, counts) -> None:
    """Add the points among a block's candidates to the counts of every cutoff.

    Row i of ys holds candidate last coordinates y over the prefix X[i],
    those marked in keep[i].  (X[i], y) is a point unless it is all zero or
    some prime p of plist has p^{a_k} dividing every coordinate (weighted
    gcd > 1).  Row j of the object array cutoffs is the box (M_0, ..., M_k)
    of cutoff j, and a point counts there when that box holds it; the boxes
    are nested, so a row counts from the first box j0 holding its prefix.
    """
    j0 = len(cutoffs) - (abs(X)[:, None, :] <= cutoffs[:, :-1]).all(axis=2).sum(axis=1)
    ok = keep & ((ys != 0) | (X != 0).any(axis=1)[:, None])
    for _, pas in plist:
        rows = (X % pas[:-1] == 0).all(axis=1)
        if rows.any():
            ok[rows] &= ys[rows] % pas[-1] != 0
    for j, c in enumerate(cutoffs[:, -1]):
        inside = ok & (ys >= -c) & (ys <= c)
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
