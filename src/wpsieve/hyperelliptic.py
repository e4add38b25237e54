"""Odd-degree hyperelliptic moduli inside weighted projective space.

A point of weights (4, 6, ..., 4g+2) is read as the curve

    y^2 = t^{2g+1} + x_0 t^{2g-1} + x_1 t^{2g-2} + ... + x_{2g-1}

(no t^{2g} term).  The module provides smoothness (nonvanishing
discriminant, computed exactly), an integer root of the right-hand side (a
rational Weierstrass point), a bounded-height census over a grid of height
cutoffs, and log-log exponent fits of the census columns.

A census column is wps.count's Moebius sum over wps.moebius_boxes, with a
box's nonzero members in place of its volume (thin and singular sets are
closed under x -> d.x both ways).  Two-torsion members are counted, not
walked: in closed form at genus 1 (_genus1_two_torsion), at higher genus by
inclusion-exclusion over sets of integer roots (_root_sets), each term one
interval per cell of the other coordinates (_divisible).  Disc-square members
(genus 1) and, with --smooth-only, the singular tuples f = q^2 h are listed
(_disc_square_members, _singular_tuples) and counted by level, their first
box (_count_levels).  The budget is charged before the work (_census_work).
Discriminants are Sylvester determinants, by Bareiss elimination.
Every route is checked against brute-force oracles in the tests.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from . import arith, covers
from .wps import (
    BLOCK_BYTES,
    DEFAULT_BUDGET,
    WeightVector,
    WpsPoint,
    as_bound,
    box_cutoffs,
    check_budget,
    map_chunks,
    moebius_boxes,
    prefix_blocks,
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


def resultant(A: Sequence[int], B: Sequence[int]) -> int:
    """Res(A, B) for integer polynomials (ascending coefficients).

    The determinant of the Sylvester matrix by Bareiss elimination: every
    division is exact in Z, and each row swap flips the sign.
    """
    A, B = _trim(A)[::-1], _trim(B)[::-1]
    if not A or not B:
        return 0
    m, n = len(A) - 1, len(B) - 1
    M = [[0] * i + A + [0] * (n - 1 - i) for i in range(n)]
    M += [[0] * i + B + [0] * (m - 1 - i) for i in range(m)]
    sign, prev = 1, 1
    for k in range(m + n):
        piv = next((r for r in range(k, m + n) if M[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv], sign = M[piv], M[k], -sign
        p, row = M[k][k], M[k]
        for r in M[k + 1:]:
            if r[k] or p != prev:  # r[k] = 0 and p = prev leave the row as it is
                r[k + 1:] = [(p * x - r[k] * y) // prev for x, y in zip(r[k + 1:], row[k + 1:])]
        prev = p
    return sign * prev


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
    """Integer root of the defining polynomial (a rational Weierstrass point)."""
    return covers.has_integer_root(h.poly())


# --- the singular locus ------------------------------------------------------


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two polynomials, both given by coefficients in the same order."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _root_window(Ms: Sequence[int]) -> int:
    """covers.root_window of the curve polynomials with |x_i| <= Ms[i]:
    x_i is the coefficient of t^{2g-1-i}, there is no t^{2g} term, and the
    last coordinate is the constant term.  Every root of such an f lies
    within T + 1, and every integer |t| > T gives |f(t) - x_{2g-1}| > Ms[-1]."""
    return covers.root_window(len(Ms) + 1, Ms[-1], [*reversed(Ms[:-1]), 0])


def _singular_tuples(g: int, Ms: Sequence[int], x0: range) -> set[tuple[int, ...]]:
    """Every tuple of the box |x_i| <= Ms[i] with x_0 in the range x0 whose
    curve polynomial f has a repeated root.

    Then f = q^2 h, q and h monic in Z[t] (Gauss's lemma), k = deg q in 1..g.
    With coefficients from the top, c_s of t^{n-s} (n = 2g+1), c_1 = 0 gives
    h_1 = -2 q_1 and c_s = x_{s-2} must lie in its window.  For k < g, q comes
    from the root box |q_j| <= C(k, j) R^j (R = _root_window + 1), each h_s
    enters c_s with slope 1 and h's constant term enters c_s, s >= deg h,
    with slope P_{s - deg h} (P = q^2): one interval.  For k = g only q_1
    comes from the box, and q_s enters c_s with slope 2.  An f with several
    repeated factors is found once per q, and kept once."""
    n = 2 * g + 1
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

    R = _root_window(Ms) + 1
    for k in range(1, g + 1):
        caps = [math.comb(k, j) * R**j for j in range(1, (k if k < g else 1) + 1)]
        for head in itertools.product(*(range(-c, c + 1) for c in caps)):
            walk(k, [1, *head], [1, -2 * head[0]], [])
    return found


def _singular_work(g: int, Ms: Sequence[int]) -> int:
    """A bound, known before the run, on the leaves of _singular_tuples'
    search, mirroring it: per k, the q from its root box times the window
    widths after it (2M+1 at slope 1, M+1 at slope 2)."""
    R, work = _root_window(Ms) + 1, 0
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

    @classmethod
    def from_csv(cls, fh) -> "CensusTable":
        """Read the CSV that `wpsieve census` writes (cli is its one writer)."""
        header = fh.readline().strip()
        if header != "B,total,thin,thin_label":
            raise ValueError(f"unexpected census header {header!r}")
        rows, path = [], getattr(fh, "name", "<census>")
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            try:
                b, total, thin, label = line.split(",")
                rows.append(CensusRow(Fraction(b), int(total), int(thin), label))
            except (ValueError, ZeroDivisionError) as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
        return cls(rows)


_TESTER_NAMES = ("two-torsion", "disc-square", "none")


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

    Each column at B is the sum of mu times its nonzero tuples over the boxes
    of wps.moebius_boxes(wv, B, wv); the weights are even, so no sign fold.
    A closed form (two-torsion, genus 1), root sets (two-torsion, genus >= 2)
    or one pass over the n <= M_0 with x_0 = -n (disc-square) counts the
    members of every box.  With smooth_only the singular tuples, listed as
    f = q^2 h, come off the totals and, when thin, off the thin counts.
    """
    t0 = time.perf_counter()
    wv = moduli_weights(g)
    bounds = [as_bound(b) for b in grid]
    if not bounds:
        raise ValueError("census needs a nonempty height grid")
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError("census heights must increase strictly")
    if thin not in _TESTER_NAMES:
        raise ValueError(f"unknown tester {thin!r}; choose from {_TESTER_NAMES}")
    if thin == "disc-square" and g != 1:
        raise ValueError("disc-square tester is defined for genus 1 only")
    what = "census needs {} steps"
    check_budget(_census_work(wv, bounds, thin, smooth_only), budget, what)  # before the walk
    walks = [list(moebius_boxes(wv, b, wv)) for b in bounds]
    boxes = sorted({box for walk in walks for _, box in walk})  # nested, so in order
    sings = thins = [0] * len(boxes)
    if boxes and (smooth_only or thin == "disc-square"):
        parts = map_chunks(_census_chunk, (g, boxes, thin, smooth_only), boxes[-1][:1], workers)
        sings, thins = np.sum(parts, axis=0).cumsum(axis=1).tolist()
    if boxes and thin == "two-torsion":  # the genus-1 closed form adds T a box
        check_budget(_census_work(wv, bounds, thin, smooth_only, len(boxes)), budget, what)
        members = (_genus1_two_torsion if g == 1 else _root_sets)(boxes)
        thins = [s + n for s, n in zip(thins, members)]
    totals = [math.prod(2 * q + 1 for q in box) - 1 - s for box, s in zip(boxes, sings)]
    level = {box: j for j, box in enumerate(boxes)}
    rows = []
    for b, walk in zip(bounds, walks):
        total, th = (sum(mu * col[level[box]] for mu, box in walk) for col in (totals, thins))
        rows.append(CensusRow(b, total, th, thin))
    meta = dict(genus=g, thin=thin, smooth_only=smooth_only, workers=workers,
                wall_time_s=time.perf_counter() - t0)
    return CensusTable(rows, meta)


def _census_work(wv, bounds, thin, smooth_only, nboxes=0) -> int:
    """Steps the census takes up to its top height, known before the run: each
    height's floor(B) + 1 dense Mertens entries (wps.moebius_boxes); for
    two-torsion the R (2R + 1) root pairs plus T for each of nboxes at genus
    1, else _divisible's cells, C(2T+1, k) root sets of each size k times the
    cells of x_0..x_{2g-2-k}; the M_0 disc-square factorisations; _singular_work."""
    Ms, g = box_cutoffs(wv, bounds[-1]), len(wv) // 2
    work = sum(math.floor(b) + 1 for b in bounds) + smooth_only * _singular_work(g, Ms)
    if thin != "two-torsion":
        return work + (thin == "disc-square") * Ms[0]
    T = _root_window(Ms)
    if g == 1:
        R = math.isqrt(4 * Ms[0] // 3)
        return work + R * (2 * R + 1) + nboxes * T
    return work + sum(math.comb(2 * T + 1, k) * math.prod(2 * m + 1 for m in Ms[::-1][k + 1:])
                      for k in range(1, 2 * g + 2))


def _census_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    """(singular, thin) nonzero tuples by level (box) over the x_0 range of one
    piece: the singular tuples less their thin ones (two-torsion by has_integer_root,
    all for disc-square as D = 0), then the disc-square members."""
    g, boxes, thin, smooth_only, (x0,) = args
    cutoffs = np.array(boxes, dtype=np.int64 if max(boxes[-1]) < 2**63 else object)
    sings = thins = np.zeros(len(boxes), dtype=np.int64)  # counts by level
    if smooth_only:
        S = [*_singular_tuples(g, boxes[-1], x0)]
        sings = _count_levels(S, cutoffs)
        if thin == "two-torsion":
            S = [x for x in S if covers.has_integer_root(_poly_from_coords(g, x))]
            thins = -_count_levels(S, cutoffs)
        elif thin == "disc-square":
            thins = -sings
    if thin == "disc-square":
        thins = thins + _count_levels(_disc_square_members(x0, boxes[-1][-1]), cutoffs)
    return sings, thins


def _disc_square_members(x0: range, m: int) -> list[tuple[int, int]]:
    """The genus-1 tuples (x_0, x_1) != 0 with x_0 in x0 and |x_1| <= m whose
    D = -16 (4 x_0^3 + 27 x_1^2) is a square.

    That is u^2 + 27 x_1^2 = -4 x_0^3 for an integer u, so x_0 = -n <= 0;
    with a = u + 3 x_1 and b = 6 x_1 the left side is the norm a^2 - ab + b^2
    of a + b w in Z[w], w^2 = -1 - w.  So the x_1 at -n are the b / 6 over
    the elements of norm 4 n^3 = N(2) n^3 with 6 | b, built from the
    factorisation of n: an inert p = 2 mod 3 (2 included) gives p^{3e/2},
    none when e is odd; p = 3 or p = 1 mod 3 is x^2 + 3 y^2, the norm of
    pi = (x + y) + 2y w, and gives the products of 3e factors pi or its
    conjugate (x - y) - 2y w (for p = 3, pi = 1 + 2w = w (1 - w)).
    The six unit multiples of a + b w have w-coefficients +-b, +-a, +-(a - b)."""
    found = []
    for n in range(max(1, 1 - x0.stop), 1 - x0.start):
        fs = arith.factorize(n).factors
        if any(p % 3 == 2 and e % 2 for p, e in fs):
            continue
        elems = {(2 * math.prod(p ** (3 * e // 2) for p, e in fs if p % 3 == 2), 0)}
        for p, e in fs:
            if p % 3 != 2:
                x, y = (0, 1) if p == 3 else _split_prime(p)
                for _ in range(3 * e):
                    elems = {(a * c - b * d, a * d + b * c - b * d) for a, b in elems
                             for c, d in ((x + y, 2 * y), (x - y, -2 * y))}
        x1s = {abs(v) // 6 for a, b in elems for v in (a, b, a - b)
               if v % 6 == 0 and abs(v) <= 6 * m}
        found += [(-n, s * y) for y in sorted(x1s) for s in ((1, -1) if y else (1,))]
    return found


def _split_prime(p: int) -> tuple[int, int]:
    """(x, y) with x^2 + 3 y^2 = p, for a prime p = 1 (mod 3), by Cornacchia:
    Euclid on p and a root t of t^2 = -3 (mod p) stops at x < sqrt(p).  Here
    t = 2r + 1 for r a cube root of unity mod p, r != 1."""
    r = next(r for r in (pow(c, (p - 1) // 3, p) for c in itertools.count(2)) if r != 1)
    a, b = p, (2 * r + 1) % p
    while b * b > p:
        a, b = b, a % b
    return b, math.isqrt((p - b * b) // 3)


def _exact_dtype(top: int):
    """int32 (int64) for values below top, when top < 2^31 (2^63); else Python ints."""
    return np.int32 if top < 2**31 else np.int64 if top < 2**63 else object


def _genus1_two_torsion(boxes) -> list[int]:
    """The nonzero (x_0, x_1) with an integer root of f = t^3 + x_0 t + x_1
    in each nested box (M_0, M_1): the pairs (t, x_0) with |x_0| <= M_0 and
    |t^3 + x_0 t| <= M_1 (t = 0: 2 M_0 + 1 with the zero tuple; t and -t one
    interval each, empty past the box's root window) less, for f with k >= 2
    distinct integer roots, f = (t - r)(t - s)(t + r + s), its k - 1 pairs
    r < s with r the least root (2r + s <= 0): r < 0, |r|, |s| <= R =
    isqrt(4 M_0 / 3), listed in wps.prefix_blocks and levelled by bisection."""
    (m0, m1), T = boxes[-1], _root_window(boxes[-1])
    R = math.isqrt(4 * m0 // 3)
    dtype = _exact_dtype(max(3 * R**3, T**3 + m1 + 4 * (T + 1) * (m0 + 1)))
    M0, M1 = np.array(boxes, dtype=dtype).T  # nondecreasing
    split = np.zeros(len(boxes) + 1, dtype=np.int64)  # by level
    for X in prefix_blocks([range(-R, 0), range(-R, R + 1)], 48):
        r, s = X.astype(dtype).T
        keep = (r < s) & (2 * r + s <= 0)
        r, s = r[keep], s[keep]
        level = np.maximum(np.searchsorted(M0, r * r + r * s + s * s),
                           np.searchsorted(M1, abs(r * s * (r + s))))
        split += np.bincount(level, minlength=len(split))
    t = np.arange(1, T + 1).astype(dtype)
    a, b, cube = M0[:, None], M1[:, None], t * t * t
    width = np.minimum((b - cube) // t, a) + np.minimum((b + cube) // t, a) + 1
    return (2 * M0 + 2 * np.maximum(width, 0).sum(axis=1) - split.cumsum()[:-1]).tolist()


def _count_levels(S, cutoffs: np.ndarray) -> np.ndarray:
    """Entry j: the nonzero rows of S (tuples, in the dtype of cutoffs) whose
    level, the number of the nested boxes (rows of cutoffs) they leave, is j."""
    n, S = len(cutoffs), np.array(S, dtype=cutoffs.dtype).reshape(-1, cutoffs.shape[1])
    levels = sum((abs(S) > c).any(axis=1) for c in cutoffs) + n * (S == 0).all(axis=1)
    return np.bincount(levels, minlength=n + 1)[:n]  # level n: in no box, or zero


def _divisible(Q, boxes) -> np.ndarray:
    """N[i, j] = #{x in box j : Q_i | f_x}, for monic Q_i of one degree k (row
    Q[i]: its lower coefficients, ascending) and nested boxes.  With c_d the
    coefficient of t^d in f (c_n = 1, n = 2g+1; c_{n-1} = 0 has cutoff 0), Q | f
    fixes c_i = Q_i c_k + base_i, i < k, base_i = -[t^n + sum_{k<d<n} c_d t^d mod
    Q]_i (at k = n, c_k is c_n - 1, of cutoff 0): one interval of c_k per cell of
    x_0..x_{m-1}, a box's cells a slice of the top box's grid."""
    Ms, k = boxes[-1], len(Q[0])
    n, m = len(Ms) + 1, max(0, len(Ms) - 1 - k)
    sides = [2 * M + 1 for M in Ms[:m]]  # loop over x_0..x_{s-1}, and batch Q, past BLOCK_BYTES / 8
    s = next((s for s in range(m) if k * math.prod(sides[s:]) <= BLOCK_BYTES // 8), m)
    rows = max(1, BLOCK_BYTES // 8 // (k * math.prod(sides[s:])))
    if len(Q) > rows:
        return np.vstack([_divisible(Q[i:i + rows], boxes) for i in range(0, len(Q), rows)])
    cuts, Q = [[*reversed(box), 0, 0] for box in boxes], np.array(Q, dtype=object)  # by degree
    R = [-Q]  # t^d mod Q, d = k..n
    while len(R) <= n - k:
        R.append(np.hstack([0 * Q[:, :1], R[-1][:, :-1]]) - R[-1][:, -1:] * Q)
    # x_i = sign_i base_i, and x_i + a_i c_k must lie in [-M_i, M_i]; where Q_i = 0
    # x_i = W base_i, a_i = 1 and the cutoff W M_i + M_k (W = 2 M_k + 1) allow all c_k or none
    W = 2 * cuts[-1][k] + 1
    sign = np.where(Q < 0, -1, np.where(Q == 0, W, 1))
    base, *outer = (sign * -r for r in (R[-1], *R[m:0:-1]))
    bound = sum((abs(t) * M for t, M in zip(outer, Ms)), abs(base) + abs(sign) * cuts[-1][:k])
    fits = max(2 * (bound.max() + W) + 2, W * math.prod(sides[s:])) < 2**63
    dtype, shape = np.int64 if fits else object, (k, len(Q), *[1] * (m - s))
    a, zero = (np.array(v.T, dtype=dtype).reshape(shape) for v in (np.maximum(abs(Q), 1), Q == 0))
    b0, *heads = (t.T.astype(dtype) for t in (base, *outer[:s]))
    axes = np.ix_(*(np.array(range(-M, M + 1), dtype=dtype) for M in Ms[s:m]))
    grid = sum((t.T.astype(dtype).reshape(shape) * v for t, v in zip(outer[s:], axes)), 0)
    counts = np.zeros((len(Q), len(boxes)), dtype=object)
    for head in itertools.product(*(range(-M, M + 1) for M in Ms[:s])):
        x = (b0 + sum(h * t for h, t in zip(head, heads))).reshape(shape) + grid
        for j in reversed(range(len(boxes))):
            if any(abs(h) > M for h, M in zip(head, boxes[j])):
                break  # nor in any smaller box
            cut, inner = cuts[j], [slice(Mt - M, Mt + M + 1) for Mt, M in zip(Ms, boxes[j])][s:m]
            y, lo, hi = x[(..., *inner)], -cut[k], cut[k]
            for i in range(k):
                C = cut[i] + zero[i] * cut[i] * (W - 1) + zero[i] * cut[k]
                lo, hi = np.maximum(lo, -((C + y[i]) // a[i])), np.minimum(hi, (C - y[i]) // a[i])
            width = np.maximum(hi - lo + 1, 0).reshape(len(Q), -1)
            counts[:, j] += width.sum(axis=1).astype(object)
    return counts


def _root_sets(boxes) -> list[int]:
    """The nonzero tuples of each nested box whose f has an integer root: f has
    the distinct roots S exactly when P_S = prod_{r in S} (t - r) divides it, so
    sum_S (-1)^{|S|+1} N(P_S) over the sets of |r| <= T (the top box's root
    window) less the zero tuple, f = t^n.  One _divisible call a size; only the
    S whose P_S divides some f of the top box grow, up to size 2g+1."""
    T, counts = _root_window(boxes[-1]), np.full(len(boxes), -1, dtype=object)
    sets, sign = [(r, [-r, 1]) for r in range(-T, T + 1)], 1  # (max S, P_S)
    while sets:
        N = _divisible([P[:-1] for _, P in sets], boxes)
        counts, sign = counts + sign * N.sum(axis=0), -sign
        sets = [(r, _mul(P, [-r, 1])) for (top, P), row in zip(sets, N)
                if row[-1] and len(P) <= len(boxes[-1]) + 1 for r in range(top + 1, T + 1)]
    return counts.tolist()


# --- exponent fits ---------------------------------------------------------


class FitResult(NamedTuple):
    slope: float
    stderr: float


def fit_exponent(table: CensusTable, column: str = "total") -> FitResult:
    """Least-squares slope of log(count) against log(B), with its standard
    error; a row whose B or count is past the float range, either way, is refused."""
    data = []
    for i, (r, v) in enumerate(zip(table.rows, table.column(column)), 1):
        if v <= 0:
            continue
        try:
            b, c = float(r.bound), float(v)
        except OverflowError:
            b = 0.0
        if b == 0.0:
            raise ValueError(f"census row {i}: B or {column} is past the float range")
        data.append((b, c))
    if len(data) < 3:
        raise ValueError("exponent fit needs at least 3 rows with positive counts")
    x = np.log(np.array([b for b, _ in data]))
    y = np.log(np.array([v for _, v in data]))
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
