"""Odd-degree hyperelliptic moduli inside weighted projective space.

A point of weights (4, 6, ..., 4g+2) is read as the curve

    y^2 = t^{2g+1} + x_0 t^{2g-1} + x_1 t^{2g-2} + ... + x_{2g-1}

(no t^{2g} term).  The module provides smoothness (nonvanishing
discriminant, computed exactly), an integer root of the right-hand side (a
rational Weierstrass point), a bounded-height census over a grid of height
cutoffs, and log-log exponent fits of the census columns.

A census column is wps.count's Moebius sum over wps.moebius_boxes, with a
box's nonzero members in place of its volume (thin and singular sets are
closed under x -> d.x both ways).  Members are counted, not walked, by
inclusion-exclusion over sets of factors (_signed_sets), each term one
interval per cell of the other coordinates (_divisible): two-torsion over
integer roots (_root_sets; at genus 1 in closed form, _genus1_two_torsion),
the --smooth-only singular tuples over squared irreducibles (_singular).
Disc-square members (genus 1) are listed and counted by level, their first
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


def _mul(a, b) -> np.ndarray:
    """Product of polynomials, coefficients in the same order along the last
    axis; stacked rows multiply as numpy broadcasts them, lists as Python ints."""
    a, b = (x if isinstance(x, np.ndarray) else np.array(x, dtype=object) for x in (a, b))
    out = np.repeat(0 * a[..., :1] * b[..., :1], a.shape[-1] + b.shape[-1] - 1, axis=-1)
    for j in range(b.shape[-1]):
        out[..., j:j + a.shape[-1]] += a * b[..., j:j + 1]
    return out


def _root_window(Ms: Sequence[int]) -> int:
    """covers.root_window of the curve polynomials with |x_i| <= Ms[i]:
    x_i is the coefficient of t^{2g-1-i}, there is no t^{2g} term, and the
    last coordinate is the constant term.  Every root of such an f lies
    within T + 1, and every integer |t| > T gives |f(t) - x_{2g-1}| > Ms[-1]."""
    return covers.root_window(len(Ms) + 1, Ms[-1], [*reversed(Ms[:-1]), 0])


def _factor_caps(Ms: Sequence[int]) -> list[list[int]]:
    """Per degree d = 1..g, cutoffs of the lower coefficients (ascending) of a
    monic q with q^2 | f, f in the box Ms: C(d, i) R^{d-i}, as q's roots are
    f's, within R = T + 1, and C(d, i) M(q), where the Mahler measure has
    M(q)^4 <= M(f)^2 <= |f|_2^2 <= 1 + sum M_i^2 (Landau; Mignotte 1974)."""
    R, S = _root_window(Ms) + 1, 1 + sum(m * m for m in Ms)
    return [[min(math.comb(d, i) * R ** (d - i), arith.iroot(math.comb(d, i) ** 4 * S, 4))
             for i in range(d)] for d in range(1, len(Ms) // 2 + 1)]


def _irreducibles(Ms: Sequence[int]) -> list:
    """Per degree d = 1..g, the monic q (rows, ascending) of the _factor_caps
    box that are no product of a kept q of degree e <= d/2 and a q of the
    degree-(d - e) box: the irreducibles, and reducibles whose square divides
    no f of Ms; degree g, the largest box, as an iterator of prefix_blocks."""
    caps, boxes, kept = _factor_caps(Ms), [], []
    dtype = _exact_dtype((len(caps) + 1) * max(max(cs) for cs in caps) ** 2 + 1)  # products
    for d, cs in enumerate(caps, 1):
        sides = [2 * c + 1 for c in cs]
        reducible = np.zeros(math.prod(sides), dtype=bool)  # by index in the box, C order
        for A, B in zip(kept[: d // 2], boxes[::-1]):  # degrees e and d - e
            for a in np.array_split(A, 1 + 8 * (d + 1) * len(A) * len(B) // BLOCK_BYTES):
                low = _mul(a[:, None], B).reshape(-1, d + 1)[:, :-1] + cs
                low = low[((low >= 0) & (low < sides)).all(axis=1)]
                reducible[np.ravel_multi_index(low.T, sides)] = True
        box = (np.hstack([X, X[:, :1] * 0 + 1]).astype(dtype)
               for X in prefix_blocks([range(-c, c + 1) for c in cs], 8 * (2 * d + 2)))
        if d == len(caps):
            return [*kept, (q[~reducible[np.ravel_multi_index((q[:, :-1] + cs).T, sides)]]
                            for q in box)]
        boxes.append(np.vstack([*box]))
        kept.append(boxes[-1][~reducible])


def _singular(boxes, thin: str) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero singular tuples of each nested box, and those the tester
    accepts (disc-square: all, D = 0 being a square).  f is singular exactly
    when p^2 | f for a monic irreducible p of degree 1..g (Gauss's lemma): the
    _signed_sets of the squares less f = t^{2g+1}, those of degree 2g alone.
    For two-torsion, f = p^2 h with no integer root has 2 <= deg p < g (else
    h is linear): the _root_sets headed by those p^2 come off."""
    *lower, top = _irreducibles(boxes[-1])
    squares = [_mul(q, q) for q in lower]
    sing = _signed_sets(squares, boxes) - 1 + sum(_signed_sets([_mul(q, q)], boxes) for q in top)
    if thin != "two-torsion":
        return sing, sing * (thin == "disc-square")
    return sing, sing - (_root_sets(boxes, squares[1:]) if squares[1:] else 0)


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
    members of every box.  With smooth_only the singular tuples (_singular)
    come off the totals and, those the tester accepts, off the thin counts.
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
    sings = accepted = np.zeros(len(boxes), dtype=object)
    if boxes and smooth_only:
        sings, accepted = _singular(boxes, thin)
    thins = -accepted
    if boxes and thin == "disc-square":
        parts = map_chunks(_census_chunk, (boxes,), boxes[-1][:1], workers)
        thins = thins + np.sum(parts, axis=0).cumsum().tolist()
    if boxes and thin == "two-torsion":  # the genus-1 closed form adds T a box
        check_budget(_census_work(wv, bounds, thin, smooth_only, len(boxes)), budget, what)
        thins = thins + (_genus1_two_torsion if g == 1 else _root_sets)(boxes)
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
    1, else the root sets' _sets_work; the M_0 disc-square factorisations;
    with smooth_only the candidates, sieve products and sets of _singular."""
    Ms, g = box_cutoffs(wv, bounds[-1]), len(wv) // 2
    T, work = _root_window(Ms), sum(math.floor(b) + 1 for b in bounds)
    roots = [(2 * T + 1, 1)]  # the t - r, |r| <= T
    if smooth_only:
        sizes = [math.prod(2 * c + 1 for c in cs) for cs in _factor_caps(Ms)]
        squares = [(size, 2 * d) for d, size in enumerate(sizes, 1)]
        work += sum(sizes) + sum(sizes[e - 1] * sizes[d - e - 1] for d in range(2, g + 1)
                                 for e in range(1, d // 2 + 1)) + _sets_work(Ms, squares)
        if thin == "two-torsion":  # the sets holding a square of degree 4..2g-2
            work += _sets_work(Ms, [*squares[1:-1], *roots]) - _sets_work(Ms, roots)
    if thin != "two-torsion":
        return work + (thin == "disc-square") * Ms[0]
    if g == 1:
        R = math.isqrt(4 * Ms[0] // 3)
        return work + R * (2 * R + 1) + nboxes * T
    return work + _sets_work(Ms, roots)


def _sets_work(Ms, groups) -> int:
    """The rows times cells _signed_sets sums at most over groups of (size,
    degree) factors: its sets of each degree k <= 2g+1, counted by the
    product of the (1 + t^d)^size, each over the cells of x_0..x_{2g-2-k}."""
    n, sets = len(Ms) + 1, [1]
    for size, d in groups:
        sets = _mul(sets, [math.comb(size, m // d) * (m % d == 0) for m in range(n + 1)])[: n + 1]
    return sum(c * math.prod(2 * M + 1 for M in Ms[: max(0, n - 2 - k)])
               for k, c in enumerate(sets) if k)


def _census_chunk(args) -> np.ndarray:
    """The disc-square members by level (box) over the x_0 range of one piece."""
    boxes, (x0,) = args
    cutoffs = np.array(boxes, dtype=np.int64 if max(boxes[-1]) < 2**63 else object)
    return _count_levels(_disc_square_members(x0, boxes[-1][-1]), cutoffs)


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
    cuts = np.array([cut[: k + 1] for cut in cuts], dtype=dtype).T  # c_0..c_k: under the bound
    for head in itertools.product(*(range(-M, M + 1) for M in Ms[:s])):
        x = (b0 + sum(h * t for h, t in zip(head, heads))).reshape(shape) + grid
        j0 = next(j for j, box in enumerate(boxes) if all(abs(h) <= M for h, M in zip(head, box)))
        for j, end in [(j0, len(boxes))] if m == s else [(j, j + 1) for j in range(j0, len(boxes))]:
            inner = [slice(Mt - M, Mt + M + 1) for Mt, M in zip(Ms, boxes[j])][s:m]
            y = x[(..., *inner)]  # no inner grid: the boxes j..end-1 at once
            cut = cuts[:, j:end].reshape(-1, end - j, *[1] * (y.ndim - 1))  # box, then Q and cells
            lo, hi = -cut[k], cut[k]
            for i in range(k):
                C = cut[i] + zero[i] * cut[i] * (W - 1) + zero[i] * cut[k]
                lo, hi = np.maximum(lo, -((C + y[i]) // a[i])), np.minimum(hi, (C - y[i]) // a[i])
            width = np.maximum(hi - lo + 1, 0).reshape(end - j, len(Q), -1)
            counts[:, j:end] += width.sum(axis=2).T.astype(object)
    return counts


def _signed_sets(groups, boxes, heads=None) -> np.ndarray:
    """Entry j: sum_S (-1)^{|S|+1} N(prod S) in box j (N: _divisible) over the
    sets S of distinct factors, one at least from groups[:heads] (groups: one
    degree each, rows ascending).  Sets grow in index order by the heads of
    nonzero top-box count and the other factors, and stop at top-box count 0
    or degree 2g+1.  One _divisible call per degree per set size."""
    n, heads = len(boxes[-1]) + 1, len(groups) if heads is None else heads
    ends = np.cumsum([len(F) for F in groups])
    factors = [(F, np.arange(end - len(F), end)) for F, end in zip(groups, ends)]  # (rows, index)
    sets, pool, sign, total = factors[:heads], None, 1, np.zeros(len(boxes), dtype=object)
    while sets := [(P, last) for P, last in sets if len(P)]:
        counted = []
        for k in sorted({P.shape[1] for P, _ in sets}):
            P, last = (np.concatenate(v) for v in zip(*(s for s in sets if s[0].shape[1] == k)))
            N = _divisible(P[:, :-1], boxes)
            total, keep = total + sign * N.sum(axis=0), N[:, -1] != 0
            counted.append((P[keep].astype(object), last[keep]))
        pool, sign = pool or [*counted, *factors[heads:]], -sign
        sets = [(_mul(P[i], F[j]), at[j]) for P, last in counted for F, at in pool
                if P.shape[1] + F.shape[1] <= n + 2 for i, j in [np.nonzero(last[:, None] < at)]]
    return total


def _root_sets(boxes, heads=()) -> list[int]:
    """The nonzero tuples of each nested box whose f has an integer root: f has
    the distinct roots S exactly when P_S = prod_{r in S} (t - r) divides it, so
    the _signed_sets of the t - r, |r| <= T (the top box's root window), less
    the zero tuple, f = t^n.  With heads (groups of factors prime to every
    t - r), the _signed_sets holding a head and any of the t - r instead."""
    T = _root_window(boxes[-1])
    linears = np.array([[-r, 1] for r in range(-T, T + 1)], dtype=object)
    return (_signed_sets([*heads, linears], boxes, len(heads) or 1) - (not heads)).tolist()


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
