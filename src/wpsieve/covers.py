"""Thin-set membership testers.

Two flavors: vanishing of a weighted-homogeneous form, and root-covers
given by a monic polynomial in an auxiliary variable t of weight w whose
coefficient of t^j is weighted-homogeneous of degree (deg - j) * w.  The
latter makes the family invariant under the weighted scaling action, so
membership is well defined on orbits.  With constant term +-(last
coordinate), a column's members are written down, one per t of root_window,
by Cover.column_members, a scalar reference that no census calls.  Mod-p
image densities of a cover are computed exactly by exhausting (Z/p)^{n+1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import arith, sieve
from .wps import WeightVector, WpsPoint, check_budget

DENSITY_BUDGET = 5_000_000


@dataclass(frozen=True)
class WeightedForm:
    """Integer form sum_k c_k * x^{e_k}, weighted-homogeneous of one degree."""

    weights: WeightVector
    degree: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "terms",
            tuple((int(c), tuple(e)) for c, e in self.terms if c != 0),
        )
        for c, e in self.terms:
            if len(e) != len(self.weights):
                raise ValueError(f"exponent tuple {e} has wrong length")
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {e}")
            d = sum(k * a for k, a in zip(e, self.weights))
            if d != self.degree:
                raise ValueError(
                    f"term {c}*x^{e} has weighted degree {d}, form declares {self.degree}"
                )

    def evaluate(self, coords: Sequence[int]) -> int:
        """Value at one point; given one array per coordinate instead (Python
        ints, or int64 where no term can reach 2^63), the values at every row."""
        return sum(
            c * math.prod(x**k for x, k in zip(coords, e) if k) for c, e in self.terms
        )

    def _evaluate_mod_cols(self, cols, p: int):
        # cols: one numpy array per coordinate, entries already reduced mod p
        acc = np.zeros(cols[0].shape, dtype=np.int64)
        for c, e in self.terms:
            term = np.full(cols[0].shape, c % p, dtype=np.int64)
            for col, k in zip(cols, e):
                for _ in range(k):
                    term = term * col % p
            acc = (acc + term) % p
        return acc


def monomial(weights: WeightVector, coeff: int, exponents: Sequence[int]) -> WeightedForm:
    e = tuple(exponents)
    deg = sum(k * a for k, a in zip(e, weights))
    return WeightedForm(weights, deg, ((coeff, e),))


@dataclass(frozen=True)
class Cover:
    """Monic family t^deg + sum_{j<deg} c_j(x) t^j with c_j weighted-homogeneous
    of degree (deg - j) * aux_weight."""

    weights: WeightVector
    aux_weight: int
    degree: int
    coeffs: tuple[Optional[WeightedForm], ...]  # index j = coefficient of t^j

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError("cover degree must be at least 2")
        if self.aux_weight < 1:
            raise ValueError("auxiliary weight must be positive")
        if len(self.coeffs) != self.degree:
            raise ValueError(
                f"need {self.degree} coefficients c_0..c_{self.degree - 1}"
            )
        for j, form in enumerate(self.coeffs):
            if form is None:
                continue
            if form.weights != self.weights:
                raise ValueError(f"c_{j} carries a different weight vector")
            want = (self.degree - j) * self.aux_weight
            if form.degree != want:
                raise ValueError(
                    f"c_{j} has weighted degree {form.degree}, homogeneity needs {want}"
                )

    def poly_at(self, coords: Sequence[int]) -> list[int]:
        """Ascending integer coefficients of the monic specialization."""
        return [*(form.evaluate(coords) if form else 0 for form in self.coeffs), 1]

    def column_solver(self) -> Optional[int]:
        """Sign s when the constant coefficient is s * (last coordinate) and no
        other coefficient involves that coordinate; None otherwise.

        In that shape the members of a fixed-prefix column can be written
        down directly instead of tested one by one (column_members).
        """
        last = len(self.weights) - 1
        c0 = self.coeffs[0]
        if c0 is None or len(c0.terms) != 1:
            return None
        s, e = c0.terms[0]
        if s not in (1, -1) or e[last] != 1 or any(e[:last]):
            return None
        if any(t_e[last] for form in self.coeffs[1:] if form for _, t_e in form.terms):
            return None
        return s

    def column_members(self, prefix: Sequence[int], bound: int) -> list[int]:
        """All values y of the last coordinate with |y| <= bound making
        (prefix, y) a member, sorted; requires column_solver() to apply.

        With constant term s * y and c_1..c_{deg-1} free of y, (prefix, y) is
        a member exactly when y = -s * f(t) for an integer t, with
        f(t) = t^deg + sum_{j>0} c_j(prefix) t^j, and |y| <= bound needs
        |t| <= root_window(deg, bound, |c_j|): a scan of those t.
        """
        sign = self.column_solver()
        if sign is None:
            raise ValueError("cover constant term is not a separated coordinate")
        f = self.poly_at((*prefix, 0))
        tmax = root_window(self.degree, bound, [abs(c) for c in f[1:-1]])
        ys = {-sign * poly_eval(f, t) for t in range(-tmax, tmax + 1)}
        return sorted(y for y in ys if abs(y) <= bound)


def root_window(degree: int, bound: int, cmax: Sequence[int]) -> int:
    """The largest T >= 0 with p(T) <= bound, p(t) = t^deg - sum_{0<j<deg} cmax[j-1] t^j.

    Less bound, p changes sign once, so past its one positive root r
    (Descartes) it stays positive.  For every t^deg + sum_{0<j<deg} c_j t^j + c_0
    with |c_j| <= cmax[j-1] and |c_0| <= bound, then, each complex root has
    |t| <= r < T + 1, and each integer |t| > T gives |t^deg + sum_j c_j t^j|
    > bound.  Exact at any size: doubling, then integer bisection."""
    def small(t):
        return t**degree - sum(c * t**j for j, c in enumerate(cmax, start=1)) <= bound

    lo, hi = 0, 1
    while small(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        t = (lo + hi) // 2
        lo, hi = (t, hi) if small(t) else (lo, t)
    return lo


def _check_point(weights: WeightVector, point: WpsPoint) -> None:
    if point.weights != weights:
        raise ValueError(
            f"point weights {tuple(point.weights)} do not match cover/form "
            f"weights {tuple(weights)}"
        )


def typeI_member(form: WeightedForm, point: WpsPoint) -> bool:
    """Does the weighted-homogeneous form vanish at the point?"""
    _check_point(form.weights, point)
    return form.evaluate(point.coords) == 0


def has_integer_root(poly: Sequence[int]) -> bool:
    """Integer root test for a monic integer polynomial (ascending coeffs).

    A quadratic t^2 + bt + c is decided by one isqrt: it has an integer root
    exactly when b^2 - 4c is a square s^2, and then s = b mod 2 (as
    b^2 - 4c = b^2 mod 4), so the roots (-b +- s) / 2 are integers.  Higher
    degrees enumerate divisors: a rational root of a monic integer
    polynomial is an integer dividing the constant term.
    """
    if poly[-1] != 1:
        raise ValueError("polynomial must be monic")
    if len(poly) == 3:
        disc = poly[1] ** 2 - 4 * poly[0]
        return disc >= 0 and math.isqrt(disc) ** 2 == disc
    c0 = poly[0]
    if c0 == 0:
        return True
    for d in arith.divisors(abs(c0)):
        if poly_eval(poly, d) == 0 or poly_eval(poly, -d) == 0:
            return True
    return False


def poly_eval(poly: Sequence[int], t: int) -> int:
    """Value at t of an integer polynomial given by ascending coefficients."""
    acc = 0
    for c in reversed(poly):
        acc = acc * t + c
    return acc


def root_cover_member(cover: Cover, point: WpsPoint) -> bool:
    """Does the specialized monic polynomial acquire an integer root?"""
    _check_point(cover.weights, point)
    return has_integer_root(cover.poly_at(point.coords))


def image_density_mod_p(cover: Cover, p: int, *, budget: int = DENSITY_BUDGET) -> Fraction:
    """Exact fraction of tuples in (Z/p)^{n+1} where the family has a root mod p."""
    count, space, _ = _mod_p_image(cover, p, budget)
    return Fraction(count, space)


def omega_from_cover(cover: Cover, p: int, *, budget: int = DENSITY_BUDGET) -> sieve.Omega:
    """Excluded residue classes: the complement of the mod-p image (m = 1).

    Members reduce to mod-p roots, so sieving by these classes never removes
    a member.
    """
    count, space, has_root = _mod_p_image(cover, p, budget)
    missing = np.unravel_index(np.nonzero(~has_root)[0], (p,) * len(cover.weights))
    residues = frozenset(zip(*(col.tolist() for col in missing)))
    om = sieve.Omega(p, 1, residues=residues)
    assert om.density == 1 - Fraction(count, space)
    return om


def _mod_p_image(cover: Cover, p: int, budget: int):
    if not arith.is_prime(p):
        raise ValueError(f"modulus must be prime, got {p!r}")
    width = len(cover.weights)
    space = p**width
    # p passes of Horner over every cell of the space, degree steps each at most
    check_budget(space * p * cover.degree, budget, "mod-p image takes {} cell updates")
    cols = np.indices((p,) * width).reshape(width, space)
    terms = [(j, form._evaluate_mod_cols(cols, p))
             for j, form in reversed(list(enumerate(cover.coeffs))) if form]
    has_root = np.zeros(space, dtype=bool)
    for t in range(p):
        # Horner over the nonzero c_j only, times t^gap mod p between them
        acc, top = 1, cover.degree  # monic leading coefficient
        for j, c in terms:
            acc = (acc * pow(t, top - j, p) + c) % p
            top = j
        has_root |= acc * pow(t, top, p) % p == 0
    return int(has_root.sum()), space, has_root


# --- built-in covers -------------------------------------------------------


def two_torsion_cover(g: int) -> Cover:
    """t^{2g+1} + x_0 t^{2g-1} + x_1 t^{2g-2} + ... + x_{2g-1} over weights
    (4, 6, ..., 4g+2) with t of weight 2."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    weights = WeightVector(tuple(range(4, 4 * g + 3, 2)))
    deg = 2 * g + 1
    coeffs: list[Optional[WeightedForm]] = [None] * deg
    for i in range(2 * g):
        j = deg - 2 - i  # coefficient of t^j carries coordinate x_i
        e = [0] * (2 * g)
        e[i] = 1
        coeffs[j] = monomial(weights, 1, e)
    return Cover(weights, 2, deg, tuple(coeffs))


def square_coord_cover() -> Cover:
    """t^2 - x_0 over weights (2): membership means x_0 is a perfect square."""
    weights = WeightVector((2,))
    return Cover(weights, 1, 2, (monomial(weights, -1, (1,)), None))


def disc_square_cover_g1() -> Cover:
    """t^2 - D(x) over weights (4, 6) with D = -16(4 x_0^3 + 27 x_1^2):
    membership means the discriminant-scale quantity D is a perfect square."""
    weights = WeightVector((4, 6))
    form = WeightedForm(weights, 12, ((64, (3, 0)), (432, (0, 2))))  # -D
    return Cover(weights, 6, 2, (form, None))


_NAMED = {
    "two-torsion-g1": lambda: two_torsion_cover(1),
    "two-torsion-g2": lambda: two_torsion_cover(2),
    "disc-square-g1": disc_square_cover_g1,
    "square-coord": square_coord_cover,
}


def named_cover(name: str) -> Cover:
    try:
        return _NAMED[name]()
    except KeyError:
        raise ValueError(
            f"unknown cover {name!r}; built-ins: {sorted(_NAMED)}"
        ) from None


# --- text format -----------------------------------------------------------


def load_cover_file(path, *, budget: int = DENSITY_BUDGET) -> Cover:
    """Read a cover from the line format:

        weights 4,6
        aux-weight 2
        degree 3
        c 1 1:1,0        # c_1 = one monomial, coeff:exponents
        c 0 1:0,1 -2:1,0 # monomials are whitespace separated

    Omitted c_j are zero; '#' starts a comment.  A degree whose cheapest mod-p
    image (p = 2) would pass the budget is refused before any c_j is built.
    """
    weights = aux = degree = None
    rows: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            key = parts[0]
            try:  # every ValueError of a line names path:line
                if key not in ("weights", "aux-weight", "degree", "c"):
                    raise ValueError(f"unknown directive {key!r}")
                if len(parts) < 2:
                    raise ValueError(f"{key!r} needs a value")
                if key == "weights":
                    weights = WeightVector(tuple(int(w) for w in parts[1].split(",")))
                elif key == "aux-weight":
                    aux = int(parts[1])
                elif key == "degree":
                    degree = int(parts[1])
                else:
                    j = int(parts[1])
                    terms = []
                    for mono in parts[2:]:
                        cstr, estr = mono.split(":", 1)
                        terms.append((int(cstr), tuple(int(k) for k in estr.split(","))))
                    if j in rows:
                        raise ValueError(f"duplicate coefficient c_{j}")
                    rows[j] = (lineno, terms)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    if weights is None or aux is None or degree is None:
        raise ValueError(f"{path}: needs weights, aux-weight and degree lines")
    check_budget(2 ** (len(weights) + 1) * degree, budget,
                 "a mod-p image of this cover takes at least {} cell updates")
    coeffs: list[Optional[WeightedForm]] = [None] * degree
    for j, (lineno, terms) in rows.items():
        try:
            if not 0 <= j < degree:
                raise ValueError(f"coefficient index {j} out of range")
            coeffs[j] = WeightedForm(weights, (degree - j) * aux, tuple(terms))
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
    return Cover(weights, aux, degree, tuple(coeffs))
