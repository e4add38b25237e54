"""Real quadratic fields Q(√D) with exact ring arithmetic, unit reduction
into a fundamental domain, and ideal-norm enumeration.

Only class-number-1 fields with D ≡ 2, 3 (mod 4) are supported, so the ring
of integers is Z[√D].  `QuadInt(a, b, D)` is the checked public constructor;
ring operations, `QuadField.element` on ints and the reduction's output build
theirs through the unchecked `_quad`.  The arithmetic runs on plain int pairs
(a, b) ↦ a + b√D (`_mul`, `_pow`).  A `DomainSpec` plans its weights once
(the exponents L/aᵢ, L = lcm(a), and the wall steps ε^{±2L}).  Domain
membership (both walls and the height cap) and a reduction with |s| < 1 are
decided exactly from one pair (`_maxima`); floats only guess the unit
exponent of a tuple one or more whole steps out (|s| ≥ 1) and give
`log_embed` and `height_infty_k`.  Each `QuadField` tables the pairs of
ε^k, |k| ≤ `_UNIT_POW_MAX`, on first use; larger |k| is never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import arith
from .arith import INFINITE
from .wps import WeightVector

VETTED_D = (2, 3, 6, 7, 11, 19)
_UNIT_POW_MAX = 64  # the largest |k| whose ε^k a QuadField keeps (_unit_pow)


class BoundaryAmbiguityError(ValueError):
    """The side of a domain wall at decomposition coordinate s could not be
    decided.  Kept for callers that catch it; the exact reduction never raises it."""

    def __init__(self, s: float):
        super().__init__(f"cannot decide the domain side at s = {s!r}")
        self.s = s


class QuadInt:
    """a + b√D with exact integer arithmetic: immutable, hashable, and equal
    only to a `QuadInt` with the same a, b and D.

    `QuadInt(a, b, D)` checks that every component is an int; `_quad` builds
    one from components already known to be ints, without the check."""

    __slots__ = __match_args__ = ("a", "b", "D")

    def __init__(self, a: int, b: int, D: int):
        for v in (a, b, D):
            if not isinstance(v, int):
                raise TypeError(f"QuadInt components must be int, got {v!r}")
        _set_a(self, a)
        _set_b(self, b)
        _set_D(self, D)

    def __setattr__(self, name, value):
        raise AttributeError(f"QuadInt is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QuadInt is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return QuadInt, (self.a, self.b, self.D)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.D) == (other.a, other.b, other.D)

    def __hash__(self):
        return hash((self.a, self.b, self.D))

    def _same(self, other: "QuadInt") -> None:
        if not isinstance(other, QuadInt) or other.D != self.D:
            raise ValueError(f"mixed fields: √{self.D} vs {other!r}")

    def __add__(self, other):
        self._same(other)
        return _quad(self.a + other.a, self.b + other.b, self.D)

    def __sub__(self, other):
        self._same(other)
        return _quad(self.a - other.a, self.b - other.b, self.D)

    def __neg__(self):
        return _quad(-self.a, -self.b, self.D)

    def __mul__(self, other):
        self._same(other)
        return _quad(*_mul((self.a, self.b), (other.a, other.b), self.D), self.D)

    def conj(self) -> "QuadInt":
        return _quad(self.a, -self.b, self.D)

    def norm(self) -> int:
        return self.a * self.a - self.D * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def inverse(self) -> "QuadInt":
        n = self.norm()
        if n not in (1, -1):
            raise ValueError(f"{self} is not a unit (norm {n})")
        return _quad(n * self.a, -n * self.b, self.D)  # N(x)·x̄

    def __pow__(self, k: int) -> "QuadInt":
        if not isinstance(k, int):
            raise TypeError("exponent must be int")
        base = self if k >= 0 else self.inverse()
        return _quad(*_pow((base.a, base.b), abs(k), self.D), self.D)

    def __repr__(self):
        return f"({self.a}{self.b:+}√{self.D})"


_set_a, _set_b, _set_D = QuadInt.a.__set__, QuadInt.b.__set__, QuadInt.D.__set__


def _quad(a: int, b: int, D: int) -> QuadInt:
    """QuadInt(a, b, D) for components already known to be ints, unchecked."""
    x = object.__new__(QuadInt)
    _set_a(x, a)
    _set_b(x, b)
    _set_D(x, D)
    return x


def _mul(u: tuple[int, int], v: tuple[int, int], D: int) -> tuple[int, int]:
    """The pair of (u₀ + u₁√D)(v₀ + v₁√D)."""
    return u[0] * v[0] + D * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _pow(u: tuple[int, int], k: int, D: int) -> tuple[int, int]:
    """The pair of (u₀ + u₁√D)^k for k ≥ 0, by binary powering (u itself at k = 1)."""
    out = None
    while k:
        if k & 1:
            out = u if out is None else _mul(out, u, D)
        k >>= 1
        if k:
            u = _mul(u, u, D)
    return out or (1, 0)


def _pell_min_unit(D: int) -> tuple[int, int]:
    """Smallest (u, v) with u² − Dv² = ±1, v ≥ 1, from the continued fraction of √D."""
    a0 = math.isqrt(D)
    m, d, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while p * p - D * q * q not in (1, -1):
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q


class QuadField:
    """Q(√D) for vetted D; immutable, one cached instance per D."""

    _CACHE: dict = {}

    def __init__(self, D: int):
        if D not in VETTED_D:
            raise ValueError(f"unsupported D = {D!r}; choose from {VETTED_D}")
        # defensive: the vetted list must satisfy the ring assumptions
        assert D % 4 in (2, 3) and all(e == 1 for _, e in arith.factorize(D).factors)
        self.D = D
        u, v = _pell_min_unit(D)
        self.epsilon = _quad(u, v, D)
        n = self.epsilon.norm()
        assert n in (1, -1)
        # ε and ε⁻¹ = N(ε)·ε̄ as pairs; ε's logs guess the reducing exponent
        self._units = ((u, v), (n * u, -n * v))
        self._unit_logs = _log1(u, v, D), _log1(u, -v, D)
        self._unit_pows: dict[int, tuple[int, int]] = {}  # k ↦ ε^k, |k| ≤ _UNIT_POW_MAX

    @classmethod
    def get(cls, D: int) -> "QuadField":
        if D not in cls._CACHE:
            cls._CACHE[D] = cls(D)
        return cls._CACHE[D]

    def element(self, a: int, b: int = 0) -> QuadInt:
        if type(a) is int and type(b) is int:
            return _quad(a, b, self.D)
        return QuadInt(a, b, self.D)

    def _unit_pow(self, k: int) -> tuple[int, int]:
        """The pair of ε^k, for any integer k; from the table when |k| ≤ _UNIT_POW_MAX."""
        pw = self._unit_pows.get(k)
        if pw is None:
            pw = _pow(self._units[k < 0], abs(k), self.D)
            if abs(k) <= _UNIT_POW_MAX:
                self._unit_pows[k] = pw
        return pw

    def __repr__(self):
        return f"QuadField(√{self.D})"


def fundamental_unit(D: int) -> QuadInt:
    """The smallest unit > 1 of Z[√D]."""
    return QuadField.get(D).epsilon


# --- logarithmic embedding and the fundamental domain ----------------------


def _log1(a: int, b: int, D: int) -> float:
    """log|σ₁x| for nonzero x = a + b√D, without cancellation; log|σ₂x| is
    `_log1(a, -b, D)`.

    In one embedding a and b√D have the same sign, so |σx| = |a| + |b|√D;
    its log is the log of the larger term plus log1p of the ratio (≤ 1) of
    the two, which stays finite for integers past the float range.  The
    other embedding's log is log|N(x)| minus it (N(x) ≠ 0, D no square)."""
    A, B = abs(a), abs(b)
    n = A * A - D * B * B
    if n >= 0:
        big = math.log(A) + math.log1p(B / A * math.sqrt(D))
    else:
        big = math.log(B) + 0.5 * math.log(D) + math.log1p(A / B / math.sqrt(D))
    return big if a * b >= 0 else math.log(abs(n)) - big


def log_embed(x: QuadInt) -> tuple[float, float]:
    """(log|σ₁x|, log|σ₂x|) for the two real embeddings σ₁,₂: √D ↦ ±√D."""
    if x.is_zero():
        raise ValueError("log embedding of zero")
    return _log1(x.a, x.b, x.D), _log1(x.a, -x.b, x.D)


@dataclass(frozen=True)
class DomainSpec:
    """Fundamental-domain data: the field, whose unit ε acts, and the weights.

    Its plan is worked out once: `_exps`, the exponents L/aᵢ (L = lcm(a))
    that take the coordinates to a common power, and `_steps`, the pairs of
    ε^{2L} and ε^{−2L}, which move the decomposition coordinate by ±1."""

    field: QuadField
    weights: WeightVector

    def __post_init__(self):
        if not isinstance(self.weights, WeightVector):
            object.__setattr__(self, "weights", WeightVector(tuple(self.weights)))
        L, pw = self.weights.lcm, self.field._unit_pow
        object.__setattr__(self, "_exps", tuple(L // a for a in self.weights))
        object.__setattr__(self, "_steps", (pw(2 * L), pw(-2 * L)))


def _check_tuple(x, field: QuadField, weights: WeightVector) -> tuple:
    """x as a tuple, one coordinate per weight, all in the field, not all 0."""
    x, D, zero = tuple(x), field.D, True
    if len(x) != len(weights):
        raise ValueError(f"tuple length {len(x)} != weight count {len(weights)}")
    for xi in x:
        if not isinstance(xi, QuadInt) or xi.D != D:
            raise ValueError(f"coordinate {xi!r} is not in Q(√{D})")
        zero = zero and not (xi.a or xi.b)
    if zero:
        raise ValueError("all-zero tuple has no height")
    return x


def in_domain(x: Sequence[QuadInt], spec: DomainSpec, T) -> bool:
    """Membership in S_{F,a}(T): decomposition coordinate s ∈ [0,1) and, for
    finite T, M₁M₂ ≤ T², both decided exactly on the pair of `_maxima`.

    The interval is half-open, so a point whose orbit touches a wall is
    counted once: s(x) ≥ 0 > s(ε⁻¹x), two comparisons on the pair.  With
    L = lcm(a), (M₁M₂)^L = σ₁(best₁·best₂) > 0 is compared with T^{2L}."""
    x = _check_tuple(x, spec.field, spec.weights)
    if T <= 0:
        raise ValueError(f"height cap must be positive, got {T!r}")
    D = spec.field.D
    best1, best2 = _maxima(x, spec._exps, D)
    if _cmp1(best1, best2, D) < 0 or _cmp1(_mul(best1, spec._steps[1], D), best2, D) >= 0:
        return False
    if T == INFINITE:
        return True
    t = Fraction(T) ** (2 * spec.weights.lcm)
    z = _mul(best1, best2, D)
    return _sign_quad(t.denominator * z[0] - t.numerator, t.denominator * z[1], D) <= 0


def _unit_translate(x, spec: DomainSpec, k: int) -> tuple[QuadInt, ...]:
    """ε^k·x, that is xᵢ ↦ ε^{k aᵢ} xᵢ, as `QuadInt`s; x itself for k = 0."""
    if not k:
        return tuple(x)
    D, pw, out = spec.field.D, spec.field._unit_pow, []
    for xi, ai in zip(x, spec.weights):
        (u, v), a, b = pw(k * ai), xi.a, xi.b
        out.append(_quad(a * u + D * b * v, a * v + b * u, D))
    return tuple(out)


def _sign_quad(e: int, f: int, D: int) -> int:
    """Exact sign of e + f√D."""
    if e >= 0 and f >= 0:
        return 1 if (e or f) else 0
    if e <= 0 and f <= 0:
        return -1
    # opposite signs: the larger square wins (squarefree D: never a tie)
    return 1 if (e * e > f * f * D) == (e > 0) else -1


def _cmp1(u: tuple[int, int], v: tuple[int, int], D: int) -> int:
    """Exact sign of σ₁u − σ₁v, which for σ₁u, σ₁v > 0 is that of |σ₁u| − |σ₁v|."""
    return _sign_quad(u[0] - v[0], u[1] - v[1], D)


def _maxima(y, exps: tuple[int, ...], D: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(best₁, best₂) among ±wᵢ, wᵢ = yᵢ^{L/aᵢ} (`exps`, L = lcm(a)), as pairs
    with σ₁ > 0: σ₁best₁ = M₁(y)^L, and best₂ = ±w̄ᵢ with σ₁best₂ = M₂(y)^L.  ε^j
    scales every wᵢ by ε^{jL}, so the maximising indices do not depend on j,
    and as σ₁ε̄ = ±1/σ₁ε, s(ε^j y) ≥ 0 exactly when σ₁(ε^{2jL}best₁) ≥ σ₁best₂."""
    best1 = best2 = None
    for yi, e in zip(y, exps):
        a, b = yi.a, yi.b
        if not (a or b):
            continue
        if e != 1:
            a, b = _pow((a, b), e, D)
        # n = N(wᵢ) ≠ 0: σ₁wᵢ has the sign of a when n > 0, else of b
        n = a * a - D * b * b
        if (a if n > 0 else b) < 0:
            a, b = -a, -b
        if best1 is None or _sign_quad(a - best1[0], b - best1[1], D) > 0:
            best1 = (a, b)
        # σ₁wᵢ > 0 now, so σ₂wᵢ = σ₁w̄ᵢ has the sign of n
        c = (a, -b) if n > 0 else (-a, b)  # ±w̄ᵢ, σ₁ > 0
        if best2 is None or _sign_quad(c[0] - best2[0], c[1] - best2[1], D) > 0:
            best2 = c
    return best1, best2


def reduce_to_domain(x: Sequence[QuadInt], spec: DomainSpec):
    """The unit translate of x lying in S_{F,a}(∞) and the exponent applied.

    ε^k acts by xᵢ ↦ ε^{k aᵢ} xᵢ and moves the decomposition coordinate s
    to s + k.  Exact walls on the `_maxima` pair step k by ±1 from 0, so
    |s| < 1 takes no float; past one step, float logs guess k = −⌊s⌋ once."""
    field, L, D = spec.field, spec.weights.lcm, spec.field.D
    x = _check_tuple(x, field, spec.weights)
    best1, (c, d) = _maxima(x, spec._exps, D)
    # s(ε^k x) ≥ 0 iff σ₁(a + b√D) ≥ σ₁best₂ = σ₁(c + d√D), (a, b) = ε^{2Lk}best₁
    (a, b), k, guess = best1, 0, True
    while True:
        up = _sign_quad(a - c, b - d, D) < 0
        (p, q), j = spec._steps[not up], k + 1 if up else k - 1  # ε^{±2L}
        e, f = a * p + D * b * q, a * q + b * p
        if (_sign_quad(e - c, f - d, D) >= 0) == up:  # s crosses 0 between k and j
            return _unit_translate(x, spec, max(k, j)), max(k, j)
        if guess:  # |s| ≥ 1: float logs guess k = −⌊s⌋, once
            u11, u12 = field._unit_logs
            j = -math.floor((_log1(*best1, D) - _log1(c, d, D)) / (L * (u11 - u12)))
            (e, f), guess = _mul(best1, field._unit_pow(2 * L * j), D), False
        a, b, k = e, f, j


def height_infty_k(x: Sequence[QuadInt], weights) -> float:
    """M₁·M₂, the product over the two real places of max_i |σⱼxᵢ|^{1/aᵢ},
    from (M₁M₂)^L = σ₁(best₁·best₂) (`_maxima`); inf past the float range."""
    if not isinstance(weights, WeightVector):
        weights = WeightVector(tuple(weights))
    x = tuple(x)
    if not x:
        raise ValueError("empty tuple")
    field, L = QuadField.get(getattr(x[0], "D", None)), weights.lcm
    x = _check_tuple(x, field, weights)
    best1, best2 = _maxima(x, tuple(L // a for a in weights), field.D)
    logs = _log1(*best1, field.D) + _log1(*best2, field.D)
    try:
        return math.exp(logs / L)
    except OverflowError:
        return math.inf


# --- prime ideals and sieve mass over k ------------------------------------


def prime_ideal_norms_up_to(field: QuadField, Q: int) -> list[tuple[int, int]]:
    """(norm, count) per batch of prime ideals of norm ≤ Q, sorted by norm.

    p | 4D ramifies (one ideal, norm p); (D|p) ≡ D^{(p−1)/2} = 1 splits (two
    ideals, norm p); (D|p) = −1 stays inert (one ideal, norm p²)."""
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q!r}")
    out = []
    for p in arith.primes_up_to(Q):
        if (4 * field.D) % p == 0:
            out.append((p, 1))
        elif pow(field.D, (p - 1) // 2, p) == 1:
            out.append((p, 2))
        elif p * p <= Q:
            out.append((p * p, 1))
    return sorted(out)


def compute_G_k(field: QuadField, Q: int, density_per_ideal) -> Fraction:
    """Σ over squarefree ideals 𝔮 with N𝔮 ≤ Q of ∏_{𝔭|𝔮} ν/(1−ν), ν constant:
    one `arith.squarefree_mass` walk over the prime-ideal norms, each norm
    repeated once per ideal."""
    nu = Fraction(density_per_ideal)
    if not 0 <= nu < 1:
        raise ValueError(f"ideal density must lie in [0,1), got {nu}")
    norms = [n for n, mult in prime_ideal_norms_up_to(field, Q) for _ in range(mult)]
    return arith.squarefree_mass(norms, [nu / (1 - nu)] * len(norms), Q)
