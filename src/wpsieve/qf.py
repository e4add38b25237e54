"""Real quadratic fields Q(√D) with exact ring arithmetic, unit reduction
into a fundamental domain, and ideal-norm enumeration.

Only class-number-1 fields with D ≡ 2, 3 (mod 4) are supported, so the ring
of integers is Z[√D] and every construction here stays in exact integer
pairs (a, b) ↦ a + b√D.  Domain membership (both walls and the height cap)
is decided exactly in Z[√D]; floats serve only to guess the reducing unit
exponent and for the values `log_embed` and `height_infty_k` return.
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


class BoundaryAmbiguityError(ValueError):
    """The side of a domain wall at decomposition coordinate s could not be
    decided.  Kept for callers that catch it: the reduction decides every
    wall exactly in Z[√D] and never raises it."""

    def __init__(self, s: float):
        super().__init__(f"cannot decide the domain side at s = {s!r}")
        self.s = s


@dataclass(frozen=True)
class QuadInt:
    """a + b√D with exact integer arithmetic."""

    a: int
    b: int
    D: int

    def __post_init__(self):
        for v in (self.a, self.b, self.D):
            if not isinstance(v, int):
                raise TypeError(f"QuadInt components must be int, got {v!r}")

    def _same(self, other: "QuadInt") -> None:
        if not isinstance(other, QuadInt) or other.D != self.D:
            raise ValueError(f"mixed fields: √{self.D} vs {other!r}")

    def __add__(self, other):
        self._same(other)
        return QuadInt(self.a + other.a, self.b + other.b, self.D)

    def __sub__(self, other):
        self._same(other)
        return QuadInt(self.a - other.a, self.b - other.b, self.D)

    def __neg__(self):
        return QuadInt(-self.a, -self.b, self.D)

    def __mul__(self, other):
        self._same(other)
        return QuadInt(
            self.a * other.a + self.D * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.D,
        )

    def conj(self) -> "QuadInt":
        return QuadInt(self.a, -self.b, self.D)

    def norm(self) -> int:
        return self.a * self.a - self.D * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def inverse(self) -> "QuadInt":
        n = self.norm()
        if n not in (1, -1):
            raise ValueError(f"{self} is not a unit (norm {n})")
        c = self.conj()
        return c if n == 1 else -c

    def __pow__(self, k: int) -> "QuadInt":
        if not isinstance(k, int):
            raise TypeError("exponent must be int")
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = QuadInt(1, 0, self.D)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        return f"({self.a}{self.b:+}√{self.D})"


def _pell_min_unit(D: int) -> tuple[int, int]:
    """Smallest (u, v) with u² − Dv² = ±1, v ≥ 1, via the continued fraction
    of √D."""
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
        assert D % 4 in (2, 3) and all(
            e == 1 for _, e in arith.factorize(D).factors
        )
        self.D = D
        u, v = _pell_min_unit(D)
        self.epsilon = QuadInt(u, v, D)
        assert self.epsilon.norm() in (1, -1)
        # ε's log embedding, for every guess of the reducing exponent
        self._unit_logs = _log_pair(self.epsilon)

    @classmethod
    def get(cls, D: int) -> "QuadField":
        if D not in cls._CACHE:
            cls._CACHE[D] = cls(D)
        return cls._CACHE[D]

    def element(self, a: int, b: int = 0) -> QuadInt:
        return QuadInt(a, b, self.D)

    def __repr__(self):
        return f"QuadField(√{self.D})"


def fundamental_unit(D: int) -> QuadInt:
    """The smallest unit > 1 of Z[√D]."""
    return QuadField.get(D).epsilon


# --- logarithmic embedding and the fundamental domain ----------------------


def _log_pair(x: QuadInt) -> tuple[float, float]:
    """(log|σ₁x|, log|σ₂x|) for nonzero x, without cancellation.

    In one embedding a and b√D have the same sign, so |σx| = |a| + |b|√D;
    its log is the log of the larger term plus log1p of the ratio (≤ 1) of
    the two, which stays finite for integers past the float range.  The
    other embedding's log is log|N(x)| minus it (N(x) ≠ 0, D no square)."""
    a, b, D = abs(x.a), abs(x.b), x.D
    if a * a >= D * b * b:
        big = math.log(a) + math.log1p(b / a * math.sqrt(D))
    else:
        big = math.log(b) + 0.5 * math.log(D) + math.log1p(a / b / math.sqrt(D))
    small = math.log(abs(x.norm())) - big
    return (big, small) if x.a * x.b >= 0 else (small, big)


def log_embed(x: QuadInt) -> tuple[float, float]:
    """(log|σ₁x|, log|σ₂x|) for the two real embeddings σ₁,₂: √D ↦ ±√D."""
    if x.is_zero():
        raise ValueError("log embedding of zero")
    return _log_pair(x)


@dataclass(frozen=True)
class DomainSpec:
    """Fundamental-domain data: the field (whose unit ε the reduction
    applies) and the weights acted on."""

    field: QuadField
    weights: WeightVector

    def __post_init__(self):
        if not isinstance(self.weights, WeightVector):
            object.__setattr__(self, "weights", WeightVector(tuple(self.weights)))


def _check_tuple(x, field: QuadField, weights: WeightVector) -> tuple:
    x = tuple(x)
    if len(x) != len(weights):
        raise ValueError(f"tuple length {len(x)} != weight count {len(weights)}")
    for xi in x:
        if not isinstance(xi, QuadInt) or xi.D != field.D:
            raise ValueError(f"coordinate {xi!r} is not in Q(√{field.D})")
    if all(xi.is_zero() for xi in x):
        raise ValueError("all-zero tuple has no height")
    return x


def _log_maxes(x, weights: WeightVector) -> tuple[float, float]:
    """(log M₁, log M₂) with Mⱼ = max_i |σⱼxᵢ|^{1/aᵢ}; zero coords ignored."""
    pairs = [(_log_pair(xi), ai) for xi, ai in zip(x, weights) if not xi.is_zero()]
    return (max(l1 / ai for (l1, _), ai in pairs),
            max(l2 / ai for (_, l2), ai in pairs))


def in_domain(x: Sequence[QuadInt], spec: DomainSpec, T) -> bool:
    """Membership in S_{F,a}(T): decomposition coordinate s ∈ [0,1) and, for
    finite T, M₁M₂ ≤ T², both decided exactly in Z[√D].

    The interval is half-open, so a point whose orbit touches a wall is
    counted once (see `_wall_step`).  With L = lcm(a) and bestⱼ the
    maximising elements xᵢ^{L/aᵢ} of `_maxima`, (M₁M₂)^L = |σ₁(best₁·best₂)|
    is compared with T^{2L}."""
    x = _check_tuple(x, spec.field, spec.weights)
    finite = not (T == INFINITE or (isinstance(T, float) and math.isinf(T)))
    if finite and T <= 0:
        raise ValueError(f"height cap must be positive, got {T!r}")
    if _wall_step(x, spec):
        return False
    if not finite:
        return True
    t = Fraction(T) ** (2 * spec.weights.lcm)
    best1, best2 = _maxima(x, spec)
    z = best1 * best2
    if _sign_quad(z.a, z.b, z.D) < 0:
        z = -z
    return _sign_quad(t.denominator * z.a - t.numerator, t.denominator * z.b, z.D) <= 0


def _unit_translate(x, spec: DomainSpec, k: int):
    eps = spec.field.epsilon
    return tuple(xi * eps ** (k * ai) for xi, ai in zip(x, spec.weights))


def _sign_quad(e: int, f: int, D: int) -> int:
    """Exact sign of e + f√D."""
    if e >= 0 and f >= 0:
        return 1 if (e or f) else 0
    if e <= 0 and f <= 0:
        return -1
    lhs, rhs = e * e, f * f * D  # squarefree D: equality forces e = f = 0
    if e > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


def _cmp_abs_emb1(u: QuadInt, v: QuadInt) -> int:
    """Exact sign of |σ₁u| − |σ₁v|."""
    d = u * u - v * v
    return _sign_quad(d.a, d.b, u.D)


def _maxima(y, spec: DomainSpec) -> tuple[QuadInt, QuadInt]:
    """(best₁, best₂) among wᵢ = yᵢ^{L/aᵢ}, L = lcm(a): |σ₁best₁| = M₁(y)^L
    and best₂ = the conjugate w̄ᵢ with |σ₁best₂| = M₂(y)^L."""
    L = spec.weights.lcm
    best1 = best2 = None
    for yi, ai in zip(y, spec.weights):
        if yi.is_zero():
            continue
        w = yi ** (L // ai)
        if best1 is None or _cmp_abs_emb1(w, best1) > 0:
            best1 = w
        wc = w.conj()
        if best2 is None or _cmp_abs_emb1(wc, best2) > 0:
            best2 = wc
    return best1, best2


def _exact_side(y, spec: DomainSpec) -> int:
    """Exact sign of log M₁(y) − log M₂(y), i.e. of the decomposition s."""
    return _cmp_abs_emb1(*_maxima(y, spec))


def _wall_step(y, spec: DomainSpec) -> int:
    """0 when s(y) ∈ [0, 1), else the unit exponent moving s towards it:
    1 when s < 0, −1 when s − 1 = s(ε⁻¹y) ≥ 0."""
    if _exact_side(y, spec) < 0:
        return 1
    return -1 if _exact_side(_unit_translate(y, spec, -1), spec) >= 0 else 0


def reduce_to_domain(x: Sequence[QuadInt], spec: DomainSpec):
    """The unit translate of x lying in S_{F,a}(∞) and the exponent applied.

    ε^k acts by xᵢ ↦ ε^{k aᵢ} xᵢ and moves the decomposition coordinate s
    to s + k.  Float logs guess k = −⌊s⌋; the exact walls of `_wall_step`
    then move k by ±1 until the translate lies in the domain."""
    x = _check_tuple(x, spec.field, spec.weights)
    u11, u12 = spec.field._unit_logs
    m1, m2 = _log_maxes(x, spec.weights)
    k = -math.floor((m1 - m2) / (u11 - u12))
    y = _unit_translate(x, spec, k)
    while step := _wall_step(y, spec):
        y, k = _unit_translate(y, spec, step), k + step
    return y, k


def height_infty_k(x: Sequence[QuadInt], weights) -> float:
    """M₁·M₂, the product over the two real places of max_i |σⱼxᵢ|^{1/aᵢ};
    inf past the float range."""
    if not isinstance(weights, WeightVector):
        weights = WeightVector(tuple(weights))
    x = tuple(x)
    if not x:
        raise ValueError("empty tuple")
    field = QuadField.get(x[0].D)
    x = _check_tuple(x, field, weights)
    m1, m2 = _log_maxes(x, weights)
    try:
        return math.exp(m1 + m2)
    except OverflowError:
        return math.inf


# --- prime ideals and sieve mass over k ------------------------------------


def _legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def prime_ideal_norms_up_to(field: QuadField, Q: int) -> list[tuple[int, int]]:
    """(norm, count) per batch of prime ideals of norm ≤ Q, sorted by norm.

    p | 4D ramifies (one ideal, norm p); (D|p) = 1 splits (two ideals, norm
    p); (D|p) = −1 stays inert (one ideal, norm p²)."""
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q!r}")
    out = []
    for p in arith.primes_up_to(Q):
        if (4 * field.D) % p == 0:
            out.append((p, 1))
        elif _legendre(field.D, p) == 1:
            out.append((p, 2))
        elif p * p <= Q:
            out.append((p * p, 1))
    return sorted(out)


def compute_G_k(field: QuadField, Q: int, density_per_ideal) -> Fraction:
    """Σ over squarefree ideals 𝔮 with N𝔮 ≤ Q of ∏_{𝔭|𝔮} ν/(1−ν), ν constant.

    With r = ν/(1−ν) this is Σ_k n_k·rᵏ, where n_k counts the squarefree
    ideals of norm ≤ Q with k prime factors: sets of distinct prime ideals,
    counted with integers over the sorted norm list."""
    nu = Fraction(density_per_ideal)
    if not 0 <= nu < 1:
        raise ValueError(f"ideal density must lie in [0,1), got {nu}")
    norms = []
    for norm, mult in prime_ideal_norms_up_to(field, Q):
        norms.extend([norm] * mult)
    # each norm is >= 2, so a product of k of them <= Q has k < Q.bit_length()
    n_k = [0] * Q.bit_length()

    def rec(i: int, cap: int, k: int) -> None:
        n_k[k] += 1
        for j in range(i, len(norms)):
            if norms[j] > cap:
                break
            rec(j + 1, cap // norms[j], k + 1)

    rec(0, Q, 0)
    ratio = nu / (1 - nu)
    return sum(n * ratio**k for k, n in enumerate(n_k))
