"""Residue exclusion sieving in lopsided boxes.

A residue system assigns to each prime p <= Q a set Omega of excluded
residue tuples modulo p^m with exact density nu_p.  The sieve mass

    G(Q) = sum over squarefree q <= Q of prod_{p | q} nu_p / (1 - nu_p)

is computed exactly; so is the bound shape prod_i (B^{a_i} + Q^{2m}) / G(Q).
A fully explicit large-sieve inequality over Q (no hidden constants) is
decided exactly against the survivor count, from one bracket of its right
side, whose 64-bit lower end is the reported rhs.  The survivors are counted
from one bit table per prime, built once: a packed row of the allowed last
coordinates for each prefix residue that Omega mentions.  Blocks of prefixes
(wps.BLOCK_BYTES each) AND one sign row with one table row per prime and
count the set bits, so no tuple is tested on its own.  An Omega is an
explicit set of residue tuples, or (for the bound alone) a bare density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from . import arith
from .wps import (
    DEFAULT_BUDGET,
    WeightVector,
    as_bound,
    box_cutoffs,
    box_volume,
    check_budget,
    leading_signs,
    map_chunks,
    prefix_blocks,
)


class Omega:
    """Excluded residue classes modulo p^m at one prime.

    Given either as an explicit set of residue tuples or (for bound
    evaluation only) as a bare density.  With explicit residues the stored
    density is the exact fraction #Omega / p^{m * width}; width is the
    length of the tuples, None when there are none.
    """

    __slots__ = ("p", "m", "residues", "width", "density")

    def __init__(self, p, m, residues=None, density=None):
        if not arith.is_prime(p):
            raise ValueError(f"Omega modulus base must be prime, got {p!r}")
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"modulus exponent must be a positive integer: {m!r}")
        self.p = p
        self.m = m
        q = p**m
        if residues is not None:
            res = frozenset(tuple(r) for r in residues)
            widths = {len(r) for r in res}
            if len(widths) > 1:
                raise ValueError("residue tuples of mixed width")
            for r in res:
                if any(not (0 <= c < q) for c in r):
                    raise ValueError(f"residue {r} out of range for modulus {q}")
            self.residues = res
            self.width = widths.pop() if res else None
            d = Fraction(len(res), q**self.width) if res else Fraction(0)
            if density is not None and Fraction(density) != d:
                raise ValueError("declared density disagrees with explicit set")
            self.density = d
        else:
            self.residues = self.width = None
            if density is None:
                raise ValueError("Omega needs residues or an exact density")
            self.density = Fraction(density)
        if not 0 <= self.density < 1:
            raise ValueError(f"density must lie in [0, 1), got {self.density}")

    def contains(self, residue_tuple) -> bool:
        """Is the tuple excluded?  A tuple of another width than the
        explicit ones raises ValueError."""
        t = tuple(residue_tuple)
        res = self.explicit_residues()
        if self.width not in (None, len(t)):
            raise ValueError(f"residue {t} has width {len(t)}, Omega at "
                             f"p={self.p} has tuples of width {self.width}")
        return t in res

    def explicit_residues(self) -> frozenset:
        """The excluded set of residue tuples."""
        if self.residues is None:
            raise ValueError(
                f"Omega at p={self.p} has only a density; cannot materialize"
            )
        return self.residues


@dataclass(frozen=True)
class ResidueSystem:
    m: int
    entries: Mapping[int, Omega]

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"modulus exponent must be >= 1, got {self.m!r}")
        for p, om in self.entries.items():
            if om.p != p:
                raise ValueError(f"entry key {p} disagrees with Omega prime {om.p}")
            if om.m != self.m:
                raise ValueError(
                    f"entry at p={p} has exponent {om.m}, system has {self.m}"
                )

    def density(self, p: int) -> Fraction:
        om = self.entries.get(p)
        return om.density if om is not None else Fraction(0)

    @classmethod
    def from_omegas(cls, omegas: Iterable[Omega], m: Optional[int] = None):
        omegas = list(omegas)
        if m is None:
            if not omegas:
                raise ValueError("need an explicit exponent for an empty system")
            m = omegas[0].m
        return cls(m, {om.p: om for om in omegas})

    @classmethod
    def constant_density(cls, primes: Iterable[int], m: int, density):
        d = Fraction(density)
        return cls(m, {p: Omega(p, m, density=d) for p in primes})


@dataclass(frozen=True)
class SieveParams:
    weights: WeightVector
    bound: Fraction
    Q: int

    def __post_init__(self):
        object.__setattr__(self, "bound", as_bound(self.bound))
        if not isinstance(self.Q, int) or self.Q < 1:
            raise ValueError(f"sieve support cutoff Q must be >= 1, got {self.Q!r}")


def compute_G(Q: int, rs: ResidueSystem) -> Fraction:
    """Exact sieve mass: sum over squarefree q <= Q of prod nu/(1-nu), one
    `arith.squarefree_mass` walk over the primes with nu > 0."""
    if not isinstance(Q, int) or Q < 1:
        raise ValueError(f"Q must be a positive integer, got {Q!r}")
    primes, ratios = [], []
    for p in sorted(p for p in rs.entries if p <= Q):
        n, d = rs.density(p).as_integer_ratio()
        if n == d:
            raise ValueError(f"density 1 at p={p} makes the mass diverge")
        if n:
            primes.append(p)
            ratios.append(Fraction(n, d - n))  # nu / (1 - nu)
    return arith.squarefree_mass(primes, ratios, Q)


def _check_widths(params: SieveParams, rs: ResidueSystem) -> None:
    """Explicit residues at p <= Q must have one coordinate per weight: a
    tuple of another width would count in G(Q) but exclude nothing."""
    for p, om in sorted(rs.entries.items()):
        w = om.width if p <= params.Q else None
        if w not in (None, len(params.weights)):
            raise ValueError(f"Omega at p={p} has residue tuples of width {w}, "
                             f"the weights have {len(params.weights)} coordinates")


def sieve_upper_bound(params: SieveParams, rs: ResidueSystem, G=None) -> Fraction:
    """Exact bound shape prod_i (B^{a_i} + Q^{2m}) / G(Q), G = compute_G unless given."""
    _check_widths(params, rs)
    G = compute_G(params.Q, rs) if G is None else G
    if G <= 0:
        raise ValueError("sieve mass must be positive")
    shift = Fraction(params.Q) ** (2 * rs.m)
    prod = Fraction(1)
    b = params.bound
    for a in params.weights:
        prod *= b**a + shift
    return prod / G


# --- survivors -------------------------------------------------------------


def _survivor_tables(rs: ResidueSystem, Q: int, width: int, mlast: int):
    """Per prime p <= Q with excluded residues: (q, radix, keys, rows).

    A prefix's key is its residues mod q = p^m dotted with the mixed radix.
    keys are the sorted keys that occur in Omega; rows[j] packs one bit per
    y in [-mlast, mlast], set when y mod q is allowed after prefix keys[j],
    and the last row is all ones, for every prefix Omega does not mention.
    The tuples have the box's width (_check_widths)."""
    nbits = 2 * mlast + 1
    allowed = np.empty(nbits, dtype=bool)
    tables = []
    for p in arith.primes_up_to(Q):
        om = rs.entries.get(p)
        if om is None or om.density == 0:
            continue
        q = p**rs.m
        radix = [q ** (width - 2 - i) for i in range(width - 1)]
        by_key: dict[int, list[int]] = {}
        for r in om.explicit_residues():
            by_key.setdefault(sum(c * w for c, w in zip(r, radix)), []).append(r[-1])
        keys = sorted(by_key)
        rows = np.full((len(keys) + 1, (nbits + 7) // 8), 0xFF, dtype=np.uint8)
        for j, key in enumerate(keys):
            allowed[:] = True
            for e in by_key[key]:
                allowed[(e + mlast) % q :: q] = False  # index i holds y = i - mlast
            rows[j] = np.packbits(allowed)
        dtype = np.int64 if q ** max(width - 1, 1) < 2**63 else object
        tables.append((q, np.array(radix, dtype=dtype), np.array(keys, dtype=dtype), rows))
    return tables


def _survivors_chunk(args) -> int:
    params, rs, ranges = args
    weights = params.weights
    mlast = box_cutoffs(weights, params.bound)[-1]
    tables = _survivor_tables(rs, params.Q, len(weights), mlast)
    # Base rows, indexed by (y < 0 dropped) + 2 * (y = 0 dropped): all y,
    # y >= 0, and each of those without y = 0 for the zero prefix.
    base = np.ones((4, 2 * mlast + 1), dtype=bool)
    base[1::2, :mlast] = False
    base[2:, mlast] = False
    bases = np.packbits(base, axis=1)
    odd_last = weights.weights[-1] % 2
    total = 0
    # Counted as np.count_nonzero(np.unpackbits(mask)) (numpy 1.24 has it; it
    # beats a byte table), so a prefix costs its mask unpacked, 8 bytes a byte.
    for X in prefix_blocks(ranges, 8 * bases.shape[1]):
        # Sign canon of (prefix, y): a prefix whose sign is nonzero keeps all
        # y (sign 1) or none (-1); otherwise an odd last weight keeps y >= 0.
        sign = leading_signs(X, weights)
        X, sign = X[sign >= 0], sign[sign >= 0]
        mask = bases[(sign == 0) * odd_last + 2 * ~X.any(axis=1)]
        for q, radix, keys, table in tables:
            k = (X.astype(radix.dtype, copy=False) % q) @ radix
            j = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
            mask &= table[np.where(keys[j] == k, j, len(keys))]
        total += int(np.count_nonzero(np.unpackbits(mask)))
    return total


def survivors(params: SieveParams, rs: ResidueSystem, *,
              budget=DEFAULT_BUDGET, workers: int = 1) -> int:
    """Number of sign-canonical nonzero tuples in the box surviving every
    exclusion x mod p^m not in Omega_{p^m}, p <= Q (from the bit tables)."""
    _check_widths(params, rs)
    check_budget(box_volume(params.weights, params.bound), budget)
    prefix = box_cutoffs(params.weights, params.bound)[:-1]
    return sum(map_chunks(_survivors_chunk, (params, rs), prefix, workers))


class LsCheck(NamedTuple):
    lhs: int
    rhs: Fraction
    holds: bool


def testable_ls_inequality(params: SieveParams, rs: ResidueSystem, *,
                           budget=DEFAULT_BUDGET, workers: int = 1) -> LsCheck:
    """Constant-free large-sieve check over Q.

    survivors <= prod_i (N_i^{1/2} + Q^m)^2 / G(Q) with N_i = 2 floor(B^{a_i}) + 1
    (the box side counts).  Every quantity on the right is explicit, so a
    violation would be a genuine bug, not a constant hiding somewhere.  The
    reported rhs is the Fraction from the lower end of _ls_bracket at k = 64,
    at every size (relative error below 2^-63 per weight); holds is decided
    exactly.
    """
    lhs = survivors(params, rs, budget=budget, workers=workers)
    G = compute_G(params.Q, rs)
    ns = [2 * m + 1 for m in box_cutoffs(params.weights, params.bound)]
    shift = params.Q**rs.m
    rhs = Fraction(_ls_bracket(ns, shift, 64)[0], 1 << 128 * len(ns)) / G
    return LsCheck(lhs, rhs, _ls_holds(lhs * G, ns, shift))


def _ls_bracket(ns, shift: int, k: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 4^{k len(ns)} prod_i (sqrt(n_i) + shift)^2 <= hi.

    Each sqrt(n_i) is bracketed by r / 2^k <= sqrt(n_i) <= (r + 1) / 2^k with
    r = isqrt(n_i * 4^k); a square n_i * 4^k is exact (r is its root).
    """
    lo = hi = 1
    for n in ns:
        n4 = n << 2 * k
        r = math.isqrt(n4)
        lo *= (r + (shift << k)) ** 2
        hi *= (r + (r * r != n4) + (shift << k)) ** 2
    return lo, hi


def _ls_holds(target: Fraction, ns, shift: int) -> bool:
    """target <= prod_i (sqrt(n_i) + shift)^2, decided exactly.

    k grows until target falls on one side of _ls_bracket(ns, shift, k).  A
    square n_i is exact at once; otherwise shift >= 1 leaves the product
    irrational, so it never equals target and the loop ends.
    """
    k = 0
    while True:
        lo, hi = _ls_bracket(ns, shift, k)
        scaled = target.numerator << 2 * k * len(ns)
        if scaled <= lo * target.denominator:
            return True
        if scaled > hi * target.denominator:
            return False
        k = 2 * k + 32


# --- text format -----------------------------------------------------------


def load_residue_system(path) -> ResidueSystem:
    """Read a residue system from the line format:

        p m num den            density-only entry
        p m explicit r0,r1,... one excluded residue tuple (rows accumulate)

    '#' starts a comment; every row must carry the same exponent m.
    """
    density_rows: dict[int, Fraction] = {}
    explicit_rows: dict[int, list[tuple]] = {}
    m_seen: set[int] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:  # every ValueError of a line names path:line
                parts = line.split()
                if len(parts) != 4:
                    raise ValueError(f"expected 4 fields, got {line!r}")
                p, m = int(parts[0]), int(parts[1])
                m_seen.add(m)
                if parts[2] == "explicit":
                    tup = tuple(int(c) for c in parts[3].split(","))
                    if p in density_rows:
                        raise ValueError(f"p={p} mixes density and explicit rows")
                    explicit_rows.setdefault(p, []).append(tup)
                else:
                    if p in density_rows or p in explicit_rows:
                        raise ValueError(f"duplicate entry for p={p}")
                    if int(parts[3]) == 0:
                        raise ValueError(f"density {parts[2]}/0 has a zero denominator")
                    density_rows[p] = Fraction(int(parts[2]), int(parts[3]))
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    if len(m_seen) > 1:
        raise ValueError(f"{path}: inconsistent modulus exponents {sorted(m_seen)}")
    if not m_seen:
        raise ValueError(f"{path}: empty residue system")
    m = m_seen.pop()
    omegas = [Omega(p, m, density=d) for p, d in density_rows.items()]
    omegas += [Omega(p, m, residues=rows) for p, rows in explicit_rows.items()]
    return ResidueSystem.from_omegas(omegas, m)


def dump_residue_system(rs: ResidueSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in sorted(rs.entries):
            om = rs.entries[p]
            if om.residues is not None:
                for r in sorted(om.residues):
                    fh.write(f"{p} {rs.m} explicit {','.join(map(str, r))}\n")
            else:
                d = om.density
                fh.write(f"{p} {rs.m} {d.numerator} {d.denominator}\n")
