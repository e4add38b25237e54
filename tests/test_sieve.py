import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wpsieve import arith, cli, covers, sieve, wps
from wpsieve.sieve import Omega, ResidueSystem, SieveParams
from wpsieve.wps import WeightVector


W11 = WeightVector((1, 1))
W12 = WeightVector((1, 2))
W46 = WeightVector((4, 6))


def _half_density(Q, m=1):
    return ResidueSystem.constant_density(arith.primes_up_to(Q), m, Fraction(1, 2))


def _squarefree_count(Q):
    # independent sieve: strike multiples of p^2
    flags = [True] * (Q + 1)
    for p in arith.primes_up_to(math.isqrt(Q)):
        for n in range(p * p, Q + 1, p * p):
            flags[n] = False
    return sum(1 for n in range(1, Q + 1) if flags[n])


def test_compute_G_examples():
    assert sieve.compute_G(3, _half_density(3)) == 3
    assert sieve.compute_G(10, _half_density(10)) == 7
    assert sieve.compute_G(100, _half_density(100)) == 61
    assert sieve.compute_G(50, ResidueSystem.constant_density([], 1, 0)) == 1


def test_compute_G_equals_squarefree_count_at_half():
    for Q in (10, 100, 1000):
        assert sieve.compute_G(Q, _half_density(Q)) == _squarefree_count(Q)


def test_compute_G_rejects_full_density():
    rs = ResidueSystem(1, {2: Omega(2, 1, density=Fraction(1, 2)),
                          3: Omega(3, 1, density=Fraction(1, 2))})
    assert sieve.compute_G(3, rs) == 3
    with pytest.raises(ValueError):
        Omega(2, 1, density=Fraction(1))  # nu = 1 rejected at construction


def test_compute_G_shared_and_distinct_densities():
    # runs of one shared density object (constant_density), a shared zero
    # density between them, and an equal value held by a distinct object:
    # every prime keeps its own nu / (1 - nu), checked against a direct sum
    # over squarefree q
    half = ResidueSystem.constant_density([2, 3, 7], 1, Fraction(1, 2))
    zero = ResidueSystem.constant_density([5, 11], 1, 0)
    third = ResidueSystem.constant_density([13, 17], 1, Fraction(1, 3))
    rs = ResidueSystem(1, {**half.entries, **zero.entries, **third.entries,
                           19: Omega(19, 1, density=Fraction(1, 2))})
    for Q in range(1, 80):
        want = Fraction(0)
        for q in range(1, Q + 1):
            term, n = Fraction(1), q
            for p in arith.primes_up_to(q):
                if n % p == 0:
                    nu = rs.density(p)
                    term *= nu / (1 - nu) if n % (p * p) else 0
                    n //= p
            want += term
        assert sieve.compute_G(Q, rs) == want, Q


def test_compute_G_monotone():
    rng = random.Random(21)
    for _ in range(50):
        Q = rng.randint(2, 60)
        nums = {p: Fraction(rng.randint(0, 3), 4) for p in arith.primes_up_to(Q)}
        rs = ResidueSystem(1, {p: Omega(p, 1, density=d) for p, d in nums.items()})
        g_small = sieve.compute_G(max(2, Q // 2), rs)
        g_big = sieve.compute_G(Q, rs)
        assert g_small <= g_big  # nondecreasing in Q
        bumped = ResidueSystem(1, {
            p: Omega(p, 1, density=min(d + Fraction(1, 8), Fraction(7, 8)))
            for p, d in nums.items()
        })
        assert sieve.compute_G(Q, rs) <= sieve.compute_G(Q, bumped)


def test_sieve_upper_bound_examples():
    rs = _half_density(3)
    b = sieve.sieve_upper_bound(SieveParams(W11, 10, 3), rs)
    assert b == Fraction(361, 3)
    # Q = 1: empty sieve, G = 1
    b = sieve.sieve_upper_bound(SieveParams(W11, 10, 1), ResidueSystem(1, {}))
    assert b == (10 + 1) ** 2 and isinstance(b, Fraction)
    rs = ResidueSystem(1, {2: Omega(2, 1, density=Fraction(1, 4))})
    b = sieve.sieve_upper_bound(SieveParams(W46, 2, 2), rs)
    assert b == 1020 and isinstance(b, Fraction)
    # the bound is exact at every size
    rs = ResidueSystem(1, {2: Omega(2, 1, density=Fraction(1, 2))})
    b = sieve.sieve_upper_bound(SieveParams(W46, 10**41, 5), rs)
    assert b == Fraction((10**164 + 25) * (10**246 + 25), 2)


OMEGA_00 = Omega(2, 1, residues={(0, 0)})


def test_survivors_examples():
    n = sieve.survivors(SieveParams(W11, 1, 2), ResidueSystem.from_omegas([OMEGA_00]))
    assert n == 4  # (0,1),(1,-1),(1,0),(1,1)
    # empty system: unsieved sign-canonical box count
    n = sieve.survivors(SieveParams(W11, 2, 1), ResidueSystem(1, {}))
    assert n == len(_canonical_box(W11, 2))
    # x0 odd after excluding all even-x0 residues mod 2
    om = Omega(2, 1, residues={(0, 0), (0, 1)})
    n = sieve.survivors(SieveParams(W11, 2, 2), ResidueSystem.from_omegas([om]))
    assert n == sum(1 for t in _canonical_box(W11, 2) if t[0] % 2 == 1)


def _canonical_box(wv, bound):
    out = []
    for tup in itertools.product(*[
        range(-m, m + 1) for m in wps.box_cutoffs(wv, bound)
    ]):
        if any(tup) and wps.is_sign_canonical(tup, wv):
            out.append(tup)
    return out


def _survivor_oracle(params, rs):
    mod = {p: p ** rs.m for p in rs.entries}
    n = 0
    for tup in _canonical_box(params.weights, params.bound):
        ok = True
        for p, om in rs.entries.items():
            if tuple(c % mod[p] for c in tup) in om.explicit_residues():
                ok = False
                break
        if ok:
            n += 1
    return n


def test_survivors_random_systems_match_oracle():
    rng = random.Random(17)
    for _ in range(40):
        wv = rng.choice([W11, W12])
        bound = rng.randint(1, 4)
        Q = rng.randint(1, 7)
        m = rng.choice([1, 1, 2])
        omegas = []
        for p in arith.primes_up_to(Q):
            q = p ** m
            width = len(wv)
            cells = q ** width
            size = rng.randint(0, min(cells - 1, 6))
            res = set()
            while len(res) < size:
                res.add(tuple(rng.randrange(q) for _ in range(width)))
            if res:
                omegas.append(Omega(p, m, residues=res))
        rs = ResidueSystem.from_omegas(omegas, m=m)
        params = SieveParams(wv, bound, Q)
        assert sieve.survivors(params, rs) == _survivor_oracle(params, rs)


def _isin_walk(params, rs):
    """Reference count for the bit tables: per prefix, one np.isin per prime
    on y mod q over the whole last-coordinate window."""
    weights = params.weights
    Ms = wps.box_cutoffs(weights, params.bound)
    width = len(weights)
    mlast = Ms[-1]
    y = np.arange(-mlast, mlast + 1, dtype=np.int64)
    y_mods = []
    for p in arith.primes_up_to(params.Q):
        om = rs.entries.get(p)
        if om is None or om.density == 0:
            continue
        q = p**rs.m
        by_prefix = {}
        for r in om.explicit_residues():
            by_prefix.setdefault(r[:-1], []).append(r[-1])
        arr_map = {k: np.array(sorted(v), dtype=np.int64) for k, v in by_prefix.items()}
        y_mods.append((q, y % q, arr_map))
    total = 0
    for prefix in itertools.product(*[range(-m, m + 1) for m in Ms[:-1]]):
        if not wps.is_sign_canonical((*prefix, 1), weights):
            continue
        neg = wps.is_sign_canonical((*prefix, -1), weights)
        mask = np.ones(y.size, dtype=bool) if neg else y >= 0
        if not any(prefix):
            mask &= y != 0
        for q, ymod, arr_map in y_mods:
            excl = arr_map.get(tuple(c % q for c in prefix))
            if excl is not None:
                mask &= ~np.isin(ymod, excl)
        total += int(mask.sum())
    return total


# (weights, bound).  The last coordinate has 2M+1 bits, always odd, so never
# a multiple of 64: 3 to 33 fill part of one word; 63 and 127 stop one bit
# short of a word edge and 65 and 129 end one bit past one, under an even
# last weight (1, 2) and an odd one (after an odd prefix weight in (1, 3), an
# even one in (2, 3)).  (2, 4) has no odd weight, so -1 acts trivially.
_SURVIVOR_CASES = [
    ((1, 1), 3),
    ((1, 1), 4),
    ((1, 2), Fraction(3, 2)),
    ((1, 2), 2),
    ((2, 4), Fraction(3, 2)),
    ((2, 4), 2),
    ((4, 6), 1),
    ((4, 6), Fraction(3, 2)),
    ((1, 2, 3), Fraction(3, 2)),
    ((1, 2, 3), 2),
    ((1, 2), Fraction(28, 5)),
    ((1, 2), Fraction(17, 3)),
    ((1, 2), Fraction(127, 16)),
    ((1, 2), 8),
    ((1, 3), Fraction(19, 6)),
    ((1, 3), Fraction(16, 5)),
    ((2, 3), Fraction(191, 48)),
    ((2, 3), 4),
]


@st.composite
def _residue_systems(draw, width):
    """Explicit Omegas mod p^m at p <= Q: absent, empty, a few tuples, or all
    but a few of the q^width cells."""
    m = draw(st.sampled_from([1, 2]))
    Q = draw(st.integers(1, 5))
    omegas = []
    for p in arith.primes_up_to(Q):
        q = p**m
        cells = q**width
        kind = draw(st.sampled_from(["absent", "empty", "sparse", "near-full"]))
        if kind == "absent" or (kind == "near-full" and cells > 1000):
            continue
        picked = draw(st.sets(st.integers(0, cells - 1), min_size=1,
                              max_size=min(6, cells - 1)))
        if kind == "empty":
            picked = set()
        elif kind == "near-full":
            picked = set(range(cells)) - picked
        omegas.append(Omega(p, m, residues={
            tuple(c // q**(width - 1 - i) % q for i in range(width)) for c in picked
        }))
    return Q, ResidueSystem.from_omegas(omegas, m=m)


@pytest.mark.parametrize("weights,bound", _SURVIVOR_CASES)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_survivor_tables_match_isin_walk(weights, bound, data):
    wv = WeightVector(weights)
    Q, rs = data.draw(_residue_systems(len(wv)))
    params = SieveParams(wv, bound, Q)
    want = _isin_walk(params, rs)
    assert want == _survivor_oracle(params, rs)
    for workers in (1, 2):
        assert sieve.survivors(params, rs, workers=workers) == want, workers


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_survivors_across_many_capped_blocks(data):
    # (1, 1, 3) at B = 3: a 55-bit last coordinate (one uint64 word, 9 padding
    # bits) and 25 sign-canonical prefixes.  A block budget of 3 rows (two
    # int64 prefix columns, the mask word and one gathered table word) splits
    # one chunk into many blocks; each must be capped at 3 rows.
    wv = WeightVector((1, 1, 3))
    Q, rs = data.draw(_residue_systems(len(wv)))
    params = SieveParams(wv, 3, Q)
    row_words = (2 * wps.box_cutoffs(wv, 3)[-1] + 1 + 63) // 64
    assert row_words == 1
    want = _isin_walk(params, rs)
    assert want == _survivor_oracle(params, rs)
    shapes = []
    popcount = np.bitwise_count

    def spy(a, *args, **kw):
        shapes.append(a.shape)
        return popcount(a, *args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wps, "BLOCK_BYTES", (8 * 2 + 16 * row_words) * 3 + 5)
        mp.setattr(np, "bitwise_count", spy)
        assert sieve.survivors(params, rs, workers=1) == want
        assert len(shapes) > 8 and all(rows <= 3 for rows, _ in shapes), shapes
        assert sieve.survivors(params, rs, workers=2) == want


# The residue file of the word-edge pins (weights 1,1, Q = 3).
_WORD_EDGE_RS = "2 1 explicit 0,0\n3 1 explicit 1,2\n3 1 explicit 2,0\n"


@pytest.mark.parametrize("height,side,want", [
    (31, 63, 1168), (32, 65, 1216), (63, 127, 4736), (64, 129, 4832)])
def test_survivors_at_word_edges(tmp_path, height, side, want):
    # The last side 2M + 1 one bit short of and one bit past a 64-bit word
    # (one and two words, two and three words); counts checked by brute force.
    path = tmp_path / "rs.txt"
    path.write_text(_WORD_EDGE_RS)
    rs = sieve.load_residue_system(path)
    params = SieveParams(W11, height, 3)
    assert 2 * wps.box_cutoffs(W11, height)[-1] + 1 == side
    assert _survivor_oracle(params, rs) == want
    for workers in (1, 2):
        assert sieve.survivors(params, rs, workers=workers) == want, workers


def test_survivor_tables_keys_past_int64():
    # q = 2^64: prefix keys and residues are Python ints, not int64
    q = 2**64
    for w in ((2,), (1, 1), (1, 2, 3)):
        n = len(w)
        res = {(0,) * (n - 1) + (5,), (1,) * (n - 1) + (q - 1,), (q - 2,) * n}
        rs = ResidueSystem.from_omegas([Omega(2, 64, residues=res)])
        params = SieveParams(WeightVector(w), 3, 2)
        assert sieve.survivors(params, rs) == _survivor_oracle(params, rs), w


_BUILTIN_BOUNDS = {
    "two-torsion-g1": [1, Fraction(3, 2), 2],
    "two-torsion-g2": [1, Fraction(5, 4)],
    "disc-square-g1": [1, Fraction(3, 2), 2],
    "square-coord": [2, 5, 9],
}


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data(), name=st.sampled_from(sorted(_BUILTIN_BOUNDS)), Q=st.integers(1, 7))
def test_chain_thin_survivors_ls_rhs(data, name, Q):
    # The paper's chain: members reduce to mod-p roots, so no Omega from
    # omega_from_cover removes one, and the survivors obey the large sieve.
    cover = covers.named_cover(name)
    bound = data.draw(st.sampled_from(_BUILTIN_BOUNDS[name]))
    rs = ResidueSystem.from_omegas(
        [covers.omega_from_cover(cover, p) for p in arith.primes_up_to(Q)], m=1)
    thin = sum(covers.root_cover_member(cover, pt)
               for pt in wps.enumerate_points(cover.weights, bound))
    chk = sieve.testable_ls_inequality(SieveParams(cover.weights, bound, Q), rs)
    assert thin <= chk.lhs <= chk.rhs
    assert chk.holds


def test_survivors_workers_agree():
    om = Omega(2, 1, residues={(0, 0), (1, 1)})
    om3 = Omega(3, 1, residues={(0, 1), (2, 2)})
    params = SieveParams(W12, 3, 3)
    rs = ResidueSystem.from_omegas([om, om3])
    assert sieve.survivors(params, rs, workers=2) == sieve.survivors(params, rs)


def test_survivors_width_one_workers_agree():
    # no prefix coordinate to cut across workers: one call on the whole box
    for w in ((1,), (2,), (3,)):
        params = SieveParams(WeightVector(w), 4, 3)
        rs = ResidueSystem.from_omegas([Omega(2, 1, residues={(0,)}),
                                        Omega(3, 1, residues={(1,)})])
        want = _survivor_oracle(params, rs)
        assert sieve.survivors(params, rs, workers=1) == want, w
        assert sieve.survivors(params, rs, workers=2) == want, w


def test_survivors_monotone_in_Q():
    om2 = Omega(2, 1, residues={(0, 0)})
    om3 = Omega(3, 1, residues={(1, 2)})
    rs = ResidueSystem.from_omegas([om2, om3])
    a = sieve.survivors(SieveParams(W11, 3, 2), rs)
    b = sieve.survivors(SieveParams(W11, 3, 3), rs)
    assert b <= a


def test_ls_inequality_example():
    chk = sieve.testable_ls_inequality(
        SieveParams(W11, 1, 2), ResidueSystem.from_omegas([OMEGA_00])
    )
    assert chk.lhs == 4
    # (sqrt(3)+2)^4 / G with G = 1 + (1/4)/(3/4) = 4/3
    assert chk.rhs == pytest.approx((math.sqrt(3) + 2) ** 4 / (4 / 3))
    assert chk.holds


def test_ls_inequality_rhs_rounds_the_exact_value(monkeypatch):
    # (sqrt(71901) + 2)^4 / (4/3) = 3994294781.96499...: the 64-bit bracket
    # rounds to ...96, a float product of the factors to ...97.  The box
    # (71901^2 tuples) is not walked: survivors is patched out.
    monkeypatch.setattr(sieve, "survivors", lambda *a, **k: 0)
    chk = sieve.testable_ls_inequality(SieveParams(W11, 35950, 2),
                                       ResidueSystem.from_omegas([OMEGA_00]))
    with localcontext() as ctx:
        ctx.prec = 60
        want = (Decimal(71901).sqrt() + 2) ** 4 * 3 / 4
    assert str(want).startswith("3994294781.96499")
    assert abs(chk.rhs / Fraction(want) - 1) < Fraction(1, 2**60)
    assert cli._fmt_real(chk.rhs) == "3994294781.96"
    assert chk.holds


def test_ls_inequality_decides_holds_exactly(monkeypatch):
    # lhs = 4 against (sqrt(3) + 2)^4 / G = (97 + 56 sqrt(3)) / G.  Real
    # residue systems give G with small denominators, far from a tie, so G
    # is set 10^-40 off the tie on either side: both float rhs land within
    # one ulp of lhs, so a float comparison cannot tell them apart.
    with localcontext() as ctx:
        ctx.prec = 60
        tie = (97 + 56 * Decimal(3).sqrt()) / 4
        near = [(Fraction(tie + off), holds)  # Fraction(Decimal) is exact
                for off, holds in ((Decimal("1e-40"), False), (Decimal("-1e-40"), True))]
    params = SieveParams(W11, 1, 2)
    rs = ResidueSystem.from_omegas([OMEGA_00])
    for G, holds in near:
        monkeypatch.setattr(sieve, "compute_G", lambda Q, rs: G)
        chk = sieve.testable_ls_inequality(params, rs)
        assert chk.lhs == 4
        assert abs(chk.rhs - 4) <= math.ulp(4.0)
        assert chk.holds is holds


def test_ls_inequality_exact_tie_with_square_sides(monkeypatch):
    # B = 4 on weights (1, 1): N_i = 9 are squares, so (3 + 2)^4 / G is
    # rational and an exact tie lhs = rhs holds, decided at the first bracket
    params = SieveParams(W11, 4, 2)
    rs = ResidueSystem.from_omegas([OMEGA_00])
    lhs = sieve.survivors(params, rs)
    for G, holds in ((Fraction(625, lhs), True), (Fraction(626, lhs), False)):
        monkeypatch.setattr(sieve, "compute_G", lambda Q, rs: G)
        assert sieve.testable_ls_inequality(params, rs).holds is holds


@pytest.mark.parametrize("ws, bound, m", [
    ((1, 1, 1), 7, 700),  # Q^m = 3^700 is past the float range
    ((1, 1, 1), 1, 200),  # each factor fits, their product does not
])
def test_ls_inequality_rhs_past_float_range(ws, bound, m):
    params = SieveParams(WeightVector(ws), bound, 3)
    rs = ResidueSystem.from_omegas([Omega(2, m, residues={(0,) * len(ws)})])
    chk = sieve.testable_ls_inequality(params, rs)
    G = sieve.compute_G(3, rs)
    with localcontext() as ctx:
        ctx.prec = 80
        want = Decimal(1)
        for k in wps.box_cutoffs(params.weights, bound):
            want *= ((2 * k + 1) ** Decimal("0.5") + 3**m) ** 2
        want = Fraction(want) / G
    assert isinstance(chk.rhs, Fraction)
    assert abs(chk.rhs / want - 1) < Fraction(1, 10**30)
    assert chk.holds


def test_ls_inequality_empty_system_trivial():
    params = SieveParams(W12, 2, 3)
    rs = ResidueSystem(1, {})
    chk = sieve.testable_ls_inequality(params, rs)
    assert chk.lhs == len(_canonical_box(W12, 2))
    assert chk.holds


def test_ls_inequality_randomized():
    rng = random.Random(29)
    for _ in range(60):
        wv = rng.choice([W11, W12])
        bound = rng.randint(1, 8)
        Q = rng.randint(1, 20)
        omegas = []
        for p in arith.primes_up_to(Q):
            width = len(wv)
            size = rng.randint(0, min(p ** width - 1, 8))
            res = set()
            while len(res) < size:
                res.add(tuple(rng.randrange(p) for _ in range(width)))
            if res:
                omegas.append(Omega(p, 1, residues=res))
        rs = ResidueSystem.from_omegas(omegas, m=1)
        chk = sieve.testable_ls_inequality(SieveParams(wv, bound, Q), rs)
        assert chk.holds, (tuple(wv), bound, Q)


def test_omega_validation():
    with pytest.raises(ValueError):
        Omega(4, 1, residues={(0,)})  # non-prime
    with pytest.raises(ValueError):
        Omega(3, 1, residues={(3, 0)})  # residue out of range
    om = Omega(3, 1, residues={(0, 1), (2, 2)})
    assert om.density == Fraction(2, 9)
    assert om.contains((0, 1))
    assert not om.contains((1, 1))


def test_omega_width_is_checked():
    om = Omega(2, 1, residues=[(0, 0)])
    assert om.width == 2
    assert om.contains((0, 0))
    with pytest.raises(ValueError):
        om.contains((0, 0, 0))
    with pytest.raises(ValueError):
        om.contains((0,))
    empty = Omega(2, 1, residues=[])
    assert empty.width is None
    assert not empty.contains((0, 0, 0))
    assert Omega(2, 1, density=Fraction(1, 4)).width is None


def test_constant_density_checks_m_and_density_once():
    ps = arith.primes_up_to(50)
    rs = ResidueSystem.constant_density(iter(ps), 2, "1/3")
    assert rs.m == 2 and list(rs.entries) == ps
    for p, om in rs.entries.items():
        full = Omega(p, 2, density=Fraction(1, 3))
        assert [getattr(om, k) for k in Omega.__slots__] == \
            [getattr(full, k) for k in Omega.__slots__]
        with pytest.raises(ValueError):
            om.explicit_residues()
    # refused even when no prime carries them
    for m, d in ((1, 1), (1, Fraction(-1, 2)), (1, None), (0, 0), (1.0, 0)):
        with pytest.raises(ValueError):
            ResidueSystem.constant_density([], m, d)
    with pytest.raises(ValueError, match="prime, got 9"):
        ResidueSystem.constant_density([2, 3, 9], 1, 0)


def test_residue_system_density_units():
    rs = ResidueSystem.from_omegas([OMEGA_00])
    assert rs.density(2) == Fraction(1, 4)
    assert rs.density(3) == 0
    with pytest.raises(ValueError):
        ResidueSystem(1, {3: OMEGA_00})  # key/prime mismatch


def test_file_round_trip(tmp_path):
    path = tmp_path / "rs.txt"
    om2 = Omega(2, 1, residues={(0, 0), (1, 0)})
    om3 = Omega(3, 1, density=Fraction(2, 9))
    rs = ResidueSystem(1, {2: om2, 3: om3})
    sieve.dump_residue_system(rs, path)
    rs2 = sieve.load_residue_system(path)
    assert rs2.m == 1
    assert rs2.entries[2].explicit_residues() == om2.explicit_residues()
    assert rs2.density(3) == Fraction(2, 9)


def test_file_rejects_mixed_m(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1 1 4\n3 2 1 9\n")
    with pytest.raises(ValueError):
        sieve.load_residue_system(path)
