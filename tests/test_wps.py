import itertools
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wpsieve import arith, cli, hyperelliptic, sieve, wps
from wpsieve.wps import WeightVector, WpsPoint


W46 = WeightVector((4, 6))
W12 = WeightVector((1, 2))
W11 = WeightVector((1, 1))


def test_weight_vector_derived_fields():
    assert W46.total == 10
    assert W46.min_weight == 4
    assert W46.lcm == 12
    assert len(W46) == 2
    with pytest.raises(ValueError):
        WeightVector((0, 2))
    with pytest.raises(ValueError):
        WeightVector(())


def test_weight_vector_lcm_is_cached_outside_eq_and_hash():
    # map_chunks pickles WeightVectors to its workers, cached lcm or not
    w = WeightVector((4, 6))
    assert w.lcm == 12 and vars(w)["lcm"] == 12
    fresh = WeightVector((4, 6))
    assert "lcm" not in vars(fresh)
    assert w == fresh and hash(w) == hash(fresh) and repr(w) == repr(fresh)
    assert w != WeightVector((6, 4)) and WeightVector((6, 4)).lcm == 12
    for v in (w, fresh):
        back = pickle.loads(pickle.dumps(v))
        assert back == fresh and hash(back) == hash(fresh) and back.lcm == 12


def test_wgcd_examples():
    assert wps.wgcd((48, 320), W46) == 2  # 48 = 2^4*3, 320 = 2^6*5
    assert wps.wgcd((3, 5), W46) == 1
    assert wps.wgcd((0, 64), W46) == 2
    with pytest.raises(ValueError):
        wps.wgcd((0, 0), W46)


def test_wgcd_scaling_law():
    rng = random.Random(5)
    for _ in range(200):
        wv = rng.choice([W46, W12, W11, WeightVector((2, 3))])
        x = tuple(rng.randint(-40, 40) for _ in wv)
        if not any(x):
            continue
        t = rng.choice([2, 3, 5, -2, 6])
        scaled = tuple(t ** a * c for c, a in zip(x, wv))
        assert wps.wgcd(scaled, wv) == abs(t) * wps.wgcd(x, wv)


def test_normalize_examples():
    assert wps.normalize((48, 320), W46).coords == (3, 5)
    assert wps.normalize((Fraction(1, 16), Fraction(1, 64)), W46).coords == (1, 1)
    assert wps.normalize((-3, 7), W12).coords == (3, 7)


def test_normalize_idempotent_and_action_invariant():
    rng = random.Random(9)
    for _ in range(300):
        wv = rng.choice([W46, W12, W11, WeightVector((2, 3)), WeightVector((1, 2, 3))])
        x = tuple(rng.randint(-30, 30) for _ in wv)
        if not any(x):
            continue
        p = wps.normalize(x, wv)
        assert wps.normalize(p.coords, wv) == p
        assert wps.wgcd(p.coords, wv) == 1
        lam = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
        scaled = tuple(lam ** a * c for c, a in zip(x, wv))
        assert wps.normalize(scaled, wv) == p
        assert wps.height(wps.normalize(scaled, wv)) == wps.height(p)


# primes past trial division: rho splits off 1_000_003 in about 10^3 steps,
# and the powers of 2^61 - 1 left over are taken apart as k-th roots
_LAMBDA_PRIMES = [2, 3, 1_000_003, 2**61 - 1]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ws=st.lists(st.integers(1, 3), min_size=2, max_size=3),
       b=st.sampled_from([1, Fraction(3, 2), 2]),
       num=st.lists(st.sampled_from(_LAMBDA_PRIMES), max_size=3),
       den=st.lists(st.sampled_from(_LAMBDA_PRIMES), max_size=3),
       sign=st.sampled_from([1, -1]))
def test_normalize_undoes_rational_scaling(ws, b, num, den, sign):
    # every normalized point, zero coordinates included, is its own
    # representative after scaling by any rational lambda
    wv = WeightVector(tuple(ws))
    lam = sign * Fraction(math.prod(num), math.prod(den))
    points = list(wps.enumerate_points(wv, b))
    assert any(0 in p.coords for p in points)
    for p in points:
        assert wps.normalize(tuple(lam**a * x for x, a in zip(p.coords, wv)), wv) == p


def test_normalize_prime_power_denominators_are_quick():
    # the lcm of the denominators, P, turns into P^2 in the weighted gcd
    P = 2**61 - 1
    x = (Fraction(1, P), Fraction(2, P))
    assert wps.normalize(x, WeightVector((3, 3))).coords == (P**2, 2 * P**2)


def test_height_examples():
    assert wps.height(WpsPoint((3, 5), W46)) == pytest.approx(3 ** 0.25)
    assert wps.height(WpsPoint((0, 1), W46)) == 1.0
    assert wps.height(WpsPoint((1, 0), W11)) == 1.0


def test_height_leq_exact():
    p = WpsPoint((3, 5), W46)
    assert not wps.height_leq(p, 1)
    assert wps.height_leq(WpsPoint((1, 1), W46), 1)
    assert wps.height_leq(p, Fraction(3, 2))  # 27*2^12 <= 3^12 exactly
    # boundary tie decided exactly: height((1,0),(1,1)) == 1
    assert wps.height_leq(WpsPoint((1, 0), W11), 1)
    assert not wps.height_leq(WpsPoint((1, 0), W11), Fraction(99, 100))


def test_box_cutoffs_and_volume():
    assert wps.box_cutoffs(W46, 2) == (16, 64)
    assert wps.box_cutoffs(W46, Fraction(3, 2)) == (5, 11)
    assert wps.box_volume(W46, 2) == 33 * 129


def test_enumerate_examples():
    pts = list(wps.enumerate_points(W46, 1))
    assert len(pts) == 8
    assert {p.coords for p in pts} == set(
        itertools.product((-1, 0, 1), repeat=2)
    ) - {(0, 0)}
    pts = list(wps.enumerate_points(W12, 1))
    assert [p.coords for p in pts] == [(0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    pts = list(wps.enumerate_points(W11, 1))
    assert {p.coords for p in pts} == {(0, 1), (1, -1), (1, 0), (1, 1)}


def _oracle_points(wv, bound):
    """Nested-loop oracle: normalize every box tuple, deduplicate, height-filter."""
    out = set()
    for tup in itertools.product(*[
        range(-m, m + 1) for m in wps.box_cutoffs(wv, bound)
    ]):
        if not any(tup):
            continue
        p = wps.normalize(tup, wv)
        if wps.height_leq(p, bound):
            out.add(p.coords)
    return out


def test_stream_matches_oracle():
    for wv in (W11, W12, W46, WeightVector((2, 3))):
        for b in (1, Fraction(3, 2), 2, 3):
            got = [p.coords for p in wps.enumerate_points(wv, b)]
            assert len(got) == len(set(got)), "stream emitted a duplicate"
            assert set(got) == _oracle_points(wv, b), (tuple(wv), b)


def test_count_examples_and_consistency():
    assert wps.count(W46, 1) == 8
    assert wps.count(W12, 1) == 5
    assert wps.count(W11, 1) == 4
    for wv in (W11, W12, W46):
        for b in (1, 2, 3):
            assert wps.count(wv, b) == len(list(wps.enumerate_points(wv, b)))
    # nondecreasing in B
    counts = [wps.count(W12, b) for b in (1, 2, 3, 4)]
    assert counts == sorted(counts)


def test_count_workers_agree(capsys):
    for cmd in ("count", "count-integral"):
        for w in ("1,2", "4,6"):
            outs = []
            for workers in ("1", "2"):
                argv = [cmd, "--weights", w, "--height-max", "3", "--workers", workers]
                assert cli.main(argv) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1]


def test_map_chunks_starts_no_more_processes_than_pieces(monkeypatch):
    asked = []

    class SerialPool:  # records the process count it is asked for, maps here
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    monkeypatch.setattr(wps, "Pool", SerialPool)
    for m0, workers in ((100, 100_000), (100, 3), (2, 50)):
        parts = wps.map_chunks(lambda args: args[-1], (), [m0, 4], workers)
        assert [x for x0, _ in parts for x in x0] == list(range(-m0, m0 + 1))
        assert all(rest == range(-4, 5) for _, rest in parts)
    assert asked == [wps._CHUNKS, 3, 5]
    # one worker, or no prefix coordinate to cut: one call on the whole box
    whole = [range(-100, 101), range(-4, 5)]
    assert wps.map_chunks(lambda args: args, (7,), [100, 4], 1) == [(7, whole)]
    assert wps.map_chunks(lambda args: args, (7,), [], 8) == [(7, [])]
    assert asked == [wps._CHUNKS, 3, 5]
    one = hyperelliptic.census(1, [1, 2], thin="disc-square", workers=1)
    many = hyperelliptic.census(1, [1, 2], thin="disc-square", workers=100_000)
    assert one.rows == many.rows
    assert asked[-1] == wps._CHUNKS


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(), cutoffs=st.lists(st.integers(0, 3), max_size=3),
       block_bytes=st.integers(1, 200), row_bytes=st.integers(1, 40))
def test_prefix_blocks_walk_the_product(data, cutoffs, block_bytes, row_bytes):
    ranges = [range(-m, m + 1) for m in cutoffs]
    if ranges:  # the first range cut to a piece, as map_chunks hands it out
        ranges[0] = data.draw(st.sampled_from(wps._chunk_ranges(cutoffs[0])))
    # a row costs its 8-byte prefix columns plus the caller's row_bytes
    rows = max(1, block_bytes // (8 * len(ranges) + row_bytes))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wps, "BLOCK_BYTES", block_bytes)
        blocks = list(wps.prefix_blocks(ranges, row_bytes))
    assert all(X.dtype == np.int64 and X.shape[1] == len(ranges) for X in blocks)
    assert [len(X) for X in blocks[:-1]] == [rows] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]) <= rows
    assert [tuple(x) for X in blocks for x in X.tolist()] == list(itertools.product(*ranges))


def test_block_size_changes_no_count():
    # Blocks only regroup exact integer sums: one-prefix blocks (BLOCK_BYTES
    # = 1) give every census and survivor count of the default blocks.
    grids = ((1, [1, 2, 3]), (2, [1, Fraction(5, 4)]), (3, [1, Fraction(9, 8)]))
    rs = sieve.ResidueSystem.from_omegas([sieve.Omega(2, 1, residues={(0, 0, 1)}),
                                          sieve.Omega(3, 1, residues={(1, 2, 0), (2, 0, 2)})])
    params = sieve.SieveParams(WeightVector((1, 2, 3)), 4, 3)

    def counts():
        return ([hyperelliptic.census(g, grid, smooth_only=s).rows
                 for g, grid in grids for s in (False, True)],
                sieve.survivors(params, rs))

    want = counts()
    assert want[1] == 15270
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wps, "BLOCK_BYTES", 1)
        assert counts() == want


def test_leading_signs_decide_the_sign_canon():
    # every weight vector of 1s and 2s up to width 4, every prefix in [-2, 2]
    for ws in itertools.chain.from_iterable(
            itertools.product((1, 2), repeat=n) for n in range(1, 5)):
        wv = WeightVector(ws)
        prefixes = list(itertools.product(range(-2, 3), repeat=len(ws) - 1))
        X = np.array(prefixes, dtype=np.int64).reshape(len(prefixes), len(ws) - 1)
        for prefix, sign in zip(prefixes, wps.leading_signs(X, wv).tolist()):
            canon = (wps.is_sign_canonical((*prefix, 1), wv),
                     wps.is_sign_canonical((*prefix, -1), wv))
            assert canon == {1: (True, True), -1: (False, False),
                             0: (True, ws[-1] % 2 == 0)}[sign], (ws, prefix)


def _small_bounds(wv):
    # rational heights whose box stays small enough to enumerate
    return sorted({
        Fraction(n, d) for d in (1, 2, 3) for n in range(1, 13)
        if wps.box_volume(wv, Fraction(n, d)) <= 3000
    })


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(),
       ws=st.lists(st.integers(1, 6), min_size=1, max_size=3))
def test_count_closed_form_matches_enumeration(data, ws):
    wv = WeightVector(tuple(ws))
    b = data.draw(st.sampled_from(_small_bounds(wv)))
    assert wps.count(wv, b) == len(list(wps.enumerate_points(wv, b)))
    assert wps.count_integral(wv, b) == len(list(wps.enumerate_integral(wv, b)))


def test_count_closed_form_frozen_large_height():
    # a box of 10^30 tuples: only the Moebius sum over d <= 1000 can count it
    assert wps.count(W46, 1000, budget=None) == 3996025652278090938348230069350


def test_count_integral_sieves_moebius(monkeypatch):
    # mu comes from one sieve (up to about max M_i^(2/3)) and the Mertens
    # recursion, never from one factorization per d
    def no_factorize(n):
        raise AssertionError(f"count_integral factored {n}")

    monkeypatch.setattr(arith, "factorize", no_factorize)
    assert wps.count_integral(W12, 300, budget=None) == 32853027


def test_count_shares_the_quotient_block_sum(monkeypatch):
    # B = 10^6: a mu table up to B (the walk over every d) is refused; the
    # quotient blocks need one up to about B^(2/3).  With weights (1, 1) the
    # weighted and the plain gcd agree, so both counts must match.
    table = arith.moebius_table

    def small_table(n):
        assert n <= 10**4 + 1, f"mu table up to {n}"
        return table(n)

    monkeypatch.setattr(arith, "moebius_table", small_table)
    got = wps.count(W11, 10**6, budget=None)
    assert got == wps.count_integral(W11, 10**6, budget=None) == 1215854209568


def test_count_integral_quotient_blocks_frozen():
    # max M_i = 9 * 10^6: a sum over every d took 15.9 s and 119 MB; the
    # quotient blocks need O(M^(2/3)) steps and a table of about M^(2/3)
    tracemalloc.start()
    try:
        assert wps.count_integral(W12, 3000, budget=None) == 32831167177
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(ws=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       num=st.integers(1, 400), den=st.integers(1, 3))
def test_count_integral_quotient_blocks_match_sum_over_d(ws, num, den):
    # the Moebius sum over every d <= max M_i, as count_integral took it
    # before the quotient blocks, with boxes too large to enumerate
    wv = WeightVector(tuple(ws))
    Ms = wps.box_cutoffs(wv, Fraction(num, den))
    if max(Ms) > 30_000:
        Ms = wps.box_cutoffs(wv, 1)
        num = den = 1
    mu = arith.moebius_table(max(Ms))
    even = [i for i, a in enumerate(ws) if a % 2 == 0]
    n_all = n_fixed = 0
    for d in range(1, max(Ms) + 1):
        sides = [2 * (m // d) + 1 for m in Ms]
        n_all += mu[d] * (math.prod(sides) - 1)
        n_fixed += mu[d] * (math.prod(sides[i] for i in even) - 1)
    got = wps.count_integral(wv, Fraction(num, den), budget=None)
    assert got == (n_all + n_fixed) // 2


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), ws=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       den=st.integers(1, 6), plain=st.booleans())
def test_moebius_boxes_group_the_sum_over_d(data, ws, den, plain):
    # a per-d list of (mu(d), box), grouped by box: the generator's blocks
    # are those groups in order, with the same mu-sums, and none sums to 0
    wv = WeightVector(tuple(ws))
    b = Fraction(data.draw(st.integers(1, 5 * den)), den)
    exps = (1,) * len(ws) if plain else tuple(ws)
    Ms = wps.box_cutoffs(wv, b)
    mu = arith.moebius_table(max(Ms) + 1)
    sums = {}
    for d in range(1, max(Ms) + 1):
        box = tuple(m // d**e for m, e in zip(Ms, exps))
        if any(box):
            sums[box] = sums.get(box, 0) + mu[d]
    want = [(s, box) for box, s in sums.items() if s]
    got = list(wps.moebius_boxes(wv, b, exps))
    assert got == want
    assert all(s != 0 for s, _ in got)


def test_integral_vs_rational():
    # (2,2) with a=(1,2): wgcd 1 but no gcd-1 representative
    pts = {p.coords for p in wps.enumerate_points(W12, 2)}
    ints = {p.coords for p in wps.enumerate_integral(W12, 2)}
    assert (2, 2) in pts
    assert (2, 2) not in ints
    assert wps.wgcd((2, 2), W12) == 1
    assert math.gcd(2, 2) != 1
    for wv in (W11, W12, W46):
        for b in (1, 2, 3):
            assert wps.count_integral(wv, b) <= wps.count(wv, b)
    # all-1 weights: wgcd == gcd, streams identical
    for b in (1, 2, 3):
        assert list(wps.enumerate_integral(W11, b)) != []
        assert [p.coords for p in wps.enumerate_integral(W11, b)] == [
            p.coords for p in wps.enumerate_points(W11, b)
        ]
    assert wps.count_integral(W46, 1) == 8


def test_budget_guard():
    # count is charged its Moebius blocks and Mertens table, about 2B here,
    # not the box of about 4 B^10 tuples (that enumerate still walks)
    assert wps.count(W46, 1000) == 3996025652278090938348230069350
    with pytest.raises(wps.BudgetExceededError) as exc:
        wps.count(W46, 10**10)
    assert exc.value.volume > exc.value.budget
    with pytest.raises(wps.BudgetExceededError):
        wps.count(W46, 1000, budget=2000)
    wps.count(W46, 1000, budget=2001)
    with pytest.raises(wps.BudgetExceededError):
        list(wps.enumerate_points(W46, 40))
    with pytest.raises(wps.BudgetExceededError):
        list(wps.enumerate_points(W11, 10, budget=10))
    # budget=None disables the guard
    assert wps.count(W11, 10, budget=None) > 0


def test_sign_canon_rules():
    assert wps.is_sign_canonical((3, -7), W12)
    assert not wps.is_sign_canonical((-3, 7), W12)
    assert wps.sign_canonical((-3, 7), W12) == (3, 7)
    # all-even weights: -1 acts trivially, nothing to canonicalize
    assert wps.is_sign_canonical((-1, -1), W46)
    # odd slot zero: next odd-weight coordinate governs
    w123 = WeightVector((2, 1))
    assert wps.sign_canonical((5, -3), w123) == (5, 3)


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        wps.normalize((0, 0), W46)
