"""The smooth-only census path: the block singular finder, its polynomial
in y mod p and its root finder against brute force and exact resultants,
the quadratic isqrt test against divisor enumeration, and the genus-1 smooth
totals against the closed form of the singular locus at heights no
enumeration reaches."""

import numpy as np
from hypothesis import given, settings, strategies as st

from wpsieve import arith, covers, hyperelliptic as hyp, wps

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# (genus, prefix box): small boxes that contain the zero prefix and prefixes
# divisible by 3, whose resultant polynomials have content > 1 (for g = 1,
# Res = 27 y^2 + 4 a^3 has content 27 when 3 | a).
_PREFIX_BOX = {1: (12,), 2: (3, 4, 6), 3: (1, 2, 2, 3, 3)}


@st.composite
def _blocks(draw, g):
    box = _PREFIX_BOX[g]
    coord = [st.integers(-m, m) for m in box]
    rows = draw(st.lists(st.tuples(*coord), min_size=1, max_size=5))
    if draw(st.booleans()):
        rows.append((0,) * len(box))
    if draw(st.booleans()):
        rows.append(tuple(3 * draw(st.integers(-(m // 3), m // 3)) for m in box))
    return rows


def _scan(g, prefix, bound):
    return [
        y
        for y in range(-bound, bound + 1)
        if hyp._disc_poly(hyp._poly_from_coords(g, (*prefix, y))) == 0
    ]


@SETTINGS
@given(data=st.data(), g=st.sampled_from((1, 2, 3)), two_primes=st.booleans())
def test_singular_block_matches_scan(data, g, two_primes):
    block = data.draw(_blocks(g))
    # windows of at most 101 values are filtered mod 101 alone, wider ones
    # mod 101 and 103 with CRT
    bound = data.draw(st.integers(51, 90) if two_primes else st.integers(0, 50))
    got = hyp._singular_block(g, block, bound)
    assert got == [_scan(g, prefix, bound) for prefix in block]


def test_singular_block_hits_both_paths_with_content():
    # a = -3: the cusp family (-3m^2, +-2m^3) at m = 1 has singular y = +-2;
    # a = -12 (content 27) at m = 2 has y = +-16; a = 0 gives y = 0.  The
    # window at bound 20 takes one filter prime, at bound 500 two.
    block = [(-3,), (-12,), (0,), (1,)]
    for bound in (20, 500):
        assert hyp._singular_block(1, block, bound) == [[-2, 2], [-16, 16], [0], []]


@SETTINGS
@given(
    roots=st.lists(st.integers(-400, 400), min_size=1, max_size=3),
    scale=st.integers(1, 60),
    shift=st.integers(-5, 5),
    bound=st.integers(0, 300),
)
def test_integer_roots_block_with_content(roots, scale, shift, bound):
    # rows scale * prod (y - r) (+ shift, to also test rows without roots)
    rows, want = [], []
    for k in range(1, len(roots) + 1):
        R = [scale]
        for r in roots[:k]:
            R = [a - r * b for a, b in zip([0, *R], [*R, 0])]
        R[0] += shift
        rows.append(R + [0] * (len(roots) + 1 - len(R)))
        want.append([y for y in range(-bound, bound + 1) if covers.poly_eval(R, y) == 0])
    R = np.array(rows, dtype=object)
    got = hyp._integer_roots_block(
        lambda p: (R % p).astype(np.int64),
        bound,
        lambda i, y: covers.poly_eval(rows[i], y) == 0,
    )
    assert got == want


@SETTINGS
@given(
    g=st.sampled_from((1, 2, 3)),
    data=st.data(),
    size=st.sampled_from((5, 10**4, 10**30)),
)
def test_res_poly_mod_matches_resultants(g, data, size):
    # R mod p has degree 2g in y, so 2g + 1 values of y pin it down
    coord = st.integers(-size, size)
    block = data.draw(st.lists(st.tuples(*[coord] * (2 * g - 1)), min_size=1, max_size=4))
    X = np.array(block, dtype=object)
    for p in (101, 103):
        R = hyp._res_poly_mod(g, X, p)
        assert R.shape == (len(block), 2 * g + 1) and R.dtype == np.int64
        for prefix, row in zip(block, R.tolist()):
            base = hyp._poly_from_coords(g, (*prefix, 0))
            dfdt = hyp._derivative(base)
            for y in range(-g, g + 1):
                want = hyp.resultant([y, *base[1:]], dfdt) % p
                assert covers.poly_eval(row, y) % p == want, (prefix, y, p)


def _divisor_oracle(poly):
    c0 = poly[0]
    if c0 == 0:
        return True
    return any(
        covers.poly_eval(poly, s * d) == 0
        for d in arith.divisors(abs(c0))
        for s in (1, -1)
    )


@SETTINGS
@given(
    bc=st.one_of(
        st.tuples(st.integers(-10**4, 10**4), st.integers(-10**6, 10**6)),
        st.tuples(st.integers(-999, 999).map(lambda b: 2 * b + 1), st.just(0)),
        st.builds(lambda r, s: (-(r + s), r * s),
                  st.integers(-3000, 3000), st.integers(-3000, 3000)),
        st.builds(lambda b, k: (b, b * b // 4 + k),  # negative discriminant
                  st.integers(-500, 500), st.integers(1, 10**5)),
    )
)
def test_has_integer_root_quadratic_matches_divisors(bc):
    b, c = bc
    poly = [c, b, 1]
    assert covers.has_integer_root(poly) == _divisor_oracle(poly)


def test_has_integer_root_quadratic_examples():
    assert covers.has_integer_root([6, -5, 1])  # (t-2)(t-3)
    assert covers.has_integer_root([0, 7, 1])  # c = 0, b odd
    assert not covers.has_integer_root([1, 1, 1])  # disc -3
    assert not covers.has_integer_root([-2, 0, 1])  # t^2 - 2
    assert covers.has_integer_root([-6, 1, 1])  # (t+3)(t-2), b odd


def _g1_singular_points(bound):
    # disc(t^3 + a t + y) = -(4 a^3 + 27 y^2) vanishes exactly at
    # (a, y) = (-3 m^2, +-2 m^3); both signs are points (weights 4, 6 even).
    wv = hyp.moduli_weights(1)
    M0, M1 = wps.box_cutoffs(wv, bound)
    n, m = 0, 1
    while 3 * m * m <= M0 and 2 * m**3 <= M1:
        n += 2 * (wps.wgcd((-3 * m * m, 2 * m**3), wv) == 1)
        m += 1
    return n


def test_g1_smooth_census_matches_singular_locus():
    grid = [2, 3, 4, 5, 6, 7, 12]
    wv = hyp.moduli_weights(1)
    table = hyp.census(1, grid, thin="none", smooth_only=True)
    for row in table.rows:
        want = wps.count(wv, row.bound, budget=None) - _g1_singular_points(row.bound)
        assert row.total == want, row.bound
    totals = dict(zip(grid, table.column("total")))
    assert totals[7] == 1129015132
    assert totals[12] == 247429284362
