"""The disc-square census lister against an isqrt oracle, and frozen census values."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wpsieve import arith, hyperelliptic as hyp, wps

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def isqrt_members(x0: range, m: int) -> list[tuple[int, int]]:
    """(x_0, x_1) with x_0 in x0, |x_1| <= m, not both 0, and -4 x_0^3 - 27 x_1^2
    a square: every x_1 with 27 x_1^2 <= 4 n^3 (x_0 = -n) tried by isqrt."""
    out = []
    for x in x0:
        if x > 0:
            continue
        n3 = -4 * x**3
        r = min(m, math.isqrt(n3 // 27))
        y = np.arange(-r, r + 1, dtype=np.int64)
        v = n3 - 27 * y * y
        s = np.floor(np.sqrt(v.astype(float))).astype(np.int64)
        s += (s + 1) * (s + 1) <= v  # exact isqrt: v < 2^53, so one step either way
        s -= s * s > v
        out += [(x, t) for t in y[s * s == v].tolist() if (x, t) != (0, 0)]
    return out


def _x0_ranges(m0):
    whole = range(-m0, m0 + 1)
    pieces = wps._chunk_ranges(m0)
    return [whole, pieces[0], pieces[len(pieces) // 2], pieces[-1],
            range(-m0, -m0 // 3), range(-m0 // 2, 3), range(5, m0 + 1)]


@pytest.mark.parametrize("m0, m1", [(16, 64), (81, 729), (256, 4096), (300, 50), (625, 15625)])
def test_lister_matches_isqrt_oracle(m0, m1):
    for x0 in _x0_ranges(m0):
        got = hyp._disc_square_members(x0, m1)
        assert len(set(got)) == len(got)
        assert sorted(got) == sorted(isqrt_members(x0, m1)), (m0, m1, x0)


@SETTINGS
@given(m0=st.integers(0, 400), m1=st.integers(0, 3000), data=st.data())
def test_lister_matches_isqrt_oracle_random_boxes(m0, m1, data):
    lo = data.draw(st.integers(-m0, m0))
    x0 = range(lo, data.draw(st.integers(lo, m0 + 1)))
    got = hyp._disc_square_members(x0, m1)
    assert len(set(got)) == len(got)
    assert sorted(got) == sorted(isqrt_members(x0, m1))


def test_split_prime_is_x2_plus_3y2():
    for p in arith.primes_up_to(20_000):
        if p % 3 == 1:
            x, y = hyp._split_prime(p)
            assert x * x + 3 * y * y == p and x > 0 and y > 0, p


@pytest.mark.parametrize("grid, want", [
    ([3, 4, 5], [(237556, 134), (4198676, 491), (39055718, 1318)]),  # the pointwise census
    ([12], [(247429284466, 61781)]),
])
def test_disc_square_census_frozen(grid, want):
    table = hyp.census(1, grid, thin="disc-square")
    assert [(r.total, r.thin) for r in table.rows] == want


def test_smooth_only_drops_exactly_the_singular_column():
    # D = 0 on a singular genus-1 tuple, a square: each one is a member
    grid = [1, Fraction(3, 2), 2, Fraction(5, 2), 3]
    full = hyp.census(1, grid, thin="disc-square")
    smooth = hyp.census(1, grid, thin="disc-square", smooth_only=True)
    singular = [r.total - s.total for r, s in zip(full.rows, smooth.rows)]
    assert singular == [a.total - b.total for a, b in zip(
        hyp.census(1, grid, thin="none").rows, hyp.census(1, grid, thin="none", smooth_only=True).rows)]
    assert [r.thin - s.thin for r, s in zip(full.rows, smooth.rows)] == singular
    assert (smooth.rows[-1].total, smooth.rows[-1].thin) == (237548, 126)


@pytest.mark.parametrize("smooth_only", [False, True])
def test_disc_square_workers_agree_across_chunks(smooth_only):
    # x0 runs over [-625, 625] at B = 5, cut into wps._CHUNKS pieces
    grid = [2, 3, 4, 5]
    one = hyp.census(1, grid, thin="disc-square", smooth_only=smooth_only, workers=1)
    two = hyp.census(1, grid, thin="disc-square", smooth_only=smooth_only, workers=2)
    assert one.rows == two.rows
    if not smooth_only:
        assert one.rows[-1].thin == 1318
