"""The smooth-only census path: the singular finder against a per-tuple
discriminant scan of the box, the quadratic isqrt test against divisor
enumeration, and the genus-1 smooth totals against the closed form of the
singular locus at heights no enumeration reaches."""

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from test_column_kernel import _two_torsion_columns
from wpsieve import arith, covers, hyperelliptic as hyp, wps

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# Per genus, the largest box drawn: its cutoffs, one per coordinate.  The
# scan costs one discriminant per tuple, so the boxes stay small.
_MAX_BOX = {1: (30, 60), 2: (3, 4, 5, 8), 3: (1, 2, 2, 2, 3, 3)}


def _scan(g, Ms, x0):
    return {
        x
        for x in itertools.product(x0, *(range(-m, m + 1) for m in Ms[1:]))
        if hyp._disc_poly(hyp._poly_from_coords(g, x)) == 0
    }


@SETTINGS
@given(data=st.data(), g=st.sampled_from((1, 2, 3)))
def test_singular_block_matches_scan(data, g):
    # the finder on one window of x_0 values inside the box, as map_chunks
    # hands it out, and on the whole box
    Ms = tuple(data.draw(st.integers(0, m)) for m in _MAX_BOX[g])
    lo = data.draw(st.integers(-Ms[0], Ms[0]))
    x0 = range(lo, data.draw(st.integers(lo, Ms[0])) + 1)
    assert hyp._singular_tuples(g, Ms, x0) == _scan(g, Ms, x0)
    box = range(-Ms[0], Ms[0] + 1)
    assert hyp._singular_tuples(g, Ms, box) == _scan(g, Ms, box)


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


def test_singular_two_torsion_columns_match_integer_roots():
    # the census decides two-torsion on the singular tuples by
    # covers.has_integer_root; the column oracle agrees, exact as every
    # |y| <= m.  At genus 3 some singular f have no integer root, such as
    # (t^2 + 1)^2 (t^3 - t + 1)
    Ms = wps.box_cutoffs(hyp.moduli_weights(3), Fraction(9, 8))
    singular = sorted(hyp._singular_tuples(3, Ms, range(-Ms[0], Ms[0] + 1)))
    S = np.array(singular, dtype=np.int64)
    keep = (_two_torsion_columns(S[:, :-1], Ms[-1]) == S[:, -1:]).any(axis=1)
    assert keep.tolist() == [covers.has_integer_root(hyp._poly_from_coords(3, x))
                             for x in singular]
    assert 0 < keep.sum() < len(singular)
    assert (1, 1, -1, 2, -1, 1) in singular
    assert not covers.has_integer_root(hyp._poly_from_coords(3, (1, 1, -1, 2, -1, 1)))


def test_genus3_smooth_thin_drops_the_singular_members():
    wv, grid = hyp.moduli_weights(3), [1, Fraction(9, 8)]
    full, smooth = hyp.census(3, grid), hyp.census(3, grid, smooth_only=True)
    top = wps.box_cutoffs(wv, grid[-1])
    singular = hyp._singular_tuples(3, top, range(-top[0], top[0] + 1))
    for row, smooth_row in zip(full.rows, smooth.rows):
        Ms = wps.box_cutoffs(wv, row.bound)
        members = [x for x in singular
                   if any(x) and all(abs(v) <= m for v, m in zip(x, Ms))
                   and wps.wgcd(x, wv) == 1
                   and covers.has_integer_root(hyp._poly_from_coords(3, x))]
        assert smooth_row.thin == row.thin - len(members)
