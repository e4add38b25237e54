"""The smooth-only census path: the singular-tuple lister (the oracle of the
square-factor counter) against a per-tuple discriminant scan of the box,
the counter (hyperelliptic._singular) and its irreducibles against the
lister and a brute-force factor search, the quadratic isqrt test against
divisor enumeration, and the genus-1 smooth totals against the closed form
of the singular locus at heights no enumeration reaches."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_column_kernel import _nested, _two_torsion_columns
from wpsieve import arith, covers, hyperelliptic as hyp, wps

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# Per genus, the largest box drawn: its cutoffs, one per coordinate.  The
# scan costs one discriminant per tuple, so the boxes stay small.
_MAX_BOX = {1: (30, 60), 2: (3, 4, 5, 8), 3: (1, 2, 2, 2, 3, 3)}


def _singular_tuples(g, Ms, x0):
    """Every tuple of the box |x_i| <= Ms[i] with x_0 in the range x0 whose
    curve polynomial f has a repeated root, by listing: the oracle of the
    square-factor counter (hyperelliptic._singular).

    Then f = q^2 h, q and h monic in Z[t] (Gauss's lemma), k = deg q in 1..g.
    With coefficients from the top, c_s of t^{n-s} (n = 2g+1), c_1 = 0 gives
    h_1 = -2 q_1 and c_s = x_{s-2} must lie in its window.  For k < g, q comes
    from the root box |q_j| <= C(k, j) R^j (R = _root_window + 1), each h_s
    enters c_s with slope 1 and h's constant term enters c_s, s >= deg h,
    with slope P_{s - deg h} (P = q^2): one interval.  For k = g only q_1
    comes from the box, and q_s enters c_s with slope 2.  An f with several
    repeated factors is found once per q, and kept once."""
    n = 2 * g + 1
    lo, hi = [0, 0, x0.start, *(-m for m in Ms[1:])], [0, 0, x0.stop - 1, *Ms[1:]]  # c_s's window
    found = set()

    def walk(k, q, h, cs):
        m, s = n - 2 * k, len(cs) + 2
        P = hyp._mul(q, q).tolist()
        c = hyp._mul(P, h + [0] * n).tolist()  # c_j over the known coefficients
        a = 2 if len(q) == s <= k else 1 if len(h) == s < m else 0  # q_s or h_s enters c_s
        if a:
            for v in range(-((c[s] - lo[s]) // a), (hi[s] - c[s]) // a + 1):
                walk(k, [*q, v] if a == 2 else q, h if a == 2 else [*h, v], [*cs, c[s] + a * v])
        elif len(h) == s == m:  # h_m = v: c_j = P_{j-m} v + c[j] for j = m..n
            vlo, vhi = lo[m] - c[m], hi[m] - c[m]  # P_0 = 1
            for p, K, l, u in zip(P[1:], c[m + 1:], lo[m + 1:], hi[m + 1:]):
                if p:
                    e1, e2 = (l - K, u - K) if p > 0 else (u - K, l - K)
                    vlo, vhi = max(vlo, -(-e1 // p)), min(vhi, e2 // p)
                elif not l <= K <= u:
                    return
            for v in range(vlo, vhi + 1):
                found.add((*cs, *(p * v + K for p, K in zip(P, c[m:n + 1]))))
        elif s > n:
            found.add(tuple(cs))
        elif lo[s] <= c[s] <= hi[s]:
            walk(k, q, h, [*cs, c[s]])

    R = hyp._root_window(Ms) + 1
    for k in range(1, g + 1):
        caps = [math.comb(k, j) * R**j for j in range(1, (k if k < g else 1) + 1)]
        for head in itertools.product(*(range(-c, c + 1) for c in caps)):
            walk(k, [1, *head], [1, -2 * head[0]], [])
    return found


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
    assert _singular_tuples(g, Ms, x0) == _scan(g, Ms, x0)
    box = range(-Ms[0], Ms[0] + 1)
    assert _singular_tuples(g, Ms, box) == _scan(g, Ms, box)


# Per genus, the largest cutoffs of the nested boxes the counter is checked on
_MAX_CUTS = {1: (30, 60), 2: (3, 4, 5, 8), 3: (1, 2, 2, 2, 3, 3), 4: (2,) * 8}


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data(), g=st.sampled_from((1, 2, 3, 4)))
def test_square_factor_counter_matches_lister(data, g):
    # per nested box, the counter's singular tuples and those with an integer
    # root (for two-torsion), against the lister's tuples of the top box
    boxes = _nested(data.draw(st.lists(st.tuples(*(st.integers(0, m) for m in _MAX_CUTS[g])),
                                       min_size=1, max_size=3)))
    top = boxes[-1]
    singular = _singular_tuples(g, top, range(-top[0], top[0] + 1))
    want_sing, want_thin = [], []
    for box in boxes:
        inside = [x for x in singular if any(x) and all(abs(v) <= m for v, m in zip(x, box))]
        want_sing.append(len(inside))
        want_thin.append(sum(covers.has_integer_root(hyp._poly_from_coords(g, x)) for x in inside))
    for thin, want in (("two-torsion", want_thin), ("disc-square", want_sing),
                       ("none", [0] * len(boxes))):
        sing, accepted = hyp._singular(boxes, thin)
        assert (list(sing), list(accepted)) == (want_sing, want), thin


def _divides(a, q):
    """Whether the monic a divides q (ascending coefficients), by long division."""
    r = list(q)
    for i in range(len(q) - len(a), -1, -1):
        c = r[i + len(a) - 1]
        for j, x in enumerate(a):
            r[i + j] -= c * x
    return not any(r)


def _has_factor(q):
    """Whether the monic q has a monic factor a of degree 1..deg(q)/2: t when
    q(0) = 0, else a(0) divides q(0), and as q's roots lie within
    H = 1 + max |q_i| (Cauchy), a's coefficient of t^i within C(e, i) H^{e-i}."""
    d, H = len(q) - 1, 1 + max(map(abs, q[:-1]))
    if q[0] == 0:
        return d > 1
    heads = [s * v for v in arith.divisors(abs(q[0])) for s in (1, -1)]
    return any(_divides([*a, 1], q) for e in range(1, d // 2 + 1)
               for a in itertools.product(heads, *(range(-math.comb(e, i) * H ** (e - i),
                                                         math.comb(e, i) * H ** (e - i) + 1)
                                                   for i in range(1, e))))


@pytest.mark.parametrize("g, Ms", [
    (1, (16, 64)), (2, (3, 4, 5, 8)), (2, (5, 7, 9, 12)), (3, (1, 2, 2, 2, 3, 3)), (4, (1,) * 8)])
def test_irreducibles_match_factor_search(g, Ms):
    # every irreducible of each degree's box is kept, and a reducible q kept
    # (its factors outside their boxes) has q^2 dividing no f of the box
    *lower, top = hyp._irreducibles(Ms)
    kept = [*lower, np.vstack([*top])]
    assert len(kept) == g
    for cs, rows in zip(hyp._factor_caps(Ms), kept):
        box = {(*q, 1) for q in itertools.product(*(range(-c, c + 1) for c in cs))}
        got = {tuple(q) for q in rows.tolist()}
        irreducible = {q for q in box if not _has_factor(q)}
        assert irreducible <= got <= box
        for q in got - irreducible:
            assert hyp._divisible([hyp._mul(q, q)[:-1]], [Ms]).tolist() == [[0]], q


@pytest.mark.parametrize("bound, singular, rooted", [
    (Fraction(5, 4), 15134, 15080), (Fraction(3, 2), 4421924, 4419646)])
def test_genus3_singular_columns_frozen(bound, singular, rooted):
    # the lister's values: the singular column is the total less the smooth
    # total, and its integer-root part the thin count less the smooth one
    full, smooth = hyp.census(3, [bound]).rows[0], hyp.census(3, [bound], smooth_only=True).rows[0]
    assert (full.total - smooth.total, full.thin - smooth.thin) == (singular, rooted)


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
    singular = sorted(_singular_tuples(3, Ms, range(-Ms[0], Ms[0] + 1)))
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
    singular = _singular_tuples(3, top, range(-top[0], top[0] + 1))
    for row, smooth_row in zip(full.rows, smooth.rows):
        Ms = wps.box_cutoffs(wv, row.bound)
        members = [x for x in singular
                   if any(x) and all(abs(v) <= m for v, m in zip(x, Ms))
                   and wps.wgcd(x, wv) == 1
                   and covers.has_integer_root(hyp._poly_from_coords(3, x))]
        assert smooth_row.thin == row.thin - len(members)
