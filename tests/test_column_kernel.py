"""Property tests of the census's two-torsion counters: the divisor counter
(hyperelliptic._divisible) against a remainder loop, the root-set count
(hyperelliptic._root_sets) and the genus-1 closed form
(hyperelliptic._genus1_two_torsion) against the column oracle
_two_torsion_columns; and of that oracle, the exact root window, the scalar
Cover.column_members and the census's level counter, against brute force,
the scalar Fujiwara-width t-scan and a loop over members and cutoffs."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wpsieve import arith, covers, hyperelliptic as hyp
from wpsieve.wps import box_cutoffs, moebius_boxes

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# c_0 = -x_2 (s = -1) and a multi-term c_1, over weights (1, 2, 6)
COVER_FILE = (
    "weights 1,2,6\n"
    "aux-weight 2\n"
    "degree 3\n"
    "c 2 1:2,0,0 -1:0,1,0\n"
    "c 1 2:4,0,0 -3:0,2,0 1:2,1,0\n"
    "c 0 -1:0,0,1\n"
)


def _two_torsion_columns(X: np.ndarray, m: int) -> np.ndarray:
    """The two-torsion members over a block of prefixes X (int64 or Python
    ints), one row per prefix: the column kernel the census ran at genus
    >= 2 before it counted root sets, kept as their oracle.

    f(t) = t^{2g+1} + x_0 t^{2g-1} + ... + x_{2g-2} t + y has the integer root
    t exactly when y = -t (t^{2g} + x_0 t^{2g-2} + ... + x_{2g-2}), and then
    |y| <= m needs |t| <= T, the block's root window.  Row i of the result
    holds those values for |t| <= T, by Horner over the columns of X, sorted,
    with each repeat of the value before it overwritten by m + 1; so the
    members of row i are its entries with |y| <= m, each once.  Arrays are
    int32 (int64) while m + 1 and every value and Horner intermediate stay
    below 2^31 (2^63), and Python ints otherwise, exact at any height.
    """
    cmax = np.abs(X).max(axis=0, initial=0).tolist()  # a block may have no row
    T = hyp._root_window([*cmax, m])
    reach = T ** (len(cmax) + 2) + sum(c * T**j for j, c in enumerate(reversed(cmax), start=1))
    dtype = hyp._exact_dtype(max(reach, m + 1))
    X, t = X.astype(dtype), np.arange(-T, T + 1).astype(dtype)
    ys = t * t + X[:, :1]
    for i in range(1, X.shape[1]):
        ys *= t
        ys += X[:, i: i + 1]
    ys *= -t
    ys.sort(axis=1)
    np.putmask(ys[:, 1:], ys[:, 1:] == ys[:, :-1], m + 1)
    return ys


def scalar_column_members(cover, prefix, bound):
    """A scalar scan over the row's own Fujiwara window: every t with
    |t| <= T, one t at a time."""
    s = cover.column_solver()
    coords0 = tuple(prefix) + (0,)
    cj = [form.evaluate(coords0) if form else 0 for form in cover.coeffs[1:]]
    tmax = arith.iroot(bound, cover.degree) + 1
    for j, c in enumerate(cj, start=1):
        if c:
            tmax = max(tmax, arith.iroot(abs(c), cover.degree - j) + 1)
    tmax = 2 * tmax + 1
    ys = set()
    for t in range(-tmax, tmax + 1):
        y = -s * (t**cover.degree + sum(c * t**j for j, c in enumerate(cj, start=1)))
        if abs(y) <= bound:
            ys.add(y)
    return sorted(ys)


def brute_column_members(cover, prefix, bound):
    return [
        y for y in range(-bound, bound + 1)
        if covers.has_integer_root(cover.poly_at(tuple(prefix) + (y,)))
    ]


def _blocks(cmaxes, pas):
    """Blocks of prefixes with |x_i| <= cmaxes[i], mixing in the zero prefix
    and prefixes with p^{a_i} | x_i in every slot (pas[i] = p^{a_i})."""
    plain = st.tuples(*[st.integers(-m, m) for m in cmaxes])
    divisible = st.tuples(*[st.integers(-(m // q), m // q).map(lambda k, q=q: k * q)
                            for m, q in zip(cmaxes, pas)])
    row = st.one_of(plain, divisible, st.just((0,) * len(cmaxes)))
    return st.lists(row, min_size=1, max_size=8)


def _check_block(g, block, bound, reference):
    # the exact window loses no member: the block kernel equals the
    # reference and the scan over each row's Fujiwara window
    cover = covers.two_torsion_cover(g)
    ys = _two_torsion_columns(np.array(block, dtype=np.int64), bound)
    for i, prefix in enumerate(block):
        got = ys[i][abs(ys[i]) <= bound].tolist()
        assert got == reference(cover, prefix, bound), prefix
        assert got == scalar_column_members(cover, prefix, bound), prefix
    cmax = [max(abs(p[k]) for p in block) for k in range(len(block[0]))]
    assert ys.shape[1] == 2 * hyp._root_window([*cmax, bound]) + 1
    return ys


@SETTINGS
@given(block=_blocks((40,), (16,)), bound=st.integers(0, 300))
def test_block_matches_brute_force_genus1(block, bound):
    _check_block(1, block, bound, brute_column_members)


@SETTINGS
@given(block=_blocks((16, 64, 256), (16, 64, 256)), bound=st.integers(0, 40))
def test_block_matches_brute_force_genus2(block, bound):
    _check_block(2, block, bound, brute_column_members)


@SETTINGS
@given(block=_blocks((16, 64, 256, 1024, 4096), (16, 64, 256, 1024, 4096)),
       bound=st.integers(0, 60))
def test_block_matches_brute_force_genus3(block, bound):
    # five prefix columns: the longest Horner the census runs
    _check_block(3, block, bound, brute_column_members)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(block=_blocks((50, 50, 50), (16, 64, 256)), bound=st.integers(2**63, 2**66))
def test_block_past_int64_matches_scalar_scan(block, bound):
    # T^5 alone passes 2^63 here, so the kernel must run on Python ints
    ys = _check_block(2, block, bound, scalar_column_members)
    assert ys.dtype == object and type(ys[0, 0]) is int


@pytest.mark.parametrize("bound, dtype", [
    (1000, np.int32), (2**31 - 2**27, np.int32), (2**31 - 1, np.int64), (2**31, np.int64),
    (2**40, np.int64), (2**64, object)])
def test_block_dtype_ladder_matches_scalar_scan(bound, dtype):
    # int32 while bound + 1 (the value that overwrites a repeat) and every
    # value stay below 2^31, then int64, then Python ints
    ys = _check_block(2, [(0, 0, 0), (-3, 5, 7), (3, -4, 1)], bound, scalar_column_members)
    assert ys.dtype == dtype


@SETTINGS
@given(prefix=st.tuples(st.integers(-5, 5), st.integers(-5, 5)), bound=st.integers(0, 120))
def test_column_members_matches_brute_force_cover_file(tmp_path_factory, prefix, bound):
    # c_0 = -x_2 and a multi-term c_1: the scalar scan of any solvable cover
    path = tmp_path_factory.getbasetemp() / "cover.txt"
    path.write_text(COVER_FILE)
    cover = covers.load_cover_file(path)
    assert cover.column_solver() == -1
    got = cover.column_members(prefix, bound)
    assert got == brute_column_members(cover, prefix, bound)
    assert got == scalar_column_members(cover, prefix, bound)


@SETTINGS
@given(deg=st.integers(2, 7), bound=st.integers(0, 3000),
       cmax=st.lists(st.integers(0, 300), min_size=6, max_size=6),
       signs=st.lists(st.sampled_from((-1, 1)), min_size=7, max_size=7))
def test_root_window_is_the_largest_small_t(deg, bound, cmax, signs):
    # up to the Cauchy bound 1 + max |coefficient|, t^deg - sum cmax_j t^j
    # <= bound holds exactly for t <= T, and every complex root of a
    # polynomial with those coefficient bounds lies within T + 1
    cmax = cmax[: deg - 1]
    tmax = covers.root_window(deg, bound, cmax)
    small = [t**deg - sum(c * t**j for j, c in enumerate(cmax, start=1)) <= bound
             for t in range(max(bound, *cmax, 0) + 2)]
    assert small == [t <= tmax for t in range(len(small))]
    coeffs = [1, *(s * c for s, c in zip(signs, reversed(cmax))), signs[-1] * bound]
    assert max(abs(np.roots(coeffs)), default=0) <= (tmax + 1) * (1 + 1e-9)


def test_root_window_past_float_range():
    # t^3 - t <= 10^60 + 5 up to t = 10^20 exactly
    assert covers.root_window(3, 10**60 + 5, [1, 0]) == 10**20
    assert covers.root_window(3, 10**60 - 1, [0, 0]) == 10**20 - 1


def test_column_members_needs_a_separated_constant_term():
    cover = covers.disc_square_cover_g1()  # constant term -D(x), two terms
    assert cover.column_solver() is None
    with pytest.raises(ValueError):
        cover.column_members((1,), 10)


def test_column_members_is_the_one_row_kernel():
    for g, prefix in ((1, (-7,)), (1, (0,)), (1, (5,)), (2, (3, -4, 1)), (3, (1, 0, -2, 5, 0))):
        cover = covers.two_torsion_cover(g)
        got = cover.column_members(prefix, 200)
        ys = _two_torsion_columns(np.array([prefix], dtype=np.int64), 200)
        assert got == ys[0][abs(ys[0]) <= 200].tolist() == scalar_column_members(cover, prefix, 200)
        assert all(type(y) is int for y in got)


def _whole(X, ys):
    """The whole tuples (X[i], y) for every y in row i of ys."""
    return np.column_stack([np.repeat(X, ys.shape[1], axis=0), ys.reshape(-1, 1)])


@SETTINGS
@given(data=st.data(), g=st.sampled_from((1, 2)), smooth=st.booleans(),
       dtype=st.sampled_from((np.int64, object)))
def test_count_levels_matches_member_loop(data, g, smooth, dtype):
    # the census's level counter, on a block's singular tuples and on its
    # column members, int64 or Python ints, against a loop over members and
    # cutoffs; it drops only the zero tuple, so the members of prefixes with
    # 2^{a_i} | x_i count too (the census inverts the weighted gcd by Moebius)
    wv = hyp.moduli_weights(g)
    cutoffs = [box_cutoffs(wv, b) for b in (1, Fraction(3, 2), 2)]
    last = len(wv) - 1
    Ms = cutoffs[-1]
    block = list(dict.fromkeys(data.draw(_blocks(Ms[:-1], [2**a for a in wv.weights[:-1]]))))
    cover = covers.two_torsion_cover(g)
    singular = hyp._singular_tuples(g, Ms, range(-Ms[0], Ms[0] + 1)) if smooth else set()
    sings = []
    want_sing, want_thin = [0] * len(cutoffs), [0] * len(cutoffs)
    for prefix in block:
        j0 = next(j for j, c in enumerate(cutoffs)
                  if all(abs(x) <= cm for x, cm in zip(prefix, c)))
        sing = sorted(x[last] for x in singular if x[:last] == prefix)
        members = [y for y in cover.column_members(prefix, Ms[last]) if y not in sing]
        sings.append(sing)
        for ys, want in ((sing, want_sing), (members, want_thin)):
            for y in ys:
                if not any((*prefix, y)):
                    continue
                for j in range(j0, len(cutoffs)):
                    if abs(y) <= cutoffs[j][last]:
                        want[j] += 1
    # a row is padded, and a singular member taken out, with Ms[last] + 1:
    # past every box, so the counter never counts it
    X, cut = np.array(block, dtype=dtype), np.array(cutoffs, dtype=dtype)
    S = np.full((len(sings), max(1, *map(len, sings))), Ms[last] + 1, dtype=dtype)
    for i, sing in enumerate(sings):
        S[i, : len(sing)] = sing
    got_sing = hyp._count_levels(_whole(X, S), cut).cumsum().tolist()
    ys = _two_torsion_columns(X, Ms[last]).astype(dtype)
    for i, sing in enumerate(sings):
        for y in sing:
            ys[i][ys[i] == y] = Ms[last] + 1
    got_thin = hyp._count_levels(_whole(X, ys), cut).cumsum().tolist()
    assert (got_sing, got_thin) == (want_sing, want_thin)


def _outer_cells(Q, box):
    """The outer cells _divisible sums for a batch Q of one degree k: the
    coordinates x_0..x_{2g-2-k} of the top box."""
    return len(Q) * math.prod(2 * m + 1 for m in box[: max(0, len(box) - 1 - len(Q[0]))])


@pytest.mark.parametrize("g, grid", [(1, [2, 3]), (2, [1, Fraction(5, 4)])])
def test_census_charges_the_elements_built(monkeypatch, g, grid):
    # the budget is at least what the census builds
    wv = hyp.moduli_weights(g)
    built = []
    if g == 1:  # the closed form: its root-pair cells, one t-window row per box
        blocks = hyp.prefix_blocks

        def spy(ranges, row_bytes):
            for X in blocks(ranges, row_bytes):
                built.append(len(X))
                yield X

        monkeypatch.setattr(hyp, "prefix_blocks", spy)
        boxes = {box for b in grid for _, box in moebius_boxes(wv, b, wv)}
        built.append(len(boxes) * hyp._root_window(max(boxes)))
        charged = hyp._census_work(wv, grid, "two-torsion", False, len(boxes))
    else:  # the root sets: each batch's outer cells
        divisible = hyp._divisible

        def spy(Q, boxes):
            built.append(_outer_cells(Q, boxes[-1]))
            return divisible(Q, boxes)

        monkeypatch.setattr(hyp, "_divisible", spy)
        charged = hyp._census_work(wv, grid, "two-torsion", False)
    hyp.census(g, grid)
    assert 0 < sum(built) <= charged


def _divisible_loop(g, q, box):
    """#{x in box : Q | f_x} for Q = t^k + q[k-1] t^{k-1} + ... + q[0], by a
    loop over the free coefficients c_d of f, k <= d < 2g+1 (c_{2g} = 0):
    f is 0 mod Q exactly when its lower coefficients are minus the remainder
    of its free part, so x is counted when those fit the box."""
    n, k, Q = 2 * g + 1, len(q), [*q, 1]
    cut = [*reversed(box), 0]  # by degree
    count = 0
    for free in itertools.product(*(range(-cut[d], cut[d] + 1) for d in range(k, n))):
        rem = [0] * k + [*free, 1]
        for d in range(n, k - 1, -1):  # long division by the monic Q
            c, rem[d] = rem[d], 0
            for j in range(k):
                rem[d - k + j] -= c * Q[j]
        count += all(abs(rem[j]) <= cut[j] for j in range(k))
    return count


def _nested(boxes):
    """Nested boxes from any boxes: running maxima, repeats dropped."""
    return list(dict.fromkeys(itertools.accumulate(boxes, lambda a, b: tuple(map(max, a, b)))))


@st.composite
def _divisors(draw, k):
    """Monic Q of degree k, as their k lower coefficients: any small ones
    (zero, negative, at degree 2g+1 a nonzero t^{2g} term) or a product of
    k linear factors t - r."""
    def from_roots(rs):
        P = [1]
        for r in rs:
            P = hyp._mul(P, [-r, 1])
        return P[:-1]
    coeffs = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    roots = st.lists(st.integers(-2, 2), min_size=k, max_size=k).map(from_roots)
    return draw(st.lists(st.one_of(coeffs, roots), min_size=1, max_size=4))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(), g=st.sampled_from((1, 2, 3)), big=st.booleans())
def test_divisible_matches_remainder_loop(data, g, big):
    # nested boxes with M_i <= 3; with big, the coordinates Q fixes get
    # cutoffs past 2^63, so the counter runs on Python ints
    k = data.draw(st.integers(1, 2 * g + 1))
    boxes = _nested(data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * (2 * g)),
                                       min_size=1, max_size=3)))
    if big:
        boxes = [tuple(m + 2**64 * (i >= 2 * g - k) for i, m in enumerate(box)) for box in boxes]
    Q = data.draw(_divisors(k))
    got = hyp._divisible(Q, boxes)
    assert got.shape == (len(Q), len(boxes))
    for q, row in zip(Q, got.tolist()):
        assert row == [_divisible_loop(g, q, box) for box in boxes], q
        assert all(type(n) is int for n in row)


@pytest.mark.parametrize("Q", [[[0], [-1]], [[-1]], [[-2]]])
def test_divisible_int64_past_the_zero_slope_cutoff(Q):
    # W M_3 = (2 M_2 + 1) M_3 passes 2^63 while every value stays in int64:
    # f(0) = 0 fixes x_3 = 0 and f(1) = 0 or f(2) = 0 fixes an |x_3| <= M_3,
    # so each Q divides the f of one tuple per (x_0, x_1, x_2)
    box = (1, 2, 2**22, 2**41)
    assert hyp._divisible(Q, [box]).tolist() == [[3 * 5 * (2**23 + 1)]] * len(Q)


@pytest.mark.parametrize("block_bytes", [8, 200, 4000])
def test_divisible_blocks_agree(monkeypatch, block_bytes):
    # small blocks batch Q a few rows at a time and loop over x_0, x_1, ...
    # in Python; every block size gives the same counts
    for g, grid in ((2, [1, Fraction(5, 4), Fraction(3, 2)]), (3, [1, Fraction(9, 8)])):
        wv = hyp.moduli_weights(g)
        boxes = sorted({box for b in grid for _, box in moebius_boxes(wv, b, wv)})
        want = hyp._root_sets(boxes)
        with monkeypatch.context() as mp:
            mp.setattr(hyp, "BLOCK_BYTES", block_bytes)
            assert hyp._root_sets(boxes) == want


def _root_set_oracle(g, boxes):
    """Each nested box's nonzero two-torsion tuples: the column oracle over
    every prefix of the top box, then a loop over its members and cutoffs."""
    top = boxes[-1]
    X = np.array(list(itertools.product(*(range(-m, m + 1) for m in top[:-1]))), dtype=np.int64)
    ys = _two_torsion_columns(X, top[-1])
    want = [0] * len(boxes)
    for prefix, row in zip(X.tolist(), ys.tolist()):
        for y in row:
            x = (*prefix, y)
            if any(x):
                for j, box in enumerate(boxes):
                    want[j] += all(abs(v) <= m for v, m in zip(x, box))
    return want


@pytest.mark.parametrize("g, grid", [
    (2, [1, Fraction(5, 4), Fraction(3, 2)]), (2, [Fraction(7, 4)]),
    (3, [1, Fraction(9, 8), Fraction(7, 6)])])
def test_root_sets_match_column_oracle_on_census_boxes(g, grid):
    wv = hyp.moduli_weights(g)
    boxes = sorted({box for b in grid for _, box in moebius_boxes(wv, b, wv)})
    assert hyp._root_sets(boxes) == _root_set_oracle(g, boxes)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data(), g=st.sampled_from((2, 3)))
def test_root_sets_match_column_oracle(data, g):
    # any nested boxes, so also boxes whose cutoffs do not grow with the weight
    caps = {2: (3, 5, 8, 12), 3: (1, 2, 2, 3, 4, 6)}[g]
    boxes = _nested(data.draw(st.lists(st.tuples(*(st.integers(0, c) for c in caps)),
                                       min_size=1, max_size=3)))
    assert hyp._root_sets(boxes) == _root_set_oracle(g, boxes)


@pytest.mark.parametrize("g, grid, want", [
    (2, [1, Fraction(5, 4)], [42, 1088]), (3, [1, Fraction(9, 8)], None)])
def test_root_sets_walk_no_prefix(monkeypatch, g, grid, want):
    # genus >= 2 two-torsion is counted, not walked: no map_chunks piece, no
    # prefix block
    base = [r.thin for r in hyp.census(g, grid).rows]

    def refuse(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(hyp, "map_chunks", refuse)
    monkeypatch.setattr(hyp, "prefix_blocks", refuse)
    got = [r.thin for r in hyp.census(g, grid, workers=2).rows]
    assert got == base and (want is None or got == want)


def _kernel_genus1(boxes):
    """Each nested box's two-torsion tuples at genus 1 by the column oracle
    over every prefix x_0 of the top box."""
    m0, m1 = boxes[-1]
    X = np.arange(-m0, m0 + 1, dtype=np.int64)[:, None]
    ys = _two_torsion_columns(X, m1)
    return hyp._count_levels(_whole(X, ys), np.array(boxes, dtype=np.int64)).cumsum().tolist()


@SETTINGS
@given(steps=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 600)), min_size=1, max_size=6))
def test_genus1_closed_form_matches_kernel(steps):
    # nested boxes from nonnegative steps, so also boxes with M_0 = 0 or
    # M_1 = 0, and with M_1 far below or above M_0^{3/2}
    boxes = list(dict.fromkeys(itertools.accumulate(
        steps, lambda a, b: (a[0] + b[0], a[1] + b[1]))))
    assert hyp._genus1_two_torsion(boxes) == _kernel_genus1(boxes)


def test_genus1_closed_form_matches_brute_force():
    # every box (M_0, M_1) up to (8, 60), one at a time, against
    # has_integer_root on each tuple of the largest
    cover = covers.two_torsion_cover(1)
    members = np.array([x for x in itertools.product(range(-8, 9), range(-60, 61))
                        if any(x) and covers.has_integer_root(cover.poly_at(x))])
    for m0, m1 in itertools.product(range(9), range(61)):
        want = ((abs(members[:, 0]) <= m0) & (abs(members[:, 1]) <= m1)).sum()
        assert hyp._genus1_two_torsion([(m0, m1)]) == [want], (m0, m1)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_genus1_closed_form_dtype_ladder(monkeypatch, dtype):
    # int64 and Python ints give the int32 ladder's counts, as Python ints
    wv = hyp.moduli_weights(1)
    boxes = sorted({box for b in (2, 4, 8, 12) for _, box in moebius_boxes(wv, b, wv)})
    want = hyp._genus1_two_torsion(boxes)
    monkeypatch.setattr(hyp, "_exact_dtype", lambda top: dtype)
    got = hyp._genus1_two_torsion(boxes)
    assert got == want and all(type(n) is int for n in got)


@pytest.mark.parametrize("smooth_only", [False, True])
def test_census_workers_agree_genus1_closed_form(smooth_only):
    # the closed form runs no map_chunks; with --smooth-only the singular
    # listing still cuts x_0 across the workers
    grid = [2, 3, 4, Fraction(9, 2)]
    base = hyp.census(1, grid, smooth_only=smooth_only, workers=1)
    assert base.rows == hyp.census(1, grid, smooth_only=smooth_only, workers=2).rows


def test_census_workers_agree_genus2_thin():
    grid = [1, Fraction(9, 8), Fraction(5, 4), Fraction(3, 2)]
    base = hyp.census(2, grid, workers=1)
    assert base.rows == hyp.census(2, grid, workers=2).rows
    assert (base.rows[-1].total, base.rows[-1].thin) == (1483844, 55214)
