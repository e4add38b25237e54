"""Property tests of the census's two-torsion column kernel
(hyperelliptic._two_torsion_columns), the genus-1 closed form
(hyperelliptic._genus1_two_torsion), the exact root window, the scalar
Cover.column_members and the census's level counter, against brute force,
the scalar Fujiwara-width t-scan and a loop over members and cutoffs."""

import itertools
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
    ys = hyp._two_torsion_columns(np.array(block, dtype=np.int64), bound)
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
        ys = hyp._two_torsion_columns(np.array([prefix], dtype=np.int64), 200)
        assert got == ys[0][abs(ys[0]) <= 200].tolist() == scalar_column_members(cover, prefix, 200)
        assert all(type(y) is int for y in got)


@SETTINGS
@given(data=st.data(), g=st.sampled_from((1, 2)), smooth=st.booleans(),
       dtype=st.sampled_from((np.int64, object)))
def test_count_block_matches_member_loop(data, g, smooth, dtype):
    # the census's level counter, on a block's singular values and on its
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
    got_sing = hyp._count_block(X, S, cut).cumsum().tolist()
    ys = hyp._two_torsion_columns(X, Ms[last]).astype(dtype)
    for i, sing in enumerate(sings):
        for y in sing:
            ys[i][ys[i] == y] = Ms[last] + 1
    got_thin = hyp._count_block(X, ys, cut).cumsum().tolist()
    assert (got_sing, got_thin) == (want_sing, want_thin)


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
        charged = hyp._census_work(wv, grid[-1], "two-torsion", False, len(boxes))
    else:  # the column kernel: prefixes x (2T+1)
        solve = hyp._two_torsion_columns

        def spy(X, bound):
            ys = solve(X, bound)
            built.append(ys.size)
            return ys

        monkeypatch.setattr(hyp, "_two_torsion_columns", spy)
        charged = hyp._census_work(wv, grid[-1], "two-torsion", False)
    hyp.census(g, grid)
    assert 0 < sum(built) <= charged


def _kernel_genus1(boxes):
    """Each nested box's two-torsion tuples at genus 1 by the column kernel
    over every prefix x_0 of the top box."""
    m0, m1 = boxes[-1]
    X = np.arange(-m0, m0 + 1, dtype=np.int64)[:, None]
    ys = hyp._two_torsion_columns(X, m1)
    return hyp._count_block(X, ys, np.array(boxes, dtype=np.int64)).cumsum().tolist()


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
