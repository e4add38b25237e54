"""Property tests of the block column solver (covers.Cover.solve_columns) and
of the census's block counter, against brute force and the scalar t-scan."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wpsieve import arith, covers, hyperelliptic as hyp
from wpsieve.wps import box_cutoffs, box_primes

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
    """The scalar scan the block kernel replaced: every t with |t| <= T of
    the row's own Fujiwara bound, one t at a time."""
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


def _check_block(cover, block, bound, reference):
    ys, keep = cover.solve_columns(block, bound)
    for i, prefix in enumerate(block):
        assert ys[i, keep[i]].tolist() == reference(cover, prefix, bound), prefix
    assert ys.shape[1] <= cover.column_width(
        [max(abs(p[k]) for p in block) for k in range(len(block[0]))], bound)


@SETTINGS
@given(block=_blocks((40,), (16,)), bound=st.integers(0, 300))
def test_block_matches_brute_force_genus1(block, bound):
    _check_block(covers.two_torsion_cover(1), block, bound, brute_column_members)


@SETTINGS
@given(block=_blocks((16, 64, 256), (16, 64, 256)), bound=st.integers(0, 40))
def test_block_matches_brute_force_genus2(block, bound):
    _check_block(covers.two_torsion_cover(2), block, bound, brute_column_members)


@SETTINGS
@given(block=_blocks((5, 5), (2, 4)), bound=st.integers(0, 120))
def test_block_matches_brute_force_cover_file(tmp_path_factory, block, bound):
    path = tmp_path_factory.getbasetemp() / "cover.txt"
    path.write_text(COVER_FILE)
    cover = covers.load_cover_file(path)
    assert cover.column_solver() == -1
    _check_block(cover, block, bound, brute_column_members)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(block=_blocks((50, 50, 50), (16, 64, 256)), bound=st.integers(2**63, 2**66))
def test_block_past_int64_matches_scalar_scan(block, bound):
    # T^5 alone passes 2^63 here, so the kernel must run on Python ints
    cover = covers.two_torsion_cover(2)
    ys, _ = cover.solve_columns(block, bound)
    assert ys.dtype == object
    _check_block(cover, block, bound, scalar_column_members)


def test_solve_columns_needs_a_separated_constant_term():
    cover = covers.disc_square_cover_g1()  # constant term -D(x), two terms
    assert cover.column_solver() is None
    with pytest.raises(ValueError):
        cover.solve_columns([(1,)], 10)
    with pytest.raises(ValueError):
        cover.column_members((1,), 10)


def test_column_members_is_the_one_row_kernel():
    cover = covers.two_torsion_cover(1)
    for A in (-7, 0, 5):
        got = cover.column_members((A,), 200)
        assert got == scalar_column_members(cover, (A,), 200)
        assert all(type(y) is int for y in got)


@SETTINGS
@given(data=st.data(), g=st.sampled_from((1, 2)), smooth=st.booleans())
def test_count_block_matches_member_loop(data, g, smooth):
    # the census's one counter, on a block's singular values and on its
    # column members, against a loop over members and cutoffs
    wv = hyp.moduli_weights(g)
    cutoffs = [box_cutoffs(wv, b) for b in (1, 2)]
    last = len(wv) - 1
    plist = box_primes(wv, 2)
    Ms = cutoffs[-1]
    block = list(dict.fromkeys(data.draw(_blocks(Ms[:-1], plist[0][1][:-1]))))
    cover = covers.two_torsion_cover(g)
    singular = hyp._singular_tuples(g, Ms) if smooth else set()
    sings = []
    want_sing, want_thin = [0] * len(cutoffs), [0] * len(cutoffs)
    for prefix in block:
        j0 = next(j for j, c in enumerate(cutoffs)
                  if all(abs(x) <= cm for x, cm in zip(prefix, c)))
        P = [pas[last] for _, pas in plist
             if all(x % q == 0 for x, q in zip(prefix, pas))]
        sing = sorted(x[last] for x in singular if x[:last] == prefix)
        members = [y for y in cover.column_members(prefix, Ms[last]) if y not in sing]
        sings.append(sing)
        for ys, want in ((sing, want_sing), (members, want_thin)):
            for y in ys:
                if any(y % q == 0 for q in P) or not any((*prefix, y)):
                    continue
                for j in range(j0, len(cutoffs)):
                    if abs(y) <= cutoffs[j][last]:
                        want[j] += 1
    X, cut = np.array(block, dtype=object), np.array(cutoffs, dtype=object)
    got_sing, got_thin = [0] * len(cutoffs), [0] * len(cutoffs)
    S = np.zeros((len(sings), max(1, *map(len, sings))), dtype=object)
    for i, sing in enumerate(sings):
        S[i, : len(sing)] = sing
    in_row = np.arange(S.shape[1]) < np.array([len(sing) for sing in sings])[:, None]
    hyp._count_block(X, S, in_row, cut, plist, got_sing)
    ys, keep = cover.solve_columns(block, Ms[last])
    for i, sing in enumerate(sings):
        for y in sing:
            keep[i] &= ys[i] != y
    hyp._count_block(X, ys, keep, cut, plist, got_thin)
    assert (got_sing, got_thin) == (want_sing, want_thin)
