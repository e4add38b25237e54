import io
import itertools
import random
from fractions import Fraction

import pytest

from wpsieve import covers, hyperelliptic as hyp, wps
from wpsieve.hyperelliptic import (
    CensusRow,
    CensusTable,
    HyperellipticPoint,
    census,
    curve_from_point,
    discriminant,
    fit_exponent,
    has_rational_two_torsion,
    is_smooth,
    moduli_weights,
    recommended_Q,
    resultant,
)
from wpsieve.wps import BudgetExceededError, WeightVector, WpsPoint


def _curve(g, coords):
    return HyperellipticPoint(g, WpsPoint(tuple(coords), moduli_weights(g)))


def test_moduli_weights():
    assert tuple(moduli_weights(1)) == (4, 6)
    assert tuple(moduli_weights(2)) == (4, 6, 8, 10)
    assert tuple(moduli_weights(3)) == (4, 6, 8, 10, 12, 14)
    with pytest.raises(ValueError):
        moduli_weights(0)


def test_poly_coefficient_placement():
    assert _curve(1, (0, 1)).poly() == [1, 0, 0, 1]  # t^3 + 1
    assert _curve(1, (-1, 0)).poly() == [0, -1, 0, 1]  # t^3 - t
    # genus 2: x_0 multiplies t^3, then descending powers
    assert _curve(2, (2, 3, 5, 7)).poly() == [7, 5, 3, 2, 0, 1]


def test_curve_from_point_checks_weights():
    pt = WpsPoint((0, 1), moduli_weights(1))
    assert curve_from_point(pt, 1).poly() == [1, 0, 0, 1]
    with pytest.raises(ValueError):
        curve_from_point(pt, 2)


def _sylvester_resultant(A, B):
    """Determinant of the Sylvester matrix, exact over Fraction."""
    A = [c for c in A]
    B = [c for c in B]
    while A and A[-1] == 0:
        A.pop()
    while B and B[-1] == 0:
        B.pop()
    m, n = len(A) - 1, len(B) - 1
    if m < 0 or n < 0:
        return 0
    if m == 0 and n == 0:
        return 1
    size = m + n
    rows = []
    for i in range(n):  # n rows of A's coefficients
        row = [0] * size
        for j, c in enumerate(reversed(A)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(reversed(B)):
            row[i + j] = c
        rows.append(row)
    # fraction-free enough for test sizes: plain Gaussian elimination
    mat = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if mat[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            f = mat[r][col] * inv
            if f:
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    assert det.denominator == 1
    return det.numerator


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(7)
    for _ in range(120):
        dA = rng.randint(1, 5)
        dB = rng.randint(1, 5)
        A = [rng.randint(-9, 9) for _ in range(dA)] + [rng.randint(1, 9)]
        B = [rng.randint(-9, 9) for _ in range(dB)] + [rng.randint(1, 9)]
        assert resultant(A, B) == _sylvester_resultant(A, B), (A, B)


def test_resultant_common_factor_is_zero():
    # (t-2)(t+1) and (t-2)(t^2+3) share a root
    A = [-2, -1, 1]
    B = [-6, 3, -2, 1]
    assert resultant(A, B) == 0
    assert resultant([5], [0, 1]) == 5
    assert resultant([0, 1], [5]) == 5


def test_genus1_discriminant_closed_form():
    for A, B in itertools.product(range(-20, 21), repeat=2):
        h = _curve(1, (A, B))
        assert discriminant(h) == -4 * A**3 - 27 * B**2, (A, B)


def test_smoothness_examples():
    assert is_smooth(_curve(1, (0, 1)))
    assert not is_smooth(_curve(1, (-3, 2)))  # (t-1)^2 (t+2)
    assert not is_smooth(_curve(1, (0, 0)))
    assert is_smooth(_curve(2, (0, 0, 0, 1)))
    assert not is_smooth(_curve(2, (0, 0, 0, 0)))


def test_two_torsion_examples():
    assert has_rational_two_torsion(_curve(1, (0, 1)))
    assert not has_rational_two_torsion(_curve(1, (1, 1)))
    assert has_rational_two_torsion(_curve(1, (-1, 0)))
    assert has_rational_two_torsion(_curve(2, (0, 0, 0, 1)))  # t^5 + 1
    assert not has_rational_two_torsion(_curve(2, (0, 0, 1, 1)))


def _column(g, prefix, S):
    return sorted(x[-1] for x in S if x[:-1] == prefix)


def test_singular_column_finder_matches_scan():
    for g, prefixes, bound in (
        (1, [(a,) for a in range(-6, 7)], 40),
        (2, [(0, 0, 0), (1, -2, 3), (-4, 0, 2)], 30),
    ):
        box = (*(max(abs(p[i]) for p in prefixes) for i in range(2 * g - 1)), bound)
        S = hyp._singular_tuples(g, box)
        for prefix in prefixes:
            want = [
                y
                for y in range(-bound, bound + 1)
                if hyp._disc_poly(hyp._poly_from_coords(g, prefix + (y,))) == 0
            ]
            assert _column(g, prefix, S) == want, (g, prefix)


def test_singular_column_finder_large_window():
    # the cusp family (-3m^2, +-2m^3) at m = 2: y = +-16 at a = -12
    S = hyp._singular_tuples(1, (12, 500))
    for prefix in ((0,), (3,), (-6,), (-12,)):
        want = [
            y
            for y in range(-500, 501)
            if hyp._disc_poly(hyp._poly_from_coords(1, prefix + (y,))) == 0
        ]
        assert _column(1, prefix, S) == want, prefix


def _census_oracle(g, grid, thin, smooth_only):
    wv = moduli_weights(g)
    cover = hyp._tester_cover(thin, g)
    rows = []
    for b in grid:
        total = thin_n = 0
        for pt in wps.enumerate_points(wv, b):
            if smooth_only and not is_smooth(HyperellipticPoint(g, pt)):
                continue
            total += 1
            if cover is not None and covers.root_cover_member(cover, pt):
                thin_n += 1
        rows.append((total, thin_n))
    return rows


@pytest.mark.parametrize("thin", ["two-torsion", "disc-square", "none"])
@pytest.mark.parametrize("smooth_only", [False, True])
def test_census_genus1_matches_enumeration(thin, smooth_only):
    grid = [1, Fraction(3, 2), 2]
    table = census(1, grid, thin=thin, smooth_only=smooth_only)
    want = _census_oracle(1, grid, thin, smooth_only)
    got = [(r.total, r.thin) for r in table.rows]
    assert got == want
    assert [r.thin_label for r in table.rows] == [thin] * 3
    if thin == "none":
        assert all(r.thin == 0 for r in table.rows)


@pytest.mark.parametrize("thin", ["two-torsion", "none"])
def test_census_genus2_matches_enumeration(thin):
    grid = [1, Fraction(5, 4)]
    for smooth_only in (False, True):
        table = census(2, grid, thin=thin, smooth_only=smooth_only)
        want = _census_oracle(2, grid, thin, smooth_only)
        assert [(r.total, r.thin) for r in table.rows] == want


def test_census_known_values():
    table = census(1, [1, 2])
    assert [(r.total, r.thin) for r in table.rows] == [(8, 4), (4248, 240)]
    smooth = census(1, [1, 2], smooth_only=True)
    assert [(r.total, r.thin) for r in smooth.rows] == [(8, 4), (4244, 236)]
    g2 = census(2, [1])
    assert (g2.rows[0].total, g2.rows[0].thin) == (80, 42)


@pytest.mark.parametrize("thin", ["two-torsion", "disc-square", "none"])
@pytest.mark.parametrize("smooth_only", [False, True])
def test_census_workers_agree(thin, smooth_only):
    grid = [1, Fraction(3, 2), 2]
    base = census(1, grid, thin=thin, smooth_only=smooth_only, workers=1)
    multi = census(1, grid, thin=thin, smooth_only=smooth_only, workers=2)
    assert base.rows == multi.rows
    assert multi.metadata["workers"] == 2


def test_census_workers_agree_genus2_smooth_two_torsion():
    # the singular finder's x0 windows and the thin blocks split alike
    grid = [1, Fraction(5, 4)]
    base = census(2, grid, smooth_only=True, workers=1)
    assert base.rows == census(2, grid, smooth_only=True, workers=2).rows
    assert [(r.total, r.thin) for r in base.rows] == [(70, 32), (7244, 1018)]


@pytest.mark.parametrize("g, grid, want", [
    (1, [2, 4, 8, 12], [4, 12, 46, 104]),
    (2, [1, Fraction(5, 4), Fraction(3, 2), 2], [10, 70, 756, 22140]),
    (3, [1, Fraction(9, 8)], [94, 822]),
])
def test_singular_counts_frozen(g, grid, want):
    # frozen: the counts the resultant root filter gave before the q^2 h finder
    wv = moduli_weights(g)
    table = census(g, grid, thin="none", smooth_only=True)
    got = [wps.count(wv, r.bound, budget=None) - r.total for r in table.rows]
    assert got == want


def test_census_monotone_and_bounded():
    table = census(1, [1, 2, 3])
    totals = table.column("total")
    thins = table.column("thin")
    assert totals == sorted(totals)
    assert thins == sorted(thins)
    assert all(t <= n for t, n in zip(thins, totals))


def test_census_validation():
    with pytest.raises(ValueError):
        census(1, [])
    with pytest.raises(ValueError):
        census(1, [2, 1])
    with pytest.raises(ValueError):
        census(1, [1, 2], thin="nope")
    with pytest.raises(ValueError):
        census(2, [1], thin="disc-square")
    with pytest.raises(BudgetExceededError):
        census(1, [1, 2], budget=100)
    # budget=None disables the guard
    census(1, [1], budget=None)


def test_census_budget_counts_work_done():
    # column path: 33 prefixes at B = 2, times the kernel row width 23;
    # pointwise path: the 33 * 129 box; without a thin cover no prefix is
    # visited and nothing is charged
    for thin, work in (("two-torsion", 33 * 23), ("none", 0), ("disc-square", 33 * 129)):
        census(1, [1, 2], thin=thin, budget=work)
        with pytest.raises(BudgetExceededError):
            census(1, [1, 2], thin=thin, budget=work - 1)
    # smooth-only adds the bound on the singular finder's search: at genus 1
    # q = t + q_1 with |q_1| <= R = 2 * (4 + 1) + 1 (covers.root_bound of the
    # box (16, 64)), 23 leaves and no window
    work = 23
    census(1, [1, 2], thin="none", smooth_only=True, budget=work)
    with pytest.raises(BudgetExceededError):
        census(1, [1, 2], thin="none", smooth_only=True, budget=work - 1)
    # a window past the product of the primes below 10^4 (about 10^4300)
    # still gets its filter primes, and the budget refuses it
    with pytest.raises(BudgetExceededError):
        census(1, [10**800], thin="none", smooth_only=True)


def test_census_table_validation():
    row = CensusRow(Fraction(1), 10, 3, "two-torsion")
    CensusTable([row])
    with pytest.raises(ValueError):
        CensusTable([CensusRow(Fraction(1), 3, 10, "two-torsion")])
    with pytest.raises(ValueError):
        CensusTable([row, CensusRow(Fraction(1), 20, 3, "two-torsion")])
    with pytest.raises(ValueError):
        CensusTable([row]).column("nope")


def test_census_csv_round_trip():
    table = census(1, [1, Fraction(3, 2), 2], smooth_only=True)
    buf = io.StringIO()
    table.to_csv(buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "B,total,thin,thin_label"
    assert "1.5," in text
    back = CensusTable.from_csv(io.StringIO(text))
    assert back.rows == table.rows
    with pytest.raises(ValueError):
        CensusTable.from_csv(io.StringIO("wrong,header\n"))


def test_fit_exponent_recovers_power_law():
    rows = [
        CensusRow(Fraction(b), b**3, 0, "none") for b in (1, 2, 4, 8, 16)
    ]
    fit = fit_exponent(CensusTable(rows), "total")
    assert abs(fit.slope - 3.0) < 1e-9
    assert fit.stderr < 1e-9
    with pytest.raises(ValueError):
        fit_exponent(CensusTable(rows[:2]), "total")
    with pytest.raises(ValueError):
        fit_exponent(CensusTable(rows), "thin")  # no positive counts


def test_recommended_Q_examples():
    assert recommended_Q(256, WeightVector((1, 1))) == 16
    assert recommended_Q(100, WeightVector((1, 2))) == 10
    assert recommended_Q(2, WeightVector((4, 6))) == 4
    assert recommended_Q(Fraction(3, 2), WeightVector((4, 6))) == 2
