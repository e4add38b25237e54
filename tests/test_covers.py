import random
from fractions import Fraction

import pytest

from wpsieve import arith, covers, wps
from wpsieve.covers import Cover, WeightedForm, monomial
from wpsieve.wps import WeightVector, WpsPoint


W46 = WeightVector((4, 6))


def test_weighted_form_homogeneity_checked():
    # 4*x0^3 + 27*x1^2 is weighted degree 12 on (4,6)
    f = WeightedForm(W46, 12, ((4, (3, 0)), (27, (0, 2))))
    assert f.evaluate((-3, 2)) == 0
    with pytest.raises(ValueError):
        WeightedForm(W46, 12, ((1, (1, 1)),))  # 4+6 != 12


def test_typeI_examples():
    x1 = monomial(W46, 1, (0, 1))
    assert covers.typeI_member(x1, WpsPoint((1, 0), W46))
    disc = WeightedForm(W46, 12, ((4, (3, 0)), (27, (0, 2))))
    assert not covers.typeI_member(disc, WpsPoint((0, 1), W46))
    assert covers.typeI_member(disc, WpsPoint((-3, 2), W46))
    with pytest.raises(ValueError):
        covers.typeI_member(x1, WpsPoint((1, 1), WeightVector((1, 2))))


def test_root_cover_member_examples():
    cov = covers.two_torsion_cover(1)
    assert covers.root_cover_member(cov, WpsPoint((0, 1), W46))
    assert not covers.root_cover_member(cov, WpsPoint((1, 1), W46))
    assert covers.root_cover_member(cov, WpsPoint((-1, 0), W46))


def test_has_integer_root_requires_monic():
    assert covers.has_integer_root([1, 0, 0, 1])  # t^3+1
    assert not covers.has_integer_root([1, 1, 0, 1])
    assert covers.has_integer_root([0, -1, 0, 1])  # constant 0
    with pytest.raises(ValueError):
        covers.has_integer_root([1, 0, 2])


def test_image_density_square_cover():
    sq = covers.square_coord_cover()
    assert covers.image_density_mod_p(sq, 5) == Fraction(3, 5)
    assert covers.image_density_mod_p(sq, 2) == 1  # both residues are squares
    for p in arith.primes_up_to(200):
        if p == 2:
            continue
        assert covers.image_density_mod_p(sq, p) == Fraction(p + 1, 2 * p)


def test_image_density_cubic_cover():
    cov = covers.two_torsion_cover(1)
    assert covers.image_density_mod_p(cov, 2) == Fraction(3, 4)
    for p in arith.primes_up_to(100):
        d = covers.image_density_mod_p(cov, p)
        assert 0 < d < 1
        if p >= 5:
            assert abs(float(d) - 2 / 3) <= 1.5 / p ** 0.5


def _density_oracle(cov, p):
    """Direct per-tuple scan, no numpy."""
    import itertools

    width = len(cov.weights)
    hits = 0
    for tup in itertools.product(range(p), repeat=width):
        poly = [c % p for c in cov.poly_at(tup)]
        if any(
            sum(c * pow(t, k, p) for k, c in enumerate(poly)) % p == 0
            for t in range(p)
        ):
            hits += 1
    return Fraction(hits, p ** width)


def test_image_density_against_slow_oracle():
    # besides the built-ins, t^5 + x1 t^3 + 3 x0^4 t + x0^3 x1 (gaps between
    # the nonzero c_j) and t^4 + x1 t^2 (no constant term) over weights (1, 2)
    w12 = WeightVector((1, 2))
    sparse = Cover(w12, 1, 5, (monomial(w12, 1, (3, 1)), monomial(w12, 3, (4, 0)), None,
                               monomial(w12, 1, (0, 1)), None))
    no_c0 = Cover(w12, 1, 4, (None, None, monomial(w12, 1, (0, 1)), None))
    for cov in (*map(covers.named_cover, ("two-torsion-g1", "square-coord",
                                          "disc-square-g1")), sparse, no_c0):
        for p in (2, 3, 5, 7):
            assert covers.image_density_mod_p(cov, p) == _density_oracle(cov, p)


def test_image_budget_counts_every_pass():
    # p Horner passes of degree 2 steps over the p cells of Z/p: 10007 cells,
    # 2 * 10007^2 updates
    sq = covers.square_coord_cover()
    with pytest.raises(wps.BudgetExceededError) as exc:
        covers.image_density_mod_p(sq, 10007, budget=10**7)
    assert exc.value.volume == 2 * 10007**2
    assert covers.image_density_mod_p(sq, 97, budget=2 * 97**2) == Fraction(49, 97)
    with pytest.raises(wps.BudgetExceededError):
        covers.omega_from_cover(sq, 97, budget=2 * 97**2 - 1)


def test_omega_from_cover_examples():
    sq = covers.square_coord_cover()
    om = covers.omega_from_cover(sq, 3)
    assert om.explicit_residues() == frozenset({(2,)})
    assert om.density == Fraction(1, 3)
    om = covers.omega_from_cover(covers.two_torsion_cover(1), 2)
    assert om.explicit_residues() == frozenset({(1, 1)})
    assert om.density == Fraction(1, 4)
    # full image: empty exclusion set
    om = covers.omega_from_cover(sq, 2)
    assert om.explicit_residues() == frozenset()
    assert om.density == 0


def test_membership_is_equivalence_invariant():
    rng = random.Random(13)
    cov = covers.two_torsion_cover(1)
    for _ in range(500):
        x = (rng.randint(-50, 50), rng.randint(-50, 50))
        if not any(x):
            continue
        p = wps.normalize(x, W46)
        lam = Fraction(rng.choice([1, 2, 3, -2]), rng.choice([1, 2]))
        scaled = tuple(lam ** a * c for c, a in zip(x, W46))
        q = wps.normalize(scaled, W46)
        assert covers.root_cover_member(cov, p) == covers.root_cover_member(cov, q)


def test_members_survive_reduction_mod_p():
    # integer root reduces to a root mod p: member points never land in Omega_p
    rng = random.Random(31)
    cov = covers.two_torsion_cover(1)
    omegas = {p: covers.omega_from_cover(cov, p).explicit_residues()
              for p in (2, 3, 5, 7)}
    seen = 0
    while seen < 10_000:
        e = rng.randint(-40, 40)
        c = rng.randint(-40, 40)
        A, B = c - e * e, -c * e  # curves with root t = e
        if (A, B) == (0, 0):
            continue
        pt = wps.normalize((A, B), W46)
        assert covers.root_cover_member(cov, pt)
        for p, om in omegas.items():
            assert tuple(x % p for x in pt.coords) not in om, (A, B, p)
        seen += 1


def test_column_members_match_brute_force():
    rng = random.Random(41)
    cov = covers.two_torsion_cover(1)
    assert cov.column_solver() == 1  # c0 = +x_last, separated from other coeffs
    for _ in range(300):
        A = rng.randint(-60, 60)
        M = rng.randint(1, 400)
        got = cov.column_members((A,), M)
        want = [y for y in range(-M, M + 1)
                if covers.has_integer_root([y, A, 0, 1])]
        assert got == want, (A, M)


def test_column_solver_absent_for_entangled_constant():
    # disc-square cover has c0 = 64*x0^3 + 432*x1^2: no separated column form
    assert covers.disc_square_cover_g1().column_solver() is None


def test_two_torsion_g2_and_named_registry():
    cov = covers.named_cover("two-torsion-g2")
    assert cov.weights == WeightVector((4, 6, 8, 10))
    # t^5 + 1 at (0,0,0,1): root -1
    assert covers.has_integer_root(cov.poly_at((0, 0, 0, 1)))
    with pytest.raises(ValueError):
        covers.named_cover("no-such-cover")


def test_cover_file_round_trip(tmp_path):
    path = tmp_path / "cover.txt"
    path.write_text(
        "# cubic two-torsion family\n"
        "weights 4,6\n"
        "aux-weight 2\n"
        "degree 3\n"
        "c 1 1:1,0\n"
        "c 0 1:0,1\n"
    )
    cov = covers.load_cover_file(path)
    assert cov.degree == 3
    assert cov.poly_at((2, 5)) == [5, 2, 0, 1]
    assert covers.root_cover_member(cov, WpsPoint((0, 1), W46))


def test_cover_rejects_inhomogeneous_coefficient():
    with pytest.raises(ValueError):
        Cover(
            W46,
            2,
            3,
            (
                monomial(W46, 1, (1, 0)),  # degree 4, but slot 0 needs 6
                None,
                None,
            ),
        )
