import copy
import itertools
import math
import pickle
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wpsieve import cli, qf
from wpsieve.arith import INFINITE, primes_up_to
from wpsieve.qf import (
    VETTED_D,
    BoundaryAmbiguityError,
    DomainSpec,
    QuadField,
    QuadInt,
    compute_G_k,
    fundamental_unit,
    height_infty_k,
    in_domain,
    log_embed,
    prime_ideal_norms_up_to,
    reduce_to_domain,
)
from wpsieve.wps import WeightVector


FUND_UNITS = {2: (1, 1), 3: (2, 1), 6: (5, 2), 7: (8, 3), 11: (10, 3), 19: (170, 39)}


def test_fundamental_units():
    for D, (u, v) in FUND_UNITS.items():
        eps = fundamental_unit(D)
        assert (eps.a, eps.b, eps.D) == (u, v, D)
        assert eps.norm() in (1, -1)
    assert fundamental_unit(2).norm() == -1
    assert fundamental_unit(3).norm() == 1


def test_quadint_arithmetic():
    F = QuadField.get(2)
    x = F.element(3, 1)
    y = F.element(1, -2)
    assert x + y == QuadInt(4, -1, 2)
    assert x - y == QuadInt(2, 3, 2)
    assert -x == QuadInt(-3, -1, 2)
    # (3+√2)(1-2√2) = 3-6√2+√2-4 = -1-5√2
    assert x * y == QuadInt(-1, -5, 2)
    assert x.conj() == QuadInt(3, -1, 2)
    assert x.norm() == 7
    eps = F.epsilon
    assert eps**0 == F.element(1)
    assert eps**3 == QuadInt(7, 5, 2)
    assert eps**-3 * eps**3 == F.element(1)
    assert eps.inverse() * eps == F.element(1)


def test_quadint_errors():
    F2, F3 = QuadField.get(2), QuadField.get(3)
    with pytest.raises(ValueError):
        F2.element(3, 1).inverse()  # norm 7
    with pytest.raises(ValueError):
        F2.element(1) + F3.element(1)
    with pytest.raises(TypeError):
        QuadInt(1.5, 0, 2)
    with pytest.raises(TypeError):
        F2.epsilon ** 1.5


def test_quadint_contract():
    F = QuadField.get(2)
    x = QuadInt(3, -1, 2)
    copies = [pickle.loads(pickle.dumps(x, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in (*copies, copy.copy(x), copy.deepcopy(x), copy.deepcopy((x, x))[0]):
        assert type(y) is QuadInt and (y.a, y.b, y.D) == (3, -1, 2)
        assert y == x and hash(y) == hash(x)
    for name in ("a", "b", "D"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.c = 0
    assert (x.a, x.b, x.D) == (3, -1, 2)
    # equal, with the hash of (a, b, D), only to a QuadInt with the same a, b, D
    assert x == F.element(3, -1) == F.element(3, 1).conj()
    assert hash(x) == hash(F.element(3, -1)) == hash((3, -1, 2))
    for other in (QuadInt(3, -1, 3), QuadInt(3, 1, 2), QuadInt(-3, -1, 2), (3, -1, 2), 3):
        assert x != other and not x == other
    assert not isinstance(x, tuple)
    match x:
        case QuadInt(a, b, D):
            assert (a, b, D) == (3, -1, 2)
    # bool is an int, as before; float, str and None are not
    assert QuadInt(True, 0, 2) == F.element(True) == F.element(1)
    for bad in (1.5, "1", None):
        for args in ((bad, 0, 2), (0, bad, 2), (0, 0, bad)):
            with pytest.raises(TypeError):
                QuadInt(*args)
        for args in ((bad,), (bad, 0), (0, bad)):
            with pytest.raises(TypeError):
                F.element(*args)


def test_quadfield_vetting_and_cache():
    assert QuadField.get(2) is QuadField.get(2)
    for bad in (5, 10, 13, -2, 1):
        with pytest.raises(ValueError):
            QuadField.get(bad)


def test_log_embed_examples():
    F = QuadField.get(2)
    l1, l2 = log_embed(F.epsilon)
    assert abs(l1 - 0.881373587019543) < 1e-12
    assert abs(l1 + l2) < 1e-12  # norm -1: embeddings are reciprocal
    assert log_embed(F.element(1)) == (0.0, 0.0)
    r1, r2 = log_embed(F.element(0, 1))
    assert abs(r1 - 0.34657359027997264) < 1e-12
    assert abs(r2 - r1) < 1e-15
    # |σ₁x| = |σ₂x| when x is rational or rational·√D: both logs alike
    assert r1 == r2 and log_embed(F.element(-5)) == (math.log(5), math.log(5))
    s1, s2 = log_embed(QuadField.get(19).element(0, 403))
    assert s1 == s2
    with pytest.raises(ValueError):
        log_embed(F.element(0))


def test_domain_spec():
    spec = DomainSpec(QuadField.get(3), (1, 2))
    assert isinstance(spec.weights, WeightVector)


def test_in_domain_examples():
    F = QuadField.get(2)
    spec = DomainSpec(F, (1,))
    one = (F.element(1),)
    eps = F.epsilon
    assert in_domain(one, spec, INFINITE)
    assert in_domain(one, spec, 1)
    assert not in_domain((eps,), spec, INFINITE)  # s = 1 exactly
    assert not in_domain((eps * eps,), spec, INFINITE)
    assert not in_domain((eps.inverse(),), spec, INFINITE)
    two = (F.element(2),)
    assert in_domain(two, spec, 2)  # M1*M2 = 4 = T^2
    # T² = 4 − 4·10⁻⁴⁰ + 10⁻⁸⁰ lies just below M1*M2 = 4
    assert not in_domain(two, spec, Fraction(2) - Fraction(1, 10**40))
    assert not in_domain(two, spec, Fraction(19, 10))
    assert in_domain(two, spec, float("inf"))
    with pytest.raises(ValueError):
        in_domain(two, spec, 0)


def test_in_domain_tuple_validation():
    F = QuadField.get(2)
    spec = DomainSpec(F, (1, 2))
    with pytest.raises(ValueError):
        in_domain((F.element(1),), spec, 1)  # length mismatch
    with pytest.raises(ValueError):
        in_domain((F.element(1), QuadField.get(3).element(1)), spec, 1)
    with pytest.raises(ValueError):
        in_domain((F.element(0), F.element(0)), spec, 1)


def test_reduce_examples():
    F = QuadField.get(2)
    spec = DomainSpec(F, (1,))
    one = F.element(1)
    eps = F.epsilon
    assert reduce_to_domain((one,), spec) == ((one,), 0)
    assert reduce_to_domain((eps * eps,), spec) == ((one,), -2)
    assert reduce_to_domain((QuadInt(7, 5, 2),), spec) == ((one,), -3)  # eps^3
    x = (F.element(3, 1),)  # interior point: already reduced
    assert reduce_to_domain(x, spec) == (x, 0)


def test_exact_s1_boundary_excluded():
    # (5ε, 5ε) with weights (1,2) sits exactly on the s = 1 wall; the
    # half-open domain must reject it and reduction must move it to s = 0.
    F = QuadField.get(2)
    spec = DomainSpec(F, (1, 2))
    five_eps = F.element(5) * F.epsilon
    x = (five_eps, five_eps)
    assert not in_domain(x, spec, INFINITE)
    y, k = reduce_to_domain(x, spec)
    assert k == -1
    assert y == (F.element(5), QuadInt(-5, 5, 2))
    assert in_domain(y, spec, INFINITE)
    # and the point on the opposite wall is kept exactly once
    assert not in_domain(qf._unit_translate(y, spec, 1), spec, INFINITE)
    assert not in_domain(qf._unit_translate(y, spec, -1), spec, INFINITE)


def test_reduction_unique_translate():
    rng = random.Random(97)
    for D in (2, 3, 6, 7):
        F = QuadField.get(D)
        for weights in ((1,), (1, 2)):
            spec = DomainSpec(F, weights)
            done = 0
            while done < 25:
                x = tuple(
                    F.element(rng.randint(-9, 9), rng.randint(-9, 9))
                    for _ in weights
                )
                if all(xi.is_zero() for xi in x):
                    continue
                y, k = reduce_to_domain(x, spec)
                assert in_domain(y, spec, INFINITE), (D, weights, x)
                for j in (-3, -2, -1, 1, 2, 3):
                    z = qf._unit_translate(y, spec, j)
                    assert not in_domain(z, spec, INFINITE), (D, weights, x, j)
                # unit action preserves the height
                h0 = height_infty_k(x, weights)
                h1 = height_infty_k(y, weights)
                assert abs(h0 - h1) <= 1e-9 * max(1.0, h0)
                done += 1


def _s_oracle(y, weights, D):
    """The decomposition coordinate s of y, from 120-digit decimal logs,
    rounded to 40 places so that a point on a wall (s an integer) reads as
    that integer despite rounding in the logs.  Independent of `qf._maxima`."""
    with localcontext() as ctx:
        ctx.prec = 120
        r = Decimal(D).sqrt()

        def logs(v):
            return abs(v.a + v.b * r).ln(), abs(v.a - v.b * r).ln()

        pairs = [(logs(v), a) for v, a in zip(y, weights) if not v.is_zero()]
        m1 = max(l1 / a for (l1, _), a in pairs)
        m2 = max(l2 / a for (_, l2), a in pairs)
        e1, e2 = logs(fundamental_unit(D))
        return ((m1 - m2) / (e1 - e2)).quantize(Decimal("1e-40"))


# Large coordinates on which fixed-precision logs cancel: the D = 19 tuple
# once reduced with k = 6 to a point outside the domain; in the D = 7 tuple
# one σ₂ cancelled to 0 and the reduction crashed on log 0 = −inf.
LARGE_D19 = (19, (1,), ((1947448710086743427205, -446775374999829125002),))
LARGE_D7 = (7, (2, 3), (
    (10620044093846930, -4013999369265611),
    (80984046172328467560643, -30609092333679054619239),
))


@pytest.mark.parametrize("D, weights, pairs, k", [LARGE_D19 + (7,), LARGE_D7 + (7,)])
def test_qf_reduce_large_coordinates(D, weights, pairs, k, capsys):
    coords = ",".join(f"{a}:{b}" for a, b in pairs)
    argv = ["qf-reduce", "--D", str(D), "--weights", ",".join(map(str, weights)),
            "--coords", coords]
    assert cli.main(argv) == 0
    row = [int(v) for v in capsys.readouterr().out.splitlines()[1].split(",")]
    assert row[0] == k
    F = QuadField.get(D)
    spec = DomainSpec(F, weights)
    y = tuple(F.element(a, b) for a, b in zip(row[1::2], row[2::2]))
    assert y == qf._unit_translate(tuple(F.element(a, b) for a, b in pairs), spec, k)
    assert 0 <= _s_oracle(y, weights, D) < 1
    assert in_domain(y, spec, INFINITE)


def test_large_coordinate_logs_and_height():
    D, weights, pairs = LARGE_D7
    F = QuadField.get(D)
    x = tuple(F.element(a, b) for a, b in pairs)
    l1, l2 = log_embed(x[0])
    assert math.isfinite(l1) and math.isfinite(l2)
    assert l1 + l2 == pytest.approx(math.log(abs(x[0].norm())), abs=1e-9)
    y, _ = reduce_to_domain(x, DomainSpec(F, weights))
    h = height_infty_k(x, weights)
    assert h == pytest.approx(height_infty_k(y, weights), rel=1e-9)
    assert h == pytest.approx(40.657, rel=1e-4)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    D=st.sampled_from(VETTED_D),
    weights=st.sampled_from([(1,), (1, 2), (2, 3)]),
    pairs=st.lists(st.tuples(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30)),
                   min_size=2, max_size=2),
    j=st.integers(-40, 40),
)
def test_reduction_exact_under_unit_translates(D, weights, pairs, j):
    F = QuadField.get(D)
    spec = DomainSpec(F, weights)
    x = tuple(F.element(a, b) for a, b in pairs[: len(weights)])
    assume(not all(xi.is_zero() for xi in x))
    y, k = reduce_to_domain(x, spec)
    assert reduce_to_domain(qf._unit_translate(x, spec, j), spec) == (y, k - j)
    assert 0 <= _s_oracle(y, weights, D) < 1
    assert in_domain(y, spec, INFINITE)
    for step in (1, -1, 200, -200):  # far translates too: no search over k
        assert not in_domain(qf._unit_translate(y, spec, step), spec, INFINITE)


def _maxima_oracle(y, weights):
    """`qf._maxima` as it was before the per-spec plan: every coordinate
    powered by `_pow` (also at exponent 1), and σ₁'s sign from `_sign_quad`."""
    L, D = weights.lcm, y[0].D
    best1 = best2 = None
    for yi, ai in zip(y, weights):
        if yi.is_zero():
            continue
        a, b = qf._pow((yi.a, yi.b), L // ai, D)
        if qf._sign_quad(a, b, D) < 0:
            a, b = -a, -b
        if best1 is None or qf._sign_quad(a - best1[0], b - best1[1], D) > 0:
            best1 = (a, b)
        c = (a, -b) if a * a > D * b * b else (-a, b)  # ±w̄ᵢ, σ₁ > 0
        if best2 is None or qf._sign_quad(c[0] - best2[0], c[1] - best2[1], D) > 0:
            best2 = c
    return best1, best2


def _in_domain_oracle(x, spec, T):
    """`qf.in_domain` as it was: both walls on `_maxima_oracle`'s pair, the
    step ε^{−2L} read from the unit table, then the cap T^{2L}."""
    D, L = spec.field.D, spec.weights.lcm
    best1, best2 = _maxima_oracle(x, spec.weights)
    low = qf._mul(best1, spec.field._unit_pow(-2 * L), D)
    if qf._cmp1(best1, best2, D) < 0 or qf._cmp1(low, best2, D) >= 0:
        return False
    if T == INFINITE:
        return True
    t = Fraction(T) ** (2 * L)
    z = qf._mul(best1, best2, D)
    return qf._sign_quad(t.denominator * z[0] - t.numerator, t.denominator * z[1], D) <= 0


def _reduce_oracle(x, spec):
    """`qf.reduce_to_domain` as it was: guess k from the logs, step the
    walls with `_mul`, and translate through the checked `QuadInt`."""
    D, L = spec.field.D, spec.weights.lcm
    best1, best2 = _maxima_oracle(x, spec.weights)
    u11, u12 = spec.field._unit_logs
    l1, l2 = (log_embed(QuadInt(*v, D))[0] for v in (best1, best2))
    k = -math.floor((l1 - l2) / (L * (u11 - u12)))
    up, down = spec.field._unit_pow(2 * L), spec.field._unit_pow(-2 * L)
    u = qf._mul(best1, spec.field._unit_pow(2 * L * k), D)
    while qf._cmp1(u, best2, D) < 0:
        u, k = qf._mul(u, up, D), k + 1
    while qf._cmp1(qf._mul(u, down, D), best2, D) >= 0:
        u, k = qf._mul(u, down, D), k - 1
    return tuple(QuadInt(*qf._mul((xi.a, xi.b), spec.field._unit_pow(k * ai), D), D)
                 for xi, ai in zip(x, spec.weights)), k


_COORD = st.one_of(st.just((0, 0)), st.tuples(st.integers(-10**30, 10**30),
                                              st.integers(-10**30, 10**30)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    D=st.sampled_from(VETTED_D),
    weights=st.sampled_from([(1,), (1, 2), (2, 3), (3, 4)]),
    pairs=st.lists(_COORD, min_size=2, max_size=2),
    wall=st.booleans(),
    j=st.integers(-12, 12),
    T=st.sampled_from([INFINITE, 1, Fraction(7, 2), 10**15, 10**40]),
)
def test_reduction_and_membership_against_oracle(D, weights, pairs, wall, j, T):
    # on a wall, every coordinate is rational or a rational multiple of √D,
    # so |σ₁xᵢ| = |σ₂xᵢ|, s(x) = 0, and ε^j·x lies on the wall s = j
    F = QuadField.get(D)
    spec = DomainSpec(F, weights)
    if wall:
        pairs = [(a, 0) if abs(a) >= abs(b) else (0, b) for a, b in pairs]
    base = tuple(F.element(a, b) for a, b in pairs[: len(weights)])
    assume(not all(v.is_zero() for v in base))
    x = tuple(v * F.epsilon ** (j * ai) for v, ai in zip(base, weights))
    assert qf._maxima(x, spec._exps, D) == _maxima_oracle(x, spec.weights)
    y, k = reduce_to_domain(x, spec)
    assert (y, k) == _reduce_oracle(x, spec)
    if wall:
        assert k == -j and y == base
    for z in (x, y, qf._unit_translate(y, spec, 1), qf._unit_translate(y, spec, -1)):
        assert in_domain(z, spec, T) == _in_domain_oracle(z, spec, T)
    assert _in_domain_oracle(y, spec, INFINITE)


_POW_MAX = qf._UNIT_POW_MAX


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    D=st.sampled_from(VETTED_D),
    k=st.one_of(
        st.integers(-_POW_MAX - 8, _POW_MAX + 8),
        st.sampled_from([-_POW_MAX - 1, -_POW_MAX, 0, 1, _POW_MAX, _POW_MAX + 1]),
    ),
)
def test_unit_pow_pairs(D, k):
    # oracle: |k| products by ε or by ε⁻¹ = N(ε)·ε̄, multiplied out by hand;
    # a fresh field starts with an empty table (cold), the second call of
    # the same k reads it (warm) when |k| is inside the bound
    F = QuadField(D)
    n = F.epsilon.norm()
    u, v = (F.epsilon.a, F.epsilon.b) if k >= 0 else (n * F.epsilon.a, -n * F.epsilon.b)
    a, b = 1, 0
    for _ in range(abs(k)):
        a, b = a * u + D * b * v, a * v + b * u
    eps_k = F.epsilon ** k
    assert not F._unit_pows
    assert F._unit_pow(k) == (a, b) == (eps_k.a, eps_k.b)
    assert (k in F._unit_pows) == (abs(k) <= _POW_MAX)
    assert F._unit_pow(k) == (a, b)


@pytest.mark.parametrize("D", VETTED_D)
def test_unit_pow_table_stays_bounded(D):
    F = QuadField(D)
    for k in range(-3 * _POW_MAX, 3 * _POW_MAX + 1):
        assert F._unit_pow(k) == F._unit_pow(k)
        assert len(F._unit_pows) <= 2 * _POW_MAX + 1
    assert sorted(F._unit_pows) == list(range(-_POW_MAX, _POW_MAX + 1))
    eps = F.epsilon ** _POW_MAX
    assert F._unit_pows[_POW_MAX] == (eps.a, eps.b)
    # past the bound the exponent is powered on each call, never stored
    assert F._unit_pow(10**4) == qf._pow(F._units[0], 10**4, D)
    assert len(F._unit_pows) == 2 * _POW_MAX + 1


def _sigma1(v, D):
    with localcontext() as ctx:
        ctx.prec = 120
        return v.a + v.b * Decimal(D).sqrt()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    D=st.sampled_from(VETTED_D),
    weights=st.sampled_from([(1,), (1, 2), (2, 3)]),
    pairs=st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
                   min_size=2, max_size=2),
)
def test_maxima_pairs_against_quadint(D, weights, pairs):
    # best₁ maximises |σ₁wᵢ| and best₂ maximises |σ₂wᵢ| = |σ₁w̄ᵢ| over
    # wᵢ = yᵢ^{L/aᵢ} (public QuadInt powers), each signed so that σ₁ > 0
    F = QuadField.get(D)
    y = tuple(F.element(a, b) for a, b in pairs[: len(weights)])
    assume(not all(yi.is_zero() for yi in y))
    L = WeightVector(weights).lcm
    ws = [yi ** (L // ai) for yi, ai in zip(y, weights) if not yi.is_zero()]

    def top(cands):
        v = max(cands, key=lambda c: abs(_sigma1(c, D)))
        v = v if _sigma1(v, D) > 0 else -v
        return (v.a, v.b)

    best1, best2 = qf._maxima(y, DomainSpec(F, weights)._exps, D)
    assert best1 == top(ws)
    assert best2 == top([w.conj() for w in ws])
    assert _sigma1(F.element(*best1), D) > 0 and _sigma1(F.element(*best2), D) > 0


def test_public_boundary_checks():
    F2, F3 = QuadField.get(2), QuadField.get(3)
    with pytest.raises(TypeError):
        QuadInt(1.5, 0, 2)
    spec = DomainSpec(F2, (1, 2))
    others = ((F2.element(1), F3.element(1)), (1, F2.element(1)))  # not in Q(√2)
    for bad in (*others, (F2.element(0), F2.element(0))):
        with pytest.raises(ValueError):
            reduce_to_domain(bad, spec)
        with pytest.raises(ValueError):
            in_domain(bad, spec, INFINITE)
        with pytest.raises(ValueError):
            height_infty_k(bad, (1, 2))
    for cap in (0, -1, float("-inf")):
        with pytest.raises(ValueError):
            in_domain((F2.element(1), F2.element(1)), spec, cap)
    for pair in ((7, 5), (0, 3), (-10**25, 3 * 10**24)):
        y, k = reduce_to_domain((F2.element(*pair), F2.element(1, 1)), spec)
        assert type(k) is int
        for yi in y:
            assert type(yi) is QuadInt and type(yi.a) is int and type(yi.b) is int
            assert yi.D == 2


def test_height_examples():
    F = QuadField.get(2)
    assert height_infty_k((F.element(1),), (1,)) == pytest.approx(1.0)
    assert height_infty_k((F.element(2),), (1,)) == pytest.approx(4.0)
    assert height_infty_k((F.element(0, 1),), (2,)) == pytest.approx(2**0.5)
    assert height_infty_k((F.epsilon,), (1,)) == pytest.approx(1.0)
    # zero coordinates are skipped in the max
    assert height_infty_k((F.element(0), F.element(2)), (1, 2)) == pytest.approx(2.0)
    # equal weights power nothing: H_(d,d) = H_(1,1)^(1/d), with no ε^{2d} made
    x, t = (F.element(3, 1), F.element(5, -2)), time.perf_counter()
    h = height_infty_k(x, (1000003, 1000003))
    assert time.perf_counter() - t < 0.5
    assert h == pytest.approx(height_infty_k(x, (1, 1)) ** (1 / 1000003))
    with pytest.raises(ValueError):
        height_infty_k((), (1,))


def test_boundary_error_type():
    assert issubclass(BoundaryAmbiguityError, ValueError)
    err = BoundaryAmbiguityError(0.9999999996)
    assert err.s == 0.9999999996


def test_prime_ideal_norm_examples():
    F = QuadField.get(2)
    assert prime_ideal_norms_up_to(F, 10) == [(2, 1), (7, 2), (9, 1)]
    assert prime_ideal_norms_up_to(F, 2) == [(2, 1)]
    assert prime_ideal_norms_up_to(F, 1) == []
    with pytest.raises(ValueError):
        prime_ideal_norms_up_to(F, 0)


def test_prime_ideal_norms_against_root_count():
    # oracle: count solutions of x^2 = D (mod p) directly, no reciprocity
    Q = 10_000
    squares = {}
    for p in primes_up_to(Q):
        r = np.arange(p, dtype=np.int64)
        squares[p] = r * r % p
    for D in VETTED_D:
        want = []
        for p in primes_up_to(Q):
            if (4 * D) % p == 0:
                want.append((p, 1))
                continue
            roots = int(np.count_nonzero(squares[p] == D % p))
            if roots == 2:
                want.append((p, 2))
            elif roots == 0 and p * p <= Q:
                want.append((p * p, 1))
            else:
                assert roots in (0, 2), (D, p)
        assert prime_ideal_norms_up_to(QuadField.get(D), Q) == sorted(want), D


def _G_oracle(field, Q, nu):
    norms = []
    for norm, mult in prime_ideal_norms_up_to(field, Q):
        norms.extend([norm] * mult)
    ratio = Fraction(nu) / (1 - Fraction(nu))
    total = Fraction(0)
    for mask in itertools.product((0, 1), repeat=len(norms)):
        prod = 1
        for bit, n in zip(mask, norms):
            if bit:
                prod *= n
        if prod <= Q:
            total += ratio ** sum(mask)
    return total


def test_compute_G_k_examples():
    F = QuadField.get(2)
    assert compute_G_k(F, 8, Fraction(1, 3)) == Fraction(5, 2)
    assert compute_G_k(F, 14, Fraction(1, 3)) == Fraction(7, 2)
    assert compute_G_k(F, 100, 0) == 1
    with pytest.raises(ValueError):
        compute_G_k(F, 10, 1)
    with pytest.raises(ValueError):
        compute_G_k(F, 10, Fraction(-1, 10))


def test_compute_G_k_against_subset_oracle():
    for D in (2, 7):
        F = QuadField.get(D)
        for Q in (8, 14, 30):
            for nu in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)):
                assert compute_G_k(F, Q, nu) == _G_oracle(F, Q, nu), (D, Q, nu)


def test_G_k_monotone_in_Q_and_nu():
    F = QuadField.get(7)
    vals = [compute_G_k(F, Q, Fraction(1, 3)) for Q in (2, 5, 10, 25, 60)]
    assert vals == sorted(vals)
    by_nu = [compute_G_k(F, 30, nu) for nu in (0, Fraction(1, 4), Fraction(1, 2))]
    assert by_nu == sorted(by_nu)
