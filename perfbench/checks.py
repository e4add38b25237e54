"""Exact checks of a pass's job outputs.

Every job output must reproduce the bytes frozen in expected.json; the one
job whose output depends on the seed (the qf batch) is frozen for the
default seed only.  On top of that, CROSS_CHECKS recompute the key
numbers of every pass along cheap paths that share no code with wpsieve:

* point counts from the Moebius closed form instead of a box walk;
* genus-1 two-torsion counts at B <= 3 from the parametrisation
  A = c - e^2, B = -c*e of cubics with the integer root e;
* mod-p images of t^3 + A t + B by listing (A, -t^3 - A t) mod p, which give
  the residue file, the image densities, G(Q) and the sieve bound;
* the paper's chain thin(5) <= survivors <= ls-check rhs, with thin(5) from
  the frozen genus-1 census;
* each qf reduction y_i = x_i * eps^(k a_i) in Z[sqrt D], multiplied out
  with fundamental units written down here, with in_domain(y) printed true
  and y decided to lie in the fundamental domain by exact integer
  comparisons.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from pathlib import Path

import workloads

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# smallest unit > 1 of Z[sqrt D], as (a, b) for a + b sqrt D
FUNDAMENTAL_UNITS = {2: (1, 1), 3: (2, 1), 6: (5, 2), 7: (8, 3), 11: (10, 3),
                     19: (170, 39)}
G1 = (4, 6)  # genus-1 moduli weights (A, B) of t^3 + A t + B
G2 = (4, 6, 8, 10)


def load_expected() -> dict[str, str]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# --- independent arithmetic ----------------------------------------------


def _primes(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _moebius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def closed_count(weights, bound, integral: bool = False) -> int:
    """Points of height <= B (weighted gcd 1, or plain gcd 1 if integral),
    up to the sign action, by Moebius inversion over the gcd."""
    b = Fraction(bound)
    ms = [b.numerator**a // b.denominator**a for a in weights]
    exps = [1] * len(weights) if integral else list(weights)

    def nonzero_gcd1(keep):
        total, d = 0, 1
        while any(d**e <= m for e, m, k in zip(exps, ms, keep) if k):
            prod = math.prod(2 * (m // d**e) + 1 for e, m, k in zip(exps, ms, keep) if k)
            total += _moebius(d) * (prod - 1)
            d += 1
        return total

    every = nonzero_gcd1([True] * len(weights))
    if all(a % 2 == 0 for a in weights):
        return every  # -1 acts trivially
    fixed = nonzero_gcd1([a % 2 == 0 for a in weights])  # odd-weight coords 0
    return (every + fixed) // 2


def thin_g1_by_roots(bound) -> int:
    """Genus-1 points (A, B) of height <= B whose cubic has an integer root."""
    b = Fraction(bound)
    m0, m1 = (b.numerator**a // b.denominator**a for a in G1)
    pts = set()
    emax = math.isqrt(m0 + m1) + 1
    for e in range(-emax, emax + 1):
        for c in range(e * e - m0, e * e + m0 + 1):
            if abs(c * e) <= m1:
                pts.add((c - e * e, -c * e))
    pts.discard((0, 0))
    ps = _primes(b.numerator // b.denominator)
    return sum(1 for A, B in pts if not any(A % p**4 == 0 and B % p**6 == 0 for p in ps))


def g1_excluded_mod_p(p: int) -> set[tuple[int, int]]:
    """(A, B) mod p where t^3 + A t + B has no root mod p."""
    image = {(A, (-t**3 - A * t) % p) for A in range(p) for t in range(p)}
    return {(A, B) for A in range(p) for B in range(p)} - image


def g1_sieve_mass(Q: int) -> Fraction:
    """G(Q) = sum over squarefree q <= Q of prod_{p | q} nu_p / (1 - nu_p)."""
    nu = {p: Fraction(len(g1_excluded_mod_p(p)), p * p) for p in _primes(Q)}
    total = Fraction(0)
    for q in range(1, Q + 1):
        if _moebius(q):
            total += math.prod((nu[p] / (1 - nu[p]) for p in nu if q % p == 0), start=Fraction(1))
    return total


def _fmt_real(v) -> str:
    """The CLI's cell format for a rational or float."""
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else format(float(v), ".12g")


def _qmul(x, y, D):
    return (x[0] * y[0] + D * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _qpow(x, k, D):
    if k < 0:
        n = x[0] * x[0] - D * x[1] * x[1]  # +-1 for a unit
        x, k = (n * x[0], -n * x[1]), -k
    out = (1, 0)
    for _ in range(k):
        out = _qmul(out, x, D)
    return out


def _sign_surd(e: int, f: int, D: int) -> int:
    """Exact sign of e + f sqrt D for a non-square D > 0."""
    if (e >= 0 and f >= 0) or (e <= 0 and f <= 0):
        return (e > 0 or f > 0) - (e < 0 or f < 0)
    return (1 if e > 0 else -1) * (1 if e * e > f * f * D else -1)


def _s_sign(ys, weights, D) -> int:
    """Sign of the domain coordinate s of the tuple ys, which is the sign of
    M1 - M2 with Mj = max_i |sigma_j y_i|^(1/a_i): compare Mj^L, L = lcm a,
    where sigma_2 w = sigma_1 (conjugate of w)."""
    L = math.lcm(*weights)
    ws = [_qpow(y, L // a, D) for y, a in zip(ys, weights) if y != (0, 0)]

    def cmp(u, v):  # sign of |sigma_1 u| - |sigma_1 v| = sign sigma_1(u^2 - v^2)
        u2, v2 = _qmul(u, u, D), _qmul(v, v, D)
        return _sign_surd(u2[0] - v2[0], u2[1] - v2[1], D)

    key = functools.cmp_to_key(cmp)
    return cmp(max(ws, key=key), max(((a, -b) for a, b in ws), key=key))


def in_fundamental_domain(ys, weights, D) -> bool:
    """s(y) in [0, 1): s(y) >= 0 and s(y * eps^-a) = s(y) - 1 < 0."""
    eps = FUNDAMENTAL_UNITS[D]
    down = [_qmul(y, _qpow(eps, -a, D), D) for y, a in zip(ys, weights)]
    return _s_sign(ys, weights, D) >= 0 and _s_sign(down, weights, D) < 0


# --- output parsing --------------------------------------------------------


def _csv(text: str) -> list[dict[str, str]]:
    head, *rows = text.strip().split("\n")
    keys = head.split(",")
    return [dict(zip(keys, r.split(","))) for r in rows]


def _census_rows(text):
    return [(Fraction(r["B"]), int(r["total"]), int(r["thin"])) for r in _csv(text)]


def _fit(rows) -> tuple[float, float]:
    data = [(math.log(b), math.log(v)) for b, v in rows if v > 0]
    n = len(data)
    mx = sum(x for x, _ in data) / n
    my = sum(y for _, y in data) / n
    sxx = sum((x - mx) ** 2 for x, _ in data)
    slope = sum((x - mx) * (y - my) for x, y in data) / sxx
    ssr = sum((y - my - slope * (x - mx)) ** 2 for x, y in data)
    return slope, math.sqrt(ssr / (n - 2) / sxx)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


# --- per-job checks --------------------------------------------------------


def _check_census(weights, smooth: bool = False, two_torsion: bool = False):
    """Totals equal the closed form (smooth-only: at most it); thin <= total;
    with two_torsion, genus-1 thin counts at B <= 3 equal the parametrisation."""
    def check(out, ctx):
        bad = []
        for b, total, thin in _census_rows(out):
            want = closed_count(weights, b)
            if (total > want) if smooth else (total != want):
                bad.append(f"B={b}: total {total} vs closed form {want}")
            if thin > total or (smooth and thin):
                bad.append(f"B={b}: thin {thin} (total {total})")
            if two_torsion and b <= 3 and thin != (roots := thin_g1_by_roots(b)):
                bad.append(f"B={b}: thin {thin} vs root parametrisation {roots}")
        return bad
    return check


def _check_fit(out, ctx):
    got = json.loads(out)
    slope, stderr = _fit([(b, thin) for b, _, thin in ctx["census_g1"]])
    if not (_close(got["slope"], slope) and _close(got["stderr"], stderr)):
        return [f"fit {got} vs recomputed slope {slope}, stderr {stderr}"]
    return []


def _check_omega(out, ctx):
    got: dict[int, set] = {}
    for line in out.split("\n"):
        if line:
            p, m, kind, res = line.split()
            if m != "1" or kind != "explicit":
                return [f"unexpected residue line {line!r}"]
            got.setdefault(int(p), set()).add(tuple(int(v) for v in res.split(",")))
    want = {p: g1_excluded_mod_p(p) for p in _primes(workloads.OMEGA_P_MAX)}
    return [] if got == want else ["residue classes differ from the mod-p images"]


def _check_image_density(out, ctx):
    bad = []
    for r in _csv(out):
        p = int(r["p"])
        want = _fmt_real(1 - Fraction(len(g1_excluded_mod_p(p)), p * p))
        if r["density"] != want:
            bad.append(f"p={p}: density {r['density']} vs {want}")
    return bad


def _check_counts(weights, integral=False):
    def check(out, ctx):
        return [f"B={r['B']}: count {r['count']} vs closed form {want}"
                for r in _csv(out)
                if int(r["count"]) != (want := closed_count(weights, Fraction(r["B"]), integral))]
    return check


def _sieve_row(out):
    (r,) = _csv(out)
    return Fraction(r["B"]), int(r["Q"]), r


def _check_sieve_bound(out, ctx):
    b, Q, r = _sieve_row(out)
    G = g1_sieve_mass(Q)
    bound = math.prod((b**a + Q**2 for a in G1), start=Fraction(1)) / G
    want = {"G": _fmt_real(G), "bound": _fmt_real(bound)}
    return [f"{k} {r[k]} vs {v}" for k, v in want.items() if r[k] != v]


def _check_ls(out, ctx):
    b, Q, r = _sieve_row(out)
    lhs, rhs = int(r["lhs"]), float(r["rhs"])
    G = g1_sieve_mass(Q)
    want_rhs = math.prod(
        (math.sqrt(2 * (b.numerator**a // b.denominator**a) + 1) + Q) ** 2 for a in G1
    ) / float(G)
    thin5 = next(thin for b, _, thin in ctx["census_g1"] if b == 5)
    bad = []
    if r["holds"] != "true" or not thin5 <= lhs <= rhs:
        bad.append(f"chain thin(5)={thin5} <= survivors={lhs} <= rhs={rhs} fails")
    if not _close(rhs, want_rhs):
        bad.append(f"rhs {rhs} vs recomputed {want_rhs}")
    return bad


def _check_qf_batch(out, ctx):
    lines = out.split("\n")[:-1]
    if len(lines) != len(ctx["qf_inputs"]):
        return [f"{len(lines)} results for {len(ctx['qf_inputs'])} inputs"]
    bad = 0
    for src, res in zip(ctx["qf_inputs"], lines):
        D, weights, xs = workloads.parse_qf_line(src)
        parts = res.split()
        if len(parts) != 3 or parts[2] != "True":
            bad += 1
            continue
        k = int(parts[0])
        ys = [tuple(int(v) for v in c.split(":")) for c in parts[1].split(",")]
        eps = FUNDAMENTAL_UNITS[D]
        if (ys != [_qmul(x, _qpow(eps, k * a, D), D) for x, a in zip(xs, weights)]
                or not in_fundamental_domain(ys, weights, D)):
            bad += 1
    return [f"{bad} of {len(lines)} reductions wrong or outside the domain"] if bad else []


CROSS_CHECKS = {
    "census-g1-thin": _check_census(G1, two_torsion=True),
    "census-g2-thin": _check_census(G2),
    "fit-thin": _check_fit,
    "census-g1-smooth": _check_census(G1, smooth=True),
    "census-g1-disc-square": _check_census(G1),
    "census-g2-smooth": _check_census(G2, smooth=True),
    "omega-two-torsion-g1": _check_omega,
    "image-density": _check_image_density,
    "count-4-6": _check_counts((4, 6)),
    "count-1-2-3": _check_counts((1, 2, 3)),
    "count-integral-1-1-1": _check_counts((1, 1, 1), integral=True),
    "sieve-bound": _check_sieve_bound,
    "ls-check": _check_ls,
    "qf-G": lambda out, ctx: [],  # frozen bytes only
    "qf-batch": _check_qf_batch,
}


def new_context(expected: dict[str, str], seed: int, qf_inputs: list[str]) -> dict:
    """What the checks need besides a job's own output: the frozen genus-1
    census, the run's seed and its qf inputs."""
    return {"census_g1": _census_rows(expected["census-g1-thin"]), "seed": seed,
            "qf_inputs": qf_inputs}


def job_problems(rec: dict, expected: dict[str, str], reference: str,
                 ctx: dict) -> list[str]:
    """Problems with one job of one pass.  `reference` is the same job's
    output in the run's first pass; `ctx` comes from new_context."""
    name = rec["name"]
    if rec["error"] is not None:
        return [f"raised: {rec['error'].strip().splitlines()[-1]}"]
    if rec["code"] != 0:
        return [f"exit code {rec['code']}"]
    out = rec["output"]
    frozen = name not in workloads.SEEDED_JOBS or ctx["seed"] == workloads.DEFAULT_SEED
    if frozen and out != expected.get(name):
        return ["output differs from expected.json"]
    if out != reference:
        return ["output differs from the first pass"]
    try:
        return CROSS_CHECKS[name](out, ctx)
    except (ValueError, KeyError, ZeroDivisionError) as e:
        return [f"unparsable output: {type(e).__name__}: {e}"]
