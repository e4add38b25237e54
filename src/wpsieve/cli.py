"""Batch command-line front-end.

Runs counting, enumeration, sieve, density, census, fitting, and quadratic-
field experiments from flags or a key=value config file, writing CSV (or
JSON for `fit`) plus a JSON sidecar with timing next to file outputs.

Conventions shared by every command: integers are printed verbatim, reals
with 12 significant digits, line endings are LF; re-running a command with
the same configuration byte-reproduces the main output regardless of the
worker count (timing lives only in the sidecar).  Exit codes: 0 success,
2 validation error, 3 tuple budget exceeded, 4 internal invariant violation.
Errors are reported as a single JSON line on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__, arith, covers, hyperelliptic, qf, sieve, wps
from .wps import DEFAULT_BUDGET, BudgetExceededError, WeightVector

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

WORKERS_ENV = "WPSIEVE_WORKERS"

# budget value used when --force is given: large enough to never trip while
# keeping every code path on the plain-int comparison
_UNLIMITED = 10**18


class CliError(Exception):
    pass


# --- value parsing ---------------------------------------------------------


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise CliError(f"expected an integer, got {s!r}") from None


def _parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"expected a rational (like 3, 3/2 or 1.5), got {s!r}") from None


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(_parse_int(part) for part in s.split(","))


def _parse_fraction_list(s: str) -> tuple[Fraction, ...]:
    return tuple(_parse_fraction(part) for part in s.split(","))


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise CliError(f"expected a boolean, got {s!r}")


def _parse_str(s: str) -> str:
    return s


_CONFIG_PARSERS = {
    "weights": _parse_int_list,
    "heights": _parse_fraction_list,
    "height_max": _parse_fraction,
    "Q": _parse_int,
    "m": _parse_int,
    "genus": _parse_int,
    "thin": _parse_str,
    "cover": _parse_str,
    "residues": _parse_str,
    "density": _parse_fraction,
    "smooth_only": _parse_bool,
    "integral": _parse_bool,
    "workers": _parse_int,
    "budget": _parse_int,
    "force": _parse_bool,
    "output": _parse_str,
    "input": _parse_str,
    "column": _parse_str,
    "D": _parse_int,
    "coords": _parse_str,
    "p_max": _parse_int,
    "primes": _parse_int_list,
}


# --- argument plumbing -----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # machine-readable diagnostics, exit code 2
        _report_error("validation", message)
        raise SystemExit(EXIT_VALIDATION)


def _report_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="wpsieve", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key=value file; flags override it")
        sp.add_argument("--output", help="CSV/JSON file (default stdout)")
        sp.add_argument("--workers", type=int, default=None,
                        help=f"parallel workers (default ${WORKERS_ENV} or 1)")
        sp.add_argument("--budget", type=int, default=None,
                        help=f"tuple budget (default {DEFAULT_BUDGET})")
        sp.add_argument("--force", action="store_const", const=True, default=None,
                        help="ignore the tuple budget")

    def add(name, **kw):
        sp = sub.add_parser(name, **kw)
        common(sp)
        return sp

    for name, integral in (("count", False), ("count-integral", True)):
        sp = add(name, help="points of height <= B per grid entry")
        sp.add_argument("--weights", default=None)
        sp.add_argument("--heights", default=None, help="comma list of B values")
        sp.add_argument("--height-max", dest="height_max", default=None)

    sp = add("enumerate", help="list normalized points of height <= B")
    sp.add_argument("--weights", default=None)
    sp.add_argument("--height-max", dest="height_max", default=None)
    sp.add_argument("--integral", action="store_const", const=True, default=None,
                    help="gcd-1 integral tuples instead of stack points")

    for name in ("sieve-bound", "survivors", "ls-check"):
        sp = add(name, help={
            "sieve-bound": "large-sieve upper bound and G(Q)",
            "survivors": "count tuples surviving all residue exclusions",
            "ls-check": "constant-free large-sieve inequality check",
        }[name])
        sp.add_argument("--weights", default=None)
        sp.add_argument("--height-max", dest="height_max", default=None)
        sp.add_argument("--Q", dest="Q", default=None)
        sp.add_argument("--residues", default=None, help="residue-system file")
        sp.add_argument("--density", default=None,
                        help="constant density per prime <= Q (alternative to --residues)")
        sp.add_argument("--m", dest="m", default=None,
                        help="modulus exponent (cross-checked against the file)")

    sp = add("image-density", help="image density of a cover mod p")
    sp.add_argument("--cover", default=None, help="built-in cover name or file path")
    sp.add_argument("--p-max", dest="p_max", default=None)
    sp.add_argument("--primes", default=None, help="comma list of primes")

    sp = add("census", help="totals and thin counts over a height grid")
    sp.add_argument("--genus", default=None)
    sp.add_argument("--heights", default=None)
    sp.add_argument("--thin", default=None,
                    help="thin tester: two-torsion, disc-square, or none")
    sp.add_argument("--smooth-only", dest="smooth_only", action="store_const",
                    const=True, default=None)

    sp = add("fit", help="log-log slope of a census column")
    sp.add_argument("--input", default=None, help="census CSV file")
    sp.add_argument("--column", default=None, help="total or thin")

    sp = add("qf-reduce", help="unit-reduce a tuple into the fundamental domain")
    sp.add_argument("--D", dest="D", default=None)
    sp.add_argument("--weights", default=None)
    sp.add_argument("--coords", default=None,
                    help="a:b pairs, comma separated, for a+b*sqrt(D)")

    sp = add("qf-G", help="squarefree ideal sieve mass over Q(sqrt(D))")
    sp.add_argument("--D", dest="D", default=None)
    sp.add_argument("--Q", dest="Q", default=None)
    sp.add_argument("--density", default=None)

    return p


def _load_config(path: str) -> dict[str, str]:
    cfg = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot read config {path!r}: {e}") from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


def _merge_config(args: argparse.Namespace, parser_dests: set[str]) -> None:
    """Fill unset (None) options from the config file; flags keep priority."""
    if not args.config:
        return
    cfg = _load_config(args.config)
    for key, sval in cfg.items():
        if key == "command":
            if sval != args.command:
                raise CliError(
                    f"config names command {sval!r} but {args.command!r} was invoked"
                )
            continue
        dest = key.replace("-", "_")
        if dest not in parser_dests or dest in ("config",):
            raise CliError(f"config key {key!r} is not valid for {args.command!r}")
        if getattr(args, dest, None) is None:
            setattr(args, dest, _CONFIG_PARSERS[dest](sval))


def _coerce_flags(args: argparse.Namespace) -> None:
    """Flag values arrive as raw strings; normalize through the same parsers
    the config file uses."""
    for dest, parse in _CONFIG_PARSERS.items():
        if not hasattr(args, dest):
            continue
        val = getattr(args, dest)
        if isinstance(val, str):
            setattr(args, dest, parse(val))


def _resolve_workers(args) -> int:
    w = args.workers
    if w is None:
        raw = os.environ.get(WORKERS_ENV)
        if raw is not None:
            try:
                w = int(raw)
            except ValueError:
                raise CliError(f"{WORKERS_ENV}={raw!r} is not an integer") from None
    if w is None:
        w = 1
    if w < 1:
        raise CliError(f"worker count must be >= 1, got {w}")
    return w


def _resolve_budget(args) -> int:
    if getattr(args, "force", None):
        return _UNLIMITED
    if args.budget is not None:
        if args.budget < 1:
            raise CliError(f"budget must be >= 1, got {args.budget}")
        return args.budget
    return DEFAULT_BUDGET


def _need(args, dest: str, flag: str):
    val = getattr(args, dest, None)
    if val is None:
        raise CliError(f"{args.command} requires {flag}")
    return val


def _need_weights(args) -> WeightVector:
    return WeightVector(_need(args, "weights", "--weights"))


def _resolve_grid(args) -> list[Fraction]:
    heights = getattr(args, "heights", None)
    hmax = getattr(args, "height_max", None)
    if heights is not None and hmax is not None:
        raise CliError("give either --heights or --height-max, not both")
    if heights is not None:
        grid = list(heights)
    elif hmax is not None:
        grid = [hmax]
    else:
        raise CliError(f"{args.command} requires --heights or --height-max")
    if any(b <= 0 for b in grid):
        raise CliError("heights must be positive")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise CliError("heights must increase strictly")
    return grid


def _resolve_residues(args, Q: int) -> sieve.ResidueSystem:
    if args.residues is not None:
        rs = sieve.load_residue_system(args.residues)
        if args.m is not None and args.m != rs.m:
            raise CliError(
                f"--m {args.m} disagrees with the residue file exponent {rs.m}"
            )
        return rs
    if args.density is not None:
        m = args.m if args.m is not None else 1
        return sieve.ResidueSystem.constant_density(arith.primes_up_to(Q), m, args.density)
    raise CliError(f"{args.command} requires --residues FILE or --density NU")


def _resolve_cover(spec: str) -> covers.Cover:
    if os.path.exists(spec):
        return covers.load_cover_file(spec)
    return covers.named_cover(spec)


# --- command runners -------------------------------------------------------


def _run_count(args, integral: bool):
    wv = _need_weights(args)
    grid = _resolve_grid(args)
    fn = wps.count_integral if integral else wps.count
    return ["B", "count"], [[b, fn(wv, b, budget=args.budget)] for b in grid]


def _run_enumerate(args):
    wv = _need_weights(args)
    grid = _resolve_grid(args)
    if len(grid) != 1:
        raise CliError("enumerate takes a single --height-max")
    fn = wps.enumerate_integral if args.integral else wps.enumerate_points
    rows = [list(p.coords) for p in fn(wv, grid[0], budget=args.budget)]
    return [f"x{i}" for i in range(len(wv))], rows


def _sieve_params(args) -> tuple[sieve.SieveParams, sieve.ResidueSystem]:
    wv = _need_weights(args)
    grid = _resolve_grid(args)
    if len(grid) != 1:
        raise CliError(f"{args.command} takes a single --height-max")
    Q = _need(args, "Q", "--Q")
    params = sieve.SieveParams(wv, grid[0], Q)
    rs = _resolve_residues(args, Q)
    return params, rs


def _run_sieve_bound(args):
    params, rs = _sieve_params(args)
    G = sieve.compute_G(params.Q, rs)
    # 12 significant digits, also for an integral bound past the float range
    bound = _fmt_real(Fraction(sieve.sieve_upper_bound(params, rs)))
    return (
        ["B", "Q", "m", "G", "bound"],
        [[params.bound, params.Q, rs.m, G, bound]],
    )


def _run_survivors(args):
    params, rs = _sieve_params(args)
    n = sieve.survivors(params, rs, budget=args.budget, workers=args.workers)
    return ["B", "Q", "m", "survivors"], [[params.bound, params.Q, rs.m, n]]


def _run_ls_check(args):
    params, rs = _sieve_params(args)
    chk = sieve.testable_ls_inequality(
        params, rs, budget=args.budget, workers=args.workers
    )
    return (
        ["B", "Q", "m", "lhs", "rhs", "holds"],
        [[params.bound, params.Q, rs.m, chk.lhs, chk.rhs, chk.holds]],
    )


def _run_image_density(args):
    cover = _resolve_cover(_need(args, "cover", "--cover"))
    if args.primes is not None:
        ps = list(args.primes)
    elif args.p_max is not None:
        ps = arith.primes_up_to(args.p_max)
    else:
        raise CliError("image-density requires --primes or --p-max")
    # the residue grid has its own, much smaller default cap; only an explicit
    # --budget/--force overrides it
    kw = {"budget": args.budget} if args.budget_explicit else {}
    rows = []
    for p in ps:
        if not arith.is_prime(p):
            raise CliError(f"{p} is not prime")
        rows.append([p, covers.image_density_mod_p(cover, p, **kw)])
    return ["p", "density"], rows


def _run_census(args):
    g = _need(args, "genus", "--genus")
    heights = _need(args, "heights", "--heights")
    thin = args.thin if args.thin is not None else "two-torsion"
    table = hyperelliptic.census(
        g,
        list(heights),
        thin=thin,
        smooth_only=bool(args.smooth_only),
        workers=args.workers,
        budget=args.budget,
    )
    rows = [[r.bound, r.total, r.thin, r.thin_label] for r in table.rows]
    return ["B", "total", "thin", "thin_label"], rows


def _run_fit(args):
    path = _need(args, "input", "--input")
    column = args.column if args.column is not None else "total"
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot read census {path!r}: {e}") from None
    with fh:
        table = hyperelliptic.CensusTable.from_csv(fh)
    res = hyperelliptic.fit_exponent(table, column)
    return None, {"slope": res.slope, "stderr": res.stderr}


def _run_qf_reduce(args):
    D = _need(args, "D", "--D")
    wv = _need_weights(args)
    raw = _need(args, "coords", "--coords")
    field = qf.QuadField.get(D)
    coords = []
    for part in raw.split(","):
        bits = part.split(":")
        if len(bits) != 2:
            raise CliError(f"coordinate {part!r} is not of the form a:b")
        coords.append(field.element(_parse_int(bits[0]), _parse_int(bits[1])))
    spec = qf.DomainSpec(field, wv)
    y, k = qf.reduce_to_domain(tuple(coords), spec)
    header = ["k"]
    row = [k]
    for i, yi in enumerate(y):
        header += [f"y{i}_a", f"y{i}_b"]
        row += [yi.a, yi.b]
    return header, [row]


def _run_qf_G(args):
    D = _need(args, "D", "--D")
    Q = _need(args, "Q", "--Q")
    density = _need(args, "density", "--density")
    G = qf.compute_G_k(qf.QuadField.get(D), Q, density)
    return ["D", "Q", "density", "G"], [[D, Q, density, G]]


_RUNNERS = {
    "count": lambda a: _run_count(a, False),
    "count-integral": lambda a: _run_count(a, True),
    "enumerate": _run_enumerate,
    "sieve-bound": _run_sieve_bound,
    "survivors": _run_survivors,
    "ls-check": _run_ls_check,
    "image-density": _run_image_density,
    "census": _run_census,
    "fit": _run_fit,
    "qf-reduce": _run_qf_reduce,
    "qf-G": _run_qf_G,
}


# --- output ----------------------------------------------------------------


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else _fmt_real(v)
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _fmt_real(v: Fraction) -> str:
    """12 significant digits as format(float(v), ".12g") prints them; past
    the float range the exact value is rounded (half to even) instead."""
    try:
        return format(float(v), ".12g")
    except OverflowError:
        pass
    a = abs(v)
    e = len(str(a.numerator // a.denominator)) - 1
    digits = round(a / 10 ** (e - 11))
    if digits == 10**12:
        digits, e = digits // 10, e + 1
    mant = str(digits).rstrip("0")
    mant = mant[0] + ("." + mant[1:] if len(mant) > 1 else "")
    return f"{'-' if v < 0 else ''}{mant}e+{e}"


def _render(header, rows, payload) -> str:
    if header is None:  # JSON payload (fit)
        return json.dumps(payload) + "\n"
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt_cell(v) for v in row) + "\n")
    return buf.getvalue()


def _config_echo(args) -> dict:
    skip = {"command", "config", "budget_explicit"}
    return {
        k: (None if v is None else _fmt_cell(v) if not isinstance(v, tuple) else
            ",".join(_fmt_cell(x) for x in v))
        for k, v in sorted(vars(args).items())
        if k not in skip
    }


def _emit(args, text: str, wall: float) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        sidecar = {
            "command": args.command,
            "config": _config_echo(args),
            "wall_time_s": wall,
            "version": __version__,
        }
        with open(args.output + ".json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
    else:
        sys.stdout.write(text)


# --- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse already reported via _Parser.error
        return int(e.code or 0)
    t0 = time.perf_counter()
    try:
        dests = set(vars(args))
        _merge_config(args, dests)
        _coerce_flags(args)
        args.workers = _resolve_workers(args)
        args.budget_explicit = args.budget is not None or bool(
            getattr(args, "force", None)
        )
        args.budget = _resolve_budget(args)
        out = _RUNNERS[args.command](args)
        if out[0] is None:
            text = _render(None, None, out[1])
        else:
            text = _render(out[0], out[1], None)
        _emit(args, text, time.perf_counter() - t0)
        return EXIT_OK
    except BudgetExceededError as e:
        _report_error("budget", str(e))
        return EXIT_BUDGET
    except (CliError, ValueError, OSError) as e:
        _report_error("validation", str(e))
        return EXIT_VALIDATION
    except AssertionError as e:
        _report_error("internal", f"invariant violation: {e}")
        return EXIT_INTERNAL
    except Exception as e:  # anything unplanned is an internal failure
        _report_error("internal", f"{type(e).__name__}: {e}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
