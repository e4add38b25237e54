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

The command line comes from two tables: `_FLAGS` maps each dest to its value
parser and help (flag --x-y has dest and config key x_y, also spelled x-y),
and `_COMMANDS` maps each command to its help line, its flags beyond the five
common ones, and its runner.  `main` builds the parser of the invoked command
alone.
"""

from __future__ import annotations

import argparse
import decimal
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


# dest -> (value parser, help).  Flag values arrive as strings and go through
# the same parser as config values; a _parse_bool flag takes no value.
_FLAGS = {
    "config": (str, "key=value file; flags override it"),
    "output": (str, "CSV/JSON file (default stdout)"),
    "workers": (_parse_int, f"parallel workers (default ${WORKERS_ENV} or 1)"),
    "budget": (_parse_int, f"tuple budget (default {DEFAULT_BUDGET})"),
    "force": (_parse_bool, "ignore the tuple budget"),
    "weights": (_parse_int_list, "comma list of weights"),
    "heights": (_parse_fraction_list, "comma list of B values"),
    "height_max": (_parse_fraction, "a single B"),
    "integral": (_parse_bool, "gcd-1 integral tuples instead of stack points"),
    "Q": (_parse_int, "sieve over the primes <= Q"),
    "residues": (str, "residue-system file"),
    "density": (_parse_fraction, "constant density per prime <= Q"),
    "m": (_parse_int, "modulus exponent (cross-checked against the file)"),
    "cover": (str, "built-in cover name or file path"),
    "p_max": (_parse_int, "every prime <= P_MAX"),
    "primes": (_parse_int_list, "comma list of primes"),
    "genus": (_parse_int, "curve genus"),
    "thin": (str, "thin tester: two-torsion (an integer root, a rational "
                  "Weierstrass point), disc-square, or none"),
    "smooth_only": (_parse_bool, "count smooth curves only"),
    "input": (str, "census CSV file"),
    "column": (str, "total or thin"),
    "D": (_parse_int, "the field Q(sqrt(D))"),
    "coords": (str, "a:b pairs, comma separated, for a+b*sqrt(D)"),
}

_COMMON = ("config", "output", "workers", "budget", "force")


# --- argument plumbing -----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # machine-readable diagnostics, exit code 2
        _report_error("validation", message)
        raise SystemExit(EXIT_VALIDATION)


def _report_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


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


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset (None) options from the config file; flags keep priority."""
    if not args.config:
        return
    for key, sval in _load_config(args.config).items():
        if key == "command":
            if sval != args.command:
                raise CliError(
                    f"config names command {sval!r} but {args.command!r} was invoked"
                )
            continue
        dest = key.replace("-", "_")
        if dest == "config" or not hasattr(args, dest):
            raise CliError(f"config key {key!r} is not valid for {args.command!r}")
        if getattr(args, dest) is None:
            setattr(args, dest, _FLAGS[dest][0](sval))


def _coerce_flags(args: argparse.Namespace) -> None:
    """Flag values arrive as raw strings; normalize through the same parsers
    the config file uses."""
    for dest, (parse, _) in _FLAGS.items():
        val = getattr(args, dest, None)
        if isinstance(val, str):
            setattr(args, dest, parse(val))


def _resolve_workers(args) -> int:
    w = args.workers
    if w is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            w = int(raw)
        except ValueError:
            raise CliError(f"{WORKERS_ENV}={raw!r} is not an integer") from None
    if w < 1:
        raise CliError(f"worker count must be >= 1, got {w}")
    return w


def _resolve_budget(args) -> int:
    if args.force:
        return _UNLIMITED
    if args.budget is not None:
        if args.budget < 1:
            raise CliError(f"budget must be >= 1, got {args.budget}")
        return args.budget
    # the residue grid has its own, much smaller default cap
    return covers.DENSITY_BUDGET if args.command == "image-density" else DEFAULT_BUDGET


def _need(args, dest: str):
    val = getattr(args, dest)
    if val is None:
        raise CliError(f"{args.command} requires --{dest.replace('_', '-')}")
    return val


def _need_weights(args) -> WeightVector:
    return WeightVector(_need(args, "weights"))


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


# --- command runners -------------------------------------------------------


def _run_count(args):
    wv = _need_weights(args)
    grid = _resolve_grid(args)
    fn = wps.count_integral if args.command == "count-integral" else wps.count
    return ["B", "count"], [[b, fn(wv, b, budget=args.budget)] for b in grid]


def _run_enumerate(args):
    wv = _need_weights(args)
    bound = _resolve_grid(args)[0]  # enumerate has no --heights
    fn = wps.enumerate_integral if args.integral else wps.enumerate_points
    rows = [list(p.coords) for p in fn(wv, bound, budget=args.budget)]
    return [f"x{i}" for i in range(len(wv))], rows


def _sieve_params(args) -> tuple[sieve.SieveParams, sieve.ResidueSystem]:
    wv = _need_weights(args)
    bound = _resolve_grid(args)[0]  # the sieve commands have no --heights
    Q = _need(args, "Q")
    wps.check_budget(Q, args.budget, "sieving the primes up to Q = {}")
    return sieve.SieveParams(wv, bound, Q), _resolve_residues(args, Q)


def _run_sieve_bound(args):
    params, rs = _sieve_params(args)
    G = sieve.compute_G(params.Q, rs)
    # 12 significant digits, also for an integral bound
    bound = _fmt_real(sieve.sieve_upper_bound(params, rs, G))
    return ["B", "Q", "m", "G", "bound"], [[params.bound, params.Q, rs.m, G, bound]]


def _run_survivors(args):
    params, rs = _sieve_params(args)
    n = sieve.survivors(params, rs, budget=args.budget, workers=args.workers)
    return ["B", "Q", "m", "survivors"], [[params.bound, params.Q, rs.m, n]]


def _run_ls_check(args):
    params, rs = _sieve_params(args)
    chk = sieve.testable_ls_inequality(
        params, rs, budget=args.budget, workers=args.workers
    )
    return (  # rhs printed as sieve-bound's bound
        ["B", "Q", "m", "lhs", "rhs", "holds"],
        [[params.bound, params.Q, rs.m, chk.lhs, _fmt_real(chk.rhs), chk.holds]],
    )


def _run_image_density(args):
    arg = _need(args, "cover")
    cover = (covers.load_cover_file(arg, budget=args.budget) if os.path.exists(arg)
             else covers.named_cover(arg))
    if args.primes is not None:
        ps = args.primes
    elif args.p_max is not None:
        # lazily: the density budget stops the walk long before a large
        # --p-max could be sieved
        ps = filter(arith.is_prime, range(2, args.p_max + 1))
    else:
        raise CliError("image-density requires --primes or --p-max")
    rows = []
    for p in ps:
        if not arith.is_prime(p):
            raise CliError(f"{p} is not prime")
        rows.append([p, covers.image_density_mod_p(cover, p, budget=args.budget)])
    return ["p", "density"], rows


def _run_census(args):
    g = _need(args, "genus")
    heights = _need(args, "heights")
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
    path = _need(args, "input")
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
    D = _need(args, "D")
    wv = _need_weights(args)
    raw = _need(args, "coords")
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
    D = _need(args, "D")
    Q = _need(args, "Q")
    density = _need(args, "density")
    wps.check_budget(Q, args.budget, "sieving the primes up to Q = {}")
    G = qf.compute_G_k(qf.QuadField.get(D), Q, density)
    return ["D", "Q", "density", "G"], [[D, Q, density, G]]


_SIEVE_FLAGS = ("weights", "height_max", "Q", "residues", "density", "m")

# command -> (help line, flags beyond _COMMON, runner).  A runner returns a
# CSV header and its rows, or None and a JSON payload.
_COMMANDS = {
    "count": ("points of height <= B per grid entry",
              ("weights", "heights", "height_max"), _run_count),
    "count-integral": ("gcd-1 integer tuples of height <= B per grid entry",
                       ("weights", "heights", "height_max"), _run_count),
    "enumerate": ("list normalized points of height <= B",
                  ("weights", "height_max", "integral"), _run_enumerate),
    "sieve-bound": ("large-sieve upper bound and G(Q)", _SIEVE_FLAGS, _run_sieve_bound),
    "survivors": ("count tuples surviving all residue exclusions",
                  _SIEVE_FLAGS, _run_survivors),
    "ls-check": ("constant-free large-sieve inequality check", _SIEVE_FLAGS, _run_ls_check),
    "image-density": ("image density of a cover mod p",
                      ("cover", "p_max", "primes"), _run_image_density),
    "census": ("totals and thin counts over a height grid",
               ("genus", "heights", "thin", "smooth_only"), _run_census),
    "fit": ("log-log slope of a census column", ("input", "column"), _run_fit),
    "qf-reduce": ("unit-reduce a tuple into the fundamental domain",
                  ("D", "weights", "coords"), _run_qf_reduce),
    "qf-G": ("squarefree ideal sieve mass over Q(sqrt(D))", ("D", "Q", "density"), _run_qf_G),
}


def _top_parser() -> _Parser:
    listing = "\n".join(f"  {name:<16}{line}" for name, (line, _, _) in _COMMANDS.items())
    p = _Parser(
        prog="wpsieve",
        description=__doc__.splitlines()[0],
        epilog=f"commands:\n{listing}\n\n`wpsieve <command> --help` lists its flags",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("command", choices=_COMMANDS, metavar="command",
                   help="one of the commands below, then its flags")
    return p


def _command_parser(command: str) -> _Parser:
    line, flags, _ = _COMMANDS[command]
    p = _Parser(prog=f"wpsieve {command}", description=line)
    for dest in _COMMON + flags:
        parse, help_ = _FLAGS[dest]
        flag = "--" + dest.replace("_", "-")
        if parse is _parse_bool:
            p.add_argument(flag, action="store_const", const=True, help=help_)
        else:
            p.add_argument(flag, help=help_)
    return p


# --- output ----------------------------------------------------------------


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else _fmt_real(v)
    return str(v)


def _fmt_real(v: Fraction) -> str:
    """12 significant digits as format(float(v), ".12g") prints them; past
    the float range the exact value is rounded (half to even) instead."""
    try:
        return format(float(v), ".12g")
    except OverflowError:
        pass
    ctx = decimal.Context(prec=12, Emax=decimal.MAX_EMAX)
    q = ctx.divide(decimal.Decimal(v.numerator), decimal.Decimal(v.denominator))
    return format(ctx.normalize(q), ".12g")


def _render(header, body) -> str:
    if header is None:  # JSON payload (fit)
        return json.dumps(body) + "\n"
    return "".join(",".join(map(_fmt_cell, row)) + "\n" for row in [header, *body])


def _config_echo(args) -> dict:
    skip = {"command", "config"}
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # the command is the first word; only its own parser is built
        command = _top_parser().parse_args(argv[:1]).command
        args = _command_parser(command).parse_args(argv[1:])
    except SystemExit as e:  # argparse already reported via _Parser.error
        return int(e.code or 0)
    args.command = command
    t0 = time.perf_counter()
    try:
        _merge_config(args)
        _coerce_flags(args)
        args.workers = _resolve_workers(args)
        args.budget = _resolve_budget(args)
        header, body = _COMMANDS[command][2](args)
        _emit(args, _render(header, body), time.perf_counter() - t0)
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
