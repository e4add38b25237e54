"""Outside-in layer trace: spans around calls into each module's public
functions, recorded from the benchmark's side of the call.

`install()` replaces each traced attribute on its module (or class) with a
wrapper, so calls made through the module attribute, including calls a
module makes to its own globals, are recorded.  Untraced passes never call
it.  Spans stay in memory as (name, start, end, parent index, info) and are
written out once, when the pass ends.  `layer_metrics` turns a span list
into the per-layer metrics; self time is a span's duration minus its direct
children's.
"""

from __future__ import annotations

import functools
import json
import time

# (span name, module, class or None, attribute, info hook name or None)
TARGETS = (
    ("cli.main", "cli", None, "main", None),
    ("wps.count", "wps", None, "count", "box"),
    ("wps.count_integral", "wps", None, "count_integral", "box"),
    ("sieve.survivors", "sieve", None, "survivors", "survivors"),
    ("sieve.compute_G", "sieve", None, "compute_G", None),
    ("sieve.testable_ls_inequality", "sieve", None, "testable_ls_inequality", None),
    ("covers.column_members", "covers", "Cover", "column_members", "length"),
    ("covers.has_integer_root", "covers", None, "has_integer_root", "truth"),
    ("covers.omega_from_cover", "covers", None, "omega_from_cover", None),
    ("covers.image_density_mod_p", "covers", None, "image_density_mod_p", None),
    ("hyperelliptic.census", "hyperelliptic", None, "census", None),
    ("hyperelliptic.resultant", "hyperelliptic", None, "resultant", None),
    ("hyperelliptic.fit_exponent", "hyperelliptic", None, "fit_exponent", None),
    ("arith.divisors", "arith", None, "divisors", None),
    ("arith.factorize", "arith", None, "factorize", None),
    ("arith.primes_up_to", "arith", None, "primes_up_to", None),
    ("qf.reduce_to_domain", "qf", None, "reduce_to_domain", "ambiguity"),
    ("qf.in_domain", "qf", None, "in_domain", None),
    ("qf.compute_G_k", "qf", None, "compute_G_k", None),
)

# Per-layer metrics, in report order, with units.
PER_LAYER = (
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("wps.count.calls", "count"),
    ("wps.count.s", "s"),
    ("wps.box_tuples", "count"),
    ("wps.points_per_tuple", "ratio"),
    ("sieve.survivors.calls", "count"),
    ("sieve.survivors.s", "s"),
    ("sieve.survivor_ratio", "ratio"),
    ("sieve.compute_G.s", "s"),
    ("sieve.testable_ls_inequality.self_s", "s"),
    ("covers.column_members.calls", "count"),
    ("covers.column_members.s", "s"),
    ("covers.column_members.members", "count"),
    ("covers.has_integer_root.calls", "count"),
    ("covers.has_integer_root.s", "s"),
    ("covers.has_integer_root.hit_ratio", "ratio"),
    ("covers.omega_from_cover.s", "s"),
    ("covers.image_density_mod_p.s", "s"),
    ("hyperelliptic.census.calls", "count"),
    ("hyperelliptic.census.self_s", "s"),
    ("hyperelliptic.resultant.calls", "count"),
    ("hyperelliptic.resultant.s", "s"),
    ("hyperelliptic.fit_exponent.s", "s"),
    ("arith.divisors.calls", "count"),
    ("arith.divisors.s", "s"),
    ("arith.factorize.calls", "count"),
    ("arith.factorize.s", "s"),
    ("arith.primes_up_to.s", "s"),
    ("qf.reduce_to_domain.calls", "count"),
    ("qf.reduce_to_domain.s", "s"),
    ("qf.in_domain.s", "s"),
    ("qf.compute_G_k.s", "s"),
    ("qf.boundary_ambiguity", "count"),
    ("trace.overhead_s", "s"),
)

# Metrics that must repeat exactly between traced passes on the same inputs.
DETERMINISTIC = tuple(
    name for name, unit in PER_LAYER if unit in ("count", "ratio")
)


def _info_hooks():
    # A hook sees the call's positional args, its result (None if it raised)
    # and the exception (None if it returned).
    from wpsieve import qf, wps

    box_volume = wps.box_volume
    ambiguity = qf.BoundaryAmbiguityError
    return {
        # (box tuples walked, points found)
        "box": lambda args, out, exc: [box_volume(args[0], args[1]), out or 0],
        "survivors": lambda args, out, exc: [
            box_volume(args[0].weights, args[0].bound), out or 0],
        "length": lambda args, out, exc: len(out or ()),
        "truth": lambda args, out, exc: int(bool(out)),
        "ambiguity": lambda args, out, exc: int(isinstance(exc, ambiguity)),
    }


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            out = exc = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                info = hook(args, out, exc) if hook else None
                spans[sid] = (name, t0, t1, parent, info)

        return traced

    def install(self) -> None:
        import importlib

        hooks = _info_hooks()
        for name, mod, cls, attr, hook in TARGETS:
            owner = importlib.import_module(f"wpsieve.{mod}")
            if cls is not None:
                owner = getattr(owner, cls)
            setattr(owner, attr, self._wrap(name, getattr(owner, attr),
                                            hooks[hook] if hook else None))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_s)."""
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    child: dict[str, float] = {}
    info: dict[str, list] = {}
    for name, t0, t1, parent, extra in spans:
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (t1 - t0)
        if parent >= 0:
            pname = spans[parent][0]
            child[pname] = child.get(pname, 0.0) + (t1 - t0)
        if extra is not None:
            info.setdefault(name, []).append(extra)

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return incl.get(name, 0.0)

    def self_s(name):
        return s(name) - child.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    walked = info.get("wps.count", []) + info.get("wps.count_integral", [])
    box_tuples = sum(v for v, _ in walked)
    surv = info.get("sieve.survivors", [])
    roots = info.get("covers.has_integer_root", [])
    return {
        "cli.main.calls": n("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "wps.count.calls": n("wps.count"),
        "wps.count.s": s("wps.count"),
        "wps.box_tuples": box_tuples,
        "wps.points_per_tuple": ratio(sum(p for _, p in walked), box_tuples),
        "sieve.survivors.calls": n("sieve.survivors"),
        "sieve.survivors.s": s("sieve.survivors"),
        "sieve.survivor_ratio": ratio(sum(k for _, k in surv),
                                      sum(v for v, _ in surv)),
        "sieve.compute_G.s": s("sieve.compute_G"),
        "sieve.testable_ls_inequality.self_s": self_s("sieve.testable_ls_inequality"),
        "covers.column_members.calls": n("covers.column_members"),
        "covers.column_members.s": s("covers.column_members"),
        "covers.column_members.members": sum(info.get("covers.column_members", [])),
        "covers.has_integer_root.calls": n("covers.has_integer_root"),
        "covers.has_integer_root.s": s("covers.has_integer_root"),
        "covers.has_integer_root.hit_ratio": ratio(sum(roots), len(roots)),
        "covers.omega_from_cover.s": s("covers.omega_from_cover"),
        "covers.image_density_mod_p.s": s("covers.image_density_mod_p"),
        "hyperelliptic.census.calls": n("hyperelliptic.census"),
        "hyperelliptic.census.self_s": self_s("hyperelliptic.census"),
        "hyperelliptic.resultant.calls": n("hyperelliptic.resultant"),
        "hyperelliptic.resultant.s": s("hyperelliptic.resultant"),
        "hyperelliptic.fit_exponent.s": s("hyperelliptic.fit_exponent"),
        "arith.divisors.calls": n("arith.divisors"),
        "arith.divisors.s": s("arith.divisors"),
        "arith.factorize.calls": n("arith.factorize"),
        "arith.factorize.s": s("arith.factorize"),
        "arith.primes_up_to.s": s("arith.primes_up_to"),
        "qf.reduce_to_domain.calls": n("qf.reduce_to_domain"),
        "qf.reduce_to_domain.s": s("qf.reduce_to_domain"),
        "qf.in_domain.s": s("qf.in_domain"),
        "qf.compute_G_k.s": s("qf.compute_G_k"),
        "qf.boundary_ambiguity": sum(info.get("qf.reduce_to_domain", [])),
    }
