"""wpsieve benchmark: three workloads, exact-output checks, layer trace.

    python3 perfbench/run.py [--workload census-thin|census-smooth|chain|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; paths are taken relative to this file, and the program is
imported from ../src.  Each pass of a workload's job list runs in a fresh
interpreter (perfbench/passrun.py), so peak RSS and module caches are per
pass.  Passes repeat until --seconds would be exceeded (at least MIN_PASSES).

--trace 0 reports the end-to-end metrics, medians over the passes: wall_s,
cpu_s and peak_rss_mb of the pass, and setup_s, the seconds from spawning
the pass's interpreter until its `import wpsieve` returns.  --trace 1
alternates traced and untraced passes and reports the per-layer metrics of
layertrace.py, medians over traced passes, plus trace.overhead_s, the median
difference between each traced pass and the untraced pass after it; the
deterministic counts of every traced pass must agree exactly, or the run is
invalid.  All reported seconds are normalised (calib.py): compute times to a
reference host speed, setup_s to a reference start-up measured just before
each pass.  The report lines also give the raw medians.

Every job output is checked (checks.py); any failure counts in fail_ratio
and makes `correct` false.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit status is 0 when results were printed (check `correct`), 2 when the
benchmark could not run at all (for example when ../src/wpsieve is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import checks
import layertrace
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MIN_PASSES = 3  # per --trace 0 run
MIN_PASSES_TRACED = 4  # per --trace 1 run: two traced-untraced pairs
RUN_LIMIT_S = 170  # a pass still running this long after its workload began is killed

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "WPSIEVE_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_pass(workload: str, work: Path, traced: bool, timeout: float) -> dict:
    """One pass in a fresh interpreter; an untraced pass is preceded by a
    reference start-up that normalises its set-up time."""
    result, spans = work / "result.json", work / "spans.json"
    env = _child_env()
    ref = None if traced else calib.start_probe(env, ROOT)
    try:
        spawn = time.monotonic()  # CLOCK_MONOTONIC is shared by every process
        p = subprocess.run([sys.executable, str(BENCH / "passrun.py"), workload, str(work),
                            str(result), repr(spawn), *([str(spans)] if traced else [])],
                           env=env, cwd=ROOT, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass still running after {timeout:.0f} s") from None
    if p.returncode != 0:
        raise BenchError(f"{workload} pass exited {p.returncode}: {p.stderr.strip()[-400:]}")
    with open(result, encoding="utf-8") as fh:
        r = json.load(fh)
    r["traced"] = traced
    if ref is not None:
        r["setup_s"] = r["raw"]["setup_s"] * calib.REF_START_S / ref
    if traced:
        with open(spans, encoding="utf-8") as fh:
            layers = layertrace.layer_metrics(json.load(fh))
        k = r["wall_s"] / r["raw"]["wall_s"]  # the pass's mean speed factor
        units = dict(layertrace.PER_LAYER)
        r["layers"] = {name: v * k if units[name] == "s" else v for name, v in layers.items()}
    return r


def _spread(xs, raw) -> str:
    out = f"median of {len(xs)}, min {min(xs):.4g}, max {max(xs):.4g}"
    return out if raw is None else f"{out}; raw median {statistics.median(raw):.4g}"


def bench(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (report lines, result object)."""
    expected = checks.load_expected()
    work = OUT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        qf_inputs = []
        if any(job.kind == "qf-batch" for job in workloads.WORKLOADS[workload]):
            qf_inputs = workloads.qf_batch_lines(seed)
            (work / workloads.QF_BATCH_FILE).write_text("\n".join(qf_inputs) + "\n")
        limit = time.monotonic() + RUN_LIMIT_S
        # untimed: compiles bytecode and warms the file cache
        subprocess.run([sys.executable, "-c", "import wpsieve"], env=_child_env(),
                       cwd=ROOT, capture_output=True, timeout=60, check=True)
        start = time.monotonic()
        passes = []
        # traced passes alternate with untraced ones, which give the overhead
        kinds = (True, False) if trace else (False,)
        least = MIN_PASSES_TRACED if trace else MIN_PASSES
        while True:
            short = len(passes) < least
            est = max((r["raw"]["wall_s"] for r in passes), default=0) * 1.15 + 0.8
            if not short and time.monotonic() + est > start + seconds:
                break
            passes.append(run_pass(workload, work, kinds[len(passes) % len(kinds)],
                                   max(limit - time.monotonic(), 1)))
            if passes[-1]["traced"]:
                shutil.copy(work / "spans.json", OUT / f"spans-{workload}-seed{seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines, attempted, failed = [], 0, 0
    first = passes[0]["jobs"]
    ctx = checks.new_context(expected, seed, qf_inputs)
    for i, r in enumerate(passes):
        for rec, ref in zip(r["jobs"], first):
            attempted += 1
            bad = checks.job_problems(rec, expected, ref["output"], ctx)
            if bad:
                failed += 1
                lines.append(f"  FAIL pass {i} {rec['name']}: {'; '.join(bad)}")
    correct = failed == 0

    untraced = [r for r in passes if not r["traced"]]
    if trace:
        traced = [r for r in passes if r["traced"]]
        for name in layertrace.DETERMINISTIC:
            vals = {r["layers"][name] for r in traced}
            if len(vals) > 1:
                correct = False
                lines.append(f"  FAIL {name} differs between traced passes: {sorted(vals)}")
        metrics = {name: traced[0]["layers"][name] if name in layertrace.DETERMINISTIC
                   else statistics.median(r["layers"][name] for r in traced)
                   for name, _ in layertrace.PER_LAYER if name != "trace.overhead_s"}
        # passes alternate traced, untraced: pairing neighbours cancels drift
        overhead = [t["wall_s"] - u["wall_s"] for t, u in zip(passes[::2], passes[1::2])]
        metrics["trace.overhead_s"] = statistics.median(overhead)
        units = dict(layertrace.PER_LAYER)
        for name, v in metrics.items():
            lines.append(f"  {name:40s} {v:.6g} {units[name]}")
        lines.append(f"  (trace.overhead_s {_spread(overhead, None)} traced-untraced pairs; "
                     f"{len(traced)} traced, {len(untraced)} untraced passes)")
    else:
        units = dict(END_TO_END)
        samples = {k: [r[k] for r in untraced] for k, _ in END_TO_END}
        raw = {k: [r["raw"][k] for r in untraced] for k in ("wall_s", "cpu_s", "setup_s")}
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        for k, v in samples.items():
            lines.append(f"  {k:12s} {metrics[k]:.4f} {units[k]:3s} "
                         f"({_spread(v, raw.get(k))})")
    lines.append(f"  fail_ratio   {failed}/{attempted} = {failed / attempted:.4g} "
                 f"({len(passes)} passes x {len(first)} jobs)")
    lines.insert(0, f"workload {workload}  seed {seed}  trace {int(trace)}  "
                    f"{'ok' if correct else 'INVALID: outputs failed their checks'}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=42)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not (ROOT / "src" / "wpsieve" / "__init__.py").is_file():
        print(f"perfbench: no wpsieve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in names:
        try:
            lines, result = bench(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.SubprocessError) as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
