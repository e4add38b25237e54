"""Run one pass of a workload's job list in this (fresh) process.

    python3 perfbench/passrun.py WORKLOAD WORKDIR RESULT.json SPAWN [SPANS.json]

SPAWN is the time.monotonic() at which the caller started this interpreter;
the clock is shared by every process, so SPAWN to the end of `import
wpsieve`, the first thing this file does, is the pass's raw set-up time.
With a SPANS path the layer trace is installed after the import and its
spans are written there when the pass ends.  The result file records the
raw set-up seconds, the pass's wall and CPU seconds (less the speed
sampler's own time), normalised to reference host speed (calib.py) and raw,
the process's peak RSS, and each job's exit code, error and output text.
`wpsieve` must be importable (run.py sets PYTHONPATH).
"""

from __future__ import annotations

import time

import wpsieve  # noqa: F401  (first, so the set-up time is the import's)

IMPORTED = time.monotonic()

import contextlib
import io
import json
import resource
import sys
import traceback

import calib
import workloads


def _run_cli(argv) -> tuple[int, str]:
    from wpsieve import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _run_omega(path: str) -> str:
    from wpsieve import arith, covers, sieve

    cover = covers.named_cover(workloads.OMEGA_COVER)
    omegas = [covers.omega_from_cover(cover, p)
              for p in arith.primes_up_to(workloads.OMEGA_P_MAX)]
    sieve.dump_residue_system(sieve.ResidueSystem.from_omegas(omegas, 1), path)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _run_qf_batch(work: str) -> str:
    """One `k y0a:y0b,... in_domain` line per input line; `ambiguous` when
    the reduction refuses a near-boundary point."""
    from wpsieve import qf
    from wpsieve.wps import WeightVector

    specs = {}
    out = []
    with open(f"{work}/{workloads.QF_BATCH_FILE}", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line in lines:
        D, weights, pairs = workloads.parse_qf_line(line)
        spec = specs.get((D, weights))
        if spec is None:
            spec = specs[(D, weights)] = qf.DomainSpec(
                qf.QuadField.get(D), WeightVector(weights))
        x = tuple(spec.field.element(a, b) for a, b in pairs)
        try:
            y, k = qf.reduce_to_domain(x, spec)
        except qf.BoundaryAmbiguityError:
            out.append("ambiguous")
            continue
        inside = qf.in_domain(y, spec, qf.INFINITE)
        out.append(f"{k} {','.join(f'{v.a}:{v.b}' for v in y)} {inside}")
    return "\n".join(out) + "\n"


def run_job(job, work: str) -> dict:
    rec = {"name": job.name, "code": None, "error": None, "output": ""}
    try:
        if job.kind == "cli":
            argv = [a.replace("{work}", work) for a in job.argv]
            rec["code"], rec["output"] = _run_cli(argv)
        elif job.kind == "omega":
            rec["code"], rec["output"] = 0, _run_omega(f"{work}/{job.save_as}")
        else:
            rec["code"], rec["output"] = 0, _run_qf_batch(work)
    except Exception:  # a raising job is recorded as failed, not fatal
        rec["error"] = traceback.format_exc(limit=3)
    if job.save_as and job.kind == "cli":
        with open(f"{work}/{job.save_as}", "w", encoding="utf-8") as fh:
            fh.write(rec["output"])
    return rec


def main(argv) -> int:
    workload, work, result_path, spawn = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    tracer = None
    if spans_path:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = []
    with calib.Sampler() as speed:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for job in workloads.WORKLOADS[workload]:
            jobs.append(run_job(job, work))
        wall = time.perf_counter() - wall0 - speed.busy_s
        cpu = time.process_time() - cpu0 - speed.busy_s
    k = speed.factor()
    if tracer is not None:
        tracer.dump(spans_path)
    result = {
        "wall_s": wall * k,
        "cpu_s": cpu * k,
        "raw": {"wall_s": wall, "cpu_s": cpu, "setup_s": IMPORTED - float(spawn)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": jobs,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
