"""Write expected.json: the output text of every job, from one pass of each
workload on the current code with the default seed.

    python3 perfbench/freeze.py

Run it only when a workload's job list changes on purpose, at a commit whose
outputs are trusted; a speed-up must reproduce the frozen bytes unchanged.
"""

import json
import shutil

import checks
import run
import workloads


def main() -> None:
    outputs = {}
    work = run.OUT / "freeze"
    for name in workloads.WORKLOADS:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        (work / workloads.QF_BATCH_FILE).write_text(
            "\n".join(workloads.qf_batch_lines(workloads.DEFAULT_SEED)) + "\n")
        for rec in run.run_pass(name, work, False, run.RUN_LIMIT_S)["jobs"]:
            if rec["error"] is not None or rec["code"] != 0:
                raise SystemExit(f"{rec['name']} failed; nothing frozen")
            outputs[rec["name"]] = rec["output"]
    shutil.rmtree(work, ignore_errors=True)
    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(outputs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
